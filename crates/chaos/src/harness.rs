//! The chaos world: a booted DVM with a fault plan armed on its fabric.

use crate::hook::{ChaosHook, FaultRecord};
use crate::invariant::{InvariantChecker, InvariantCtx, Violation};
use crate::plan::FaultPlan;
use crate::trace;
use parking_lot::Mutex;
use pmix::{PmixUniverse, ProcId};
use prrte::Launcher;
use simnet::{EndpointId, FaultHook, SimTestbed};
use std::sync::Arc;

/// Serializes chaos worlds within one process. Endpoint ids come from a
/// process-global counter, so normalized (`rel_*`) ids are dense and
/// run-stable only while a single world at a time is registering
/// endpoints. Tests that each build a world therefore serialize here
/// automatically, whatever the test harness's thread count.
static WORLD_GATE: Mutex<()> = Mutex::new(());

/// The bundled outcome of one chaos run.
#[derive(Debug)]
pub struct RunReport {
    /// The seed the plan was built from.
    pub seed: u64,
    /// Canonical (sorted) fault trace.
    pub trace: Vec<FaultRecord>,
    /// The trace as deterministic JSON — byte-identical across runs of the
    /// same (seed, scenario).
    pub trace_json: String,
    /// Invariant violations (empty = all hold).
    pub violations: Vec<Violation>,
    /// Flight-recorder snapshot (`introspect/v1` JSON), captured at finish
    /// time when the run killed anything or violated any invariant: the
    /// live cross-layer state — in-flight requests, held CIDs and PGCIDs,
    /// handshake-cache entries, epoch pins, server shard occupancy — the
    /// post-mortem needs. `None` for clean, kill-free runs.
    pub flight_recorder: Option<String>,
}

impl RunReport {
    /// Panic with every violation if any invariant failed.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "seed {} violated {} invariant(s):\n{}",
            self.seed,
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}

/// A DVM with a [`ChaosHook`] armed: run a workload through
/// [`ChaosWorld::launcher`], kill processes via [`ChaosWorld::kill_proc`],
/// then [`ChaosWorld::finish`] to disarm and collect the report.
pub struct ChaosWorld {
    launcher: Launcher,
    hook: Arc<ChaosHook>,
    explicit_kills: Mutex<Vec<EndpointId>>,
    // Held for the world's lifetime; declared last so the universe (and its
    // endpoint registrations) tears down before the next world boots.
    _gate: parking_lot::MutexGuard<'static, ()>,
}

impl ChaosWorld {
    /// Boot a DVM over `testbed` and arm `plan` on its fabric.
    pub fn new(testbed: SimTestbed, plan: FaultPlan) -> Self {
        let gate = WORLD_GATE.lock();
        let nodes = testbed.cluster.node_ids().count();
        let launcher = Launcher::new(testbed);
        let hook = Arc::new(ChaosHook::new(plan));
        launcher
            .universe()
            .fabric()
            .set_fault_hook(Some(hook.clone() as Arc<dyn FaultHook>));
        debug_assert_eq!(
            launcher.universe().server_endpoints().len(),
            nodes + 1,
            "control plane = RM + one server per node",
        );
        Self { launcher, hook, explicit_kills: Mutex::new(Vec::new()), _gate: gate }
    }

    /// The launcher (spawn jobs through this).
    pub fn launcher(&self) -> &Launcher {
        &self.launcher
    }

    /// The universe under the launcher.
    pub fn universe(&self) -> &Arc<PmixUniverse> {
        self.launcher.universe()
    }

    /// The armed hook.
    pub fn hook(&self) -> &Arc<ChaosHook> {
        &self.hook
    }

    /// Number of control-plane endpoints (RM daemon + per-node servers).
    /// They registered first, so their normalized ids are `0..this`.
    pub fn control_plane(&self) -> u64 {
        self.universe().server_endpoints().len() as u64
    }

    /// Normalized endpoint id of `rank` in the world's **first** spawned
    /// job (ranks register densely right after the control plane).
    pub fn rank_rel(&self, rank: u32) -> u64 {
        self.control_plane() + rank as u64
    }

    /// Kill a process explicitly (recorded for the failure-delivery check).
    pub fn kill_proc(&self, proc: &ProcId) {
        if let Ok(entry) = self.universe().registry().locate(proc) {
            self.explicit_kills.lock().push(entry.endpoint);
        }
        let _ = self.universe().kill_proc(proc);
    }

    /// Disarm the hook and evaluate every invariant.
    ///
    /// `reinit_ok` reports whether a post-kill session re-init succeeded
    /// (if the scenario performed one); `cid_agree` lists process names
    /// whose `cid` counters must match (symmetric scenarios only).
    pub fn finish(self, reinit_ok: Option<bool>, cid_agree: Vec<String>) -> RunReport {
        let fabric = self.universe().fabric();
        fabric.set_fault_hook(None);
        let seed = self.hook.plan().seed;
        let trace = trace::canonicalize(self.hook.records());
        let trace_json = trace::to_json(&trace);
        let mut expected_dead = self.hook.killed();
        expected_dead.extend(self.explicit_kills.lock().iter().copied());
        let obs = fabric.obs();
        let any_kills = !expected_dead.is_empty();
        // Snapshot every tracked survivors pset (`Session::track_faults`)
        // down to endpoints, so the checker can audit that no killed
        // process is still listed as a survivor.
        let registry = self.universe().registry();
        let tracked_psets: Vec<(String, Vec<simnet::EndpointId>)> = registry
            .pset_names()
            .into_iter()
            .filter(|n| n.starts_with(pmix::SURVIVORS_PSET_PREFIX))
            .filter_map(|n| {
                let members = registry.pset_members(&n).ok()?;
                let eps = members
                    .iter()
                    .filter_map(|p| registry.locate(p).ok().map(|e| e.endpoint))
                    .collect();
                Some((n, eps))
            })
            .collect();
        let violations = InvariantChecker::standard().check(&InvariantCtx {
            obs: &obs,
            fabric,
            trace: &trace,
            expected_dead,
            reinit_ok,
            cid_agree,
            tracked_psets,
        });
        // Auto-attach the flight recorder whenever there is something to
        // diagnose: a violated invariant or an injected/explicit kill.
        let flight_recorder = (any_kills || !violations.is_empty())
            .then(|| mpi_sessions::introspect::snapshot_string(self.universe()));
        RunReport { seed, trace, trace_json, violations, flight_recorder }
    }
}

impl Drop for ChaosWorld {
    fn drop(&mut self) {
        // Belt and braces: never let an armed hook see teardown traffic.
        self.universe().fabric().set_fault_hook(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultClass, FaultRule, RuleScope, SeqWindow};
    use prrte::JobSpec;

    #[test]
    fn quiet_world_runs_a_job_and_reports_clean() {
        let world = ChaosWorld::new(SimTestbed::tiny(2, 1), FaultPlan::quiet(0));
        let out = world
            .launcher()
            .spawn(JobSpec::new(2), |ctx| ctx.rank())
            .join()
            .unwrap();
        assert_eq!(out, vec![0, 1]);
        let report = world.finish(None, Vec::new());
        assert!(report.trace.is_empty());
        assert_eq!(report.trace_json, "[]");
        report.assert_clean();
    }

    #[test]
    fn explicit_kill_is_expected_by_the_failure_check() {
        let world = ChaosWorld::new(SimTestbed::tiny(2, 1), FaultPlan::quiet(1));
        let handle = world.launcher().spawn(JobSpec::new(2), |ctx| {
            if ctx.rank() == 1 {
                ctx.park_until_killed();
            }
            ctx.rank()
        });
        world.kill_proc(&ProcId::new(handle.nspace(), 1));
        let _ = handle.join();
        world.finish(None, Vec::new()).assert_clean();
    }

    #[test]
    fn control_plane_and_rank_rel_are_dense() {
        let world = ChaosWorld::new(SimTestbed::tiny(3, 2), FaultPlan::quiet(2));
        assert_eq!(world.control_plane(), 4, "RM + 3 node servers");
        assert_eq!(world.rank_rel(0), 4);
        assert_eq!(world.rank_rel(5), 9);
        // The fabric's base endpoint is the RM (first registration).
        let fabric = world.universe().fabric();
        let rm = world.universe().server_endpoints()[0];
        assert_eq!(fabric.base_endpoint_id(), rm.0);
        world.finish(None, Vec::new()).assert_clean();
    }

    #[test]
    fn clean_run_attaches_no_flight_recorder() {
        let world = ChaosWorld::new(SimTestbed::tiny(1, 1), FaultPlan::quiet(7));
        let out = world.launcher().spawn(JobSpec::new(1), |ctx| ctx.rank()).join().unwrap();
        assert_eq!(out, vec![0]);
        let report = world.finish(None, Vec::new());
        report.assert_clean();
        assert!(report.flight_recorder.is_none(), "nothing to diagnose, nothing attached");
    }

    #[test]
    fn kill_attaches_a_parseable_flight_recorder() {
        let world = ChaosWorld::new(SimTestbed::tiny(2, 1), FaultPlan::quiet(8));
        let handle = world.launcher().spawn(JobSpec::new(2), |ctx| {
            if ctx.rank() == 1 {
                ctx.park_until_killed();
            }
            ctx.rank()
        });
        world.kill_proc(&ProcId::new(handle.nspace(), 1));
        let _ = handle.join();
        let report = world.finish(None, Vec::new());
        report.assert_clean();
        let artifact = report.flight_recorder.expect("a kill always attaches the recorder");
        let v = serde_json::parse_value(&artifact).expect("artifact is valid JSON");
        let obj = v.as_object().expect("artifact is an object");
        assert_eq!(
            obj.get("schema").and_then(|s| s.as_str()),
            Some(mpi_sessions::introspect::SCHEMA)
        );
        for section in ["processes", "registry", "servers", "cvars"] {
            assert!(obj.contains_key(section), "missing section {section}");
        }
    }

    #[test]
    fn armed_drop_rule_is_traced_and_accounted() {
        let rule = FaultRule::new(
            FaultClass::Drop,
            RuleScope::any(),
            SeqWindow::exactly(0),
        );
        let world = ChaosWorld::new(SimTestbed::tiny(1, 2), FaultPlan::new(5, vec![rule]));
        // Raw endpoint traffic below the PMIx layer: first message dropped,
        // second delivered.
        let fabric = world.universe().fabric();
        let a = fabric.register(simnet::NodeId(0));
        let b = fabric.register(simnet::NodeId(0));
        a.sender().send(b.id(), bytes::Bytes::from_static(b"lost")).unwrap();
        a.sender().send(b.id(), bytes::Bytes::from_static(b"kept")).unwrap();
        let got = b.recv_timeout(std::time::Duration::from_secs(2)).unwrap();
        assert_eq!(&got.payload[..], b"kept");
        let report = world.finish(None, Vec::new());
        assert_eq!(report.trace.len(), 1);
        assert_eq!(report.trace[0].class, FaultClass::Drop);
        assert_eq!(report.trace[0].pair_seq, 0);
        report.assert_clean();
    }
}
