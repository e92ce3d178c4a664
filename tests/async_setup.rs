//! The interleaving test layer for the nonblocking setup engine
//! (`SetupRequest` / `ProgressEngine`): request-based session, group and
//! communicator construction must complete under *any* progress schedule
//! — explicit `test` stepping, the per-process engine, or `wait` — with
//! cross-rank CID agreement, per-comm channel isolation, and no deadlock.
//!
//! The `ProgressDriver` harness here single-steps the state machines in
//! arbitrary per-rank orders; `tests/properties.rs` feeds it randomized
//! schedules via proptest, and the chaos suite injects faults between the
//! same stages (`async_setup` scenario, `request-terminal` invariant).

use chaos::{ChaosHook, FaultClass, FaultPlan, FaultRule, RuleScope, SeqWindow};
use mpi_sessions_repro::mpi::cid::ExCid;
use mpi_sessions_repro::mpi::instance::MpiProcess;
use mpi_sessions_repro::mpi::{Comm, ErrHandler, Info, Session, SetupRequest, ThreadLevel};
use mpi_sessions_repro::prrte::{JobSpec, Launcher};
use mpi_sessions_repro::simnet::{FaultHook, SimTestbed};
use std::sync::Arc;
use std::time::Duration;

// ----------------------------------------------------------------------
// ProgressDriver: a harness that single-steps the setup engine
// ----------------------------------------------------------------------

/// Drives a batch of in-flight [`SetupRequest`]s one explicit `test` step
/// at a time, in a caller-chosen order — the scheduler the proptest layer
/// permutes. Completion order across ranks is entirely decoupled: every
/// request's opening exchange went on the wire at issue time, so stepping
/// choices only decide *who polls what when*, never whether peers can
/// make progress.
struct ProgressDriver {
    slots: Vec<Option<SetupRequest<Comm>>>,
    /// Stage-name transition log per request (harness introspection).
    stages: Vec<Vec<&'static str>>,
}

impl ProgressDriver {
    fn new(reqs: Vec<SetupRequest<Comm>>) -> Self {
        let stages = reqs.iter().map(|r| vec![r.stage()]).collect();
        Self { slots: reqs.into_iter().map(Some).collect(), stages }
    }

    /// One `test` step of request `i`; true once it is terminal.
    fn step(&mut self, i: usize) -> bool {
        let Some(req) = self.slots[i].as_mut() else { return true };
        let done = req.test().expect("setup request failed");
        let stage = req.stage();
        if self.stages[i].last() != Some(&stage) {
            self.stages[i].push(stage);
        }
        done
    }

    /// Cycle through `schedule` until every request completes, then claim
    /// the communicators in index order. Panics (deadlock) if a bounded
    /// number of sweeps does not finish the batch.
    fn run(&mut self, schedule: &[usize]) -> Vec<Comm> {
        let mut remaining: usize = self.slots.iter().filter(|s| s.is_some()).count();
        for _sweep in 0..200_000 {
            let before = remaining;
            for &i in schedule {
                if self.slots[i].is_some() && !self.stages[i].contains(&"done") && self.step(i) {
                    remaining -= 1;
                }
            }
            if remaining == 0 {
                return self
                    .slots
                    .iter_mut()
                    .map(|s| s.take().unwrap().wait().expect("claim completed comm"))
                    .collect();
            }
            if remaining == before {
                // Nothing completed this sweep: the exchanges are still in
                // flight on the fabric; back off instead of busy-spinning.
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        panic!("ProgressDriver: schedule {schedule:?} did not complete (deadlock?)");
    }
}

fn world_base(ctx: &prrte::ProcCtx) -> (Session, mpi_sessions_repro::mpi::MpiGroup) {
    let s = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap();
    let g = s.group_from_pset("mpi://world").unwrap();
    (s, g)
}

/// Distinct payload per comm index; any cross-comm mixup changes it.
fn ping(c: &Comm, i: usize) {
    let peer = 1 - c.rank();
    let me = c.rank();
    let msg = format!("comm{i}-from{me}");
    let (reply, _) = c.sendrecv(peer, i as i32, msg.as_bytes(), peer as i32, i as i32).unwrap();
    assert_eq!(reply, format!("comm{i}-from{peer}").as_bytes());
}

// ----------------------------------------------------------------------
// Engine-driven completion
// ----------------------------------------------------------------------

/// A batch of `icomm_create_from_group` requests completes purely under
/// `MpiProcess::progress` (no `wait`, no explicit `test`), the engine
/// prunes them as they turn terminal, and the claimed communicators agree
/// on exCIDs across ranks and carry isolated channels.
#[test]
fn engine_progress_completes_concurrent_icomms() {
    const K: usize = 4;
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    let out = launcher
        .spawn(JobSpec::new(2), |ctx| {
            let (s, g) = world_base(&ctx);
            let process = MpiProcess::obtain(&ctx);
            let reqs: Vec<SetupRequest<Comm>> = (0..K)
                .map(|i| Comm::icomm_create_from_group(&g, &format!("eng{i}")).unwrap())
                .collect();
            assert_eq!(process.progress_engine().in_flight(), K, "all registered");
            let mut sweeps = 0u64;
            while process.progress() > 0 {
                sweeps += 1;
                assert!(sweeps < 200_000, "engine never drained {K} requests");
                std::thread::sleep(Duration::from_micros(50));
            }
            let comms: Vec<Comm> = reqs
                .into_iter()
                .map(|r| {
                    assert!(r.is_complete(), "engine left a request in flight");
                    assert_eq!(r.stage(), "done");
                    assert!(r.steps() > 0, "request never stepped");
                    // `wait` after engine completion claims without blocking.
                    r.wait().unwrap()
                })
                .collect();
            let excids: Vec<_> = comms.iter().map(|c| c.excid().unwrap()).collect();
            for (i, c) in comms.iter().enumerate() {
                ping(c, i);
            }
            let cids: Vec<u16> = comms.iter().map(|c| c.local_cid()).collect();
            let mut uniq = cids.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), K, "local CIDs must be distinct per process: {cids:?}");
            for c in comms {
                c.free().unwrap();
            }
            assert_eq!(process.progress_engine().in_flight(), 0);
            s.finalize().unwrap();
            excids
        })
        .join()
        .unwrap();
    assert_eq!(out[0], out[1], "ranks must agree on every exCID");
    let mut uniq = out[0].clone();
    uniq.sort();
    uniq.dedup();
    assert_eq!(uniq.len(), K, "concurrent constructs must get distinct exCIDs");
}

/// Opposed per-rank schedules: rank 0 polls its requests forward, rank 1
/// polls the same collectives backward. The constructions are collective,
/// the polling is not — every schedule must complete with agreement.
#[test]
fn opposed_step_schedules_still_agree() {
    const K: usize = 4;
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    let out = launcher
        .spawn(JobSpec::new(2), |ctx| {
            let (s, g) = world_base(&ctx);
            let reqs: Vec<SetupRequest<Comm>> = (0..K)
                .map(|i| Comm::icomm_create_from_group(&g, &format!("sched{i}")).unwrap())
                .collect();
            let schedule: Vec<usize> = if ctx.rank() == 0 {
                (0..K).collect()
            } else {
                (0..K).rev().collect()
            };
            let mut driver = ProgressDriver::new(reqs);
            let comms = driver.run(&schedule);
            // Stage transitions are monotone through the state machine.
            for log in &driver.stages {
                let order = ["begin", "group", "commit", "done"];
                let idx: Vec<usize> =
                    log.iter().map(|s| order.iter().position(|o| o == s).unwrap()).collect();
                assert!(idx.windows(2).all(|w| w[0] < w[1]), "stage log not monotone: {log:?}");
                assert_eq!(log.last(), Some(&"done"));
            }
            let excids: Vec<_> = comms.iter().map(|c| c.excid().unwrap()).collect();
            for (i, c) in comms.iter().enumerate() {
                ping(c, i);
            }
            for c in comms {
                c.free().unwrap();
            }
            s.finalize().unwrap();
            excids
        })
        .join()
        .unwrap();
    assert_eq!(out[0], out[1]);
}

/// `Session::init_i` and `Session::igroup_from_pset` run through the same
/// machinery: staged, introspectable, and claimable mid-pipeline — a
/// session whose init request is still nominally in flight elsewhere in
/// the batch can already resolve groups.
#[test]
fn init_i_and_igroup_stage_through_engine() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    launcher
        .spawn(JobSpec::new(2), |ctx| {
            let mut ireq =
                Session::init_i(&ctx, ThreadLevel::Multiple, ErrHandler::Return, &Info::null());
            assert_eq!(ireq.op(), "session_init");
            // `issue` already ran the `resources` stage synchronously.
            assert_eq!(ireq.stage(), "handle");
            while !ireq.test().unwrap() {}
            let s = ireq.wait().unwrap();
            assert_eq!(s.thread_level(), ThreadLevel::Multiple);

            let mut greq = s.igroup_from_pset("mpi://world");
            assert_eq!(greq.op(), "group_from_pset");
            while !greq.test().unwrap() {}
            let g = greq.wait().unwrap();
            assert_eq!(g.size(), 2);

            let c = Comm::create_from_group(&g, "igroup-comm").unwrap();
            ping(&c, 0);
            c.free().unwrap();
            s.finalize().unwrap();
        })
        .join()
        .unwrap();
}

// ----------------------------------------------------------------------
// Pipelining: concurrent constructions coalesce PGCID round trips
// ----------------------------------------------------------------------

fn count_pgcid_requests(launcher: &Launcher) -> usize {
    launcher
        .universe()
        .fabric()
        .obs()
        .spans_snapshot()
        .iter()
        .filter(|s| s.name == "pgcid.request")
        .count()
}

/// The acceptance claim of the async engine: with the PGCID block size
/// forced to 1 (every construct needs its own grant), K concurrent
/// `icomm_create_from_group` requests complete with strictly fewer
/// `pgcid.request` round trips than K sequential blocking constructs,
/// because all fan-ins (and their PGCID demand) are on the wire before
/// the first wait and the per-server coalescer batches them.
///
/// Coalescing needs the other K−1 fan-ins to reach the lead server while
/// the first grant is in flight. A fault rule holds the first RM request
/// for far longer than that fan-in takes, so the pipelined run always pays
/// exactly two round trips: the first grant, then one follow-up sized for
/// the K−1 constructs queued behind it.
#[test]
fn concurrent_icomms_coalesce_pgcid_round_trips() {
    const K: usize = 8;

    let run = |nonblocking: bool| -> (usize, Vec<Vec<ExCid>>) {
        let launcher = Launcher::new(SimTestbed::tiny(2, 1));
        let fabric = launcher.universe().fabric();
        // Rel ids count from this fabric's first endpoint; other tests in
        // this binary register endpoints concurrently, so read the RM's
        // rather than assume the control plane is dense.
        let rm = launcher.universe().registry().rm_endpoint().unwrap().0;
        let rm = rm - fabric.base_endpoint_id();
        let hold_first_request =
            FaultRule::new(FaultClass::Delay, RuleScope::dst_in(rm, rm + 1), SeqWindow::exactly(0))
                .with_delay_ms(250);
        let rules = if nonblocking { vec![hold_first_request] } else { Vec::new() };
        let hook = Arc::new(ChaosHook::new(FaultPlan::new(0, rules)));
        fabric.set_fault_hook(Some(hook.clone() as Arc<dyn FaultHook>));
        let obs = fabric.obs();
        obs.cvar_write("universe", "pmix.pgcid_block", obs::CvarValue::U64(1)).unwrap();
        let excids = launcher
            .spawn(JobSpec::new(2), move |ctx| {
                let (s, g) = world_base(&ctx);
                let comms: Vec<Comm> = if nonblocking {
                    let reqs: Vec<SetupRequest<Comm>> = (0..K)
                        .map(|i| Comm::icomm_create_from_group(&g, &format!("pipe{i}")).unwrap())
                        .collect();
                    reqs.into_iter().map(|r| r.wait().unwrap()).collect()
                } else {
                    (0..K)
                        .map(|i| Comm::create_from_group(&g, &format!("pipe{i}")).unwrap())
                        .collect()
                };
                let excids: Vec<ExCid> = comms.iter().map(|c| c.excid().unwrap()).collect();
                for (i, c) in comms.iter().enumerate() {
                    ping(c, i);
                }
                for c in comms {
                    c.free().unwrap();
                }
                s.finalize().unwrap();
                excids
            })
            .join()
            .unwrap();
        let held = hook.records().len();
        assert_eq!(held, nonblocking as usize, "the rule holds exactly the first RM request");
        (count_pgcid_requests(&launcher), excids)
    };

    let (seq_reqs, seq_excids) = run(false);
    let (pipe_reqs, pipe_excids) = run(true);
    assert_eq!(seq_excids[0], seq_excids[1]);
    assert_eq!(pipe_excids[0], pipe_excids[1]);
    assert!(seq_reqs >= K, "sequential blocking run must pay one round trip per construct");
    assert_eq!(
        pipe_reqs,
        2,
        "{K} overlapped constructs: one grant, then one follow-up for the {} queued behind it",
        K - 1
    );
}

// ----------------------------------------------------------------------
// Cancellation: dropping in-flight requests releases every resource
// ----------------------------------------------------------------------

/// Dropping an in-flight `SetupRequest` (symmetrically on every rank)
/// completes the collective exchange, then releases the would-be
/// communicator: local CIDs return to the table, the PGCID family is
/// released, later constructs work, and teardown audits zero leaks.
/// Every issued request reaches a terminal `req.*` event — the
/// `request-terminal` invariant the chaos layer checks under faults.
#[test]
fn dropping_inflight_requests_releases_cids_and_pgcids() {
    const K: usize = 6;
    const DROP: [usize; 2] = [0, 3];
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    launcher
        .spawn(JobSpec::new(2), |ctx| {
            let (s, g) = world_base(&ctx);
            let mut reqs: Vec<Option<SetupRequest<Comm>>> = (0..K)
                .map(|i| Some(Comm::icomm_create_from_group(&g, &format!("drop{i}")).unwrap()))
                .collect();
            // Abandon a third of the batch mid-flight, same indices on
            // every rank (cancellation is collective).
            for i in DROP {
                drop(reqs[i].take());
            }
            let comms: Vec<Comm> =
                reqs.into_iter().flatten().map(|r| r.wait().unwrap()).collect();
            assert_eq!(comms.len(), K - DROP.len());
            for (i, c) in comms.iter().enumerate() {
                ping(c, i);
            }
            // The table slots the cancelled constructs briefly claimed are
            // reusable: a fresh construct still succeeds and communicates.
            let fresh = Comm::create_from_group(&g, "after-drop").unwrap();
            ping(&fresh, 99);
            fresh.free().unwrap();
            for c in comms {
                c.free().unwrap();
            }
            s.finalize().unwrap();
        })
        .join()
        .unwrap();

    let obs = launcher.universe().fabric().obs();
    assert_eq!(
        obs.sum_counters("instance", "cids_leaked_at_teardown"),
        0,
        "cancelled constructs leaked CID table entries"
    );
    assert_eq!(obs.sum_counters("req", "cancelled"), (DROP.len() * 2) as u64);
    // The drop drain's exit of the one blocking loop: the cancelled comms
    // were freed collectively, so every level is back to zero.
    assert_eq!(obs.sum_gauges("cid", "table_used"), 0, "leaked local CIDs");
    assert_eq!(obs.sum_gauges("pml", "cache_entries"), 0, "leaked handshake-cache entries");

    // request-terminal: every issued request id reached exactly one
    // terminal event (completed, failed, or cancelled claims the value of
    // a completed one — pair on ids).
    let issued: Vec<(String, u64)> = obs
        .events_named("req.issued")
        .iter()
        .map(|e| (e.process.clone(), e.attr("id").and_then(|a| a.as_u64()).unwrap()))
        .collect();
    assert_eq!(issued.len(), K * 2, "one req.issued per i-variant per rank");
    let mut terminal: Vec<(String, u64)> = Vec::new();
    for name in ["req.completed", "req.failed"] {
        terminal.extend(
            obs.events_named(name)
                .iter()
                .map(|e| (e.process.clone(), e.attr("id").and_then(|a| a.as_u64()).unwrap())),
        );
    }
    for key in &issued {
        assert!(
            terminal.contains(key),
            "request {key:?} was issued but never reached a terminal event"
        );
    }
}
