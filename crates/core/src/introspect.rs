//! The flight-recorder snapshot: one deterministic JSON view of the live
//! state of every layer of the stack.
//!
//! When a chaos invariant fails, or an operator wants to know *why a
//! request is stuck*, the question is always the same: what is in flight,
//! who holds which resource, and what is everything waiting on? This
//! module answers it in one call — [`snapshot`] walks the universe and
//! renders, per layer:
//!
//! * **processes** — every live [`MpiProcess`] of the universe: open
//!   instances, library generation, initialized subsystems, the in-use
//!   local-CID indices, live PGCID families (refcount + whether the parked
//!   PMIx group handle is held), the PML handshake cache (bound,
//!   generation, fabric-relative peer endpoints), and every in-flight
//!   setup request as the progress engine sees it (stage, steps, ticks
//!   without progress, stall flag, what it is parked on);
//! * **registry** — the namespace registry: live psets, pset epoch,
//!   tombstones, GC enablement, and the epoch pins currently blocking GC;
//! * **servers** — per PMIx server: the PGCID block size, pooled ids, the
//!   release tallies it leads that still wait on member servers (PGCID →
//!   nodes heard, so a leaked PGCID names the servers that never
//!   reported), and per-shard occupancy (KVS entries, live collective ops,
//!   retained epochs);
//! * **cvars** — the full control-variable surface with current values.
//!
//! # Determinism
//!
//! The snapshot carries **no wall-clock times and no absolute endpoint
//! ids**: every list is sorted, endpoint ids are normalized to
//! fabric-relative offsets, and maps are `BTreeMap`-backed — two runs of
//! the same seed serialize byte-identically. `ci/introspect_schema.json`
//! pins the shape; `trace_check --introspect` validates it.

use crate::instance::MpiProcess;
use crate::request::ReqSnapshot;
use pmix::PmixUniverse;
use serde_json::{Map, Value};
use std::sync::Arc;

/// Schema tag stamped into every snapshot (checked by `trace_check`).
pub const SCHEMA: &str = "introspect/v1";

/// Take a flight-recorder snapshot of `universe` and every MPI process
/// registered against it. Pure read: takes locks briefly, emits no events,
/// mutates nothing.
pub fn snapshot(universe: &Arc<PmixUniverse>) -> Value {
    let mut root = Map::new();
    root.insert("schema".into(), Value::Str(SCHEMA.into()));
    let procs: Vec<Value> =
        MpiProcess::processes_of(universe).iter().map(process_json).collect();
    root.insert("processes".into(), Value::Array(procs));
    root.insert("registry".into(), registry_json(universe));
    let servers: Vec<Value> = universe.servers().iter().map(server_json).collect();
    root.insert("servers".into(), Value::Array(servers));
    root.insert("cvars".into(), obs::tool::cvars_to_json(&universe.fabric().obs()));
    Value::Object(root)
}

/// Render the snapshot as pretty JSON (the `introspect_dump` bin and the
/// chaos flight-recorder artifact).
pub fn snapshot_string(universe: &Arc<PmixUniverse>) -> String {
    serde_json::to_string_pretty(&snapshot(universe)).expect("snapshot serializes")
}

fn process_json(p: &Arc<MpiProcess>) -> Value {
    let mut m = Map::new();
    m.insert("proc".into(), Value::Str(p.proc().to_string()));
    m.insert("node".into(), Value::U64(u64::from(p.node().0)));
    m.insert("open_instances".into(), Value::U64(u64::from(p.open_instances())));
    m.insert("generation".into(), Value::U64(p.generation()));
    m.insert(
        "subsystems".into(),
        Value::Array(
            p.live_subsystems().iter().map(|s| Value::Str((*s).to_string())).collect(),
        ),
    );
    m.insert(
        "cids_in_use".into(),
        Value::Array(p.cid_indices().iter().map(|i| Value::U64(u64::from(*i))).collect()),
    );
    m.insert(
        "pgcid_families".into(),
        Value::Array(
            p.pgcid_families()
                .iter()
                .map(|(pgcid, refs, holds_group)| {
                    let mut f = Map::new();
                    f.insert("pgcid".into(), Value::U64(*pgcid));
                    f.insert("refs".into(), Value::U64(u64::from(*refs)));
                    f.insert("holds_group".into(), Value::Bool(*holds_group));
                    Value::Object(f)
                })
                .collect(),
        ),
    );
    let cache = p.pml().cache_snapshot();
    let mut c = Map::new();
    c.insert("cap".into(), Value::U64(cache.cap as u64));
    c.insert("gen".into(), Value::U64(cache.gen));
    c.insert(
        "entries".into(),
        Value::Array(cache.entries.iter().map(|e| Value::U64(*e)).collect()),
    );
    m.insert("pml_cache".into(), Value::Object(c));
    m.insert(
        "requests".into(),
        Value::Array(p.progress_engine().describe().iter().map(request_json).collect()),
    );
    Value::Object(m)
}

fn request_json(r: &ReqSnapshot) -> Value {
    let mut m = Map::new();
    m.insert("op".into(), Value::Str(r.op.to_string()));
    m.insert("id".into(), Value::U64(r.id));
    m.insert("stage".into(), Value::Str(r.stage.to_string()));
    m.insert("steps".into(), Value::U64(r.steps));
    m.insert("ticks_without_progress".into(), Value::U64(r.ticks));
    m.insert("stalled".into(), Value::Bool(r.stalled));
    m.insert(
        "waiting_on".into(),
        match &r.waiting_on {
            Some(w) => Value::Str(w.clone()),
            None => Value::Null,
        },
    );
    Value::Object(m)
}

fn registry_json(universe: &Arc<PmixUniverse>) -> Value {
    let reg = universe.registry();
    let mut m = Map::new();
    m.insert("num_psets".into(), Value::U64(reg.num_psets() as u64));
    m.insert("pset_epoch".into(), Value::U64(reg.pset_epoch()));
    m.insert("tombstones".into(), Value::U64(reg.num_tombstones() as u64));
    m.insert("gc_enabled".into(), Value::Bool(reg.gc_enabled()));
    m.insert(
        "epoch_pins".into(),
        Value::Array(
            reg.active_pins()
                .iter()
                .map(|(epoch, holders)| {
                    let mut p = Map::new();
                    p.insert("epoch".into(), Value::U64(*epoch));
                    p.insert("holders".into(), Value::U64(*holders as u64));
                    Value::Object(p)
                })
                .collect(),
        ),
    );
    Value::Object(m)
}

fn server_json(server: &Arc<pmix::PmixServer>) -> Value {
    let mut m = Map::new();
    m.insert("node".into(), Value::U64(u64::from(server.node().0)));
    m.insert("pgcid_block".into(), Value::U64(server.pgcid_block()));
    m.insert("pgcid_pool".into(), Value::U64(server.pgcid_pool_len() as u64));
    m.insert(
        "pending_releases".into(),
        Value::Array(
            server
                .pending_releases()
                .iter()
                .map(|(pgcid, heard)| {
                    let mut r = Map::new();
                    r.insert("pgcid".into(), Value::U64(*pgcid));
                    r.insert(
                        "heard".into(),
                        Value::Array(heard.iter().map(|n| Value::U64(u64::from(n.0))).collect()),
                    );
                    Value::Object(r)
                })
                .collect(),
        ),
    );
    let occ = server.shard_occupancy();
    let mut s = Map::new();
    s.insert(
        "kvs_entries".into(),
        Value::Array(occ.kvs_entries.iter().map(|n| Value::U64(*n as u64)).collect()),
    );
    s.insert(
        "ops_live".into(),
        Value::Array(occ.ops_live.iter().map(|n| Value::U64(*n as u64)).collect()),
    );
    s.insert(
        "epochs_retained".into(),
        Value::Array(occ.epochs_retained.iter().map(|n| Value::U64(*n as u64)).collect()),
    );
    m.insert("shards".into(), Value::Object(s));
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errhandler::ErrHandler;
    use crate::info::Info;
    use crate::session::{Session, ThreadLevel};
    use crate::{coll, Comm, ReduceOp};
    use prrte::{JobSpec, Launcher};
    use simnet::SimTestbed;
    use std::sync::{Arc, Barrier};

    fn held_cids(v: &Value) -> usize {
        v.as_object().unwrap()["processes"]
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_object().unwrap()["cids_in_use"].as_array().unwrap().len())
            .sum()
    }

    #[test]
    fn snapshot_sees_held_state_then_drains() {
        let launcher = Launcher::new(SimTestbed::tiny(2, 2));
        let uni = launcher.universe().clone();
        let held = Arc::new(Barrier::new(4));
        let procs = launcher
            .spawn(JobSpec::new(4), move |ctx| {
                let me = crate::instance::MpiProcess::obtain(&ctx);
                let s =
                    Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
                        .unwrap();
                let g = s.group_from_pset("mpi://world").unwrap();
                let c = Comm::create_from_group(&g, "introspect").unwrap();
                coll::allreduce_t(&c, ReduceOp::Sum, &[1u32]).unwrap();
                // All ranks hold their communicator here, parked on a plain
                // barrier that does not poll the PML (a rank waiting inside
                // the next collective would keep absorbing the first one's
                // handshake ACKs and move its own state under the snapshot).
                // Back-to-back snapshots over the same held state must
                // serialize identically.
                held.wait();
                let pair = (ctx.proc().rank() == 0).then(|| {
                    let uni = ctx.universe();
                    (snapshot_string(uni), snapshot_string(uni))
                });
                held.wait();
                if let Some((a, b)) = pair {
                    assert_eq!(a, b, "snapshot must be deterministic");
                    let v = serde_json::parse_value(&a).unwrap();
                    let obj = v.as_object().unwrap();
                    assert_eq!(obj["schema"].as_str(), Some(SCHEMA));
                    let procs = obj["processes"].as_array().unwrap();
                    assert_eq!(procs.len(), 4, "all four processes appear");
                    for p in procs {
                        let p = p.as_object().unwrap();
                        assert!(
                            !p["cids_in_use"].as_array().unwrap().is_empty(),
                            "a live comm must show as a held CID"
                        );
                        assert!(p["open_instances"].as_u64().unwrap() >= 1);
                    }
                    for s in obj["servers"].as_array().unwrap() {
                        let shards = s.as_object().unwrap()["shards"].as_object().unwrap();
                        assert_eq!(shards["kvs_entries"].as_array().unwrap().len(), pmix::SERVER_SHARDS);
                    }
                    assert!(
                        !obj["cvars"].as_array().unwrap().is_empty(),
                        "cvar surface rides along in the snapshot"
                    );
                }
                coll::allreduce_t(&c, ReduceOp::Sum, &[1u32]).unwrap();
                c.free().unwrap();
                s.finalize().unwrap();
                me
            })
            .join()
            .unwrap();
        // Every rank returned its MpiProcess, so the process table is still
        // populated; with all comms freed and sessions finalized the
        // snapshot must show a fully drained stack.
        let drained = snapshot(&uni);
        assert_eq!(
            drained.as_object().unwrap()["processes"].as_array().unwrap().len(),
            procs.len()
        );
        assert_eq!(held_cids(&drained), 0, "freed comms leave no held CIDs");
        for p in drained.as_object().unwrap()["processes"].as_array().unwrap() {
            let p = p.as_object().unwrap();
            assert_eq!(p["open_instances"].as_u64(), Some(0));
            assert!(p["pgcid_families"].as_array().unwrap().is_empty());
            assert!(p["requests"].as_array().unwrap().is_empty());
        }
    }
}
