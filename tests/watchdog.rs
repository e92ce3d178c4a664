//! Watchdog lifecycle suite: the MPI_T-style introspection layer's stall
//! detector, its timeout surface, and the cvar control plane.
//!
//! Four claims, each a separate world:
//!
//! 1. A nonblocking construct whose peers have not yet joined *stalls
//!    deterministically* once the per-process `core.stall_ticks` threshold
//!    of profitless engine sweeps is crossed (threshold lowered through
//!    the cvar registry, not the legacy setter), and *clears* with a
//!    matching `req.unstalled` the moment the peers arrive — so the
//!    `stall-terminal` invariant audits a full stall/heal episode.
//! 2. `SetupRequest::wait_timeout` gives up on logical-deadline expiry
//!    with an [`ErrClass::Timeout`] whose message embeds the structured
//!    stall diagnosis, and the request stays live: the same handle waits
//!    to completion once the peers show up.
//! 3. The quiet blocking wrappers never register with the progress
//!    engine, so even a pathological 1-tick threshold produces zero
//!    `req.stalled` events on an all-blocking workload.
//! 4. Cvar writes are behavior-identical to the legacy setters they
//!    absorbed: registry writes and direct setter calls land on the same
//!    underlying state, in both directions, at universe and process
//!    scope.
//!
//! Runs 1–3 go through [`ChaosWorld`] so every episode is additionally
//! checked by the cross-layer invariant sweep (including
//! `stall-terminal`).

use chaos::{ChaosWorld, FaultClass, FaultPlan, FaultRule, RuleScope, SeqWindow};
use mpi_sessions_repro::mpi::instance::MpiProcess;
use mpi_sessions_repro::mpi::{
    coll, Comm, ErrClass, ErrHandler, Info, ReduceOp, Session, ThreadLevel,
};
use mpi_sessions_repro::obs::{AttrValue, CvarValue};
use mpi_sessions_repro::prrte::{JobSpec, Launcher, ProcCtx};
use mpi_sessions_repro::simnet::SimTestbed;
use std::time::Duration;

mod common;
use common::Gate;

fn new_session(ctx: &ProcCtx) -> Session {
    Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap()
}

/// Raw obs process names of the given ranks (for the cid-agreement check).
fn rank_processes(world: &ChaosWorld, ranks: std::ops::Range<u32>) -> Vec<String> {
    let base = world.universe().fabric().base_endpoint_id();
    ranks.map(|r| (base + world.rank_rel(r)).to_string()).collect()
}

/// The pinned async-setup delay plan (same shape as the chaos suite's
/// delay scenario): a seeded subset of the first inter-server messages is
/// delivered late, so the stall episode plays out under injected latency
/// rather than on a conveniently quiet fabric.
fn delay_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(
        seed,
        vec![FaultRule::new(
            FaultClass::Delay,
            RuleScope::pair_within(1, 3),
            SeqWindow::first(2),
        )
        .with_delay_ms(15)],
    )
}

/// Claim 1: stall fires after the cvar-lowered tick threshold and clears
/// on heal; the whole episode passes the `stall-terminal` audit.
#[test]
fn stall_fires_under_pinned_delay_and_clears_on_heal() {
    let world = ChaosWorld::new(SimTestbed::tiny(2, 2), delay_plan(0x57A11));
    let gate = Gate::new(4);
    let out = world
        .launcher()
        .spawn_named("watchdog-stall", JobSpec::new(4), move |ctx| {
            let gate = gate.pass();
            let session = new_session(&ctx);
            let group = session.group_from_pset("mpi://world").unwrap();
            let process = MpiProcess::obtain(&ctx);
            let comm = if ctx.rank() == 0 {
                let obs = process.obs();
                let scope = process.proc().to_string();
                // Lower the watchdog threshold through the MPI_T surface —
                // the whole point is that no code change or legacy setter
                // call is needed to retune a live process.
                obs.cvar_write(&scope, "core.stall_ticks", CvarValue::U64(3)).unwrap();
                let req = Comm::icomm_create_from_group(&group, "wd-stall").unwrap();
                // The peers are parked at `gate`, so the construct cannot
                // advance: each engine sweep is a profitless tick and the
                // watchdog must fire after exactly the configured three.
                let mut sweeps = 0u32;
                while !req.is_stalled() {
                    process.progress();
                    sweeps += 1;
                    assert!(sweeps < 16, "watchdog never fired: {}", req.diagnosis());
                }
                assert_eq!(sweeps, 3, "stall must fire exactly at the cvar threshold");
                let d = req.diagnosis();
                assert!(
                    d.contains("stalled=true") && d.contains("parked_on="),
                    "diagnosis must carry the stall flag and the parked-on detail: {d}"
                );
                let stalls = obs.events_named("req.stalled");
                let id = req.id();
                assert!(
                    stalls.iter().any(|e| {
                        e.process == scope
                            && e.attrs.iter().any(|(k, v)| {
                                *k == "id" && matches!(v, AttrValue::U64(v) if *v == id)
                            })
                            && e.attrs.iter().any(|(k, _)| *k == "waiting_on")
                    }),
                    "req.stalled must carry the request id and a waiting_on attr: {stalls:?}"
                );
                // Heal: release the peers; their joins complete the
                // construct and the watchdog must retract the stall.
                gate.wait();
                let comm = req.wait().unwrap();
                assert!(
                    obs.events_named("req.unstalled").iter().any(|e| e.process == scope),
                    "a resumed request must emit req.unstalled"
                );
                comm
            } else {
                gate.wait();
                Comm::create_from_group(&group, "wd-stall").unwrap()
            };
            let sum = coll::allreduce_t(&comm, ReduceOp::Sum, &[1u32]).unwrap()[0];
            comm.free().unwrap();
            session.finalize().unwrap();
            sum
        })
        .join()
        .unwrap();
    assert_eq!(out, vec![4; 4]);
    let cid = rank_processes(&world, 0..4);
    world.finish(None, cid).assert_clean();
}

/// Claim 2: `wait_timeout` expires with a diagnosis-bearing Timeout and
/// the request survives to be waited on again.
#[test]
fn wait_timeout_surfaces_diagnosis_and_leaves_request_live() {
    let world = ChaosWorld::new(SimTestbed::tiny(2, 2), delay_plan(0x7E0));
    let gate = Gate::new(4);
    let out = world
        .launcher()
        .spawn_named("watchdog-timeout", JobSpec::new(4), move |ctx| {
            let gate = gate.pass();
            let session = new_session(&ctx);
            let group = session.group_from_pset("mpi://world").unwrap();
            let comm = if ctx.rank() == 0 {
                let mut req = Comm::icomm_create_from_group(&group, "wd-timeout").unwrap();
                // Peers are parked, so the construct cannot finish inside
                // the budget; the logical deadline (wall elapsed AND
                // fabric quiesced) expires despite the injected delays.
                let err = req.wait_timeout(Duration::from_millis(40)).unwrap_err();
                assert_eq!(err.class, ErrClass::Timeout);
                // The diagnosis names the stage that answered `Pending` —
                // the only kind the blocking loop parks on — and its wake
                // source.
                for needle in [
                    "op=comm_create_from_group",
                    "stage=group",
                    "parked_on=pmix group construct 'mpi-comm:wd-timeout'",
                ] {
                    assert!(
                        err.message.contains(needle),
                        "timeout must embed the stall diagnosis ({needle}): {}",
                        err.message
                    );
                }
                assert!(!req.is_complete(), "a timed-out request stays in flight");
                gate.wait();
                // Same handle, second wait: completes normally.
                req.wait().unwrap()
            } else {
                gate.wait();
                Comm::create_from_group(&group, "wd-timeout").unwrap()
            };
            let sum = coll::allreduce_t(&comm, ReduceOp::Sum, &[1u32]).unwrap()[0];
            comm.free().unwrap();
            session.finalize().unwrap();
            sum
        })
        .join()
        .unwrap();
    assert_eq!(out, vec![4; 4]);
    let cid = rank_processes(&world, 0..4);
    world.finish(None, cid).assert_clean();
}

/// Claim 3: quiet blocking paths are invisible to the watchdog — even a
/// 1-tick threshold yields zero stall events on an all-blocking workload.
#[test]
fn quiet_blocking_paths_never_trip_the_watchdog() {
    let world = ChaosWorld::new(SimTestbed::tiny(2, 2), FaultPlan::quiet(0xB10C));
    let out = world
        .launcher()
        .spawn_named("watchdog-quiet", JobSpec::new(4), |ctx| {
            let process = MpiProcess::obtain(&ctx);
            let scope = process.proc().to_string();
            process.obs().cvar_write(&scope, "core.stall_ticks", CvarValue::U64(1)).unwrap();
            let session = new_session(&ctx);
            let group = session.group_from_pset("mpi://world").unwrap();
            let comm = Comm::create_from_group(&group, "wd-quiet").unwrap();
            let sum = coll::allreduce_t(&comm, ReduceOp::Sum, &[1u32]).unwrap()[0];
            comm.free().unwrap();
            session.finalize().unwrap();
            sum
        })
        .join()
        .unwrap();
    assert_eq!(out, vec![4; 4]);
    let obs = world.universe().fabric().obs().clone();
    assert!(
        obs.events_named("req.stalled").is_empty(),
        "blocking wrappers run quiet and must never register with the watchdog"
    );
    let cid = rank_processes(&world, 0..4);
    world.finish(None, cid).assert_clean();
}

/// Claim 4 (the cvar round-trip): a registry write is the one door to
/// each knob. It must land on the live state the accessors read and read
/// back identically, at both universe and per-process scope.
#[test]
fn cvar_writes_round_trip_to_live_state() {
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let uni = launcher.universe().clone();
    let obs = uni.fabric().obs().clone();

    // Universe scope, cvar -> accessor direction.
    obs.cvar_write("universe", "pmix.pgcid_block", CvarValue::U64(5)).unwrap();
    assert!(
        uni.servers().iter().all(|s| s.pgcid_block() == 5),
        "cvar write must reach every server"
    );
    assert_eq!(obs.cvar_read("universe", "pmix.pgcid_block"), Some(CvarValue::U64(5)));
    obs.cvar_write("universe", "registry.gc_enabled", CvarValue::Bool(false)).unwrap();
    assert!(!uni.registry().gc_enabled());
    assert_eq!(obs.cvar_read("universe", "registry.gc_enabled"), Some(CvarValue::Bool(false)));
    obs.cvar_write("universe", "pmix.group_timeout_ms", CvarValue::U64(1234)).unwrap();
    assert_eq!(uni.group_timeout(), Duration::from_millis(1234));

    // Per-process scope: every rank configures itself through the
    // registry and reads back through both the accessors and the cvars.
    let out = launcher
        .spawn(JobSpec::new(2), |ctx| {
            let p = MpiProcess::obtain(&ctx);
            let scope = p.proc().to_string();
            let obs = p.obs();
            obs.cvar_write(&scope, "pml.handshake_cache_cap", CvarValue::U64(3)).unwrap();
            obs.cvar_write(&scope, "core.stall_ticks", CvarValue::U64(17)).unwrap();
            (
                p.pml().handshake_cache_cap(),
                p.progress_engine().stall_ticks(),
                obs.cvar_read(&scope, "pml.handshake_cache_cap"),
                obs.cvar_read(&scope, "core.stall_ticks"),
            )
        })
        .join()
        .unwrap();
    assert_eq!(out[0], out[1]);
    assert_eq!(out[0].0, 3);
    assert_eq!(out[0].1, 17);
    assert_eq!(out[0].2, Some(CvarValue::U64(3)));
    assert_eq!(out[0].3, Some(CvarValue::U64(17)));
}

/// Claim 5 (the dead-peer fast path): a request whose only possible
/// completer is a dead process must fail `ProcTerminated` as soon as the
/// fabric is quiet — not burn the caller's whole logical-deadline budget
/// and come back with a useless `Timeout`. This is a fails-pre-fix
/// regression: before requests tracked their `waiting_on` endpoint,
/// `wait_timeout` had no way to tell "peers are slow" from "the peer can
/// never answer", and a 30-second budget below really took 30 seconds.
#[test]
fn wait_on_dead_peer_fails_proc_terminated_fast() {
    let world = ChaosWorld::new(SimTestbed::tiny(1, 3), FaultPlan::quiet(0xDEADBEE));
    let nspace = "watchdog-dead";
    let (built, done) = std::sync::mpsc::channel();
    let handle = world.launcher().spawn_named(nspace, JobSpec::new(3), move |ctx| {
        let session = new_session(&ctx);
        let group = session.group_from_pset("mpi://world").unwrap();
        let comm = Comm::create_from_group(&group, "wd-dead").unwrap();
        built.send(()).unwrap();
        if ctx.rank() == 2 {
            // Victim: hold the endpoint open until the driver kills it.
            ctx.park_until_killed();
            return None;
        }
        let mut faults = session.watch_faults().unwrap();
        let victim = faults.next_timeout(Duration::from_secs(10)).expect("fault");
        assert_eq!(victim.rank(), 2);
        if ctx.rank() == 1 {
            session.finalize().unwrap();
            return None;
        }
        // Rank 0: post a receive naming the corpse, then wait with a
        // budget far larger than the test could ever tolerate burning.
        let mut req = comm.irecv(2, 42).unwrap();
        let started = std::time::Instant::now();
        let err = req.wait_timeout(Duration::from_secs(30)).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(
            err.class,
            ErrClass::ProcTerminated,
            "dead-peer wait must fail typed, not time out: {err}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "the verdict must come from the dead set, not deadline expiry: {elapsed:?}"
        );
        // The comm still names the dead rank, so its teardown cannot be
        // collective; it is dropped, not freed.
        session.finalize().unwrap();
        Some(err.class)
    });
    for _ in 0..3 {
        done.recv_timeout(Duration::from_secs(60)).expect("a rank never built the comm");
    }
    world.kill_proc(&mpi_sessions_repro::pmix::ProcId::new(nspace, 2));
    let out = handle.join().unwrap();
    assert_eq!(out[0], Some(ErrClass::ProcTerminated));
    // The victim never constructed past the comm, so cid counters agree
    // only among the survivors — skip the symmetric agreement list.
    world.finish(None, Vec::new()).assert_clean();
}
