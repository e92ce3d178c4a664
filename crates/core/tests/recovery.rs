//! The fault-aware recovery surface: `watch_faults` (exactly-once replay),
//! the opt-in queryable faults pset (`Session::track_faults`), repair as
//! `ElasticComm::establish` on that pset, and the elastic rebuild loop's
//! re-entry when a second fault races a rebuild.
//!
//! Two of these are fails-pre-fix regressions:
//! * `dead_remote_member_fails_group_fanin_typed` — `coll_begin` used to
//!   scan only the server's *local* participants for deaths, so a dead
//!   member homed alone on a remote node stalled every other participant
//!   forever (the remote server gets no local arrival to detect against);
//! * `cascading_rebuild_reenters_to_newer_epoch` — `ElasticComm` used to
//!   surface a terminal error when the pinned-epoch membership contained a
//!   member that died after the pin, instead of consuming the death's own
//!   membership event and rebuilding at the newer epoch.

mod common;

use common::await_ranks;
use mpi_sessions::session::PSET_WORLD;
use mpi_sessions::{
    coll, Comm, ElasticComm, ErrClass, ErrHandler, Info, Rebuild, ReduceOp, Session, ThreadLevel,
};
use prrte::{JobSpec, Launcher};
use simnet::SimTestbed;
use std::sync::mpsc;
use std::time::Duration;

fn new_session(ctx: &prrte::ProcCtx) -> Session {
    Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap()
}

/// A session pinned to one init mode (`"eager"` or `"lazy"`), whatever
/// the universe default (`INIT_MODE`) is.
fn session_in(ctx: &prrte::ProcCtx, mode: &str) -> Session {
    let info = Info::new();
    info.set(mpi_sessions::info::keys::INIT_MODE, mode);
    Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &info).unwrap()
}

#[test]
fn watch_faults_replays_to_late_subscriber_exactly_once() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 3));
    let (subscribed, done) = mpsc::channel();
    let handle = launcher.spawn(JobSpec::new(3), move |ctx| {
        if ctx.rank() == 2 {
            ctx.park_until_killed();
            return;
        }
        let session = new_session(&ctx);
        let pset = session.track_faults().unwrap();
        // Early subscriber: sees the death live...
        let mut early = session.watch_faults().unwrap();
        subscribed.send(()).unwrap();
        let v = early.next_timeout(Duration::from_secs(10)).expect("live fault");
        assert_eq!(v.rank(), 2);
        assert!(early.try_next().is_none(), "no duplicate on the live path");
        // ...once the runtime has absorbed it: the servers, the survivors
        // pset and `surviving_group` all exclude it, read once, no poll.
        assert!(ctx.universe().proc_is_dead(&v), "a server has not marked the death");
        assert!(!ctx.universe().registry().pset_members(&pset).unwrap().contains(&v));
        assert_eq!(session.surviving_group(PSET_WORLD).unwrap().size(), 2);
        // Late subscriber, attached after the death: the fabric's dead set
        // is replayed on attach, exactly once, before `watch_faults` returns.
        let mut late = session.watch_faults().unwrap();
        let r = late.try_next().expect("replayed fault");
        assert_eq!(r.rank(), 2);
        assert!(late.try_next().is_none(), "replay is exactly-once");
        session.finalize().unwrap();
    });
    await_ranks(&done, 2);
    handle.kill_rank(2);
    handle.join().unwrap();
}

/// `Duration::MAX` is past the end of `Instant`'s range: it waits without
/// bound instead of panicking, and a replayed fault comes straight back.
#[test]
fn watch_faults_next_timeout_max_returns_a_queued_fault() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    let handle = launcher.spawn(JobSpec::new(2), |ctx| {
        let victim = pmix::ProcId::new(ctx.proc().nspace(), 1);
        while !ctx.universe().proc_is_dead(&victim) {
            std::thread::yield_now();
        }
        if ctx.rank() == 1 {
            return;
        }
        let session = new_session(&ctx);
        let mut faults = session.watch_faults().unwrap();
        assert_eq!(faults.next_timeout(Duration::MAX).expect("replayed fault").rank(), 1);
        session.finalize().unwrap();
    });
    handle.kill_rank(1);
    handle.join().unwrap();
}

#[test]
fn dead_remote_member_fails_group_fanin_typed() {
    // Fails-pre-fix regression: rank 3 is the *sole* group member homed on
    // node 1 (tiny(2,2) puts ranks 0,1 on node 0 and 2,3 on node 1, and
    // rank 2 stays out of the group). Node 1's server therefore never gets
    // a local arrival for the construct, so the old local-only dead scan
    // could not fire anywhere and ranks 0/1 stalled until the timeout.
    // With the full-membership scan, each server reaches the verdict at
    // its own first arrival and the construct fails typed, fast. Eager
    // construct semantics, pinned against the INIT_MODE=lazy sweep.
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let handle = launcher.spawn(JobSpec::new(4), |ctx| {
        if ctx.rank() == 3 {
            ctx.park_until_killed();
            return None;
        }
        let session = session_in(&ctx, "eager");
        // Replayed if the kill came first: no ordering to wait for.
        let mut faults = session.watch_faults().unwrap();
        let victim = faults.next_timeout(Duration::from_secs(10)).expect("fault");
        assert_eq!(victim.rank(), 3);
        if ctx.rank() == 2 {
            // Not a member of the doomed group; nothing more to do.
            session.finalize().unwrap();
            return None;
        }
        let world = session.group_from_pset(PSET_WORLD).unwrap();
        let doomed = world.incl(&[0, 1, 3]).unwrap();
        let mut req = Comm::icomm_create_from_group(&doomed, "dead-remote").unwrap();
        let err = req.wait_timeout(Duration::from_secs(5)).unwrap_err();
        session.finalize().unwrap();
        Some(err.class)
    });
    handle.kill_rank(3);
    let out = handle.join().unwrap();
    assert_eq!(out[0], Some(ErrClass::ProcFailed), "typed fast failure, not a stall");
    assert_eq!(out[1], Some(ErrClass::ProcFailed), "typed fast failure, not a stall");
}

#[test]
fn dead_remote_member_fails_the_first_lazy_send_typed() {
    // The lazy twin, same topology: the construct is a local hash, so it
    // completes at once despite the dead remote member; the first send
    // that needs that member (comm rank 2 = proc 3) fails typed.
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let handle = launcher.spawn(JobSpec::new(4), |ctx| {
        if ctx.rank() == 3 {
            ctx.park_until_killed();
            return None;
        }
        let session = session_in(&ctx, "lazy");
        let mut faults = session.watch_faults().unwrap();
        let victim = faults.next_timeout(Duration::from_secs(10)).expect("fault");
        assert_eq!(victim.rank(), 3);
        if ctx.rank() == 2 {
            session.finalize().unwrap();
            return None;
        }
        let world = session.group_from_pset(PSET_WORLD).unwrap();
        let doomed = world.incl(&[0, 1, 3]).unwrap();
        let mut req = Comm::icomm_create_from_group(&doomed, "dead-remote").unwrap();
        let comm = req.wait_timeout(Duration::from_secs(5)).expect("a lazy create is local");
        let err = comm.send(2, 7, b"to-the-dead").unwrap_err();
        session.finalize().unwrap();
        Some(err.class)
    });
    handle.kill_rank(3);
    let out = handle.join().unwrap();
    for r in [0, 1] {
        assert!(
            matches!(out[r], Some(ErrClass::ProcFailed | ErrClass::ProcTerminated)),
            "rank {r}: a send to the dead member must fail typed, got {:?}",
            out[r]
        );
    }
}

#[test]
fn faults_pset_shrinks_and_supports_repair() {
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let (warmed, done) = mpsc::channel();
    let handle = launcher.spawn(JobSpec::new(4), move |ctx| {
        let session = new_session(&ctx);
        let pset = session.track_faults().unwrap();
        assert!(pset.starts_with(pmix::SURVIVORS_PSET_PREFIX));
        let process = mpi_sessions::instance::MpiProcess::obtain(&ctx);
        let registry = process.universe().registry();
        let (epoch0, members0) = registry.pset_members_versioned(&pset).unwrap();
        assert_eq!(members0.len(), 4, "all four procs live at launch");
        let world = session.group_from_pset(PSET_WORLD).unwrap();
        let comm = Comm::create_from_group(&world, "pre-fault").unwrap();
        let warm = coll::allreduce_t(&comm, ReduceOp::Sum, &[1u32]).unwrap()[0];
        assert_eq!(warm, 4);
        if ctx.rank() == 3 {
            warmed.send(()).unwrap();
            ctx.park_until_killed();
            return 0u32;
        }
        let mut faults = session.watch_faults().unwrap();
        let victim = faults.next_timeout(Duration::from_secs(10)).expect("fault");
        assert_eq!(victim.rank(), 3);
        // The repair is a collective over the three survivors: the failure
        // bridge pruned the faults pset before the fault was yielded.
        let repaired = ElasticComm::establish(&session, &pset, Duration::from_secs(10)).unwrap();
        assert!(repaired.epoch() > epoch0, "the shrink bumped the pset epoch");
        let rebuilt = repaired.comm().unwrap();
        assert_eq!(rebuilt.size(), 3);
        let sum = coll::allreduce_t(rebuilt, ReduceOp::Sum, &[1u32]).unwrap()[0];
        // A stale pin fails typed (the world moved on) without any fan-in.
        let stale = session.group_from_pset_at(&pset, epoch0).unwrap_err();
        assert_eq!(stale.class, ErrClass::Stale);
        drop(repaired);
        // `comm` includes the dead rank: its teardown cannot be collective
        // anymore, so it is dropped, not freed.
        drop(comm);
        session.finalize().unwrap();
        sum
    });
    await_ranks(&done, 1);
    handle.kill_rank(3);
    let out = handle.join().unwrap();
    for r in &out[..3] {
        assert_eq!(*r, 3);
    }
}

#[test]
fn cascading_rebuild_reenters_to_newer_epoch() {
    // Fails-pre-fix regression: both kills land before the survivors run
    // their rebuild, so the first queued membership event (minus rank 3
    // only) still names the already-dead rank 2. The rebuild at that
    // pinned epoch must fail typed and re-enter the event loop — landing
    // on the next epoch's membership — rather than stall or surface a
    // terminal error.
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let spec = JobSpec::new(4).with_pset("app://crew", vec![0, 1, 2, 3]);
    let (warmed, done) = mpsc::channel();
    let handle = launcher.spawn_named("cascade", spec, move |ctx| {
        let session = new_session(&ctx);
        let mut ec =
            ElasticComm::establish(&session, "app://crew", Duration::from_secs(10)).unwrap();
        let warm = coll::allreduce_t(ec.comm().unwrap(), ReduceOp::Sum, &[1u32]).unwrap()[0];
        assert_eq!(warm, 4);
        if ctx.rank() >= 2 {
            warmed.send(()).unwrap();
            ctx.park_until_killed();
            return 0u32;
        }
        // Hold the rebuild until BOTH deaths are known, so the cascade is
        // guaranteed: the epoch pinned by the first event includes a
        // member that is already dead.
        let mut faults = session.watch_faults().unwrap();
        let mut dead = vec![
            faults.next_timeout(Duration::from_secs(10)).expect("first fault").rank(),
            faults.next_timeout(Duration::from_secs(10)).expect("second fault").rank(),
        ];
        dead.sort_unstable();
        assert_eq!(dead, vec![2, 3]);
        match ec.next_rebuild(Duration::from_secs(20)).unwrap() {
            Rebuild::Rebuilt { .. } => {}
            other => panic!("expected a rebuild over the survivors, got {other:?}"),
        }
        let comm = ec.comm().expect("rebuilt communicator");
        assert_eq!(comm.size(), 2);
        let sum = coll::allreduce_t(comm, ReduceOp::Sum, &[1u32]).unwrap()[0];
        drop(ec);
        session.finalize().unwrap();
        sum
    });
    await_ranks(&done, 2);
    handle.kill_rank(3);
    handle.kill_rank(2);
    let out = handle.join().unwrap();
    assert_eq!(out[0], 2);
    assert_eq!(out[1], 2);
    // The typed re-entry actually happened (this is what turns the old
    // terminal error into a survived cascade).
    let obs = launcher.universe().fabric().obs();
    assert!(
        obs.sum_counters("session", "rebuild_reentered") >= 1,
        "at least one survivor re-entered the rebuild loop"
    );
}

#[test]
fn graceful_retire_prunes_faults_pset_without_fault_events() {
    // Retirement is planned shrink, not failure: the faults pset follows
    // the drain (the launcher prunes it explicitly — no failure event
    // fires on this path), and fault watchers stay silent.
    let launcher = Launcher::new(SimTestbed::tiny(1, 3));
    let spec = JobSpec::new(3).with_pset("app://ring", vec![0, 1, 2]);
    let handle = launcher.spawn_named("retirejob", spec, |ctx| {
        let session = new_session(&ctx);
        let pset = session.track_faults().unwrap();
        if ctx.rank() == 2 {
            // The retiree: drain on the app pset's membership event.
            let mut w = session.watch_psets().unwrap();
            loop {
                let u = w.next_timeout(Duration::from_secs(10)).expect("pset event");
                if u.pset == "app://ring" && !u.members.contains(ctx.proc()) {
                    break;
                }
            }
            session.finalize().unwrap();
            return pset;
        }
        let mut faults = session.watch_faults().unwrap();
        let mut psets = session.watch_psets().unwrap();
        loop {
            let u = psets.next_timeout(Duration::from_secs(10)).expect("faults pset never followed the retire");
            if u.pset == pset && u.members.len() == 2 {
                break;
            }
        }
        assert!(faults.try_next().is_none(), "a graceful retire is not a fault");
        session.finalize().unwrap();
        pset
    });
    let ctl = handle.ctl();
    let retired = ctl.retire_ranks(&[2], Some("app://ring")).unwrap();
    assert_eq!(retired.len(), 1);
    handle.join().unwrap();
}
