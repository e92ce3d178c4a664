//! Fault-tolerance scenarios from paper §II-C: failure notification,
//! re-initialization after failure, and failure-scope isolation.

mod common;

use mpi_sessions::info::keys;
use mpi_sessions::{coll, Comm, ErrClass, ErrHandler, Info, ReduceOp, Session, ThreadLevel};
use prrte::{JobSpec, Launcher};
use common::{await_ranks, await_state};
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
    info.set(keys::INIT_MODE, mode);
    Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &info).unwrap()
}

#[test]
fn reinit_after_failure_with_survivors() {
    // §II-C(a): after a process failure, finalize and re-initialize MPI
    // over the surviving processes, then continue computing.
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let (phase1, done) = mpsc::channel();
    let handle = launcher.spawn(JobSpec::new(4), move |ctx| {
        let session = new_session(&ctx);
        let mut notifier = session.failure_notifier().unwrap();
        // Phase 1: all four ranks communicate.
        let g = session.group_from_pset("mpi://world").unwrap();
        let comm = Comm::create_from_group(&g, "phase1").unwrap();
        let sum1 = coll::allreduce_t(&comm, ReduceOp::Sum, &[1u32]).unwrap()[0];
        assert_eq!(sum1, 4);
        comm.free().unwrap();
        phase1.send(()).unwrap();
        if ctx.rank() == 3 {
            // The victim: lingers after phase 1 until killed.
            ctx.park_until_killed();
            return 0;
        }

        // Wait for the failure of rank 3.
        let victim = notifier.next_timeout(Duration::from_secs(10)).expect("failure event");
        assert_eq!(victim.rank(), 3);

        // Roll forward: finalize, re-init, rebuild over the survivors.
        session.finalize().unwrap();
        let session2 = new_session(&ctx);
        let survivors = session2.surviving_group("mpi://world").unwrap();
        assert_eq!(survivors.size(), 3);
        let comm2 = Comm::create_from_group(&survivors, "phase2").unwrap();
        let sum2 = coll::allreduce_t(&comm2, ReduceOp::Sum, &[1u32]).unwrap()[0];
        comm2.free().unwrap();
        session2.finalize().unwrap();
        sum2
    });
    await_ranks(&done, 4);
    handle.kill_rank(3);
    let out = handle.join().unwrap();
    assert_eq!(out[0], 3);
    assert_eq!(out[1], 3);
    assert_eq!(out[2], 3);
}

#[test]
fn comm_create_from_group_fails_cleanly_when_member_dies() {
    // Eager construct semantics: the group construct fans in at the
    // servers and fails when a member dies. Pinned, so the INIT_MODE=lazy
    // sweep (where the construct is local) does not change what it tests.
    let launcher = Launcher::new(SimTestbed::tiny(2, 1));
    let handle = launcher.spawn(JobSpec::new(2), |ctx| {
        if ctx.rank() == 1 {
            ctx.park_until_killed();
            return None;
        }
        let session = session_in(&ctx, "eager");
        let g = session.group_from_pset("mpi://world").unwrap();
        // rank 1 never joins and is killed mid-construct.
        let err = Comm::create_from_group(&g, "doomed").unwrap_err();
        session.finalize().unwrap();
        Some(err.class)
    });
    // Kill once rank 0's construct is in flight at its server.
    let servers = launcher.universe().servers();
    await_state(|| servers.iter().any(|s| s.shard_occupancy().ops_live.iter().any(|&n| n > 0)));
    handle.kill_rank(1);
    let out = handle.join().unwrap();
    assert_eq!(out[0], Some(ErrClass::ProcFailed));
}

#[test]
fn lazy_comm_create_is_local_and_the_first_send_to_a_dead_member_fails() {
    // The lazy twin: creation asks no server and no peer, so it succeeds
    // with a member that never joins; the first operation that needs the
    // dead member — a send — fails typed instead.
    let launcher = Launcher::new(SimTestbed::tiny(2, 1));
    let (created, done) = mpsc::channel();
    let handle = launcher.spawn(JobSpec::new(2), move |ctx| {
        if ctx.rank() == 1 {
            ctx.park_until_killed();
            return None;
        }
        let session = session_in(&ctx, "lazy");
        let g = session.group_from_pset("mpi://world").unwrap();
        let comm = Comm::create_from_group(&g, "doomed").unwrap();
        let mut faults = session.watch_faults().unwrap();
        created.send(()).unwrap();
        let victim = faults.next_timeout(Duration::from_secs(10)).expect("fault");
        assert_eq!(victim.rank(), 1);
        let err = comm.send(1, 7, b"to-the-dead").unwrap_err();
        session.finalize().unwrap();
        Some(err.class)
    });
    await_ranks(&done, 1);
    handle.kill_rank(1);
    let out = handle.join().unwrap();
    assert!(
        matches!(out[0], Some(ErrClass::ProcFailed | ErrClass::ProcTerminated)),
        "send to a dead member must fail typed, got {:?}",
        out[0]
    );
}

#[test]
fn failure_scope_isolated_to_affected_session() {
    // §II-C(b): a failure among "client" processes must not poison the
    // "server"-internal session of the survivors.
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let (subscribed, done) = mpsc::channel();
    let handle = launcher.spawn(JobSpec::new(4), move |ctx| {
        // Ranks 0,1 = servers; ranks 2,3 = clients. Rank 3 will die.
        if ctx.rank() == 3 {
            ctx.park_until_killed();
            return 0u32;
        }
        let session = new_session(&ctx);
        let mut notifier = session.failure_notifier().unwrap();
        subscribed.send(()).unwrap();
        if ctx.rank() >= 2 {
            // Surviving client: nothing else to do.
            let _ = notifier.next_timeout(Duration::from_secs(10));
            session.finalize().unwrap();
            return 0;
        }
        // Server-internal session & communicator, isolated from clients.
        let world = session.group_from_pset("mpi://world").unwrap();
        let servers_only = world.incl(&[0, 1]).unwrap();
        let internal = Comm::create_from_group(&servers_only, "server-internal").unwrap();
        // Wait for the client failure...
        let victim = notifier.next_timeout(Duration::from_secs(10)).expect("failure");
        assert_eq!(victim.rank(), 3);
        // ...and keep serving: the internal communicator still works.
        let sum = coll::allreduce_t(&internal, ReduceOp::Sum, &[21u32]).unwrap()[0];
        internal.free().unwrap();
        session.finalize().unwrap();
        sum
    });
    await_ranks(&done, 3);
    handle.kill_rank(3);
    let out = handle.join().unwrap();
    assert_eq!(out[0], 42);
    assert_eq!(out[1], 42);
}

#[test]
fn group_member_failure_event_carries_group_name() {
    let launcher = Launcher::new(SimTestbed::tiny(2, 1));
    let (joined, done) = mpsc::channel();
    let handle = launcher.spawn(JobSpec::new(2), move |ctx| {
        if ctx.rank() == 1 {
            // Join the PMIx group, then die.
            let members: Vec<pmix::ProcId> =
                (0..2).map(|r| pmix::ProcId::new(ctx.proc().nspace(), r)).collect();
            let _g = ctx
                .pmix()
                .group_construct("watched", &members, &pmix::GroupDirectives::for_mpi())
                .unwrap();
            joined.send(()).unwrap();
            ctx.park_until_killed();
            return None;
        }
        let events = ctx
            .pmix()
            .register_events(Some(vec![pmix::EventCode::GroupMemberFailed]));
        let members: Vec<pmix::ProcId> =
            (0..2).map(|r| pmix::ProcId::new(ctx.proc().nspace(), r)).collect();
        let _g = ctx
            .pmix()
            .group_construct("watched", &members, &pmix::GroupDirectives::for_mpi())
            .unwrap();
        joined.send(()).unwrap();
        let ev = events.next_timeout(Duration::from_secs(10)).expect("member-failed event");
        Some((
            ev.source.clone().unwrap().rank(),
            ev.get("group").unwrap().as_str().unwrap().to_owned(),
        ))
    });
    await_ranks(&done, 2);
    handle.kill_rank(1);
    let out = handle.join().unwrap();
    assert_eq!(out[0], Some((1, "watched".to_owned())));
}

#[test]
fn sender_errors_when_receiver_dies_mid_handshake() {
    // exCID handshake torn by failure: rank 0's first send leaves with the
    // extended header, but rank 1 never runs its progress engine (so the
    // CidAck is never produced) and is then killed. The sender must surface
    // `ProcFailed` on its next send in bounded time — not spin in extended
    // mode retrying a handshake that can never complete.
    let launcher = Launcher::new(SimTestbed::tiny(2, 1));
    let (ready, done) = mpsc::channel();
    let handle = launcher.spawn(JobSpec::new(2), move |ctx| {
        let session = new_session(&ctx);
        let g = session.group_from_pset("mpi://world").unwrap();
        let comm = Comm::create_from_group(&g, "torn-handshake").unwrap();
        if ctx.rank() == 1 {
            // Participates in comm creation, then goes silent: never posts
            // a receive, never progresses, never acks — and dies.
            ready.send(()).unwrap();
            ctx.park_until_killed();
            return None;
        }
        let mut notifier = session.failure_notifier().unwrap();
        // Initiate the handshake. Buffered-eager semantics: the send itself
        // completes locally even though the ACK will never arrive.
        comm.send(1, 1, b"ext-opener").unwrap();
        ready.send(()).unwrap();
        // Wait until the runtime has observed rank 1's death.
        let victim = notifier.next_timeout(Duration::from_secs(10)).expect("failure event");
        assert_eq!(victim.rank(), 1);
        // The peer is gone: the next send must fail fast with ProcFailed.
        let err = comm.send(1, 2, b"after-death").unwrap_err();
        let class = err.class;
        // The communicator teardown cannot be collective anymore; drop it.
        session.finalize().unwrap();
        Some(class)
    });
    await_ranks(&done, 2);
    handle.kill_rank(1);
    let out = handle.join().unwrap();
    assert_eq!(out[0], Some(mpi_sessions::ErrClass::ProcFailed));

    // The obs trail confirms the handshake never completed anywhere: the
    // opener left extended, no ACK was ever sent, no transition recorded.
    let obs = launcher.universe().fabric().obs();
    // Two extended attempts: the opener, plus the post-death send that the
    // fabric rejected (counted before the rejection).
    assert_eq!(obs.sum_counters("pml", "ext_sent"), 2, "both sends left in extended mode");
    assert_eq!(obs.sum_counters("pml", "acks_sent"), 0, "dead receiver never acked");
    assert_eq!(obs.sum_counters("pml", "handshakes"), 0, "handshake never completed");
    assert!(obs.events_named("pml.handshake").is_empty());
}

#[test]
fn surviving_group_shrinks_only_after_failure() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 3));
    let (subscribed, done) = mpsc::channel();
    let handle = launcher.spawn(JobSpec::new(3), move |ctx| {
        if ctx.rank() == 2 {
            ctx.park_until_killed();
            return (0, 0);
        }
        let session = new_session(&ctx);
        let before = session.surviving_group("mpi://world").unwrap().size();
        let mut notifier = session.failure_notifier().unwrap();
        subscribed.send(()).unwrap();
        let _ = notifier.next_timeout(Duration::from_secs(10)).expect("event");
        let after = session.surviving_group("mpi://world").unwrap().size();
        session.finalize().unwrap();
        (before, after)
    });
    await_ranks(&done, 2);
    handle.kill_rank(2);
    let out = handle.join().unwrap();
    assert_eq!(out[0], (3, 2));
    assert_eq!(out[1], (3, 2));
}
