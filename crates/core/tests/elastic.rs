//! Dynamic process sets end to end: grow the job, kill a rank, retire a
//! rank gracefully, and have every survivor follow the pset through its
//! epochs with [`ElasticComm`] rebuilds.

use mpi_sessions::{
    coll, ElasticComm, ErrClass, ErrHandler, Info, Rebuild, ReduceOp, Session, ThreadLevel,
};
use prrte::{JobSpec, Launcher};
use simnet::SimTestbed;
use std::sync::mpsc;
use std::time::Duration;

const PSET: &str = "app://elastic";
const STEP: Duration = Duration::from_secs(20);

fn new_session(ctx: &prrte::ProcCtx) -> Session {
    Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap()
}

/// Collect `n` (rank, epoch, sum) acknowledgements and assert they all
/// carry `epoch` and `sum`.
fn expect_acks(rx: &mpsc::Receiver<(u32, u64, u32)>, n: usize, epoch: u64, sum: u32) {
    let mut ranks = Vec::new();
    for _ in 0..n {
        let (rank, e, s) = rx.recv_timeout(STEP).expect("ack before timeout");
        assert_eq!(e, epoch, "rank {rank} rebuilt at wrong epoch");
        assert_eq!(s, sum, "rank {rank} allreduce saw wrong membership");
        ranks.push(rank);
    }
    ranks.sort();
    ranks.dedup();
    assert_eq!(ranks.len(), n, "duplicate acks: {ranks:?}");
}

#[test]
fn elastic_grow_kill_retire_rebuilds_survivors() {
    let launcher = Launcher::new(SimTestbed::tiny(2, 4));
    let (tx, rx) = mpsc::channel::<(u32, u64, u32)>();
    let spec = JobSpec::new(4).with_pset(PSET, vec![0, 1, 2, 3]);
    let handle = launcher.spawn_named("elasticjob", spec, move |ctx| {
        let session = new_session(&ctx);
        let mut ec = ElasticComm::establish(&session, PSET, STEP).unwrap();
        let mut history: Vec<(u64, u32)> = Vec::new();
        loop {
            // One allreduce per epoch: a collective proof that every
            // member of this epoch is on the rebuilt communicator.
            let comm = ec.comm().expect("member has a communicator");
            let sum = coll::allreduce_t(comm, ReduceOp::Sum, &[1u32]).unwrap()[0];
            history.push((ec.epoch(), sum));
            tx.send((ctx.rank(), ec.epoch(), sum)).unwrap();
            match ec.next_rebuild(STEP) {
                Ok(Rebuild::Rebuilt { .. }) => continue,
                Ok(Rebuild::Retired { .. }) | Ok(Rebuild::Deleted { .. }) => break,
                Err(e) => panic!("rank {} rebuild failed: {e}", ctx.rank()),
            }
        }
        session.finalize().unwrap();
        history
    });
    let ctl = handle.ctl();

    // Epoch 1: the launch-time definition; 4 members.
    expect_acks(&rx, 4, 1, 4);

    // Epoch 2: grow to 8. Newcomers establish at the grown epoch (their
    // replay already contains it); incumbents rebuild on the live event.
    let grown = ctl.spawn_ranks(4, Some(PSET));
    assert_eq!(grown, vec![4, 5, 6, 7]);
    expect_acks(&rx, 8, 2, 8);

    // Epoch 3: rank 7 dies; the failure bridge shrinks the pset and the 7
    // survivors rebuild without it.
    handle.kill_rank(7);
    expect_acks(&rx, 7, 3, 7);

    // Epoch 4: rank 6 retires gracefully — no failure event, its body
    // observes the shrink and returns, and retire_ranks joins it.
    let retired = ctl.retire_ranks(&[6], Some(PSET)).unwrap();
    assert_eq!(retired.len(), 1);
    assert_eq!(retired[0].last().copied(), Some((3, 7)), "rank 6 was on the epoch-3 comm");
    expect_acks(&rx, 6, 4, 6);

    // Delete the pset: the remaining 6 ranks exit their rebuild loops.
    launcher.universe().registry().undefine_pset(PSET);
    let out = handle.join().unwrap();
    assert_eq!(out.len(), 7, "6 survivors + the killed rank's thread");
    // Every surviving rank's history ends on the rebuilt communicator at
    // the final pset epoch with exactly the 6 remaining members.
    let mut final_states: Vec<(u64, u32)> =
        out.iter().filter_map(|h| h.last().copied()).collect();
    final_states.sort();
    assert_eq!(final_states.iter().filter(|s| **s == (4, 6)).count(), 6);

    let obs = launcher.universe().fabric().obs();
    // Departed peers (killed rank 7, retired rank 6) were explicitly
    // dropped from survivors' handshake caches during rebuild.
    assert!(
        obs.sum_counters("pml", "cache_invalidated") > 0,
        "rebuilds must invalidate departed peers"
    );
    // No rebuilt communicator inherited traffic addressed to a stale
    // epoch: every locally-retired comm had an empty unexpected queue.
    let retires = obs.events_named("elastic.retire");
    assert!(!retires.is_empty());
    for ev in &retires {
        assert_eq!(
            ev.attr("stale_unexpected").and_then(|v| v.as_u64()),
            Some(0),
            "stale message crossed an epoch boundary"
        );
    }
    // Epochs in the runtime's pset.update stream are strictly monotonic.
    let updates = obs.events_named("pset.update");
    let epochs: Vec<u64> =
        updates.iter().filter_map(|e| e.attr("epoch").and_then(|v| v.as_u64())).collect();
    assert!(epochs.windows(2).all(|w| w[0] < w[1]), "epochs not monotonic: {epochs:?}");
    assert_eq!(obs.sum_counters("session", "rebuilds") as usize, 4 + 8 + 7 + 6);
}

#[test]
fn group_from_pset_at_detects_stale_epoch() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    let (tx, rx) = mpsc::channel::<u64>();
    let spec = JobSpec::new(2).with_pset(PSET, vec![0, 1]);
    let handle = launcher.spawn_named("stalejob", spec, move |ctx| {
        let session = new_session(&ctx);
        let mut watcher = session.watch_psets().unwrap();
        let first = watcher.next_timeout(STEP).expect("replayed definition");
        assert_eq!(first.pset, PSET);
        // Pinned resolution succeeds at the current epoch...
        let g = session.group_from_pset_at(PSET, first.epoch).unwrap();
        assert_eq!(g.size(), 2);
        // Every rank reports in: the driver must not mutate the pset until
        // both watchers are live, or the late one's replay already shows
        // the new epoch and no further change ever arrives.
        tx.send(first.epoch).unwrap();
        // ...and after the driver mutates the pset, the same pin is a
        // typed stale error, not a silently-different group.
        let second = watcher.next_timeout(STEP).expect("membership change");
        assert!(second.epoch > first.epoch);
        let err = session.group_from_pset_at(PSET, first.epoch).unwrap_err();
        assert_eq!(err.class, ErrClass::Stale);
        assert!(err.message.contains("epoch"));
        let g2 = session.group_from_pset_at(PSET, second.epoch).unwrap();
        session.finalize().unwrap();
        g2.size()
    });
    let epoch = rx.recv_timeout(STEP).unwrap();
    assert_eq!(rx.recv_timeout(STEP).unwrap(), epoch);
    // Shrink the pset directly through the registry (driver-side churn).
    let registry = launcher.universe().registry();
    let (cur, members) = registry.pset_members_versioned(PSET).unwrap();
    assert_eq!(cur, epoch);
    let keep = vec![members[0].clone(), members[1].clone()];
    // Reorder-free update: same members, new epoch (a pure version bump
    // still invalidates pins — that is the point of the epoch).
    registry.update_pset_membership(PSET, keep, None).unwrap();
    let out = handle.join().unwrap();
    assert_eq!(out, vec![2, 2]);
}
