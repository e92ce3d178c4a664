//! PMIx scenario tests: lifecycles and corner cases beyond the unit tests —
//! repeated collectives, destruct epochs, timeout/abort propagation,
//! direct-modex misses, and async-construct edge cases.

use pmix::{GroupDirectives, PmixError, PmixUniverse, ProcId};
use simnet::SimTestbed;
use std::sync::Arc;
use std::time::Duration;

fn spawn_procs(uni: &Arc<PmixUniverse>, nspace: &str, n: u32) -> Vec<ProcId> {
    let spec = uni.testbed().cluster.clone();
    (0..n)
        .map(|rank| {
            let node = spec.node_of_slot(rank % spec.total_slots());
            let ep = uni.fabric().register(node);
            let proc = ProcId::new(nspace, rank);
            uni.register_proc(proc.clone(), &ep);
            proc
        })
        .collect()
}

fn on_all<T: Send + 'static>(
    uni: &Arc<PmixUniverse>,
    procs: &[ProcId],
    f: impl Fn(pmix::PmixClient, usize) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let handles: Vec<_> = procs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let uni = uni.clone();
            let p = p.clone();
            let f = f.clone();
            std::thread::spawn(move || f(uni.client_for(&p).unwrap(), i))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn construct_destruct_construct_same_name() {
    // Epoch bookkeeping: the same (name, membership) can be constructed,
    // destructed, and constructed again; the second construct gets a new
    // PGCID.
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 2));
    let procs = spawn_procs(&uni, "job", 4);
    let members = procs.clone();
    let pgcids = on_all(&uni, &procs, move |c, _| {
        let g1 = c.group_construct("recycled", &members, &GroupDirectives::for_mpi()).unwrap();
        c.group_destruct(&g1, None).unwrap();
        let g2 = c.group_construct("recycled", &members, &GroupDirectives::for_mpi()).unwrap();
        let out = (g1.pgcid().unwrap(), g2.pgcid().unwrap());
        c.group_destruct(&g2, None).unwrap();
        out
    });
    let (a, b) = pgcids[0];
    assert_ne!(a, b, "re-construct must mint a fresh PGCID");
    assert!(pgcids.iter().all(|p| *p == (a, b)), "all ranks agree both times");
}

#[test]
fn many_sequential_fences_stay_ordered() {
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 2));
    let procs = spawn_procs(&uni, "job", 4);
    let members = procs.clone();
    let rounds = on_all(&uni, &procs, move |c, _| {
        for _ in 0..25 {
            c.fence(&members, false).unwrap();
        }
        25
    });
    assert_eq!(rounds, vec![25; 4]);
}

#[test]
fn overlapping_groups_with_shared_member() {
    // Two different groups sharing rank 1 construct concurrently; epochs
    // are keyed by membership so they cannot collide.
    let uni = PmixUniverse::new(SimTestbed::tiny(1, 3));
    let procs = spawn_procs(&uni, "job", 3);
    let left = vec![procs[0].clone(), procs[1].clone()];
    let right = vec![procs[1].clone(), procs[2].clone()];
    let l2 = left.clone();
    let r2 = right.clone();
    let out = on_all(&uni, &procs, move |c, i| match i {
        0 => {
            let g = c.group_construct("ol", &l2, &GroupDirectives::for_mpi()).unwrap();
            g.pgcid().unwrap()
        }
        1 => {
            let ga = c.group_construct("ol", &l2, &GroupDirectives::for_mpi()).unwrap();
            let gb = c.group_construct("ol", &r2, &GroupDirectives::for_mpi()).unwrap();
            assert_ne!(ga.pgcid(), gb.pgcid());
            ga.pgcid().unwrap()
        }
        _ => {
            let g = c.group_construct("ol", &r2, &GroupDirectives::for_mpi()).unwrap();
            g.pgcid().unwrap()
        }
    });
    assert_eq!(out[0], out[1]);
}

#[test]
fn fence_timeout_propagates_to_remote_waiters() {
    // Two nodes; the rank on node 1 never arrives. The waiter's timeout
    // must abort the collective for everyone currently blocked.
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
    let procs = spawn_procs(&uni, "job", 2);
    let members = procs.clone();
    let c0 = uni.client_for(&procs[0]).unwrap();
    let err = c0
        .fence_timeout(&members, false, Duration::from_millis(200))
        .unwrap_err();
    assert_eq!(err, PmixError::Timeout);
}

#[test]
fn get_unknown_key_from_remote_owner_is_not_found() {
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
    let procs = spawn_procs(&uni, "job", 2);
    let c0 = uni.client_for(&procs[0]).unwrap();
    let c1 = uni.client_for(&procs[1]).unwrap();
    // Owner has committed *something*, so the dmodex will not park.
    c1.put("present", 1u64);
    c1.commit();
    let err = c0.get_timeout(&procs[1], "absent", Duration::from_secs(2)).unwrap_err();
    // Either NotFound (owner answered "no such key") is acceptable; a
    // Timeout would mean the request parked forever, which is the bug this
    // test guards against... unless the key could still legally appear.
    // Our server parks only keys of live local clients; "absent" parks, so
    // the requester times out — assert it does NOT hang beyond its deadline.
    assert!(matches!(err, PmixError::Timeout | PmixError::NotFound(_)));
}

#[test]
fn invite_timeout_when_invitee_never_responds() {
    let uni = PmixUniverse::new(SimTestbed::tiny(1, 2));
    let procs = spawn_procs(&uni, "job", 2);
    let c0 = uni.client_for(&procs[0]).unwrap();
    c0.group_invite("ghost", &procs[1..], &GroupDirectives::for_mpi()).unwrap();
    let err = c0.group_invite_wait("ghost", Duration::from_millis(300)).unwrap_err();
    assert_eq!(err, PmixError::Timeout);
}

#[test]
fn invite_wait_succeeds_when_invitee_dies() {
    // Dead invitees are dropped from the membership rather than hanging
    // the initiator (the paper's "replace processes that ... fail to
    // respond" semantics, with drop-on-death policy).
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
    let procs = spawn_procs(&uni, "job", 2);
    let c0 = uni.client_for(&procs[0]).unwrap();
    c0.group_invite("doomed-invitee", &procs[1..], &GroupDirectives::for_mpi())
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    uni.kill_proc(&procs[1]).unwrap();
    let g = c0
        .group_invite_wait("doomed-invitee", Duration::from_secs(10))
        .unwrap();
    assert_eq!(g.size(), 1, "only the initiator remains");
    assert!(g.pgcid().is_some());
}

#[test]
fn invite_report_distinguishes_declined_dead_and_timed_out() {
    // One invitee accepts, one declines, one dies, one never answers. The
    // detailed wait must surface all four outcomes individually and still
    // finalize the group with the initiator plus the accepter.
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 3));
    let procs = spawn_procs(&uni, "job", 5);
    let c0 = uni.client_for(&procs[0]).unwrap();
    c0.group_invite("outcomes", &procs[1..], &GroupDirectives::for_mpi()).unwrap();
    // procs[1] accepts, procs[2] declines, procs[3] dies, procs[4] is silent.
    uni.client_for(&procs[1]).unwrap().group_join("outcomes", &procs[0], true).unwrap();
    uni.client_for(&procs[2]).unwrap().group_join("outcomes", &procs[0], false).unwrap();
    uni.kill_proc(&procs[3]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let (g, outcomes) = c0
        .group_invite_wait_report("outcomes", Duration::from_millis(500))
        .unwrap();
    use pmix::InviteOutcome::*;
    let of = |p: &ProcId| outcomes.iter().find(|(q, _)| q == p).map(|(_, o)| *o);
    assert_eq!(of(&procs[1]), Some(Accepted));
    assert_eq!(of(&procs[2]), Some(Declined));
    assert_eq!(of(&procs[3]), Some(Dead));
    assert_eq!(of(&procs[4]), Some(TimedOut));
    assert_eq!(g.members(), &[procs[0].clone(), procs[1].clone()]);
    assert!(g.pgcid().unwrap() > 0, "partial group still gets its PGCID");
    // A straggler reply after finalization is ignored, not an error.
    uni.client_for(&procs[4]).unwrap().group_join("outcomes", &procs[0], true).unwrap();
}

#[test]
fn pset_queries_stay_consistent_while_jobs_churn() {
    // PMIX_QUERY_NUM_PSETS and PMIX_QUERY_PSET_NAMES asked in one batch
    // must agree with each other even while jobs (namespaces + their psets)
    // launch and die concurrently.
    use pmix::query::{query_info, Query};
    use pmix::value::keys;
    use std::sync::atomic::{AtomicBool, Ordering};

    let uni = PmixUniverse::new(SimTestbed::tiny(2, 2));
    let procs = spawn_procs(&uni, "stable", 1);
    let c = uni.client_for(&procs[0]).unwrap();
    uni.registry().define_pset("app://base", vec![procs[0].clone()]);

    let stop = Arc::new(AtomicBool::new(false));
    let uni2 = uni.clone();
    let stop2 = stop.clone();
    let churn = std::thread::spawn(move || {
        let spec = uni2.testbed().cluster.clone();
        let mut i = 0u32;
        while !stop2.load(Ordering::Relaxed) {
            let ns = format!("churn{}", i % 4);
            let pset = format!("app://{ns}");
            let ep = uni2.fabric().register(spec.node_of_slot(i % spec.total_slots()));
            let p = ProcId::new(ns.as_str(), 0);
            uni2.register_proc(p.clone(), &ep);
            uni2.registry().define_pset(&pset, vec![p]);
            // The job dies: pset withdrawn, process killed, namespace gone.
            uni2.registry().undefine_pset(&pset);
            uni2.fabric().kill(ep.id());
            uni2.registry().deregister_namespace(&ns);
            i = i.wrapping_add(1);
        }
    });

    for _ in 0..500 {
        let out = query_info(
            &c,
            &[Query::key(keys::QUERY_NUM_PSETS), Query::key(keys::QUERY_PSET_NAMES)],
        )
        .unwrap();
        let num = out[0].as_u64().unwrap() as usize;
        let names = out[1].as_str_list().unwrap().to_vec();
        assert_eq!(num, names.len(), "count and name list from one batch disagree");
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names, "pset names must come back sorted");
        assert!(names.iter().any(|n| n == "app://base"), "stable pset missing");
        assert!(
            names.iter().all(|n| n == "app://base" || n.starts_with("app://churn")),
            "unexpected pset name in {names:?}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
}

#[test]
fn membership_query_is_epoch_consistent_with_its_batch() {
    // Regression: a membership query batched with PMIX_QUERY_PSET_EPOCH must
    // be answered from the *same* registry snapshot, and the membership
    // answer must carry that snapshot's epoch. Before the fix, membership
    // re-read the live registry per key, so a concurrent update could slip
    // between the epoch read and the membership read (a torn batch), and the
    // answer was an unversioned list the caller could not even check.
    use pmix::query::{query_info, Query};
    use pmix::value::keys;
    use std::sync::atomic::{AtomicBool, Ordering};

    const PSET: &str = "app://flux";
    let uni = PmixUniverse::new(SimTestbed::tiny(1, 2));
    let procs = spawn_procs(&uni, "job", 2);
    let c = uni.client_for(&procs[0]).unwrap();
    uni.registry().define_pset(PSET, vec![procs[0].clone()]);

    // Churn: alternate the membership between one and two procs. This is
    // the only pset that ever changes, so its entry epoch tracks the global
    // registry epoch exactly — any disagreement inside one batch is a torn
    // read, not legitimate drift.
    let stop = Arc::new(AtomicBool::new(false));
    let uni2 = uni.clone();
    let stop2 = stop.clone();
    let (p0, p1) = (procs[0].clone(), procs[1].clone());
    let churn = std::thread::spawn(move || {
        let mut wide = true;
        while !stop2.load(Ordering::Relaxed) {
            let members = if wide {
                vec![p0.clone(), p1.clone()]
            } else {
                vec![p0.clone()]
            };
            uni2.registry().update_pset_membership(PSET, members, None).unwrap();
            wide = !wide;
        }
    });

    for _ in 0..400 {
        let out = query_info(
            &c,
            &[
                Query::key(keys::QUERY_PSET_EPOCH),
                Query::with_qualifier(keys::QUERY_PSET_MEMBERSHIP, PSET),
            ],
        )
        .unwrap();
        let batch_epoch = out[0].as_u64().unwrap();
        let (member_epoch, members) =
            out[1].as_versioned_proc_list().expect("membership is versioned");
        assert_eq!(
            member_epoch, batch_epoch,
            "membership answered from a different snapshot than its batch"
        );
        assert!(members.len() == 1 || members.len() == 2);
        assert_eq!(members[0], procs[0], "stable member always first");
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
}

#[test]
fn delayed_fabric_defers_invite_deadline() {
    // Regression: invite/join deadlines are *logical*, not wall-clock. A
    // chaos-delayed fabric keeps the join in flight past the caller's wall
    // budget; the deadline must observe the in-flight traffic and defer
    // expiry instead of reporting TimedOut for an invitee that did answer.
    // Before the fix this returned PmixError::Timeout after ~40ms even
    // though the accept was already on the wire.
    use simnet::inject::{FaultAction, FaultHook, FaultVerdict, MsgView};

    struct CrossNodeDelay(Duration);
    impl FaultHook for CrossNodeDelay {
        fn on_message(&self, msg: &MsgView) -> FaultVerdict {
            match (msg.src_node, msg.dst_node) {
                (Some(a), Some(b)) if a != b => FaultAction::Delay(self.0).into(),
                _ => FaultVerdict::deliver(),
            }
        }
    }

    let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
    let procs = spawn_procs(&uni, "job", 2);
    uni.fabric()
        .set_fault_hook(Some(Arc::new(CrossNodeDelay(Duration::from_millis(150)))));
    let c0 = uni.client_for(&procs[0]).unwrap();
    c0.group_invite("slow-join", &procs[1..], &GroupDirectives::for_mpi()).unwrap();
    // The invitee accepts immediately; its accept crosses nodes and spends
    // ~150ms in flight — well past the 40ms wall budget below.
    uni.client_for(&procs[1]).unwrap().group_join("slow-join", &procs[0], true).unwrap();
    let g = c0
        .group_invite_wait("slow-join", Duration::from_millis(40))
        .expect("logical deadline defers while the accept is in flight");
    assert_eq!(g.members(), &[procs[0].clone(), procs[1].clone()]);
    assert!(g.pgcid().is_some());
    uni.fabric().set_fault_hook(None);
}

#[test]
fn duplicate_invite_name_rejected() {
    let uni = PmixUniverse::new(SimTestbed::tiny(1, 2));
    let procs = spawn_procs(&uni, "job", 2);
    let c0 = uni.client_for(&procs[0]).unwrap();
    c0.group_invite("dup-name", &procs[1..], &GroupDirectives::for_mpi()).unwrap();
    let err = c0
        .group_invite("dup-name", &procs[1..], &GroupDirectives::for_mpi())
        .unwrap_err();
    assert!(matches!(err, PmixError::Exists(_)));
}

#[test]
fn non_member_cannot_enter_collective() {
    let uni = PmixUniverse::new(SimTestbed::tiny(1, 3));
    let procs = spawn_procs(&uni, "job", 3);
    let outsider = uni.client_for(&procs[2]).unwrap();
    let members = vec![procs[0].clone(), procs[1].clone()];
    let err = outsider
        .group_construct("exclusive", &members, &GroupDirectives::for_mpi())
        .unwrap_err();
    assert_eq!(err, PmixError::NotMember);
}

#[test]
fn empty_membership_rejected() {
    let uni = PmixUniverse::new(SimTestbed::tiny(1, 1));
    let procs = spawn_procs(&uni, "job", 1);
    let c = uni.client_for(&procs[0]).unwrap();
    let err = c
        .group_construct("empty", &[], &GroupDirectives::for_mpi())
        .unwrap_err();
    assert!(matches!(err, PmixError::BadParam(_)));
}

#[test]
fn kv_overwrite_takes_latest_value() {
    let uni = PmixUniverse::new(SimTestbed::tiny(1, 2));
    let procs = spawn_procs(&uni, "job", 2);
    let c0 = uni.client_for(&procs[0]).unwrap();
    let c1 = uni.client_for(&procs[1]).unwrap();
    c0.put("k", 1u64);
    c0.commit();
    c0.put("k", 2u64);
    c0.commit();
    let v = c1.get(&procs[0], "k").unwrap();
    assert_eq!(v.as_u64(), Some(2));
}

#[test]
fn rm_survives_burst_of_pgcid_requests() {
    // Many groups constructed back-to-back from different nodes: the RM
    // must hand out strictly unique PGCIDs for *concurrently live* groups.
    // A destructed group's id is recycled into the lead server's pool
    // (lifecycle GC), so a second burst of the same size completes without
    // the RM minting a single additional id.
    let uni = PmixUniverse::new(SimTestbed::tiny(4, 1));
    let procs = spawn_procs(&uni, "job", 4);
    let all = procs.clone();
    let out = on_all(&uni, &procs, move |c, _| {
        let mut live = Vec::new();
        for i in 0..10 {
            let g = c
                .group_construct(&format!("burst{i}"), &all, &GroupDirectives::for_mpi())
                .unwrap();
            live.push(g);
        }
        let ids: Vec<u64> = live.iter().map(|g| g.pgcid().unwrap()).collect();
        for g in &live {
            c.group_destruct(g, None).unwrap();
        }
        let mut again = Vec::new();
        for i in 0..10 {
            let g = c
                .group_construct(&format!("again{i}"), &all, &GroupDirectives::for_mpi())
                .unwrap();
            again.push(g.pgcid().unwrap());
            c.group_destruct(&g, None).unwrap();
        }
        (ids, again)
    });
    // All ranks saw the same sequences.
    assert!(out.iter().all(|o| o == &out[0]));
    // Concurrently live groups hold strictly unique, nonzero ids.
    let (first, _) = &out[0];
    let mut sorted = first.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), first.len());
    assert!(first.iter().all(|id| *id != 0));
    let obs = uni.fabric().obs();
    // 10 live groups forced two blocks of 8; the second burst ran entirely
    // on pooled surplus + recycled ids, so allocation stopped at 16.
    assert_eq!(obs.sum_counters("pmix", "pgcid_allocated"), 16);
    // Every destruct returned its id to the pool (both bursts).
    assert_eq!(obs.sum_counters("pmix", "pgcid_recycled"), 20);
}

#[test]
fn retired_peer_card_is_purged_and_resolution_fails_typed() {
    // Regression test for the retire-purge bug: graceful retirement
    // (deregister, no failure event) used to leave the rank's committed
    // business card in the server KVS, so a lazy resolution of the
    // departed peer returned a stale endpoint. The fix
    // (`PmixUniverse::purge_retired`, wired into `Launcher::retire_ranks`)
    // sweeps the card everywhere; resolution must then fail *typed*.
    // Pre-fix, the three post-retire assertions below all fail.
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
    let procs = spawn_procs(&uni, "job", 2);

    // Rank 1 publishes its business card, fence-free (put + commit only).
    let c1 = uni.client_for(&procs[1]).unwrap();
    c1.put(pmix::value::keys::ENDPOINT, pmix::PmixValue::U64(42));
    c1.commit();

    // Rank 0 resolves it on demand and caches the endpoint.
    let c0 = uni.client_for(&procs[0]).unwrap();
    let resolver = pmix::PeerResolver::new(&c0);
    let mut fetch = resolver.begin(&procs[1]).unwrap();
    let ep = loop {
        if let Some(res) = resolver.poll(&mut fetch) {
            break res.unwrap();
        }
        resolver.park(&fetch, Duration::from_millis(5));
    };
    assert_eq!(ep, simnet::EndpointId(42));
    assert_eq!(resolver.lookup(&procs[1]), Some(simnet::EndpointId(42)));

    // Graceful retirement: exactly what Launcher::retire_ranks does.
    uni.registry().deregister_proc(&procs[1]);
    uni.purge_retired(&procs[1]);

    // The committed card is gone from every server shard...
    for s in uni.servers() {
        assert!(s.local_committed(&procs[1]).is_none(), "card must be purged");
    }
    // ...the resolver's cached entry reads as a miss (evicted, not stale)...
    assert_eq!(resolver.lookup(&procs[1]), None, "stale cache entry must evict");
    // ...and a renewed resolution fails with a typed error, never ep 42.
    match resolver.begin(&procs[1]) {
        Err(PmixError::NotFound(_)) | Err(PmixError::ProcTerminated(_)) => {}
        Err(other) => panic!("expected NotFound/ProcTerminated, got {other:?}"),
        Ok(_) => panic!("resolution of a retired peer must not begin"),
    }
}

#[test]
fn fetch_park_rechecks_readiness_under_the_shard_lock() {
    // Regression: `fetch_park` used to lock the shard and wait without
    // looking at the ticket, so a commit landing between the caller's
    // `fetch_poll` and its `fetch_park` was a lost wake-up bounded only by
    // `limit`. Pre-fix the park below sleeps the full five seconds.
    let uni = PmixUniverse::new(SimTestbed::tiny(1, 2));
    let procs = spawn_procs(&uni, "job", 2);
    let c0 = uni.client_for(&procs[0]).unwrap();
    let c1 = uni.client_for(&procs[1]).unwrap();
    let server = c0.server();
    let mut ticket = server.fetch_begin(&procs[1], "late").unwrap();
    assert!(server.fetch_poll(&mut ticket).is_none(), "owner has not committed yet");
    // The wake-up the parker is not yet there to hear.
    c1.put("late", 7u64);
    c1.commit();
    let t0 = std::time::Instant::now();
    server.fetch_park(&ticket, Duration::from_secs(5));
    assert!(t0.elapsed() < Duration::from_secs(1), "park slept through a ready ticket");
    assert_eq!(server.fetch_poll(&mut ticket).unwrap().unwrap().as_u64(), Some(7));
}

#[test]
fn blocking_get_and_hand_driven_ticket_reach_the_same_verdict() {
    // `get_timeout` is begin + poll/park over the same tickets the lazy
    // resolver drives by hand; every way a fetch can end must end the same
    // way through both.
    #[derive(Debug, PartialEq)]
    enum Verdict {
        Value(u64),
        Timeout,
        NotFound,
        ProcTerminated,
    }
    fn verdict(res: Result<pmix::PmixValue, PmixError>) -> Verdict {
        match res {
            Ok(v) => Verdict::Value(v.as_u64().expect("u64 test values")),
            Err(PmixError::Timeout) => Verdict::Timeout,
            Err(PmixError::NotFound(_)) => Verdict::NotFound,
            Err(PmixError::ProcTerminated(_)) => Verdict::ProcTerminated,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    const BUDGET: Duration = Duration::from_millis(300);
    // (case, owner rank: 1 shares the getter's node, 2 is remote, expected)
    let cases = [
        ("local committed", 1, Verdict::Value(11)),
        ("local late commit", 1, Verdict::Value(12)),
        ("remote dmodex hit", 2, Verdict::Value(13)),
        // The owner's server parks a live client's uncommitted key.
        ("remote absent key", 2, Verdict::Timeout),
        ("dead owner", 2, Verdict::ProcTerminated),
        ("retired owner", 2, Verdict::NotFound),
    ];
    for (case, owner, expected) in cases {
        for by_hand in [false, true] {
            let uni = PmixUniverse::new(SimTestbed::tiny(2, 2));
            // Slots fill node 0 first: ranks 0,1 on node 0, rank 2 on node 1.
            let procs = spawn_procs(&uni, "job", 3);
            let getter = uni.client_for(&procs[0]).unwrap();
            let owner_proc = procs[owner].clone();
            let owner_client = uni.client_for(&owner_proc).unwrap();
            let mut late_commit = None;
            match case {
                "local committed" => {
                    owner_client.put("k", 11u64);
                    owner_client.commit();
                }
                "local late commit" => {
                    late_commit = Some(std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(30));
                        owner_client.put("k", 12u64);
                        owner_client.commit();
                    }));
                }
                "remote dmodex hit" => {
                    owner_client.put("k", 13u64);
                    owner_client.commit();
                }
                "remote absent key" => {
                    owner_client.put("other", 1u64);
                    owner_client.commit();
                }
                "dead owner" => {
                    uni.kill_proc(&owner_proc).unwrap();
                    let t0 = std::time::Instant::now();
                    while !uni.proc_is_dead(&owner_proc) {
                        assert!(t0.elapsed() < Duration::from_secs(5), "death never observed");
                        std::thread::yield_now();
                    }
                }
                "retired owner" => {
                    uni.registry().deregister_proc(&owner_proc);
                    uni.purge_retired(&owner_proc);
                }
                other => unreachable!("{other}"),
            }
            let got = if by_hand {
                let server = getter.server();
                let deadline = std::time::Instant::now() + BUDGET;
                match server.fetch_begin(&owner_proc, "k") {
                    Err(e) => verdict(Err(e)),
                    Ok(mut ticket) => loop {
                        if let Some(res) = server.fetch_poll(&mut ticket) {
                            break verdict(res);
                        }
                        let left = deadline.saturating_duration_since(std::time::Instant::now());
                        if left.is_zero() {
                            break Verdict::Timeout;
                        }
                        server.fetch_park(&ticket, left);
                    },
                }
            } else {
                verdict(getter.get_timeout(&owner_proc, "k", BUDGET))
            };
            assert_eq!(got, expected, "{case} (by_hand = {by_hand})");
            if let Some(h) = late_commit {
                h.join().unwrap();
            }
        }
    }
}

#[test]
fn invite_finalize_rides_the_collective_pgcid_route() {
    // Two invite/join constructs at the default block of 8: the first pays
    // the one RM round trip (a `pgcid.request` span, like a collective's),
    // the second is a pool hit. Pre-fix the invite path had a private RM
    // route with no span at all.
    let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
    let procs = spawn_procs(&uni, "job", 2);
    let c0 = uni.client_for(&procs[0]).unwrap();
    let c1 = uni.client_for(&procs[1]).unwrap();
    let mut pgcids = Vec::new();
    for name in ["ij0", "ij1"] {
        c0.group_invite(name, &procs[1..], &GroupDirectives::for_mpi()).unwrap();
        c1.group_join(name, &procs[0], true).unwrap();
        let g = c0.group_invite_wait(name, Duration::from_secs(10)).unwrap();
        assert_eq!(g.size(), 2);
        pgcids.push(g.pgcid().unwrap());
    }
    assert_ne!(pgcids[0], pgcids[1]);
    let obs = uni.fabric().obs();
    let requests = obs.spans_snapshot().iter().filter(|s| s.name == "pgcid.request").count();
    assert_eq!(requests, 1, "one block request serves both constructs");
    assert_eq!(obs.sum_counters("pmix", "pgcid_pool_hits"), 1);
    assert_eq!(obs.sum_counters("pmix", "pgcid_allocated"), 8);
}

#[test]
fn late_pgcid_grant_for_a_timed_out_invite_is_repooled() {
    // Every RPC costs 150 ms of server time, so the RM's grant lands long
    // after the 20 ms invite wait gave up (the fabric is quiet while the RM
    // works, so the logical deadline does expire). The whole block must end
    // up in the pool — surplus *and* lead id. Pre-fix the lead id of a late
    // grant was neither pooled nor delivered.
    let mut tb = SimTestbed::tiny(1, 2);
    tb.cost.rpc_processing = Duration::from_millis(150);
    let uni = PmixUniverse::new(tb);
    let procs = spawn_procs(&uni, "job", 2);
    let c0 = uni.client_for(&procs[0]).unwrap();
    let c1 = uni.client_for(&procs[1]).unwrap();
    // Both procs share node 0: invite and accept are node-local calls.
    c0.group_invite("late-grant", &procs[1..], &GroupDirectives::for_mpi()).unwrap();
    c1.group_join("late-grant", &procs[0], true).unwrap();
    let err = c0.group_invite_wait("late-grant", Duration::from_millis(20)).unwrap_err();
    assert_eq!(err, PmixError::Timeout);
    let server = c0.server();
    let t0 = std::time::Instant::now();
    while server.pgcid_pool_len() < 8 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.pgcid_pool_len(), 8, "the late grant's lead id was lost");
    assert_eq!(uni.fabric().obs().sum_counters("pmix", "pgcid_allocated"), 8);
}
