//! Property-based tests over the full stack: randomized communication
//! patterns and group algebra must preserve the library's invariants.

use mpi_sessions_repro::mpi::{coll, Comm, ErrHandler, Info, ReduceOp, Session, ThreadLevel};
use mpi_sessions_repro::pmix::nspace::NamespaceRegistry;
use mpi_sessions_repro::pmix::ProcId;
use mpi_sessions_repro::prrte::{JobSpec, Launcher};
use mpi_sessions_repro::simnet::SimTestbed;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

fn run_job<T, F>(np: u32, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(prrte::ProcCtx) -> T + Send + Sync + 'static,
{
    Launcher::new(SimTestbed::tiny(1, np))
        .spawn(JobSpec::new(np), f)
        .join()
        .expect("job")
}

fn world_comm(ctx: &prrte::ProcCtx, tag: &str) -> (Session, Comm) {
    let s = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap();
    let g = s.group_from_pset("mpi://world").unwrap();
    let c = Comm::create_from_group(&g, tag).unwrap();
    (s, c)
}

/// Deterministic Fisher–Yates permutation of `0..k` from a proptest-drawn
/// seed (the vendored proptest has no `prop_shuffle`).
fn perm(seed: u64, k: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..k).collect();
    let mut s = seed | 1;
    for i in (1..k).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case launches a multi-threaded simulated job
        .. ProptestConfig::default()
    })]

    /// Any batch of tagged messages 0→1, sent in any order and received in
    /// any (tag-selective) order, is delivered intact: matching never
    /// mixes up tags or payloads.
    #[test]
    fn prop_out_of_order_matching_is_sound(
        perm in proptest::sample::subsequence((0u8..12).collect::<Vec<_>>(), 1..12)
    ) {
        let send_order = perm.clone();
        let out = run_job(2, move |ctx| {
            let (s, c) = world_comm(&ctx, "prop-match");
            let result = if ctx.rank() == 0 {
                for &t in &send_order {
                    c.send_t(1, t as i32, &[t as u32 * 1000 + 7]).unwrap();
                }
                Vec::new()
            } else {
                // Receive in reverse-sorted tag order regardless of send order.
                let mut tags = send_order.clone();
                tags.sort_unstable();
                tags.reverse();
                let mut got = Vec::new();
                for &t in &tags {
                    let (v, st) = c.recv_t::<u32>(0, t as i32).unwrap();
                    got.push((st.tag, v[0]));
                }
                got
            };
            c.free().unwrap();
            s.finalize().unwrap();
            result
        });
        for (tag, payload) in &out[1] {
            prop_assert_eq!(*payload, *tag as u32 * 1000 + 7);
        }
        prop_assert_eq!(out[1].len(), perm.len());
    }

    /// Allreduce(sum) equals the local sum of contributions for any
    /// process count and payload.
    #[test]
    fn prop_allreduce_matches_serial_sum(
        np in 1u32..6,
        values in proptest::collection::vec(0i64..1000, 1..8)
    ) {
        let len = values.len();
        let vals = values.clone();
        let out = run_job(np, move |ctx| {
            let (s, c) = world_comm(&ctx, "prop-ar");
            // Every rank contributes values scaled by (rank+1).
            let mine: Vec<i64> =
                vals.iter().map(|v| v * (ctx.rank() as i64 + 1)).collect();
            let got = coll::allreduce_t(&c, ReduceOp::Sum, &mine).unwrap();
            c.free().unwrap();
            s.finalize().unwrap();
            got
        });
        let scale: i64 = (1..=np as i64).sum();
        for rank_out in &out {
            prop_assert_eq!(rank_out.len(), len);
            for (i, v) in rank_out.iter().enumerate() {
                prop_assert_eq!(*v, values[i] * scale);
            }
        }
    }

    /// Splitting by any coloring yields communicators that partition the
    /// parent: sizes sum to the parent size and each subgroup agrees on
    /// its own reduction.
    #[test]
    fn prop_split_partitions_parent(colors in proptest::collection::vec(0u32..3, 4)) {
        let cols = colors.clone();
        let out = run_job(4, move |ctx| {
            let (s, c) = world_comm(&ctx, "prop-split");
            let my_color = cols[ctx.rank() as usize];
            let sub = c.split(my_color, ctx.rank()).unwrap();
            let members = coll::allreduce_t(&sub, ReduceOp::Sum, &[1u32]).unwrap()[0];
            let size = sub.size();
            sub.free().unwrap();
            c.free().unwrap();
            s.finalize().unwrap();
            (my_color, size, members)
        });
        let mut total = 0;
        for (color, size, members) in &out {
            prop_assert_eq!(*members, *size, "allreduce within split saw wrong membership");
            let expected = colors.iter().filter(|c| *c == color).count() as u32;
            prop_assert_eq!(*size, expected);
            total += 1;
        }
        prop_assert_eq!(total, 4);
    }

    /// Sessions communicators created under any interleaving of table
    /// "burn" noise still agree on the exCID across ranks.
    #[test]
    fn prop_excid_agreement_under_table_skew(burns in proptest::collection::vec(0usize..4, 3)) {
        let skew = burns.clone();
        let out = run_job(3, move |ctx| {
            let (s, c0) = world_comm(&ctx, "prop-skew-base");
            // Burn a rank-dependent number of local CIDs.
            let selfg = s.group_from_pset("mpi://self").unwrap();
            let mut burners = Vec::new();
            for i in 0..skew[ctx.rank() as usize] {
                burners.push(Comm::create_from_group(&selfg, &format!("b{i}")).unwrap());
            }
            let g = s.group_from_pset("mpi://world").unwrap();
            let c = Comm::create_from_group(&g, "prop-skew").unwrap();
            let excid = c.excid().unwrap();
            let sum = coll::allreduce_t(&c, ReduceOp::Sum, &[1u32]).unwrap()[0];
            c.free().unwrap();
            for b in burners { b.free().unwrap(); }
            c0.free().unwrap();
            s.finalize().unwrap();
            (excid, sum)
        });
        prop_assert_eq!(out[0].1, 3);
        prop_assert_eq!(out[0].0, out[1].0);
        prop_assert_eq!(out[1].0, out[2].0);
    }

    /// Nonblocking setup is completion-order agnostic: a batch of
    /// concurrently issued `icomm_create_from_group` requests, claimed in
    /// an *independently shuffled* order on each rank, always completes
    /// (no deadlock), agrees on every exCID across ranks, and keeps the
    /// per-communicator channels isolated (tagged traffic never crosses).
    #[test]
    fn prop_async_setup_any_completion_order_agrees(
        seeds in proptest::collection::vec(0u64..u64::MAX, 2)
    ) {
        const K: usize = 4;
        let schedules: Vec<Vec<usize>> = seeds.iter().map(|&s| perm(s, K)).collect();
        let out = run_job(2, move |ctx| {
            let s = Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
                .unwrap();
            let g = s.group_from_pset("mpi://world").unwrap();
            let mut reqs: Vec<_> = (0..K)
                .map(|i| Some(Comm::icomm_create_from_group(&g, &format!("prop-async{i}")).unwrap()))
                .collect();
            // Claim in this rank's shuffled order: the collectives complete
            // server-side regardless of who waits what first.
            let mut comms: Vec<Option<Comm>> = (0..K).map(|_| None).collect();
            for &i in &schedules[ctx.rank() as usize] {
                comms[i] = Some(reqs[i].take().unwrap().wait().unwrap());
            }
            let comms: Vec<Comm> = comms.into_iter().map(|c| c.unwrap()).collect();
            let excids: Vec<_> = comms.iter().map(|c| c.excid().unwrap()).collect();
            let mut cids: Vec<u16> = comms.iter().map(|c| c.local_cid()).collect();
            cids.sort_unstable();
            cids.dedup();
            assert_eq!(cids.len(), K, "local CIDs must be distinct per process");
            let peer = 1 - ctx.rank();
            for (i, c) in comms.iter().enumerate() {
                let msg = format!("pa{i}r{}", ctx.rank());
                let (reply, st) = c
                    .sendrecv(peer, i as i32, msg.as_bytes(), peer as i32, i as i32)
                    .unwrap();
                assert_eq!(reply, format!("pa{i}r{peer}").as_bytes());
                assert_eq!(st.tag, i as i32);
            }
            for c in comms {
                c.free().unwrap();
            }
            s.finalize().unwrap();
            excids
        });
        prop_assert_eq!(&out[0], &out[1], "ranks disagree on exCIDs");
        let mut uniq = out[0].clone();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), K, "concurrent constructs must get distinct exCIDs");
    }

    /// Any interleaving of pset define/update/delete/GC keeps the emitted
    /// epoch stream strictly monotonic and never resurrects a tombstoned
    /// pset: a deleted name stays unresolvable until (and unless) a later
    /// define re-creates it.
    #[test]
    fn prop_registry_interleaving_is_monotonic_and_tombstones_stay_dead(
        ops in proptest::collection::vec(0u8..16, 1..80)
    ) {
        let reg = NamespaceRegistry::new();
        let epochs: Arc<Mutex<Vec<u64>>> = Arc::default();
        let sink = epochs.clone();
        reg.add_pset_listener(Box::new(move |c| sink.lock().unwrap().push(c.epoch)));
        let member = vec![ProcId::new("prop", 0)];
        // Model: per-name liveness; the registry must agree after every op.
        let mut live = [false; 4];
        for code in ops {
            let (op, w) = (code % 4, (code / 4) as usize);
            let name = format!("prop://{w}");
            match op {
                0 => {
                    reg.define_pset(&name, member.clone());
                    live[w] = true;
                }
                1 => {
                    let r = reg.update_pset_membership(&name, member.clone(), None);
                    // Updating a live pset succeeds; a deleted or unknown
                    // one errors instead of resurrecting the name.
                    prop_assert_eq!(r.is_ok(), live[w]);
                }
                2 => {
                    reg.undefine_pset(&name);
                    live[w] = false;
                }
                _ => {
                    reg.gc_tombstones();
                }
            }
            for (i, l) in live.iter().enumerate() {
                let resolvable = reg.pset_members(&format!("prop://{i}")).is_ok();
                prop_assert_eq!(resolvable, *l, "pset prop://{} resurrection/loss", i);
            }
        }
        prop_assert_eq!(reg.num_psets(), live.iter().filter(|l| **l).count());
        let epochs = epochs.lock().unwrap();
        prop_assert!(
            epochs.windows(2).all(|w| w[0] < w[1]),
            "emitted epochs must be strictly increasing: {:?}",
            &*epochs
        );
    }

    /// The faults pset under any interleaving of kills (failure bridge:
    /// prune every pset), graceful retires (launcher: prune just the
    /// survivors pset), and repair-side reads stays (a) a subset of the
    /// world it was defined over, (b) strictly epoch-monotonic, and
    /// (c) free of resurrection: once a proc is tombstoned by either
    /// removal path — including redundant removals racing each other —
    /// no later operation ever puts it back among the survivors.
    #[test]
    fn prop_faults_pset_shrinks_monotonically_and_never_resurrects(
        ops in proptest::collection::vec(0u8..18, 1..100)
    ) {
        let reg = NamespaceRegistry::new();
        let epochs: Arc<Mutex<Vec<u64>>> = Arc::default();
        let sink = epochs.clone();
        reg.add_pset_listener(Box::new(move |c| sink.lock().unwrap().push(c.epoch)));
        let world: Vec<ProcId> = (0..6).map(|r| ProcId::new("prop-ft", r)).collect();
        let survivors = mpi_sessions_repro::pmix::survivors_pset_name("prop-ft");
        reg.define_pset(&survivors, world.clone());
        let mut tombstoned = [false; 6];
        for code in ops {
            let (op, w) = (code % 3, (code / 3) as usize);
            let p = &world[w];
            match op {
                0 => {
                    // Kill: the failure bridge prunes every pset holding p.
                    reg.remove_from_psets(p, None);
                    tombstoned[w] = true;
                }
                1 => {
                    // Graceful retire: prune only the survivors pset.
                    reg.remove_proc_from_pset(&survivors, p);
                    tombstoned[w] = true;
                }
                _ => {
                    // Repair-side read: the versioned snapshot a
                    // rebuild pins must be stable across an immediate
                    // re-read (no phantom epoch bumps).
                    let (e1, m1) = reg.pset_members_versioned(&survivors).unwrap();
                    let (e2, m2) = reg.pset_members_versioned(&survivors).unwrap();
                    prop_assert_eq!(e1, e2, "read-only ops must not move the epoch");
                    prop_assert_eq!(&*m1, &*m2);
                }
            }
            let (_, members) = reg.pset_members_versioned(&survivors).unwrap();
            for m in members.iter() {
                prop_assert!(world.contains(m), "survivors must stay ⊆ world, found {}", m);
            }
            for (i, dead) in tombstoned.iter().enumerate() {
                prop_assert!(
                    !(*dead && members.contains(&world[i])),
                    "tombstoned proc {} resurrected into the survivors pset",
                    &world[i]
                );
            }
        }
        let epochs = epochs.lock().unwrap();
        prop_assert!(
            epochs.windows(2).all(|w| w[0] < w[1]),
            "emitted epochs must be strictly increasing: {:?}",
            &*epochs
        );
    }
}
