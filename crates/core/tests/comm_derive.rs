//! Communicator derivation: dup (all three paths), split, create_group,
//! free, CID-space fragmentation, and the exCID derivation rules end-to-end.

mod common;

use common::run;
use mpi_sessions::comm::CidOrigin;
use mpi_sessions::{coll, Comm, ErrHandler, Info, ReduceOp, Session, ThreadLevel};

fn world_comm(ctx: &prrte::ProcCtx, tag: &str) -> (Session, Comm) {
    let s = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap();
    let g = s.group_from_pset("mpi://world").unwrap();
    let c = Comm::create_from_group(&g, tag).unwrap();
    (s, c)
}

#[test]
fn dup_of_sessions_comm_derives_locally() {
    // The exCID design point: derived communicators need no agreement
    // traffic and no new PGCID for up to 2^8 children per level.
    let out = run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "dup");
        let d = c.dup().unwrap();
        assert_eq!(d.cid_origin(), CidOrigin::Derived);
        // Parent PGCID is inherited; subfield 7 stamps the child.
        assert_eq!(d.excid().unwrap().pgcid, c.excid().unwrap().pgcid);
        assert_eq!(d.excid().unwrap().subfield(7), 1);
        let sum = coll::allreduce_t(&d, ReduceOp::Sum, &[1u32]).unwrap()[0];
        let excid = d.excid().unwrap();
        d.free().unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
        (excid, sum)
    });
    assert_eq!(out[0].1, 2);
    // Both ranks derived the same child exCID without communicating.
    assert_eq!(out[0].0, out[1].0);
}

#[test]
fn dup_chain_crosses_levels_and_stays_usable() {
    run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "chain");
        let mut cur = c.dup().unwrap();
        for depth in 0..6 {
            let next = cur.dup().unwrap();
            let sum = coll::allreduce_t(&next, ReduceOp::Sum, &[depth as u64]).unwrap()[0];
            assert_eq!(sum, 2 * depth as u64);
            cur.free().unwrap();
            cur = next;
        }
        cur.free().unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn deep_dup_chain_falls_back_to_new_pgcid() {
    // After 7 levels the active subfield hits 0; the 8th derivation must
    // fetch a fresh PGCID (paper §III-B3 exhaustion rule).
    run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "deep");
        let mut chain = vec![c];
        for _ in 0..7 {
            let next = chain.last().unwrap().dup().unwrap();
            assert_eq!(next.cid_origin(), CidOrigin::Derived);
            chain.push(next);
        }
        let eighth = chain.last().unwrap().dup().unwrap();
        assert_eq!(eighth.cid_origin(), CidOrigin::Pgcid, "depth-8 dup needs a new PGCID");
        assert_ne!(eighth.excid().unwrap().pgcid, chain[0].excid().unwrap().pgcid);
        coll::barrier(&eighth).unwrap();
        eighth.free().unwrap();
        for c in chain {
            c.free().unwrap();
        }
        s.finalize().unwrap();
    });
}

#[test]
fn exhaustion_fallback_is_counted_and_typed() {
    // Regression: both exhaustion modes of the derivation rules (depth =
    // active subfield hit 0, width = 255 children at one level) must be
    // *observable* — a counter bump plus an event naming the mode — not a
    // silent fallback, and never an 8-bit wrap that would alias children.
    use prrte::{JobSpec, Launcher};
    use simnet::SimTestbed;
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    let handle = launcher.spawn(JobSpec::new(2), |ctx| {
        let (s, c) = world_comm(&ctx, "exhaust");
        // Depth: walk the chain until the active subfield is 0, then dup.
        let mut chain = vec![c];
        for _ in 0..7 {
            chain.push(chain.last().unwrap().dup().unwrap());
        }
        let fallback = chain.last().unwrap().dup().unwrap();
        assert_eq!(fallback.cid_origin(), CidOrigin::Pgcid, "depth-8 dup refills");
        // Width: drain the refill block's 255 slots, then one more.
        let mut kids = Vec::new();
        for _ in 0..255 {
            let k = fallback.dup().unwrap();
            assert_eq!(k.cid_origin(), CidOrigin::Derived);
            kids.push(k);
        }
        let wide = fallback.dup().unwrap();
        assert_eq!(wide.cid_origin(), CidOrigin::Pgcid, "256th child refills");
        coll::barrier(&wide).unwrap();
        wide.free().unwrap();
        for k in kids {
            k.free().unwrap();
        }
        fallback.free().unwrap();
        for c in chain {
            c.free().unwrap();
        }
        s.finalize().unwrap();
    });
    handle.join().unwrap();
    let obs = launcher.universe().fabric().obs();
    // One depth + one width exhaustion per rank.
    assert_eq!(obs.sum_counters("cid", "subfield_exhausted"), 4);
    let evs = obs.events_named("cid.subfield_exhausted");
    let mut reasons: Vec<&str> =
        evs.iter().filter_map(|e| e.attr("reason").and_then(|v| v.as_str())).collect();
    reasons.sort();
    assert_eq!(reasons, vec!["depth", "depth", "width", "width"]);
}

#[test]
fn dup_via_group_always_acquires_pgcid() {
    // The prototype path measured in the paper's Fig. 4.
    let out = run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "dvg");
        let d1 = c.dup_via_group().unwrap();
        let d2 = c.dup_via_group().unwrap();
        assert_eq!(d1.cid_origin(), CidOrigin::Pgcid);
        let (p0, p1, p2) =
            (c.excid().unwrap().pgcid, d1.excid().unwrap().pgcid, d2.excid().unwrap().pgcid);
        assert_ne!(p0, p1);
        assert_ne!(p1, p2);
        coll::barrier(&d2).unwrap();
        d2.free().unwrap();
        d1.free().unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
        (p1, p2)
    });
    // PGCIDs agree across ranks.
    assert_eq!(out[0], out[1]);
}

#[test]
fn wpm_dup_uses_consensus_and_agrees() {
    let out = run(2, 2, 4, |ctx| {
        let world = mpi_sessions::world::init(&ctx).unwrap();
        let d = world.comm().dup().unwrap();
        assert_eq!(d.cid_origin(), CidOrigin::Consensus);
        assert!(d.excid().is_none());
        let sum = coll::allreduce_t(&d, ReduceOp::Sum, &[1i32]).unwrap()[0];
        let cid = d.local_cid();
        d.free().unwrap();
        world.finalize().unwrap();
        (cid, sum)
    });
    assert!(out.iter().all(|(_, s)| *s == 4));
    // The consensus CID is identical everywhere — that is its contract.
    let cid0 = out[0].0;
    assert!(out.iter().all(|(c, _)| *c == cid0));
}

#[test]
fn consensus_handles_fragmented_cid_space() {
    // Fragment the local table asymmetrically on one rank, then require
    // agreement: the consensus must still converge (on a higher index),
    // exactly the §III-B2 multi-round behavior.
    let out = run(1, 2, 2, |ctx| {
        let world = mpi_sessions::world::init(&ctx).unwrap();
        // Rank 1 burns local CIDs 2..6 via session comms (local-only claims).
        let s = Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
            .unwrap();
        let mut burners = Vec::new();
        if ctx.rank() == 1 {
            let g = s.group_from_pset("mpi://self").unwrap();
            for i in 0..5 {
                burners.push(Comm::create_from_group(&g, &format!("burn{i}")).unwrap());
            }
        }
        let rounds = world.comm().probe_consensus_rounds().unwrap();
        let d = world.comm().dup().unwrap();
        let cid = d.local_cid();
        let sum = coll::allreduce_t(&d, ReduceOp::Sum, &[1u32]).unwrap()[0];
        d.free().unwrap();
        for b in burners {
            b.free().unwrap();
        }
        s.finalize().unwrap();
        world.finalize().unwrap();
        (rounds, cid, sum)
    });
    assert_eq!(out[0].2, 2);
    assert_eq!(out[0].1, out[1].1, "consensus CIDs must agree");
    assert!(out[0].1 >= 7, "agreed CID must clear rank 1's burned slots");
    assert!(out[0].0 >= 2, "fragmentation should cost extra consensus rounds");
}

#[test]
fn split_by_parity() {
    let out = run(1, 4, 4, |ctx| {
        let (s, c) = world_comm(&ctx, "split");
        let color = ctx.rank() % 2;
        let sub = c.split(color, ctx.rank()).unwrap();
        assert_eq!(sub.size(), 2);
        let sum = coll::allreduce_t(&sub, ReduceOp::Sum, &[ctx.rank()]).unwrap()[0];
        sub.free().unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
        sum
    });
    assert_eq!(out, vec![2, 4, 2, 4]); // evens: 0+2, odds: 1+3
}

/// A sessions communicator's split takes the fresh-PGCID route: each half
/// gets its own PGCID, and once every rank has freed it the half's family
/// is recycled exactly once.
#[test]
fn split_of_sessions_comm_gets_and_recycles_fresh_pgcids() {
    use prrte::{JobSpec, Launcher};
    use simnet::SimTestbed;
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let out = launcher
        .spawn(JobSpec::new(4), |ctx| {
            let (s, c) = world_comm(&ctx, "split-pgcid");
            let sub = c.split(ctx.rank() % 2, ctx.rank()).unwrap();
            let origin = sub.cid_origin();
            let (parent, half) = (c.excid().unwrap().pgcid, sub.excid().unwrap().pgcid);
            sub.free().unwrap();
            c.free().unwrap();
            s.finalize().unwrap();
            (origin, parent, half)
        })
        .join()
        .unwrap();
    let parent = out[0].1;
    for (rank, &(origin, p, half)) in out.iter().enumerate() {
        assert_eq!(origin, CidOrigin::Pgcid, "rank {rank}");
        assert_eq!(p, parent, "rank {rank} agrees on the parent");
        assert_ne!(half, parent, "rank {rank}: a half gets a PGCID of its own");
        assert_eq!(half, out[rank % 2].2, "rank {rank} agrees with its half");
    }
    let (evens, odds) = (out[0].2, out[1].2);
    assert_ne!(evens, odds);
    // A release is one-way: read the recycled ids once every server
    // mailbox is drained.
    launcher.universe().shutdown();
    let obs = launcher.universe().fabric().obs();
    let recycled: Vec<u64> = obs
        .events_named("pgcid.recycled")
        .iter()
        .filter_map(|e| e.attr("pgcid").and_then(|v| v.as_u64()))
        .collect();
    for half in [evens, odds] {
        assert_eq!(recycled.iter().filter(|&&p| p == half).count(), 1, "{recycled:?}");
    }
    assert_eq!(obs.sum_counters("pmix", "pgcid_recycled"), 3, "parent + one per half");
}

#[test]
fn split_with_key_reorders_ranks() {
    let out = run(1, 3, 3, |ctx| {
        let (s, c) = world_comm(&ctx, "splitkey");
        // Reverse order via descending keys.
        let sub = c.split(0, 100 - ctx.rank()).unwrap();
        let r = sub.rank();
        sub.free().unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
        r
    });
    assert_eq!(out, vec![2, 1, 0]);
}

#[test]
fn create_group_partial_participation() {
    let out = run(1, 4, 4, |ctx| {
        let (s, c) = world_comm(&ctx, "cgrp");
        let res = if ctx.rank() < 2 {
            let sub = c.group().incl(&[0, 1]).unwrap();
            let gc = c.create_group(&sub, 7).unwrap();
            // Partial participation always takes a fresh identifier.
            assert_eq!(gc.cid_origin(), CidOrigin::Pgcid);
            let v = coll::allreduce_t(&gc, ReduceOp::Sum, &[10u32]).unwrap()[0];
            gc.free().unwrap();
            v
        } else {
            0
        };
        // Everyone still meets on the parent afterwards.
        coll::barrier(&c).unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
        res
    });
    assert_eq!(out, vec![20, 20, 0, 0]);
}

#[test]
fn create_group_on_wpm_uses_subgroup_consensus() {
    let out = run(1, 4, 4, |ctx| {
        let world = mpi_sessions::world::init(&ctx).unwrap();
        let res = if ctx.rank() % 2 == 0 {
            let sub = world.comm().group().incl(&[0, 2]).unwrap();
            let gc = world.comm().create_group(&sub, 3).unwrap();
            assert_eq!(gc.cid_origin(), CidOrigin::Consensus);
            let v = coll::allreduce_t(&gc, ReduceOp::Sum, &[5u32]).unwrap()[0];
            let cid = gc.local_cid();
            gc.free().unwrap();
            (v, cid)
        } else {
            (0, 0)
        };
        coll::barrier(world.comm()).unwrap();
        world.finalize().unwrap();
        res
    });
    assert_eq!(out[0].0, 10);
    assert_eq!(out[2].0, 10);
    assert_eq!(out[0].1, out[2].1, "subgroup consensus CIDs agree");
}

#[test]
fn freed_comm_rejects_operations() {
    run(1, 1, 1, |ctx| {
        let (s, c) = world_comm(&ctx, "freed");
        let c2 = c.clone();
        c.free().unwrap();
        assert!(c2.send(0, 0, b"x").is_err());
        assert!(c2.dup().is_err());
        s.finalize().unwrap();
    });
}

#[test]
fn local_cid_reuse_after_free() {
    run(1, 1, 1, |ctx| {
        let s = Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
            .unwrap();
        let g = s.group_from_pset("mpi://self").unwrap();
        let c1 = Comm::create_from_group(&g, "a").unwrap();
        let cid1 = c1.local_cid();
        c1.free().unwrap();
        let c2 = Comm::create_from_group(&g, "b").unwrap();
        // Lowest-free policy reuses the slot.
        assert_eq!(c2.local_cid(), cid1);
        c2.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn group_operations_on_comm_group() {
    run(1, 4, 4, |ctx| {
        let (s, c) = world_comm(&ctx, "gops");
        let g = c.group();
        assert_eq!(g.size(), 4);
        assert_eq!(g.rank_of(ctx.proc()), Some(ctx.rank() as usize));
        let evens = g.incl(&[0, 2]).unwrap();
        let odds = g.excl(&[0, 2]).unwrap();
        assert_eq!(evens.union(&odds).size(), 4);
        assert_eq!(evens.intersection(&odds).size(), 0);
        c.free().unwrap();
        s.finalize().unwrap();
    });
}
