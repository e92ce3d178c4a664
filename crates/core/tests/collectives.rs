//! Collective correctness across communicator sizes and both CID regimes.

mod common;

use common::{await_state, run};
use mpi_sessions::{coll, Comm, ErrHandler, Info, ReduceOp, Session, ThreadLevel};

fn world_comm(ctx: &prrte::ProcCtx, tag: &str) -> (Session, Comm) {
    let s = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap();
    let g = s.group_from_pset("mpi://world").unwrap();
    let c = Comm::create_from_group(&g, tag).unwrap();
    (s, c)
}

fn with_sizes(sizes: &[u32], f: impl Fn(&Comm, u32, u32) + Send + Sync + Copy + 'static) {
    for &n in sizes {
        let nodes = if n >= 4 { 2 } else { 1 };
        let slots = n.div_ceil(nodes);
        run(nodes, slots, n, move |ctx| {
            let (s, c) = world_comm(&ctx, "coll");
            f(&c, ctx.rank(), n);
            c.free().unwrap();
            s.finalize().unwrap();
        });
    }
}

#[test]
fn barrier_all_sizes() {
    with_sizes(&[1, 2, 3, 4, 5, 8], |c, _, _| {
        for _ in 0..3 {
            coll::barrier(c).unwrap();
        }
    });
}

#[test]
fn bcast_all_sizes_and_roots() {
    with_sizes(&[1, 2, 3, 5, 8], |c, me, n| {
        for root in 0..n {
            let data: Vec<i64> = if me == root { vec![root as i64, 42] } else { vec![] };
            let got = coll::bcast_t(c, root, &data).unwrap();
            assert_eq!(got, vec![root as i64, 42]);
        }
    });
}

#[test]
fn reduce_sum_and_max() {
    with_sizes(&[2, 3, 4, 7], |c, me, n| {
        let out = coll::reduce_t(c, 0, ReduceOp::Sum, &[me as i64, 1]).unwrap();
        if me == 0 {
            let expect = (n as i64 - 1) * n as i64 / 2;
            assert_eq!(out.unwrap(), vec![expect, n as i64]);
        } else {
            assert!(out.is_none());
        }
        let out = coll::reduce_t(c, n - 1, ReduceOp::Max, &[me as i64]).unwrap();
        if me == n - 1 {
            assert_eq!(out.unwrap(), vec![n as i64 - 1]);
        }
    });
}

#[test]
fn allreduce_everyone_agrees() {
    with_sizes(&[1, 2, 4, 6], |c, me, n| {
        let got = coll::allreduce_t(c, ReduceOp::Sum, &[me as u64 + 1]).unwrap();
        assert_eq!(got[0], (n as u64) * (n as u64 + 1) / 2);
        let got = coll::allreduce_t(c, ReduceOp::Min, &[me as u64 + 10]).unwrap();
        assert_eq!(got[0], 10);
    });
}

#[test]
fn allgather_concatenates_in_rank_order() {
    with_sizes(&[1, 2, 4, 5], |c, me, n| {
        let got = coll::allgather_t(c, &[me * 10, me * 10 + 1]).unwrap();
        let expect: Vec<u32> = (0..n).flat_map(|r| [r * 10, r * 10 + 1]).collect();
        assert_eq!(got, expect);
    });
}

#[test]
fn gather_scatter_roundtrip() {
    with_sizes(&[2, 4], |c, me, n| {
        let gathered = coll::gather_t(c, 0, &[me as i32]).unwrap();
        let scattered = if me == 0 {
            let all = gathered.unwrap();
            assert_eq!(all, (0..n as i32).collect::<Vec<_>>());
            let doubled: Vec<i32> = all.iter().map(|x| x * 2).collect();
            coll::scatter_t(c, 0, Some(&doubled)).unwrap()
        } else {
            assert!(gathered.is_none());
            coll::scatter_t(c, 0, None).unwrap()
        };
        assert_eq!(scattered, vec![me as i32 * 2]);
    });
}

#[test]
fn alltoall_transposes() {
    with_sizes(&[2, 3, 4], |c, me, n| {
        // data[j] = me*n + j ; after alltoall, slot j holds j*n + me.
        let data: Vec<u32> = (0..n).map(|j| me * n + j).collect();
        let got = coll::alltoall_t(c, &data).unwrap();
        let expect: Vec<u32> = (0..n).map(|j| j * n + me).collect();
        assert_eq!(got, expect);
    });
}

#[test]
fn scan_inclusive_prefix() {
    with_sizes(&[1, 2, 4, 6], |c, me, _| {
        let got = coll::scan_t(c, ReduceOp::Sum, &[me as i64 + 1]).unwrap();
        let expect = ((me as i64 + 1) * (me as i64 + 2)) / 2;
        assert_eq!(got[0], expect);
    });
}

#[test]
fn ibarrier_completes_via_test_polling() {
    let entered = std::sync::Barrier::new(4);
    run(1, 4, 4, move |ctx| {
        let (s, c) = world_comm(&ctx, "ib");
        // The last rank enters only after the others have issued theirs and
        // seen it incomplete, so test() must poll a while on early ranks.
        let last = ctx.rank() == 3;
        if last {
            entered.wait();
        }
        let mut req = coll::ibarrier(&c).unwrap();
        if !last {
            assert!(!req.test().unwrap(), "the barrier completed without the last rank");
            entered.wait();
        }
        await_state(|| req.test().unwrap());
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn ibarrier_wait_blocks_until_everyone_enters() {
    run(1, 3, 3, |ctx| {
        let (s, c) = world_comm(&ctx, "ibw");
        let req = coll::ibarrier(&c).unwrap();
        req.wait().unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn collectives_work_on_consensus_comms_too() {
    // Same collectives over a WPM (consensus-CID) communicator.
    run(2, 2, 4, |ctx| {
        let world = mpi_sessions::world::init(&ctx).unwrap();
        let c = world.comm();
        let me = ctx.rank();
        let sum = coll::allreduce_t(c, ReduceOp::Sum, &[me as i64]).unwrap();
        assert_eq!(sum[0], 6);
        let got = coll::bcast_t(c, 2, &if me == 2 { vec![9u32] } else { vec![] }).unwrap();
        assert_eq!(got, vec![9]);
        coll::barrier(c).unwrap();
        world.finalize().unwrap();
    });
}

#[test]
fn back_to_back_collectives_do_not_cross_talk() {
    run(1, 4, 4, |ctx| {
        let (s, c) = world_comm(&ctx, "b2b");
        for i in 0..20u64 {
            let got = coll::allreduce_t(&c, ReduceOp::Sum, &[i]).unwrap();
            assert_eq!(got[0], i * 4);
        }
        c.free().unwrap();
        s.finalize().unwrap();
    });
}

#[test]
fn large_payload_collectives_use_rendezvous() {
    run(1, 3, 3, |ctx| {
        let (s, c) = world_comm(&ctx, "big");
        let data = vec![ctx.rank() as u64; 50_000]; // 400 KB > eager limit
        let got = coll::allreduce_t(&c, ReduceOp::Sum, &data).unwrap();
        assert!(got.iter().all(|v| *v == 3));
        c.free().unwrap();
        s.finalize().unwrap();
    });
}
