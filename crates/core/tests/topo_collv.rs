//! The variable-count and prefix collectives.

mod common;

use common::run;
use mpi_sessions::{coll, Comm, ErrHandler, Info, ReduceOp, Session, ThreadLevel};

fn world_comm(ctx: &prrte::ProcCtx, tag: &str) -> (Session, Comm) {
    let s = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap();
    let g = s.group_from_pset("mpi://world").unwrap();
    let c = Comm::create_from_group(&g, tag).unwrap();
    (s, c)
}

#[test]
fn gatherv_variable_lengths() {
    let out = run(1, 3, 3, |ctx| {
        let (s, c) = world_comm(&ctx, "gv");
        // rank r contributes r+1 values.
        let mine: Vec<u32> = (0..=ctx.rank()).map(|i| ctx.rank() * 10 + i).collect();
        let got = coll::gatherv_t(&c, 2, &mine).unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
        got
    });
    assert!(out[0].is_none());
    let parts = out[2].clone().unwrap();
    assert_eq!(parts[0], vec![0]);
    assert_eq!(parts[1], vec![10, 11]);
    assert_eq!(parts[2], vec![20, 21, 22]);
}

#[test]
fn allgatherv_everyone_gets_everything() {
    let out = run(1, 3, 3, |ctx| {
        let (s, c) = world_comm(&ctx, "agv");
        let mine = vec![ctx.rank() as i64; (ctx.rank() + 1) as usize];
        let got = coll::allgatherv_t(&c, &mine).unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
        got
    });
    for rank_out in &out {
        assert_eq!(rank_out.len(), 3);
        assert_eq!(rank_out[0], vec![0]);
        assert_eq!(rank_out[1], vec![1, 1]);
        assert_eq!(rank_out[2], vec![2, 2, 2]);
    }
}

#[test]
fn exscan_exclusive_prefix() {
    let out = run(1, 4, 4, |ctx| {
        let (s, c) = world_comm(&ctx, "ex");
        let got = coll::exscan_t(&c, ReduceOp::Sum, &[ctx.rank() as i64 + 1]).unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
        got
    });
    assert_eq!(out[0], None);
    assert_eq!(out[1], Some(vec![1]));
    assert_eq!(out[2], Some(vec![3]));
    assert_eq!(out[3], Some(vec![6]));
}

#[test]
fn reduce_scatter_block_distributes_reduction() {
    let out = run(1, 2, 2, |ctx| {
        let (s, c) = world_comm(&ctx, "rsb");
        // Each rank contributes [r, r, r+10, r+10]; reduction = [1,1,21,21].
        let r = ctx.rank() as i64;
        let data = vec![r, r, r + 10, r + 10];
        let got = coll::reduce_scatter_block_t(&c, ReduceOp::Sum, &data).unwrap();
        c.free().unwrap();
        s.finalize().unwrap();
        got
    });
    assert_eq!(out[0], vec![1, 1]);
    assert_eq!(out[1], vec![21, 21]);
}
