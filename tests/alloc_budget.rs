//! Allocation budget of the sessions lifecycle (the `session_churn` op:
//! session init, group from pset, communicator from group, derived dup,
//! PGCID dup, first allreduce, three frees, finalize) on a warm np = 2
//! universe. A counting global allocator tallies every heap allocation of
//! the process (`alloc`, `alloc_zeroed`, `realloc`) and, per thread, the
//! ones each rank makes in each step — PMIx servers have no threads, so a
//! rank's count includes the server work its frames drive.
//!
//! Two states are measured, because most ops of a long run see the second:
//! with room in the obs span buffer, and with the buffer full (every span
//! started from then on is dropped). Each has a committed ceiling. The test
//! prints the per-step table (`cargo test --release --test alloc_budget --
//! --nocapture`).
//!
//! This file is its own test binary: the counter is process-wide, so no
//! other test may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mpi_sessions_repro::mpi::session::PSET_WORLD;
use mpi_sessions_repro::mpi::{coll, Comm, ErrHandler, Info, ReduceOp, Session, ThreadLevel};
use mpi_sessions_repro::prrte::{JobSpec, Launcher, ProcCtx};
use mpi_sessions_repro::simnet::SimTestbed;

mod common;
use common::Gate;

struct Counting;

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MINE: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let _ = MINE.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn mine() -> u64 {
    MINE.with(Cell::get)
}

/// The steps of one op, in order.
const STEPS: [&str; 8] = [
    "session.init",
    "group_from_pset",
    "comm.create_from_group",
    "comm.dup (derived)",
    "comm.dup_via_group (PGCID)",
    "allreduce (first)",
    "comm.free x3",
    "session.finalize",
];

/// Ops per measured state, and warm-up ops before each.
const OPS: u64 = 200;
const WARM: u64 = 20;

/// Ceilings, in allocations per op (both ranks and every server they
/// drive), about 10 % above the measured values (release and debug agree):
/// 449.0 per op with room in the span buffer, 370.1 with it full — against
/// 1 153 in both states while the obs registry still built strings on its
/// hot paths.
const CEILING_ROOM: f64 = 495.0;
const CEILING_FULL: f64 = 410.0;

/// Run ops `from..to`, adding this thread's allocations per step to `steps`.
fn churn(ctx: &ProcCtx, from: u64, to: u64, steps: &mut [u64; STEPS.len()]) {
    for i in from..to {
        let mut at = mine();
        let mut lap = |k: usize| {
            let now = mine();
            steps[k] += now - at;
            at = now;
        };
        let session =
            Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap();
        lap(0);
        let group = session.group_from_pset(PSET_WORLD).unwrap();
        lap(1);
        let comm = Comm::create_from_group(&group, &format!("churn-{i}")).unwrap();
        lap(2);
        let derived = comm.dup().unwrap();
        lap(3);
        let fresh = comm.dup_via_group().unwrap();
        lap(4);
        let sum = coll::allreduce_t(&fresh, ReduceOp::Sum, &[i + u64::from(ctx.rank())]).unwrap();
        assert_eq!(sum, [2 * i + 1]);
        lap(5);
        fresh.free().unwrap();
        derived.free().unwrap();
        comm.free().unwrap();
        lap(6);
        session.finalize().unwrap();
        lap(7);
    }
}

/// Per-op allocations of one state: process-wide, and per step (summed
/// over both ranks' threads).
struct State {
    per_op: f64,
    steps: [f64; STEPS.len()],
}

fn measure_both_states() -> (State, State, u64) {
    let gate = Gate::new(2);
    let launcher = Launcher::new(SimTestbed::tiny(2, 1));
    let per_rank = launcher
        .spawn(JobSpec::new(2), move |ctx| {
            let barrier = gate.pass();
            let obs = ctx.universe().fabric().obs();
            let lead = ctx.rank() == 0;
            let mut totals = [0u64; 2];
            let mut steps = [[0u64; STEPS.len()]; 2];
            for (state, base) in [0, OPS + WARM].into_iter().enumerate() {
                if state == 1 && lead {
                    // Fill the span buffer: every span started from here
                    // on is dropped.
                    for _ in 0..obs.span_capacity() {
                        obs.span("alloc_budget", "fill", "").end();
                    }
                }
                churn(&ctx, base, base + WARM, &mut [0; STEPS.len()]);
                barrier.wait();
                let start = TOTAL.load(Ordering::Relaxed);
                barrier.wait();
                churn(&ctx, base + WARM, base + WARM + OPS, &mut steps[state]);
                barrier.wait();
                totals[state] = TOTAL.load(Ordering::Relaxed) - start;
                barrier.wait();
            }
            (totals, steps, obs.spans_dropped())
        })
        .join()
        .unwrap();
    let (totals, _, dropped) = per_rank[0];
    let state = |s: usize| State {
        per_op: totals[s] as f64 / OPS as f64,
        steps: std::array::from_fn(|k| {
            per_rank.iter().map(|(_, steps, _)| steps[s][k]).sum::<u64>() as f64 / OPS as f64
        }),
    };
    (state(0), state(1), dropped)
}

#[test]
fn session_churn_allocations_per_op_stay_under_budget() {
    let (room, full, dropped) = measure_both_states();
    println!("allocations per session_churn op (both ranks):");
    println!("  {:<28} {:>10} {:>10}", "step", "room", "full");
    for (k, name) in STEPS.iter().enumerate() {
        println!("  {name:<28} {:>10.1} {:>10.1}", room.steps[k], full.steps[k]);
    }
    println!("  {:<28} {:>10.1} {:>10.1}", "process-wide", room.per_op, full.per_op);
    assert!(dropped > 0, "the second state never ran with a full span buffer");
    assert!(
        room.per_op <= CEILING_ROOM,
        "{:.1} allocations per op with room in the span buffer, ceiling {CEILING_ROOM}",
        room.per_op
    );
    assert!(
        full.per_op <= CEILING_FULL,
        "{:.1} allocations per op with the span buffer full, ceiling {CEILING_FULL}",
        full.per_op
    );
}
