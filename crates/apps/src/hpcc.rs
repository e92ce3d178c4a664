//! HPC Challenge bandwidth/latency test: 8-byte natural- and random-order
//! ring latency (the measurements of the paper's Fig. 6).
//!
//! The sessions variant mirrors the authors' modification of HPCC 1.5.0:
//! rather than replacing `MPI_Init`/`MPI_Finalize` in `main()`, the
//! `main_bench_lat_bw` routine *creates its own MPI session* and runs the
//! ring test on the resulting communicator — demonstrating
//! compartmentalized, backwards-compatible adoption of Sessions inside one
//! component of an application.

use crate::run::Job;
use crate::InitMode;
use mpi_sessions::{coll, Comm, ErrHandler, Session, ThreadLevel};
use prrte::ProcCtx;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simnet::SimTestbed;
use std::time::Instant;

/// Ring ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RingOrder {
    /// Ranks in natural order 0,1,2,...
    Natural,
    /// Ranks in a (seeded) random permutation, as HPCC's random ring.
    Random,
}

/// Result of one ring-latency measurement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RingResult {
    /// Ring ordering measured.
    pub order: RingOrder,
    /// Which initialization path built the communicator.
    pub mode: InitMode,
    /// Process count.
    pub np: u32,
    /// Average per-hop 8-byte latency in microseconds.
    pub usec: f64,
}

/// The 8-byte ring latency kernel: every process sendrecvs with its ring
/// neighbors for `iters` iterations; reports the average time per
/// iteration (one simultaneous hop around the ring), in µs.
pub fn ring_latency(comm: &Comm, order: RingOrder, warmup: usize, iters: usize, seed: u64) -> f64 {
    let n = comm.size();
    let me = comm.rank();
    // Build the ring ordering (identical on every rank: same seed).
    let position_of: Vec<u32> = match order {
        RingOrder::Natural => (0..n).collect(),
        RingOrder::Random => {
            let mut perm: Vec<u32> = (0..n).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            perm.shuffle(&mut rng);
            perm
        }
    };
    // position_of[i] = rank sitting at ring slot i.
    let my_slot = position_of.iter().position(|r| *r == me).expect("in ring") as u32;
    let left = position_of[((my_slot + n - 1) % n) as usize];
    let right = position_of[((my_slot + 1) % n) as usize];

    let payload = [0u8; 8];
    let run = |count: usize| -> f64 {
        let t0 = Instant::now();
        for _ in 0..count {
            if n == 1 {
                continue;
            }
            // Send right, receive from left (HPCC's ring pattern).
            let _ = comm.sendrecv(right, 11, &payload, left as i32, 11).unwrap();
        }
        t0.elapsed().as_secs_f64()
    };
    let _ = run(warmup);
    coll::barrier(comm).unwrap();
    let secs = run(iters.max(1));
    coll::barrier(comm).unwrap();
    secs * 1e6 / iters.max(1) as f64
}

/// Full HPCC-style run: launches a job, initializes per `mode`, measures
/// both ring orders. Returns rank 0's view.
pub fn run_hpcc_rings(
    testbed: SimTestbed,
    np: u32,
    mode: InitMode,
    warmup: usize,
    iters: usize,
) -> Vec<RingResult> {
    let mut run = Job::new(testbed).run(np, move |ctx| hpcc_rank_body(&ctx, mode, warmup, iters));
    run.ranks.swap_remove(0)
}

fn hpcc_rank_body(ctx: &ProcCtx, mode: InitMode, warmup: usize, iters: usize) -> Vec<RingResult> {
    let np = ctx.size();
    let rings = |comm: &Comm| -> Vec<RingResult> {
        [RingOrder::Natural, RingOrder::Random]
            .into_iter()
            .map(|order| {
                let usec = ring_latency(comm, order, warmup, iters, 42);
                RingResult { order, mode, np, usec }
            })
            .collect()
    };
    // The application does its normal WPM init either way...
    let world = mpi_sessions::world::init(ctx).expect("MPI_Init");
    let out = match mode {
        InitMode::Wpm => rings(world.comm()),
        InitMode::Sessions | InitMode::Lazy => {
            // ...but in the sessions variant the bandwidth/latency component
            // opens its own session and uses a sessions-derived communicator
            // (the paper's change to main_bench_lat_bw).
            let session =
                Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &mode.session_info())
                    .expect("session");
            let group = session
                .group_from_pset(mpi_sessions::session::PSET_WORLD)
                .expect("group");
            let comm = Comm::create_from_group(&group, "hpcc-latbw").expect("comm");
            let out = rings(&comm);
            comm.free().expect("free");
            session.finalize().expect("session fini");
            out
        }
    };
    world.finalize().expect("MPI_Finalize");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_and_random_rings_run_both_modes() {
        for mode in [InitMode::Wpm, InitMode::Sessions] {
            let res = run_hpcc_rings(SimTestbed::tiny(2, 2), 4, mode, 2, 10);
            assert_eq!(res.len(), 2);
            assert_eq!(res[0].order, RingOrder::Natural);
            assert_eq!(res[1].order, RingOrder::Random);
            assert!(res.iter().all(|r| r.usec > 0.0));
        }
    }

    #[test]
    fn single_process_ring_degenerates_gracefully() {
        let res = run_hpcc_rings(SimTestbed::tiny(1, 1), 1, InitMode::Wpm, 1, 5);
        assert_eq!(res.len(), 2);
    }
}
