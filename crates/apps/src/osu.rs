//! OSU-style microbenchmarks (init, latency, multiple bandwidth/message
//! rate), as modified by the paper's authors for MPI Sessions.

use crate::run::{Job, Run};
use crate::InitMode;
use mpi_sessions::{coll, Comm, ErrHandler, Session, ThreadLevel};
use prrte::ProcCtx;
use serde::{Deserialize, Serialize};
use simnet::SimTestbed;
use std::time::Instant;

/// One process's startup timing (the `osu_init` measurement plus the
/// per-phase breakdown discussed in §IV-C1).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct InitTiming {
    /// End-to-end initialization time in seconds.
    pub total_s: f64,
    /// Sessions only: time inside `MPI_Session_init` (MPI resource init).
    pub session_init_s: f64,
    /// Sessions only: time inside `MPI_Group_from_session_pset`.
    pub group_from_pset_s: f64,
    /// Sessions only: time inside `MPI_Comm_create_from_group`.
    pub comm_create_s: f64,
}

/// Launch a fresh job on `testbed` and measure initialization via `mode`:
/// each rank's [`InitTiming`], and through the [`Run`] the run's obs
/// export (per-process `session`/`instance` timing histograms, PMIx stage
/// counters, PML handshake counters, fabric traffic) and its span-DAG
/// trace (PRRTE fan-out, PMIx group-construction stages, PGCID round
/// trip, session init split, critical path).
///
/// Every call boots a fresh DVM + job, mirroring one `prun ./osu_init`
/// invocation.
pub fn osu_init(testbed: SimTestbed, np: u32, mode: InitMode) -> Run<InitTiming> {
    Job::new(testbed).run(np, move |ctx| match mode {
        InitMode::Wpm => {
            let t0 = Instant::now();
            let world = mpi_sessions::world::init(&ctx).expect("MPI_Init");
            let total = t0.elapsed();
            world.finalize().expect("MPI_Finalize");
            InitTiming { total_s: total.as_secs_f64(), ..Default::default() }
        }
        InitMode::Sessions | InitMode::Lazy => {
            let t0 = Instant::now();
            let session =
                Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &mode.session_info())
                    .expect("MPI_Session_init");
            let t1 = Instant::now();
            let group = session
                .group_from_pset(mpi_sessions::session::PSET_WORLD)
                .expect("MPI_Group_from_session_pset");
            let t2 = Instant::now();
            let comm =
                Comm::create_from_group(&group, "osu_init").expect("MPI_Comm_create_from_group");
            let t3 = Instant::now();
            comm.free().expect("MPI_Comm_free");
            session.finalize().expect("MPI_Session_finalize");
            InitTiming {
                total_s: (t3 - t0).as_secs_f64(),
                session_init_s: (t1 - t0).as_secs_f64(),
                group_from_pset_s: (t2 - t1).as_secs_f64(),
                comm_create_s: (t3 - t2).as_secs_f64(),
            }
        }
    })
}

impl Run<InitTiming> {
    /// The slowest rank's timing: what a user perceives as startup time.
    pub fn slowest(&self) -> InitTiming {
        let slowest = self.ranks.iter().max_by(|a, b| a.total_s.total_cmp(&b.total_s));
        slowest.copied().unwrap_or_default()
    }
}

/// Build the benchmark communicator for `mode` inside a running rank.
pub fn bench_comm(ctx: &ProcCtx, mode: InitMode, tag: &str) -> (Option<Session>, Comm) {
    match mode {
        InitMode::Wpm => {
            let world = mpi_sessions::world::init(ctx).expect("MPI_Init");
            // Hand out a dup so the caller owns an independent handle; keep
            // the world alive by leaking it into the comm's lifetime.
            // Simplest faithful shape: use comm_world duplicated by
            // consensus (what the unmodified benchmarks use).
            let comm = world.comm().dup_consensus().expect("dup");
            // The World object must outlive the benchmark; box and forget.
            std::mem::forget(world);
            (None, comm)
        }
        InitMode::Sessions | InitMode::Lazy => {
            let session =
                Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &mode.session_info())
                    .expect("session init");
            let group = session
                .group_from_pset(mpi_sessions::session::PSET_WORLD)
                .expect("group");
            let comm = Comm::create_from_group(&group, tag).expect("comm");
            (Some(session), comm)
        }
    }
}

/// Run `f` on the benchmark communicator for `mode` (see [`bench_comm`]),
/// then free the communicator and finalize the session.
pub fn with_bench_comm<R>(
    ctx: &ProcCtx,
    mode: InitMode,
    tag: &str,
    f: impl FnOnce(&Comm) -> R,
) -> R {
    let (session, comm) = bench_comm(ctx, mode, tag);
    let out = f(&comm);
    comm.free().expect("free");
    if let Some(s) = session {
        s.finalize().expect("finalize");
    }
    out
}

/// One `osu_latency` sample.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LatencySample {
    /// Message size in bytes.
    pub size: usize,
    /// Half round-trip latency in microseconds.
    pub usec: f64,
}

/// Ping-pong latency between comm ranks 0 and 1 (`osu_latency` core loop).
/// Call from every rank; ranks other than 0/1 idle. Returns samples on
/// rank 0, empty elsewhere.
pub fn osu_latency(
    comm: &Comm,
    sizes: &[usize],
    warmup: usize,
    iters: usize,
) -> Vec<LatencySample> {
    let me = comm.rank();
    let mut out = Vec::new();
    for &size in sizes {
        let payload = vec![0x42u8; size];
        if me == 0 {
            for _ in 0..warmup {
                comm.send(1, 1, &payload).unwrap();
                let _ = comm.recv(1, 1).unwrap();
            }
            let t0 = Instant::now();
            for _ in 0..iters {
                comm.send(1, 1, &payload).unwrap();
                let _ = comm.recv(1, 1).unwrap();
            }
            let elapsed = t0.elapsed();
            out.push(LatencySample {
                size,
                usec: elapsed.as_secs_f64() * 1e6 / (2.0 * iters as f64),
            });
        } else if me == 1 {
            for _ in 0..(warmup + iters) {
                let _ = comm.recv(0, 1).unwrap();
                comm.send(0, 1, &payload).unwrap();
            }
        }
        coll::barrier(comm).unwrap();
    }
    out
}

/// One `osu_mbw_mr` sample.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MbwSample {
    /// Message size in bytes.
    pub size: usize,
    /// Aggregate bandwidth in MB/s.
    pub mb_per_s: f64,
    /// Aggregate message rate in messages/s.
    pub msg_per_s: f64,
}

/// The `osu_mbw_mr` core: the first half of the ranks send a window of
/// messages to their pair in the second half, which ACKs each window.
///
/// Faithfully reproduces the structure the paper discusses:
/// an `MPI_Barrier` precedes the timing loop. With one pair that barrier
/// completes the exCID→local-CID switch before timing; with many pairs it
/// does not, and early in-loop sends still carry the extended header
/// (Fig. 5c). `presync` adds the per-pair sendrecv the authors used to
/// equalize the two init modes.
///
/// The `warmup` windows are timed: the clock starts at the barrier and
/// the rates count `warmup + iters` windows.
pub fn osu_mbw_mr(
    comm: &Comm,
    sizes: &[usize],
    window: usize,
    warmup: usize,
    iters: usize,
    presync: bool,
) -> Vec<MbwSample> {
    let n = comm.size();
    assert!(n >= 2 && n.is_multiple_of(2), "osu_mbw_mr needs an even process count");
    let pairs = n / 2;
    let me = comm.rank();
    let sender = me < pairs;
    let peer = if sender { me + pairs } else { me - pairs };
    let mut out = Vec::new();

    if presync {
        // Per-pair synchronization that forces the first-message handshake
        // to finish before any timing.
        let _ = comm.sendrecv(peer, 900, b"sync", peer as i32, 900).unwrap();
    }

    for &size in sizes {
        let payload = vec![0xa5u8; size];
        // The benchmark's structure: a barrier, then the timing loop.
        coll::barrier(comm).unwrap();
        let t0 = Instant::now();
        for _ in 0..(warmup + iters) {
            if sender {
                let mut reqs = Vec::with_capacity(window);
                for _ in 0..window {
                    reqs.push(comm.isend(peer, 2, &payload).unwrap());
                }
                mpi_sessions::Request::wait_all(reqs).unwrap();
                let _ = comm.recv(peer as i32, 3).unwrap();
            } else {
                let mut reqs = Vec::with_capacity(window);
                for _ in 0..window {
                    reqs.push(comm.irecv(peer as i32, 2).unwrap());
                }
                for r in reqs {
                    r.wait().unwrap();
                }
                comm.send(peer, 3, b"ack").unwrap();
            }
        }
        let elapsed = t0.elapsed();
        coll::barrier(comm).unwrap();
        if me == 0 {
            let total_iters = warmup + iters;
            let msgs = (pairs as f64) * (total_iters * window) as f64;
            let secs = elapsed.as_secs_f64();
            out.push(MbwSample {
                size,
                mb_per_s: msgs * size as f64 / secs / 1e6,
                msg_per_s: msgs / secs,
            });
        }
    }
    out
}

/// Standard OSU size sweep: powers of two from 1 byte to `max`.
pub fn size_sweep(max: usize) -> Vec<usize> {
    let mut sizes = vec![1usize];
    while *sizes.last().unwrap() < max {
        sizes.push(sizes.last().unwrap() * 2);
    }
    sizes
}

/// A full latency run on a fresh 2-process on-node job; rank 0 holds the
/// samples.
pub fn run_latency_job(
    testbed: SimTestbed,
    mode: InitMode,
    sizes: Vec<usize>,
    warmup: usize,
    iters: usize,
) -> Run<Vec<LatencySample>> {
    Job::new(testbed).run(2, move |ctx| {
        with_bench_comm(&ctx, mode, "osu_latency", |comm| osu_latency(comm, &sizes, warmup, iters))
    })
}

/// A full mbw_mr run on a fresh on-node job of `np` processes; rank 0
/// holds the samples, and the [`Run`]'s export and trace show the PML
/// eager/extended-header split and the exCID handshake spans behind the
/// Fig. 5c switchover story.
#[allow(clippy::too_many_arguments)]
pub fn run_mbw_job(
    testbed: SimTestbed,
    mode: InitMode,
    np: u32,
    sizes: Vec<usize>,
    window: usize,
    warmup: usize,
    iters: usize,
    presync: bool,
) -> Run<Vec<MbwSample>> {
    Job::new(testbed).run(np, move |ctx| {
        with_bench_comm(&ctx, mode, "osu_mbw_mr", |comm| {
            osu_mbw_mr(comm, &sizes, window, warmup, iters, presync)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_is_powers_of_two() {
        assert_eq!(size_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(size_sweep(1)[0], 1);
    }

    #[test]
    fn osu_init_both_modes_report_positive_times() {
        let wpm = osu_init(SimTestbed::tiny(2, 2), 4, InitMode::Wpm).slowest();
        assert!(wpm.total_s > 0.0);
        assert_eq!(wpm.session_init_s, 0.0);
        let sess = osu_init(SimTestbed::tiny(2, 2), 4, InitMode::Sessions).slowest();
        assert!(sess.total_s > 0.0);
        assert!(sess.comm_create_s > 0.0);
        // Breakdown sums to the total (within float noise).
        let parts = sess.session_init_s + sess.group_from_pset_s + sess.comm_create_s;
        assert!((parts - sess.total_s).abs() < 1e-6);
    }

    #[test]
    fn latency_run_produces_monotone_sizes() {
        let samples = run_latency_job(
            SimTestbed::tiny(1, 2),
            InitMode::Sessions,
            vec![1, 64, 1024],
            2,
            10,
        )
        .ranks
        .swap_remove(0);
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|s| s.usec > 0.0));
    }

    #[test]
    fn mbw_run_counts_all_pairs() {
        let samples = run_mbw_job(
            SimTestbed::tiny(1, 4),
            InitMode::Wpm,
            4,
            vec![64],
            8,
            1,
            5,
            false,
        )
        .ranks
        .swap_remove(0);
        assert_eq!(samples.len(), 1);
        assert!(samples[0].msg_per_s > 0.0);
        assert!(samples[0].mb_per_s > 0.0);
    }

    #[test]
    fn mbw_presync_runs_with_sessions() {
        let samples = run_mbw_job(
            SimTestbed::tiny(1, 4),
            InitMode::Sessions,
            4,
            vec![16],
            4,
            1,
            5,
            true,
        )
        .ranks
        .swap_remove(0);
        assert_eq!(samples.len(), 1);
    }
}
