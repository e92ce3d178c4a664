//! mini-2MESH: a miniature of the LANL multi-physics application used in
//! the paper's §IV-E.
//!
//! 2MESH couples two libraries: **L0** simulates one physics MPI-everywhere
//! (every process computes; halo exchange + reductions), interleaved with
//! **L1**, an MPI+OpenMP physics on a separate mesh (a subset of processes
//! host threads while the rest quiesce). Task schedules are reconfigured
//! between phases through QUO; the quiescence primitive is `QUO_barrier`.
//!
//! Here L0 is a 1-D three-point stencil with halo sendrecv and a residual
//! allreduce; L1 elects `workers_per_node` thread hosts via
//! `QUO_auto_distrib`, each spinning up `threads_per_worker` compute
//! threads, while non-workers sit in `QUO_barrier`. The Baseline/Sessions
//! switch is exactly the paper's: the QUO backend (native shared-memory
//! quiescence vs. sessions-aware ibarrier+nanosleep).

use crate::run::Job;
use mpi_sessions::{coll, Comm, ReduceOp};
use prrte::ProcCtx;
use quo::{Quo, QuoBackend};
use serde::{Deserialize, Serialize};
use simnet::SimTestbed;
use std::time::{Duration, Instant};

/// Problem configuration (the paper's P1/P2/P3 are instances of this).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mesh2Config {
    /// Cells per process in the L0 strip.
    pub cells_per_rank: usize,
    /// L0 stencil iterations per phase.
    pub l0_iters: usize,
    /// L1 thread-compute units per phase.
    pub l1_iters: usize,
    /// Number of L0/L1 phase pairs.
    pub phases: usize,
    /// Thread hosts per node during L1.
    pub workers_per_node: u32,
    /// Threads each worker spawns during L1.
    pub threads_per_worker: u32,
}

impl Mesh2Config {
    /// A problem sized for CI-scale runs.
    pub fn small() -> Self {
        Self {
            cells_per_rank: 2048,
            l0_iters: 10,
            l1_iters: 4,
            phases: 3,
            workers_per_node: 1,
            threads_per_worker: 4,
        }
    }
}

/// Per-rank outcome of a mini-2MESH run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Mesh2Result {
    /// Wall-clock seconds for the whole run.
    pub elapsed_s: f64,
    /// Final residual (identical on every rank — correctness check).
    pub residual: f64,
}

/// L0: MPI-everywhere stencil phase over `comm`.
fn l0_phase(comm: &Comm, field: &mut [f64], iters: usize) -> f64 {
    let n = comm.size();
    let me = comm.rank();
    let left = if me == 0 { None } else { Some(me - 1) };
    let right = if me + 1 == n { None } else { Some(me + 1) };
    let mut residual = 0.0;
    let len = field.len();
    for _ in 0..iters {
        // Halo exchange (two independent sendrecvs; boundaries reflect).
        let left_halo = if let Some(l) = left {
            let (data, _) = comm
                .sendrecv(l, 21, &field[0].to_le_bytes(), l as i32, 22)
                .unwrap();
            f64::from_le_bytes(data[..8].try_into().unwrap())
        } else {
            field[0]
        };
        let right_halo = if let Some(r) = right {
            let (data, _) = comm
                .sendrecv(r, 22, &field[len - 1].to_le_bytes(), r as i32, 21)
                .unwrap();
            f64::from_le_bytes(data[..8].try_into().unwrap())
        } else {
            field[len - 1]
        };
        // 3-point Jacobi smoothing sweep.
        let mut next = vec![0.0f64; len];
        let mut local_res = 0.0f64;
        for i in 0..len {
            let l = if i == 0 { left_halo } else { field[i - 1] };
            let r = if i + 1 == len { right_halo } else { field[i + 1] };
            next[i] = 0.5 * field[i] + 0.25 * (l + r);
            local_res += (next[i] - field[i]).abs();
        }
        field.copy_from_slice(&next);
        // Global residual.
        residual = coll::allreduce_t(comm, ReduceOp::Sum, &[local_res]).unwrap()[0];
    }
    residual
}

/// L1: MPI+threads phase. Workers compute with `threads` threads; everyone
/// meets in `QUO_barrier` at phase boundaries (non-workers quiesce there).
fn l1_phase(quo: &Quo, cfg: &Mesh2Config) -> f64 {
    let mut local = 0.0f64;
    if quo.auto_distrib(cfg.workers_per_node) {
        quo.bind_push("OBJ_SOCKET");
        let mut handles = Vec::new();
        for t in 0..cfg.threads_per_worker {
            let work_units = cfg.l1_iters;
            handles.push(std::thread::spawn(move || {
                // CPU-ish kernel per thread (deterministic).
                let mut acc = 0.0f64;
                for u in 0..work_units {
                    let mut x = 1.0f64 + t as f64 + u as f64;
                    for _ in 0..20_000 {
                        x = (x * 1.000001).sqrt() + 0.5;
                    }
                    acc += x;
                }
                acc
            }));
        }
        for h in handles {
            local += h.join().expect("L1 worker thread");
        }
        quo.bind_pop();
    }
    // Quiesce: workers and non-workers re-join here.
    quo.barrier().expect("QUO_barrier");
    local
}

/// Run the coupled application on an already-initialized rank.
///
/// The application initializes MPI via `MPI_Init_thread` (WPM); only the
/// QUO layer differs between Baseline (native) and Sessions, exactly like
/// the paper's two 2MESH executables.
pub fn mesh2_rank_body(ctx: &ProcCtx, cfg: &Mesh2Config, backend: QuoBackend) -> Mesh2Result {
    let world = mpi_sessions::world::init_thread(ctx, mpi_sessions::ThreadLevel::Funneled)
        .expect("MPI_Init_thread");
    let quo = Quo::create(ctx, backend).expect("QUO_create");
    let comm = world.comm();

    let mut field: Vec<f64> = (0..cfg.cells_per_rank)
        .map(|i| ((ctx.rank() as usize * cfg.cells_per_rank + i) % 17) as f64)
        .collect();

    let t0 = Instant::now();
    let mut residual = 0.0;
    for _phase in 0..cfg.phases {
        residual = l0_phase(comm, &mut field, cfg.l0_iters);
        let _ = l1_phase(&quo, cfg);
    }
    coll::barrier(comm).unwrap();
    let elapsed = t0.elapsed();

    quo.free().expect("QUO_free");
    world.finalize().expect("MPI_Finalize");
    Mesh2Result { elapsed_s: elapsed.as_secs_f64(), residual }
}

/// Launch a full mini-2MESH job; returns the slowest rank's time and the
/// agreed residual.
pub fn run_mesh2(
    testbed: SimTestbed,
    np: u32,
    cfg: Mesh2Config,
    backend: QuoBackend,
) -> Mesh2Result {
    let results = Job::new(testbed).run(np, move |ctx| mesh2_rank_body(&ctx, &cfg, backend)).ranks;
    let residual = results[0].residual;
    for r in &results {
        assert!(
            (r.residual - residual).abs() <= residual.abs() * 1e-12 + 1e-12,
            "ranks disagree on the residual"
        );
    }
    let slowest = results
        .iter()
        .map(|r| r.elapsed_s)
        .fold(0.0f64, f64::max);
    Mesh2Result { elapsed_s: slowest, residual }
}

/// Repeat a run `reps` times and keep the median wall time (the paper
/// reports averaged wall-clock times; the median is steadier on a noisy
/// shared host).
pub fn run_mesh2_median(
    testbed: SimTestbed,
    np: u32,
    cfg: Mesh2Config,
    backend: QuoBackend,
    reps: usize,
) -> Mesh2Result {
    let mut runs: Vec<Mesh2Result> = (0..reps.max(1))
        .map(|_| run_mesh2(testbed.clone(), np, cfg.clone(), backend))
        .collect();
    runs.sort_by(|a, b| a.elapsed_s.total_cmp(&b.elapsed_s));
    runs[runs.len() / 2]
}

/// Pause between phases used by some tests to surface quiescence cost.
pub const PHASE_GAP: Duration = Duration::from_millis(1);

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Mesh2Config {
        Mesh2Config {
            cells_per_rank: 64,
            l0_iters: 3,
            l1_iters: 1,
            phases: 2,
            workers_per_node: 1,
            threads_per_worker: 2,
        }
    }

    #[test]
    fn baseline_and_sessions_agree_on_physics() {
        let base = run_mesh2(SimTestbed::tiny(2, 2), 4, tiny_cfg(), QuoBackend::Native);
        let sess = run_mesh2(SimTestbed::tiny(2, 2), 4, tiny_cfg(), QuoBackend::Sessions);
        assert!(base.elapsed_s > 0.0 && sess.elapsed_s > 0.0);
        // The physics must not depend on the quiescence mechanism.
        assert!((base.residual - sess.residual).abs() < 1e-9);
    }

    #[test]
    fn single_rank_run_works() {
        let r = run_mesh2(SimTestbed::tiny(1, 1), 1, tiny_cfg(), QuoBackend::Native);
        assert!(r.residual.is_finite());
    }

    #[test]
    fn median_of_reps_is_stable() {
        let r = run_mesh2_median(SimTestbed::tiny(1, 2), 2, tiny_cfg(), QuoBackend::Native, 3);
        assert!(r.elapsed_s > 0.0);
    }
}
