//! The evaluation's workloads beyond the OSU loops, each written once:
//! the `MPI_Comm_dup` chain (Fig. 4), the PMIx group ablation, the
//! elastic pset churn, the sessions-as-a-service soak wave, and the
//! small fixed shapes only the logical-cost gate runs (a communicator
//! cycle, the PML handshake cache, nonblocking construct overlap, one
//! fault repair). Each takes the [`Job`] it runs on and returns the
//! settled [`Run`]; the figure bins and `bench_gate` call these same
//! functions.

use crate::osu::with_bench_comm;
use crate::run::{Job, Run};
use crate::InitMode;
use mpi_sessions::{
    coll, Comm, ElasticComm, ErrHandler, Info, Rebuild, ReduceOp, Session, ThreadLevel,
};
use pmix::{GroupDirectives, ProcId};
use prrte::JobSpec;
use serde::Serialize;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Which dup flavor a Fig. 4 chain exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DupKind {
    /// WPM comm, consensus CID agreement per dup.
    Consensus,
    /// Sessions comm, one PMIx group construct (PGCID) per dup.
    PgcidPerDup,
    /// Sessions comm, exCIDs derived from the parent's block.
    Derived,
    /// Sessions comm, every `idup_via_group` issued before any is
    /// claimed, so the PGCID acquisitions pipeline instead of serializing.
    Overlapped,
}

/// Fig. 4: a chain of `iters` dups of one communicator, freed at the end.
/// Each rank returns its µs per dup.
pub fn dup_chain(job: Job, np: u32, kind: DupKind, iters: usize) -> Run<f64> {
    let mode = if kind == DupKind::Consensus { InitMode::Wpm } else { InitMode::Sessions };
    job.run(np, move |ctx| {
        with_bench_comm(&ctx, mode, "fig4", |comm| {
            let t0 = Instant::now();
            let dups: Vec<Comm> = match kind {
                DupKind::Overlapped => {
                    let reqs: Vec<_> =
                        (0..iters).map(|_| comm.idup_via_group().expect("dup issue")).collect();
                    reqs.into_iter().map(|r| r.wait().expect("dup wait")).collect()
                }
                DupKind::PgcidPerDup => {
                    (0..iters).map(|_| comm.dup_via_group().expect("pgcid dup")).collect()
                }
                DupKind::Consensus | DupKind::Derived => {
                    (0..iters).map(|_| comm.dup().expect("dup")).collect()
                }
            };
            let elapsed = t0.elapsed();
            for d in dups {
                d.free().expect("free");
            }
            elapsed.as_secs_f64() * 1e6 / iters as f64
        })
    })
}

/// Ablation A3: `iters` PMIx fences, then `iters` group construct +
/// destruct pairs with a PGCID, then `iters` without, all over the full
/// membership. Each rank returns its µs per (fence, construct,
/// construct without PGCID).
pub fn group_ablation(job: Job, np: u32, iters: usize) -> Run<(f64, f64, f64)> {
    job.run(np, move |ctx| {
        let members: Vec<ProcId> =
            (0..ctx.size()).map(|r| ProcId::new(ctx.proc().nspace(), r)).collect();
        let per_iter = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
        let t0 = Instant::now();
        for _ in 0..iters {
            ctx.pmix().fence(&members, false).expect("fence");
        }
        let fence_us = per_iter(t0);
        let constructs = |prefix: &str, d: &GroupDirectives| {
            let t0 = Instant::now();
            for i in 0..iters {
                let g = ctx
                    .pmix()
                    .group_construct(&format!("{prefix}{i}"), &members, d)
                    .expect("construct");
                ctx.pmix().group_destruct(&g, None).expect("destruct");
            }
            per_iter(t0)
        };
        let construct_us = constructs("abl", &GroupDirectives::for_mpi());
        let nopgcid_us = constructs("ablnp", &GroupDirectives::for_mpi().without_pgcid());
        (fence_us, construct_us, nopgcid_us)
    })
}

/// One settled epoch of the elastic churn.
#[derive(Debug, Clone, Serialize)]
pub struct Phase {
    /// The mutation that opened the epoch.
    pub phase: &'static str,
    /// The pset epoch every member settled on.
    pub epoch: u64,
    /// Members of the rebuilt communicator.
    pub members: u32,
    /// Driver-observed wall time from the mutation to the last member's
    /// collective ack on the rebuilt communicator.
    pub rebuild_us: f64,
}

/// The elastic pset churn on a job of at least 8 slots: 4 ranks
/// establish an `ElasticComm` over an app pset, then the driver grows the
/// job 4→8, kills rank 7, retires rank 6 and deletes the pset, each
/// mutation only once every member has acked the previous epoch with an
/// allreduce over its rebuilt communicator. Panics unless every member
/// rebuilt once per epoch, departed peers left the PML cache, and no rank
/// acked past the final epoch.
pub fn elastic_churn(job: Job) -> (Run<()>, Vec<Phase>) {
    const PSET: &str = "app://elastic";
    const STEP: Duration = Duration::from_secs(30);
    let (tx, rx) = mpsc::channel::<(u32, u64, u32)>();
    let spec = JobSpec::new(4).with_pset(PSET, vec![0, 1, 2, 3]);
    let body = move |ctx: prrte::ProcCtx| {
        let session = Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
            .expect("session init");
        let mut ec = ElasticComm::establish(&session, PSET, STEP).expect("establish");
        loop {
            // One allreduce per epoch: the ack proves this rank is on the
            // rebuilt communicator with the full epoch membership.
            let comm = ec.comm().expect("member has a communicator");
            let sum = coll::allreduce_t(comm, ReduceOp::Sum, &[1u32]).expect("allreduce")[0];
            tx.send((ctx.rank(), ec.epoch(), sum)).expect("ack");
            match ec.next_rebuild(STEP) {
                Ok(Rebuild::Rebuilt { .. }) => continue,
                Ok(Rebuild::Retired { .. }) | Ok(Rebuild::Deleted { .. }) => break,
                Err(e) => panic!("rank {} rebuild failed: {e}", ctx.rank()),
            }
        }
        session.finalize().expect("finalize");
    };
    let (run, (phases, rx)) = job.drive("elastic", spec, body, |handle, universe| {
        let ctl = handle.ctl();
        let settle = |phase, n: u32, epoch: u64| {
            let t0 = Instant::now();
            for _ in 0..n {
                let (rank, e, s) = rx.recv_timeout(STEP).expect("ack before timeout");
                assert_eq!((e, s), (epoch, n), "rank {rank} settled on the wrong epoch");
            }
            Phase { phase, epoch, members: n, rebuild_us: t0.elapsed().as_secs_f64() * 1e6 }
        };
        let mut phases = vec![settle("establish", 4, 1)];
        ctl.spawn_ranks(4, Some(PSET));
        phases.push(settle("grow_4to8", 8, 2));
        handle.kill_rank(7);
        phases.push(settle("kill_rank7", 7, 3));
        ctl.retire_ranks(&[6], Some(PSET)).expect("retire");
        phases.push(settle("retire_rank6", 6, 4));
        universe.registry().undefine_pset(PSET);
        (phases, rx)
    });
    // The job has joined, so every ack a rank sent is queued: the killed
    // and retired ranks must not have acked the final epoch.
    assert_eq!(rx.try_iter().count(), 0, "no stragglers past the final epoch");
    let registry = run.registry();
    let rebuilds = registry.sum_counters("session", "rebuilds");
    assert_eq!(rebuilds, 4 + 8 + 7 + 6, "one rebuild per member per epoch");
    let invalidated = registry.sum_counters("pml", "cache_invalidated");
    assert!(invalidated > 0, "departed peers must be evicted from the PML cache");
    (run, phases)
}

/// One reading of the per-component resource levels the lifecycle GC
/// is responsible for, sampled from the shared obs registry. Gauges
/// are *levels* (their high-water marks are tracked separately by
/// `obs`), so a drained runtime must show the baseline again.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LevelSample {
    /// Churn wave at which the sample was taken.
    pub wave: u64,
    /// Sum of per-process communicator-table occupancy (`cid/table_used`).
    pub cid_table_used: i64,
    /// Sum of per-process PML handshake-cache entries (`pml/cache_entries`).
    pub pml_cache_entries: i64,
    /// Live psets in the namespace registry (`registry/pmix/psets_live`).
    pub psets_live: i64,
    /// Retained tombstones (`registry/pmix/psets_tombstoned`).
    pub psets_tombstoned: i64,
    /// Sum of per-shard server KVS entries (`pmix/kvs_entries`).
    pub kvs_entries: i64,
    /// Sum of per-server PGCID pool occupancy (`pmix/pgcid_pool_len`).
    pub pgcid_pool: i64,
}

/// The six lifecycle levels bound once as MPI_T pvar handles — the
/// soak samples the runtime through the same tool surface an external
/// MPI_T agent would use, and `PvarSession` reads are defined to agree
/// with `Registry::export`, so the soak report and a tool watching the
/// same run can never disagree.
struct SoakPvars {
    session: obs::PvarSession,
    levels: [obs::PvarHandle; 6],
}

impl SoakPvars {
    /// Bind the level handles over `registry`.
    fn bind(registry: std::sync::Arc<obs::Registry>) -> Self {
        let mut session = obs::PvarSession::new(registry);
        let levels = [
            session.bind_level_sum("cid", "table_used"),
            session.bind_level_sum("pml", "cache_entries"),
            session.bind_level("registry", "pmix", "psets_live"),
            session.bind_level("registry", "pmix", "psets_tombstoned"),
            session.bind_level_sum("pmix", "kvs_entries"),
            session.bind_level_sum("pmix", "pgcid_pool_len"),
        ];
        Self { session, levels }
    }

    /// Sample every bound level.
    fn sample(&self, wave: u64) -> LevelSample {
        let [cid_table_used, pml_cache_entries, psets_live, psets_tombstoned, kvs_entries, pool] =
            self.levels.map(|h| self.session.read_i64(h));
        LevelSample {
            wave,
            cid_table_used,
            pml_cache_entries,
            psets_live,
            psets_tombstoned,
            kvs_entries,
            pgcid_pool: pool,
        }
    }
}

/// Ranks in a soak job.
pub const SOAK_NP: u32 = 4;

/// The shape of a soak run.
#[derive(Debug, Clone, Copy)]
pub struct Soak {
    /// Churn waves.
    pub waves: u64,
    /// Sample the resource levels every this many waves.
    pub sample_every: u64,
    /// Run an allreduce on the recycled derivation and check its width.
    pub allreduce: bool,
    /// Keep one `idup_via_group` in flight across each wave's churn and
    /// drop it unclaimed on every 10th wave.
    pub abandon: bool,
}

/// The resource levels a soak run went through.
#[derive(Debug)]
pub struct SoakLevels {
    /// The quiet-point baseline, taken before the churn.
    pub baseline: LevelSample,
    /// Samples taken during the churn, then the drained final sample.
    pub samples: Vec<LevelSample>,
    /// The drained final sample, read after the run settled.
    pub fin: LevelSample,
    /// Wall time from the first wave to the settled run.
    pub elapsed_s: f64,
}

/// The sessions-as-a-service soak on a job of at least [`SOAK_NP`]
/// slots: every wave, each rank initializes a session, builds a world
/// communicator, derives a child, frees it, derives again (resuming the
/// recycled subfield) and tears everything back down, while the driver
/// churns one short-lived pset per wave through the namespace registry.
/// The runtime never restarts. Panics unless every free, recycle and
/// cancellation the shape implies was counted and nothing leaked at
/// teardown.
pub fn soak(job: Job, shape: Soak) -> (Run<()>, SoakLevels) {
    let Soak { waves, sample_every, allreduce, abandon } = shape;
    let (tx, rx) = mpsc::channel::<(u32, u64)>();
    let body = move |ctx: prrte::ProcCtx| {
        for wave in 0..waves {
            with_bench_comm(&ctx, InitMode::Sessions, &format!("soak-w{wave}"), |comm| {
                let inflight = abandon.then(|| comm.idup_via_group().expect("dup issue"));
                let d1 = comm.dup().expect("dup");
                d1.free().expect("free d1");
                let d2 = comm.dup().expect("dup recycled");
                if allreduce {
                    let sum =
                        coll::allreduce_t(&d2, ReduceOp::Sum, &[1u32]).expect("allreduce")[0];
                    assert_eq!(sum, SOAK_NP, "wave {wave}: collective saw wrong membership");
                }
                d2.free().expect("free d2");
                if let Some(req) = inflight {
                    if wave % 10 == 0 {
                        // Dropped instead of claimed: cancellation frees the
                        // comm it produced, so the lifecycle counters and the
                        // leak verdict see the same drained world.
                        drop(req);
                    } else {
                        req.wait().expect("dup wait").free().expect("free dup");
                    }
                }
            });
            tx.send((ctx.rank(), wave)).expect("ack");
        }
    };
    // The namespace is part of `bench_gate`'s fingerprint: `obs::analyze`
    // orders spans by process label, and "soak" (sorting later) moves the
    // soak row's recorded critical path by one.
    let (run, (pvars, baseline, mut samples, t0)) =
        job.drive("churn", JobSpec::new(SOAK_NP), body, |_, universe| {
            // Quiet-point baseline: launch-defined psets registered, no live
            // sessions yet (the read races at worst with wave 0, which
            // cannot touch psets or the KVS).
            let pvars = SoakPvars::bind(universe.fabric().obs());
            let baseline = pvars.sample(0);
            let t0 = Instant::now();
            let mut samples = Vec::new();
            for wave in 0..waves {
                for _ in 0..SOAK_NP {
                    let (rank, w) = rx.recv_timeout(Duration::from_secs(120)).expect("wave ack");
                    assert!(w >= wave, "rank {rank} acked stale wave {w}");
                }
                // Driver-side registry churn: one short-lived pset per wave.
                let name = format!("soak://w{wave}");
                universe.registry().define_pset(&name, vec![]);
                universe.registry().undefine_pset(&name);
                if wave % sample_every == 0 {
                    samples.push(pvars.sample(wave));
                }
            }
            (pvars, baseline, samples, t0)
        });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let fin = pvars.sample(waves);
    samples.push(fin);

    // Activity checks: a soak that silently stopped exercising the
    // recycle machinery would pass a leak verdict vacuously. Each rank
    // frees its comm and both derivations every wave, plus the in-flight
    // dup (claimed or cancelled: cancellation counts as a free).
    let sessions = waves * SOAK_NP as u64;
    let abandoned = soak_abandoned(shape);
    for (component, name, want) in [
        ("cid", "released", sessions * (3 + abandon as u64)),
        ("cid", "subfields_recycled", sessions),
        ("instance", "cids_leaked_at_teardown", 0),
        ("req", "cancelled", abandoned),
    ] {
        assert_eq!(run.registry().sum_counters(component, name), want, "{component}.{name}");
    }
    assert!(run.registry().sum_counters("pmix", "pgcid_recycled") > 0, "frees recycle PGCIDs");
    (run, SoakLevels { baseline, samples, fin, elapsed_s })
}

/// Setup requests a soak shape drops mid-flight (every 10th wave, all
/// ranks).
pub fn soak_abandoned(shape: Soak) -> u64 {
    if shape.abandon {
        shape.waves.div_ceil(10) * SOAK_NP as u64
    } else {
        0
    }
}

/// A communicator cycle on a job of `np` ranks: the benchmark
/// communicator for `mode` (see [`crate::osu::bench_comm`]), freed, then finalized.
pub fn comm_cycle(job: Job, np: u32, mode: InitMode) -> Run<()> {
    job.run(np, move |ctx| with_bench_comm(&ctx, mode, "comm_cycle", |_| ()))
}

/// The PML handshake cache on a 2-rank job: two communicators over the
/// same group; the second one's CID exchange rides `CidAdvert`s from the
/// cache.
pub fn pml_cache(job: Job) -> Run<()> {
    job.run(2, |ctx| {
        with_bench_comm(&ctx, InitMode::Sessions, "pml-cache1", |c1| {
            let peer = 1 - c1.rank();
            c1.sendrecv(peer, 1, b"one", peer as i32, 1).expect("comm1 exchange");
            let c2 = Comm::create_from_group(&c1.group(), "pml-cache2").expect("comm2");
            c2.sendrecv(peer, 2, b"two", peer as i32, 2).expect("comm2 exchange");
            c2.free().expect("free");
        })
    })
}

/// `k` communicator constructions from one world group on a 2-rank job:
/// sequential blocking calls, or (`overlap`) all issued as setup requests
/// before any is claimed.
pub fn comm_constructs(job: Job, k: usize, overlap: bool) -> Run<()> {
    job.run(2, move |ctx| {
        let session = Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
            .expect("session init");
        let group = session.group_from_pset(mpi_sessions::session::PSET_WORLD).expect("world pset");
        let comms: Vec<Comm> = if overlap {
            let reqs: Vec<_> = (0..k)
                .map(|i| Comm::icomm_create_from_group(&group, &format!("ov{i}")).expect("issue"))
                .collect();
            reqs.into_iter().map(|r| r.wait().expect("icomm wait")).collect()
        } else {
            (0..k)
                .map(|i| Comm::create_from_group(&group, &format!("ov{i}")).expect("comm"))
                .collect()
        };
        for c in comms {
            c.free().expect("free");
        }
        session.finalize().expect("finalize");
    })
}

/// The fault protocol's fixed-cost path on a 4-rank job: one kill, the
/// survivors pset prunes, every survivor repairs at the settled epoch
/// (`ElasticComm::establish` on the survivors pset) and resumes
/// collectives at the shrunk width. The kill is driver-paced against
/// parked survivors (blocked in the fault watcher, generating no
/// traffic), so no request ever times out or retries.
pub fn recover_kill(job: Job) -> Run<()> {
    let (tx, rx) = mpsc::channel::<(u32, u32)>();
    let body = move |ctx: prrte::ProcCtx| {
        let session = Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
            .expect("session init");
        let pset = session.track_faults().expect("track_faults");
        let mut faults = session.watch_faults().expect("watch_faults");
        let world =
            session.group_from_pset(mpi_sessions::session::PSET_WORLD).expect("world group");
        let comm = Comm::create_from_group(&world, "recover").expect("comm");
        let sum = coll::allreduce_t(&comm, ReduceOp::Sum, &[1u32]).expect("allreduce")[0];
        tx.send((ctx.rank(), sum)).expect("ack");
        if ctx.rank() == 3 {
            // Victim: park until the runtime has absorbed the kill.
            ctx.park_until_killed();
            comm.abandon();
            return;
        }
        // The bridge pruned the corpse before the death event was yielded:
        // repair one-shot at the settled epoch, with no re-entry or Timeout
        // retries, so the message counts stay protocol-fixed.
        let dead = faults.next_timeout(Duration::from_secs(30)).expect("death event");
        assert_eq!(dead.rank(), 3);
        let repaired =
            ElasticComm::establish(&session, &pset, Duration::from_secs(30)).expect("repair");
        let sum = coll::allreduce_t(repaired.comm().expect("member"), ReduceOp::Sum, &[1u32])
            .expect("allreduce")[0];
        tx.send((ctx.rank(), sum)).expect("ack");
        drop(repaired);
        comm.abandon();
        session.finalize().expect("finalize");
    };
    let acks = |n: u32, width: u32| {
        for _ in 0..n {
            let (rank, sum) = rx.recv_timeout(Duration::from_secs(60)).expect("ack");
            assert_eq!(sum, width, "rank {rank} saw the wrong width");
        }
    };
    job.drive("recover", JobSpec::new(4), body, |handle, _| {
        acks(4, 4);
        handle.kill_rank(3);
        acks(3, 3);
    })
    .0
}
