//! The five pinned workloads and the measured round around them.
//!
//! Every workload is a closed loop with two clients: the two ranks of an
//! np = 2 job on `SimTestbed::tiny(2, 1)` (two nodes × one slot, zero-cost
//! model), each waiting for its collective or reply before the next op.
//! Rank 0 owns the clock, the tracer and the failure count; `init_cold`
//! launches a job per op, so there the driving thread does.

use crate::stats;
use crate::trace::{in_unit_of, Progress, Recorder, SpanRec, Tracer};
use mpi_sessions::session::PSET_WORLD;
use mpi_sessions::{coll, Comm, ErrHandler, Info, ReduceOp, Request, Session, ThreadLevel};
use prrte::{JobSpec, Launcher, ProcCtx};
use serde::{Deserialize, Serialize};
use simnet::SimTestbed;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Ranks per job. Two nodes × one slot: the inter-server fan-in / xchg /
/// fan-out and the head-node PGCID RPC are on the path, and at most two
/// rank threads are ever runnable.
pub const NP: u32 = 2;
/// Messages per `osu_mbw_mr` window.
const WINDOW: usize = 64;

const TAG_DATA: i32 = 2;
const TAG_ACK: i32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InitCold,
    SessionChurn,
    P2pPingpong,
    P2pStream8b,
    P2pStream64k,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::InitCold,
        Workload::SessionChurn,
        Workload::P2pPingpong,
        Workload::P2pStream8b,
        Workload::P2pStream64k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InitCold => "init_cold",
            Workload::SessionChurn => "session_churn",
            Workload::P2pPingpong => "p2p_pingpong",
            Workload::P2pStream8b => "p2p_stream_8b",
            Workload::P2pStream64k => "p2p_stream_64k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fixed `(warm-up, timed)` op counts of one full-suite round: about a
    /// fifth of a second of warm-up and one second timed on the host class
    /// the benchmark was sized on. Rounds are short and many because the
    /// noise is per process, and because `init_cold` leaks a thread and
    /// ~170 KiB per launch, so its op cost climbs with the op number.
    pub fn suite_ops(self) -> (u64, u64) {
        match self {
            Workload::InitCold => (50, 800),
            Workload::SessionChurn => (200, 950),
            Workload::P2pPingpong => (20_000, 100_000),
            Workload::P2pStream8b => (2_000, 10_000),
            Workload::P2pStream64k => (100, 450),
        }
    }

    /// `(warm-up, timed)` op counts of a smoke round: milliseconds.
    pub fn smoke_ops(self) -> (u64, u64) {
        match self {
            Workload::InitCold | Workload::SessionChurn => (5, 30),
            Workload::P2pPingpong => (200, 2_000),
            Workload::P2pStream8b => (20, 100),
            Workload::P2pStream64k => (5, 20),
        }
    }
}

/// How long the timed region of a round lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// A fixed op count: obs counters per op repeat exactly.
    Ops(u64),
    /// About this many seconds: the op count is set once, before the timed
    /// region, from the rate the warm-up ran at.
    Seconds(f64),
}

impl Budget {
    fn timed_ops(self, warmup_ops: u64, warmup_took: Duration) -> u64 {
        match self {
            Budget::Ops(n) => n,
            Budget::Seconds(s) => {
                let rate = warmup_ops as f64 / warmup_took.as_secs_f64().max(1e-9);
                ((s * rate).ceil() as u64).max(1)
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RoundCfg {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub warmup_ops: u64,
    pub budget: Budget,
    /// When the measuring process started: `setup_s` counts from here.
    pub started: Instant,
}

/// What one round (one pinned child process) measured.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Round {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub warmup_ops: u64,
    pub timed_ops: u64,
    /// Every op run, warm-up included, plus one for the drain check.
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `VmHWM` at the first timed op, after the fixed-count warm-up: a
    /// property of the program, not of how many ops the time budget allowed.
    pub peak_rss_mb: f64,
    /// `VmHWM` growth over the timed region ÷ timed ops.
    pub rss_growth_kb_per_op: f64,
    pub samples: u64,
    pub op_us_p50: f64,
    pub op_us_p90: f64,
    pub op_us_p99: f64,
    /// Highest percentile with at least ten samples beyond it.
    pub top_pct: String,
    pub top_pct_us: f64,
    /// Traced rounds only: share of op time outside every traced call.
    pub residual_share: f64,
    /// Traced rounds only: mean duration per call of each span name, in the
    /// unit the name ends with.
    pub calls: BTreeMap<String, f64>,
    /// Traced rounds only: obs counter deltas over the timed region ÷ ops.
    pub per_op: BTreeMap<String, f64>,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.timed_ops as f64 / self.wall_s
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.timed_ops as f64
    }

    /// 1 − CPU ÷ wall over the timed region: time nothing ran.
    pub fn idle_share(&self) -> f64 {
        1.0 - self.cpu_s / self.wall_s
    }
}

// ---------------------------------------------------------------------------
// Seed-derived inputs
// ---------------------------------------------------------------------------

/// splitmix64: the one generator every input comes from.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rank `rank`'s allreduce contribution in op `i`; below 2^32 so the sum
/// cannot wrap.
fn contribution(seed: u64, i: u64, rank: u32) -> u64 {
    mix(seed ^ mix(i) ^ u64::from(rank)) >> 32
}

/// Wrapping sum of a payload's little-endian 8-byte words (sizes here are
/// multiples of eight).
fn checksum(payload: &[u8]) -> u64 {
    payload
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .fold(0, u64::wrapping_add)
}

fn seeded_payload(seed: u64, size: usize) -> Vec<u8> {
    (0..size as u64 / 8)
        .flat_map(|w| mix(seed ^ (w << 20)).to_le_bytes())
        .collect()
}

/// The three ack bytes a receiver returns for a window whose last payload
/// summed to `sum`.
fn ack_bytes(sum: u64) -> [u8; 3] {
    let m = mix(sum).to_le_bytes();
    [m[0], m[1], m[2]]
}

pub(crate) fn s<T, E: Display>(r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

pub(crate) fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

// ---------------------------------------------------------------------------
// obs counters and levels, read from outside
// ---------------------------------------------------------------------------

/// `*_per_op` metric → the `(component, name)` obs counters it sums.
const COUNTERS: &[(&str, &[(&str, &str)])] = &[
    (
        "simnet.msgs_per_op",
        &[("fabric", "msgs_on_node"), ("fabric", "msgs_inter_node")],
    ),
    (
        "simnet.bytes_per_op",
        &[("fabric", "bytes_on_node"), ("fabric", "bytes_inter_node")],
    ),
    ("pmix.rpcs_per_op", &[("pmix", "rpc_handled")]),
    ("pmix.fences_per_op", &[("pmix", "fence_completed")]),
    (
        "pmix.group_constructs_per_op",
        &[("pmix", "group_construct_completed")],
    ),
    ("pmix.pgcid_allocs_per_op", &[("pmix", "pgcid_allocated")]),
    (
        "pmix.stage_msgs_per_op",
        &[
            ("pmix", "stage_fanin"),
            ("pmix", "stage_xchg"),
            ("pmix", "stage_fanout"),
        ],
    ),
    ("core.cid.derivations_per_op", &[("cid", "derivations")]),
    ("core.cid.refills_per_op", &[("cid", "refills")]),
    ("core.pml.eager_per_op", &[("pml", "eager_sent")]),
    ("core.pml.ext_sent_per_op", &[("pml", "ext_sent")]),
    ("core.pml.handshakes_per_op", &[("pml", "handshakes")]),
    ("core.pml.rts_per_op", &[("pml", "rts_sent")]),
];

/// Running totals of every counter behind a `*_per_op` metric.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn read(obs: &obs::Registry) -> Self {
        let mut c: BTreeMap<&'static str, u64> = COUNTERS
            .iter()
            .map(|(metric, parts)| {
                (
                    *metric,
                    parts.iter().map(|(c, n)| obs.sum_counters(c, n)).sum(),
                )
            })
            .collect();
        c.insert(
            "obs.spans_per_op",
            obs.spans_snapshot().len() as u64 + obs.spans_dropped(),
        );
        c.insert(
            "obs.events_per_op",
            obs.events_len() as u64 + obs.events_dropped(),
        );
        Counts(c)
    }

    fn add(&mut self, other: &Counts) {
        for (k, v) in &other.0 {
            *self.0.entry(k).or_default() += v;
        }
    }

    /// `(end − start) ÷ ops` per metric.
    fn per_op(start: &Counts, end: &Counts, ops: u64) -> BTreeMap<String, f64> {
        end.0
            .iter()
            .map(|(k, v)| {
                let delta = v - start.0.get(k).copied().unwrap_or(0);
                ((*k).to_owned(), counter_delta_per_op(delta, ops))
            })
            .collect()
    }
}

pub fn counter_delta_per_op(delta: u64, ops: u64) -> f64 {
    delta as f64 / ops.max(1) as f64
}

/// Resource levels that must be back at baseline once a run has drained.
#[derive(Debug, Clone, Copy)]
struct Levels {
    cid_table_used: i64,
    pml_cache_entries: i64,
    psets_live: i64,
    kvs_entries: i64,
}

impl Levels {
    fn read(obs: &obs::Registry) -> Self {
        Self {
            cid_table_used: obs.sum_gauges("cid", "table_used"),
            pml_cache_entries: obs.sum_gauges("pml", "cache_entries"),
            psets_live: obs.sum_gauges("pmix", "psets_live"),
            kvs_entries: obs.sum_gauges("pmix", "kvs_entries"),
        }
    }

    /// The post-run drain check: communicator tables and the PML handshake
    /// cache empty, live psets and server KVS no higher than `baseline`.
    fn drained(self, baseline: Levels) -> Result<(), String> {
        check(
            self.cid_table_used == 0
                && self.pml_cache_entries == 0
                && self.psets_live <= baseline.psets_live
                && self.kvs_entries <= baseline.kvs_entries,
            || format!("not drained: {self:?} against baseline {baseline:?}"),
        )
    }
}

// ---------------------------------------------------------------------------
// The measured region
// ---------------------------------------------------------------------------

/// The measuring thread's view of the timed region.
struct Timed {
    rec: Recorder,
    timed_ops: u64,
    rss_start_mb: f64,
    start_cpu_s: f64,
    start: Instant,
}

impl Timed {
    /// End of warm-up: forget its samples and spans, read memory, CPU time
    /// and — last — the clock.
    fn start(mut rec: Recorder, timed_ops: u64) -> Self {
        rec.start_timed(timed_ops);
        Self {
            rec,
            timed_ops,
            rss_start_mb: stats::peak_rss_mib(),
            start_cpu_s: stats::process_cpu_seconds(),
            start: Instant::now(),
        }
    }

    /// After the last timed op: the clock first, then CPU time.
    fn stop(self, counts: Option<(Counts, Counts)>) -> Measured {
        let end = Instant::now();
        Measured {
            end_cpu_s: stats::process_cpu_seconds(),
            end,
            counts,
            drain: Ok(()),
            timed: self,
        }
    }
}

/// Everything the measuring thread hands back.
struct Measured {
    timed: Timed,
    end: Instant,
    end_cpu_s: f64,
    /// Traced rounds: the `*_per_op` counters before and after.
    counts: Option<(Counts, Counts)>,
    /// The post-run drain check (`init_cold` checks every op's universe).
    drain: Result<(), String>,
}

fn finish(cfg: &RoundCfg, m: Measured, progress: &Progress) -> Round {
    let Timed {
        rec,
        timed_ops,
        rss_start_mb,
        start_cpu_s,
        start,
    } = m.timed;
    let (end, end_cpu_s, counts, drain) = (m.end, m.end_cpu_s, m.counts, m.drain);
    let Recorder {
        tracer,
        samples_ns: mut sorted,
        mut first_error,
        ..
    } = rec;
    sorted.sort_unstable();
    let pct_us = |q: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            stats::percentile(&sorted, q) as f64 / 1e3
        }
    };
    let (top_pct, top_q) = stats::top_percentile(sorted.len()).unwrap_or(("p50", 0.5));
    let drain_failed = drain.is_err();
    if let Err(e) = drain {
        first_error.get_or_insert(e);
    }
    let calls = tracer
        .totals()
        .iter()
        .map(|(name, t)| {
            (
                (*name).to_owned(),
                in_unit_of(name, t.ns as f64 / t.calls as f64),
            )
        })
        .collect();
    Round {
        workload: cfg.workload.name().to_owned(),
        seed: cfg.seed,
        traced: cfg.traced,
        warmup_ops: cfg.warmup_ops,
        timed_ops,
        attempted: progress.attempted.load(Ordering::Relaxed) + 1,
        failed: progress.failed.load(Ordering::Relaxed) + u64::from(drain_failed),
        first_error,
        setup_s: (start - cfg.started).as_secs_f64(),
        wall_s: (end - start).as_secs_f64(),
        cpu_s: end_cpu_s - start_cpu_s,
        peak_rss_mb: rss_start_mb,
        rss_growth_kb_per_op: (stats::peak_rss_mib() - rss_start_mb) * 1024.0
            / timed_ops.max(1) as f64,
        samples: sorted.len() as u64,
        op_us_p50: pct_us(0.5),
        op_us_p90: pct_us(0.9),
        op_us_p99: pct_us(0.99),
        top_pct: top_pct.to_owned(),
        top_pct_us: pct_us(top_q),
        residual_share: tracer.residual_share(),
        calls,
        per_op: counts
            .map(|(a, b)| Counts::per_op(&a, &b, timed_ops))
            .unwrap_or_default(),
    }
}

/// Run one round of `cfg.workload`. Returns the round and, when traced, the
/// recorder's spans for the trace file.
pub fn run_round(
    cfg: &RoundCfg,
    progress: &Arc<Progress>,
) -> Result<(Round, Vec<SpanRec>), String> {
    let measured = match cfg.workload {
        Workload::InitCold => init_cold(cfg, progress),
        _ => run_job(cfg, progress)?,
    };
    let spans = measured.timed.rec.tracer.kept().to_vec();
    Ok((finish(cfg, measured, progress), spans))
}

// ---------------------------------------------------------------------------
// init_cold: one job launch per op, driven from this thread
// ---------------------------------------------------------------------------

/// Rank 0's clock readings inside one cold-init job.
struct ColdStamps {
    entered: Instant,
    inited: Instant,
    grouped: Instant,
    created: Instant,
    synced: Instant,
    freed: Instant,
    finalized: Instant,
}

fn cold_rank(ctx: &ProcCtx) -> Result<ColdStamps, String> {
    let entered = Instant::now();
    let session = s(Session::init(
        ctx,
        ThreadLevel::Single,
        ErrHandler::Return,
        &Info::null(),
    ))?;
    let inited = Instant::now();
    let group = s(session.group_from_pset(PSET_WORLD))?;
    let grouped = Instant::now();
    let comm = s(Comm::create_from_group(&group, "init_cold"))?;
    let created = Instant::now();
    check(comm.size() == NP, || {
        format!("cold comm has {} ranks, not {NP}", comm.size())
    })?;
    s(coll::barrier(&comm))?;
    let synced = Instant::now();
    s(comm.free())?;
    let freed = Instant::now();
    s(session.finalize())?;
    Ok(ColdStamps {
        entered,
        inited,
        grouped,
        created,
        synced,
        freed,
        finalized: Instant::now(),
    })
}

/// One cold init as `prun ./osu_init` shows it: boot the DVM, launch, init
/// to a usable communicator, one barrier, tear everything down. The spans
/// follow rank 0 from launch to exit, so they chain end to end. Returns the
/// op's obs registry, which outlives its universe.
fn cold_op(tr: &mut Tracer) -> Result<Arc<obs::Registry>, String> {
    let t0 = Instant::now();
    let launcher = Launcher::new(SimTestbed::tiny(NP, 1));
    let ranks = launcher
        .spawn(JobSpec::new(NP), |ctx| cold_rank(&ctx))
        .join()?;
    let obs = launcher.universe().fabric().obs();
    let drained = Levels::read(&obs);
    drop(launcher);
    let done = Instant::now();
    let mut ranks = ranks.into_iter();
    let r0 = ranks.next().ok_or("job returned no ranks")??;
    for other in ranks {
        other?;
    }
    check(
        drained.cid_table_used == 0 && drained.pml_cache_entries == 0,
        || format!("cold job left resources behind: {drained:?}"),
    )?;
    tr.span("prrte.launch_us", t0, r0.entered);
    tr.span("core.session.init_us", r0.entered, r0.inited);
    tr.span("core.session.group_from_pset_us", r0.inited, r0.grouped);
    tr.span("core.comm.create_from_group_us", r0.grouped, r0.created);
    tr.span("core.coll.barrier_us", r0.created, r0.synced);
    tr.span("core.comm.free_us", r0.synced, r0.freed);
    tr.span("core.session.finalize_us", r0.freed, r0.finalized);
    tr.span("prrte.join_teardown_us", r0.finalized, done);
    Ok(obs)
}

fn init_cold(cfg: &RoundCfg, progress: &Arc<Progress>) -> Measured {
    let mut rec = Recorder::new(cfg.traced, progress.clone());
    let warm = Instant::now();
    for _ in 0..cfg.warmup_ops {
        rec.op(|tr| cold_op(tr).map(drop));
    }
    let timed_ops = cfg.budget.timed_ops(cfg.warmup_ops, warm.elapsed());
    // Each op has a universe (and obs registry) of its own. A traced round
    // keeps the registry past the op's clock, reads the op's counters
    // whole and sums them; an untraced op drops it on its own time.
    let mut total = Counts::default();
    let mut timed = Timed::start(rec, timed_ops);
    for _ in 0..timed_ops {
        let mut kept = None;
        timed
            .rec
            .op(|tr| cold_op(tr).map(|obs| kept = cfg.traced.then_some(obs)));
        if let Some(obs) = kept {
            total.add(&Counts::read(&obs));
        }
    }
    timed.stop(cfg.traced.then(|| (Counts::default(), total)))
}

// ---------------------------------------------------------------------------
// The four workloads that run inside one long-lived job
// ---------------------------------------------------------------------------

/// One rank's side of a workload.
trait RankLoop {
    /// Op number `i` (warm-up ops count too); every output is verified.
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String>;
    fn teardown(self: Box<Self>) -> Result<(), String>;
}

pub(crate) fn world_comm(ctx: &ProcCtx, tag: &str) -> Result<(Session, Comm), String> {
    let session = s(Session::init(
        ctx,
        ThreadLevel::Single,
        ErrHandler::Return,
        &Info::null(),
    ))?;
    let group = s(session.group_from_pset(PSET_WORLD))?;
    let comm = s(Comm::create_from_group(&group, tag))?;
    Ok((session, comm))
}

/// session_churn: the whole session/communicator lifecycle per op, against
/// one persistent universe.
struct Churn<'a> {
    ctx: &'a ProcCtx,
    seed: u64,
}

impl RankLoop for Churn<'_> {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let ctx = self.ctx;
        let session = s(tr.call("core.session.init_us", || {
            Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
        }))?;
        let group = s(tr.call("core.session.group_from_pset_us", || {
            session.group_from_pset(PSET_WORLD)
        }))?;
        let tag = format!("churn-{i}");
        let comm = s(tr.call("core.comm.create_from_group_us", || {
            Comm::create_from_group(&group, &tag)
        }))?;
        let derived = s(tr.call("core.cid.dup_derived_us", || comm.dup()))?;
        let fresh = s(tr.call("core.cid.dup_pgcid_us", || comm.dup_via_group()))?;
        // First message on a fresh exCID: ext-header handshake + ACK.
        let mine = contribution(self.seed, i, ctx.rank());
        let sum = s(tr.call("core.coll.allreduce_first_us", || {
            coll::allreduce_t(&fresh, ReduceOp::Sum, &[mine])
        }))?;
        let want: u64 = (0..NP).map(|r| contribution(self.seed, i, r)).sum();
        check(sum == [want], || {
            format!("op {i}: allreduce gave {sum:?}, want {want}")
        })?;
        s(tr.call("core.comm.free_us", || {
            fresh
                .free()
                .and_then(|()| derived.free())
                .and_then(|()| comm.free())
        }))?;
        s(tr.call("core.session.finalize_us", || session.finalize()))
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// p2p_pingpong: one blocking 8-byte round trip per op on a long-lived
/// sessions communicator; the echo must carry the op's sequence word back.
struct PingPong {
    session: Session,
    comm: Comm,
    seed: u64,
}

impl RankLoop for PingPong {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let word = mix(self.seed ^ i).to_le_bytes();
        let comm = &self.comm;
        if comm.rank() == 0 {
            s(tr.call("core.pml.send_call_ns", || comm.send(1, TAG_DATA, &word)))?;
            let (echo, _) = s(tr.call("core.pml.recv_call_us", || comm.recv(1, TAG_DATA)))?;
            check(echo == word, || {
                format!("op {i}: echo {echo:?} is not {word:?}")
            })
        } else {
            let (ping, _) = s(comm.recv(0, TAG_DATA))?;
            check(ping == word, || {
                format!("op {i}: ping {ping:?} is not {word:?}")
            })?;
            s(comm.send(0, TAG_DATA, &ping))
        }
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        s(self.comm.free())?;
        s(self.session.finalize())
    }
}

/// p2p_stream_*: one `osu_mbw_mr` window per op — 64 nonblocking sends of
/// `size` bytes from rank 0, one 3-byte ack back. The ack is derived from
/// the checksum of the last payload as rank 1 received it.
struct Stream {
    session: Session,
    comm: Comm,
    seed: u64,
    payload: Vec<u8>,
    /// Checksum of `payload` without its first word, which changes per message.
    rest_sum: u64,
    /// Fabric message counters (on-node, inter-node), resolved once.
    fabric_msgs: [obs::Counter; 2],
}

impl Stream {
    fn new(ctx: &ProcCtx, seed: u64, size: usize) -> Result<Self, String> {
        let (session, comm) = world_comm(ctx, "p2p_stream")?;
        let payload = seeded_payload(seed, size);
        let rest_sum = checksum(&payload[8..]);
        let obs = ctx.universe().fabric().obs();
        let fabric_msgs =
            ["msgs_on_node", "msgs_inter_node"].map(|name| obs.counter("fabric", "fabric", name));
        Ok(Self {
            session,
            comm,
            seed,
            payload,
            rest_sum,
            fabric_msgs,
        })
    }

    fn first_word(&self, i: u64, slot: usize) -> u64 {
        mix(self.seed ^ (i * WINDOW as u64 + slot as u64))
    }

    fn fabric_msgs(&self) -> u64 {
        self.fabric_msgs.iter().map(obs::Counter::get).sum()
    }
}

impl RankLoop for Stream {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        if self.comm.rank() == 0 {
            let sent_before = self.fabric_msgs();
            let ack = s(tr.call("core.pml.irecv_post_ns", || self.comm.irecv(1, TAG_ACK)))?;
            let mut sends = Vec::with_capacity(WINDOW);
            for slot in 0..WINDOW {
                let word = self.first_word(i, slot);
                self.payload[..8].copy_from_slice(&word.to_le_bytes());
                let (comm, payload) = (&self.comm, &self.payload);
                sends.push(s(tr.call("core.pml.isend_post_ns", || {
                    comm.isend(1, TAG_DATA, payload)
                }))?);
            }
            s(tr.call("core.request.wait_all_us", || Request::wait_all(sends)))?;
            let (got, _) = s(tr.call("core.pml.ack_us", || ack.wait_data()))?;
            let want = ack_bytes(self.rest_sum.wrapping_add(self.first_word(i, WINDOW - 1)));
            check(got[..] == want, || {
                format!("window {i}: ack {got:?} is not {want:?}")
            })?;
            // Every message and the ack crossed the fabric.
            let crossed = self.fabric_msgs() - sent_before;
            check(crossed > WINDOW as u64, || {
                format!("window {i}: only {crossed} fabric messages")
            })
        } else {
            let recvs: Vec<Request> = s((0..WINDOW)
                .map(|_| self.comm.irecv(0, TAG_DATA))
                .collect::<Result<_, _>>())?;
            let mut last = None;
            for r in recvs {
                last = Some(s(r.wait_data())?.0);
            }
            let last = last.expect("WINDOW > 0");
            check(last.len() == self.payload.len(), || {
                format!("window {i}: last payload has {} bytes", last.len())
            })?;
            s(self.comm.send(0, TAG_ACK, &ack_bytes(checksum(&last))))
        }
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        s(self.comm.free())?;
        s(self.session.finalize())
    }
}

fn rank_loop<'a>(ctx: &'a ProcCtx, cfg: &RoundCfg) -> Result<Box<dyn RankLoop + 'a>, String> {
    let seed = cfg.seed;
    Ok(match cfg.workload {
        Workload::InitCold => unreachable!("init_cold launches its own jobs"),
        Workload::SessionChurn => Box::new(Churn { ctx, seed }),
        Workload::P2pPingpong => {
            let (session, comm) = world_comm(ctx, "p2p_pingpong")?;
            Box::new(PingPong {
                session,
                comm,
                seed,
            })
        }
        Workload::P2pStream8b => Box::new(Stream::new(ctx, seed, 8)?),
        Workload::P2pStream64k => Box::new(Stream::new(ctx, seed, 64 * 1024)?),
    })
}

/// What the two rank threads share besides the job itself.
struct Shared {
    /// Both ranks meet here around each edge of the timed region, so rank 0
    /// reads clocks and counters while nothing is in flight.
    sync: Barrier,
    timed_ops: AtomicU64,
}

/// Rank 0: runs the ops, owns the clock and the failure count.
fn measure(
    ctx: &ProcCtx,
    cfg: &RoundCfg,
    shared: &Shared,
    progress: &Arc<Progress>,
) -> Result<Measured, String> {
    let mut work = rank_loop(ctx, cfg)?;
    let obs = ctx.universe().fabric().obs();
    let mut rec = Recorder::new(cfg.traced, progress.clone());
    let warm = Instant::now();
    for i in 0..cfg.warmup_ops {
        rec.op(|tr| work.op(i, tr));
    }
    let timed_ops = cfg.budget.timed_ops(cfg.warmup_ops, warm.elapsed());
    shared.timed_ops.store(timed_ops, Ordering::SeqCst);
    shared.sync.wait();
    let before = cfg.traced.then(|| Counts::read(&obs));
    let mut timed = Timed::start(rec, timed_ops);
    shared.sync.wait();
    for i in cfg.warmup_ops..cfg.warmup_ops + timed_ops {
        timed.rec.op(|tr| work.op(i, tr));
    }
    let measured = timed.stop(None);
    shared.sync.wait();
    let counts = before.map(|before| (before, Counts::read(&obs)));
    shared.sync.wait();
    work.teardown()?;
    Ok(Measured { counts, ..measured })
}

/// Rank 1: the other side of every op. It verifies too; its failures land
/// in the same count.
fn follow(
    ctx: &ProcCtx,
    cfg: &RoundCfg,
    shared: &Shared,
    progress: &Progress,
) -> Result<(), String> {
    let mut work = rank_loop(ctx, cfg)?;
    let mut untraced = Tracer::off();
    let mut run = |ops: std::ops::Range<u64>| {
        for i in ops {
            if work.op(i, &mut untraced).is_err() {
                progress.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    run(0..cfg.warmup_ops);
    shared.sync.wait();
    let timed_ops = shared.timed_ops.load(Ordering::SeqCst);
    shared.sync.wait();
    run(cfg.warmup_ops..cfg.warmup_ops + timed_ops);
    shared.sync.wait();
    shared.sync.wait();
    work.teardown()
}

fn run_job(cfg: &RoundCfg, progress: &Arc<Progress>) -> Result<Measured, String> {
    let launcher = Launcher::new(SimTestbed::tiny(NP, 1));
    let obs = launcher.universe().fabric().obs();
    let baseline = Levels::read(&obs);
    let shared = Arc::new(Shared {
        sync: Barrier::new(NP as usize),
        timed_ops: AtomicU64::new(0),
    });
    let (cfg_in, progress_in) = (*cfg, progress.clone());
    let ranks = launcher
        .spawn(JobSpec::new(NP), move |ctx| {
            if ctx.rank() == 0 {
                measure(&ctx, &cfg_in, &shared, &progress_in).map(Some)
            } else {
                follow(&ctx, &cfg_in, &shared, &progress_in).map(|()| None)
            }
        })
        .join()?;
    let drain = Levels::read(&obs).drained(baseline);
    let mut measured = None;
    for rank in ranks {
        measured = measured.or(rank?);
    }
    let measured = measured.ok_or("rank 0 returned no measurement")?;
    Ok(Measured { drain, ..measured })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, traced: bool) -> Round {
        let cfg = RoundCfg {
            workload,
            seed: 7,
            traced,
            warmup_ops: 3,
            budget: Budget::Ops(20),
            started: Instant::now(),
        };
        run_round(&cfg, &Arc::new(Progress::default()))
            .expect("round runs")
            .0
    }

    #[test]
    fn every_workload_runs_clean_and_verifies() {
        for w in Workload::ALL {
            let r = smoke(w, false);
            assert_eq!((r.failed, r.first_error.clone()), (0, None), "{}", w.name());
            assert_eq!((r.timed_ops, r.samples), (20, 20));
            assert_eq!(r.attempted, 3 + 20 + 1, "warm-up + timed + drain check");
            assert!(r.wall_s > 0.0 && r.setup_s > 0.0 && r.op_us_p50 > 0.0 && r.peak_rss_mb > 0.0);
            assert!(
                r.calls.is_empty() && r.per_op.is_empty(),
                "untraced rounds carry no layer data"
            );
        }
    }

    #[test]
    fn traced_churn_attributes_nearly_all_op_time_and_counts_exactly() {
        let a = smoke(Workload::SessionChurn, true);
        assert!(
            a.residual_share >= 0.0 && a.residual_share < 0.10,
            "{}",
            a.residual_share
        );
        for name in [
            "core.session.init_us",
            "core.cid.dup_pgcid_us",
            "core.coll.allreduce_first_us",
        ] {
            assert!(a.calls[name] > 0.0, "{name}");
        }
        assert!(a.per_op["pmix.group_constructs_per_op"] > 0.0);
        assert!(a.per_op["obs.spans_per_op"] > 0.0);
        // Fixed op counts: a second round repeats every count exactly. (Bytes
        // too between processes; within one, the job counter in the
        // namespace name grows a digit.)
        let mut b = smoke(Workload::SessionChurn, true).per_op;
        b.insert(
            "simnet.bytes_per_op".into(),
            a.per_op["simnet.bytes_per_op"],
        );
        assert_eq!(a.per_op, b);
    }

    #[test]
    fn traced_cold_init_chains_rank_zero_end_to_end() {
        let r = smoke(Workload::InitCold, true);
        assert!(r.residual_share.abs() < 0.02, "{}", r.residual_share);
        assert!(r.calls["prrte.launch_us"] > 0.0 && r.calls["prrte.join_teardown_us"] > 0.0);
        assert!(r.per_op["pmix.group_constructs_per_op"] > 0.0);
    }

    #[test]
    fn seconds_budget_sets_the_op_count_from_the_warm_up_rate() {
        let took = Duration::from_millis(500);
        assert_eq!(Budget::Seconds(2.0).timed_ops(100, took), 400);
        assert_eq!(Budget::Seconds(0.0).timed_ops(100, took), 1);
        assert_eq!(Budget::Ops(9).timed_ops(100, took), 9);
    }

    #[test]
    fn counter_delta_per_op_divides_exactly() {
        assert_eq!(counter_delta_per_op(130, 2), 65.0);
        assert_eq!(counter_delta_per_op(0, 10), 0.0);
        assert_eq!(counter_delta_per_op(7, 0), 7.0);
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        assert_eq!(seeded_payload(3, 64), seeded_payload(3, 64));
        assert_ne!(seeded_payload(3, 64), seeded_payload(4, 64));
        assert_eq!(seeded_payload(3, 64 * 1024).len(), 64 * 1024);
        assert_ne!(contribution(1, 5, 0), contribution(2, 5, 0));
        let p = seeded_payload(9, 32);
        assert_eq!(
            checksum(&p),
            checksum(&p[..8]).wrapping_add(checksum(&p[8..]))
        );
    }
}
