//! Isolated layer probes: each times one public entry point of one layer
//! from outside, away from any workload, so a per-layer number exists
//! even where no workload's op calls the function directly. The probe pass
//! also runs a short traced round of every workload, so that each span
//! name has a value on every workload (see [`run`]).

use crate::trace::{in_unit_of, Progress};
use crate::workloads::{self, check, s, world_comm, Budget, RoundCfg, Workload, NP};
use bytes::Bytes;
use mpi_sessions::info::keys::INIT_MODE;
use mpi_sessions::session::PSET_WORLD;
use mpi_sessions::{Comm, ErrHandler, Info, Session, ThreadLevel};
use pmix::{GroupDirectives, PmixUniverse, ProcId};
use prrte::{JobSpec, Launcher, ProcCtx};
use simnet::{CostModel, Fabric, NodeId, SimTestbed};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Metrics = BTreeMap<String, f64>;

/// Accumulated time of repeated calls, by metric name.
#[derive(Default)]
struct Timers(BTreeMap<&'static str, (Duration, u32)>);

impl Timers {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    fn add(&mut self, name: &'static str, d: Duration) {
        let (total, calls) = self.0.entry(name).or_default();
        *total += d;
        *calls += 1;
    }

    /// Mean per call, in the unit each name ends with.
    fn into_metrics(self) -> Metrics {
        self.0
            .into_iter()
            .map(|(name, (total, calls))| {
                let mean_ns = total.as_nanos() as f64 / f64::from(calls);
                (name.to_owned(), in_unit_of(name, mean_ns))
            })
            .collect()
    }
}

/// Mean ns per call of `f` over `iters` calls, after `iters / 10` unmeasured.
fn mean_ns(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    for i in 0..iters / 10 {
        f(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn tiny() -> SimTestbed {
    SimTestbed::tiny(NP, 1)
}

// ---------------------------------------------------------------------------
// simnet
// ---------------------------------------------------------------------------

fn simnet(out: &mut Metrics) -> Result<(), String> {
    let mut boot = Timers::default();
    for _ in 0..200 {
        let fabric = boot.time("simnet.fabric_boot_us", || {
            let fabric = Fabric::new(CostModel::zero());
            black_box((fabric.register(NodeId(0)), fabric.register(NodeId(1))));
            fabric
        });
        drop(fabric);
    }
    out.extend(boot.into_metrics());

    let fabric = Fabric::new(CostModel::zero());
    let (a, b) = (fabric.register(NodeId(0)), fabric.register(NodeId(1)));
    // A fabric message owns its payload: building it is part of sending.
    for (name, size, iters) in [
        ("simnet.send_recv_8b_ns", 8, 200_000),
        ("simnet.send_recv_64k_ns", 64 * 1024, 20_000),
    ] {
        let buf = vec![0x5a_u8; size];
        let mut lost = 0_u32;
        let ns = mean_ns(iters, |_| {
            let sent = a.send(b.id(), Bytes::copy_from_slice(&buf)).is_ok();
            match b.try_recv() {
                Ok(env) if sent && env.payload.len() == size => {}
                _ => lost += 1,
            }
        });
        check(lost == 0, || {
            format!("{name}: {lost} messages lost on a bare fabric")
        })?;
        out.insert(name.into(), ns);
    }

    // Two threads, one blocked in `recv` at any time: a send wakes the peer.
    let (a_id, b_id) = (a.id(), b.id());
    let echo = std::thread::spawn(move || {
        while let Ok(env) = b.recv() {
            if env.payload.is_empty() || b.send(a_id, env.payload).is_err() {
                break;
            }
        }
    });
    let ping = Bytes::copy_from_slice(&[1_u8; 8]);
    let mut lost = 0_u32;
    let round_trip_ns = mean_ns(50_000, |_| {
        if a.send(b_id, ping.clone()).is_err() || a.recv().is_err() {
            lost += 1;
        }
    });
    s(a.send(b_id, Bytes::new()))?;
    echo.join().map_err(|_| "echo thread panicked")?;
    check(lost == 0, || {
        format!("simnet.handoff_us: {lost} round trips lost")
    })?;
    out.insert("simnet.handoff_us".into(), round_trip_ns / 2.0 / 1e3);
    Ok(())
}

// ---------------------------------------------------------------------------
// pmix, through `ctx.pmix()` in a warm np = 2 job
// ---------------------------------------------------------------------------

const PROBE_PSET: &str = "probe://pair";

fn pmix_rank(ctx: &ProcCtx) -> Result<Metrics, String> {
    let pmix = ctx.pmix();
    let procs: Vec<ProcId> = (0..NP)
        .map(|r| ProcId::new(ctx.proc().nspace(), r))
        .collect();
    let peer = &procs[(1 - ctx.rank()) as usize];
    let mut t = Timers::default();
    for i in 0..220_u64 {
        if i == 20 {
            t = Timers::default(); // the first 20 rounds go unmeasured
        }
        s(t.time("pmix.fence_us", || pmix.fence(&procs, true)))?;
        let key = format!("probe-{i}");
        let got = s(t.time("pmix.put_commit_get_us", || {
            pmix.put(&key, i);
            pmix.commit();
            pmix.get(peer, &key)
        }))?;
        check(got.as_u64() == Some(i), || {
            format!("get({key}) returned {got:?}")
        })?;
        let with_pgcid = GroupDirectives::for_mpi();
        let name = format!("probe-pgcid-{i}");
        let group = s(t.time("pmix.group_construct_pgcid_us", || {
            pmix.group_construct(&name, &procs, &with_pgcid)
        }))?;
        check(
            group.pgcid().is_some() && group.size() == NP as usize,
            || format!("bad group {group:?}"),
        )?;
        s(t.time("pmix.group_destruct_us", || {
            pmix.group_destruct(&group, None)
        }))?;
        let without = GroupDirectives::for_mpi().without_pgcid();
        let name = format!("probe-plain-{i}");
        let group = s(t.time("pmix.group_construct_plain_us", || {
            pmix.group_construct(&name, &procs, &without)
        }))?;
        check(group.pgcid().is_none(), || {
            format!("plain group got a PGCID: {group:?}")
        })?;
        s(t.time("pmix.group_destruct_us", || {
            pmix.group_destruct(&group, None)
        }))?;
        let members = s(t.time("pmix.query_pset_us", || {
            pmix.query_pset_membership(PROBE_PSET)
        }))?;
        check(members == procs, || {
            format!("{PROBE_PSET} has members {members:?}")
        })?;
    }
    Ok(t.into_metrics())
}

fn rank0<T>(ranks: Vec<Result<T, String>>) -> Result<T, String> {
    let mut first = None;
    for rank in ranks {
        let value = rank?;
        first.get_or_insert(value);
    }
    first.ok_or_else(|| "job returned no ranks".to_owned())
}

fn pmix_probe(out: &mut Metrics) -> Result<(), String> {
    let mut boot = Timers::default();
    for _ in 0..100 {
        let universe: Arc<PmixUniverse> =
            boot.time("pmix.universe_boot_us", || PmixUniverse::new(tiny()));
        drop(universe);
    }
    out.extend(boot.into_metrics());
    let launcher = Launcher::new(tiny());
    let spec = JobSpec::new(NP).with_pset(PROBE_PSET, (0..NP).collect());
    out.extend(rank0(launcher.spawn(spec, |ctx| pmix_rank(&ctx)).join()?)?);
    Ok(())
}

// ---------------------------------------------------------------------------
// prrte and the Fig. 3 init paths: one fresh DVM + job per sample
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum InitPath {
    Wpm,
    Eager,
    Lazy,
}

impl InitPath {
    fn metric(self) -> &'static str {
        match self {
            InitPath::Wpm => "core.world.init_us",
            InitPath::Eager => "core.session.init_eager_us",
            InitPath::Lazy => "core.session.init_lazy_us",
        }
    }
}

/// Time from entering the rank to holding a usable world communicator.
fn init_to_comm(ctx: &ProcCtx, path: InitPath) -> Result<Duration, String> {
    let start = Instant::now();
    match path {
        InitPath::Wpm => {
            let world = s(mpi_sessions::world::init(ctx))?;
            let took = start.elapsed();
            check(world.size() == NP, || {
                format!("MPI_COMM_WORLD has {} ranks", world.size())
            })?;
            s(world.finalize())?;
            Ok(took)
        }
        InitPath::Eager | InitPath::Lazy => {
            let info = Info::new();
            if matches!(path, InitPath::Lazy) {
                info.set(INIT_MODE, "lazy");
            }
            let session = s(Session::init(
                ctx,
                ThreadLevel::Single,
                ErrHandler::Return,
                &info,
            ))?;
            let group = s(session.group_from_pset(PSET_WORLD))?;
            let comm = s(Comm::create_from_group(&group, "probe-init"))?;
            let took = start.elapsed();
            check(comm.size() == NP, || {
                format!("sessions comm has {} ranks", comm.size())
            })?;
            s(comm.free())?;
            s(session.finalize())?;
            Ok(took)
        }
    }
}

fn launch_probe(out: &mut Metrics) -> Result<(), String> {
    let mut t = Timers::default();
    // The three paths take turns, so drift on the host hits them alike.
    for i in 0..150 {
        let path = [InitPath::Wpm, InitPath::Eager, InitPath::Lazy][i % 3];
        let start = Instant::now();
        let launcher = Launcher::new(tiny());
        let ranks = launcher
            .spawn(JobSpec::new(NP), move |ctx| {
                let entered = Instant::now();
                init_to_comm(&ctx, path).map(|took| (entered, took, Instant::now()))
            })
            .join()?;
        drop(launcher);
        let end = Instant::now();
        let ranks = ranks.into_iter().collect::<Result<Vec<_>, _>>()?;
        let first_in = ranks.iter().map(|r| r.0).min().ok_or("no ranks")?;
        let last_out = ranks.iter().map(|r| r.2).max().ok_or("no ranks")?;
        t.add("prrte.launch_us", first_in - start);
        t.add("prrte.join_teardown_us", end - last_out);
        t.add(path.metric(), ranks[0].1);
    }
    out.extend(t.into_metrics());
    Ok(())
}

// ---------------------------------------------------------------------------
// core: consensus dup on a WPM communicator, first message on a fresh exCID
// ---------------------------------------------------------------------------

fn core_rank(ctx: &ProcCtx) -> Result<Metrics, String> {
    let world = s(mpi_sessions::world::init(ctx))?;
    let mut t = Timers::default();
    for _ in 0..200 {
        let dup = s(t.time("core.cid.dup_consensus_us", || world.comm().dup_consensus()))?;
        s(dup.free())?;
    }
    let (session, comm) = world_comm(ctx, "probe-core")?;
    let peer = 1 - comm.rank();
    for _ in 0..50 {
        // A PGCID dup: its exCID is new every time. (A derived dup recycles
        // the exCID of the one freed before it, and this much two-way
        // traffic on a recycled exCID deadlocks the PML from the fourth
        // dup on: rank 1 never matches rank 0's hundredth message.)
        let dup = s(comm.dup_via_group())?;
        let exchange = || -> Result<(), String> {
            let (echo, _) = s(dup.sendrecv(peer, 0, b"probe", peer as i32, 0))?;
            check(echo == b"probe", || format!("sendrecv returned {echo:?}"))
        };
        t.time("core.pml.first_msg_us", exchange)?;
        for _ in 0..98 {
            exchange()?;
        }
        t.time("core.pml.steady_rt_us", exchange)?;
        s(dup.free())?;
    }
    s(comm.free())?;
    s(session.finalize())?;
    s(world.finalize())?;
    Ok(t.into_metrics())
}

fn core_probe(out: &mut Metrics) -> Result<(), String> {
    let launcher = Launcher::new(tiny());
    out.extend(rank0(
        launcher
            .spawn(JobSpec::new(NP), |ctx| core_rank(&ctx))
            .join()?,
    )?);
    Ok(())
}

// ---------------------------------------------------------------------------
// obs: what one span, counter increment and event cost by themselves
// ---------------------------------------------------------------------------

fn obs_probe(out: &mut Metrics) {
    let registry = obs::Registry::new();
    // Below the span buffer's capacity, as in a one-second churn round.
    out.insert(
        "obs.span_ns".into(),
        mean_ns(40_000, |_| registry.span("probe", "probe.span", "k").end()),
    );
    let counter = registry.counter("probe", "probe", "hits");
    out.insert(
        "obs.counter_inc_ns".into(),
        mean_ns(1_000_000, |_| counter.inc()),
    );
    black_box(counter.get());
    out.insert(
        "obs.event_ns".into(),
        mean_ns(40_000, |i| {
            registry.event(
                "probe",
                "probe",
                "probe.event",
                vec![("i".into(), u64::from(i).into())],
            )
        }),
    );
}

// ---------------------------------------------------------------------------

/// A short traced round of every workload: `(warm-up, timed)` ops.
fn mini_ops(workload: Workload) -> (u64, u64) {
    match workload {
        Workload::InitCold => (20, 100),
        Workload::SessionChurn => (30, 150),
        Workload::P2pPingpong => (2_000, 20_000),
        Workload::P2pStream8b => (200, 1_000),
        Workload::P2pStream64k => (20, 100),
    }
}

/// Run every probe. Span-derived metrics (`core.session.init_us`, …) come
/// from a short traced round of each workload, later workloads overriding
/// earlier ones where a name is shared; the driver overrides them again
/// with the selected workload's own traced rounds. A workload that never
/// makes a call therefore still reports the call's cost — as context
/// measured on the workload that does, not as attribution.
pub fn run(seed: u64) -> Result<Metrics, String> {
    let mut out = Metrics::new();
    simnet(&mut out)?;
    pmix_probe(&mut out)?;
    launch_probe(&mut out)?;
    core_probe(&mut out)?;
    obs_probe(&mut out);
    for workload in Workload::ALL.into_iter().rev() {
        let (warmup_ops, timed_ops) = mini_ops(workload);
        let cfg = RoundCfg {
            workload,
            seed,
            traced: true,
            warmup_ops,
            budget: Budget::Ops(timed_ops),
            started: Instant::now(),
        };
        let (round, _) = workloads::run_round(&cfg, &Arc::new(Progress::default()))?;
        check(round.failed == 0, || {
            format!(
                "probe round of {}: {} ops failed: {:?}",
                workload.name(),
                round.failed,
                round.first_error
            )
        })?;
        out.extend(round.calls);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_report_the_mean_in_the_unit_of_the_name() {
        let mut t = Timers::default();
        for name in ["a_us", "b_ns"] {
            t.add(name, Duration::from_nanos(1_000));
            t.add(name, Duration::from_nanos(3_000));
        }
        assert_eq!(t.time("c_us", || 5), 5);
        let m = t.into_metrics();
        assert_eq!((m["a_us"], m["b_ns"]), (2.0, 2_000.0));
        assert!(m["c_us"] >= 0.0);
    }

    #[test]
    fn every_probe_reports_a_positive_time() {
        let out = run(3).expect("probes run");
        for (name, value) in &out {
            assert!(*value > 0.0, "{name} = {value}");
        }
    }
}
