//! Elastic-session workload: rebuild latency through pset churn.
//!
//! The Sessions model makes process sets runtime-owned, so membership can
//! change while the job runs. This workload drives the full churn sequence
//! — grow 4→8 ranks, kill one, retire one gracefully, delete the pset —
//! and reports, per epoch, how long it takes **every** surviving rank to
//! come back with a rebuilt communicator (driver-observed wall time from
//! the mutation to the last collective ack on the new comm).
//!
//! Usage: `fig_elastic [--metrics-out <path>] [--trace-out <path>]`
//! (`--metrics-out` dumps the obs export — `session.rebuilds`,
//! `prrte.ranks_grown`/`ranks_retired`, `pml.cache_invalidated`;
//! `--trace-out` dumps the causal span DAG whose `pset.update →
//! session.rebuild` chains carry the rebuild critical path.)

use bench_harness::dump_json;
use mpi_sessions::{coll, ElasticComm, ErrHandler, Info, Rebuild, ReduceOp, Session, ThreadLevel};
use prrte::{JobSpec, Launcher};
use serde::Serialize;
use simnet::SimTestbed;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const PSET: &str = "app://elastic";
const STEP: Duration = Duration::from_secs(30);

#[derive(Serialize)]
struct Row {
    phase: &'static str,
    epoch: u64,
    members: u32,
    rebuild_us: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let launcher = Launcher::new(SimTestbed::tiny(2, 4));
    let (tx, rx) = mpsc::channel::<(u32, u64, u32)>();
    let spec = JobSpec::new(4).with_pset(PSET, vec![0, 1, 2, 3]);
    let handle = launcher.spawn_named("elastic", spec, move |ctx| {
        let session =
            Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
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
    });
    let ctl = handle.ctl();

    let settle = |n: u32, epoch: u64| {
        let t0 = Instant::now();
        for _ in 0..n {
            let (rank, e, s) = rx.recv_timeout(STEP).expect("ack before timeout");
            assert_eq!((e, s), (epoch, n), "rank {rank} settled on the wrong epoch");
        }
        t0.elapsed().as_secs_f64() * 1e6
    };

    let mut rows = Vec::new();
    rows.push(Row { phase: "establish", epoch: 1, members: 4, rebuild_us: settle(4, 1) });
    ctl.spawn_ranks(4, Some(PSET));
    rows.push(Row { phase: "grow_4to8", epoch: 2, members: 8, rebuild_us: settle(8, 2) });
    handle.kill_rank(7);
    rows.push(Row { phase: "kill_rank7", epoch: 3, members: 7, rebuild_us: settle(7, 3) });
    ctl.retire_ranks(&[6], Some(PSET)).expect("retire");
    rows.push(Row { phase: "retire_rank6", epoch: 4, members: 6, rebuild_us: settle(6, 4) });
    launcher.universe().registry().undefine_pset(PSET);
    handle.join().expect("elastic job");

    println!("# Elastic sessions: time for every member to rejoin the rebuilt comm");
    println!("{:>14} {:>6} {:>8} {:>14}", "phase", "epoch", "members", "rebuild (us)");
    for r in &rows {
        println!("{:>14} {:>6} {:>8} {:>14.1}", r.phase, r.epoch, r.members, r.rebuild_us);
    }

    let registry = launcher.universe().fabric().obs();
    let rebuilds = registry.sum_counters("session", "rebuilds");
    let invalidated = registry.sum_counters("pml", "cache_invalidated");
    println!(
        "\n# {} communicator rebuilds across 4 epochs; {} handshake-cache entries \
         invalidated for departed peers",
        rebuilds, invalidated
    );
    assert_eq!(rebuilds, 4 + 8 + 7 + 6, "one rebuild per member per epoch");
    assert!(invalidated > 0, "departed peers must be evicted from the PML cache");
    // The killed and retired ranks must not ack the final epoch.
    assert!(
        rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "no stragglers past the final epoch"
    );

    let mut sink = bench_harness::MetricsSink::from_args(&args);
    sink.record("elastic_churn", bench_harness::settled_export(&launcher));
    sink.finish();
    let mut traces = bench_harness::TraceSink::from_args(&args);
    if traces.enabled() {
        traces.record(
            "elastic_churn",
            obs::analyze::analyze(&registry.spans_snapshot(), registry.spans_dropped()),
        );
    }
    traces.finish();
    dump_json("fig_elastic", &rows);
}
