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

use apps::run::Job;
use apps::workload::elastic_churn;
use bench_harness::{dump_json, Sink};
use simnet::SimTestbed;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (run, rows) = elastic_churn(Job::new(SimTestbed::tiny(2, 4)));

    println!("# Elastic sessions: time for every member to rejoin the rebuilt comm");
    println!("{:>14} {:>6} {:>8} {:>14}", "phase", "epoch", "members", "rebuild (us)");
    for r in &rows {
        println!("{:>14} {:>6} {:>8} {:>14.1}", r.phase, r.epoch, r.members, r.rebuild_us);
    }
    let registry = run.registry();
    println!(
        "\n# {} communicator rebuilds across 4 epochs; {} handshake-cache entries \
         invalidated for departed peers",
        registry.sum_counters("session", "rebuilds"),
        registry.sum_counters("pml", "cache_invalidated")
    );

    let mut sink = Sink::from_args(&args);
    sink.record("elastic_churn", &run);
    sink.finish();
    dump_json("fig_elastic", &rows);
}
