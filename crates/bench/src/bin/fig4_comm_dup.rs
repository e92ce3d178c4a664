//! Fig. 4 regenerator: per-iteration `MPI_Comm_dup` time vs. node count
//! for the two initialization paths.
//!
//! * baseline (`MPI_Init`): the legacy consensus CID algorithm;
//! * sessions: the prototype behavior measured in the paper — each dup
//!   acquires a fresh PGCID through PMIx (`dup_via_group`);
//! * bonus column: the exCID local-derivation dup, the design the paper
//!   argues amortizes PGCID acquisition ("more communicators could be
//!   created before needing to request a new PGCID").
//!
//! Usage: `fig4_comm_dup [--nodes 1,2,4,8] [--ppn 8] [--iters 16] [--paper]
//!                       [--pgcid-block 8] [--nonblocking]
//!                       [--metrics-out <path>] [--trace-out <path>]`
//! (`--pgcid-block 1` disables the resource manager's PGCID block grants,
//! restoring the paper prototype's one-RM-round-trip-per-dup behavior;
//! the default block of 8 amortizes that trip and pulls the small-scale
//! sessions/consensus ratio under 1.)
//! (`--nonblocking` adds an overlapped column: all `iters` dups are issued
//! up front as `idup_via_group` setup requests and then claimed, so their
//! PGCID demands pipeline through the runtime's coalescer instead of
//! paying one serialized round trip each. Most interesting together with
//! `--pgcid-block 1`, where the blocking column pays the full per-dup trip
//! the overlap hides.)
//! (`--metrics-out` dumps per-run observability exports: `cid.refills` vs
//! `cid.derivations`, PMIx group stage counters, consensus rounds.
//! `--trace-out` dumps per-run causal span-DAG traces whose critical paths
//! show the consensus rounds vs the PMIx stage chain vs local derivation.)

use apps::run::{Job, Run};
use apps::workload::{dup_chain, DupKind};
use bench_harness::{cli_flag, cli_opt, dump_json, parse_list, Sink};
use serde::Serialize;
use simnet::SimTestbed;

#[derive(Serialize)]
struct Row {
    nodes: u32,
    np: u32,
    wpm_dup_us: f64,
    sessions_dup_us: f64,
    derived_dup_us: f64,
    ratio: f64,
    /// Overlapped `idup_via_group` column; `null` unless `--nonblocking`.
    nonblocking_dup_us: Option<f64>,
}

/// The slowest rank's µs per dup.
fn slowest(run: &Run<f64>) -> f64 {
    run.ranks.iter().copied().fold(0.0, f64::max)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes_list =
        parse_list(&cli_opt(&args, "--nodes").unwrap_or_else(|| "1,2,4,8".into()));
    let ppn: u32 = cli_opt(&args, "--ppn")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cli_flag(&args, "--paper") { 28 } else { 8 });
    let iters: usize = cli_opt(&args, "--iters").and_then(|v| v.parse().ok()).unwrap_or(16);
    let pgcid_block: Option<u64> = cli_opt(&args, "--pgcid-block").and_then(|v| v.parse().ok());
    let nonblocking = cli_flag(&args, "--nonblocking");

    println!("# Fig. 4: MPI_Comm_dup time per iteration, {ppn} processes/node");
    // The overlap column is printed only with --nonblocking.
    let overlap_col = |v: Option<String>| v.map(|v| format!(" {v:>18}")).unwrap_or_default();
    println!(
        "{:>6} {:>6} {:>16} {:>18} {:>18}{} {:>8}",
        "nodes",
        "np",
        "MPI_Init (us)",
        "Sessions/PGCID",
        "Sessions/derived",
        overlap_col(nonblocking.then(|| "Sessions/overlap".into())),
        "ratio"
    );
    let mut sink = Sink::from_args(&args);
    let mut rows = Vec::new();
    for &nodes in &nodes_list {
        let np = nodes * ppn;
        let mut chain = |label: &str, kind| {
            let mut tb = SimTestbed::jupiter(nodes);
            tb.cluster.slots_per_node = ppn;
            let mut job = Job::new(tb);
            if let Some(block) = pgcid_block {
                job = job.cvar("pmix.pgcid_block", obs::CvarValue::U64(block));
            }
            let run = dup_chain(job, np, kind, iters);
            sink.record(&format!("nodes{nodes}_{label}"), &run);
            slowest(&run)
        };
        let wpm = chain("wpm_consensus", DupKind::Consensus);
        let sess = chain("sessions_pgcid", DupKind::PgcidPerDup);
        let derived = chain("sessions_derived", DupKind::Derived);
        let nb = nonblocking.then(|| chain("sessions_overlap", DupKind::Overlapped));
        let ratio = sess / wpm;
        println!(
            "{:>6} {:>6} {:>16.2} {:>18.2} {:>18.2}{} {:>8.2}",
            nodes,
            np,
            wpm,
            sess,
            derived,
            overlap_col(nb.map(|v| format!("{v:.2}"))),
            ratio
        );
        rows.push(Row {
            nodes,
            np,
            wpm_dup_us: wpm,
            sessions_dup_us: sess,
            derived_dup_us: derived,
            ratio,
            nonblocking_dup_us: nb,
        });
    }
    println!(
        "\n# Paper shape: sessions dup (one PGCID acquisition per dup) is slower than the\n\
         # consensus baseline and the gap grows with node count; exCID derivation\n\
         # (last column) removes the per-dup runtime round trip entirely."
    );
    if nonblocking {
        println!(
            "# Overlap column: issuing all {iters} dups as requests before claiming any\n\
             # pipelines the PGCID acquisitions through the runtime's coalescer — the\n\
             # round trips that serialize the blocking PGCID column overlap instead."
        );
    }
    dump_json("fig4_comm_dup", &rows);
    sink.finish();
}
