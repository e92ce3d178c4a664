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

use apps::{cli_flag, cli_opt, InitMode};
use bench_harness::{dump_json, parse_list, settled_export, MetricsSink, TraceSink};
use prrte::{JobSpec, Launcher};
use serde::Serialize;
use simnet::SimTestbed;
use std::time::Instant;

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

/// Time `iters` dup operations on a fresh job; returns µs per dup
/// (max across ranks).
fn write_pgcid_block(launcher: &Launcher, block: u64) {
    let obs = launcher.universe().fabric().obs();
    obs.cvar_write("universe", "pmix.pgcid_block", obs::CvarValue::U64(block)).expect("cvar");
}

fn time_dups(
    tb: SimTestbed,
    np: u32,
    mode: InitMode,
    iters: usize,
    derive: bool,
    want_trace: bool,
    pgcid_block: Option<u64>,
) -> (f64, serde_json::Value, serde_json::Value) {
    let launcher = Launcher::new(tb);
    if let Some(block) = pgcid_block {
        write_pgcid_block(&launcher, block);
    }
    let per_rank = launcher
        .spawn(JobSpec::new(np), move |ctx| {
            let (session, comm) = apps::osu::bench_comm(&ctx, mode, "fig4");
            let t0 = Instant::now();
            let mut dups = Vec::with_capacity(iters);
            for _ in 0..iters {
                let d = match (mode, derive) {
                    (InitMode::Wpm, _) => comm.dup().expect("consensus dup"),
                    (InitMode::Sessions | InitMode::Lazy, false) => {
                        comm.dup_via_group().expect("pgcid dup")
                    }
                    (InitMode::Sessions | InitMode::Lazy, true) => {
                        comm.dup().expect("derived dup")
                    }
                };
                dups.push(d);
            }
            let elapsed = t0.elapsed();
            for d in dups {
                d.free().expect("free");
            }
            comm.free().expect("free");
            if let Some(s) = session {
                s.finalize().expect("fini");
            }
            elapsed.as_secs_f64() * 1e6 / iters as f64
        })
        .join()
        .expect("fig4 job");
    let registry = launcher.universe().fabric().obs();
    let metrics = settled_export(&launcher);
    let trace = if want_trace {
        obs::analyze::analyze(&registry.spans_snapshot(), registry.spans_dropped())
    } else {
        serde_json::Value::Null
    };
    (per_rank.into_iter().fold(0.0, f64::max), metrics, trace)
}

/// Time `iters` *overlapped* dups on a fresh job: every `idup_via_group`
/// request is issued before any is claimed, so the PGCID acquisitions
/// pipeline instead of serializing. Returns µs per dup (max across ranks).
fn time_idups(
    tb: SimTestbed,
    np: u32,
    iters: usize,
    want_trace: bool,
    pgcid_block: Option<u64>,
) -> (f64, serde_json::Value, serde_json::Value) {
    let launcher = Launcher::new(tb);
    if let Some(block) = pgcid_block {
        write_pgcid_block(&launcher, block);
    }
    let per_rank = launcher
        .spawn(JobSpec::new(np), move |ctx| {
            let (session, comm) = apps::osu::bench_comm(&ctx, InitMode::Sessions, "fig4-nb");
            let t0 = Instant::now();
            let reqs: Vec<_> =
                (0..iters).map(|_| comm.idup_via_group().expect("dup issue")).collect();
            let dups: Vec<_> =
                reqs.into_iter().map(|r| r.wait().expect("dup wait")).collect();
            let elapsed = t0.elapsed();
            for d in dups {
                d.free().expect("free");
            }
            comm.free().expect("free");
            if let Some(s) = session {
                s.finalize().expect("fini");
            }
            elapsed.as_secs_f64() * 1e6 / iters as f64
        })
        .join()
        .expect("fig4 nonblocking job");
    let registry = launcher.universe().fabric().obs();
    let metrics = settled_export(&launcher);
    let trace = if want_trace {
        obs::analyze::analyze(&registry.spans_snapshot(), registry.spans_dropped())
    } else {
        serde_json::Value::Null
    };
    (per_rank.into_iter().fold(0.0, f64::max), metrics, trace)
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
    if nonblocking {
        println!(
            "{:>6} {:>6} {:>16} {:>18} {:>18} {:>18} {:>8}",
            "nodes", "np", "MPI_Init (us)", "Sessions/PGCID", "Sessions/derived",
            "Sessions/overlap", "ratio"
        );
    } else {
        println!(
            "{:>6} {:>6} {:>16} {:>18} {:>18} {:>8}",
            "nodes", "np", "MPI_Init (us)", "Sessions/PGCID", "Sessions/derived", "ratio"
        );
    }
    let mut sink = MetricsSink::from_args(&args);
    let mut traces = TraceSink::from_args(&args);
    let want_trace = traces.enabled();
    let mut rows = Vec::new();
    for &nodes in &nodes_list {
        let mk_tb = || {
            let mut tb = SimTestbed::jupiter(nodes);
            tb.cluster.slots_per_node = ppn;
            tb
        };
        let np = nodes * ppn;
        let (wpm, wpm_m, wpm_t) =
            time_dups(mk_tb(), np, InitMode::Wpm, iters, false, want_trace, pgcid_block);
        let (sess, sess_m, sess_t) =
            time_dups(mk_tb(), np, InitMode::Sessions, iters, false, want_trace, pgcid_block);
        let (derived, derived_m, derived_t) =
            time_dups(mk_tb(), np, InitMode::Sessions, iters, true, want_trace, pgcid_block);
        let nb = nonblocking.then(|| {
            let (nb, nb_m, nb_t) = time_idups(mk_tb(), np, iters, want_trace, pgcid_block);
            sink.record(&format!("nodes{nodes}_sessions_overlap"), nb_m);
            traces.record(&format!("nodes{nodes}_sessions_overlap"), nb_t);
            nb
        });
        sink.record(&format!("nodes{nodes}_wpm_consensus"), wpm_m);
        sink.record(&format!("nodes{nodes}_sessions_pgcid"), sess_m);
        sink.record(&format!("nodes{nodes}_sessions_derived"), derived_m);
        traces.record(&format!("nodes{nodes}_wpm_consensus"), wpm_t);
        traces.record(&format!("nodes{nodes}_sessions_pgcid"), sess_t);
        traces.record(&format!("nodes{nodes}_sessions_derived"), derived_t);
        let ratio = sess / wpm;
        if let Some(nb) = nb {
            println!(
                "{:>6} {:>6} {:>16.2} {:>18.2} {:>18.2} {:>18.2} {:>8.2}",
                nodes, np, wpm, sess, derived, nb, ratio
            );
        } else {
            println!(
                "{:>6} {:>6} {:>16.2} {:>18.2} {:>18.2} {:>8.2}",
                nodes, np, wpm, sess, derived, ratio
            );
        }
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
    traces.finish();
}
