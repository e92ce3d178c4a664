//! Fig. 3 regenerator: MPI initialization time vs. node count, for
//! `MPI_Init` and the MPI Sessions sequence, at 1 process/node (Fig. 3a)
//! and many processes/node (Fig. 3b), including the session-phase
//! breakdown the paper quotes in §IV-C1.
//!
//! Usage: `fig3_init [--nodes 1,2,4,8] [--ppn-list 1,8] [--reps 3] [--paper]
//!                   [--metrics-out <path>] [--trace-out <path>]`
//! (`--paper` uses the full 28 processes/node of the Jupiter runs; heavy
//! on a small host. `--metrics-out` dumps each best run's observability
//! export — including the session-handle vs resource-init timing split.
//! `--trace-out` dumps each best run's causal span-DAG trace report with
//! its critical path, plus a flamegraph text rendering.)

use apps::osu::osu_init;
use apps::InitMode;
use bench_harness::{best_of, cli_flag, cli_opt, dump_json, parse_list, Sink};
use serde::Serialize;
use simnet::SimTestbed;

#[derive(Serialize)]
struct Row {
    ppn: u32,
    nodes: u32,
    np: u32,
    wpm_ms: f64,
    sessions_ms: f64,
    ratio: f64,
    session_init_frac: f64,
    comm_create_frac: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes_list =
        parse_list(&cli_opt(&args, "--nodes").unwrap_or_else(|| "1,2,4,8".into()));
    let default_ppn = if cli_flag(&args, "--paper") { "1,28" } else { "1,8" };
    let ppn_list =
        parse_list(&cli_opt(&args, "--ppn-list").unwrap_or_else(|| default_ppn.into()));
    let reps: usize = cli_opt(&args, "--reps").and_then(|v| v.parse().ok()).unwrap_or(3);

    // Paper-like startup magnitudes: MPI_Init's absolute time was dominated
    // by loading components from slow NFS — model that as a per-subsystem
    // first-init cost (WPM initializes every subsystem eagerly; a bare
    // session initializes the minimal set).
    let load_us: u64 =
        cli_opt(&args, "--load-cost-us").and_then(|v| v.parse().ok()).unwrap_or(200);
    mpi_sessions::instance::set_subsystem_init_cost(std::time::Duration::from_micros(load_us));

    println!("# Fig. 3: MPI initialization times (simulated Jupiter cost model)");
    println!("# per-subsystem component-load cost: {load_us} us (NFS analog, --load-cost-us)");
    let mut sink = Sink::from_args(&args);
    let mut rows = Vec::new();
    for &ppn in &ppn_list {
        println!("\n## {} process(es) per node (Fig. 3{})", ppn, if ppn == 1 { "a" } else { "b" });
        println!(
            "{:>6} {:>6} {:>12} {:>14} {:>8} {:>12} {:>12}",
            "nodes", "np", "MPI_Init(ms)", "Sessions(ms)", "ratio", "%sess_init", "%comm_create"
        );
        for &nodes in &nodes_list {
            let mk_tb = || {
                let mut tb = SimTestbed::jupiter(nodes);
                tb.cluster.slots_per_node = ppn;
                tb
            };
            let np = nodes * ppn;
            let mut best = |mode, label| {
                let run = best_of(reps, || osu_init(mk_tb(), np, mode), |r| r.slowest().total_s);
                sink.record(&format!("ppn{ppn}_nodes{nodes}_{label}"), &run);
                run.slowest()
            };
            let wpm = best(InitMode::Wpm, "wpm");
            let sess = best(InitMode::Sessions, "sessions");
            let ratio = sess.total_s / wpm.total_s;
            let si_frac = sess.session_init_s / sess.total_s * 100.0;
            let cc_frac = sess.comm_create_s / sess.total_s * 100.0;
            println!(
                "{:>6} {:>6} {:>12.3} {:>14.3} {:>8.3} {:>11.1}% {:>11.1}%",
                nodes,
                np,
                wpm.total_s * 1e3,
                sess.total_s * 1e3,
                ratio,
                si_frac,
                cc_frac
            );
            rows.push(Row {
                ppn,
                nodes,
                np,
                wpm_ms: wpm.total_s * 1e3,
                sessions_ms: sess.total_s * 1e3,
                ratio,
                session_init_frac: si_frac,
                comm_create_frac: cc_frac,
            });
        }
    }
    println!(
        "\n# Paper shape: Sessions ≈ 1.1–1.3× MPI_Init; at high ppn a sizeable share of \
         the sessions time is the initial session-handle/resource init, the rest is \
         communicator construction (PMIx group + PGCID)."
    );
    dump_json("fig3_init", &rows);
    sink.finish();
}
