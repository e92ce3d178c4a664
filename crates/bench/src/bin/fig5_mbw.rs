//! Fig. 5b/5c regenerator: relative bandwidth and message rate
//! (Sessions / MPI_Init) by message size, for 2 processes (5b) and many
//! processes (5c), with and without per-pair pre-synchronization.
//!
//! The 5c artifact: with multiple pairs, the barrier before the timing
//! loop does *not* complete the exCID→local-CID switchover for every
//! pair, so early timed sends still carry the extended header; the
//! `--presync`-style sendrecv equalizes the modes (paper §IV-C3).
//!
//! Usage: `fig5_mbw [--procs 2|16] [--max-size 65536] [--window 64]
//!                  [--iters 20] [--presync] [--both] [--metrics-out <path>]
//!                  [--trace-out <path>]`
//! (`--metrics-out` dumps per-run observability exports: the PML
//! eager/extended-header split behind the switchover artifact, fabric
//! on-node vs inter-node traffic. `--trace-out` dumps per-run causal
//! span-DAG traces with the exCID handshake spans.)

use apps::osu::{run_mbw_job, size_sweep};
use apps::InitMode;
use bench_harness::{cli_flag, cli_opt, dump_json, geomean, Sink};
use serde::Serialize;
use simnet::SimTestbed;

#[derive(Serialize)]
struct Row {
    procs: u32,
    presync: bool,
    size: usize,
    wpm_mbs: f64,
    sessions_mbs: f64,
    rel_bw: f64,
    rel_mr: f64,
}

fn run_config(
    procs: u32,
    presync: bool,
    sizes: &[usize],
    window: usize,
    iters: usize,
    sink: &mut Sink,
) -> Vec<Row> {
    let mut run = |mode, label: &str| {
        let tb = SimTestbed::tiny(1, procs);
        let mut run = run_mbw_job(tb, mode, procs, sizes.to_vec(), window, 2, iters, presync);
        sink.record(&format!("p{procs}_presync{presync}_{label}"), &run);
        run.ranks.swap_remove(0)
    };
    let wpm = run(InitMode::Wpm, "wpm");
    let sess = run(InitMode::Sessions, "sessions");
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| Row {
            procs,
            presync,
            size,
            wpm_mbs: wpm[i].mb_per_s,
            sessions_mbs: sess[i].mb_per_s,
            rel_bw: sess[i].mb_per_s / wpm[i].mb_per_s,
            rel_mr: sess[i].msg_per_s / wpm[i].msg_per_s,
        })
        .collect()
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:>10} {:>14} {:>14} {:>10} {:>10}",
        "Size", "MPI_Init MB/s", "Sessions MB/s", "rel BW", "rel MR"
    );
    for r in rows {
        println!(
            "{:>10} {:>14.2} {:>14.2} {:>10.3} {:>10.3}",
            r.size, r.wpm_mbs, r.sessions_mbs, r.rel_bw, r.rel_mr
        );
    }
    let g = geomean(&rows.iter().map(|r| r.rel_bw).collect::<Vec<_>>());
    println!("# geometric-mean relative bandwidth: {g:.3}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_size: usize =
        cli_opt(&args, "--max-size").and_then(|v| v.parse().ok()).unwrap_or(1 << 16);
    let window: usize = cli_opt(&args, "--window").and_then(|v| v.parse().ok()).unwrap_or(64);
    let iters: usize = cli_opt(&args, "--iters").and_then(|v| v.parse().ok()).unwrap_or(20);
    let sizes = size_sweep(max_size);

    let configs: Vec<(u32, bool)> = if cli_flag(&args, "--both") {
        vec![(2, false), (16, false), (16, true)]
    } else {
        let procs: u32 = cli_opt(&args, "--procs").and_then(|v| v.parse().ok()).unwrap_or(2);
        vec![(procs, cli_flag(&args, "--presync"))]
    };

    let mut sink = Sink::from_args(&args);
    let mut all = Vec::new();
    for (procs, presync) in configs {
        println!(
            "\n# Fig. 5{}: {} processes ({} pairs){}",
            if procs == 2 { "b" } else { "c" },
            procs,
            procs / 2,
            if presync { ", pre-synchronized (sendrecv before loop)" } else { "" }
        );
        let rows = run_config(procs, presync, &sizes, window, iters, &mut sink);
        print_rows(&rows);
        all.extend(rows);
    }
    println!("\n# Paper shape: 2-proc ≈ 1.0 (the pre-loop barrier completes the handshake);");
    println!("# multi-pair w/o presync dips below 1.0 at small sizes; presync restores ≈1.0.");
    dump_json("fig5_mbw", &all);
    sink.finish();
}
