//! Fig. 6 regenerator: HPCC 8-byte random- and natural-order ring latency
//! vs. node count, baseline vs. sessions-modified benchmark.
//!
//! Usage: `fig6_hpcc [--nodes 1,2,4,8] [--ppn 8] [--iters 50] [--paper]`

use apps::hpcc::run_hpcc_rings;
use apps::InitMode;
use bench_harness::{cli_flag, cli_opt, dump_json, parse_list};
use serde::Serialize;
use simnet::SimTestbed;

#[derive(Serialize)]
struct Row {
    nodes: u32,
    np: u32,
    natural_wpm_us: f64,
    natural_sessions_us: f64,
    random_wpm_us: f64,
    random_sessions_us: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes_list =
        parse_list(&cli_opt(&args, "--nodes").unwrap_or_else(|| "1,2,4".into()));
    let ppn: u32 = cli_opt(&args, "--ppn")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cli_flag(&args, "--paper") { 28 } else { 8 });
    let iters: usize = cli_opt(&args, "--iters").and_then(|v| v.parse().ok()).unwrap_or(50);
    let reps: usize = cli_opt(&args, "--reps").and_then(|v| v.parse().ok()).unwrap_or(3);

    println!("# Fig. 6: HPCC 8-byte ring latencies, {ppn} processes/node");
    println!(
        "{:>6} {:>6} | {:>14} {:>14} | {:>14} {:>14}",
        "nodes", "np", "nat/Init(us)", "nat/Sess(us)", "rnd/Init(us)", "rnd/Sess(us)"
    );
    let mut rows = Vec::new();
    for &nodes in &nodes_list {
        let mk_tb = || {
            let mut tb = SimTestbed::jupiter(nodes);
            tb.cluster.slots_per_node = ppn;
            tb
        };
        let np = nodes * ppn;
        // Best-of-reps per mode: single-core scheduler noise dwarfs the
        // per-hop latencies otherwise.
        let best = |mode: InitMode| {
            (0..reps)
                .map(|_| run_hpcc_rings(mk_tb(), np, mode, 5, iters))
                .min_by(|a, b| (a[0].usec + a[1].usec).total_cmp(&(b[0].usec + b[1].usec)))
                .expect("at least one rep")
        };
        let wpm = best(InitMode::Wpm);
        let sess = best(InitMode::Sessions);
        println!(
            "{:>6} {:>6} | {:>14.3} {:>14.3} | {:>14.3} {:>14.3}",
            nodes, np, wpm[0].usec, sess[0].usec, wpm[1].usec, sess[1].usec
        );
        rows.push(Row {
            nodes,
            np,
            natural_wpm_us: wpm[0].usec,
            natural_sessions_us: sess[0].usec,
            random_wpm_us: wpm[1].usec,
            random_sessions_us: sess[1].usec,
        });
    }
    println!("\n# Paper shape: sessions ≈ baseline for both orderings at every node count");
    println!("# (the component-local session changes only how the communicator was built).");
    dump_json("fig6_hpcc", &rows);
}
