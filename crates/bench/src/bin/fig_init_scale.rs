//! Lazy-init figure: eager (fence-collected) vs. lazy (fence-free)
//! session initialization across scale.
//!
//! For each (nodes, ppn) point the eager path runs the full Figure-1
//! sequence — business cards collected by a PMIx fence, exCID agreed by
//! the group-construct fan-in/fan-out — while the lazy path
//! (`init_mode=lazy`, DESIGN.md §14) publishes its card without a fence,
//! hashes the exCID locally, and returns. Besides wall time (hardware
//! noise) the figure reports two *deterministic* trace-derived columns:
//! the logical critical-path cost of the launch DAG and the number of
//! `group.fanout` stages on it. Lazy init must show **zero** fan-out
//! stages at every point, and a strictly shorter critical path wherever
//! np ≥ 4 (below that the eager fence is trivial and the lazy
//! publish+commit pair can cost a step more) — the binary exits nonzero
//! if either invariant fails, so the ci.sh smoke run doubles as a gate.
//!
//! Usage: `fig_init_scale [--nodes 1,2,4] [--ppn-list 1,4] [--reps 3]
//!                        [--load-cost-us 200] [--metrics-out <path>]
//!                        [--trace-out <path>]`
//! (`--trace-out` dumps each best run's span-DAG report; ci.sh feeds it
//! through `trace_check` and diffs the stage orderings against
//! `ci/golden_lazy_critical_path.txt`.)

use apps::osu::osu_init;
use apps::InitMode;
use bench_harness::{best_of, cli_opt, critical_path_cost, dump_json, parse_list, stage_field, Sink};
use serde::Serialize;
use simnet::SimTestbed;

#[derive(Serialize)]
struct Row {
    ppn: u32,
    nodes: u32,
    np: u32,
    eager_ms: f64,
    lazy_ms: f64,
    /// Logical critical-path cost of the launch DAG (deterministic).
    eager_path: u64,
    lazy_path: u64,
    /// `group.fanout` stage executions on the whole DAG (deterministic;
    /// must be 0 for lazy).
    eager_fanout: u64,
    lazy_fanout: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes_list = parse_list(&cli_opt(&args, "--nodes").unwrap_or_else(|| "1,2,4".into()));
    let ppn_list = parse_list(&cli_opt(&args, "--ppn-list").unwrap_or_else(|| "1,4".into()));
    let reps: usize = cli_opt(&args, "--reps").and_then(|v| v.parse().ok()).unwrap_or(3);
    let load_us: u64 =
        cli_opt(&args, "--load-cost-us").and_then(|v| v.parse().ok()).unwrap_or(200);
    mpi_sessions::instance::set_subsystem_init_cost(std::time::Duration::from_micros(load_us));

    println!("# Lazy vs. eager session init across scale (fence-free startup, DESIGN.md §14)");
    println!("# per-subsystem component-load cost: {load_us} us (--load-cost-us)");
    let mut sink = Sink::from_args(&args);
    let mut rows = Vec::new();
    let mut failed = false;
    for &ppn in &ppn_list {
        println!("\n## {ppn} process(es) per node");
        println!(
            "{:>6} {:>6} {:>10} {:>10} {:>11} {:>11} {:>8} {:>8}",
            "nodes", "np", "eager(ms)", "lazy(ms)", "eager_path", "lazy_path", "e_fout", "l_fout"
        );
        for &nodes in &nodes_list {
            let mk_tb = || {
                let mut tb = SimTestbed::jupiter(nodes);
                tb.cluster.slots_per_node = ppn;
                tb
            };
            let np = nodes * ppn;
            let best =
                |mode| best_of(reps, || osu_init(mk_tb(), np, mode), |r| r.slowest().total_s);
            let (eager, lazy) = (best(InitMode::Sessions), best(InitMode::Lazy));
            sink.record(&format!("ppn{ppn}_nodes{nodes}_eager"), &eager);
            sink.record(&format!("ppn{ppn}_nodes{nodes}_lazy"), &lazy);
            // The deterministic columns come from the span DAG, not the
            // wall clock.
            let row = Row {
                ppn,
                nodes,
                np,
                eager_ms: eager.slowest().total_s * 1e3,
                lazy_ms: lazy.slowest().total_s * 1e3,
                eager_path: critical_path_cost(eager.trace()),
                lazy_path: critical_path_cost(lazy.trace()),
                eager_fanout: stage_field(eager.trace(), "group.fanout", "count"),
                lazy_fanout: stage_field(lazy.trace(), "group.fanout", "count"),
            };
            println!(
                "{:>6} {:>6} {:>10.3} {:>10.3} {:>11} {:>11} {:>8} {:>8}",
                nodes,
                np,
                row.eager_ms,
                row.lazy_ms,
                row.eager_path,
                row.lazy_path,
                row.eager_fanout,
                row.lazy_fanout
            );
            if row.lazy_fanout != 0 {
                eprintln!(
                    "fig_init_scale: FAIL nodes={nodes} ppn={ppn}: lazy init ran {} \
                     group.fanout stage(s) — the fence-free path must not fan out",
                    row.lazy_fanout
                );
                failed = true;
            }
            if np >= 4 && row.lazy_path >= row.eager_path {
                eprintln!(
                    "fig_init_scale: FAIL nodes={nodes} ppn={ppn}: lazy critical path {} \
                     is not shorter than eager {}",
                    row.lazy_path, row.eager_path
                );
                failed = true;
            }
            rows.push(row);
        }
    }
    println!(
        "\n# Shape: the eager critical path grows with the group fan-in/fan-out tree; the \
         lazy path is flat per rank (publish + commit, no fence) and pays its peer \
         resolution later, on first contact."
    );
    dump_json("fig_init_scale", &rows);
    sink.finish();
    if failed {
        std::process::exit(1);
    }
}
