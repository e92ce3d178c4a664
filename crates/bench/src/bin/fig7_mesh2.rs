//! Fig. 7 regenerator: normalized mini-2MESH execution times, Baseline
//! (native QUO quiescence) vs Sessions (session-aware ibarrier+nanosleep),
//! for three problems P1/P2/P3.
//!
//! The paper ran P1/P2 at 256 and P3 at 1,024 processes on 32-core Trinity
//! nodes; the simulated problems keep the same *structure* (P3 = larger
//! job) at host-appropriate scale. `--paper` restores the full counts.
//!
//! Usage: `fig7_mesh2 [--reps 3] [--paper]`

use apps::mesh2::{run_mesh2_median, Mesh2Config};
use bench_harness::{cli_flag, cli_opt, dump_json};
use quo::QuoBackend;
use serde::Serialize;
use simnet::SimTestbed;

#[derive(Serialize)]
struct Row {
    problem: String,
    np: u32,
    baseline_s: f64,
    sessions_s: f64,
    normalized: f64,
}

struct Problem {
    name: &'static str,
    nodes: u32,
    ppn: u32,
    cfg: Mesh2Config,
}

fn problems(paper_scale: bool) -> Vec<Problem> {
    let (n1, p1, n3, p3) = if paper_scale { (8, 32, 32, 32) } else { (2, 4, 4, 4) };
    let base = Mesh2Config {
        cells_per_rank: 4096,
        l0_iters: 20,
        l1_iters: 6,
        phases: 4,
        workers_per_node: 1,
        threads_per_worker: 4,
    };
    vec![
        Problem { name: "P1", nodes: n1, ppn: p1, cfg: base.clone() },
        Problem {
            name: "P2",
            nodes: n1,
            ppn: p1,
            cfg: Mesh2Config { l0_iters: 10, l1_iters: 12, ..base.clone() },
        },
        Problem { name: "P3", nodes: n3, ppn: p3, cfg: base },
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reps: usize = cli_opt(&args, "--reps").and_then(|v| v.parse().ok()).unwrap_or(3);
    let paper = cli_flag(&args, "--paper");

    println!("# Fig. 7: normalized mini-2MESH execution times (Trinity cost model)");
    println!(
        "{:<8} {:>6} {:>14} {:>14} {:>12}",
        "problem", "np", "Baseline (s)", "Sessions (s)", "normalized"
    );
    let mut rows = Vec::new();
    for p in problems(paper) {
        let mut tb = SimTestbed::trinity(p.nodes);
        tb.cluster.slots_per_node = p.ppn;
        let np = p.nodes * p.ppn;
        let base = run_mesh2_median(tb.clone(), np, p.cfg.clone(), QuoBackend::Native, reps);
        let sess = run_mesh2_median(tb, np, p.cfg, QuoBackend::Sessions, reps);
        let norm = sess.elapsed_s / base.elapsed_s;
        println!(
            "{:<8} {:>6} {:>14.4} {:>14.4} {:>12.3}",
            p.name, np, base.elapsed_s, sess.elapsed_s, norm
        );
        rows.push(Row {
            problem: p.name.into(),
            np,
            baseline_s: base.elapsed_s,
            sessions_s: sess.elapsed_s,
            normalized: norm,
        });
    }
    println!("\n# Paper shape: Sessions within a few percent of Baseline for all problems,");
    println!("# the delta attributable to the emulated ibarrier+nanosleep quiescence.");
    dump_json("fig7_mesh2", &rows);
}
