//! Ablation A3 (paper §III-A): PMIx group-construct cost vs. scale.
//!
//! Times `PMIx_Group_construct` (the three-stage hierarchical collective
//! plus PGCID acquisition) and `PMIx_Fence` over the same membership, so
//! the PGCID/group overhead on top of a plain fence is visible — this is
//! the substrate cost behind Figs. 3 and 4.
//!
//! Usage: `abl_pmix_group [--nodes 1,2,4,8] [--ppn 4] [--iters 8]
//!                        [--metrics-out <path>] [--trace-out <path>]`
//! (`--metrics-out` dumps per-topology observability exports: the
//! fan-in/exchange/fan-out stage counters, PGCID allocations, per-server
//! RPC processing-time histograms. `--trace-out` dumps per-topology causal
//! span-DAG traces of the fence and group-construct stage chains.)

use apps::cli_opt;
use bench_harness::{dump_json, parse_list, settled_export, MetricsSink, TraceSink};
use pmix::{GroupDirectives, ProcId};
use prrte::{JobSpec, Launcher};
use serde::Serialize;
use simnet::SimTestbed;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    nodes: u32,
    np: u32,
    fence_us: f64,
    construct_us: f64,
    construct_no_pgcid_us: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes_list = parse_list(&cli_opt(&args, "--nodes").unwrap_or_else(|| "1,2,4".into()));
    let ppn: u32 = cli_opt(&args, "--ppn").and_then(|v| v.parse().ok()).unwrap_or(4);
    let iters: usize = cli_opt(&args, "--iters").and_then(|v| v.parse().ok()).unwrap_or(8);

    println!("# Ablation A3: PMIx collectives, {ppn} processes/node");
    println!(
        "{:>6} {:>6} {:>14} {:>16} {:>20}",
        "nodes", "np", "fence (us)", "construct (us)", "construct-noPGCID"
    );
    let mut sink = MetricsSink::from_args(&args);
    let mut traces = TraceSink::from_args(&args);
    let mut rows = Vec::new();
    for &nodes in &nodes_list {
        let mut tb = SimTestbed::jupiter(nodes);
        tb.cluster.slots_per_node = ppn;
        let np = nodes * ppn;
        let launcher = Launcher::new(tb);
        let per_rank = launcher
            .spawn(JobSpec::new(np), move |ctx| {
                let members: Vec<ProcId> = (0..ctx.size())
                    .map(|r| ProcId::new(ctx.proc().nspace(), r))
                    .collect();
                // Fence timing.
                let t0 = Instant::now();
                for _ in 0..iters {
                    ctx.pmix().fence(&members, false).expect("fence");
                }
                let fence_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
                // Construct (+PGCID) timing.
                let t0 = Instant::now();
                for i in 0..iters {
                    let g = ctx
                        .pmix()
                        .group_construct(&format!("abl{i}"), &members, &GroupDirectives::for_mpi())
                        .expect("construct");
                    ctx.pmix().group_destruct(&g, None).expect("destruct");
                }
                let construct_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
                // Construct without PGCID.
                let d = GroupDirectives::for_mpi().without_pgcid();
                let t0 = Instant::now();
                for i in 0..iters {
                    let g = ctx
                        .pmix()
                        .group_construct(&format!("ablnp{i}"), &members, &d)
                        .expect("construct");
                    ctx.pmix().group_destruct(&g, None).expect("destruct");
                }
                let nopgcid_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
                (fence_us, construct_us, nopgcid_us)
            })
            .join()
            .expect("ablation job");
        let registry = launcher.universe().fabric().obs();
        if sink.enabled() {
            sink.record(&format!("nodes{nodes}_ppn{ppn}"), settled_export(&launcher));
        }
        if traces.enabled() {
            traces.record(
                &format!("nodes{nodes}_ppn{ppn}"),
                obs::analyze::analyze(&registry.spans_snapshot(), registry.spans_dropped()),
            );
        }
        let (f, c, n) = per_rank.into_iter().fold((0.0f64, 0.0f64, 0.0f64), |acc, v| {
            (acc.0.max(v.0), acc.1.max(v.1), acc.2.max(v.2))
        });
        println!("{:>6} {:>6} {:>14.2} {:>16.2} {:>20.2}", nodes, np, f, c, n);
        rows.push(Row {
            nodes,
            np,
            fence_us: f,
            construct_us: c,
            construct_no_pgcid_us: n,
        });
    }
    println!("\n# Shape: construct ≥ fence (same all-to-all plus group bookkeeping);");
    println!("# the PGCID adds an RM round trip on top. Each construct here is");
    println!("# followed by its destruct, a local release that adds no collective.");
    dump_json("abl_pmix_group", &rows);
    sink.finish();
    traces.finish();
}
