//! Fault-recovery workload: settle latency of the checkpoint-free
//! allreduce loop across injected kills (DESIGN.md §15).
//!
//! Four ranks run [`apps::recover::run_rank_with_progress`] — a ring
//! allreduce over the widest available communicator, repaired through the
//! survivors pset on every observed fault. The driver kills rank 3, then
//! rank 2, and reports per episode how long it takes **every** survivor
//! to make fresh step progress on the repaired communicator
//! (driver-observed wall time from the kill to the last survivor's first
//! new step ack).
//!
//! Usage: `fig_recover [--metrics-out <path>] [--trace-out <path>]`

use apps::recover::{RankOutcome, RecoverConfig};
use bench_harness::dump_json;
use prrte::{JobSpec, Launcher};
use serde::Serialize;
use simnet::SimTestbed;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const ACK_LIMIT: Duration = Duration::from_secs(60);

#[derive(Serialize)]
struct Row {
    phase: &'static str,
    members: u32,
    settle_us: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    // Fast typed Timeout verdicts while repair epochs disagree
    // (docs/TUNING.md: pmix.group_timeout_ms).
    let obs = launcher.universe().fabric().obs();
    obs.cvar_write("universe", "pmix.group_timeout_ms", obs::CvarValue::U64(2000)).expect("cvar");
    let cfg = RecoverConfig {
        steps: 12,
        step_wait: Duration::from_secs(2),
        repair_budget: Duration::from_secs(30),
        init: apps::InitMode::Sessions,
    };
    let (tx, rx) = mpsc::channel::<(u32, u32)>();
    let handle = launcher.spawn_named("recover", JobSpec::new(4), {
        let cfg = cfg.clone();
        move |ctx| {
            let tx = tx.clone();
            let rank = ctx.rank();
            apps::recover::run_rank_with_progress(&ctx, &cfg, |step| {
                let _ = tx.send((rank, step));
            })
        }
    });

    // Highest step acked per rank. After a repair the step-agreement ring
    // may roll a survivor back to the last globally consistent step, so
    // "settled" means acking a step *beyond* the pre-kill high-water mark
    // — fresh progress, not a recomputation of old ground.
    let mut latest = [0u32; 4];
    let settle = |survivors: &[u32], latest: &mut [u32; 4]| {
        let snap = *latest;
        let t0 = Instant::now();
        while survivors.iter().any(|&r| latest[r as usize] <= snap[r as usize]) {
            let (rank, step) = rx.recv_timeout(ACK_LIMIT).expect("step progress before timeout");
            let slot = &mut latest[rank as usize];
            *slot = (*slot).max(step);
        }
        t0.elapsed().as_secs_f64() * 1e6
    };

    let mut rows = Vec::new();
    rows.push(Row {
        phase: "steady_4",
        members: 4,
        settle_us: settle(&[0, 1, 2, 3], &mut latest),
    });
    handle.kill_rank(3);
    rows.push(Row { phase: "kill_rank3", members: 3, settle_us: settle(&[0, 1, 2], &mut latest) });
    handle.kill_rank(2);
    rows.push(Row { phase: "kill_rank2", members: 2, settle_us: settle(&[0, 1], &mut latest) });
    let out = handle.join().expect("recover job");

    println!("# Checkpoint-free recovery: kill-to-fresh-progress settle latency");
    println!("{:>12} {:>8} {:>14}", "phase", "members", "settle (us)");
    for r in &rows {
        println!("{:>12} {:>8} {:>14.1}", r.phase, r.members, r.settle_us);
    }

    let mut faults_seen = 0u32;
    let mut repairs = 0u32;
    let mut stale_retries = 0u32;
    let mut step_faults = 0u32;
    for (rank, outcome) in out.iter().enumerate() {
        match (rank, outcome) {
            // A victim exits Removed — or, when its kill landed after its
            // last step, finishes like any survivor.
            (2 | 3, RankOutcome::Removed { .. }) => {}
            (_, RankOutcome::Survivor(r)) => {
                assert_eq!(r.steps_done, cfg.steps, "rank {rank} must finish every step");
                assert_eq!(r.sums.last(), Some(&r.final_size), "final sum is the final width");
                // Judged on the faults this rank observed, not on the kills
                // issued: a kill that lands after its last step is never
                // observed, one repair may absorb two faults, and a fault
                // inside a repair is one more fault that repair retries.
                assert!(
                    (2..=4 - r.faults_seen).contains(&r.final_size),
                    "rank {rank} observed {} faults but finished at width {}",
                    r.faults_seen,
                    r.final_size
                );
                assert!(
                    r.faults_seen == 0 || r.repairs >= 1,
                    "rank {rank} observed a fault but never repaired"
                );
                faults_seen += r.faults_seen;
                repairs += r.repairs;
                stale_retries += r.stale_retries;
                step_faults += r.step_faults;
            }
            _ => panic!("rank {rank} ended in the wrong state: {outcome:?}"),
        }
    }
    println!(
        "\n# survivors observed {faults_seen} faults and repaired {repairs} times \
         ({stale_retries} rebuild re-entries or fan-in retries, {step_faults} typed step \
         faults routed into repair)"
    );
    // Drain the tail of in-flight step acks (survivors kept stepping past
    // the last settle point); none may claim a step beyond the configured
    // count.
    while let Ok((rank, step)) = rx.recv_timeout(Duration::from_millis(50)) {
        assert!(step <= cfg.steps, "rank {rank} acked step {step} past the last step");
    }

    let registry = launcher.universe().fabric().obs();
    let mut sink = bench_harness::MetricsSink::from_args(&args);
    sink.record("recover", bench_harness::settled_export(&launcher));
    sink.finish();
    let mut traces = bench_harness::TraceSink::from_args(&args);
    if traces.enabled() {
        traces.record(
            "recover",
            obs::analyze::analyze(&registry.spans_snapshot(), registry.spans_dropped()),
        );
    }
    traces.finish();
    dump_json("fig_recover", &rows);
}
