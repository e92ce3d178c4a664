//! Sessions-as-a-service soak: sustained session/communicator/pset churn
//! against one persistent runtime, with leak-freedom gates.
//!
//! Every wave, each of the four ranks initializes a session, builds a
//! world communicator, derives (and recycles) a child exCID, runs an
//! allreduce and tears everything back down, while the driver churns one
//! short-lived pset per wave through the namespace registry. The runtime
//! itself never restarts — exactly the "service" shape where a leaked CID
//! slot, cache entry, tombstone or PGCID eventually kills the job.
//!
//! The harness samples the per-component resource levels as the churn
//! runs, reports throughput plus per-component high-water marks, and ends
//! with the leak-freedom verdict: all levels must return to the pre-churn
//! baseline (exit code 1 otherwise). `--no-gc` disables tombstone GC in
//! the registry to demonstrate the failure mode the GC exists to prevent:
//! any run of more than `GC_TOMBSTONE_THRESHOLD` waves then FAILs.
//!
//! `--abandon` adds one in-flight `idup_via_group` setup request per rank
//! per wave and *drops* it mid-flight on every 10th wave instead of
//! claiming it: collective cancellation must still drive the request to
//! completion and release its PGCID-backed CID, or the leak verdict (and
//! the teardown audit) fails. This is the service-shape proof that
//! abandoning nonblocking setup never strands resources.
//!
//! Usage: `fig_soak [--waves 200] [--sample-every N] [--no-gc] [--abandon]
//!                  [--metrics-out <path>] [--trace-out <path>]`

use apps::run::Job;
use apps::workload::{soak, soak_abandoned, LevelSample, Soak, SOAK_NP};
use bench_harness::soak::{high_water, leak_verdict, LeakVerdict};
use bench_harness::{cli_flag, cli_opt, dump_json, Sink};
use pmix::nspace::GC_TOMBSTONE_THRESHOLD;
use serde::Serialize;
use simnet::SimTestbed;

#[derive(Serialize)]
struct Report {
    waves: u64,
    gc_enabled: bool,
    abandoned_idups: u64,
    elapsed_s: f64,
    sessions_per_s: f64,
    samples: Vec<LevelSample>,
    high_water: Vec<(String, i64)>,
    verdict: LeakVerdict,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let waves: u64 = cli_opt(&args, "--waves").and_then(|v| v.parse().ok()).unwrap_or(200);
    let no_gc = cli_flag(&args, "--no-gc");
    let abandon = cli_flag(&args, "--abandon");
    let sample_every: u64 = cli_opt(&args, "--sample-every")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| (waves / 16).max(1));

    let mut job = Job::new(SimTestbed::tiny(2, 2));
    if no_gc {
        job = job.cvar("registry.gc_enabled", obs::CvarValue::Bool(false));
    }
    let shape = Soak { waves, sample_every, allreduce: true, abandon };
    let (run, levels) = soak(job, shape);
    let elapsed = levels.elapsed_s;

    let sessions = waves * SOAK_NP as u64;
    println!(
        "# Soak: {waves} waves x {SOAK_NP} ranks ({sessions} sessions) in {elapsed:.2}s \
         = {:.0} sessions/s (gc {})",
        sessions as f64 / elapsed,
        if no_gc { "OFF" } else { "on" },
    );

    println!("\n# Resource levels over the churn (sampled every {sample_every} waves)");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "wave", "cid_used", "pml_cache", "psets", "tombstones", "kvs", "pgcid_pool"
    );
    for s in &levels.samples {
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10}",
            s.wave,
            s.cid_table_used,
            s.pml_cache_entries,
            s.psets_live,
            s.psets_tombstoned,
            s.kvs_entries,
            s.pgcid_pool
        );
    }

    let obs = run.registry();
    let high_water = high_water(obs);
    println!("\n# Per-component high-water marks");
    for (what, peak) in &high_water {
        println!("{what:>28} {peak:>8}");
    }

    let gced = obs.sum_counters("pmix", "psets_gced");
    println!(
        "\n# Lifecycle counters: {} CIDs released, {} subfields recycled, {} PGCIDs recycled, \
         {gced} tombstones GCed, {} leaked at teardown, {} setup requests cancelled",
        obs.sum_counters("cid", "released"),
        obs.sum_counters("cid", "subfields_recycled"),
        obs.sum_counters("pmix", "pgcid_recycled"),
        obs.sum_counters("instance", "cids_leaked_at_teardown"),
        obs.sum_counters("req", "cancelled"),
    );
    if !no_gc && waves > GC_TOMBSTONE_THRESHOLD as u64 {
        assert!(gced > 0, "churn past the threshold must trigger GC");
    }

    let verdict = leak_verdict(&levels.baseline, &levels.fin, GC_TOMBSTONE_THRESHOLD as i64);
    println!("\n{}", verdict.render());

    let mut sink = Sink::from_args(&args);
    sink.record("soak_churn", &run);
    sink.finish();
    let passed = verdict.passed;
    dump_json(
        "fig_soak",
        &Report {
            waves,
            gc_enabled: !no_gc,
            abandoned_idups: soak_abandoned(shape),
            elapsed_s: elapsed,
            sessions_per_s: sessions as f64 / elapsed,
            samples: levels.samples,
            high_water,
            verdict,
        },
    );
    if !passed {
        std::process::exit(1);
    }
}
