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
//!                  [--metrics-out <path>]`

use apps::cli_opt;
use bench_harness::{dump_json, soak};
use mpi_sessions::{coll, Comm, ErrHandler, Info, ReduceOp, Session, ThreadLevel};
use pmix::nspace::GC_TOMBSTONE_THRESHOLD;
use prrte::{JobSpec, Launcher};
use serde::Serialize;
use simnet::SimTestbed;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const NP: u32 = 4;

#[derive(Serialize)]
struct Report {
    waves: u64,
    gc_enabled: bool,
    abandoned_idups: u64,
    elapsed_s: f64,
    sessions_per_s: f64,
    samples: Vec<soak::LevelSample>,
    high_water: Vec<(String, i64)>,
    verdict: soak::LeakVerdict,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let waves: u64 = cli_opt(&args, "--waves").and_then(|v| v.parse().ok()).unwrap_or(200);
    let no_gc = args.iter().any(|a| a == "--no-gc");
    let abandon = args.iter().any(|a| a == "--abandon");
    let sample_every: u64 = cli_opt(&args, "--sample-every")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| (waves / 16).max(1));

    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let registry = launcher.universe().registry();
    let obs = launcher.universe().fabric().obs();
    if no_gc {
        obs.cvar_write("universe", "registry.gc_enabled", obs::CvarValue::Bool(false))
            .expect("gc_enabled cvar");
    }

    let (tx, rx) = mpsc::channel::<(u32, u64)>();
    let handle = launcher.spawn_named("soak", JobSpec::new(NP), move |ctx| {
        for wave in 0..waves {
            let session =
                Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
                    .expect("session init");
            let group = session.group_from_pset("mpi://world").expect("world pset");
            let comm =
                Comm::create_from_group(&group, &format!("soak-w{wave}")).expect("comm");
            // Abandon variant: one nonblocking PGCID dup rides in flight
            // across the whole wave's churn (issued here, resolved after
            // the allreduce below).
            let inflight = abandon.then(|| comm.idup_via_group().expect("dup issue"));
            // Derive a child, free it, derive again: the second derivation
            // must resume the recycled subfield, exercising the freed-list
            // path every single wave.
            let d1 = comm.dup().expect("dup");
            d1.free().expect("free d1");
            let d2 = comm.dup().expect("dup recycled");
            let sum = coll::allreduce_t(&d2, ReduceOp::Sum, &[1u32]).expect("allreduce")[0];
            assert_eq!(sum, NP, "wave {wave}: collective saw wrong membership");
            d2.free().expect("free d2");
            if let Some(req) = inflight {
                if wave % 10 == 0 {
                    // Every 10th wave the request is dropped instead of
                    // claimed: cancellation frees the comm it produced, so
                    // the lifecycle counters and the leak verdict see the
                    // same drained world as a claimed-and-freed wave.
                    drop(req);
                } else {
                    req.wait().expect("dup wait").free().expect("free dup");
                }
            }
            comm.free().expect("free comm");
            session.finalize().expect("finalize");
            tx.send((ctx.rank(), wave)).expect("ack");
        }
    });
    // Quiet-point baseline: launch-defined psets registered, no live
    // sessions yet (ranks only start churning after this read races at
    // worst with wave 0 — which cannot touch psets or the KVS). All
    // sampling goes through one bound pvar session.
    let pvars = soak::SoakPvars::bind(obs.clone());
    let baseline = pvars.sample(0);

    let t0 = Instant::now();
    let mut samples = Vec::new();
    for wave in 0..waves {
        for _ in 0..NP {
            let (rank, w) = rx.recv_timeout(Duration::from_secs(120)).expect("wave ack");
            assert!(w >= wave, "rank {rank} acked stale wave {w}");
        }
        // Driver-side registry churn: one short-lived pset per wave. With
        // GC on, tombstones stay bounded; with --no-gc they pile up.
        let name = format!("soak://w{wave}");
        registry.define_pset(&name, vec![]);
        registry.undefine_pset(&name);
        if wave % sample_every == 0 {
            samples.push(pvars.sample(wave));
        }
    }
    handle.join().expect("soak job");
    let elapsed = t0.elapsed().as_secs_f64();
    let fin = pvars.sample(waves);
    samples.push(fin);

    let sessions = waves * NP as u64;
    println!(
        "# Soak: {waves} waves x {NP} ranks ({sessions} sessions) in {elapsed:.2}s \
         = {:.0} sessions/s (gc {})",
        sessions as f64 / elapsed,
        if no_gc { "OFF" } else { "on" },
    );

    println!("\n# Resource levels over the churn (sampled every {sample_every} waves)");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "wave", "cid_used", "pml_cache", "psets", "tombstones", "kvs", "pgcid_pool"
    );
    for s in &samples {
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

    let high_water = soak::high_water(&obs);
    println!("\n# Per-component high-water marks");
    for (what, peak) in &high_water {
        println!("{what:>28} {peak:>8}");
    }

    // Activity gates: a soak that silently stopped exercising the
    // recycle/GC machinery would pass the leak checks vacuously.
    let released = obs.sum_counters("cid", "released");
    let recycled = obs.sum_counters("cid", "subfields_recycled");
    let pgcid_recycled = obs.sum_counters("pmix", "pgcid_recycled");
    let gced = obs.sum_counters("pmix", "psets_gced");
    let leaked = obs.sum_counters("instance", "cids_leaked_at_teardown");
    let cancelled = obs.sum_counters("req", "cancelled");
    println!(
        "\n# Lifecycle counters: {released} CIDs released, {recycled} subfields recycled, \
         {pgcid_recycled} PGCIDs recycled, {gced} tombstones GCed, {leaked} leaked at \
         teardown, {cancelled} setup requests cancelled"
    );
    let frees_per_wave = if abandon { 4 } else { 3 };
    assert_eq!(
        released,
        sessions * frees_per_wave,
        "{frees_per_wave} frees per rank per wave (cancellation counts as a free)"
    );
    assert_eq!(recycled, sessions, "one recycled derivation per rank per wave");
    assert!(pgcid_recycled > 0, "comm frees must recycle PGCIDs");
    assert_eq!(leaked, 0, "teardown audit found live CIDs");
    // 10% of the in-flight idups (every 10th wave, all ranks) are dropped
    // mid-flight; each drop must surface as exactly one cancellation.
    let abandoned = if abandon { waves.div_ceil(10) * NP as u64 } else { 0 };
    assert_eq!(cancelled, abandoned, "every abandoned request must be cancelled, nothing else");
    if !no_gc && waves > GC_TOMBSTONE_THRESHOLD as u64 {
        assert!(gced > 0, "churn past the threshold must trigger GC");
    }

    let verdict = soak::leak_verdict(&baseline, &fin, GC_TOMBSTONE_THRESHOLD as i64);
    println!("\n{}", verdict.render());

    let mut sink = bench_harness::MetricsSink::from_args(&args);
    sink.record("soak_churn", bench_harness::settled_export(&launcher));
    sink.finish();
    let passed = verdict.passed;
    dump_json(
        "fig_soak",
        &Report {
            waves,
            gc_enabled: !no_gc,
            abandoned_idups: abandoned,
            elapsed_s: elapsed,
            sessions_per_s: sessions as f64 / elapsed,
            samples,
            high_water,
            verdict,
        },
    );
    if !passed {
        std::process::exit(1);
    }
}
