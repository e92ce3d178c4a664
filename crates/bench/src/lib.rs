//! Shared plumbing for the figure regenerators.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index): it runs the workload on the
//! simulated testbed, prints the same rows/series the paper reports, and
//! can dump machine-readable JSON next to the human-readable table.

use apps::run::Run;
use serde::Serialize;
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};

/// Standard location for JSON result dumps (`target/figures/`).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Write a JSON result record for a figure.
pub fn dump_json<T: Serialize>(figure: &str, value: &T) {
    let path = results_dir().join(format!("{figure}.json"));
    match serde_json::to_vec_pretty(value) {
        Ok(bytes) => write_file(&path, figure, &bytes),
        Err(e) => eprintln!("warn: could not serialize {figure}: {e}"),
    }
}

/// Read `--key value` style options.
pub fn cli_opt(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).cloned()
}

/// Presence of a flag.
pub fn cli_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Run `f` `reps` times (at least once) and keep the run with the
/// smallest `key`.
pub fn best_of<T>(reps: usize, f: impl Fn() -> T, key: impl Fn(&T) -> f64) -> T {
    (0..reps.max(1))
        .map(|_| f())
        .min_by(|a, b| key(a).total_cmp(&key(b)))
        .expect("at least one rep")
}

/// Max logical critical-path cost over a trace report's traces.
pub fn critical_path_cost(report: &Value) -> u64 {
    report
        .as_object()
        .and_then(|r| r.get("traces")?.as_array())
        .and_then(|traces| {
            traces.iter().filter_map(|t| t.as_object()?.get("critical_path_cost")?.as_u64()).max()
        })
        .unwrap_or(0)
}

/// One field (`count`, `exclusive`) of one stage of a trace report (or
/// of a `bench_gate` record, which keeps the same `stages` shape).
pub fn stage_field(report: &Value, stage: &str, field: &str) -> u64 {
    report
        .as_object()
        .and_then(|r| r.get("stages")?.as_object()?.get(stage)?.as_object()?.get(field)?.as_u64())
        .unwrap_or(0)
}

/// Collects per-run obs exports (`--metrics-out <path>`) and analyzed
/// span-DAG traces (`--trace-out <path>`) under run labels.
///
/// `finish` writes each enabled file as one JSON object mapping labels to
/// exports or reports, plus a flamegraph-style text rendering of every
/// trace next to the trace file (`<path>.flame.txt`). Trace reports are
/// derived from logical clocks and work counters only, so two runs at the
/// same seed and size produce byte-identical trace files. Without either
/// flag the sink is disabled and `record` reads nothing from the run.
pub struct Sink {
    metrics: Option<(PathBuf, Map)>,
    traces: Option<(PathBuf, Map)>,
}

impl Sink {
    /// Build from argv: honors `--metrics-out <path>` and `--trace-out <path>`.
    pub fn from_args(args: &[String]) -> Sink {
        let out = |key| cli_opt(args, key).map(|p| (PathBuf::from(p), Map::new()));
        Sink { metrics: out("--metrics-out"), traces: out("--trace-out") }
    }

    /// Record one settled run under `label`.
    ///
    /// A run whose obs ring dropped events, or whose span buffer
    /// overflowed, is a **hard failure**: the export would silently
    /// under-report and an incomplete DAG would yield a silently wrong
    /// critical path, so refuse to produce either (raise the capacity or
    /// trim the workload instead).
    pub fn record<T>(&mut self, label: &str, run: &Run<T>) {
        if let Some((_, runs)) = &mut self.metrics {
            let metrics = run.export();
            let dropped = metrics
                .as_object()
                .and_then(|o| o.get("events")?.as_object()?.get("dropped")?.as_u64())
                .unwrap_or(0);
            assert!(
                dropped == 0,
                "run '{label}': {dropped} event(s) dropped from the obs ring; \
                 a --metrics-out export must be complete"
            );
            runs.insert(label.to_owned(), metrics);
        }
        if let Some((_, runs)) = &mut self.traces {
            let trace = run.trace();
            let dropped =
                trace.as_object().and_then(|o| o.get("spans_dropped")?.as_u64()).unwrap_or(0);
            assert!(
                dropped == 0,
                "run '{label}': {dropped} span(s) dropped from the trace buffer; \
                 a --trace-out report must be complete"
            );
            runs.insert(label.to_owned(), trace.clone());
        }
    }

    /// Write the collected files; prints each destination on success.
    pub fn finish(self) {
        if let Some((path, runs)) = self.traces {
            let mut flame = String::new();
            for (label, report) in &runs {
                flame.push_str(&format!("== {label} ==\n"));
                flame.push_str(&obs::analyze::flamegraph_text(report));
                flame.push('\n');
            }
            write_json(&path, "traces", Value::Object(runs));
            let flame_path = PathBuf::from(format!("{}.flame.txt", path.display()));
            write_file(&flame_path, "flamegraph", flame.as_bytes());
        }
        if let Some((path, runs)) = self.metrics {
            write_json(&path, "metrics", Value::Object(runs));
        }
    }
}

fn write_json(path: &Path, what: &str, value: Value) {
    match serde_json::to_vec_pretty(&value) {
        Ok(bytes) => write_file(path, what, &bytes),
        Err(e) => eprintln!("warn: could not serialize {what}: {e}"),
    }
}

fn write_file(path: &Path, what: &str, bytes: &[u8]) {
    match std::fs::write(path, bytes) {
        Ok(()) => eprintln!("(wrote {what} to {})", path.display()),
        Err(e) => eprintln!("warn: could not write {what} to {}: {e}", path.display()),
    }
}

/// The sessions-as-a-service soak's report (`fig_soak`): per-component
/// high-water marks and the leak-freedom verdict the soak gates on, over
/// the levels `apps::workload::soak` samples.
pub mod soak {
    use apps::workload::LevelSample;
    use serde::Serialize;

    /// Per-component high-water marks (peak levels over the whole run),
    /// as `(label, peak)` rows for the soak report.
    pub fn high_water(obs: &obs::Registry) -> Vec<(String, i64)> {
        [
            ("cid/table_used", obs.sum_gauge_high_water("cid", "table_used")),
            ("pml/cache_entries", obs.sum_gauge_high_water("pml", "cache_entries")),
            ("registry/psets_live", obs.sum_gauge_high_water("pmix", "psets_live")),
            ("registry/psets_tombstoned", obs.sum_gauge_high_water("pmix", "psets_tombstoned")),
            ("server/kvs_entries", obs.sum_gauge_high_water("pmix", "kvs_entries")),
            ("server/pgcid_pool", obs.sum_gauge_high_water("pmix", "pgcid_pool_len")),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
    }

    /// One leak-freedom check: a drained-state value against its bound.
    #[derive(Debug, Serialize)]
    pub struct LeakCheck {
        /// What is being bounded.
        pub what: &'static str,
        /// Observed value after the drain.
        pub value: i64,
        /// Largest value compatible with leak-freedom.
        pub bound: i64,
        /// Whether the check passed.
        pub ok: bool,
    }

    /// The leak-freedom verdict: every per-component level must return to
    /// its baseline once the churn drains.
    #[derive(Debug, Serialize)]
    pub struct LeakVerdict {
        /// Individual checks, all of which must pass.
        pub checks: Vec<LeakCheck>,
        /// Conjunction of all checks.
        pub passed: bool,
    }

    impl LeakVerdict {
        /// Render the verdict as an aligned table plus a PASS/FAIL line.
        pub fn render(&self) -> String {
            let mut out = String::new();
            out.push_str(&format!("{:>34} {:>10} {:>10} {:>6}\n", "check", "value", "bound", "ok"));
            for c in &self.checks {
                out.push_str(&format!(
                    "{:>34} {:>10} {:>10} {:>6}\n",
                    c.what,
                    c.value,
                    c.bound,
                    if c.ok { "ok" } else { "LEAK" }
                ));
            }
            out.push_str(&format!(
                "leak-freedom: {}\n",
                if self.passed { "PASS" } else { "FAIL" }
            ));
            out
        }
    }

    /// Judge a drained run: `baseline` was sampled at the quiet point
    /// before the churn started (launch-defined psets in place, no live
    /// sessions), `fin` after the last wave drained. Communicator tables
    /// and the PML cache must be empty, live psets and KVS entries back at
    /// baseline, and tombstones held under `tombstone_cap` by the GC.
    pub fn leak_verdict(
        baseline: &LevelSample,
        fin: &LevelSample,
        tombstone_cap: i64,
    ) -> LeakVerdict {
        let checks = vec![
            check("cid table drained", fin.cid_table_used, 0),
            check("pml handshake cache drained", fin.pml_cache_entries, 0),
            check("live psets at baseline", fin.psets_live, baseline.psets_live),
            check("tombstones under GC cap", fin.psets_tombstoned, tombstone_cap),
            check("server kvs at baseline", fin.kvs_entries, baseline.kvs_entries),
        ];
        let passed = checks.iter().all(|c| c.ok);
        LeakVerdict { checks, passed }
    }

    fn check(what: &'static str, value: i64, bound: i64) -> LeakCheck {
        LeakCheck { what, value, bound, ok: value <= bound }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn drained(wave: u64) -> LevelSample {
            LevelSample {
                wave,
                cid_table_used: 0,
                pml_cache_entries: 0,
                psets_live: 3,
                psets_tombstoned: 4,
                kvs_entries: 8,
                pgcid_pool: 16,
            }
        }

        #[test]
        fn verdict_passes_when_levels_return_to_baseline() {
            let v = leak_verdict(&drained(0), &drained(100), 32);
            assert!(v.passed, "{}", v.render());
            assert_eq!(v.checks.len(), 5);
        }

        #[test]
        fn verdict_fails_on_unreaped_tombstones_or_live_cids() {
            let mut leaky = drained(100);
            leaky.psets_tombstoned = 33;
            let v = leak_verdict(&drained(0), &leaky, 32);
            assert!(!v.passed);
            assert!(v.render().contains("LEAK"));

            let mut leaky = drained(100);
            leaky.cid_table_used = 2;
            assert!(!leak_verdict(&drained(0), &leaky, 32).passed);
        }
    }
}

/// Geometric mean of relative ratios (used for Fig. 5-style summaries).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Parse a comma-separated list of integers (`--nodes 1,2,4,8`).
pub fn parse_list(s: &str) -> Vec<u32> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| t.trim().parse().expect("integer list"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_ones_is_one() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn parse_list_handles_spaces() {
        assert_eq!(parse_list("1, 2,4"), vec![1, 2, 4]);
    }

    #[test]
    fn cli_helpers() {
        let args: Vec<String> =
            ["--nodes", "4", "--presync"].iter().map(|s| s.to_string()).collect();
        assert_eq!(cli_opt(&args, "--nodes").as_deref(), Some("4"));
        assert_eq!(cli_opt(&args, "--ppn"), None);
        assert!(cli_flag(&args, "--presync"));
        assert!(!cli_flag(&args, "--quiet"));
    }

    #[test]
    fn sink_writes_labeled_runs_only_when_asked() {
        let run = apps::workload::comm_cycle(
            apps::run::Job::new(simnet::SimTestbed::tiny(1, 2)),
            2,
            apps::InitMode::Sessions,
        );
        let mut off = Sink::from_args(&["prog".to_string()]);
        off.record("run", &run);
        off.finish(); // writes nothing, panics on nothing

        let dir = std::env::temp_dir();
        let metrics = dir.join(format!("bench_sink_test_{}.json", std::process::id()));
        let traces = dir.join(format!("bench_sink_test_{}.trace.json", std::process::id()));
        let flame = PathBuf::from(format!("{}.flame.txt", traces.display()));
        let args: Vec<String> = [
            "prog",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            traces.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut sink = Sink::from_args(&args);
        sink.record("nodes1_sessions", &run);
        sink.finish();
        for path in [&metrics, &traces, &flame] {
            let data = std::fs::read_to_string(path).unwrap();
            assert!(data.contains("nodes1_sessions"), "{}", path.display());
            let _ = std::fs::remove_file(path);
        }
    }
}
