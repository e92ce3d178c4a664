//! Shared plumbing for the figure regenerators.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index): it runs the workload on the
//! simulated testbed, prints the same rows/series the paper reports, and
//! can dump machine-readable JSON next to the human-readable table.

use serde::Serialize;
use serde_json::{Map, Value};
use std::path::PathBuf;

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
        Ok(bytes) => {
            if let Err(e) = std::fs::write(&path, bytes) {
                eprintln!("warn: could not write {}: {e}", path.display());
            } else {
                eprintln!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warn: could not serialize {figure}: {e}"),
    }
}

/// The obs export of a finished run, taken after the universe shuts
/// down. Shutdown drains every PMIx server's mailbox: the last release of
/// a PGCID may still be on its one-way trip to the lead server when the
/// ranks exit, and only a drained lead has counted it (`bench_gate` reads
/// its record the same way).
pub fn settled_export(launcher: &prrte::Launcher) -> Value {
    launcher.universe().shutdown();
    launcher.universe().fabric().obs().export()
}

/// Collects per-run obs registry exports (`--metrics-out <path>`).
///
/// Each figure binary records the observability export of its runs under
/// a run label; `finish` writes one JSON object mapping labels to exports.
/// Without `--metrics-out` on the command line the sink is disabled and
/// `record`/`finish` are no-ops, so the instrumented path costs nothing.
pub struct MetricsSink {
    path: Option<PathBuf>,
    runs: Map,
}

impl MetricsSink {
    /// Build from argv: honors `--metrics-out <path>`.
    pub fn from_args(args: &[String]) -> MetricsSink {
        let path = args
            .iter()
            .position(|a| a == "--metrics-out")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from);
        MetricsSink { path, runs: Map::new() }
    }

    /// Whether `--metrics-out` was given (skip export work otherwise).
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Record one run's metrics export under `label`.
    ///
    /// A `--metrics-out` run with dropped events is a **hard failure**:
    /// the export would silently under-report, so refuse to produce it
    /// (raise the ring capacity or trim the workload instead).
    pub fn record(&mut self, label: &str, metrics: Value) {
        if self.enabled() {
            let dropped = metrics
                .as_object()
                .and_then(|o| o.get("events"))
                .and_then(|e| e.as_object())
                .and_then(|e| e.get("dropped"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            assert!(
                dropped == 0,
                "run '{label}': {dropped} event(s) dropped from the obs ring; \
                 a --metrics-out export must be complete"
            );
            self.runs.insert(label.to_owned(), metrics);
        }
    }

    /// Write the collected exports; prints the destination on success.
    pub fn finish(self) {
        let Some(path) = self.path else { return };
        match serde_json::to_vec_pretty(&Value::Object(self.runs)) {
            Ok(bytes) => {
                if let Err(e) = std::fs::write(&path, bytes) {
                    eprintln!("warn: could not write metrics to {}: {e}", path.display());
                } else {
                    eprintln!("(wrote metrics to {})", path.display());
                }
            }
            Err(e) => eprintln!("warn: could not serialize metrics: {e}"),
        }
    }
}

/// Collects per-run span-DAG trace reports (`--trace-out <path>`).
///
/// Mirrors [`MetricsSink`]: figure binaries record the analyzed trace of
/// each run (see `obs::analyze`) under a run label; `finish` writes one
/// JSON object mapping labels to reports, plus a flamegraph-style text
/// rendering of every trace next to it (`<path>.flame.txt`). Reports are
/// derived from logical clocks and work counters only, so two runs at the
/// same seed and size produce byte-identical files.
pub struct TraceSink {
    path: Option<PathBuf>,
    runs: Map,
}

impl TraceSink {
    /// Build from argv: honors `--trace-out <path>`.
    pub fn from_args(args: &[String]) -> TraceSink {
        let path = args
            .iter()
            .position(|a| a == "--trace-out")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from);
        TraceSink { path, runs: Map::new() }
    }

    /// Whether `--trace-out` was given (skip trace analysis otherwise).
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Record one run's trace report under `label`.
    ///
    /// A traced run that overflowed the span buffer is a hard failure for
    /// the same reason dropped events are: an incomplete DAG would yield a
    /// silently wrong critical path.
    pub fn record(&mut self, label: &str, trace: Value) {
        if !self.enabled() {
            return;
        }
        let dropped = trace
            .as_object()
            .and_then(|o| o.get("spans_dropped"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        assert!(
            dropped == 0,
            "run '{label}': {dropped} span(s) dropped from the trace buffer; \
             a --trace-out report must be complete"
        );
        self.runs.insert(label.to_owned(), trace);
    }

    /// Write the collected reports; prints the destinations on success.
    pub fn finish(self) {
        let Some(path) = self.path else { return };
        let mut flame = String::new();
        for (label, report) in &self.runs {
            flame.push_str(&format!("== {label} ==\n"));
            flame.push_str(&obs::analyze::flamegraph_text(report));
            flame.push('\n');
        }
        match serde_json::to_vec_pretty(&Value::Object(self.runs)) {
            Ok(bytes) => {
                if let Err(e) = std::fs::write(&path, bytes) {
                    eprintln!("warn: could not write traces to {}: {e}", path.display());
                } else {
                    eprintln!("(wrote traces to {})", path.display());
                }
            }
            Err(e) => eprintln!("warn: could not serialize traces: {e}"),
        }
        let flame_path = PathBuf::from(format!("{}.flame.txt", path.display()));
        if let Err(e) = std::fs::write(&flame_path, flame) {
            eprintln!("warn: could not write flamegraph to {}: {e}", flame_path.display());
        } else {
            eprintln!("(wrote flamegraph to {})", flame_path.display());
        }
    }
}

/// Shared machinery for the sessions-as-a-service soak harness
/// (`fig_soak` and `bench_gate`'s soak workload): resource-level sampling
/// over the obs gauges and the leak-freedom verdict the soak gates on.
pub mod soak {
    use serde::Serialize;

    /// One reading of the per-component resource levels the lifecycle GC
    /// is responsible for, sampled from the shared obs registry. Gauges
    /// are *levels* (their high-water marks are tracked separately by
    /// `obs`), so a drained runtime must show the baseline again.
    #[derive(Clone, Copy, Debug, Serialize)]
    pub struct LevelSample {
        /// Churn wave at which the sample was taken.
        pub wave: u64,
        /// Sum of per-process communicator-table occupancy (`cid/table_used`).
        pub cid_table_used: i64,
        /// Sum of per-process PML handshake-cache entries (`pml/cache_entries`).
        pub pml_cache_entries: i64,
        /// Live psets in the namespace registry (`registry/pmix/psets_live`).
        pub psets_live: i64,
        /// Retained tombstones (`registry/pmix/psets_tombstoned`).
        pub psets_tombstoned: i64,
        /// Sum of per-shard server KVS entries (`pmix/kvs_entries`).
        pub kvs_entries: i64,
        /// Sum of per-server PGCID pool occupancy (`pmix/pgcid_pool_len`).
        pub pgcid_pool: i64,
    }

    /// The six lifecycle levels bound once as MPI_T pvar handles — the
    /// soak harness samples the runtime through the same tool surface an
    /// external MPI_T agent would use, and `PvarSession` reads are defined
    /// to agree with `Registry::export`, so the soak report and a tool
    /// watching the same run can never disagree.
    pub struct SoakPvars {
        session: obs::PvarSession,
        cid_table_used: obs::PvarHandle,
        pml_cache_entries: obs::PvarHandle,
        psets_live: obs::PvarHandle,
        psets_tombstoned: obs::PvarHandle,
        kvs_entries: obs::PvarHandle,
        pgcid_pool: obs::PvarHandle,
    }

    impl SoakPvars {
        /// Bind the level handles over `registry`.
        pub fn bind(registry: std::sync::Arc<obs::Registry>) -> Self {
            let mut session = obs::PvarSession::new(registry);
            let cid_table_used = session.bind_level_sum("cid", "table_used");
            let pml_cache_entries = session.bind_level_sum("pml", "cache_entries");
            let psets_live = session.bind_level("registry", "pmix", "psets_live");
            let psets_tombstoned = session.bind_level("registry", "pmix", "psets_tombstoned");
            let kvs_entries = session.bind_level_sum("pmix", "kvs_entries");
            let pgcid_pool = session.bind_level_sum("pmix", "pgcid_pool_len");
            Self {
                session,
                cid_table_used,
                pml_cache_entries,
                psets_live,
                psets_tombstoned,
                kvs_entries,
                pgcid_pool,
            }
        }

        /// Sample every bound level.
        pub fn sample(&self, wave: u64) -> LevelSample {
            LevelSample {
                wave,
                cid_table_used: self.session.read_i64(self.cid_table_used),
                pml_cache_entries: self.session.read_i64(self.pml_cache_entries),
                psets_live: self.session.read_i64(self.psets_live),
                psets_tombstoned: self.session.read_i64(self.psets_tombstoned),
                kvs_entries: self.session.read_i64(self.kvs_entries),
                pgcid_pool: self.session.read_i64(self.pgcid_pool),
            }
        }
    }

    /// Sample the current resource levels (one-shot convenience over
    /// [`SoakPvars`]).
    pub fn sample(obs: &std::sync::Arc<obs::Registry>, wave: u64) -> LevelSample {
        SoakPvars::bind(obs.clone()).sample(wave)
    }

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
    fn metrics_sink_is_noop_without_flag() {
        let mut sink = MetricsSink::from_args(&["prog".to_string()]);
        assert!(!sink.enabled());
        sink.record("run", Value::U64(1));
        sink.finish(); // writes nothing, panics on nothing
    }

    #[test]
    fn metrics_sink_writes_labeled_runs() {
        let path = std::env::temp_dir().join("bench_metrics_sink_test.json");
        let args: Vec<String> = ["prog", "--metrics-out", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut sink = MetricsSink::from_args(&args);
        assert!(sink.enabled());
        sink.record("nodes2_sessions", Value::U64(7));
        sink.finish();
        let data = std::fs::read_to_string(&path).unwrap();
        assert!(data.contains("nodes2_sessions"));
        let _ = std::fs::remove_file(&path);
    }
}
