//! The parent side: runs every round as a child process of its own, pinned
//! to one CPU, and turns rounds into the metrics `BENCHMARK.json` names.
//!
//! Why many short rounds: on the host class this was sized on, the noise
//! that matters is per process (the same binary and op count differ by
//! about ±5 % from one process to the next, with no trend between
//! neighbours), so a run reports the median over many one-second children
//! and not one long measurement.

use crate::probes::Metrics;
use crate::spec::MetricSpec;
use crate::stats::{median, quartile_spread};
use crate::workloads::{Budget, Round, Workload};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Seconds the probe pass takes, set aside from a traced run's budget.
const PROBE_SECONDS: f64 = 4.0;

/// Where and how the rounds ran; two results compare only if these agree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// The CPU every child is pinned to; `None` when `taskset` is missing.
    pub pinned_cpu: Option<u32>,
    pub nproc: u32,
    pub rustc: String,
    pub git_commit: String,
}

/// The CPU ids of a `Cpus_allowed_list` value such as `0-3,8`.
pub fn parse_cpu_list(list: &str) -> Vec<u32> {
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse::<u32>().ok()?..=hi.trim().parse::<u32>().ok()?)
        })
        .flatten()
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

impl Host {
    pub fn detect() -> Host {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(parse_cpu_list)
            .unwrap_or_default();
        // The highest-numbered CPU: the one the boot CPU's housekeeping
        // (timers, most interrupts) is least likely to share.
        let pinned_cpu = allowed
            .iter()
            .copied()
            .max()
            .filter(|cpu| command_line("taskset", &["-c", &cpu.to_string(), "true"]).is_some());
        if pinned_cpu.is_none() {
            eprintln!(
                "perfbench: WARNING: taskset is unavailable, the rounds run UNPINNED. Unpinned numbers \
                 wander by tens of percent on a shared host and do not compare with pinned ones."
            );
        }
        Host {
            pinned_cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Re-execute this binary with `args`, pinned if possible, and return
    /// the last line it printed.
    fn child(&self, args: &[String]) -> Result<String, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = match self.pinned_cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &cpu.to_string()]).arg(&exe);
                c
            }
            None => Command::new(&exe),
        };
        let out = cmd
            .args(args)
            .output()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_owned();
        if !out.status.success() || last.is_empty() {
            return Err(format!(
                "child {args:?} failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok(last)
    }
}

pub struct RoundSpec {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub warmup_ops: u64,
    pub budget: Budget,
}

pub fn run_round(host: &Host, spec: &RoundSpec) -> Result<Round, String> {
    let mut args: Vec<String> = ["child", "--workload", spec.workload.name()]
        .map(String::from)
        .to_vec();
    let mut flag = |name: &str, value: String| args.extend([name.to_owned(), value]);
    flag("--seed", spec.seed.to_string());
    flag("--trace", u8::from(spec.traced).to_string());
    flag("--warmup", spec.warmup_ops.to_string());
    match spec.budget {
        Budget::Ops(n) => flag("--ops", n.to_string()),
        Budget::Seconds(s) => flag("--seconds", s.to_string()),
    }
    let line = host.child(&args)?;
    serde_json::from_str(&line).map_err(|e| format!("round output {line:?}: {e}"))
}

pub fn run_probes(host: &Host, seed: u64) -> Result<Metrics, String> {
    let line = host.child(&["probe".to_owned(), "--seed".to_owned(), seed.to_string()])?;
    serde_json::from_str(&line).map_err(|e| format!("probe output {line:?}: {e}"))
}

// ---------------------------------------------------------------------------
// Rounds → metrics
// ---------------------------------------------------------------------------

type RoundValue = fn(&Round) -> f64;

/// The per-round value of each end-to-end metric.
const END_TO_END: [(&str, RoundValue); 6] = [
    ("setup_s", |r| r.setup_s),
    ("ops_per_s", Round::ops_per_s),
    ("op_us_p50", |r| r.op_us_p50),
    ("op_us_p90", |r| r.op_us_p90),
    ("cpu_us_per_op", Round::cpu_us_per_op),
    ("peak_rss_mb", |r| r.peak_rss_mb),
];

fn over(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().filter(|r| r.samples > 0).map(f).collect()
}

/// Median over rounds of every end-to-end metric. Rounds without a single
/// good op (hung) carry no measurement and are left out.
pub fn end_to_end(rounds: &[Round]) -> Result<Metrics, String> {
    END_TO_END
        .iter()
        .map(|(name, f)| {
            let values = over(rounds, f);
            if values.is_empty() {
                return Err(format!("{name}: no round produced a sample"));
            }
            Ok(((*name).to_owned(), median(&values)))
        })
        .collect()
}

/// Quartile spread over rounds of every end-to-end metric.
pub fn round_spreads(rounds: &[Round]) -> Metrics {
    END_TO_END
        .iter()
        .map(|(name, f)| ((*name).to_owned(), quartile_spread(&over(rounds, f))))
        .collect()
}

/// Per-layer metrics of one workload: the probe pass, overridden by this
/// workload's own traced rounds, plus what only the pair of passes shows.
pub fn per_layer(
    untraced: &[Round],
    traced: &[Round],
    probes: &Metrics,
) -> Result<Metrics, String> {
    let mut m = probes.clone();
    let maps: [fn(&Round) -> &Metrics; 2] = [|r| &r.calls, |r| &r.per_op];
    for pick in maps {
        let keys: BTreeSet<&String> = traced.iter().flat_map(|r| pick(r).keys()).collect();
        for key in keys {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| pick(r).get(key).copied())
                .collect();
            m.insert(key.clone(), median(&values));
        }
    }
    let plain_rate = over(untraced, Round::ops_per_s);
    let traced_rate = over(traced, Round::ops_per_s);
    if plain_rate.is_empty() || traced_rate.is_empty() {
        return Err("per-layer metrics need an untraced and a traced round with samples".into());
    }
    let op_ns = 1e9 / median(&plain_rate);
    let get = |m: &Metrics, k: &str| {
        m.get(k)
            .copied()
            .ok_or_else(|| format!("probe pass gave no {k}"))
    };
    let obs_ns = get(&m, "obs.spans_per_op")? * get(&m, "obs.span_ns")?
        + get(&m, "obs.events_per_op")? * get(&m, "obs.event_ns")?;
    m.insert("obs.est_share".into(), obs_ns / op_ns);
    m.insert(
        "harness.idle_share".into(),
        median(&over(untraced, Round::idle_share)),
    );
    m.insert(
        "harness.residual_share".into(),
        median(&over(traced, |r| r.residual_share)),
    );
    m.insert(
        "harness.trace_overhead_share".into(),
        1.0 - median(&traced_rate) / median(&plain_rate),
    );
    m.insert(
        "harness.op_us_p99".into(),
        median(&over(untraced, |r| r.op_us_p99)),
    );
    m.insert("harness.round_spread".into(), quartile_spread(&plain_rate));
    m.insert(
        "harness.rss_growth_kb_per_op".into(),
        median(&over(untraced, |r| r.rss_growth_kb_per_op)),
    );
    let (attempted, failed) = counts(untraced.iter().chain(traced));
    m.insert(
        "harness.failed_share".into(),
        failed as f64 / attempted.max(1) as f64,
    );
    for (ratio, over, base) in [
        (
            "paper.sessions_over_wpm_init",
            "core.session.init_eager_us",
            "core.world.init_us",
        ),
        (
            "paper.lazy_over_eager_init",
            "core.session.init_lazy_us",
            "core.session.init_eager_us",
        ),
        (
            "paper.pgcid_over_derived_dup",
            "core.cid.dup_pgcid_us",
            "core.cid.dup_derived_us",
        ),
        (
            "paper.consensus_over_derived_dup",
            "core.cid.dup_consensus_us",
            "core.cid.dup_derived_us",
        ),
        (
            "paper.first_msg_over_steady",
            "core.pml.first_msg_us",
            "core.pml.steady_rt_us",
        ),
    ] {
        let value = get(&m, over)? / get(&m, base)?;
        m.insert(ratio.into(), value);
    }
    Ok(m)
}

/// `(attempted, failed)` summed over rounds.
pub fn counts<'a>(rounds: impl Iterator<Item = &'a Round>) -> (u64, u64) {
    rounds.fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
}

/// Keep exactly the metrics `listed`, in that order; a listed metric the
/// passes did not produce is an error, not a silent gap.
pub fn select<'a>(
    listed: &'a [MetricSpec],
    have: &Metrics,
) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
    listed
        .iter()
        .map(|spec| {
            let value = have
                .get(&spec.name)
                .ok_or_else(|| format!("no value for listed metric {}", spec.name))?;
            Ok((spec, *value))
        })
        .collect()
}

pub fn print_table(title: &str, rows: &[(&MetricSpec, f64)]) {
    println!("# {title}");
    for (spec, value) in rows {
        println!("{:<36} {:>16.4} {}", spec.name, value, spec.unit);
    }
}

// ---------------------------------------------------------------------------
// The contract run: one workload, for about `seconds`
// ---------------------------------------------------------------------------

/// Warm-up ops of a round: a fixed count, so that `setup_s` and
/// `peak_rss_mb` (read when warm-up ends) do not depend on the time budget.
pub fn warmup_ops(workload: Workload) -> u64 {
    workload.suite_ops().0
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// `--trace 0`: one untraced round per second of budget, each its own child.
pub fn measure_end_to_end(
    host: &Host,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let rounds = seconds.floor().max(1.0) as usize;
    let spec = RoundSpec {
        workload,
        seed,
        traced: false,
        warmup_ops: warmup_ops(workload),
        budget: Budget::Seconds(seconds / rounds as f64),
    };
    let rounds = (0..rounds)
        .map(|_| run_round(host, &spec))
        .collect::<Result<Vec<_>, _>>()?;
    report_failures(&rounds);
    let (attempted, failed) = counts(rounds.iter());
    Ok(Outcome {
        attempted,
        failed,
        metrics: end_to_end(&rounds)?,
    })
}

/// `--trace 1`: untraced and traced rounds take turns (their rates give
/// the tracing overhead), then the probe pass.
pub fn measure_per_layer(
    host: &Host,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let pairs = ((seconds - PROBE_SECONDS) / 2.0).floor().max(1.0) as usize;
    let round = |traced| {
        let spec = RoundSpec {
            workload,
            seed,
            traced,
            warmup_ops: warmup_ops(workload),
            budget: Budget::Seconds(1.0),
        };
        run_round(host, &spec)
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        untraced.push(round(false)?);
        traced.push(round(true)?);
    }
    let probes = run_probes(host, seed)?;
    report_failures(&untraced);
    report_failures(&traced);
    let (attempted, failed) = counts(untraced.iter().chain(&traced));
    Ok(Outcome {
        attempted,
        failed,
        metrics: per_layer(&untraced, &traced, &probes)?,
    })
}

fn report_failures(rounds: &[Round]) {
    for r in rounds.iter().filter(|r| r.failed > 0) {
        eprintln!(
            "perfbench: {}: {} of {} ops failed: {}",
            r.workload,
            r.failed,
            r.attempted,
            r.first_error.as_deref().unwrap_or("(no message)")
        );
    }
}

#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

/// The last line the contract asks for.
pub fn result_line(outcome: &Outcome, rows: &[(&MetricSpec, f64)]) -> String {
    let line = ResultLine {
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: rows
            .iter()
            .map(|(spec, value)| {
                (
                    spec.name.clone(),
                    MetricValue {
                        value: *value,
                        unit: spec.unit.clone(),
                    },
                )
            })
            .collect(),
    };
    serde_json::to_string(&line).expect("a result line serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(rate: f64, traced: bool) -> Round {
        Round {
            traced,
            timed_ops: 1_000,
            attempted: 1_001,
            samples: 1_000,
            wall_s: 1_000.0 / rate,
            cpu_s: 500.0 / rate,
            setup_s: 0.2,
            peak_rss_mb: 8.0,
            op_us_p50: 1e6 / rate,
            op_us_p90: 2e6 / rate,
            op_us_p99: 3e6 / rate,
            residual_share: 0.04,
            calls: [("core.cid.dup_derived_us".to_owned(), 10.0)].into(),
            per_op: [
                ("obs.spans_per_op".to_owned(), 50.0),
                ("obs.events_per_op".to_owned(), 2.0),
            ]
            .into(),
            ..Round::default()
        }
    }

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-4, 9"), vec![0, 2, 3, 4, 9]);
        assert_eq!(parse_cpu_list(""), Vec::<u32>::new());
    }

    #[test]
    fn end_to_end_is_the_median_of_rounds_and_skips_hung_ones() {
        let hung = Round {
            attempted: 5,
            failed: 1,
            ..Round::default()
        };
        let rounds = [
            round(900.0, false),
            round(1_000.0, false),
            hung,
            round(4_000.0, false),
        ];
        let m = end_to_end(&rounds).unwrap();
        assert!((m["ops_per_s"] - 1_000.0).abs() < 1e-9);
        assert!((m["op_us_p50"] - 1_000.0).abs() < 1e-9);
        assert!((m["cpu_us_per_op"] - 500.0).abs() < 1e-9);
        assert_eq!((m["setup_s"], m["peak_rss_mb"]), (0.2, 8.0));
        assert_eq!(counts(rounds.iter()), (3 * 1_001 + 5, 1));
        assert!(end_to_end(&[Round::default()]).is_err());
    }

    #[test]
    fn per_layer_merges_probes_rounds_and_derived_shares() {
        let probes: Metrics = [
            ("obs.span_ns", 100.0),
            ("obs.event_ns", 500.0),
            ("core.world.init_us", 200.0),
            ("core.session.init_eager_us", 300.0),
            ("core.session.init_lazy_us", 150.0),
            ("core.cid.dup_pgcid_us", 40.0),
            ("core.cid.dup_derived_us", 99.0),
            ("core.cid.dup_consensus_us", 30.0),
            ("core.pml.first_msg_us", 12.0),
            ("core.pml.steady_rt_us", 6.0),
        ]
        .map(|(k, v)| (k.to_owned(), v))
        .into();
        let m = per_layer(&[round(1_000.0, false)], &[round(950.0, true)], &probes).unwrap();
        // The workload's own traced rounds override the probe pass.
        assert_eq!(m["core.cid.dup_derived_us"], 10.0);
        assert_eq!(m["paper.pgcid_over_derived_dup"], 4.0);
        assert_eq!(m["paper.sessions_over_wpm_init"], 1.5);
        assert_eq!(m["paper.lazy_over_eager_init"], 0.5);
        assert_eq!(m["paper.first_msg_over_steady"], 2.0);
        // 50 spans × 100 ns + 2 events × 500 ns in a 1 ms op.
        assert!((m["obs.est_share"] - 0.006).abs() < 1e-12);
        assert!((m["harness.trace_overhead_share"] - 0.05).abs() < 1e-12);
        assert!((m["harness.idle_share"] - 0.5).abs() < 1e-12);
        assert_eq!(m["harness.failed_share"], 0.0);
        assert!(per_layer(&[], &[round(1.0, true)], &probes).is_err());
    }

    #[test]
    fn the_binary_produces_exactly_the_metrics_benchmark_json_lists() {
        use crate::workloads::{run_round, RoundCfg};
        let spec = crate::spec::Spec::load();
        let probes = crate::probes::run(5).expect("probes run");
        for workload in Workload::ALL {
            let round = |traced| {
                let (warmup_ops, timed_ops) = workload.smoke_ops();
                let cfg = RoundCfg {
                    workload,
                    seed: 5,
                    traced,
                    warmup_ops,
                    budget: Budget::Ops(timed_ops),
                    started: std::time::Instant::now(),
                };
                run_round(&cfg, &Default::default()).expect("round runs").0
            };
            let (untraced, traced) = ([round(false)], [round(true)]);
            let e2e = end_to_end(&untraced).unwrap();
            assert_eq!(select(&spec.end_to_end, &e2e).unwrap().len(), e2e.len());
            let layers = per_layer(&untraced, &traced, &probes).unwrap();
            let listed = select(&spec.per_layer, &layers).unwrap();
            let unlisted: Vec<_> = layers
                .keys()
                .filter(|k| !spec.per_layer.iter().any(|m| &m.name == *k))
                .collect();
            assert!(
                unlisted.is_empty(),
                "{}: not in BENCHMARK.json: {unlisted:?}",
                workload.name()
            );
            assert_eq!(listed.len(), spec.per_layer.len());
        }
    }

    #[test]
    fn select_reports_a_listed_metric_nobody_produced() {
        let listed = [MetricSpec {
            name: "a".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: None,
        }];
        assert!(select(&listed, &Metrics::new()).unwrap_err().contains("a"));
        let have: Metrics = [("a".to_owned(), 1.5), ("extra".to_owned(), 2.0)].into();
        assert_eq!(select(&listed, &have).unwrap()[0].1, 1.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let listed = [MetricSpec {
            name: "setup_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.25),
        }];
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: Metrics::new(),
        };
        let line = result_line(&outcome, &[(&listed[0], 0.8127)]);
        assert_eq!(
            line,
            r#"{"attempted":10,"correct":true,"failed":0,"metrics":{"setup_s":{"unit":"s","value":0.8127}}}"#
        );
    }
}
