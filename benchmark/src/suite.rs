//! The full-suite run (`run.sh` without `--workload`) and `compare`.
//!
//! A suite runs every workload with fixed op counts, so that obs counters
//! per op repeat exactly and two suites of the same commit can be compared
//! count for count. Rounds are interleaved (A B C D E, A B C D E, …) so
//! that drift on the host hits every workload alike.

use crate::driver::{self, Host, RoundSpec};
use crate::probes::Metrics;
use crate::spec::{MetricSpec, Spec};
use crate::stats::median;
use crate::workloads::{Budget, Round, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

pub const SCHEMA: &str = "perfbench-suite-v1";

/// A spread of `ops_per_s` over a workload's rounds above this triggers
/// extra rounds of that workload (the noise guard).
const NOISE_GUARD_SPREAD: f64 = 0.10;

/// How much of everything a suite runs.
pub struct Size {
    pub rounds: usize,
    pub extra_rounds: usize,
    pub traced_rounds: usize,
    pub ops: fn(Workload) -> (u64, u64),
}

impl Size {
    pub const FULL: Size = Size {
        rounds: 15,
        extra_rounds: 5,
        traced_rounds: 5,
        ops: Workload::suite_ops,
    };
    /// Seconds, not minutes: shows that everything runs and verifies.
    pub const SMOKE: Size = Size {
        rounds: 2,
        extra_rounds: 0,
        traced_rounds: 1,
        ops: Workload::smoke_ops,
    };
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub warmup_ops: u64,
    pub timed_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Median over the untraced rounds.
    pub end_to_end: Metrics,
    /// Quartile spread over the untraced rounds, per end-to-end metric.
    pub spread: Metrics,
    pub per_layer: Metrics,
    /// Every round that ran, extra rounds included.
    pub rounds: Vec<Round>,
    pub traced_rounds: Vec<Round>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteResult {
    pub schema: String,
    pub host: Host,
    pub seed: u64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

pub fn run(host: &Host, seed: u64, size: &Size) -> Result<SuiteResult, String> {
    let spec_for = |workload, traced| {
        let (warmup_ops, timed_ops) = (size.ops)(workload);
        RoundSpec {
            workload,
            seed,
            traced,
            warmup_ops,
            budget: Budget::Ops(timed_ops),
        }
    };
    let mut untraced: BTreeMap<&str, Vec<Round>> = BTreeMap::new();
    let mut traced: BTreeMap<&str, Vec<Round>> = BTreeMap::new();
    // Traced rounds are spread evenly among the untraced ones, so that the
    // two rates behind `harness.trace_overhead_share` see the same host.
    let every = (size.rounds / size.traced_rounds.max(1)).max(1);
    for round in 0..size.rounds {
        eprintln!("perfbench: round {}/{}", round + 1, size.rounds);
        let with_traced = (round + 1) % every == 0 && (round + 1) / every <= size.traced_rounds;
        for is_traced in [false, true] {
            if is_traced && !with_traced {
                continue;
            }
            let into = if is_traced {
                &mut traced
            } else {
                &mut untraced
            };
            for w in Workload::ALL {
                into.entry(w.name())
                    .or_default()
                    .push(driver::run_round(host, &spec_for(w, is_traced))?);
            }
        }
    }
    for w in Workload::ALL {
        let rounds = untraced.get_mut(w.name()).expect("every workload ran");
        let spread = |rounds: &[Round]| driver::round_spreads(rounds)["ops_per_s"];
        for extra in 0..size.extra_rounds {
            if spread(rounds) <= NOISE_GUARD_SPREAD {
                break;
            }
            eprintln!(
                "perfbench: {}: noisy rounds, extra round {}/{}",
                w.name(),
                extra + 1,
                size.extra_rounds
            );
            rounds.push(driver::run_round(host, &spec_for(w, false))?);
        }
    }
    let probes = driver::run_probes(host, seed)?;
    let mut workloads = BTreeMap::new();
    for w in Workload::ALL {
        let (rounds, traced_rounds) = (&untraced[w.name()], &traced[w.name()]);
        let (warmup_ops, timed_ops) = (size.ops)(w);
        let (attempted, failed) = driver::counts(rounds.iter().chain(traced_rounds));
        workloads.insert(
            w.name().to_owned(),
            WorkloadResult {
                warmup_ops,
                timed_ops,
                attempted,
                failed,
                end_to_end: driver::end_to_end(rounds)?,
                spread: driver::round_spreads(rounds),
                per_layer: driver::per_layer(rounds, traced_rounds, &probes)?,
                rounds: rounds.clone(),
                traced_rounds: traced_rounds.clone(),
            },
        );
    }
    Ok(SuiteResult {
        schema: SCHEMA.to_owned(),
        host: host.clone(),
        seed,
        workloads,
    })
}

pub fn print(result: &SuiteResult, spec: &Spec) -> Result<(), String> {
    let h = &result.host;
    println!(
        "# perfbench suite: seed {}, pinned to {}, nproc {}, {}, commit {}",
        result.seed,
        h.pinned_cpu
            .map_or("NOTHING (unpinned)".to_owned(), |c| format!("cpu {c}")),
        h.nproc,
        h.rustc,
        h.git_commit
    );
    for (name, w) in &result.workloads {
        println!();
        let rounds = w.rounds.len();
        let title = format!(
            "{name}: {} warm-up + {} timed ops per round, {rounds} rounds, {} of {} ops failed",
            w.warmup_ops, w.timed_ops, w.failed, w.attempted
        );
        driver::print_table(&title, &driver::select(&spec.end_to_end, &w.end_to_end)?);
        // The highest percentile the sample supports (ten samples beyond it).
        if let Some(r) = w.rounds.iter().find(|r| r.samples > 0) {
            let top: Vec<f64> = w
                .rounds
                .iter()
                .filter(|r| r.samples > 0)
                .map(|r| r.top_pct_us)
                .collect();
            println!(
                "{:<36} {:>16.4} us (median of rounds, {} samples each)",
                format!("highest: op_us_{}", r.top_pct),
                median(&top),
                r.samples
            );
        }
        driver::print_table(
            &format!("{name}: per layer"),
            &driver::select(&spec.per_layer, &w.per_layer)?,
        );
    }
    Ok(())
}

pub fn save(result: &SuiteResult, path: &Path) -> Result<(), String> {
    let text = serde_json::to_string_pretty(result).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn parse(text: &str) -> Result<SuiteResult, String> {
    let result: SuiteResult = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if result.schema != SCHEMA {
        return Err(format!("schema {:?}, not {SCHEMA:?}", result.schema));
    }
    Ok(result)
}

pub fn load(path: &str) -> Result<SuiteResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The rounds of one side spread wider than the bound: the data cannot
    /// tell `same` from a change of that size.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base` for one metric. `spread` is the wider of the
/// two sides' quartile spreads over rounds.
pub fn verdict(spec: &MetricSpec, base: f64, new: f64, spread: f64) -> Verdict {
    let bound = spec.bound.expect("end-to-end metrics carry a bound");
    // Positive = worse, as a share of the base.
    let worsening = if spec.higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    };
    if worsening > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Why two results cannot be compared at all, if they cannot.
pub fn mismatch(base: &SuiteResult, new: &SuiteResult) -> Option<String> {
    let (b, n) = (&base.host, &new.host);
    if b.pinned_cpu.is_some() != n.pinned_cpu.is_some() {
        return Some("one result is pinned and the other is not".into());
    }
    if b.nproc != n.nproc {
        return Some(format!("nproc differs: {} against {}", b.nproc, n.nproc));
    }
    if base.seed != new.seed {
        return Some(format!("seed differs: {} against {}", base.seed, new.seed));
    }
    for (name, bw) in &base.workloads {
        match new.workloads.get(name) {
            None => return Some(format!("workload {name} is missing from the new result")),
            Some(nw) if (bw.warmup_ops, bw.timed_ops) != (nw.warmup_ops, nw.timed_ops) => {
                return Some(format!("op counts of {name} differ"));
            }
            Some(_) => {}
        }
    }
    (base.workloads.len() != new.workloads.len())
        .then(|| "the new result has extra workloads".into())
}

/// Counts read from obs counters repeat exactly between two suites of the
/// same program; the harness's own `_per_op` figures (memory) do not.
fn is_exact_count(metric: &str) -> bool {
    metric.ends_with("_per_op") && !metric.starts_with("harness.")
}

/// Print one row per (workload, end-to-end metric) and the `*_per_op`
/// counts that differ. `Ok(true)` when nothing got worse.
pub fn compare(base: &SuiteResult, new: &SuiteResult, spec: &Spec) -> Result<bool, String> {
    if let Some(why) = mismatch(base, new) {
        return Err(format!("refusing to compare: {why}"));
    }
    let mut clean = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for (name, bw) in &base.workloads {
        let nw = &new.workloads[name];
        for m in &spec.end_to_end {
            let (b, n) = (bw.end_to_end[&m.name], nw.end_to_end[&m.name]);
            let spread = bw.spread[&m.name].max(nw.spread[&m.name]);
            let v = verdict(m, b, n, spread);
            clean &= v != Verdict::Worse;
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.3} {:>8.2}  {}",
                name,
                m.name,
                b,
                n,
                n / b,
                m.bound.unwrap_or(0.0),
                v.label()
            );
        }
        let failed_share = |w: &WorkloadResult| w.failed as f64 / w.attempted.max(1) as f64;
        if failed_share(nw) > failed_share(bw) {
            clean = false;
            println!(
                "{name:<16} failed_share rose: {} against {}",
                failed_share(nw),
                failed_share(bw)
            );
        }
        for (key, b) in bw.per_layer.iter().filter(|(k, _)| is_exact_count(k)) {
            let n = nw.per_layer.get(key).copied().unwrap_or(f64::NAN);
            if n != *b {
                println!("{name:<16} {key} differs: {b} against {n}");
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "op_us_p50".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    fn higher(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "ops_per_s".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_apply_the_bound_in_the_metrics_direction() {
        assert_eq!(verdict(&lower(0.10), 100.0, 105.0, 0.02), Verdict::Same);
        assert_eq!(verdict(&lower(0.10), 100.0, 111.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(&lower(0.10), 100.0, 85.0, 0.02), Verdict::Better);
        assert_eq!(verdict(&higher(0.10), 100.0, 85.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(&higher(0.10), 100.0, 115.0, 0.02), Verdict::Better);
        // Rounds spread wider than the bound: no `same`, no `better`.
        assert_eq!(
            verdict(&lower(0.10), 100.0, 105.0, 0.12),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&lower(0.10), 100.0, 80.0, 0.12),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&lower(0.10), 100.0, 130.0, 0.12), Verdict::Worse);
    }

    fn result(pinned: Option<u32>, seed: u64, timed_ops: u64) -> SuiteResult {
        let w = WorkloadResult {
            warmup_ops: 10,
            timed_ops,
            attempted: 100,
            failed: 0,
            end_to_end: Metrics::new(),
            spread: Metrics::new(),
            per_layer: Metrics::new(),
            rounds: vec![],
            traced_rounds: vec![],
        };
        SuiteResult {
            schema: SCHEMA.into(),
            host: Host {
                pinned_cpu: pinned,
                nproc: 2,
                rustc: "r".into(),
                git_commit: "c".into(),
            },
            seed,
            workloads: [("init_cold".to_owned(), w)].into(),
        }
    }

    #[test]
    fn compare_refuses_to_mix_unlike_runs() {
        let base = result(Some(1), 1, 100);
        assert_eq!(mismatch(&base, &result(Some(3), 1, 100)), None);
        assert!(mismatch(&base, &result(None, 1, 100))
            .unwrap()
            .contains("pinned"));
        assert!(mismatch(&base, &result(Some(1), 2, 100))
            .unwrap()
            .contains("seed"));
        assert!(mismatch(&base, &result(Some(1), 1, 200))
            .unwrap()
            .contains("op counts"));
        let spec = Spec {
            workloads: vec![],
            end_to_end: vec![],
            per_layer: vec![],
        };
        assert!(compare(&base, &result(None, 1, 100), &spec).is_err());
        assert_eq!(compare(&base, &base, &spec), Ok(true));
    }

    #[test]
    fn result_round_trips_through_json() {
        let base = result(Some(1), 9, 100);
        let back = parse(&serde_json::to_string_pretty(&base).unwrap()).unwrap();
        assert_eq!(
            (back.seed, &back.host, back.workloads["init_cold"].timed_ops),
            (9, &base.host, 100)
        );
        let other = SuiteResult {
            schema: "something-else".into(),
            ..base
        };
        assert!(parse(&serde_json::to_string(&other).unwrap())
            .unwrap_err()
            .contains("schema"));
    }
}
