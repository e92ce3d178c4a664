//! `perfbench`: the repo's wall-clock benchmark. See `benchmark/README.md`.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1   one workload, the driver's contract
//! perfbench suite [--smoke] [--seed N]                          every workload, writes out/result.json
//! perfbench compare BASE.json NEW.json                          two suite results, row by row
//! perfbench child … / perfbench probe …                         one pinned round / the probe pass (internal)
//! ```

mod driver;
mod probes;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Progress, SpanRec};
use workloads::{Budget, Round, RoundCfg, Workload};

/// An op that makes no progress for this long is a hang: the round ends
/// with that op counted as failed, not with a stuck run.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Where `suite` and traced rounds leave their files, relative to the
/// working directory (`run.sh` makes that the repository root).
const OUT_DIR: &str = "benchmark/out";

struct Args(Vec<String>);

impl Args {
    fn opt(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.opt(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read {v:?}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name)?
            .ok_or_else(|| format!("{name} is required"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.required("--workload")?;
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

// ---------------------------------------------------------------------------
// child: one round in this process
// ---------------------------------------------------------------------------

/// Block until `progress.attempted` has stood still for `timeout`; returns
/// the `(attempted, failed)` counts it stopped at.
fn wait_for_hang(progress: &Progress, timeout: Duration, poll: Duration) -> (u64, u64) {
    let mut last = (progress.attempted.load(Ordering::Relaxed), Instant::now());
    loop {
        std::thread::sleep(poll);
        let now = progress.attempted.load(Ordering::Relaxed);
        if now != last.0 {
            last = (now, Instant::now());
        } else if last.1.elapsed() >= timeout {
            return (now, progress.failed.load(Ordering::Relaxed));
        }
    }
}

/// What a round reports when op number `attempted` never came back: that op
/// is attempted and failed, and there is no measurement.
fn hung_round(cfg: &RoundCfg, attempted: u64, failed: u64) -> Round {
    Round {
        workload: cfg.workload.name().to_owned(),
        seed: cfg.seed,
        traced: cfg.traced,
        warmup_ops: cfg.warmup_ops,
        attempted: attempted + 1,
        failed: failed + 1,
        first_error: Some(format!(
            "op {attempted} made no progress for {} s",
            OP_TIMEOUT.as_secs()
        )),
        ..Round::default()
    }
}

#[derive(Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    timed_ops: u64,
    /// Mean per call over every timed op, in the unit each name ends with.
    calls: BTreeMap<String, f64>,
    residual_share: f64,
    /// The spans of the first ops verbatim (the recorder keeps a bounded
    /// number); `parent` is the id of the op span, `op` the op's number.
    spans: Vec<SpanRec>,
}

fn write_trace(round: &Round, spans: Vec<SpanRec>) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", round.workload));
    let file = TraceFile {
        workload: round.workload.clone(),
        seed: round.seed,
        timed_ops: round.timed_ops,
        calls: round.calls.clone(),
        residual_share: round.residual_share,
        spans,
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let text = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn child(args: &Args, started: Instant) -> Result<(), String> {
    let budget = match (args.parsed("--ops")?, args.parsed("--seconds")?) {
        (Some(ops), None) => Budget::Ops(ops),
        (None, Some(seconds)) => Budget::Seconds(seconds),
        _ => return Err("child takes exactly one of --ops and --seconds".into()),
    };
    let cfg = RoundCfg {
        workload: args.workload()?,
        seed: args.required("--seed")?,
        traced: args.required::<u8>("--trace")? != 0,
        warmup_ops: args.required("--warmup")?,
        budget,
        started,
    };
    let progress = Arc::new(Progress::default());
    let watched = progress.clone();
    // Never joined: it ends with the process, or ends the process.
    std::thread::spawn(move || {
        let (attempted, failed) = wait_for_hang(&watched, OP_TIMEOUT, Duration::from_millis(500));
        let round = hung_round(&cfg, attempted, failed);
        println!(
            "{}",
            serde_json::to_string(&round).expect("a round serializes")
        );
        std::process::exit(0);
    });
    let (round, spans) = workloads::run_round(&cfg, &progress)?;
    if cfg.traced {
        write_trace(&round, spans)?;
    }
    println!(
        "{}",
        serde_json::to_string(&round).map_err(|e| e.to_string())?
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// run: the driver's contract
// ---------------------------------------------------------------------------

fn run(args: &Args) -> Result<bool, String> {
    let spec = spec::Spec::load();
    let workload = args.workload()?;
    if !spec.workloads.iter().any(|w| w == workload.name()) {
        return Err(format!(
            "BENCHMARK.json does not list workload {}",
            workload.name()
        ));
    }
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.required("--seconds")?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err(format!("--seconds {seconds}: at least one second"));
    }
    let traced = args.parsed::<u8>("--trace")?.unwrap_or(0) != 0;
    let host = driver::Host::detect();
    let (outcome, listed) = if traced {
        (
            driver::measure_per_layer(&host, workload, seed, seconds)?,
            &spec.per_layer,
        )
    } else {
        (
            driver::measure_end_to_end(&host, workload, seed, seconds)?,
            &spec.end_to_end,
        )
    };
    let rows = driver::select(listed, &outcome.metrics)?;
    let title = format!(
        "{}: seed {seed}, {} of {} ops failed, {}",
        workload.name(),
        outcome.failed,
        outcome.attempted,
        host.pinned_cpu
            .map_or("UNPINNED".to_owned(), |c| format!("pinned to cpu {c}"))
    );
    driver::print_table(&title, &rows);
    // The verdict is the line's `correct`; the exit code says the line exists.
    println!("{}", driver::result_line(&outcome, &rows));
    Ok(true)
}

fn suite_cmd(args: &Args) -> Result<bool, String> {
    let spec = spec::Spec::load();
    let size = if args.flag("--smoke") {
        &suite::Size::SMOKE
    } else {
        &suite::Size::FULL
    };
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let result = suite::run(&driver::Host::detect(), seed, size)?;
    suite::print(&result, &spec)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join("result.json");
    suite::save(&result, &path)?;
    println!(
        "\n# wrote {} and {OUT_DIR}/trace-<workload>.json",
        path.display()
    );
    Ok(result.workloads.values().all(|w| w.failed == 0))
}

fn compare_cmd(args: &Args) -> Result<bool, String> {
    let [_, _, base, new] = args.0.as_slice() else {
        return Err("usage: perfbench compare BASE.json NEW.json".into());
    };
    suite::compare(&suite::load(base)?, &suite::load(new)?, &spec::Spec::load())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = Args(std::env::args().collect());
    let outcome = match args.0.get(1).map(String::as_str) {
        Some("child") => child(&args, started).map(|()| true),
        Some("probe") => args
            .required("--seed")
            .and_then(probes::run)
            .map(|metrics| {
                println!(
                    "{}",
                    serde_json::to_string(&metrics).expect("metrics serialize")
                );
                true
            }),
        Some("run") => run(&args),
        Some("suite") => suite_cmd(&args),
        Some("compare") => compare_cmd(&args),
        _ => Err("usage: perfbench run|suite|compare … (see benchmark/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RoundCfg {
        RoundCfg {
            workload: Workload::SessionChurn,
            seed: 1,
            traced: false,
            warmup_ops: 0,
            budget: Budget::Ops(1),
            started: Instant::now(),
        }
    }

    #[test]
    fn a_hang_becomes_one_failed_op() {
        let progress = Arc::new(Progress::default());
        let ops = progress.clone();
        let worker = std::thread::spawn(move || {
            for _ in 0..3 {
                ops.attempted.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
            // …and the fourth op never returns.
        });
        let began = Instant::now();
        let (attempted, failed) = wait_for_hang(
            &progress,
            Duration::from_millis(60),
            Duration::from_millis(2),
        );
        worker.join().unwrap();
        assert_eq!((attempted, failed), (3, 0));
        assert!(began.elapsed() >= Duration::from_millis(60));
        let round = hung_round(&cfg(), attempted, failed);
        assert_eq!((round.attempted, round.failed, round.samples), (4, 1, 0));
        assert!(round.first_error.unwrap().contains("op 3"));
    }

    #[test]
    fn args_parse_and_complain() {
        let args = Args(
            [
                "perfbench",
                "run",
                "--workload",
                "init_cold",
                "--seconds",
                "x",
            ]
            .map(String::from)
            .to_vec(),
        );
        assert_eq!(args.workload().unwrap(), Workload::InitCold);
        assert!(args
            .required::<f64>("--seconds")
            .unwrap_err()
            .contains("--seconds"));
        assert!(args
            .required::<u64>("--seed")
            .unwrap_err()
            .contains("required"));
        assert_eq!(args.parsed::<u64>("--seed").unwrap(), None);
        assert!(args.flag("run") && !args.flag("--smoke"));
    }
}
