//! Arithmetic the harness reports with: medians, the percentile picker,
//! quartile spread, and the two `/proc` readers (CPU time, peak RSS).

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice; `q` in `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at least
/// ten samples beyond it, as `(label, quantile)`. `None` below 20 samples.
pub fn top_percentile(samples: usize) -> Option<(&'static str, f64)> {
    // (label, quantile, one sample in this many lies beyond it)
    const LADDER: [(&str, f64, usize); 5] = [
        ("p50", 0.5, 2),
        ("p90", 0.9, 10),
        ("p99", 0.99, 100),
        ("p99.9", 0.999, 1_000),
        ("p99.99", 0.9999, 10_000),
    ];
    LADDER
        .into_iter()
        .rev()
        .find(|(_, _, one_in)| samples >= 10 * one_in)
        .map(|(label, q, _)| (label, q))
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method). 0 for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used. The kernel derives the sum from the scheduler's
/// nanosecond run time, so it is exact to one tick (`USER_HZ` = 100).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat") as f64 / 100.0
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[5], 0.5), 5);
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(("p50", 0.5)));
        assert_eq!(top_percentile(99), Some(("p50", 0.5)));
        assert_eq!(top_percentile(100), Some(("p90", 0.9)));
        assert_eq!(top_percentile(1_000), Some(("p99", 0.99)));
        assert_eq!(top_percentile(9_999), Some(("p99", 0.99)));
        assert_eq!(top_percentile(10_000), Some(("p99.9", 0.999)));
        assert_eq!(top_percentile(600_000), Some(("p99.99", 0.9999)));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        assert!((quartile_spread(&[13.0, 10.0, 11.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0]), 0.0);
    }

    #[test]
    fn stat_line_with_hostile_comm() {
        let line = "4242 (perf) bench (x)) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    37 5 0 0 20 0 3 0 12345 1000000 200 18446744073709551615 0 0";
        assert_eq!(parse_stat_cpu_ticks(line), Some(42));
        assert_eq!(parse_stat_cpu_ticks("no paren"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_line() {
        let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    6144 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(6144));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readers_work_here() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
