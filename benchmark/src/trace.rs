//! The harness's own spans and per-op bookkeeping.
//!
//! Every layer is measured from outside: a span is recorded around each
//! call the harness makes into a layer, as a child of the op that made it.
//! The calls of one op run one after another on rank 0's thread, so they
//! are siblings: a call's self time is its duration, and what the op spent
//! outside any traced call is the residual.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Spans kept verbatim for `trace-<workload>.json`; totals cover every op.
const KEPT_SPANS: usize = 20_000;

/// One recorded span. `parent` is the id of the op span (`None` for the op
/// span itself); spans of one op share `op`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Total time and call count of one span name over the timed ops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallTotal {
    pub ns: u64,
    pub calls: u64,
}

/// In-memory span recorder. Disabled, [`Tracer::call`] is one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    /// Calls of the op in flight; committed by [`Tracer::end_op`].
    pending: Vec<(&'static str, u64, u64)>,
    totals: Vec<(&'static str, CallTotal)>,
    op_ns: u64,
    ops: u64,
    kept: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            pending: Vec::new(),
            totals: Vec::new(),
            op_ns: 0,
            ops: 0,
            kept: Vec::new(),
        }
    }

    /// A tracer that records nothing (the untraced pass, and rank 1).
    pub fn off() -> Self {
        Self::new(false)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` as one call into a layer, recording a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.span(name, start, Instant::now());
        out
    }

    /// Record a span whose ends were taken elsewhere (another thread's
    /// clock readings, handed back to the thread that owns the tracer).
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.pending.push((name, self.ns(start), self.ns(end)));
        }
    }

    /// Close the op in flight. A failed op (`ok` false) contributes nothing:
    /// its calls are dropped with it.
    pub fn end_op(&mut self, start: Instant, end: Instant, ok: bool) {
        if !self.enabled {
            return;
        }
        if !ok {
            self.pending.clear();
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let op = self.ops;
        self.ops += 1;
        self.op_ns += end_ns - start_ns;
        let op_id = self.next_id;
        self.next_id += 1 + self.pending.len() as u64;
        let keep = self.kept.len() + 1 + self.pending.len() <= KEPT_SPANS;
        if keep {
            self.kept.push(SpanRec {
                id: op_id,
                parent: None,
                op,
                name: "op",
                start_ns,
                end_ns,
            });
        }
        for (i, (name, s, e)) in self.pending.drain(..).enumerate() {
            match self.totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => {
                    t.ns += e - s;
                    t.calls += 1;
                }
                None => self.totals.push((
                    name,
                    CallTotal {
                        ns: e - s,
                        calls: 1,
                    },
                )),
            }
            if keep {
                self.kept.push(SpanRec {
                    id: op_id + 1 + i as u64,
                    parent: Some(op_id),
                    op,
                    name,
                    start_ns: s,
                    end_ns: e,
                });
            }
        }
    }

    /// Forget everything recorded so far (end of warm-up).
    pub fn reset(&mut self) {
        self.pending.clear();
        self.totals.clear();
        self.kept.clear();
        self.op_ns = 0;
        self.ops = 0;
    }

    pub fn totals(&self) -> &[(&'static str, CallTotal)] {
        &self.totals
    }

    pub fn kept(&self) -> &[SpanRec] {
        &self.kept
    }

    /// Share of op time spent outside every traced call: 1 − Σ calls ÷ Σ op.
    pub fn residual_share(&self) -> f64 {
        residual_share(self.op_ns, self.totals.iter().map(|(_, t)| t.ns).sum())
    }
}

/// `mean_ns` in the unit metric `name` ends with (`_us` or, else, ns).
pub fn in_unit_of(name: &str, mean_ns: f64) -> f64 {
    if name.ends_with("_us") {
        mean_ns / 1e3
    } else {
        mean_ns
    }
}

/// 1 − `calls_ns` ÷ `op_ns`; 0 when no op was traced.
pub fn residual_share(op_ns: u64, calls_ns: u64) -> f64 {
    if op_ns == 0 {
        0.0
    } else {
        1.0 - calls_ns as f64 / op_ns as f64
    }
}

/// Op counts shared with the watchdog thread.
#[derive(Default)]
pub struct Progress {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
}

/// Per-op bookkeeping on the measuring thread: one latency sample per op
/// that succeeded, a failure count for the rest, and the tracer.
pub struct Recorder {
    pub tracer: Tracer,
    pub samples_ns: Vec<u64>,
    pub first_error: Option<String>,
    progress: Arc<Progress>,
}

impl Recorder {
    pub fn new(traced: bool, progress: Arc<Progress>) -> Self {
        Self {
            tracer: Tracer::new(traced),
            samples_ns: Vec::new(),
            first_error: None,
            progress,
        }
    }

    /// Run one op. An `Err` counts as attempted and failed and leaves no
    /// latency sample and no spans.
    pub fn op(&mut self, f: impl FnOnce(&mut Tracer) -> Result<(), String>) {
        let start = Instant::now();
        let result = f(&mut self.tracer);
        let end = Instant::now();
        self.tracer.end_op(start, end, result.is_ok());
        self.progress.attempted.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(()) => self.samples_ns.push((end - start).as_nanos() as u64),
            Err(e) => {
                self.progress.failed.fetch_add(1, Ordering::Relaxed);
                self.first_error.get_or_insert(e);
            }
        }
    }

    /// End of warm-up: drop its samples and spans, keep its failures.
    pub fn start_timed(&mut self, expected_ops: u64) {
        self.samples_ns.clear();
        self.samples_ns.reserve(expected_ops as usize);
        self.tracer.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ns: u64) -> Instant {
        epoch + Duration::from_nanos(ns)
    }

    #[test]
    fn sibling_self_time_and_residual() {
        let mut t = Tracer::new(true);
        let e = t.epoch;
        t.span("a", at(e, 100), at(e, 400));
        t.span("b", at(e, 400), at(e, 900));
        t.end_op(at(e, 0), at(e, 1_000), true);
        t.span("a", at(e, 1_000), at(e, 1_100));
        t.end_op(at(e, 1_000), at(e, 2_000), true);
        let total = |name| t.totals().iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(total("a"), CallTotal { ns: 400, calls: 2 });
        assert_eq!(total("b"), CallTotal { ns: 500, calls: 1 });
        // 2000 ns of op time, 900 ns inside calls.
        assert!((t.residual_share() - 0.55).abs() < 1e-12);
        // Children point at their op span and share its op number.
        let kept = t.kept();
        assert_eq!(kept.len(), 5);
        assert_eq!((kept[0].name, kept[0].parent, kept[0].op), ("op", None, 0));
        assert_eq!((kept[1].name, kept[1].parent), ("a", Some(kept[0].id)));
        assert_eq!(
            (kept[4].name, kept[4].parent, kept[4].op),
            ("a", Some(kept[3].id), 1)
        );
    }

    #[test]
    fn residual_of_nothing_is_zero() {
        assert_eq!(residual_share(0, 0), 0.0);
        assert_eq!(residual_share(1_000, 1_000), 0.0);
        assert_eq!(residual_share(1_000, 250), 0.75);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.call("a", || 7), 7);
        t.end_op(t.epoch, Instant::now(), true);
        assert!(t.totals().is_empty() && t.kept().is_empty());
    }

    #[test]
    fn failing_op_is_attempted_failed_and_unsampled() {
        let progress = Arc::new(Progress::default());
        let mut r = Recorder::new(true, progress.clone());
        r.op(|tr| tr.call("a", || Ok(())));
        r.op(|tr| tr.call("a", || Err("injected".to_owned())));
        r.op(|tr| tr.call("a", || Ok(())));
        let attempted = progress.attempted.load(Ordering::Relaxed);
        let failed = progress.failed.load(Ordering::Relaxed);
        assert_eq!((attempted, failed), (3, 1));
        assert_eq!(failed as f64 / attempted as f64, 1.0 / 3.0); // failed_share
        assert_eq!(r.samples_ns.len(), 2, "the failed op has no latency sample");
        assert_eq!(r.tracer.totals()[0].1.calls, 2, "nor any span");
        assert_eq!(r.first_error.as_deref(), Some("injected"));
    }
}
