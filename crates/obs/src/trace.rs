//! Causal span tracing: logical-clock spans with cross-process context
//! propagation.
//!
//! A [`Span`] is one timed region of one simulated process (a fence call, a
//! group-construction stage, an exCID handshake). Spans carry:
//!
//! * a **runtime identity** — `(TraceId, SpanId)` allocated from per-registry
//!   counters. Runtime ids are *not* run-stable (allocation order depends on
//!   thread scheduling) and therefore never appear in exported artifacts;
//!   the offline analyzer ([`crate::analyze`]) maps them to canonical ids.
//! * **Lamport timestamps** — `start_clock`/`end_clock` drawn from a
//!   registry-wide logical clock that is advanced on every span operation
//!   and merged (`max`) with every adopted or linked [`SpanContext`], so a
//!   span that causally follows another always carries a larger clock.
//! * a **work counter** — a caller-maintained count of deterministic logical
//!   cost (protocol messages, consensus rounds, members installed). The
//!   analyzer uses `work`, never wall time, so its output is run-stable.
//!
//! Causality crosses process boundaries two ways:
//!
//! * **Piggybacked contexts** — simnet attaches the sender's current
//!   [`SpanContext`] to every envelope; the receiver [`Span::link`]s it.
//! * **Thread propagation** — [`Span::enter`] pushes the span on a
//!   thread-local stack consulted by [`current_context`]; the PRRTE launcher
//!   seeds each rank thread with an *ambient* context ([`set_ambient`]) so
//!   even spans created deep inside the MPI core parent correctly.
//!
//! Ended spans land in a bounded per-registry buffer (drop-new with a
//! counter when full); open spans are simply absent from snapshots. The
//! buffer never drains, so once it is full every span started later is
//! dropped. Such a span still gets its id, makes every logical-clock tick a
//! kept one makes (start, [`Span::context`], [`Span::link`],
//! [`Span::enter`], end) and adopts a link's trace, so the clocks and
//! contexts that reach messages, children and later kept records do not
//! move — but it builds no record: no key string, attributes, links or
//! fault notes. Its end only counts the drop.

use crate::{AttrValue, Attrs, ProcKey};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Identifies one causal trace (conventionally: one launched job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Runtime identifier of one span within its registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// A span's identity plus the logical clock at capture time — small and
/// `Copy`, suitable for piggybacking on a message or parking in
/// thread-local storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Trace the span belongs to.
    pub trace: TraceId,
    /// The span itself.
    pub span: SpanId,
    /// Logical clock when the context was captured.
    pub clock: u64,
}

/// The context that piggybacks on simnet messages. Identical to
/// [`SpanContext`]; the alias exists because call sites read better when
/// the thing attached to an envelope is named after the trace it carries.
pub type TraceContext = SpanContext;

/// One completed span, as the read side sees it (built from the stored
/// record at snapshot time).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Runtime span id (registry-local; not run-stable).
    pub id: SpanId,
    /// Runtime trace id (registry-local; not run-stable).
    pub trace: TraceId,
    /// Parent span, when the span was created under one.
    pub parent: Option<SpanId>,
    /// Cross-thread / cross-process causal predecessors.
    pub links: Vec<SpanContext>,
    /// Emitting process (same scoping convention as metric keys).
    pub process: String,
    /// Span name, e.g. `"group.fanin"`.
    pub name: &'static str,
    /// Caller-supplied run-stable discriminator (op id, group name, peer
    /// rank, sequence number) distinguishing same-named spans.
    pub key: String,
    /// Per-process start order (0, 1, 2, … within `process`).
    pub seq: u64,
    /// Lamport clock at span start.
    pub start_clock: u64,
    /// Lamport clock at span end.
    pub end_clock: u64,
    /// Deterministic logical cost accumulated via [`Span::add_work`].
    pub work: u64,
    /// Free-form typed attributes.
    pub attrs: Attrs,
    /// Fault annotations ([`Span::fault`] or [`fault_current`]).
    pub faults: Vec<String>,
}

/// What a kept span records while it is live: everything of its
/// [`SpanRecord`] but the runtime ids, with the process still interned.
struct Kept {
    parent: Option<SpanId>,
    links: Vec<SpanContext>,
    process: ProcKey,
    name: &'static str,
    key: String,
    seq: u64,
    start_clock: u64,
    end_clock: u64,
    work: u64,
    attrs: Attrs,
    faults: Vec<String>,
}

/// An ended span in the buffer.
struct Stored {
    id: SpanId,
    trace: TraceId,
    rec: Kept,
}

impl Stored {
    fn render(&self, names: &[Arc<str>]) -> SpanRecord {
        let r = &self.rec;
        SpanRecord {
            id: self.id,
            trace: self.trace,
            parent: r.parent,
            links: r.links.clone(),
            process: names[r.process.index()].to_string(),
            name: r.name,
            key: r.key.clone(),
            seq: r.seq,
            start_clock: r.start_clock,
            end_clock: r.end_clock,
            work: r.work,
            attrs: r.attrs.clone(),
            faults: r.faults.clone(),
        }
    }
}

/// Default span-buffer capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

struct TraceBuf {
    spans: Vec<Stored>,
    /// Next per-process start sequence number, indexed by process id.
    seqs: Vec<u64>,
    /// Fault annotations targeting spans that have not ended yet
    /// (runtime span id → notes), drained into the record at end.
    open_faults: HashMap<u64, Vec<String>>,
}

/// Shared tracing state of one registry: the logical clock, the id
/// allocators and the bounded buffer of ended spans.
pub struct TraceShared {
    clock: AtomicU64,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    capacity: usize,
    /// Set once the buffer holds `capacity` records; it never drains, so
    /// from then on every span that starts is dropped.
    full: AtomicBool,
    dropped: AtomicU64,
    buf: Mutex<TraceBuf>,
}

impl TraceShared {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            clock: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            capacity: capacity.max(1),
            full: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            buf: Mutex::new(TraceBuf {
                spans: Vec::new(),
                seqs: Vec::new(),
                open_faults: HashMap::new(),
            }),
        }
    }

    /// Advance the logical clock and return the new value.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Lamport merge: raise the clock to at least `observed`, then tick.
    fn observe(&self, observed: u64) -> u64 {
        self.clock.fetch_max(observed, Ordering::Relaxed);
        self.tick()
    }

    fn is_full(&self) -> bool {
        self.full.load(Ordering::Relaxed)
    }

    pub(crate) fn snapshot(&self, names: &[Arc<str>]) -> Vec<SpanRecord> {
        self.buf.lock().spans.iter().map(|s| s.render(names)).collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn start_span(
        self: &Arc<Self>,
        process: ProcKey,
        name: &'static str,
        key: impl fmt::Display,
        parent: Option<SpanContext>,
    ) -> Span {
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        let (trace, start_clock) = match parent {
            Some(p) => (p.trace, self.observe(p.clock)),
            None => (TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed)), self.tick()),
        };
        let rec = (!self.is_full()).then(|| {
            let seq = {
                let mut buf = self.buf.lock();
                let at = process.index();
                if buf.seqs.len() <= at {
                    buf.seqs.resize(at + 1, 0);
                }
                let v = buf.seqs[at];
                buf.seqs[at] += 1;
                v
            };
            Kept {
                parent: parent.map(|p| p.span),
                links: Vec::new(),
                process,
                name,
                key: key.to_string(),
                seq,
                start_clock,
                end_clock: start_clock,
                work: 0,
                attrs: Vec::new(),
                faults: Vec::new(),
            }
        });
        Span {
            inner: Some(SpanInner {
                shared: self.clone(),
                id,
                trace,
                anchored: parent.is_some(),
                rec,
            }),
        }
    }
}

struct SpanInner {
    shared: Arc<TraceShared>,
    id: SpanId,
    trace: TraceId,
    /// Whether the span has a parent or a link: a span with neither adopts
    /// the trace of its first link.
    anchored: bool,
    /// The record, for a span started while the buffer had room.
    rec: Option<Kept>,
}

impl SpanInner {
    fn context(&self) -> SpanContext {
        SpanContext { trace: self.trace, span: self.id, clock: self.shared.tick() }
    }

    fn entry(&self) -> TlEntry {
        TlEntry { ctx: self.context(), shared: Arc::downgrade(&self.shared) }
    }
}

/// A live span. Ends (and lands in the registry's span buffer) on
/// [`Span::end`] or drop, whichever comes first.
pub struct Span {
    inner: Option<SpanInner>,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => match &i.rec {
                Some(r) => write!(f, "Span({:?} {}:{})", i.id, r.name, r.key),
                None => write!(f, "Span({:?} dropped)", i.id),
            },
            None => write!(f, "Span(ended)"),
        }
    }
}

impl Span {
    fn live(&self) -> &SpanInner {
        self.inner.as_ref().expect("span already ended")
    }

    fn live_mut(&mut self) -> &mut SpanInner {
        self.inner.as_mut().expect("span already ended")
    }

    /// Capture the span's context at the current logical clock.
    pub fn context(&self) -> SpanContext {
        self.live().context()
    }

    /// Runtime span id.
    pub fn id(&self) -> SpanId {
        self.live().id
    }

    /// Record a causal predecessor (a context carried by a message or
    /// handed over from another thread). Merges the logical clock. A span
    /// created without a parent adopts the trace of its first link, so
    /// server-side operation spans join the trace of the job that caused
    /// them.
    pub fn link(&mut self, ctx: SpanContext) {
        let i = self.live_mut();
        i.shared.observe(ctx.clock);
        if !i.anchored {
            i.anchored = true;
            i.trace = ctx.trace;
        }
        if let Some(rec) = &mut i.rec {
            if !rec.links.iter().any(|l| l.span == ctx.span) {
                rec.links.push(ctx);
            }
        }
    }

    /// Accumulate deterministic logical cost (protocol messages, rounds,
    /// members — never wall time).
    pub fn add_work(&mut self, n: u64) {
        if let Some(rec) = &mut self.live_mut().rec {
            rec.work += n;
        }
    }

    /// Attach a typed attribute (converted only when the span is kept).
    pub fn attr(&mut self, k: &'static str, v: impl Into<AttrValue>) {
        if let Some(rec) = &mut self.live_mut().rec {
            rec.attrs.push((k, v.into()));
        }
    }

    /// Annotate the span with a fault description.
    pub fn fault(&mut self, detail: &str) {
        if let Some(rec) = &mut self.live_mut().rec {
            rec.faults.push(detail.to_string());
        }
    }

    /// Push the span onto this thread's context stack; [`current_context`]
    /// returns it until the guard drops.
    pub fn enter(&self) -> SpanEntered {
        let i = self.live();
        let entry = i.entry();
        STACK.with(|s| s.borrow_mut().push(entry));
        SpanEntered { span: i.id }
    }

    /// End the span now (idempotent with drop).
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        let Some(i) = self.inner.take() else { return };
        let end_clock = i.shared.tick();
        let shared = &i.shared;
        let Some(mut rec) = i.rec else {
            shared.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        rec.end_clock = end_clock;
        let mut buf = shared.buf.lock();
        if let Some(notes) = buf.open_faults.remove(&i.id.0) {
            rec.faults.extend(notes);
        }
        if buf.spans.len() >= shared.capacity {
            shared.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            buf.spans.push(Stored { id: i.id, trace: i.trace, rec });
            if buf.spans.len() >= shared.capacity {
                shared.full.store(true, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Guard returned by [`Span::enter`]; pops the thread-local context stack
/// on drop.
#[must_use = "dropping the guard immediately exits the span"]
pub struct SpanEntered {
    span: SpanId,
}

impl Drop for SpanEntered {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Normally a strict stack; tolerate out-of-order guard drops by
            // removing the matching entry wherever it sits.
            if let Some(pos) = stack.iter().rposition(|e| e.ctx.span == self.span) {
                stack.remove(pos);
            }
        });
    }
}

#[derive(Clone)]
struct TlEntry {
    ctx: SpanContext,
    shared: Weak<TraceShared>,
}

thread_local! {
    static STACK: RefCell<Vec<TlEntry>> = const { RefCell::new(Vec::new()) };
    static AMBIENT: RefCell<Option<TlEntry>> = const { RefCell::new(None) };
}

fn current_entry() -> Option<TlEntry> {
    let top = STACK.with(|s| s.borrow().last().cloned());
    top.or_else(|| AMBIENT.with(|a| a.borrow().clone()))
}

/// The context of this thread's innermost entered span, falling back to
/// the thread's ambient context (see [`set_ambient`]).
pub fn current_context() -> Option<SpanContext> {
    current_entry().map(|e| e.ctx)
}

/// Like [`current_context`], but only when the current span belongs to
/// `shared` — parallel simulated worlds must not adopt each other's spans.
pub(crate) fn current_context_in(shared: &Arc<TraceShared>) -> Option<SpanContext> {
    current_entry()
        .filter(|e| std::ptr::eq(e.shared.as_ptr(), Arc::as_ptr(shared)))
        .map(|e| e.ctx)
}

/// Install `span` as this thread's ambient context: the fallback parent
/// for spans created while no entered span is on the stack. The PRRTE
/// launcher calls this on each rank thread with the rank's root span.
pub fn set_ambient(span: &Span) {
    let entry = span.live().entry();
    AMBIENT.with(|a| *a.borrow_mut() = Some(entry));
}

/// Clear this thread's ambient context.
pub fn clear_ambient() {
    AMBIENT.with(|a| *a.borrow_mut() = None);
}

/// Run `f` with this thread's entered spans and ambient context hidden,
/// then put them back. Work that borrows a thread — a PMIx server handler
/// run by whichever thread delivered its frame — sees no current context,
/// so its spans, links and fault notes land exactly where they would on a
/// thread of its own.
pub fn detached<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<TlEntry>, Option<TlEntry>);
    impl Drop for Restore {
        fn drop(&mut self) {
            STACK.with(|s| *s.borrow_mut() = std::mem::take(&mut self.0));
            AMBIENT.with(|a| *a.borrow_mut() = self.1.take());
        }
    }
    let _restore = Restore(
        STACK.with(|s| std::mem::take(&mut *s.borrow_mut())),
        AMBIENT.with(|a| a.borrow_mut().take()),
    );
    f()
}

/// Annotate the current thread's innermost span with a fault description.
///
/// Called by the fault-injection seam in simnet: the hook runs on the
/// *sender's* thread inside the fabric send path, so the annotation lands
/// on whatever operation span that thread is inside (e.g. the fence a kill
/// rule interrupted). Returns `false` when no span is current. Once the
/// span buffer is full the note is not kept: whatever span it targets can
/// only be dropped.
pub fn fault_current(detail: &str) -> bool {
    let Some(entry) = current_entry() else { return false };
    let Some(shared) = entry.shared.upgrade() else { return false };
    if !shared.is_full() {
        shared
            .buf
            .lock()
            .open_faults
            .entry(entry.ctx.span.0)
            .or_default()
            .push(detail.to_string());
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn span_lands_in_buffer_with_monotonic_clocks() {
        let r = Registry::new();
        let mut s = r.span("p0", "op", "k");
        s.add_work(3);
        s.attr("n", 7u64);
        s.end();
        let spans = r.spans_snapshot();
        assert_eq!(spans.len(), 1);
        let rec = &spans[0];
        assert_eq!(rec.process, "p0");
        assert_eq!(rec.name, "op");
        assert_eq!(rec.key, "k");
        assert_eq!(rec.work, 3);
        assert!(rec.start_clock < rec.end_clock);
        assert_eq!(rec.seq, 0);
    }

    #[test]
    fn entered_span_parents_children_on_same_thread() {
        let r = Registry::new();
        let parent = r.span("p0", "outer", "");
        let pid = parent.id();
        let g = parent.enter();
        let child = r.span("p0", "inner", "");
        assert_eq!(child.inner.as_ref().unwrap().rec.as_ref().unwrap().parent, Some(pid));
        assert_eq!(child.inner.as_ref().unwrap().trace, parent.inner.as_ref().unwrap().trace);
        drop(child);
        drop(g);
        let orphan = r.span("p0", "later", "");
        assert_eq!(orphan.inner.as_ref().unwrap().rec.as_ref().unwrap().parent, None);
    }

    #[test]
    fn link_merges_clock_and_adopts_trace() {
        let r = Registry::new();
        let a = r.span("p0", "send", "");
        let ctx = a.context();
        let mut b = r.span("p1", "recv", "");
        b.link(ctx);
        let inner = b.inner.as_ref().unwrap();
        assert_eq!(inner.trace, ctx.trace, "root span adopts trace of first link");
        assert!(inner.rec.as_ref().unwrap().start_clock > 0);
        drop(a);
        b.end();
        let recv = r
            .spans_snapshot()
            .into_iter()
            .find(|s| s.name == "recv")
            .unwrap();
        assert_eq!(recv.links.len(), 1);
        assert!(recv.end_clock > ctx.clock, "receiver clock advanced past the carried context");
    }

    #[test]
    fn duplicate_links_collapse() {
        let r = Registry::new();
        let a = r.span("p0", "send", "");
        let mut b = r.span("p1", "recv", "");
        b.link(a.context());
        b.link(a.context());
        assert_eq!(b.inner.as_ref().unwrap().rec.as_ref().unwrap().links.len(), 1);
    }

    #[test]
    fn buffer_is_bounded_and_counts_drops() {
        let r = Registry::with_capacities(16, 2);
        for i in 0..5 {
            r.span("p", "s", i).end();
        }
        assert_eq!(r.spans_snapshot().len(), 2);
        assert_eq!(r.spans_dropped(), 3);
    }

    #[test]
    fn fault_current_reaches_the_entered_span() {
        let r = Registry::new();
        let span = r.span("p0", "fence", "0");
        let g = span.enter();
        assert!(fault_current("fault:kill"));
        drop(g);
        span.end();
        let rec = &r.spans_snapshot()[0];
        assert_eq!(rec.faults, vec!["fault:kill".to_string()]);
    }

    #[test]
    fn fault_current_without_span_is_noop() {
        clear_ambient();
        assert!(!fault_current("x"));
    }

    #[test]
    fn ambient_context_is_a_fallback_not_an_override() {
        let r = Registry::new();
        let root = r.span("rank0", "rank.main", "");
        set_ambient(&root);
        let child = r.span("rank0", "work", "");
        assert_eq!(child.inner.as_ref().unwrap().rec.as_ref().unwrap().parent, Some(root.id()));
        let inner = r.span("rank0", "inner", "");
        let g = inner.enter();
        let deep = r.span("rank0", "deep", "");
        assert_eq!(deep.inner.as_ref().unwrap().rec.as_ref().unwrap().parent, Some(inner.id()));
        drop(g);
        clear_ambient();
        let after = r.span("rank0", "after", "");
        assert_eq!(after.inner.as_ref().unwrap().rec.as_ref().unwrap().parent, None);
    }

    #[test]
    fn per_process_seq_is_dense() {
        let r = Registry::new();
        r.span("a", "x", "").end();
        r.span("a", "y", "").end();
        r.span("b", "z", "").end();
        let mut seqs: Vec<(String, u64)> = r
            .spans_snapshot()
            .into_iter()
            .map(|s| (s.process, s.seq))
            .collect();
        seqs.sort();
        assert_eq!(
            seqs,
            vec![("a".into(), 0), ("a".into(), 1), ("b".into(), 0)]
        );
    }
}
