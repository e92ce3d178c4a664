//! Stack-wide observability: a lock-cheap metrics registry plus a bounded
//! structured event recorder.
//!
//! Every layer of the simulated stack (fabric, PMIx, PRRTE, MPI core) hangs
//! one [`Registry`] off the fabric it runs on, so metrics from all processes
//! of one simulated cluster land in one place while parallel test clusters
//! stay isolated from each other.
//!
//! Design points:
//!
//! * **Keying** — every instrument is identified by `(process, component,
//!   name)`. `process` scopes the emitter (`"fabric"`, `"ep3"`,
//!   `"server:0"`, a `ProcId` rendering, …), `component` is the subsystem
//!   (`"fabric"`, `"pml"`, `"pmix"`, `"cid"`, …), `name` is the metric.
//! * **Processes are interned ids, names are static** — [`Registry::intern`]
//!   maps a process name to a `Copy` [`ProcKey`] once. Everything the
//!   registry stores (instrument keys, events, spans, cvars) holds the id;
//!   the string comes back only when a read-side surface (export,
//!   snapshots, pvar and cvar listings) renders it. Components, metric,
//!   event and span names and attribute keys are `&'static str`. So
//!   resolving a handle, recording an event or starting a span builds no
//!   string of the registry's own.
//! * **Hot path is atomic-only** — callers resolve a handle once (a
//!   `RwLock<HashMap>` lookup or insert; a repeat lookup allocates
//!   nothing) and afterwards touch nothing but atomics: counters and
//!   gauges are single `fetch_add`s, histograms a handful. No lock is held
//!   while recording.
//! * **Counters are monotonic** — the API offers only `inc`/`add`; there is
//!   no decrement or reset, so a later reading is never smaller than an
//!   earlier one (the property tests pin this down).
//! * **Events are bounded** — the recorder is a fixed-capacity ring: when
//!   full, the oldest event is dropped and a drop counter incremented, so
//!   memory use cannot grow with run length.
//! * **Export is plain JSON** — [`Registry::export`] renders everything into
//!   a `serde_json::Value` with sorted keys (deterministic output).

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use serde_json::{Map, Value};

pub mod analyze;
pub mod tool;
pub mod trace;

pub use tool::{
    bool_writer, u64_writer, writer, CvarError, CvarInfo, CvarValue, PvarClass, PvarDesc,
    PvarHandle, PvarReading, PvarSession,
};
pub use trace::{
    Span, SpanContext, SpanEntered, SpanId, SpanRecord, TraceContext, TraceId,
    DEFAULT_SPAN_CAPACITY,
};

/// Instrument identity as the read side renders it: `(process, component,
/// name)`.
pub type Key = (String, String, String);

/// Instrument identity as the registry stores it.
type MetricKey = (ProcKey, &'static str, &'static str);

/// An interned process name: a `Copy` id, resolved back to the string only
/// when a read-side surface renders it. Ids are local to the registry that
/// minted them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcKey(u32);

impl ProcKey {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A process as a registry call names it: an interned [`ProcKey`], or its
/// string (interned on the way in — a name seen before allocates nothing).
pub trait ProcessName {
    /// The id of this process in `registry`.
    fn key_in(&self, registry: &Registry) -> ProcKey;
}

impl ProcessName for ProcKey {
    fn key_in(&self, _: &Registry) -> ProcKey {
        *self
    }
}

impl ProcessName for &str {
    fn key_in(&self, registry: &Registry) -> ProcKey {
        registry.intern(self)
    }
}

impl ProcessName for &String {
    fn key_in(&self, registry: &Registry) -> ProcKey {
        registry.intern(self)
    }
}

/// The process-name table: each name once, indexed by id.
#[derive(Default)]
struct Interner {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, ProcKey>,
}

/// Get-or-create on one instrument map; a hit takes the read lock only.
fn resolve<T: Clone + Default>(map: &RwLock<HashMap<MetricKey, T>>, k: MetricKey) -> T {
    if let Some(v) = map.read().get(&k) {
        return v.clone();
    }
    map.write().entry(k).or_default().clone()
}

/// Look one instrument up by borrowed names (the read side's `&str`s).
fn find<'a, T>(map: &'a HashMap<MetricKey, T>, p: ProcKey, c: &'a str, n: &'a str) -> Option<&'a T> {
    let map: &HashMap<(ProcKey, &str, &str), T> = map;
    map.get(&(p, c, n))
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`. There is deliberately no way to decrement.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

#[derive(Default)]
struct GaugeCore {
    value: AtomicI64,
    high: AtomicI64,
}

/// Instantaneous signed value (e.g. live endpoint count).
///
/// Every write also maintains a **high-water mark** — the largest value the
/// gauge has ever held. Leak audits (the soak harness) read the mark to
/// learn the peak footprint of a component without sampling mid-run.
#[derive(Clone, Default)]
pub struct Gauge(Arc<GaugeCore>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjust by a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        let new = self.0.value.fetch_add(d, Ordering::Relaxed) + d;
        self.0.high.fetch_max(new, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Largest value ever held (0 for a gauge that never went positive).
    pub fn high_water(&self) -> i64 {
        self.0.high.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Upper bounds (inclusive, in nanoseconds) of the fixed histogram buckets.
/// Decade-spaced from 1µs to 10s; a final overflow bucket catches the rest.
pub const BUCKET_BOUNDS_NS: [u64; 8] = [
    1_000,              // 1µs
    10_000,             // 10µs
    100_000,            // 100µs
    1_000_000,          // 1ms
    10_000_000,         // 10ms
    100_000_000,        // 100ms
    1_000_000_000,      // 1s
    10_000_000_000,     // 10s
];

const NUM_BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1; // + overflow

#[derive(Default)]
struct HistogramCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Fixed-bucket duration histogram handle. Cloning shares the cells.
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one duration given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(NUM_BUCKETS - 1);
        let c = &self.0;
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum_ns.fetch_add(ns, Ordering::Relaxed);
        c.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.0.sum_ns.load(Ordering::Relaxed)
    }

    /// Largest recorded sample, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.0.max_ns.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-th percentile (`q` in 1..=100) from the fixed
    /// buckets, interpolating linearly inside the bucket the rank falls
    /// into. The overflow bucket's upper edge is the observed maximum, so
    /// the estimate never exceeds it. Returns 0 for an empty histogram.
    ///
    /// Bucket edges are decade-spaced, so estimates are coarse — they
    /// answer "which decade, roughly where in it", which is what the
    /// flat JSON export can support without storing raw samples.
    pub fn percentile_ns(&self, q: u64) -> u64 {
        let c = &self.0;
        let count = c.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let q = q.clamp(1, 100);
        // Smallest rank (1-based) at or above the q-th percentile.
        let rank = (count * q).div_ceil(100);
        let mut cum = 0u64;
        for (i, b) in c.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if cum + in_bucket >= rank {
                let lower = if i == 0 { 0 } else { BUCKET_BOUNDS_NS[i - 1] };
                let upper = if i < BUCKET_BOUNDS_NS.len() {
                    BUCKET_BOUNDS_NS[i]
                } else {
                    c.max_ns.load(Ordering::Relaxed).max(lower + 1)
                };
                let into = rank - cum; // 1..=in_bucket
                let span = (upper - lower) as u128;
                return lower + (span * into as u128 / in_bucket as u128) as u64;
            }
            cum += in_bucket;
        }
        c.max_ns.load(Ordering::Relaxed)
    }

    /// Render the full stat set (`count`/`sum_ns`/`max_ns`/percentiles/
    /// buckets) as a JSON leaf. This is both the [`Registry::export`]
    /// rendering and the `Timer` pvar reading — one definition, so the
    /// two surfaces agree byte-for-byte.
    pub fn export(&self) -> Value {
        let c = &self.0;
        let mut m = Map::new();
        m.insert("count".into(), Value::U64(c.count.load(Ordering::Relaxed)));
        m.insert("sum_ns".into(), Value::U64(c.sum_ns.load(Ordering::Relaxed)));
        m.insert("max_ns".into(), Value::U64(c.max_ns.load(Ordering::Relaxed)));
        m.insert("p50_ns".into(), Value::U64(self.percentile_ns(50)));
        m.insert("p95_ns".into(), Value::U64(self.percentile_ns(95)));
        m.insert("p99_ns".into(), Value::U64(self.percentile_ns(99)));
        let buckets: Vec<Value> = c
            .buckets
            .iter()
            .map(|b| Value::U64(b.load(Ordering::Relaxed)))
            .collect();
        m.insert("buckets".into(), Value::Array(buckets));
        Value::Object(m)
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Typed attribute value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute.
    U64(u64),
    /// Signed integer attribute.
    I64(i64),
    /// Floating-point attribute.
    F64(f64),
    /// String attribute: a dynamic value owns its text, a static name
    /// ([`AttrValue::name`]) borrows it.
    Str(Cow<'static, str>),
    /// Boolean attribute.
    Bool(bool),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(Cow::Owned(v.to_string()))
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(Cow::Owned(v))
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl AttrValue {
    /// A string attribute whose value is a static name (a stage, a kind,
    /// an outcome): recorded without copying it.
    pub fn name(v: &'static str) -> Self {
        AttrValue::Str(Cow::Borrowed(v))
    }

    fn to_json(&self) -> Value {
        match self {
            AttrValue::U64(v) => Value::U64(*v),
            AttrValue::I64(v) => Value::I64(*v),
            AttrValue::F64(v) => Value::F64(*v),
            AttrValue::Str(v) => Value::Str(v.to_string()),
            AttrValue::Bool(v) => Value::Bool(*v),
        }
    }

    /// Coerce to `u64` when the attribute holds one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(v) => Some(*v),
            AttrValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Borrow as a string when the attribute holds one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Typed attributes of an event or a span: static keys, dynamic values.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// One structured event: logical timestamp plus the `(process, component,
/// name)` identity and free-form typed attributes. This is the read side's
/// record: the ring stores the process interned and a snapshot renders it.
#[derive(Debug, Clone)]
pub struct Event {
    /// Logical timestamp: a registry-wide strictly increasing sequence
    /// number (no wall clock — runs are simulated).
    pub ts: u64,
    /// Emitting process (same scoping convention as metric keys).
    pub process: String,
    /// Emitting subsystem.
    pub component: &'static str,
    /// Event name, e.g. `"group.fanin"`.
    pub name: &'static str,
    /// Typed attributes.
    pub attrs: Attrs,
}

impl Event {
    /// Look up an attribute by key.
    pub fn attr(&self, k: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(a, _)| *a == k).map(|(_, v)| v)
    }
}

/// An event as the ring stores it.
struct StoredEvent {
    ts: u64,
    process: ProcKey,
    component: &'static str,
    name: &'static str,
    attrs: Attrs,
}

impl StoredEvent {
    fn render(&self, names: &[Arc<str>]) -> Event {
        Event {
            ts: self.ts,
            process: names[self.process.index()].to_string(),
            component: self.component,
            name: self.name,
            attrs: self.attrs.clone(),
        }
    }
}

/// Default event-ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

struct EventRecorder {
    clock: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<StoredEvent>>,
    dropped: AtomicU64,
}

impl EventRecorder {
    fn new(capacity: usize) -> Self {
        Self {
            clock: AtomicU64::new(0),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
            dropped: AtomicU64::new(0),
        }
    }

    fn record(&self, process: ProcKey, component: &'static str, name: &'static str, attrs: Attrs) {
        let mut ev = StoredEvent { ts: 0, process, component, name, attrs };
        let mut ring = self.ring.lock();
        // The timestamp is minted under the ring lock: minting it outside
        // would let two racing recorders insert out of timestamp order.
        ev.ts = self.clock.fetch_add(1, Ordering::Relaxed);
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The per-cluster metrics registry plus event recorder.
///
/// Cheap to share: every layer holds an `Arc<Registry>`. Handle resolution
/// (`counter`/`gauge`/`histogram`) takes a short-lived map lock; recording
/// through a resolved handle is lock-free.
pub struct Registry {
    procs: RwLock<Interner>,
    counters: RwLock<HashMap<MetricKey, Counter>>,
    gauges: RwLock<HashMap<MetricKey, Gauge>>,
    histograms: RwLock<HashMap<MetricKey, Histogram>>,
    events: EventRecorder,
    traces: Arc<trace::TraceShared>,
    /// MPI_T-style control-variable store (see [`tool`]).
    tool: tool::CvarStore,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// New registry with the default event capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// New registry with an explicit event-ring capacity (min 1).
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self::with_capacities(capacity, DEFAULT_SPAN_CAPACITY)
    }

    /// New registry with explicit event-ring and span-buffer capacities.
    pub fn with_capacities(event_capacity: usize, span_capacity: usize) -> Self {
        Self {
            procs: RwLock::new(Interner::default()),
            counters: RwLock::new(HashMap::new()),
            gauges: RwLock::new(HashMap::new()),
            histograms: RwLock::new(HashMap::new()),
            events: EventRecorder::new(event_capacity),
            traces: Arc::new(trace::TraceShared::new(span_capacity)),
            tool: tool::CvarStore::default(),
        }
    }

    // -- processes -----------------------------------------------------------

    /// The id of the process named `process`, interning the name on first
    /// sight. A name seen before costs one read-locked lookup and
    /// allocates nothing.
    pub fn intern(&self, process: &str) -> ProcKey {
        if let Some(&k) = self.procs.read().ids.get(process) {
            return k;
        }
        let mut procs = self.procs.write();
        if let Some(&k) = procs.ids.get(process) {
            return k;
        }
        let k = ProcKey(procs.names.len() as u32);
        let name: Arc<str> = process.into();
        procs.names.push(name.clone());
        procs.ids.insert(name, k);
        k
    }

    /// The id of `process` if the registry has seen it. The read side
    /// looks names up this way: reading never interns.
    fn lookup(&self, process: &str) -> Option<ProcKey> {
        self.procs.read().ids.get(process).copied()
    }

    /// Every interned name, indexed by id (render-time resolution).
    fn process_names(&self) -> Vec<Arc<str>> {
        self.procs.read().names.clone()
    }

    // -- instruments ---------------------------------------------------------

    /// Get or create the counter keyed `(process, component, name)`.
    pub fn counter(
        &self,
        process: impl ProcessName,
        component: &'static str,
        name: &'static str,
    ) -> Counter {
        resolve(&self.counters, (process.key_in(self), component, name))
    }

    /// Get or create the gauge keyed `(process, component, name)`.
    pub fn gauge(&self, process: impl ProcessName, component: &'static str, name: &'static str) -> Gauge {
        resolve(&self.gauges, (process.key_in(self), component, name))
    }

    /// Get or create the histogram keyed `(process, component, name)`.
    pub fn histogram(
        &self,
        process: impl ProcessName,
        component: &'static str,
        name: &'static str,
    ) -> Histogram {
        resolve(&self.histograms, (process.key_in(self), component, name))
    }

    /// Record a structured event.
    pub fn event(
        &self,
        process: impl ProcessName,
        component: &'static str,
        name: &'static str,
        attrs: Attrs,
    ) {
        self.events.record(process.key_in(self), component, name, attrs);
    }

    // -- tracing -------------------------------------------------------------

    /// Start a span. The parent is this thread's current context (entered
    /// span or ambient, see [`trace::current_context`]) when that context
    /// belongs to this registry; otherwise the span roots a new trace.
    ///
    /// `key` is a caller-supplied *run-stable* discriminator (operation id,
    /// group name, peer rank, a per-process sequence number): the offline
    /// analyzer derives canonical span identities from `(process, name,
    /// key)`, never from runtime ids. It is rendered only for a span that
    /// will be kept: once the span buffer is full a span still gets its id
    /// and makes every logical-clock tick, but builds no record — pass
    /// `format_args!(..)` rather than `&format!(..)` and a dropped span
    /// allocates nothing.
    pub fn span(&self, process: impl ProcessName, name: &'static str, key: impl fmt::Display) -> Span {
        let parent = trace::current_context_in(&self.traces);
        self.traces.start_span(process.key_in(self), name, key, parent)
    }

    /// Start a span under an explicit parent context (`None` roots a new
    /// trace even when the thread has a current context).
    pub fn span_with_parent(
        &self,
        process: impl ProcessName,
        name: &'static str,
        key: impl fmt::Display,
        parent: Option<SpanContext>,
    ) -> Span {
        self.traces.start_span(process.key_in(self), name, key, parent)
    }

    /// Snapshot of every *ended* span in the buffer (unspecified order;
    /// feed into [`analyze::analyze`] for the canonical view).
    pub fn spans_snapshot(&self) -> Vec<SpanRecord> {
        self.traces.snapshot(&self.process_names())
    }

    /// Number of ended spans discarded because the span buffer was full.
    pub fn spans_dropped(&self) -> u64 {
        self.traces.dropped()
    }

    /// Capacity of the span buffer.
    pub fn span_capacity(&self) -> usize {
        self.traces.capacity()
    }

    // -- read side -----------------------------------------------------------

    /// Value of one counter, or 0 if it was never created.
    pub fn counter_value(&self, process: &str, component: &str, name: &str) -> u64 {
        self.lookup(process)
            .and_then(|p| find(&self.counters.read(), p, component, name).map(Counter::get))
            .unwrap_or(0)
    }

    /// Sum of one `(component, name)` counter across all processes.
    pub fn sum_counters(&self, component: &str, name: &str) -> u64 {
        self.counters
            .read()
            .iter()
            .filter(|((_, c, n), _)| *c == component && *n == name)
            .map(|(_, v)| v.get())
            .sum()
    }

    /// Snapshot of every counter with a non-zero value, sorted by key.
    pub fn counters_snapshot(&self) -> Vec<(Key, u64)> {
        let mut v: Vec<(Key, u64)> = self
            .rendered(&self.counters)
            .into_iter()
            .map(|(k, c)| (k, c.get()))
            .filter(|(_, n)| *n > 0)
            .collect();
        v.sort();
        v
    }

    /// Value of one gauge, or 0 if it was never created.
    pub fn gauge_value(&self, process: &str, component: &str, name: &str) -> i64 {
        self.gauge_named(process, component, name).get()
    }

    /// The gauge with these names, or a detached zero gauge when there is
    /// none (reading creates nothing).
    pub(crate) fn gauge_named(&self, process: &str, component: &str, name: &str) -> Gauge {
        self.lookup(process)
            .and_then(|p| find(&self.gauges.read(), p, component, name).cloned())
            .unwrap_or_default()
    }

    /// The histogram with these names, or a detached empty one.
    pub(crate) fn histogram_named(&self, process: &str, component: &str, name: &str) -> Histogram {
        self.lookup(process)
            .and_then(|p| find(&self.histograms.read(), p, component, name).cloned())
            .unwrap_or_default()
    }

    /// Sum of one `(component, name)` gauge across all processes.
    pub fn sum_gauges(&self, component: &str, name: &str) -> i64 {
        self.gauges
            .read()
            .iter()
            .filter(|((_, c, n), _)| *c == component && *n == name)
            .map(|(_, v)| v.get())
            .sum()
    }

    /// Sum of one `(component, name)` gauge's high-water marks across all
    /// processes. An upper bound on the true cluster-wide peak (per-process
    /// peaks need not coincide), which is the right direction for a leak
    /// audit: the reported peak is never an undercount of any real peak.
    pub fn sum_gauge_high_water(&self, component: &str, name: &str) -> i64 {
        self.gauges
            .read()
            .iter()
            .filter(|((_, c, n), _)| *c == component && *n == name)
            .map(|(_, v)| v.high_water())
            .sum()
    }

    /// Snapshot of every gauge (value, high-water), sorted by key. Unlike
    /// counters, zero-valued gauges are included: "this went back to zero"
    /// is exactly the reading a leak audit needs.
    pub fn gauges_snapshot(&self) -> Vec<(Key, i64, i64)> {
        let mut v: Vec<(Key, i64, i64)> = self
            .rendered(&self.gauges)
            .into_iter()
            .map(|(k, g)| (k, g.get(), g.high_water()))
            .collect();
        v.sort();
        v
    }

    /// Every instrument of one kind with its key rendered (snapshots, the
    /// export and the pvar enumeration walk these).
    fn rendered<T: Clone>(&self, map: &RwLock<HashMap<MetricKey, T>>) -> Vec<(Key, T)> {
        let names = self.process_names();
        map.read()
            .iter()
            .map(|(&(p, c, n), v)| ((names[p.index()].to_string(), c.into(), n.into()), v.clone()))
            .collect()
    }

    /// All recorded (still-buffered) events with the given name, in
    /// timestamp order.
    pub fn events_named(&self, name: &str) -> Vec<Event> {
        let names = self.process_names();
        self.events
            .ring
            .lock()
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.render(&names))
            .collect()
    }

    /// Snapshot of the whole event ring, in timestamp order.
    pub fn events_snapshot(&self) -> Vec<Event> {
        let names = self.process_names();
        self.events.ring.lock().iter().map(|e| e.render(&names)).collect()
    }

    /// Number of buffered events.
    pub fn events_len(&self) -> usize {
        self.events.ring.lock().len()
    }

    /// Number of events dropped because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.events.dropped.load(Ordering::Relaxed)
    }

    /// Capacity of the event ring.
    pub fn event_capacity(&self) -> usize {
        self.events.capacity
    }

    // -- export --------------------------------------------------------------

    /// Render the full registry (counters, gauges, histograms, events) into
    /// a JSON value. Keys are sorted, so output is deterministic given the
    /// same metric contents.
    ///
    /// Shape:
    /// ```json
    /// {
    ///   "counters":   { "<process>": { "<component>": { "<name>": N } } },
    ///   "gauges":     { ... same nesting, signed ... },
    ///   "histograms": { ... same nesting, {count,sum_ns,max_ns,buckets} ... },
    ///   "events":     { "dropped": N, "recorded": [ {ts,process,...} ] }
    /// }
    /// ```
    pub fn export(&self) -> Value {
        let mut root = Map::new();

        let mut counters = Map::new();
        for (k, v) in self.rendered(&self.counters) {
            if v.get() > 0 {
                nest(&mut counters, k, Value::U64(v.get()));
            }
        }
        root.insert("counters".into(), Value::Object(counters));

        let mut gauges = Map::new();
        for ((p, c, n), v) in self.rendered(&self.gauges) {
            // The high-water mark rides along under `<name>#hw`, so leak
            // audits can diff peak footprints from any exported artifact.
            let hw_key = (p.clone(), c.clone(), format!("{n}#hw"));
            nest(&mut gauges, (p, c, n), Value::I64(v.get()));
            nest(&mut gauges, hw_key, Value::I64(v.high_water()));
        }
        root.insert("gauges".into(), Value::Object(gauges));

        let mut hists = Map::new();
        for (k, v) in self.rendered(&self.histograms) {
            if v.count() > 0 {
                nest(&mut hists, k, v.export());
            }
        }
        root.insert("histograms".into(), Value::Object(hists));

        let mut events = Map::new();
        events.insert("dropped".into(), Value::U64(self.events_dropped()));
        if self.events_dropped() > 0 {
            // Ring overflow silently truncates whatever downstream consumer
            // (chaos invariants, trace assembly) reads the ring; make the
            // loss impossible to miss in exported artifacts.
            events.insert(
                "warning".into(),
                Value::Str(format!(
                    "event ring overflowed: {} event(s) dropped; raise the \
                     event capacity or reduce instrumentation",
                    self.events_dropped()
                )),
            );
        }
        let recorded: Vec<Value> = self
            .events_snapshot()
            .into_iter()
            .map(|e| {
                let mut m = Map::new();
                m.insert("ts".into(), Value::U64(e.ts));
                m.insert("process".into(), Value::Str(e.process));
                m.insert("component".into(), Value::Str(e.component.into()));
                m.insert("name".into(), Value::Str(e.name.into()));
                let mut attrs = Map::new();
                for (k, v) in &e.attrs {
                    attrs.insert((*k).into(), v.to_json());
                }
                m.insert("attrs".into(), Value::Object(attrs));
                Value::Object(m)
            })
            .collect();
        events.insert("recorded".into(), Value::Array(recorded));
        root.insert("events".into(), Value::Object(events));

        Value::Object(root)
    }
}

/// Insert `value` at `map[process][component][name]`.
fn nest(map: &mut Map, (process, component, name): Key, value: Value) {
    let proc_entry = map.entry(process).or_insert_with(|| Value::Object(Map::new()));
    let Value::Object(proc_map) = proc_entry else { unreachable!() };
    let comp_entry = proc_map.entry(component).or_insert_with(|| Value::Object(Map::new()));
    let Value::Object(comp_map) = comp_entry else { unreachable!() };
    comp_map.insert(name, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handle_is_shared() {
        let r = Registry::new();
        let a = r.counter("p", "c", "n");
        let b = r.counter("p", "c", "n");
        a.add(3);
        b.inc();
        assert_eq!(r.counter_value("p", "c", "n"), 4);
        assert_eq!(r.counter_value("p", "c", "other"), 0);
    }

    #[test]
    fn sum_counters_spans_processes() {
        let r = Registry::new();
        r.counter("p0", "pml", "eager_sent").add(2);
        r.counter("p1", "pml", "eager_sent").add(5);
        r.counter("p1", "pml", "rts_sent").add(9);
        assert_eq!(r.sum_counters("pml", "eager_sent"), 7);
        assert_eq!(r.sum_counters("pml", "rts_sent"), 9);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = Registry::new();
        let g = r.gauge("p", "c", "live");
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(-1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn gauge_high_water_tracks_peak_not_current() {
        let r = Registry::new();
        let g = r.gauge("p", "c", "live");
        assert_eq!(g.high_water(), 0);
        g.add(3);
        g.add(4); // peak = 7
        g.add(-6);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 7);
        g.set(5); // below the peak: the mark must not move
        assert_eq!(g.high_water(), 7);
        g.set(9);
        assert_eq!(g.high_water(), 9);
        // Read-side helpers see both facets.
        assert_eq!(r.gauge_value("p", "c", "live"), 9);
        assert_eq!(r.sum_gauges("c", "live"), 9);
        assert_eq!(r.sum_gauge_high_water("c", "live"), 9);
        let snap = r.gauges_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1, 9);
        assert_eq!(snap[0].2, 9);
        // Export carries the mark as a `#hw` sibling.
        let json = serde_json::to_string(&r.export()).unwrap();
        assert!(json.contains("\"live\":9"), "{json}");
        assert!(json.contains("\"live#hw\":9"), "{json}");
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let r = Registry::new();
        let h = r.histogram("p", "c", "lat");
        h.record(Duration::from_micros(5)); // bucket 1 (<=10µs)
        h.record(Duration::from_millis(2)); // bucket 4 (<=10ms)
        h.record(Duration::from_secs(100)); // overflow bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.max_ns(), 100_000_000_000);
        let json = h.export();
        let obj = json.as_object().unwrap();
        assert_eq!(obj["count"].as_u64(), Some(3));
        let buckets = obj["buckets"].as_array().unwrap();
        assert_eq!(buckets.len(), NUM_BUCKETS);
        assert_eq!(buckets[1].as_u64(), Some(1));
        assert_eq!(buckets[4].as_u64(), Some(1));
        assert_eq!(buckets[NUM_BUCKETS - 1].as_u64(), Some(1));
    }

    #[test]
    fn percentile_estimates_pinned_on_known_inputs() {
        // 100 samples of 5µs: everything sits in bucket 1, (1µs, 10µs].
        // p50 rank = 50 of 100 in-bucket → 1000 + 9000·50/100 = 5500ns.
        let r = Registry::new();
        let h = r.histogram("p", "c", "uniform");
        for _ in 0..100 {
            h.record_ns(5_000);
        }
        assert_eq!(h.percentile_ns(50), 5_500);
        assert_eq!(h.percentile_ns(99), 1_000 + 9_000 * 99 / 100);

        // Bimodal: 90 fast samples (500ns, bucket 0) + 10 slow (5ms,
        // bucket 4). p50 interpolates inside bucket 0, p95/p99 inside
        // bucket 4's (1ms, 10ms] range.
        let h = r.histogram("p", "c", "bimodal");
        for _ in 0..90 {
            h.record_ns(500);
        }
        for _ in 0..10 {
            h.record_ns(5_000_000);
        }
        assert_eq!(h.percentile_ns(50), 1_000 * 50 / 90);
        assert_eq!(h.percentile_ns(95), 1_000_000 + 9_000_000 * 5 / 10);
        assert_eq!(h.percentile_ns(99), 1_000_000 + 9_000_000 * 9 / 10);

        // Overflow bucket's upper edge is the observed max; a single
        // sample puts every percentile rank at that edge.
        let h = r.histogram("p", "c", "overflow");
        h.record_ns(20_000_000_000);
        assert_eq!(h.percentile_ns(50), 20_000_000_000);
        assert_eq!(h.percentile_ns(100), 20_000_000_000);

        // Empty histogram: all percentiles are 0.
        let h = r.histogram("p", "c", "empty");
        assert_eq!(h.percentile_ns(50), 0);
    }

    #[test]
    fn export_includes_percentiles() {
        let r = Registry::new();
        let h = r.histogram("p", "c", "lat");
        for _ in 0..100 {
            h.record_ns(5_000);
        }
        let json = serde_json::to_string(&r.export()).unwrap();
        assert!(json.contains("\"p50_ns\":5500"), "{json}");
        assert!(json.contains("\"p95_ns\""));
        assert!(json.contains("\"p99_ns\""));
    }

    #[test]
    fn export_warns_when_events_dropped() {
        let r = Registry::with_event_capacity(2);
        for _ in 0..5 {
            r.event("p", "c", "e", vec![]);
        }
        let json = serde_json::to_string(&r.export()).unwrap();
        assert!(json.contains("event ring overflowed"), "{json}");
        let clean = Registry::new();
        clean.event("p", "c", "e", vec![]);
        let json = serde_json::to_string(&clean.export()).unwrap();
        assert!(!json.contains("warning"), "{json}");
    }

    #[test]
    fn events_ring_drops_oldest() {
        let r = Registry::with_event_capacity(3);
        for i in 0..5u64 {
            r.event("p", "c", "e", vec![("i", i.into())]);
        }
        assert_eq!(r.events_len(), 3);
        assert_eq!(r.events_dropped(), 2);
        let evs = r.events_snapshot();
        // Oldest two were dropped; timestamps stay strictly increasing.
        assert_eq!(evs[0].attr("i").unwrap().as_u64(), Some(2));
        assert!(evs.windows(2).all(|w| w[0].ts < w[1].ts));
    }

    #[test]
    fn export_is_nested_and_deterministic() {
        let r = Registry::new();
        r.counter("ep0", "pml", "eager_sent").add(4);
        r.counter("fabric", "fabric", "msgs_sent").add(10);
        r.histogram("launcher", "prrte", "map_ns").record_ns(500);
        r.event("srv", "pmix", "group.fanin", vec![("op", "g1".into())]);
        let a = serde_json::to_string(&r.export()).unwrap();
        let b = serde_json::to_string(&r.export()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"eager_sent\":4"));
        assert!(a.contains("\"msgs_sent\":10"));
        assert!(a.contains("group.fanin"));
    }
}
