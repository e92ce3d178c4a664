//! MPI_T-style tool information interface: control variables (cvars) and
//! performance variables (pvars).
//!
//! Real MPI deployments observe and tune the runtime through `MPI_T`, the
//! tool-information interface: an enumerable set of **control variables**
//! (knobs) and **performance variables** (readings). This module gives the
//! simulated stack the same surface, hung off the per-fabric [`Registry`]
//! so one simulated cluster's knobs and readings live in one place.
//!
//! # Control variables
//!
//! A cvar is a named, typed knob keyed `(scope, name)`:
//!
//! * `scope` follows the metric-key convention — a process string
//!   (`"ep3"`, a `ProcId` rendering) for per-process knobs, `"universe"`
//!   for cluster-wide ones;
//! * reads go through a closure, so a cvar always reports the *live*
//!   value, not a registration-time copy;
//! * writable cvars carry a setter closure over the owning subsystem's
//!   own (private) setter — a registry write is the one public write path
//!   for the knob;
//! * every successful write emits a `cvar.changed` event (component
//!   `"tool"`) carrying the old and new values. Reads emit nothing: the
//!   introspection surface must stay invisible to the perf fingerprint.
//!
//! Registration closures return `Option<CvarValue>`; a closure whose
//! subject has been dropped (it captured a `Weak`) returns `None` and the
//! entry is pruned lazily on the next enumeration or read.
//!
//! # Performance variables
//!
//! A pvar binds one existing instrument (or a cross-process sum of one
//! `(component, name)` family) for repeated sampling through a
//! [`PvarSession`]. Readings are defined to agree **byte-for-byte** with
//! [`Registry::export`]: a `Timer` pvar renders exactly the histogram's
//! export leaf (`count`/`sum_ns`/`max_ns`/percentiles/buckets), a
//! `Level` pvar reads the same cells the gauge export and `#hw` sibling
//! are built from. The soak harness and the perf gate sample through this
//! surface, so the numbers a tool would see are the numbers the gates
//! enforce.

use crate::{AttrValue, ProcKey, ProcessName, Registry};
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Control variables
// ---------------------------------------------------------------------------

/// The typed value of a control variable.
#[derive(Debug, Clone, PartialEq)]
pub enum CvarValue {
    /// Unsigned integer knob (caps, block sizes, tick thresholds).
    U64(u64),
    /// Boolean knob (feature enables).
    Bool(bool),
    /// String knob (enumerations).
    Str(String),
}

impl CvarValue {
    /// Coerce to `u64` when the value holds one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            CvarValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Coerce to `bool` when the value holds one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            CvarValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Borrow as a string when the value holds one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            CvarValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render as JSON (introspection snapshots).
    pub fn to_json(&self) -> Value {
        match self {
            CvarValue::U64(v) => Value::U64(*v),
            CvarValue::Bool(v) => Value::Bool(*v),
            CvarValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl std::fmt::Display for CvarValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CvarValue::U64(v) => write!(f, "{v}"),
            CvarValue::Bool(v) => write!(f, "{v}"),
            CvarValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Why a cvar write was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CvarError {
    /// No cvar registered under `(scope, name)` (or its subject died).
    Unknown(String),
    /// The cvar exists but is read-only.
    ReadOnly(String),
    /// The setter rejected the value (type or range).
    Rejected(String),
}

impl std::fmt::Display for CvarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CvarError::Unknown(s) => write!(f, "unknown cvar {s}"),
            CvarError::ReadOnly(s) => write!(f, "cvar {s} is read-only"),
            CvarError::Rejected(s) => write!(f, "cvar write rejected: {s}"),
        }
    }
}

type CvarReader = Box<dyn Fn() -> Option<CvarValue> + Send + Sync>;
type CvarWriter = Box<dyn Fn(&CvarValue) -> Result<(), String> + Send + Sync>;

struct CvarEntry {
    description: &'static str,
    read: CvarReader,
    write: Option<CvarWriter>,
}

/// One row of a cvar enumeration: a point-in-time snapshot of the entry.
#[derive(Debug, Clone)]
pub struct CvarInfo {
    /// Scope key (process string or `"universe"`).
    pub scope: String,
    /// Knob name, dot-namespaced by subsystem (`pml.handshake_cache_cap`).
    pub name: String,
    /// Human-readable description.
    pub description: &'static str,
    /// Whether the cvar accepts writes.
    pub writable: bool,
    /// Current value at enumeration time.
    pub value: CvarValue,
}

/// The per-registry cvar store (see the module docs), keyed by the
/// interned scope and the static knob name.
#[derive(Default)]
pub(crate) struct CvarStore {
    entries: parking_lot::Mutex<HashMap<(ProcKey, &'static str), CvarEntry>>,
}

impl Registry {
    /// Register (or replace) the control variable `(scope, name)`.
    ///
    /// `read` reports the live value (`None` once the knob's subject has
    /// been dropped — the entry is then pruned lazily); `write`, when
    /// present, applies a new value by delegating to the subsystem's own
    /// setter. Registration is silent: no event, no metric.
    ///
    /// # Examples
    ///
    /// A read/write round-trip: the writer delegates to the subsystem's
    /// own setter (here an atomic), so a tool's `cvar_write` lands on the
    /// live state.
    ///
    /// ```
    /// use std::sync::atomic::{AtomicU64, Ordering};
    /// use std::sync::Arc;
    /// use obs::{u64_writer, CvarValue, Registry};
    ///
    /// let registry = Registry::new();
    /// let cap = Arc::new(AtomicU64::new(8));
    /// let (r, w) = (Arc::clone(&cap), Arc::clone(&cap));
    /// registry.cvar_register(
    ///     "universe",
    ///     "demo.cache_cap",
    ///     "bound on the demo cache",
    ///     move || Some(CvarValue::U64(r.load(Ordering::Relaxed))),
    ///     u64_writer(move |n| w.store(n, Ordering::Relaxed)),
    /// );
    /// assert_eq!(
    ///     registry.cvar_read("universe", "demo.cache_cap"),
    ///     Some(CvarValue::U64(8)),
    /// );
    /// registry
    ///     .cvar_write("universe", "demo.cache_cap", CvarValue::U64(32))
    ///     .unwrap();
    /// assert_eq!(cap.load(Ordering::Relaxed), 32);
    /// ```
    pub fn cvar_register(
        &self,
        scope: impl ProcessName,
        name: &'static str,
        description: &'static str,
        read: impl Fn() -> Option<CvarValue> + Send + Sync + 'static,
        write: Option<CvarWriter>,
    ) {
        self.tool.entries.lock().insert(
            (scope.key_in(self), name),
            CvarEntry { description, read: Box::new(read), write },
        );
    }

    /// The store key of `(scope, name)`, if such a cvar was registered.
    fn cvar_key(&self, scope: &str, name: &str) -> Option<(ProcKey, &'static str)> {
        let scope = self.lookup(scope)?;
        self.tool.entries.lock().keys().copied().find(|&(p, n)| p == scope && n == name)
    }

    /// Read the current value of one cvar (`None` if unknown or dead).
    pub fn cvar_read(&self, scope: &str, name: &str) -> Option<CvarValue> {
        let k = self.cvar_key(scope, name)?;
        let mut entries = self.tool.entries.lock();
        let entry = entries.get(&k)?;
        match (entry.read)() {
            Some(v) => Some(v),
            None => {
                entries.remove(&k);
                None
            }
        }
    }

    /// Write a cvar. On success the new value is applied through the
    /// registered setter and a `cvar.changed` event is emitted with the old
    /// and new values.
    pub fn cvar_write(&self, scope: &str, name: &str, value: CvarValue) -> Result<(), CvarError> {
        let label = format!("{scope}/{name}");
        let k = self.cvar_key(scope, name).ok_or_else(|| CvarError::Unknown(label.clone()))?;
        let old = {
            let mut entries = self.tool.entries.lock();
            let entry = entries.get(&k).ok_or_else(|| CvarError::Unknown(label.clone()))?;
            let Some(old) = (entry.read)() else {
                entries.remove(&k);
                return Err(CvarError::Unknown(label));
            };
            let write = entry.write.as_ref().ok_or_else(|| CvarError::ReadOnly(label.clone()))?;
            write(&value).map_err(CvarError::Rejected)?;
            old
        };
        self.event(
            k.0,
            "tool",
            "cvar.changed",
            vec![
                ("cvar", AttrValue::name(k.1)),
                ("from", old.to_string().into()),
                ("to", value.to_string().into()),
            ],
        );
        Ok(())
    }

    /// Enumerate every live cvar, sorted by `(scope, name)`. Entries whose
    /// subject has been dropped are pruned as a side effect.
    pub fn cvars(&self) -> Vec<CvarInfo> {
        let names = self.process_names();
        let mut entries = self.tool.entries.lock();
        let mut out = Vec::with_capacity(entries.len());
        entries.retain(|&(scope, name), e| match (e.read)() {
            Some(value) => {
                out.push(CvarInfo {
                    scope: names[scope.index()].to_string(),
                    name: name.to_string(),
                    description: e.description,
                    writable: e.write.is_some(),
                    value,
                });
                true
            }
            None => false,
        });
        drop(entries);
        out.sort_by(|a, b| (&a.scope, &a.name).cmp(&(&b.scope, &b.name)));
        out
    }
}

/// Convenience constructor for a writer closure (keeps call sites short).
pub fn writer(
    f: impl Fn(&CvarValue) -> Result<(), String> + Send + Sync + 'static,
) -> Option<CvarWriter> {
    Some(Box::new(f))
}

/// A writer that accepts only `U64` values and hands the integer on.
pub fn u64_writer(f: impl Fn(u64) + Send + Sync + 'static) -> Option<CvarWriter> {
    writer(move |v| match v.as_u64() {
        Some(n) => {
            f(n);
            Ok(())
        }
        None => Err(format!("expected an unsigned integer, got {v}")),
    })
}

/// A writer that accepts only `Bool` values and hands the flag on.
pub fn bool_writer(f: impl Fn(bool) + Send + Sync + 'static) -> Option<CvarWriter> {
    writer(move |v| match v.as_bool() {
        Some(b) => {
            f(b);
            Ok(())
        }
        None => Err(format!("expected a boolean, got {v}")),
    })
}

// ---------------------------------------------------------------------------
// Performance variables
// ---------------------------------------------------------------------------

/// The class of a performance variable (MPI_T nomenclature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PvarClass {
    /// Monotonic count (backed by a [`crate::Counter`]).
    Counter,
    /// Instantaneous level with a high-water mark (a [`crate::Gauge`]).
    Level,
    /// Duration distribution (a [`crate::Histogram`]).
    Timer,
}

impl PvarClass {
    /// Stable lowercase rendering (snapshots, enumerations).
    pub fn as_str(&self) -> &'static str {
        match self {
            PvarClass::Counter => "counter",
            PvarClass::Level => "level",
            PvarClass::Timer => "timer",
        }
    }
}

/// One row of a pvar enumeration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PvarDesc {
    /// Variable class.
    pub class: PvarClass,
    /// Emitting process (metric-key convention).
    pub process: String,
    /// Subsystem.
    pub component: String,
    /// Metric name.
    pub name: String,
}

/// One pvar sample.
#[derive(Debug, Clone, PartialEq)]
pub enum PvarReading {
    /// Counter value (or cross-process sum).
    Counter(u64),
    /// Gauge value plus its high-water mark (cross-process: sums of each).
    Level {
        /// Current value.
        value: i64,
        /// Peak value (see [`crate::Gauge::high_water`]).
        high_water: i64,
    },
    /// The histogram's full export leaf — byte-identical to
    /// [`Registry::export`]'s rendering of the same instrument.
    Timer(Value),
}

impl PvarReading {
    /// The counter value, if this is a counter reading.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            PvarReading::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The level value, if this is a level reading.
    pub fn as_level(&self) -> Option<i64> {
        match self {
            PvarReading::Level { value, .. } => Some(*value),
            _ => None,
        }
    }
}

enum Binding {
    /// Sum of one `(component, name)` counter family across processes.
    CounterSum(String, String),
    /// Sum of one `(component, name)` gauge family (values and marks).
    LevelSum(String, String),
    /// One specific gauge.
    Level(String, String, String),
    /// One specific histogram.
    Timer(String, String, String),
}

/// A bound set of performance-variable handles over one registry — the
/// MPI_T "pvar session" analog. Bind handles once, then sample repeatedly;
/// reads are side-effect-free (no events, no metric writes) so sampling
/// never perturbs what it measures.
pub struct PvarSession {
    registry: Arc<Registry>,
    bound: Vec<Binding>,
}

/// Index of a bound pvar handle within its session.
pub type PvarHandle = usize;

impl PvarSession {
    /// Start a session over `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self { registry, bound: Vec::new() }
    }

    /// Bind the cross-process sum of one counter family.
    pub fn bind_counter_sum(&mut self, component: &str, name: &str) -> PvarHandle {
        self.push(Binding::CounterSum(component.into(), name.into()))
    }

    /// Bind the cross-process sum of one gauge family.
    pub fn bind_level_sum(&mut self, component: &str, name: &str) -> PvarHandle {
        self.push(Binding::LevelSum(component.into(), name.into()))
    }

    /// Bind one specific gauge.
    pub fn bind_level(&mut self, process: &str, component: &str, name: &str) -> PvarHandle {
        self.push(Binding::Level(process.into(), component.into(), name.into()))
    }

    /// Bind one specific histogram.
    pub fn bind_timer(&mut self, process: &str, component: &str, name: &str) -> PvarHandle {
        self.push(Binding::Timer(process.into(), component.into(), name.into()))
    }

    fn push(&mut self, b: Binding) -> PvarHandle {
        self.bound.push(b);
        self.bound.len() - 1
    }

    /// Number of bound handles.
    pub fn len(&self) -> usize {
        self.bound.len()
    }

    /// Whether the session has no bound handles.
    pub fn is_empty(&self) -> bool {
        self.bound.is_empty()
    }

    /// Sample one handle.
    ///
    /// # Panics
    /// Panics if `h` was not returned by a `bind_*` call on this session.
    pub fn read(&self, h: PvarHandle) -> PvarReading {
        let r = &self.registry;
        match &self.bound[h] {
            Binding::CounterSum(c, n) => PvarReading::Counter(r.sum_counters(c, n)),
            Binding::LevelSum(c, n) => PvarReading::Level {
                value: r.sum_gauges(c, n),
                high_water: r.sum_gauge_high_water(c, n),
            },
            Binding::Level(p, c, n) => {
                let g = r.gauge_named(p, c, n);
                PvarReading::Level { value: g.get(), high_water: g.high_water() }
            }
            Binding::Timer(p, c, n) => PvarReading::Timer(r.histogram_named(p, c, n).export()),
        }
    }

    /// Shorthand: sample a handle bound to a counter (sum).
    pub fn read_u64(&self, h: PvarHandle) -> u64 {
        self.read(h).as_counter().unwrap_or(0)
    }

    /// Shorthand: sample a handle bound to a level.
    pub fn read_i64(&self, h: PvarHandle) -> i64 {
        self.read(h).as_level().unwrap_or(0)
    }
}

impl Registry {
    /// Enumerate every live instrument as a pvar descriptor, sorted by
    /// `(class, process, component, name)`. Counters that never
    /// incremented are skipped (matching [`Registry::export`]); gauges are
    /// always listed (a zero level is a real reading).
    pub fn pvar_enumerate(&self) -> Vec<PvarDesc> {
        let desc = |class, (process, component, name): crate::Key| PvarDesc {
            class,
            process,
            component,
            name,
        };
        let mut out = Vec::new();
        for (k, v) in self.rendered(&self.counters) {
            if v.get() > 0 {
                out.push(desc(PvarClass::Counter, k));
            }
        }
        for (k, _) in self.rendered(&self.gauges) {
            out.push(desc(PvarClass::Level, k));
        }
        for (k, v) in self.rendered(&self.histograms) {
            if v.count() > 0 {
                out.push(desc(PvarClass::Timer, k));
            }
        }
        out.sort();
        out
    }
}

/// Render the cvar enumeration as a deterministic JSON array (the
/// introspection snapshot's `cvars` section).
pub fn cvars_to_json(registry: &Registry) -> Value {
    let rows: Vec<Value> = registry
        .cvars()
        .into_iter()
        .map(|c| {
            let mut m = Map::new();
            m.insert("scope".into(), Value::Str(c.scope));
            m.insert("name".into(), Value::Str(c.name));
            m.insert("description".into(), Value::Str(c.description.to_string()));
            m.insert("writable".into(), Value::Bool(c.writable));
            m.insert("value".into(), c.value.to_json());
            Value::Object(m)
        })
        .collect();
    Value::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn cvar_register_read_write_roundtrip() {
        let r = Registry::new();
        let cell = Arc::new(AtomicU64::new(8));
        let rd = cell.clone();
        let wr = cell.clone();
        r.cvar_register(
            "universe",
            "test.block",
            "a test knob",
            move || Some(CvarValue::U64(rd.load(Ordering::Relaxed))),
            u64_writer(move |v| wr.store(v, Ordering::Relaxed)),
        );
        assert_eq!(r.cvar_read("universe", "test.block"), Some(CvarValue::U64(8)));
        r.cvar_write("universe", "test.block", CvarValue::U64(32)).unwrap();
        assert_eq!(cell.load(Ordering::Relaxed), 32);
        // The write emitted exactly one cvar.changed with old and new.
        let evs = r.events_named("cvar.changed");
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].attr("from").unwrap().as_str(), Some("8"));
        assert_eq!(evs[0].attr("to").unwrap().as_str(), Some("32"));
        // Type mismatch is rejected without touching the value.
        let err = r.cvar_write("universe", "test.block", CvarValue::Bool(true)).unwrap_err();
        assert!(matches!(err, CvarError::Rejected(_)));
        assert_eq!(cell.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn cvar_readonly_and_unknown_writes_fail() {
        let r = Registry::new();
        r.cvar_register("universe", "ro", "read-only", || Some(CvarValue::Str("x".into())), None);
        assert!(matches!(
            r.cvar_write("universe", "ro", CvarValue::Str("y".into())),
            Err(CvarError::ReadOnly(_))
        ));
        assert!(matches!(
            r.cvar_write("universe", "nope", CvarValue::U64(1)),
            Err(CvarError::Unknown(_))
        ));
        assert!(r.events_named("cvar.changed").is_empty());
    }

    #[test]
    fn dead_subject_prunes_the_entry() {
        let r = Registry::new();
        let cell = Arc::new(AtomicU64::new(1));
        let weak = Arc::downgrade(&cell);
        r.cvar_register(
            "ep0",
            "dyn.knob",
            "dies with its subject",
            move || weak.upgrade().map(|c| CvarValue::U64(c.load(Ordering::Relaxed))),
            None,
        );
        assert_eq!(r.cvars().len(), 1);
        drop(cell);
        assert!(r.cvar_read("ep0", "dyn.knob").is_none());
        assert!(r.cvars().is_empty());
    }

    #[test]
    fn pvar_session_reads_match_the_direct_surface() {
        let r = Arc::new(Registry::new());
        r.counter("p0", "pml", "eager_sent").add(3);
        r.counter("p1", "pml", "eager_sent").add(4);
        let g = r.gauge("p0", "cid", "table_used");
        g.add(9);
        g.add(-2);
        let mut s = PvarSession::new(r.clone());
        let hc = s.bind_counter_sum("pml", "eager_sent");
        let hl = s.bind_level_sum("cid", "table_used");
        assert_eq!(s.read_u64(hc), 7);
        assert_eq!(s.read_i64(hl), 7);
        assert_eq!(
            s.read(hl),
            PvarReading::Level { value: 7, high_water: 9 }
        );
    }

    #[test]
    fn timer_pvar_agrees_with_export_byte_for_byte() {
        let r = Arc::new(Registry::new());
        let h = r.histogram("launcher", "prrte", "map_ns");
        for ns in [500u64, 5_000, 2_000_000, 20_000_000_000] {
            h.record_ns(ns);
        }
        let mut s = PvarSession::new(r.clone());
        let ht = s.bind_timer("launcher", "prrte", "map_ns");
        let PvarReading::Timer(leaf) = s.read(ht) else { panic!("timer reading") };
        // The same instrument's leaf inside the full export.
        let export = r.export();
        let from_export =
            &export.as_object().unwrap()["histograms"].as_object().unwrap()["launcher"]
                .as_object()
                .unwrap()["prrte"]
                .as_object()
                .unwrap()["map_ns"];
        assert_eq!(
            serde_json::to_string(&leaf).unwrap(),
            serde_json::to_string(from_export).unwrap(),
            "pvar sampling and file export must agree byte-for-byte"
        );
        // And the leaf carries the full stat set, not just percentiles.
        let obj = leaf.as_object().unwrap();
        for k in ["count", "sum_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns", "buckets"] {
            assert!(obj.contains_key(k), "missing {k}");
        }
    }

    #[test]
    fn pvar_enumeration_is_sorted_and_classed() {
        let r = Registry::new();
        r.counter("p", "pml", "eager_sent").inc();
        r.counter("p", "pml", "never").get(); // zero: skipped
        r.gauge("p", "cid", "table_used");
        r.histogram("p", "pmix", "rpc_ns").record_ns(10);
        let descs = r.pvar_enumerate();
        assert_eq!(descs.len(), 3);
        assert_eq!(descs[0].class, PvarClass::Counter);
        assert_eq!(descs[1].class, PvarClass::Level);
        assert_eq!(descs[2].class, PvarClass::Timer);
        let mut sorted = descs.clone();
        sorted.sort();
        assert_eq!(descs, sorted);
    }
}
