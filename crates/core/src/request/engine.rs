//! The per-process progress engine and stall watchdog of setup requests.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Weak;

/// Point-in-time description of one in-flight setup request, as reported
/// by [`ProgressEngine::describe`] (the flight recorder's `requests`
/// section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqSnapshot {
    /// Operation label (`icomm_create_from_group`, …).
    pub op: &'static str,
    /// Process-unique request id.
    pub id: u64,
    /// Current stage name (`"done"` / `"failed"` once terminal).
    pub stage: &'static str,
    /// Stage polls performed.
    pub steps: u64,
    /// Engine sweeps since the last stage transition.
    pub ticks: u64,
    /// Whether the stall watchdog has flagged the request.
    pub stalled: bool,
    /// Stage-provided description of what the request is parked on.
    pub waiting_on: Option<String>,
}

/// Engine-side view of an in-flight setup request (type-erased so one
/// [`ProgressEngine`] drives requests of every construction type).
pub(super) trait EngineStep: Send + Sync {
    /// Try to step once; `true` when the request is terminal. A request
    /// currently being driven by another thread is skipped (not stalled
    /// on: whoever holds the lock is already making progress). A step
    /// that makes no progress accrues one watchdog tick; crossing
    /// `stall_after` ticks fires the stall diagnosis.
    fn engine_step(&self, stall_after: u64) -> bool;
    fn is_terminal(&self) -> bool;
    /// Point-in-time description (`None` while another thread drives it).
    fn snapshot(&self) -> Option<ReqSnapshot>;
}

/// Default stall threshold: engine sweeps a request may sit in one stage
/// without progress before the watchdog emits `req.stalled`. High enough
/// that ordinary in-flight exchanges (a fan-out crossing a slow fabric)
/// never trip it; tests shrink it through the `core.stall_ticks` cvar to
/// fire deterministically.
pub const DEFAULT_STALL_TICKS: u64 = 64;

/// The per-process progress engine for setup requests: every issued
/// `i`-variant registers here, and [`ProgressEngine::progress`] steps each
/// in-flight request once. This is the seam the interleaving test harness
/// single-steps, and the hook a future virtual-time backend replaces
/// (blocked = parked request, not parked thread).
///
/// The engine doubles as the **stall watchdog**: a sweep that fails to
/// advance a request accrues one logical tick against it, and a request
/// exceeding the stall threshold gets a structured `req.stalled` diagnosis
/// (cleared by `req.unstalled` the moment it moves again). Quiet blocking
/// wrappers never register, so the watchdog cannot fire on them.
pub struct ProgressEngine {
    slots: Mutex<Vec<Weak<dyn EngineStep>>>,
    stall_after: AtomicU64,
}

impl Default for ProgressEngine {
    fn default() -> Self {
        Self { slots: Mutex::new(Vec::new()), stall_after: AtomicU64::new(DEFAULT_STALL_TICKS) }
    }
}

impl ProgressEngine {
    pub(super) fn register(&self, s: Weak<dyn EngineStep>) {
        self.slots.lock().push(s);
    }

    /// Current stall threshold (engine sweeps without progress).
    pub fn stall_ticks(&self) -> u64 {
        self.stall_after.load(Ordering::Relaxed)
    }

    /// Tune the stall threshold (clamped to ≥ 1). Exposed as the
    /// per-process `core.stall_ticks` cvar.
    pub fn set_stall_ticks(&self, ticks: u64) {
        self.stall_after.store(ticks.max(1), Ordering::Relaxed);
    }

    /// Describe every registered in-flight request (terminal and
    /// currently-driven ones excluded), sorted by request id — the flight
    /// recorder's per-process `requests` section.
    pub fn describe(&self) -> Vec<ReqSnapshot> {
        let snapshot: Vec<Weak<dyn EngineStep>> = self.slots.lock().clone();
        let mut out: Vec<ReqSnapshot> = snapshot
            .iter()
            .filter_map(|w| w.upgrade())
            .filter_map(|s| s.snapshot())
            .filter(|r| r.stage != "done" && r.stage != "failed")
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// Step every live in-flight request once; prune completed and dropped
    /// ones. Returns how many requests remain in flight.
    pub fn progress(&self) -> usize {
        let stall_after = self.stall_after.load(Ordering::Relaxed);
        // Snapshot the weak handles so stage polls (which may send, park
        // briefly, or re-enter the engine's owner) run outside our lock.
        let snapshot: Vec<Weak<dyn EngineStep>> = self.slots.lock().clone();
        for w in &snapshot {
            if let Some(s) = w.upgrade() {
                s.engine_step(stall_after);
            }
        }
        let mut live = 0;
        self.slots.lock().retain(|w| match w.upgrade() {
            Some(s) if !s.is_terminal() => {
                live += 1;
                true
            }
            _ => false,
        });
        live
    }

    /// Registered requests not yet terminal (without stepping them).
    pub fn in_flight(&self) -> usize {
        self.slots
            .lock()
            .iter()
            .filter(|w| w.upgrade().is_some_and(|s| !s.is_terminal()))
            .count()
    }
}

impl std::fmt::Debug for ProgressEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressEngine")
            .field("in_flight", &self.in_flight())
            .finish()
    }
}
