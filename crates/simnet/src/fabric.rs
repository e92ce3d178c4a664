//! The fabric: endpoint registry, cost-model application and the delayed
//! delivery pump.
//!
//! Zero-delay messages (all of them under the zero-cost model) are handed to
//! the destination mailbox by the sending thread — one registry read, then a
//! move into the mailbox; the pump is untouched unless something is
//! scheduled on it. That is the path paper Fig. 5 exercises. Delayed messages
//! go through a single pump thread that sleeps until each delivery time.
//! Per-(src,dst) FIFO holds because no delivery is scheduled before the
//! pair's previous one and a zero-delay message queues behind its pair's
//! held traffic — the ordered delivery MPI point-to-point relies on.

use crate::cost::CostModel;
use crate::endpoint::{Endpoint, EndpointId, SendError};
use crate::failure::{FailureEvent, FailureWatcher};
use crate::inject::{FaultAction, FaultHook, MsgView};
use crate::message::Envelope;
use crate::topology::NodeId;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Aggregate traffic counters for a fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages accepted by `send` (including ones later dropped because the
    /// destination died first).
    pub msgs_sent: u64,
    /// Bytes (head + body) accepted by `send`.
    pub bytes_sent: u64,
    /// Messages that took the delayed (pump) path rather than direct handoff.
    pub msgs_delayed: u64,
}

struct Entry {
    tx: Sender<Envelope>,
    node: NodeId,
}

struct Registry {
    map: RwLock<HashMap<EndpointId, Entry>>,
    // Killed endpoints with the node they lived on, kept so late failure
    // watchers can be brought up to date (see `watch_failures`).
    dead: RwLock<HashMap<EndpointId, NodeId>>,
}

/// Endpoint ids are unique across *all* fabrics in the OS process, so
/// higher layers may key per-process state by endpoint id even when many
/// simulated universes coexist (e.g. parallel tests).
static NEXT_ENDPOINT_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Eq, PartialEq)]
struct Scheduled {
    deliver_at: Instant,
    seq: u64,
    env: Envelope,
}

// BinaryHeap is a max-heap; invert so the earliest delivery pops first.
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Envelope {
    fn eq(&self, other: &Self) -> bool {
        self.src == other.src
            && self.dst == other.dst
            && self.payload == other.payload
            && self.body == other.body
    }
}
impl Eq for Envelope {}

struct PumpState {
    queue: BinaryHeap<Scheduled>,
    // Last scheduled delivery instant per (src, dst): preserves FIFO order
    // even when a small message's bandwidth delay would let it overtake a
    // large predecessor.
    pair_last: HashMap<(EndpointId, EndpointId), Instant>,
    seq: u64,
    shutdown: bool,
}

struct Pump {
    state: Mutex<PumpState>,
    cv: Condvar,
    // Messages the pump holds: raised per push under the lock, lowered
    // inside the destination mailbox's lock right after a popped message's
    // push, read without the lock. Relaxed: a reader that sees a hand-off's
    // decrement locks that mailbox after the pump did (coherence orders the
    // two locks), and a receiver that took the message reads it lowered.
    scheduled: AtomicUsize,
    // Test-only pause point between a pop and its hand-off.
    #[cfg(test)]
    gate: tests::PumpGate,
}

impl Pump {
    /// True while the pump may hold delayed traffic on `pair`, a popped
    /// message not yet handed off included; locks only when anything is
    /// scheduled at all.
    fn holds(&self, pair: &(EndpointId, EndpointId)) -> bool {
        self.scheduled.load(Ordering::Relaxed) != 0
            && self.state.lock().pair_last.contains_key(pair)
    }
}

/// Hot-path counter handles resolved once at fabric construction; `send`
/// touches nothing but these atomics (plus the registry read lock it
/// already needed for routing).
struct FabricMetrics {
    msgs_on_node: obs::Counter,
    msgs_inter_node: obs::Counter,
    bytes_on_node: obs::Counter,
    bytes_inter_node: obs::Counter,
    msgs_delayed: obs::Counter,
    delay_ns_total: obs::Counter,
    faults_dropped: obs::Counter,
    faults_delayed: obs::Counter,
    faults_duplicated: obs::Counter,
}

impl FabricMetrics {
    fn new(obs: &obs::Registry) -> Self {
        let c = |name| obs.counter("fabric", "fabric", name);
        Self {
            msgs_on_node: c("msgs_on_node"),
            msgs_inter_node: c("msgs_inter_node"),
            bytes_on_node: c("bytes_on_node"),
            bytes_inter_node: c("bytes_inter_node"),
            msgs_delayed: c("msgs_delayed"),
            delay_ns_total: c("delay_ns_total"),
            faults_dropped: c("faults_dropped"),
            faults_delayed: c("faults_delayed"),
            faults_duplicated: c("faults_duplicated"),
        }
    }
}

/// Shared core of a fabric. Users interact through the cheap [`Fabric`]
/// handle.
pub struct FabricCore {
    registry: Registry,
    pump: Arc<Pump>,
    cost: CostModel,
    watchers: Mutex<Vec<Sender<FailureEvent>>>,
    obs: Arc<obs::Registry>,
    metrics: FabricMetrics,
    pump_thread: Mutex<Option<JoinHandle<()>>>,
    // Fault injection: optional per-message hook plus the per-(src,dst)
    // sequence counters it keys decisions on. Counters advance only while a
    // hook is installed, so fault-free runs pay nothing but one RwLock read.
    hook: RwLock<Option<Arc<dyn FaultHook>>>,
    hook_seq: Mutex<HashMap<(EndpointId, EndpointId), u64>>,
    // Id of the first endpoint registered on this fabric (0 = none yet).
    // `NEXT_ENDPOINT_ID` is process-global, so raw ids shift between runs
    // when other fabrics coexist; ids relative to this base do not.
    base_endpoint: AtomicU64,
    // Logical-activity clock: ticks on every accepted send and every
    // completed delivery (including pump deliveries to dead destinations).
    // Protocol-level deadlines poll it together with `in_flight` to decide
    // "the fabric has quiesced" without consulting the wall clock.
    activity: AtomicU64,
}

impl FabricCore {
    /// The observability registry every layer running on this fabric
    /// shares.
    pub fn obs(&self) -> &Arc<obs::Registry> {
        &self.obs
    }

    pub(crate) fn send(&self, env: Envelope) -> Result<(), SendError> {
        self.activity.fetch_add(1, Ordering::Relaxed);
        if !self.cost.send_overhead.is_zero() {
            std::thread::sleep(self.cost.send_overhead);
        }

        let hook = self.hook.read().clone();
        let verdict = hook.map(|h| self.consult(&*h, &env));

        // Route: one registry read gives the nodes, the mailbox and the
        // hand-off under its guard. With a hook it is re-read *after* the
        // verdict's kills, so a verdict that kills the destination claims
        // this very message as its first casualty.
        let map = self.registry.map.read();
        let dst = map.get(&env.dst);
        let (action, src_node, dst_node) = verdict.unwrap_or_else(|| {
            (FaultAction::Deliver, map.get(&env.src).map(|e| e.node), dst.map(|e| e.node))
        });

        // A killed sender may still be draining its own logic; treat an
        // unknown src (or dead dst) as off-node for costing purposes.
        let same_node = matches!((src_node, dst_node), (Some(s), Some(d)) if s == d);
        // Accepted traffic is counted even when the destination died first
        // or the hook drops it (the message was injected; it is lost in
        // flight).
        if same_node {
            self.metrics.msgs_on_node.inc();
            self.metrics.bytes_on_node.add(env.len() as u64);
        } else {
            self.metrics.msgs_inter_node.inc();
            self.metrics.bytes_inter_node.add(env.len() as u64);
        }

        if action == FaultAction::Drop {
            self.metrics.faults_dropped.inc();
            return Ok(());
        }

        let Some(dst) = dst else {
            return Err(SendError::PeerDead(env.dst));
        };

        let (extra, twin) = match action {
            FaultAction::Delay(d) => {
                self.metrics.faults_delayed.inc();
                (d, None)
            }
            FaultAction::Duplicate => {
                self.metrics.faults_duplicated.inc();
                (Duration::ZERO, Some(env.clone()))
            }
            _ => (Duration::ZERO, None),
        };
        let delay = self.cost.delivery_delay(same_node, env.len()) + extra;
        let pair = (env.src, env.dst);
        let copies = std::iter::once(env).chain(twin);

        // Zero delay: hand off directly, unless the pump still holds this
        // pair's delayed traffic — then queue behind it (per-pair FIFO).
        if delay.is_zero() && !self.pump.holds(&pair) {
            for env in copies {
                let _ = dst.tx.send(env);
                self.activity.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(());
        }
        drop(map);

        self.metrics.msgs_delayed.inc();
        self.metrics.delay_ns_total.add(delay.as_nanos().min(u64::MAX as u128) as u64);
        let mut st = self.pump.state.lock();
        let mut at = Instant::now() + delay;
        if let Some(prev) = st.pair_last.get(&pair) {
            at = at.max(*prev);
        }
        st.pair_last.insert(pair, at);
        for env in copies {
            let seq = st.seq;
            st.seq += 1;
            st.queue.push(Scheduled { deliver_at: at, seq, env });
            self.pump.scheduled.fetch_add(1, Ordering::Relaxed);
        }
        drop(st);
        self.pump.cv.notify_one();
        Ok(())
    }

    /// Run the hook and its verdict's kills (no registry lock held: kills
    /// write it). Returns the action and the nodes seen *before* the kills,
    /// which classify the message on-node or inter-node.
    fn consult(
        &self,
        hook: &dyn FaultHook,
        env: &Envelope,
    ) -> (FaultAction, Option<NodeId>, Option<NodeId>) {
        let (src_node, dst_node) = {
            let map = self.registry.map.read();
            (map.get(&env.src).map(|e| e.node), map.get(&env.dst).map(|e| e.node))
        };
        let pair_seq = {
            let mut seqs = self.hook_seq.lock();
            let c = seqs.entry((env.src, env.dst)).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let base = self.base_endpoint.load(Ordering::Relaxed);
        let view = MsgView {
            src: env.src,
            dst: env.dst,
            rel_src: env.src.0.saturating_sub(base),
            rel_dst: env.dst.0.saturating_sub(base),
            src_node,
            dst_node,
            pair_seq,
            len: env.len(),
        };
        let verdict = hook.on_message(&view);
        // The hook runs on the *sending* thread, so the thread's current
        // span is exactly the operation this fault interrupts (e.g. the
        // fence a kill rule fired inside) — annotate it before applying the
        // verdict. Labels use normalized endpoint ids so traces stay
        // run-stable.
        let label = match verdict.action {
            FaultAction::Drop => Some("fault:drop"),
            FaultAction::Delay(_) => Some("fault:delay"),
            FaultAction::Duplicate => Some("fault:duplicate"),
            FaultAction::Deliver => None,
        };
        if let Some(label) = label {
            obs::trace::fault_current(label);
        }
        for id in verdict.kills {
            obs::trace::fault_current(&format!("fault:kill(rel={})", id.0.saturating_sub(base)));
            self.kill(id);
        }
        (verdict.action, src_node, dst_node)
    }

    pub(crate) fn kill(&self, id: EndpointId) {
        let removed = self.registry.map.write().remove(&id);
        let Some(entry) = removed else { return };
        let event = FailureEvent { endpoint: id, node: entry.node };
        // Take the watcher list lock *before* recording the death: a
        // concurrently subscribing watcher (which holds the same lock across
        // its replay) then sees this death exactly once — via replay or via
        // the live broadcast, never both.
        let mut watchers = self.watchers.lock();
        self.registry.dead.write().insert(id, entry.node);
        watchers.retain(|w| w.send(event).is_ok());
    }
}

/// A cheap, cloneable handle to a simulated fabric.
#[derive(Clone)]
pub struct Fabric(Arc<FabricCore>);

impl Fabric {
    /// Create a fabric with the given cost model and start its delivery pump.
    pub fn new(cost: CostModel) -> Self {
        let pump = Arc::new(Pump {
            state: Mutex::new(PumpState {
                queue: BinaryHeap::new(),
                pair_last: HashMap::new(),
                seq: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            scheduled: AtomicUsize::new(0),
            #[cfg(test)]
            gate: Default::default(),
        });
        let obs = Arc::new(obs::Registry::new());
        let metrics = FabricMetrics::new(&obs);
        let core = Arc::new(FabricCore {
            registry: Registry {
                map: RwLock::new(HashMap::new()),
                dead: RwLock::new(HashMap::new()),
            },
            pump: pump.clone(),
            cost,
            watchers: Mutex::new(Vec::new()),
            obs,
            metrics,
            pump_thread: Mutex::new(None),
            hook: RwLock::new(None),
            hook_seq: Mutex::new(HashMap::new()),
            base_endpoint: AtomicU64::new(0),
            activity: AtomicU64::new(0),
        });

        let pump_core = Arc::downgrade(&core);
        let handle = std::thread::Builder::new()
            .name("simnet-pump".into())
            .spawn(move || pump_loop(pump, pump_core))
            .expect("failed to spawn fabric pump thread");
        *core.pump_thread.lock() = Some(handle);
        Fabric(core)
    }

    /// Create a fabric with the default (Aries-like) cost model.
    pub fn with_defaults() -> Self {
        Self::new(CostModel::default())
    }

    pub(crate) fn from_core(core: Arc<FabricCore>) -> Self {
        Fabric(core)
    }

    /// The fabric's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.0.cost
    }

    /// Register a new endpoint on `node` and return its mailbox.
    pub fn register(&self, node: NodeId) -> Endpoint {
        let id = EndpointId(NEXT_ENDPOINT_ID.fetch_add(1, Ordering::Relaxed));
        let _ = self.0.base_endpoint.compare_exchange(
            0,
            id.0,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        let (tx, rx) = unbounded();
        self.0.registry.map.write().insert(id, Entry { tx, node });
        Endpoint::new(id, node, rx, self.0.clone())
    }

    /// True if `id` refers to a live endpoint.
    pub fn is_alive(&self, id: EndpointId) -> bool {
        self.0.registry.map.read().contains_key(&id)
    }

    /// True if `id` was explicitly killed (as opposed to never registered).
    pub fn was_killed(&self, id: EndpointId) -> bool {
        self.0.registry.dead.read().contains_key(&id)
    }

    /// Node an endpoint lives on, if it is alive.
    pub fn node_of(&self, id: EndpointId) -> Option<NodeId> {
        self.0.registry.map.read().get(&id).map(|e| e.node)
    }

    /// Kill an endpoint: its mailbox is closed (readers see `Disconnected`
    /// after draining), future sends to it fail, and failure watchers are
    /// notified. Idempotent.
    pub fn kill(&self, id: EndpointId) {
        self.0.kill(id);
    }

    /// Subscribe to failure events.
    ///
    /// Deaths that happened *before* the subscription are replayed into the
    /// watcher immediately (in endpoint-id order — the fabric does not record
    /// kill order, and replay order must at least be deterministic), so a
    /// late subscriber converges on the same failure knowledge as one that
    /// watched from the start.
    pub fn watch_failures(&self) -> FailureWatcher {
        let (tx, rx) = unbounded();
        // Hold the watcher list lock across the replay: `kill` broadcasts
        // under the same lock, so a concurrent death is either already in
        // `dead` (replayed here) or broadcast after this watcher registers.
        let mut watchers = self.0.watchers.lock();
        let mut past: Vec<FailureEvent> = self
            .0
            .registry
            .dead
            .read()
            .iter()
            .map(|(ep, node)| FailureEvent { endpoint: *ep, node: *node })
            .collect();
        past.sort_by_key(|e| e.endpoint);
        for ev in past {
            let _ = tx.send(ev);
        }
        watchers.push(tx);
        FailureWatcher::new(rx)
    }

    /// Install (or replace) the fault-injection hook consulted for every
    /// subsequent send. Pass `None` to restore fault-free delivery.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        *self.0.hook.write() = hook;
    }

    /// Id of the first endpoint registered on this fabric — the base that
    /// [`MsgView`](crate::inject::MsgView) normalizes `rel_src`/`rel_dst`
    /// against. Returns 0 before the first registration.
    pub fn base_endpoint_id(&self) -> u64 {
        self.0.base_endpoint.load(Ordering::Relaxed)
    }

    /// The observability registry shared by every layer on this fabric.
    pub fn obs(&self) -> Arc<obs::Registry> {
        self.0.obs.clone()
    }

    /// Traffic counters, re-derived from the observability registry (the
    /// on-node/inter-node split is available there; this keeps the legacy
    /// aggregate view).
    pub fn stats(&self) -> FabricStats {
        let m = &self.0.metrics;
        FabricStats {
            msgs_sent: m.msgs_on_node.get() + m.msgs_inter_node.get(),
            bytes_sent: m.bytes_on_node.get() + m.bytes_inter_node.get(),
            msgs_delayed: m.msgs_delayed.get(),
        }
    }

    /// Monotonic logical-activity clock: ticks on every accepted send and
    /// every completed delivery. Two equal readings with [`Fabric::in_flight`]
    /// at zero between them mean no message moved in the interval — the
    /// quiescence test protocol deadlines use instead of wall time.
    pub fn activity(&self) -> u64 {
        self.0.activity.load(Ordering::Relaxed)
    }

    /// Number of messages currently held by the delivery pump (scheduled,
    /// chaos-delayed or bandwidth-delayed, not yet handed to a mailbox).
    pub fn in_flight(&self) -> usize {
        self.0.pump.scheduled.load(Ordering::Relaxed)
    }
}

impl Drop for FabricCore {
    fn drop(&mut self) {
        {
            let mut st = self.pump.state.lock();
            st.shutdown = true;
        }
        self.pump.cv.notify_all();
        if let Some(h) = self.pump_thread.lock().take() {
            let _ = h.join();
        }
    }
}

fn pump_loop(pump: Arc<Pump>, core: std::sync::Weak<FabricCore>) {
    loop {
        // Pull the next due message, or sleep until one is due.
        let env = {
            let mut st = pump.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                match st.queue.peek() {
                    None => {
                        pump.cv.wait(&mut st);
                    }
                    Some(next) => {
                        let now = Instant::now();
                        if next.deliver_at <= now {
                            break st.queue.pop().expect("peeked").env;
                        }
                        let at = next.deliver_at;
                        pump.cv.wait_until(&mut st, at);
                    }
                }
            }
        };
        #[cfg(test)]
        pump.gate.pass();
        // Deliver outside the pump lock. Dead destinations drop silently:
        // the failure event already told interested parties. Either way the
        // message leaves the in-flight set, which is an activity tick. The
        // count drops inside the mailbox's push critical section, after the
        // push: until then `in_flight` counts it and a zero-delay send on
        // its pair queues behind it, and a receiver holding it reads the
        // count already lowered.
        if let Some(core) = core.upgrade() {
            let retire = || {
                pump.scheduled.fetch_sub(1, Ordering::Relaxed);
            };
            {
                let map = core.registry.map.read();
                match map.get(&env.dst) {
                    Some(entry) => {
                        let _ = entry.tx.send_then(env, retire);
                    }
                    None => retire(),
                }
            }
            core.activity.fetch_add(1, Ordering::Relaxed);
        } else {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![0xabu8; n])
    }

    /// Make every delivery the pump holds due now, as if its delay had
    /// elapsed: a test holds a message in flight with an hour's delay and
    /// decides itself when it lands, with no wall clock involved.
    fn release_pump(fabric: &Fabric) {
        let pump = &fabric.0.pump;
        let mut st = pump.state.lock();
        let now = Instant::now();
        let held = std::mem::take(&mut st.queue).into_iter();
        st.queue = held.map(|s| Scheduled { deliver_at: now, ..s }).collect();
        drop(st);
        pump.cv.notify_one();
    }

    /// A pause point between the pump's pop and its hand-off. Armed, the
    /// pump parks there holding the message it just popped until the test
    /// releases it: the interleaving is forced, not raced for.
    #[derive(Default)]
    pub(super) struct PumpGate {
        state: Mutex<GateState>,
        cv: Condvar,
    }

    #[derive(Default)]
    struct GateState {
        armed: bool,
        paused: bool,
    }

    impl PumpGate {
        /// The pump's side: park here while armed.
        pub(super) fn pass(&self) {
            let mut st = self.state.lock();
            if !st.armed {
                return;
            }
            st.paused = true;
            self.cv.notify_all();
            while st.armed {
                self.cv.wait(&mut st);
            }
            st.paused = false;
        }

        fn arm(&self) {
            self.state.lock().armed = true;
        }

        /// Wait until the pump has popped a message and parked with it.
        fn await_pause(&self) {
            let mut st = self.state.lock();
            while !st.paused {
                self.cv.wait(&mut st);
            }
        }

        fn release(&self) {
            self.state.lock().armed = false;
            self.cv.notify_all();
        }
    }

    #[test]
    fn in_flight_counts_what_the_pump_holds() {
        let cost = CostModel { inter_node_latency: Duration::from_secs(3600), ..CostModel::zero() };
        let fabric = Fabric::new(cost);
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        assert_eq!(fabric.in_flight(), 0);
        a.send(b.id(), payload(1)).unwrap();
        assert_eq!(fabric.in_flight(), 1);
        release_pump(&fabric);
        assert_eq!(b.recv_timeout(Duration::from_secs(10)).unwrap().len(), 1);
        assert_eq!(fabric.in_flight(), 0);
    }

    #[test]
    fn direct_handoff_on_node() {
        let fabric = Fabric::new(CostModel::zero());
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(0));
        a.send(b.id(), payload(8)).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.src, a.id());
        assert_eq!(env.len(), 8);
        assert_eq!(fabric.stats().msgs_delayed, 0);
    }

    #[test]
    fn delayed_delivery_off_node() {
        let cost = CostModel {
            inter_node_latency: Duration::from_millis(5),
            ..CostModel::zero()
        };
        let fabric = Fabric::new(cost);
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        let t0 = Instant::now();
        a.send(b.id(), payload(1)).unwrap();
        let _ = b.recv().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(fabric.stats().msgs_delayed, 1);
    }

    #[test]
    fn fifo_order_preserved_across_message_sizes() {
        // A big slow message followed by a tiny fast one must not reorder.
        let cost = CostModel {
            inter_node_latency: Duration::from_micros(100),
            inter_node_bandwidth: Some(1_000_000), // 1 MB/s: 100 KB takes 100 ms
            ..CostModel::zero()
        };
        let fabric = Fabric::new(cost);
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        a.send(b.id(), payload(100_000)).unwrap();
        a.send(b.id(), payload(1)).unwrap();
        let first = b.recv().unwrap();
        let second = b.recv().unwrap();
        assert_eq!(first.len(), 100_000);
        assert_eq!(second.len(), 1);
    }

    #[test]
    fn kill_disconnects_receiver_and_fails_senders() {
        let fabric = Fabric::new(CostModel::zero());
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(0));
        let mut watcher = fabric.watch_failures();
        fabric.kill(b.id());
        assert!(!fabric.is_alive(b.id()));
        assert!(fabric.was_killed(b.id()));
        assert_eq!(
            a.send(b.id(), payload(1)),
            Err(SendError::PeerDead(b.id()))
        );
        assert_eq!(b.recv(), Err(crate::endpoint::RecvError::Disconnected));
        let ev = watcher.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(ev.endpoint, b.id());
    }

    #[test]
    fn kill_is_idempotent() {
        let fabric = Fabric::new(CostModel::zero());
        let b = fabric.register(NodeId(0));
        fabric.kill(b.id());
        fabric.kill(b.id());
        assert!(fabric.was_killed(b.id()));
    }

    #[test]
    fn queued_messages_drain_before_disconnect() {
        let fabric = Fabric::new(CostModel::zero());
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(0));
        a.send(b.id(), payload(3)).unwrap();
        fabric.kill(b.id());
        // The already-delivered message is still readable.
        assert_eq!(b.recv().unwrap().len(), 3);
        assert_eq!(b.recv(), Err(crate::endpoint::RecvError::Disconnected));
    }

    #[test]
    fn many_endpoints_many_messages() {
        let fabric = Fabric::new(CostModel::zero());
        let eps: Vec<_> = (0..16).map(|i| fabric.register(NodeId(i % 4))).collect();
        // Everyone sends to endpoint 0 (same node => still direct since zero model).
        for ep in &eps[1..] {
            for _ in 0..10 {
                ep.send(eps[0].id(), payload(4)).unwrap();
            }
        }
        let mut got = 0;
        while got < 150 {
            eps[0].recv_timeout(Duration::from_secs(1)).unwrap();
            got += 1;
        }
        assert_eq!(fabric.stats().msgs_sent, 150);
        assert_eq!(fabric.stats().bytes_sent, 600);
    }

    #[test]
    fn obs_splits_on_node_and_inter_node_traffic() {
        let fabric = Fabric::new(CostModel::zero());
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(0));
        let c = fabric.register(NodeId(1));
        a.send(b.id(), payload(10)).unwrap();
        a.send(c.id(), payload(7)).unwrap();
        a.send(c.id(), payload(7)).unwrap();
        let obs = fabric.obs();
        assert_eq!(obs.counter_value("fabric", "fabric", "msgs_on_node"), 1);
        assert_eq!(obs.counter_value("fabric", "fabric", "bytes_on_node"), 10);
        assert_eq!(obs.counter_value("fabric", "fabric", "msgs_inter_node"), 2);
        assert_eq!(obs.counter_value("fabric", "fabric", "bytes_inter_node"), 14);
        // Legacy aggregate view stays consistent.
        assert_eq!(fabric.stats().msgs_sent, 3);
        assert_eq!(fabric.stats().bytes_sent, 24);
    }

    #[test]
    fn gather_send_is_charged_and_counted_as_head_plus_body() {
        // 1 MB/s: a 9 + 65 536 byte gather serializes in 65.545 ms, exactly
        // what one 65 545-byte frame would — the body is not free.
        let cost = CostModel { inter_node_bandwidth: Some(1_000_000), ..CostModel::zero() };
        let fabric = Fabric::new(cost);
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        let body = payload(65_536);
        a.send_parts(b.id(), payload(9), body.clone(), None).unwrap();
        let obs = fabric.obs();
        assert_eq!(obs.counter_value("fabric", "fabric", "bytes_inter_node"), 65_545);
        assert_eq!(obs.counter_value("fabric", "fabric", "delay_ns_total"), 65_545_000);
        assert_eq!(fabric.stats().bytes_sent, 65_545);
        let env = b.recv().unwrap();
        assert_eq!((env.payload.len(), env.body.len(), env.len()), (9, 65_536, 65_545));
        assert_eq!(env.body.as_ptr(), body.as_ptr(), "the body crossed the pump by handle");
        // The body-less spelling delivers an empty body.
        a.sender().send(b.id(), payload(3)).unwrap();
        let env = b.recv().unwrap();
        assert_eq!((env.payload.len(), env.body.len()), (3, 0));
    }

    #[test]
    fn obs_accumulates_injected_delay() {
        let cost = CostModel {
            inter_node_latency: Duration::from_millis(2),
            ..CostModel::zero()
        };
        let fabric = Fabric::new(cost);
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        a.send(b.id(), payload(1)).unwrap();
        let _ = b.recv().unwrap();
        let obs = fabric.obs();
        assert_eq!(obs.counter_value("fabric", "fabric", "msgs_delayed"), 1);
        assert_eq!(obs.counter_value("fabric", "fabric", "delay_ns_total"), 2_000_000);
    }

    #[test]
    fn sender_context_piggybacks_on_envelopes() {
        let fabric = Fabric::new(CostModel::zero());
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(0));
        // No current span: nothing attached.
        a.send(b.id(), payload(1)).unwrap();
        assert!(b.recv().unwrap().ctx.is_none());
        // An entered span rides along automatically.
        let span = fabric.obs().span("p0", "op", "");
        let g = span.enter();
        a.send(b.id(), payload(1)).unwrap();
        drop(g);
        let env = b.recv().unwrap();
        assert_eq!(env.ctx.expect("context piggybacked").span, span.id());
        // An explicit context overrides the thread-current one.
        a.send_ctx(b.id(), payload(1), None).unwrap();
        assert!(b.recv().unwrap().ctx.is_none());
    }

    #[test]
    fn stats_count_bytes() {
        let fabric = Fabric::new(CostModel::zero());
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(0));
        a.send(b.id(), payload(123)).unwrap();
        assert_eq!(fabric.stats().bytes_sent, 123);
    }

    #[test]
    fn fabric_drop_terminates_pump() {
        let fabric = Fabric::new(CostModel::default());
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        a.send(b.id(), payload(1)).unwrap();
        let _ = b.recv_timeout(Duration::from_secs(2)).unwrap();
        drop(a);
        drop(b);
        drop(fabric); // must not hang
    }

    #[test]
    fn send_to_unregistered_endpoint_fails() {
        let fabric = Fabric::new(CostModel::zero());
        let a = fabric.register(NodeId(0));
        assert!(a.send(EndpointId(9999), payload(1)).is_err());
    }

    mod fault_hooks {
        use super::*;
        use crate::inject::{FaultAction, FaultHook, FaultVerdict, MsgView};

        /// Applies one fixed action to every message and records the views
        /// it was shown.
        struct FixedHook {
            action: FaultAction,
            kills: Mutex<Vec<EndpointId>>,
            seen: Mutex<Vec<MsgView>>,
        }

        impl FixedHook {
            fn new(action: FaultAction) -> Arc<Self> {
                Arc::new(Self {
                    action,
                    kills: Mutex::new(Vec::new()),
                    seen: Mutex::new(Vec::new()),
                })
            }
        }

        impl FaultHook for FixedHook {
            fn on_message(&self, msg: &MsgView) -> FaultVerdict {
                self.seen.lock().push(*msg);
                FaultVerdict { action: self.action, kills: self.kills.lock().drain(..).collect() }
            }
        }

        #[test]
        fn drop_verdict_loses_message_silently() {
            let fabric = Fabric::new(CostModel::zero());
            let a = fabric.register(NodeId(0));
            let b = fabric.register(NodeId(0));
            fabric.set_fault_hook(Some(FixedHook::new(FaultAction::Drop)));
            // The sender sees success — the loss is in flight.
            a.send(b.id(), payload(5)).unwrap();
            assert!(b.try_recv().is_err());
            assert_eq!(fabric.obs().counter_value("fabric", "fabric", "faults_dropped"), 1);
            fabric.set_fault_hook(None);
            a.send(b.id(), payload(5)).unwrap();
            assert_eq!(b.recv().unwrap().len(), 5);
        }

        #[test]
        fn delay_verdict_defers_delivery() {
            let fabric = Fabric::new(CostModel::zero());
            let a = fabric.register(NodeId(0));
            let b = fabric.register(NodeId(0));
            fabric.set_fault_hook(Some(FixedHook::new(FaultAction::Delay(
                Duration::from_millis(20),
            ))));
            let t0 = Instant::now();
            a.send(b.id(), payload(1)).unwrap();
            let _ = b.recv().unwrap();
            assert!(t0.elapsed() >= Duration::from_millis(20));
            assert_eq!(fabric.obs().counter_value("fabric", "fabric", "faults_delayed"), 1);
        }

        #[test]
        fn duplicate_verdict_delivers_twice_in_order() {
            let fabric = Fabric::new(CostModel::zero());
            let a = fabric.register(NodeId(0));
            let b = fabric.register(NodeId(0));
            fabric.set_fault_hook(Some(FixedHook::new(FaultAction::Duplicate)));
            a.send(b.id(), payload(9)).unwrap();
            assert_eq!(b.recv().unwrap().len(), 9);
            assert_eq!(b.recv().unwrap().len(), 9);
            assert_eq!(fabric.obs().counter_value("fabric", "fabric", "faults_duplicated"), 1);
        }

        #[test]
        fn duplicate_verdict_aliases_one_body_and_hook_sees_the_gather_length() {
            let fabric = Fabric::new(CostModel::zero());
            let a = fabric.register(NodeId(0));
            let b = fabric.register(NodeId(1));
            let hook = FixedHook::new(FaultAction::Duplicate);
            fabric.set_fault_hook(Some(hook.clone()));
            let body = payload(65_536);
            a.send_parts(b.id(), payload(9), body.clone(), None).unwrap();
            assert_eq!(hook.seen.lock()[0].len, 65_545);
            let (first, second) = (b.recv().unwrap(), b.recv().unwrap());
            assert_eq!(first, second);
            assert_eq!(first.body.as_ptr(), body.as_ptr());
            assert_eq!(second.body.as_ptr(), body.as_ptr(), "a duplicate copies no payload");
            // Accepted once: the duplicate is a fault, not traffic.
            let bytes = fabric.obs().counter_value("fabric", "fabric", "bytes_inter_node");
            assert_eq!(bytes, 65_545);
        }

        #[test]
        fn kill_verdict_claims_the_triggering_message() {
            let fabric = Fabric::new(CostModel::zero());
            let a = fabric.register(NodeId(0));
            let b = fabric.register(NodeId(0));
            let hook = FixedHook::new(FaultAction::Deliver);
            hook.kills.lock().push(b.id());
            fabric.set_fault_hook(Some(hook));
            let mut w = fabric.watch_failures();
            // The hook kills b while this very message is in flight: the
            // sender gets PeerDead and watchers are notified.
            assert_eq!(a.send(b.id(), payload(1)), Err(SendError::PeerDead(b.id())));
            assert!(!fabric.is_alive(b.id()));
            assert_eq!(w.recv_timeout(Duration::from_secs(1)).unwrap().endpoint, b.id());
            // Classified by the nodes seen before the kill: the message was
            // accepted as on-node traffic, not moved to inter-node.
            let count = |name| fabric.obs().counter_value("fabric", "fabric", name);
            assert_eq!((count("msgs_on_node"), count("bytes_on_node")), (1, 1));
            assert_eq!((count("msgs_inter_node"), count("bytes_inter_node")), (0, 0));
        }

        /// Delays the first message to `dst` by `by`, delivers the rest.
        struct DelayFirst {
            dst: EndpointId,
            by: Duration,
        }

        impl FaultHook for DelayFirst {
            fn on_message(&self, msg: &MsgView) -> FaultVerdict {
                let first = msg.dst == self.dst && msg.pair_seq == 0;
                let action = if first { FaultAction::Delay(self.by) } else { FaultAction::Deliver };
                FaultVerdict { action, kills: Vec::new() }
            }
        }

        #[test]
        fn zero_delay_messages_queue_behind_their_pairs_delayed_one() {
            let fabric = Fabric::new(CostModel::zero());
            let a = fabric.register(NodeId(0));
            let b = fabric.register(NodeId(0));
            let c = fabric.register(NodeId(0));
            let hour = Duration::from_secs(3600);
            fabric.set_fault_hook(Some(Arc::new(DelayFirst { dst: b.id(), by: hour })));
            for tag in 0u8..4 {
                a.send(b.id(), Bytes::from(vec![tag])).unwrap();
            }
            // Messages 1..3 have zero delay but follow the held message 0.
            assert_eq!(b.try_recv(), Err(crate::endpoint::RecvError::Empty));
            assert_eq!((fabric.in_flight(), fabric.stats().msgs_delayed), (4, 4));
            // Another pair is not held back: handed off before send returns.
            a.send(c.id(), payload(2)).unwrap();
            assert_eq!(c.try_recv().unwrap().len(), 2);
            assert_eq!(fabric.in_flight(), 4);
            release_pump(&fabric);
            for tag in 0u8..4 {
                let env = b.recv_timeout(Duration::from_secs(10)).unwrap();
                assert_eq!(env.payload[..], [tag], "a zero-delay message overtook");
            }
            assert_eq!(fabric.in_flight(), 0);
        }

        /// The window between the pump's pop and its hand-off: the popped
        /// message still counts as in flight, and a zero-delay send on its
        /// pair queues behind it instead of overtaking it.
        #[test]
        fn a_popped_message_is_in_flight_until_its_hand_off() {
            let fabric = Fabric::new(CostModel::zero());
            let a = fabric.register(NodeId(0));
            let b = fabric.register(NodeId(0));
            let hour = Duration::from_secs(3600);
            fabric.set_fault_hook(Some(Arc::new(DelayFirst { dst: b.id(), by: hour })));
            a.send(b.id(), Bytes::from(vec![0u8])).unwrap();
            let gate = &fabric.0.pump.gate;
            gate.arm();
            release_pump(&fabric);
            gate.await_pause();
            let held = fabric.in_flight();
            a.send(b.id(), Bytes::from(vec![1u8])).unwrap();
            let overtaker = b.try_recv();
            gate.release();
            release_pump(&fabric);
            assert_eq!(held, 1, "popped but not handed off: still in flight");
            assert_eq!(overtaker, Err(crate::endpoint::RecvError::Empty), "message 1 overtook");
            for tag in 0u8..2 {
                let env = b.recv_timeout(Duration::from_secs(10)).unwrap();
                assert_eq!(env.payload[..], [tag], "a zero-delay message overtook");
            }
            assert_eq!(fabric.in_flight(), 0);
        }

        #[test]
        fn fault_verdicts_annotate_the_senders_current_span() {
            let fabric = Fabric::new(CostModel::zero());
            let a = fabric.register(NodeId(0));
            let b = fabric.register(NodeId(0));
            fabric.set_fault_hook(Some(FixedHook::new(FaultAction::Drop)));
            let span = fabric.obs().span("p0", "fence", "0");
            let g = span.enter();
            a.send(b.id(), payload(1)).unwrap();
            drop(g);
            span.end();
            fabric.set_fault_hook(None);
            let spans = fabric.obs().spans_snapshot();
            let rec = spans.iter().find(|s| s.name == "fence").unwrap();
            assert_eq!(rec.faults, vec!["fault:drop".to_string()]);
        }

        #[test]
        fn hook_sees_normalized_ids_and_pair_seq() {
            let fabric = Fabric::new(CostModel::zero());
            let a = fabric.register(NodeId(0));
            let b = fabric.register(NodeId(1));
            let hook = FixedHook::new(FaultAction::Deliver);
            fabric.set_fault_hook(Some(hook.clone()));
            a.send(b.id(), payload(1)).unwrap();
            a.send(b.id(), payload(2)).unwrap();
            b.send(a.id(), payload(3)).unwrap();
            let seen = hook.seen.lock();
            assert_eq!(seen.len(), 3);
            // a was registered first: rel ids are offsets from a. The id
            // counter is process-global, so b need not follow a directly.
            assert_eq!(seen[0].rel_src, 0);
            assert_eq!(seen[0].rel_dst, b.id().0 - a.id().0);
            assert_eq!(seen[0].pair_seq, 0);
            assert_eq!(seen[1].pair_seq, 1);
            // The reverse direction is a distinct pair with its own counter.
            assert_eq!(seen[2].pair_seq, 0);
            assert_eq!(seen[2].src_node, Some(NodeId(1)));
            assert_eq!(fabric.base_endpoint_id(), a.id().0);
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// Per-(src,dst) FIFO holds for any interleaving of message sizes,
        /// even when bandwidth delays differ per message.
        #[test]
        fn prop_fifo_order_any_sizes(sizes in proptest::collection::vec(0usize..40_000, 1..20)) {
            let cost = CostModel {
                inter_node_latency: Duration::from_micros(200),
                inter_node_bandwidth: Some(50_000_000), // 50 MB/s: size matters
                ..CostModel::zero()
            };
            let fabric = Fabric::new(cost);
            let a = fabric.register(NodeId(0));
            let b = fabric.register(NodeId(1));
            for (i, &len) in sizes.iter().enumerate() {
                let mut payload = vec![0u8; len.max(4)];
                payload[..4].copy_from_slice(&(i as u32).to_le_bytes());
                a.send(b.id(), Bytes::from(payload)).unwrap();
            }
            for i in 0..sizes.len() {
                let env = b.recv_timeout(Duration::from_secs(10)).expect("delivered");
                let tag = u32::from_le_bytes(env.payload[..4].try_into().unwrap());
                prop_assert_eq!(tag as usize, i, "message overtook a predecessor");
            }
        }

        /// Every sent message is delivered exactly once when the receiver
        /// outlives the senders (no loss, no duplication).
        #[test]
        fn prop_exactly_once_delivery(counts in proptest::collection::vec(1usize..12, 1..6)) {
            let fabric = Fabric::new(CostModel {
                inter_node_latency: Duration::from_micros(100),
                ..CostModel::zero()
            });
            let dst = fabric.register(NodeId(0));
            let total: usize = counts.iter().sum();
            let mut senders = Vec::new();
            for (s, &n) in counts.iter().enumerate() {
                let ep = fabric.register(NodeId(1 + s as u32));
                for k in 0..n {
                    let mut payload = vec![0u8; 8];
                    payload[..4].copy_from_slice(&(s as u32).to_le_bytes());
                    payload[4..].copy_from_slice(&(k as u32).to_le_bytes());
                    ep.send(dst.id(), Bytes::from(payload)).unwrap();
                }
                senders.push(ep);
            }
            let mut seen = std::collections::HashSet::new();
            for _ in 0..total {
                let env = dst.recv_timeout(Duration::from_secs(10)).expect("delivered");
                prop_assert!(seen.insert(env.payload.to_vec()), "duplicate delivery");
            }
            prop_assert!(dst.try_recv().is_err(), "spurious extra message");
        }
    }
}
