//! Namespace (job) registry: the resource manager's view of which processes
//! exist, where they live, and which process sets have been defined.
//!
//! In real PMIx this data is registered with each server by the RTE
//! (`PMIx_server_register_nspace`). Here a single shared registry plays the
//! role of that replicated job data: it is written only at launch / pset
//! definition time and read concurrently by every server and client.

use crate::error::{PmixError, Result};
use crate::types::{ProcId, Rank};
use parking_lot::{Mutex, RwLock};
use simnet::{EndpointId, NodeId};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Tombstone count beyond which a deletion triggers an automatic reap of
/// every tombstone below the GC watermark. Small enough that a soak run's
/// tombstone footprint stays bounded, large enough that short-lived tests
/// (and their replay assertions) never see an implicit reap.
pub const GC_TOMBSTONE_THRESHOLD: usize = 32;

/// Location and wiring of one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcEntry {
    /// The process id.
    pub proc: ProcId,
    /// Node the process runs on.
    pub node: NodeId,
    /// Fabric endpoint of the process itself (its MPI mailbox).
    pub endpoint: EndpointId,
}

/// Static per-namespace information (job map).
#[derive(Debug, Clone, Default)]
pub struct NamespaceInfo {
    procs: Vec<ProcEntry>,
}

impl NamespaceInfo {
    /// Number of processes in the namespace.
    pub fn size(&self) -> usize {
        self.procs.len()
    }

    /// Entry for `rank`, if registered.
    pub fn proc(&self, rank: Rank) -> Option<&ProcEntry> {
        self.procs.iter().find(|p| p.proc.rank() == rank)
    }

    /// All entries, rank-ordered.
    pub fn procs(&self) -> &[ProcEntry] {
        &self.procs
    }

    /// Ranks co-located on `node`.
    pub fn local_peers(&self, node: NodeId) -> Vec<Rank> {
        self.procs
            .iter()
            .filter(|p| p.node == node)
            .map(|p| p.proc.rank())
            .collect()
    }
}

/// One versioned process-set entry. Membership is copy-on-write: readers
/// clone the `Arc`, mutations install a fresh vector, so a group resolved
/// at epoch E keeps observing exactly the members of epoch E.
#[derive(Debug, Clone)]
pub struct PsetEntry {
    /// Global registry epoch at which this entry last changed.
    pub epoch: u64,
    /// Membership at that epoch (rank-sorted at definition time).
    pub members: Arc<Vec<ProcId>>,
    /// Tombstone: the pset was deleted at `epoch`. Kept so late
    /// subscribers can be told about the deletion during replay.
    pub deleted: bool,
}

/// What kind of change a [`PsetChange`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsetChangeKind {
    /// The pset came into existence (or was re-defined from scratch).
    Defined,
    /// An existing pset's membership grew or shrank.
    Membership,
    /// The pset was deleted.
    Deleted,
}

/// A single versioned change to the pset table, as handed to listeners
/// and replayed to late subscribers.
#[derive(Clone)]
pub struct PsetChange {
    /// Name of the pset that changed.
    pub name: String,
    /// Global epoch stamped on the change (strictly increasing across
    /// all changes, hence also per pset).
    pub epoch: u64,
    /// What happened.
    pub kind: PsetChangeKind,
    /// Membership after the change (empty for deletions).
    pub members: Arc<Vec<ProcId>>,
    /// Causal context of the mutation (runtime grow/shrink span), kept
    /// for local delivery so `pset.update → session.rebuild` chains link.
    pub ctx: Option<obs::TraceContext>,
}

/// A self-consistent read of the whole pset table: every answer derived
/// from one snapshot agrees with every other (satisfying the query
/// contract that a name reported by `PSET_NAMES` must resolve).
#[derive(Debug, Clone)]
pub struct PsetSnapshot {
    /// Global registry epoch when the snapshot was taken.
    pub epoch: u64,
    entries: BTreeMap<String, (u64, Arc<Vec<ProcId>>)>,
}

impl PsetSnapshot {
    /// Number of live psets in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no psets were defined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorted names of live psets.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Membership of `name` with the pset's own epoch, resolved against
    /// this snapshot (never the live table).
    pub fn members(&self, name: &str) -> Option<(u64, Arc<Vec<ProcId>>)> {
        self.entries.get(name).map(|(e, m)| (*e, m.clone()))
    }
}

/// Callback invoked (under the emission lock) on every pset change.
pub type PsetListener = Box<dyn Fn(&PsetChange) + Send + Sync>;

#[derive(Default)]
struct RegistryState {
    namespaces: HashMap<String, NamespaceInfo>,
    psets: BTreeMap<String, PsetEntry>,
    /// Monotonic epoch shared by all psets; bumped on every change.
    pset_epoch: u64,
    servers: BTreeMap<NodeId, EndpointId>,
    rm: Option<EndpointId>,
}

/// Observability handles for the registry's lifecycle state, resolved once
/// by [`NamespaceRegistry::attach_obs`]. The gauges carry high-water marks,
/// so a soak run can audit the registry's peak footprint after the fact.
struct RegistryMetrics {
    live: obs::Gauge,
    tombstoned: obs::Gauge,
    gced: obs::Counter,
}

/// A pinned registry epoch: while alive, tombstones at or above the pinned
/// epoch survive garbage collection. Dropping the pin releases it.
///
/// Pins implement the GC watermark rule: the safe watermark is the minimum
/// pinned epoch across live watchers — a watcher still processing history
/// at epoch E must be able to observe every deletion from E onward, so only
/// tombstones strictly below the watermark are reapable.
pub struct EpochPin {
    epoch: u64,
    pins: Arc<Mutex<BTreeMap<u64, usize>>>,
}

impl EpochPin {
    /// The epoch this pin holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        let mut pins = self.pins.lock();
        if let Some(n) = pins.get_mut(&self.epoch) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&self.epoch);
            }
        }
    }
}

/// Shared registry of namespaces, process sets and server endpoints.
///
/// Pset mutations are serialized by an *emission lock* held across both
/// the table write and the synchronous listener calls: changes reach
/// listeners in strict epoch order, and a subscriber registered under the
/// same lock (see replay) observes each change exactly once — either via
/// replay or live delivery, never both, never neither.
///
/// Deleted psets leave tombstones so late subscribers learn about the
/// deletion during replay. Tombstones are garbage-collected below the
/// epoch watermark (minimum pinned epoch across live [`EpochPin`]s):
/// automatically once more than [`GC_TOMBSTONE_THRESHOLD`] accumulate, or
/// explicitly via [`NamespaceRegistry::gc_tombstones`]. GC can be disabled
/// wholesale (the `registry.gc_enabled` cvar) — the leak the soak
/// harness then observes is exactly what the GC exists to prevent.
#[derive(Clone, Default)]
pub struct NamespaceRegistry {
    state: Arc<RwLock<RegistryState>>,
    emit: Arc<Mutex<()>>,
    listeners: Arc<RwLock<Vec<PsetListener>>>,
    /// Pinned epoch → pin count. The smallest key is the GC watermark.
    pins: Arc<Mutex<BTreeMap<u64, usize>>>,
    /// Inverted so the derived `Default` (false) means "GC on".
    gc_disabled: Arc<AtomicBool>,
    metrics: Arc<RwLock<Option<RegistryMetrics>>>,
}

impl NamespaceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the PMIx server responsible for `node`.
    pub fn register_server(&self, node: NodeId, endpoint: EndpointId) {
        self.state.write().servers.insert(node, endpoint);
    }

    /// Endpoint of the server managing `node`.
    pub fn server_of(&self, node: NodeId) -> Option<EndpointId> {
        self.state.read().servers.get(&node).copied()
    }

    /// All registered server endpoints, node-ordered.
    pub fn servers(&self) -> Vec<(NodeId, EndpointId)> {
        self.state.read().servers.iter().map(|(n, e)| (*n, *e)).collect()
    }

    /// The lowest-node compute server.
    pub fn lead_server(&self) -> Option<EndpointId> {
        self.state.read().servers.values().next().copied()
    }

    /// Register the resource-manager service endpoint (the head-node
    /// daemon that allocates PGCIDs).
    pub fn register_rm(&self, endpoint: EndpointId) {
        self.state.write().rm = Some(endpoint);
    }

    /// The resource-manager endpoint. PGCID allocation always crosses the
    /// fabric to reach it — the "internode messaging between PMIx servers"
    /// the paper identifies as the expensive part of PGCID acquisition.
    pub fn rm_endpoint(&self) -> Option<EndpointId> {
        let st = self.state.read();
        st.rm.or_else(|| st.servers.values().next().copied())
    }

    /// Register (or extend) a namespace with process entries.
    pub fn register_namespace(&self, nspace: &str, procs: Vec<ProcEntry>) {
        let mut st = self.state.write();
        let info = st.namespaces.entry(nspace.to_owned()).or_default();
        info.procs.extend(procs);
        info.procs.sort_by_key(|p| p.proc.rank());
    }

    /// Remove a namespace entirely (job teardown).
    pub fn deregister_namespace(&self, nspace: &str) {
        self.state.write().namespaces.remove(nspace);
    }

    /// Look up a namespace.
    pub fn namespace(&self, nspace: &str) -> Result<NamespaceInfo> {
        self.state
            .read()
            .namespaces
            .get(nspace)
            .cloned()
            .ok_or_else(|| PmixError::NotFound(format!("namespace {nspace}")))
    }

    /// Locate one process.
    pub fn locate(&self, proc: &ProcId) -> Result<ProcEntry> {
        let st = self.state.read();
        st.namespaces
            .get(proc.nspace())
            .and_then(|info| info.proc(proc.rank()).cloned())
            .ok_or_else(|| PmixError::NotFound(format!("process {proc}")))
    }

    /// Reverse lookup: which process owns `endpoint`?
    pub fn find_by_endpoint(&self, endpoint: EndpointId) -> Option<ProcId> {
        let st = self.state.read();
        for info in st.namespaces.values() {
            for p in &info.procs {
                if p.endpoint == endpoint {
                    return Some(p.proc.clone());
                }
            }
        }
        None
    }

    /// Register a listener invoked synchronously, under the emission lock,
    /// for every subsequent pset change.
    pub fn add_pset_listener(&self, l: PsetListener) {
        let _emit = self.emit.lock();
        self.listeners.write().push(l);
    }

    fn emit_change(&self, change: PsetChange) {
        for l in self.listeners.read().iter() {
            l(&change);
        }
    }

    /// Wire the registry's lifecycle gauges (`registry/pmix/psets_live`,
    /// `psets_tombstoned`) and GC counter (`psets_gced`) into `obs`.
    /// Called once at universe boot; a registry without an attached obs
    /// simply skips gauge upkeep.
    pub fn attach_obs(&self, obs: &Arc<obs::Registry>) {
        *self.metrics.write() = Some(RegistryMetrics {
            live: obs.gauge("registry", "pmix", "psets_live"),
            tombstoned: obs.gauge("registry", "pmix", "psets_tombstoned"),
            gced: obs.counter("registry", "pmix", "psets_gced"),
        });
        self.refresh_gauges();
    }

    /// Re-derive the live/tombstone gauges from the table. O(psets), called
    /// only on define/delete/GC — never on the membership hot path.
    fn refresh_gauges(&self) {
        let metrics = self.metrics.read();
        let Some(m) = metrics.as_ref() else { return };
        let (live, tomb) = {
            let st = self.state.read();
            let tomb = st.psets.values().filter(|e| e.deleted).count();
            (st.psets.len() - tomb, tomb)
        };
        m.live.set(live as i64);
        m.tombstoned.set(tomb as i64);
    }

    /// Enable or disable tombstone garbage collection (enabled by default).
    /// Disabling is a debug/soak knob: tombstones then accumulate without
    /// bound, which the soak harness surfaces as a leak-freedom failure.
    /// Written through the `registry.gc_enabled` cvar.
    pub(crate) fn set_gc_enabled(&self, on: bool) {
        self.gc_disabled.store(!on, Ordering::Relaxed);
    }

    /// Whether tombstone GC is currently enabled.
    pub fn gc_enabled(&self) -> bool {
        !self.gc_disabled.load(Ordering::Relaxed)
    }

    /// Pin the current epoch: tombstones at or above it survive GC until
    /// the returned pin is dropped.
    pub fn pin_current_epoch(&self) -> EpochPin {
        let mut pins = self.pins.lock();
        let epoch = self.state.read().pset_epoch;
        *pins.entry(epoch).or_insert(0) += 1;
        EpochPin { epoch, pins: self.pins.clone() }
    }

    /// The GC watermark: the minimum pinned epoch across live pins, or
    /// `u64::MAX` when nothing is pinned (every tombstone is reapable).
    pub fn gc_watermark(&self) -> u64 {
        self.pins.lock().keys().next().copied().unwrap_or(u64::MAX)
    }

    /// Live epoch pins as `(epoch, holders)`, sorted by epoch (the
    /// introspection flight recorder's `pins` section).
    pub fn active_pins(&self) -> Vec<(u64, usize)> {
        self.pins.lock().iter().map(|(e, n)| (*e, *n)).collect()
    }

    /// Number of tombstoned psets currently retained.
    pub fn num_tombstones(&self) -> usize {
        self.state.read().psets.values().filter(|e| e.deleted).count()
    }

    /// Reap every tombstone strictly below the watermark. Returns the
    /// number reaped (0 when GC is disabled).
    pub fn gc_tombstones(&self) -> usize {
        let _emit = self.emit.lock();
        self.gc_locked()
    }

    /// GC body; caller must hold the emission lock (reaping must not
    /// interleave with a replay that still expects the tombstones).
    fn gc_locked(&self) -> usize {
        if self.gc_disabled.load(Ordering::Relaxed) {
            return 0;
        }
        let watermark = self.gc_watermark();
        let reaped = {
            let mut st = self.state.write();
            let before = st.psets.len();
            st.psets.retain(|_, e| !e.deleted || e.epoch >= watermark);
            before - st.psets.len()
        };
        if reaped > 0 {
            if let Some(m) = self.metrics.read().as_ref() {
                m.gced.add(reaped as u64);
            }
            self.refresh_gauges();
        }
        reaped
    }

    /// Auto-GC trigger (caller holds the emission lock): reap once the
    /// tombstone count exceeds [`GC_TOMBSTONE_THRESHOLD`].
    fn maybe_gc_locked(&self) {
        if self.gc_disabled.load(Ordering::Relaxed) {
            return;
        }
        let tombs = self.state.read().psets.values().filter(|e| e.deleted).count();
        if tombs > GC_TOMBSTONE_THRESHOLD {
            self.gc_locked();
        }
    }

    /// Define (or redefine) a process set.
    ///
    /// Process sets are *names for lists of processes* (paper §III-B6);
    /// the RTE defines them at launch (`prun --pset ...`) and — since the
    /// registry became versioned — at runtime as jobs grow.
    pub fn define_pset(&self, name: &str, members: Vec<ProcId>) {
        self.define_pset_ctx(name, members, None);
    }

    /// [`NamespaceRegistry::define_pset`] with an explicit causal context.
    pub fn define_pset_ctx(
        &self,
        name: &str,
        members: Vec<ProcId>,
        ctx: Option<obs::TraceContext>,
    ) {
        let _emit = self.emit.lock();
        self.define_locked(name, members, ctx);
    }

    /// Define `name` with `members` unless a live pset of that name exists
    /// — the check and the define are one step under the emission lock, so
    /// of any number of racing callers exactly one defines (one `Defined`
    /// change). Returns whether this call defined it.
    pub fn define_pset_if_absent(&self, name: &str, members: Vec<ProcId>) -> bool {
        let _emit = self.emit.lock();
        if self.state.read().psets.get(name).is_some_and(|e| !e.deleted) {
            return false;
        }
        self.define_locked(name, members, None);
        true
    }

    /// The define body; the caller holds the emission lock.
    fn define_locked(&self, name: &str, members: Vec<ProcId>, ctx: Option<obs::TraceContext>) {
        let members = Arc::new(members);
        let epoch = {
            let mut st = self.state.write();
            st.pset_epoch += 1;
            let epoch = st.pset_epoch;
            st.psets.insert(
                name.to_owned(),
                PsetEntry { epoch, members: members.clone(), deleted: false },
            );
            epoch
        };
        self.emit_change(PsetChange {
            name: name.to_owned(),
            epoch,
            kind: PsetChangeKind::Defined,
            members,
            ctx,
        });
        self.refresh_gauges();
    }

    /// Replace the membership of an existing pset (runtime grow/shrink).
    /// Bumps the epoch and emits a `Membership` change. Errors if the pset
    /// was never defined or is deleted.
    pub fn update_pset_membership(
        &self,
        name: &str,
        members: Vec<ProcId>,
        ctx: Option<obs::TraceContext>,
    ) -> Result<u64> {
        let _emit = self.emit.lock();
        let members = Arc::new(members);
        let epoch = {
            let mut st = self.state.write();
            let next = st.pset_epoch + 1;
            let entry = st
                .psets
                .get_mut(name)
                .filter(|e| !e.deleted)
                .ok_or_else(|| PmixError::NotFound(format!("pset {name}")))?;
            entry.epoch = next;
            entry.members = members.clone();
            st.pset_epoch = next;
            next
        };
        self.emit_change(PsetChange {
            name: name.to_owned(),
            epoch,
            kind: PsetChangeKind::Membership,
            members,
            ctx,
        });
        Ok(epoch)
    }

    /// Remove `proc` from every live pset that contains it, emitting one
    /// `Membership` change per affected pset. Returns the affected names.
    /// Used when a process dies or retires: its psets shrink around it.
    pub fn remove_from_psets(
        &self,
        proc: &ProcId,
        ctx: Option<obs::TraceContext>,
    ) -> Vec<String> {
        let _emit = self.emit.lock();
        let mut changes = Vec::new();
        {
            let mut st = self.state.write();
            let names: Vec<String> = st
                .psets
                .iter()
                .filter(|(_, e)| !e.deleted && e.members.contains(proc))
                .map(|(n, _)| n.clone())
                .collect();
            for name in names {
                st.pset_epoch += 1;
                let epoch = st.pset_epoch;
                let entry = st.psets.get_mut(&name).expect("selected above");
                let members: Arc<Vec<ProcId>> =
                    Arc::new(entry.members.iter().filter(|p| *p != proc).cloned().collect());
                entry.epoch = epoch;
                entry.members = members.clone();
                changes.push(PsetChange {
                    name,
                    epoch,
                    kind: PsetChangeKind::Membership,
                    members,
                    ctx,
                });
            }
        }
        let affected = changes.iter().map(|c| c.name.clone()).collect();
        for c in changes {
            self.emit_change(c);
        }
        affected
    }

    /// Remove `proc` from one named pset (if live and containing it),
    /// atomically under the emission lock. Returns the new epoch when a
    /// change was emitted, `None` when there was nothing to do. The
    /// graceful-retire path uses this to prune the survivors pset without
    /// touching app psets (those shrink through their own retire protocol)
    /// and without the read-modify-write race a
    /// [`NamespaceRegistry::pset_members`] +
    /// [`NamespaceRegistry::update_pset_membership`] pair would have
    /// against a concurrent failure-bridge removal.
    pub fn remove_proc_from_pset(&self, name: &str, proc: &ProcId) -> Option<u64> {
        let _emit = self.emit.lock();
        let (epoch, members) = {
            let mut st = self.state.write();
            let entry = st.psets.get(name).filter(|e| !e.deleted && e.members.contains(proc))?;
            let members: Arc<Vec<ProcId>> =
                Arc::new(entry.members.iter().filter(|p| *p != proc).cloned().collect());
            st.pset_epoch += 1;
            let epoch = st.pset_epoch;
            let entry = st.psets.get_mut(name).expect("checked above");
            entry.epoch = epoch;
            entry.members = members.clone();
            (epoch, members)
        };
        self.emit_change(PsetChange {
            name: name.to_owned(),
            epoch,
            kind: PsetChangeKind::Membership,
            members,
            ctx: None,
        });
        Some(epoch)
    }

    /// Remove a process set definition, leaving a tombstone so that late
    /// subscribers learn about the deletion during replay.
    pub fn undefine_pset(&self, name: &str) {
        let _emit = self.emit.lock();
        let epoch = {
            let mut st = self.state.write();
            let next = st.pset_epoch + 1;
            match st.psets.get_mut(name) {
                Some(entry) if !entry.deleted => {
                    entry.epoch = next;
                    entry.deleted = true;
                    entry.members = Arc::new(Vec::new());
                    st.pset_epoch = next;
                    next
                }
                _ => return,
            }
        };
        self.emit_change(PsetChange {
            name: name.to_owned(),
            epoch,
            kind: PsetChangeKind::Deleted,
            members: Arc::new(Vec::new()),
            ctx: None,
        });
        self.refresh_gauges();
        self.maybe_gc_locked();
    }

    /// Remove one process entry from its namespace's job map (graceful
    /// retirement — the inverse of `register_namespace` for one rank).
    pub fn deregister_proc(&self, proc: &ProcId) {
        let mut st = self.state.write();
        if let Some(info) = st.namespaces.get_mut(proc.nspace()) {
            info.procs.retain(|p| p.proc != *proc);
        }
    }

    /// Number of defined (live) process sets.
    pub fn num_psets(&self) -> usize {
        self.state.read().psets.values().filter(|e| !e.deleted).count()
    }

    /// Names of all live process sets, sorted.
    pub fn pset_names(&self) -> Vec<String> {
        let st = self.state.read();
        st.psets.iter().filter(|(_, e)| !e.deleted).map(|(n, _)| n.clone()).collect()
    }

    /// Current global pset-registry epoch.
    pub fn pset_epoch(&self) -> u64 {
        self.state.read().pset_epoch
    }

    /// A self-consistent snapshot of all live psets, taken under a single
    /// lock acquisition. Queries answering count + names + membership must
    /// derive every answer from one snapshot: per-key reads could otherwise
    /// interleave with a concurrent define/undefine and disagree.
    pub fn pset_snapshot(&self) -> PsetSnapshot {
        let st = self.state.read();
        PsetSnapshot {
            epoch: st.pset_epoch,
            entries: st
                .psets
                .iter()
                .filter(|(_, e)| !e.deleted)
                .map(|(n, e)| (n.clone(), (e.epoch, e.members.clone())))
                .collect(),
        }
    }

    /// Membership of one process set (unversioned compatibility accessor).
    pub fn pset_members(&self, name: &str) -> Result<Vec<ProcId>> {
        self.pset_members_versioned(name).map(|(_, m)| m.as_ref().clone())
    }

    /// Membership of one process set together with the pset's epoch.
    pub fn pset_members_versioned(&self, name: &str) -> Result<(u64, Arc<Vec<ProcId>>)> {
        self.state
            .read()
            .psets
            .get(name)
            .filter(|e| !e.deleted)
            .map(|e| (e.epoch, e.members.clone()))
            .ok_or_else(|| PmixError::NotFound(format!("pset {name}")))
    }

    /// Run `f` under the emission lock with the changes needed to bring a
    /// brand-new subscriber up to date: one synthetic `Defined` per live
    /// pset and one `Deleted` per *retained* tombstone, ordered by epoch.
    /// While `f` runs no live change can be emitted, so registering the
    /// subscriber inside `f` yields exactly-once delivery (replay XOR
    /// live).
    ///
    /// Replay is a **current-state snapshot**, not a history dump: GC reaps
    /// tombstones below the epoch watermark, so a subscriber arriving after
    /// arbitrary churn receives the live table plus at most the
    /// still-pinned (or sub-threshold) tombstones — never one event per
    /// deletion that ever happened.
    pub fn with_pset_replay<R>(&self, f: impl FnOnce(&[PsetChange]) -> R) -> R {
        let _emit = self.emit.lock();
        let mut replay: Vec<PsetChange> = {
            let st = self.state.read();
            st.psets
                .iter()
                .map(|(name, e)| PsetChange {
                    name: name.clone(),
                    epoch: e.epoch,
                    kind: if e.deleted {
                        PsetChangeKind::Deleted
                    } else {
                        PsetChangeKind::Defined
                    },
                    members: e.members.clone(),
                    ctx: None,
                })
                .collect()
        };
        replay.sort_by_key(|c| c.epoch);
        f(&replay)
    }
}

#[cfg(test)]
mod tests;
