//! The per-process MPI instance and the subsystem lifecycle framework.
//!
//! Paper §III-B5: instead of initializing the whole library in
//! `MPI_Init` and tearing it down in a carefully ordered `MPI_Finalize`,
//! the prototype reference-counts each subsystem. Creating an MPI object
//! initializes (or re-references) the subsystems it needs; each newly
//! initialized subsystem registers a **cleanup callback**; when the last
//! session is finalized the callbacks run in reverse order and the cycle
//! may start again (`MPI_Session_init` after full finalization works).
//!
//! [`MpiProcess`] is the Rust analog of the per-OS-process ambient state a
//! real MPI library keeps: one exists per simulated process (keyed by its
//! fabric endpoint), holding the PML, the communicator-table allocator and
//! the subsystem table. Everything session-visible hangs off sessions.

use crate::cid::CidTable;
use crate::error::{ErrClass, MpiError, Result};
use crate::pml::Pml;
use crate::request::{LazyResolveStage, ProgressEngine, SetupRequest};
use parking_lot::Mutex;
use pmix::{PmixClient, PmixUniverse, ProcId};
use prrte::ProcCtx;
use simnet::{EndpointId, NodeId};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Subsystems the library knows about, in canonical init order.
pub const SUBSYSTEMS: &[&str] = &["opal", "mca", "info", "errh", "attr", "grp", "pml", "coll", "comm"];

/// The minimal set a bare `MPI_Session_init` brings up (paper: "we
/// initialize only the minimum set of MPI subsystems needed to support the
/// MPI Session object").
pub const SESSION_MIN_SUBSYSTEMS: &[&str] = &["opal", "mca", "info", "errh", "attr", "grp", "pml", "comm"];

type Cleanup = Box<dyn Fn(&MpiProcess) + Send>;

struct Subsystem {
    name: &'static str,
    refs: u32,
    cleanup: Option<Cleanup>,
}

/// Reference count of one PGCID "family": the base communicator plus every
/// communicator whose exCID was derived (directly or transitively) from its
/// PGCID. The PMIx group handle parks here so the *last* free or abandon —
/// whichever member it is — releases the group at the local PMIx server
/// (`PmixClient::group_destruct`, one-way and local). The group's lead
/// server recycles the PGCID once every member process has released it or
/// died; a family dropped without either (never freed) keeps it forever.
struct PgcidFamily {
    count: u32,
    group: Option<pmix::PmixGroup>,
}

pub(crate) struct ProcState {
    pub cid_table: CidTable,
    pgcid_users: HashMap<u64, PgcidFamily>,
    subsystems: Vec<Subsystem>,
    /// Total live instance references (sessions + the internal WPM session).
    pub open_instances: u32,
    /// Generation counter: bumped every time the library fully finalizes.
    pub generation: u64,
    pub session_counter: u64,
    /// Count of fully-init/finalize cycles completed (tests).
    pub full_cycles: u64,
}

/// Per-process MPI library state.
pub struct MpiProcess {
    proc: ProcId,
    node: NodeId,
    pml: Arc<Pml>,
    pmix: PmixClient,
    universe: Arc<PmixUniverse>,
    engine: ProgressEngine,
    pub(crate) state: Mutex<ProcState>,
    /// Watchdog-visible wrappers around in-flight lazy peer resolutions
    /// (one [`LazyResolveStage`] request per resolution the PML starts);
    /// pruned by [`MpiProcess::progress`] once terminal.
    lazy_probes: Mutex<Vec<SetupRequest<()>>>,
}

static PROCESS_TABLE: Mutex<Option<HashMap<EndpointId, Weak<MpiProcess>>>> = Mutex::new(None);

/// Simulated cost of bringing a subsystem up for the first time, in
/// nanoseconds (0 by default).
///
/// The paper notes its absolute `MPI_Init` times were dominated by loading
/// MCA components from a slow NFS filesystem — a cost paid *inside*
/// initialization, once per component. Benchmarks that want paper-like
/// absolute startup magnitudes set this knob; tests leave it at zero.
static SUBSYSTEM_INIT_COST_NS: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(0);

/// Set the simulated per-subsystem first-initialization cost.
pub fn set_subsystem_init_cost(cost: std::time::Duration) {
    SUBSYSTEM_INIT_COST_NS.store(cost.as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
}

/// Current simulated per-subsystem first-initialization cost.
pub fn subsystem_init_cost() -> std::time::Duration {
    std::time::Duration::from_nanos(
        SUBSYSTEM_INIT_COST_NS.load(std::sync::atomic::Ordering::Relaxed),
    )
}

impl MpiProcess {
    /// Get (or lazily create) the MPI process object for this simulated
    /// process. Thread-safe and idempotent: repeated `Session_init` calls
    /// from any thread of the process share one instance.
    pub fn obtain(ctx: &ProcCtx) -> Arc<MpiProcess> {
        let key = ctx.endpoint().id();
        let mut table = PROCESS_TABLE.lock();
        let map = table.get_or_insert_with(HashMap::new);
        if let Some(existing) = map.get(&key).and_then(|w| w.upgrade()) {
            return existing;
        }
        let process = Arc::new(MpiProcess {
            proc: ctx.proc().clone(),
            node: ctx.node(),
            pml: Pml::new(ctx.endpoint_arc()),
            pmix: ctx.pmix().clone(),
            universe: ctx.universe().clone(),
            engine: ProgressEngine::default(),
            state: Mutex::new(ProcState {
                cid_table: CidTable::new(),
                pgcid_users: HashMap::new(),
                subsystems: Vec::new(),
                open_instances: 0,
                generation: 0,
                session_counter: 0,
                full_cycles: 0,
            }),
            lazy_probes: Mutex::new(Vec::new()),
        });
        map.insert(key, Arc::downgrade(&process));
        map.retain(|_, w| w.strong_count() > 0);
        process.register_cvars();
        process
    }

    /// Register this process's control variables on the fabric registry
    /// (the MPI_T surface). Closures capture only `Weak` handles — the
    /// registry hangs off the fabric and outlives any process, so a dead
    /// subject reads as `None` and the entry is pruned lazily.
    fn register_cvars(self: &Arc<Self>) {
        let obs = self.obs();
        let scope = self.proc.to_string();
        let r = Arc::downgrade(self);
        let w = Arc::downgrade(self);
        obs.cvar_register(
            &scope,
            "pml.handshake_cache_cap",
            "LRU bound on the PML handshake cache (peer endpoints)",
            move || {
                r.upgrade().map(|p| obs::CvarValue::U64(p.pml.handshake_cache_cap() as u64))
            },
            obs::u64_writer(move |v| {
                if let Some(p) = w.upgrade() {
                    p.pml.set_handshake_cache_cap(v as usize);
                }
            }),
        );
        let r = Arc::downgrade(self);
        let w = Arc::downgrade(self);
        obs.cvar_register(
            &scope,
            "core.stall_ticks",
            "engine sweeps without progress before a setup request is declared stalled",
            move || r.upgrade().map(|p| obs::CvarValue::U64(p.engine.stall_ticks())),
            obs::u64_writer(move |v| {
                if let Some(p) = w.upgrade() {
                    p.engine.set_stall_ticks(v);
                }
            }),
        );
    }

    /// Every live MPI process registered against `universe`, ordered by
    /// process identity so snapshot iteration is deterministic.
    pub fn processes_of(universe: &Arc<PmixUniverse>) -> Vec<Arc<MpiProcess>> {
        let table = PROCESS_TABLE.lock();
        let Some(map) = table.as_ref() else { return Vec::new() };
        let mut procs: Vec<Arc<MpiProcess>> = map
            .values()
            .filter_map(|w| w.upgrade())
            .filter(|p| Arc::ptr_eq(&p.universe, universe))
            .collect();
        procs.sort_by_key(|p| p.proc.to_string());
        procs
    }

    /// This process's PMIx identity.
    pub fn proc(&self) -> &ProcId {
        &self.proc
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The messaging engine.
    pub fn pml(&self) -> &Arc<Pml> {
        &self.pml
    }

    /// The PMIx client.
    pub fn pmix(&self) -> &PmixClient {
        &self.pmix
    }

    /// The universe (registry access for pset resolution).
    pub fn universe(&self) -> &Arc<PmixUniverse> {
        &self.universe
    }

    /// The setup progress engine: every in-flight `i`-variant construction
    /// of this process registers here.
    pub fn progress_engine(&self) -> &ProgressEngine {
        &self.engine
    }

    /// Explicit progress: step every in-flight setup request once and pump
    /// the messaging engine. Returns the number of setup requests still in
    /// flight.
    pub fn progress(&self) -> usize {
        let live = self.engine.progress();
        self.pml.progress(None);
        self.prune_lazy_probes();
        live
    }

    /// Wrap every lazy peer resolution the PML has started since the last
    /// call in a watchdog-visible [`LazyResolveStage`] request. Called from
    /// the send path right after a send may have begun a resolution, so a
    /// stalled business-card fetch gets a `req.stalled` diagnosis naming
    /// the peer.
    pub(crate) fn watch_lazy_resolves(self: &Arc<Self>) {
        while let Some(peer) = self.pml.take_resolve_probe() {
            let stage = Box::new(LazyResolveStage { pml: self.pml.clone(), peer });
            let req = SetupRequest::issue(self.clone(), "lazy_resolve", None, false, stage, None);
            self.lazy_probes.lock().push(req);
        }
    }

    /// Drop terminal lazy-resolve probes, claiming their unit results so
    /// the drop does not read as a cancellation.
    fn prune_lazy_probes(&self) {
        let finished: Vec<SetupRequest<()>> = {
            let mut probes = self.lazy_probes.lock();
            if probes.iter().all(|r| !r.is_complete()) {
                return;
            }
            let (done, live): (Vec<_>, Vec<_>) =
                probes.drain(..).partition(|r| r.is_complete());
            *probes = live;
            done
        };
        for r in finished {
            // A failed resolution already failed its sends; the probe's
            // error needs no further handling.
            let _ = r.wait();
        }
    }

    /// Claim every remaining lazy-resolve probe at PML teardown. The reset
    /// just made each resolution terminal, so the waits return immediately
    /// and each probe's `req.issued` gets its terminal event — without
    /// this, a probe nobody explicitly progressed would strand (and, since
    /// it holds an `Arc<MpiProcess>`, leak the process).
    fn drain_lazy_probes(&self) {
        let probes: Vec<SetupRequest<()>> = std::mem::take(&mut *self.lazy_probes.lock());
        for r in probes {
            let _ = r.wait();
        }
    }

    /// The fabric-wide observability registry this process reports into.
    pub fn obs(&self) -> Arc<obs::Registry> {
        self.universe.fabric().obs()
    }

    /// Bring up `names`, incrementing refcounts; first use of a subsystem
    /// registers its cleanup callback. Returns the instance id.
    pub(crate) fn acquire_instance(&self, names: &[&'static str]) -> u64 {
        let t0 = std::time::Instant::now();
        let mut fresh = 0u32;
        let id = {
            let mut st = self.state.lock();
            for name in names {
                match st.subsystems.iter_mut().find(|s| s.name == *name) {
                    Some(s) => s.refs += 1,
                    None => {
                        let cleanup = Self::cleanup_for(name);
                        st.subsystems.push(Subsystem { name, refs: 1, cleanup });
                        fresh += 1;
                    }
                }
            }
            st.open_instances += 1;
            st.session_counter += 1;
            st.session_counter
        };
        // Simulated component-load cost for newly initialized subsystems
        // (outside the lock: loading is per-process work, not contention).
        let per = subsystem_init_cost();
        if fresh > 0 && !per.is_zero() {
            std::thread::sleep(per * fresh);
        }
        let obs = self.obs();
        let p = self.proc.to_string();
        obs.histogram(&p, "instance", "subsystem_init_ns").record(t0.elapsed());
        obs.counter(&p, "instance", "subsystems_initialized").add(fresh as u64);
        obs.counter(&p, "instance", "instances_acquired").inc();
        id
    }

    /// Release an instance's subsystems. When the last instance goes away,
    /// cleanup callbacks run in reverse init order and the library returns
    /// to the pristine state.
    pub(crate) fn release_instance(&self, names: &[&'static str]) {
        let mut cleanups: Vec<Cleanup> = Vec::new();
        {
            let mut st = self.state.lock();
            for name in names {
                if let Some(s) = st.subsystems.iter_mut().find(|s| s.name == *name) {
                    s.refs = s.refs.saturating_sub(1);
                }
            }
            st.open_instances = st.open_instances.saturating_sub(1);
            if st.open_instances == 0 {
                // Last finalize: run all cleanups, reverse order.
                while let Some(mut s) = st.subsystems.pop() {
                    if let Some(c) = s.cleanup.take() {
                        cleanups.push(c);
                    }
                }
                st.generation += 1;
                st.full_cycles += 1;
                // Teardown audit: anything still claimed here is a
                // communicator the application never freed — surfaced as a
                // counter so soak harnesses can gate on leak-freedom.
                let leaked = st.cid_table.count_used();
                let leaked_families = st.pgcid_users.len();
                st.cid_table = CidTable::new();
                st.pgcid_users.clear();
                drop(st);
                let obs = self.obs();
                let p = self.proc.to_string();
                if leaked > 0 || leaked_families > 0 {
                    obs.counter(&p, "instance", "cids_leaked_at_teardown")
                        .add(leaked as u64);
                    obs.event(
                        &p,
                        "instance",
                        "instance.teardown_leak",
                        vec![
                            ("leaked_cids".into(), (leaked as u64).into()),
                            ("leaked_pgcid_families".into(), (leaked_families as u64).into()),
                        ],
                    );
                }
                obs.gauge(&p, "cid", "table_used").set(0);
            }
        }
        if !cleanups.is_empty() {
            let t0 = std::time::Instant::now();
            let n = cleanups.len() as u64;
            for c in cleanups {
                c(self);
            }
            let obs = self.obs();
            let p = self.proc.to_string();
            obs.histogram(&p, "instance", "subsystem_cleanup_ns").record(t0.elapsed());
            obs.counter(&p, "instance", "subsystems_cleaned").add(n);
        }
    }

    fn cleanup_for(name: &str) -> Option<Cleanup> {
        match name {
            "pml" => Some(Box::new(|p: &MpiProcess| {
                p.pml.reset();
                p.drain_lazy_probes();
            })),
            _ => None,
        }
    }

    /// How many instances (sessions incl. the WPM-internal one) are open.
    pub fn open_instances(&self) -> u32 {
        self.state.lock().open_instances
    }

    /// Completed full init/finalize cycles (tests of re-initialization).
    pub fn full_cycles(&self) -> u64 {
        self.state.lock().full_cycles
    }

    /// Current library generation (bumps on every full finalize).
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// In-use local CID indices, ascending (flight-recorder snapshots).
    pub fn cid_indices(&self) -> Vec<u16> {
        self.state.lock().cid_table.used_indices()
    }

    /// Live PGCID families as `(pgcid, refcount, holds_group_handle)`,
    /// ascending by PGCID (flight-recorder snapshots).
    pub fn pgcid_families(&self) -> Vec<(u64, u32, bool)> {
        let st = self.state.lock();
        let mut fams: Vec<(u64, u32, bool)> = st
            .pgcid_users
            .iter()
            .map(|(k, f)| (*k, f.count, f.group.is_some()))
            .collect();
        fams.sort_unstable_by_key(|f| f.0);
        fams
    }

    /// Which subsystems are currently initialized (tests).
    pub fn live_subsystems(&self) -> Vec<&'static str> {
        self.state
            .lock()
            .subsystems
            .iter()
            .filter(|s| s.refs > 0)
            .map(|s| s.name)
            .collect()
    }

    /// Publish the current CID-table occupancy as a gauge (its high-water
    /// mark is the "CID pool occupancy" column of the soak report).
    fn publish_cid_gauge(&self, used: usize) {
        self.obs()
            .gauge(&self.proc.to_string(), "cid", "table_used")
            .set(used as i64);
    }

    /// Claim a specific local CID (built-in communicators).
    pub(crate) fn claim_cid(&self, idx: u16) -> Result<u16> {
        let used = {
            let mut st = self.state.lock();
            st.cid_table.claim(idx)?;
            st.cid_table.count_used()
        };
        self.publish_cid_gauge(used);
        Ok(idx)
    }

    /// Claim the lowest free local CID at or above `from`.
    pub(crate) fn claim_lowest_cid(&self, from: u16) -> Result<u16> {
        let (idx, used) = {
            let mut st = self.state.lock();
            let idx = st.cid_table.claim_lowest(from)?;
            (idx, st.cid_table.count_used())
        };
        self.publish_cid_gauge(used);
        Ok(idx)
    }

    /// Lowest free CID at or above `from` without claiming (consensus).
    pub(crate) fn peek_lowest_cid(&self, from: u16) -> Result<u16> {
        self.state.lock().cid_table.lowest_free(from)
    }

    /// Release a local CID.
    pub(crate) fn release_cid(&self, idx: u16) {
        let used = {
            let mut st = self.state.lock();
            st.cid_table.release(idx);
            st.cid_table.count_used()
        };
        self.publish_cid_gauge(used);
    }

    /// Add one reference to `pgcid`'s family, parking the PMIx group handle
    /// (when the caller owns one) for the eventual last-free release.
    pub(crate) fn pgcid_retain(&self, pgcid: u64, group: Option<pmix::PmixGroup>) {
        let mut st = self.state.lock();
        let fam = st
            .pgcid_users
            .entry(pgcid)
            .or_insert(PgcidFamily { count: 0, group: None });
        fam.count += 1;
        if group.is_some() {
            fam.group = group;
        }
    }

    /// Drop one reference from `pgcid`'s family. Returns the parked PMIx
    /// group handle when this was the last reference — the caller then
    /// releases the group.
    pub(crate) fn pgcid_release(&self, pgcid: u64) -> Option<pmix::PmixGroup> {
        let mut st = self.state.lock();
        let fam = st.pgcid_users.get_mut(&pgcid)?;
        fam.count = fam.count.saturating_sub(1);
        if fam.count == 0 {
            st.pgcid_users.remove(&pgcid).and_then(|f| f.group)
        } else {
            None
        }
    }

    /// Guard: an MPI object call requires the library to be initialized.
    pub(crate) fn require_active(&self) -> Result<()> {
        if self.state.lock().open_instances == 0 {
            return Err(MpiError::new(
                ErrClass::Session,
                "MPI is not initialized (no open session)",
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for MpiProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpiProcess")
            .field("proc", &self.proc)
            .field("open_instances", &self.open_instances())
            .finish()
    }
}
