//! The per-node PMIx server.
//!
//! One server runs on every simulated node. Local clients interact with it
//! by direct method call (the analog of the shared-memory client↔server
//! channel in the PMIx reference implementation); remote interaction goes
//! through [`crate::wire::ServerMsg`]s over the fabric.
//!
//! ## The three-stage hierarchical collective (paper §III-A)
//!
//! Fences and group constructs run the same engine:
//!
//! 1. **local fan-in** — every local participant notifies its server
//!    ([`PmixServer::coll_begin`]);
//! 2. **server all-to-all** — once all local participants have arrived, the
//!    server exchanges a [`Contribution`] with every other participating
//!    server;
//! 3. **local fan-out** — when contributions from all participating servers
//!    (plus the PGCID, if requested) are in, waiting clients are released.
//!
//! The **PGCID** is allocated by the resource-manager service hosted on the
//! lead (lowest-node) server of the universe; the lead *participating*
//! server requests it and broadcasts it to the other participants. This
//! inter-node RPC is exactly the "relatively expensive operation" the paper
//! blames for the sessions communicator-construction overhead (§III-B3).
//!
//! Destruction is not a collective. A member releases a group locally
//! ([`crate::PmixClient::group_destruct`]); once every local member of a
//! group has released it or died, its server forgets the group and sends one
//! [`ServerMsg::GroupReleased`] to the group's lead — the lowest node of the
//! construct-time server set — which recycles the PGCID when every member
//! server has reported (DESIGN.md §11).
//!
//! ## Where things live
//!
//! This file holds the server's state, construction, frame handler and
//! dispatch ([`PmixServer::handle_ctx`]); each concern is an `impl` block
//! in its own file: `kvs` (commit, fetch tickets, purge, dmodex), `coll`
//! (the collective engine above), `pgcid` (id acquisition, group release
//! and recycling), `invite` (invite/join construction, [`LogicalDeadline`])
//! and `events` (subscriptions, notifications, process death).
//!
//! Every operation that can wait is implemented once as *begin* → *poll*
//! → *park* on one condvar (`fetch_*` on a kvs shard, `coll_*` on an ops
//! shard, the invite finalize on the control plane); blocking calls are
//! begin plus a poll/park loop (DESIGN.md §12, "How a pmix call blocks").
//!
//! ## No thread of its own
//!
//! A server is state plus a served fabric endpoint ([`Endpoint::serve`]):
//! a frame sent to it is handled by the thread that sent it, when that
//! thread's turn ends ([`simnet::turn`](mod@simnet::turn)), or by the
//! fabric's pump when the cost model charges `rpc_processing`. Every entry
//! point that can send opens a turn first, so handlers never run under a
//! lock the caller holds here, and every park here first works off what
//! the parking thread still owes (`simnet::turn::catch_up`).
//!
//! ## Sharded hot-path state
//!
//! The server's mutable state is split into [`SERVER_SHARDS`] key-hashed
//! shards, so independent collectives and KVS traffic from many local
//! clients do not serialize:
//!
//! * **ops shards** — collective-op tables plus their epoch counters,
//!   hashed by `(kind, name, mhash)` so every instance of one collective
//!   lands on one shard and unrelated collectives proceed concurrently;
//! * **kvs shards** — committed local data, the remote-data cache, and
//!   in-flight/parked dmodex state, hashed by the owning [`ProcId`];
//! * a small **control plane** (subscriptions, live groups, invites,
//!   client registry) that is off every hot path.
//!
//! Each shard pairs its mutex with its own condvar, so a fence waking up
//! only disturbs waiters of collectives in the same shard. Correlation
//! tokens encode their kvs shard (`token % SERVER_SHARDS`) so reply
//! handlers route without any global lookup. The lock order is
//! `ops shard → { kvs shard, pgcid pool/waiting, dead (read) }`,
//! `kvs shard → dead (read)` and `ctl → dead (read)`; no two shards of the
//! same kind are ever held together, which rules out deadlock by
//! construction.
//!
//! ## Batched PGCID allocation
//!
//! The lead server requests PGCIDs from the RM in *blocks* of
//! [`DEFAULT_PGCID_BLOCK`] consecutive ids (tunable via the
//! `pmix.pgcid_block` cvar; `1` is the paper's one round trip per
//! construct) and parks the surplus in a local pool; subsequent waiters
//! on this server — group constructs it leads and invite/join finalizes
//! alike — take a pooled id without any RM traffic: no `pgcid.request`
//! span, one `pgcid_pool_hits` tick. The RM accounts every id of a block
//! under `pgcid_allocated` at grant time, so the accounting invariant (ids
//! exposed ⊆ ids allocated) stays exact.

mod coll;
mod events;
mod invite;
mod kvs;
mod pgcid;

pub use coll::{CollOutcome, PendingColl};
pub use invite::LogicalDeadline;
pub use kvs::FetchTicket;
pub use pgcid::pgcid_base;

use crate::error::PmixError;
use crate::event::Subscription;
use crate::nspace::NamespaceRegistry;
use crate::types::ProcId;
use crate::value::PmixValue;
use crate::wire::{
    fnv_bytes, fnv_u64, membership_hash, Contribution, OpId, OpKind, ServerMsg, FNV_OFFSET,
};
use invite::InviteState;
use parking_lot::{Condvar, Mutex, RwLock};
use pgcid::{PgcidCtl, PgcidWaiter};
use simnet::{Endpoint, EndpointId, EndpointSender, Envelope, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of key-hashed shards the server's ops and KVS tables are split
/// into. Eight is plenty for the simulated node sizes while keeping the
/// per-shard memory overhead negligible.
pub const SERVER_SHARDS: usize = 8;

/// Default PGCID block size requested from the RM per round trip. One RM
/// RPC now serves this many group constructs led by the same server
/// (`count == 1` reproduces the paper's one-at-a-time behavior).
pub const DEFAULT_PGCID_BLOCK: u64 = 8;

/// Per-shard cap on retained collective epoch counters. Under sustained
/// session churn every distinct `(kind, name, mhash)` that ever ran a
/// collective would otherwise pin one counter forever. Once a shard holds
/// more keys than this, counters whose collective has no live op are
/// evicted in first-use order. An evicted key that later re-runs restarts
/// at epoch 0 — acceptable because a collision needs more than
/// `EPOCH_RETENTION_CAP` *distinct* collectives on one shard between the
/// two runs, far beyond any scenario's working set.
pub const EPOCH_RETENTION_CAP: usize = 1024;

/// A live group with local members, keyed in [`CtlState::groups`] by
/// `(name, membership hash)`.
#[derive(Debug, Clone)]
struct GroupInfo {
    members: Vec<ProcId>,
    pgcid: Option<u64>,
    notify_on_termination: bool,
    /// Construct-time server set; its first (lowest) node is the lead that
    /// counts releases and recycles the PGCID.
    servers: BTreeSet<NodeId>,
    /// Members homed on this server.
    locals: Vec<ProcId>,
    /// Locals that released the group ([`PmixServer::group_release`]).
    released: Vec<ProcId>,
}

/// Key of [`CtlState::groups`]: the group name plus the hash of its sorted
/// membership, as collectives key their ops — two same-named groups over
/// different members are different groups.
type GroupKey = (String, u64);

/// The lead's count of one PGCID's releases: which member servers have
/// reported, out of the construct-time set.
struct ReleaseTally {
    servers: BTreeSet<NodeId>,
    heard: BTreeSet<NodeId>,
}

struct OpState {
    // Filled by the first *local* arrival; remote contributions can create
    // the op before any local participant enters.
    expected_local: Option<Vec<ProcId>>,
    // Full membership, known once a local participant arrives.
    membership: Vec<ProcId>,
    arrived_local: Vec<ProcId>,
    expected_servers: BTreeSet<NodeId>,
    contribs: HashMap<NodeId, Contribution>,
    need_pgcid: bool,
    error_on_early_termination: bool,
    pgcid: Option<u64>,
    pending_pgcid: Option<u64>, // a CollPgcid that arrived before local fan-in
    pgcid_requested: bool,
    // Local fan-in complete: our contribution is sent and the key's epoch
    // counter has advanced past this op.
    fanin_done: bool,
    // Local kvs contributions gathered during fan-in (fence with data).
    local_kvs: Vec<(ProcId, HashMap<String, PmixValue>)>,
    result: Option<std::result::Result<CollOutcome, PmixError>>,
    observed: usize,
    // Local waiters that abandoned their pending handle before observing
    // the result (nonblocking enter dropped mid-flight). They will never
    // call back in, so reaping counts them alongside `observed`.
    abandoned: usize,
    // Stage spans (paper §III-A): fan-in is open from the first local
    // arrival to local completeness; exchange from then until every peer
    // contribution (and the PGCID) is in; fan-out is the release instant.
    fanin: Option<obs::Span>,
    xchg: Option<obs::Span>,
    // Piggybacked contexts of everything that gated completion (peer
    // contributions, the PGCID broadcast); linked into `xchg` when it ends.
    contrib_ctxs: Vec<obs::TraceContext>,
}

impl OpState {
    fn new() -> Self {
        Self {
            expected_local: None,
            membership: Vec::new(),
            arrived_local: Vec::new(),
            expected_servers: BTreeSet::new(),
            contribs: HashMap::new(),
            need_pgcid: false,
            error_on_early_termination: true,
            pgcid: None,
            pending_pgcid: None,
            pgcid_requested: false,
            fanin_done: false,
            local_kvs: Vec::new(),
            result: None,
            observed: 0,
            abandoned: 0,
            fanin: None,
            xchg: None,
            contrib_ctxs: Vec::new(),
        }
    }
}

/// One shard: its state plus a dedicated condvar so wakeups stay local.
#[derive(Default)]
struct Shard<T> {
    state: Mutex<T>,
    cv: Condvar,
}

/// Collective-op tables for one ops shard. The epoch counters live next to
/// the ops they disambiguate (same `(kind, name, mhash)` hash key).
#[derive(Default)]
struct OpsShard {
    ops: HashMap<OpId, OpState>,
    // Next epoch to assign to a locally-entered instance of each key.
    // Bounded to [`EPOCH_RETENTION_CAP`] entries; see `bound_epochs`.
    epochs: HashMap<(OpKind, String, u64), u64>,
    // Epoch keys in first-use order: the deterministic eviction queue.
    epoch_order: VecDeque<(OpKind, String, u64)>,
}

/// Key-value tables for one kvs shard, hashed by the owning process.
#[derive(Default)]
struct KvsShard {
    // Committed KV data of *local* clients.
    kvs_local: HashMap<ProcId, HashMap<String, PmixValue>>,
    // Data learned about remote processes (fence collection / dmodex).
    kvs_cache: HashMap<ProcId, HashMap<String, PmixValue>>,
    // In-flight dmodex fetches issued by local clients: token -> reply slot.
    // KVS replies only — nothing else parks here.
    dmodex_waiting: HashMap<u64, Option<Option<PmixValue>>>,
    // Remote dmodex requests for keys not committed yet.
    dmodex_parked: Vec<(ProcId, String, EndpointId, u64)>,
}

impl KvsShard {
    /// Live KV pairs (local commits + remote cache).
    fn entries(&self) -> usize {
        self.kvs_local.values().chain(self.kvs_cache.values()).map(|m| m.len()).sum()
    }

    /// `key` as committed by local client `proc`.
    fn committed(&self, proc: &ProcId, key: &str) -> Option<PmixValue> {
        self.kvs_local.get(proc).and_then(|m| m.get(key)).cloned()
    }

    /// `key` as learned about remote process `proc`.
    fn cached(&self, proc: &ProcId, key: &str) -> Option<PmixValue> {
        self.kvs_cache.get(proc).and_then(|m| m.get(key)).cloned()
    }
}

/// Cold control-plane state (off every collective/KVS hot path).
#[derive(Default)]
struct CtlState {
    subs: Vec<(ProcId, Subscription)>,
    // Live groups with local members.
    groups: HashMap<GroupKey, GroupInfo>,
    // Lead side: PGCIDs some member server has released, awaiting the rest.
    releases: BTreeMap<u64, ReleaseTally>,
    // Asynchronous (invite/join) constructions initiated locally.
    invites: HashMap<String, InviteState>,
    // Grant slots of invite finalizes waiting for a PGCID: present while
    // the waiter is alive, filled by `deliver_pgcid`.
    invite_pgcids: HashMap<String, Option<u64>>,
    local_clients: HashSet<ProcId>,
}

/// Per-shard completion/stage counters. Scoping them to
/// `server:{node}/s{k}` means the sharding refactor cannot silently
/// double-count: `sum_counters` still yields the per-server totals the
/// invariants assert, while per-shard values stay individually auditable.
struct ShardCounters {
    fence_completed: obs::Counter,
    group_construct_completed: obs::Counter,
    stage_fanin: obs::Counter,
    stage_xchg: obs::Counter,
    stage_fanout: obs::Counter,
    coll_aborted: obs::Counter,
    // Live KV pairs (local + cached) in this shard's tables; its high-water
    // mark is the per-shard memory footprint the soak harness reports.
    kvs_entries: obs::Gauge,
}

/// Per-server observability handles, resolved once at construction.
struct ServerMetrics {
    /// `(process, component)` scope for events/spans this server emits.
    /// Stage *counters* are per-shard (`server:{node}/s{k}`); events and
    /// spans keep the plain `server:{node}` scope the golden traces and
    /// invariant checkers key on.
    process: String,
    obs: Arc<obs::Registry>,
    rpc_handled: obs::Counter,
    rpc_ns: obs::Histogram,
    pgcid_allocated: obs::Counter,
    pgcid_pool_hits: obs::Counter,
    // Constructs whose PGCID need piggybacked on an already-in-flight RM
    // request instead of paying their own round trip.
    pgcid_coalesced: obs::Counter,
    // Nonblocking collective handles dropped before observing their result.
    coll_abandoned: obs::Counter,
    // Ids returned to the pool once every member server released their
    // group (lifecycle GC).
    pgcid_recycled: obs::Counter,
    // KV pairs dropped when their owning process was declared dead.
    kvs_purged: obs::Counter,
    // Epoch counters evicted by the retention bound.
    epochs_evicted: obs::Counter,
    // Current occupancy of the local PGCID pool (block surplus + recycled).
    pgcid_pool_len: obs::Gauge,
    shards: Vec<ShardCounters>,
}

impl ServerMetrics {
    fn new(obs: Arc<obs::Registry>, node: NodeId) -> Self {
        let process = format!("server:{}", node.0);
        let c = |name: &str| obs.counter(&process, "pmix", name);
        let rpc_ns = obs.histogram(&process, "pmix", "rpc_ns");
        let shards = (0..SERVER_SHARDS)
            .map(|k| {
                let sp = format!("server:{}/s{}", node.0, k);
                let sc = |name: &str| obs.counter(&sp, "pmix", name);
                ShardCounters {
                    fence_completed: sc("fence_completed"),
                    group_construct_completed: sc("group_construct_completed"),
                    stage_fanin: sc("stage_fanin"),
                    stage_xchg: sc("stage_xchg"),
                    stage_fanout: sc("stage_fanout"),
                    coll_aborted: sc("coll_aborted"),
                    kvs_entries: obs.gauge(&sp, "pmix", "kvs_entries"),
                }
            })
            .collect();
        Self {
            rpc_handled: c("rpc_handled"),
            pgcid_allocated: c("pgcid_allocated"),
            pgcid_pool_hits: c("pgcid_pool_hits"),
            pgcid_coalesced: c("pgcid_coalesced"),
            coll_abandoned: c("coll_abandoned"),
            pgcid_recycled: c("pgcid_recycled"),
            kvs_purged: c("kvs_purged"),
            epochs_evicted: c("epochs_evicted"),
            pgcid_pool_len: obs.gauge(&process, "pmix", "pgcid_pool_len"),
            rpc_ns,
            shards,
            process,
            obs,
        }
    }

    fn stage_event(&self, stage: &str, op: &OpId, extra: Vec<(String, obs::AttrValue)>) {
        let mut attrs: Vec<(String, obs::AttrValue)> = vec![
            ("op".into(), op.name.as_str().into()),
            ("kind".into(), kind_str(op.kind).into()),
            // The epoch disambiguates re-runs of the same (kind, name,
            // membership) — invariant checkers key on (kind, name, epoch).
            ("epoch".into(), op.epoch.into()),
        ];
        attrs.extend(extra);
        self.obs.event(&self.process, "pmix", stage, attrs);
    }
}

fn kind_str(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Fence => "fence",
        OpKind::GroupConstruct => "group_construct",
    }
}

/// Per-shard occupancy snapshot of one server (see
/// [`PmixServer::shard_occupancy`]). Indexed `0..SERVER_SHARDS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerShardOccupancy {
    /// Live KV pairs per kvs shard (local commits + remote cache).
    pub kvs_entries: Vec<usize>,
    /// In-flight collective operations per ops shard.
    pub ops_live: Vec<usize>,
    /// Retained collective epoch counters per ops shard.
    pub epochs_retained: Vec<usize>,
}

/// A per-node PMIx server.
pub struct PmixServer {
    node: NodeId,
    registry: NamespaceRegistry,
    sender: EndpointSender,
    ops_shards: Vec<Shard<OpsShard>>,
    kvs_shards: Vec<Shard<KvsShard>>,
    ctl: Mutex<CtlState>,
    ctl_cv: Condvar,
    // Processes known dead. Read on every hot path, written once per
    // failure — a reader-writer lock keeps readers from serializing.
    dead: RwLock<HashSet<ProcId>>,
    // Correlation-token mint; tokens encode their kvs shard
    // (`token % SERVER_SHARDS`) so reply handlers route shard-locally.
    next_token: AtomicU64,
    // In-flight PGCID requests: token -> (who the reply belongs to, plus
    // the open `pgcid.request` span that times the RM round-trip).
    pgcid_waiting: Mutex<HashMap<u64, (PgcidWaiter, obs::Span)>>,
    // Single-request coalescing: waiters queued behind the in-flight RM trip.
    pgcid_ctl: Mutex<PgcidCtl>,
    // Locally pooled PGCIDs (surplus of RM block grants).
    pgcid_pool: Mutex<VecDeque<u64>>,
    // Block size requested from the RM per miss (>= 1).
    pgcid_block: AtomicU64,
    // Resource-manager service: present only on the universe's lead server.
    rm_next_pgcid: Option<AtomicU64>,
    metrics: ServerMetrics,
}

impl PmixServer {
    /// Create a server that serves `endpoint`: each frame sent to it is
    /// decoded and dispatched ([`PmixServer::handle_ctx`]) on the thread
    /// that delivered it (or the fabric's pump, under a processing cost).
    /// `is_rm` marks the lead server hosting the resource-manager services.
    pub fn new(endpoint: Endpoint, registry: NamespaceRegistry, is_rm: bool) -> Arc<Self> {
        registry.register_server(endpoint.node(), endpoint.id());
        let server = Arc::new(Self {
            node: endpoint.node(),
            registry,
            sender: endpoint.sender(),
            ops_shards: (0..SERVER_SHARDS).map(|_| Shard::default()).collect(),
            kvs_shards: (0..SERVER_SHARDS).map(|_| Shard::default()).collect(),
            ctl: Mutex::new(CtlState::default()),
            ctl_cv: Condvar::new(),
            dead: RwLock::new(HashSet::new()),
            next_token: AtomicU64::new(1),
            pgcid_waiting: Mutex::new(HashMap::new()),
            pgcid_ctl: Mutex::new(PgcidCtl::default()),
            pgcid_pool: Mutex::new(VecDeque::new()),
            pgcid_block: AtomicU64::new(DEFAULT_PGCID_BLOCK),
            rm_next_pgcid: is_rm.then(|| AtomicU64::new(1)),
            metrics: ServerMetrics::new(endpoint.obs(), endpoint.node()),
        });
        // Weak: the fabric holds the handler and the server holds the
        // fabric, so a strong capture would keep both alive forever.
        let weak = Arc::downgrade(&server);
        endpoint.serve(move |env| {
            if let Some(server) = weak.upgrade() {
                server.handle_frame(env);
            }
        });
        server
    }

    /// Set how many PGCIDs to request from the RM per pool miss. `1`
    /// reproduces the paper's one-round-trip-per-construct behavior;
    /// larger values amortize the RM RPC across future constructs led by
    /// this server. Clamped to at least 1. Written through the
    /// `pmix.pgcid_block` cvar.
    pub(crate) fn set_pgcid_block(&self, block: u64) {
        self.pgcid_block.store(block.max(1), Ordering::Relaxed);
    }

    /// Current PGCID block-grant size (the `pmix.pgcid_block` cvar).
    pub fn pgcid_block(&self) -> u64 {
        self.pgcid_block.load(Ordering::Relaxed)
    }

    /// Deterministic occupancy snapshot of this server's sharded state,
    /// for the introspection flight recorder: per-shard live KV-pair
    /// counts, per-shard in-flight collective-op counts, and per-shard
    /// retained epoch-counter counts (bounded by [`EPOCH_RETENTION_CAP`]).
    pub fn shard_occupancy(&self) -> ServerShardOccupancy {
        let mut kvs_entries = Vec::with_capacity(SERVER_SHARDS);
        for shard in &self.kvs_shards {
            kvs_entries.push(shard.state.lock().entries());
        }
        let mut ops_live = Vec::with_capacity(SERVER_SHARDS);
        let mut epochs_retained = Vec::with_capacity(SERVER_SHARDS);
        for shard in &self.ops_shards {
            let os = shard.state.lock();
            ops_live.push(os.ops.len());
            epochs_retained.push(os.epochs.len());
        }
        ServerShardOccupancy { kvs_entries, ops_live, epochs_retained }
    }

    /// The node this server manages.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This server's fabric endpoint id.
    pub fn endpoint_id(&self) -> EndpointId {
        self.sender.id()
    }

    /// The shared namespace registry.
    pub fn registry(&self) -> &NamespaceRegistry {
        &self.registry
    }

    /// The observability registry this server records into.
    pub fn obs(&self) -> Arc<obs::Registry> {
        self.metrics.obs.clone()
    }

    /// Handle one frame from this server's mailbox. The fabric calls it
    /// for one frame at a time, in mailbox order; the control-plane
    /// processing cost (`CostModel::rpc_processing`) was charged as the
    /// frame's due time, so `rpc_ns` is the handler's own time.
    fn handle_frame(&self, env: Envelope) {
        let decoded = ServerMsg::decode(&env.payload);
        // No fault corrupts a payload, so a frame that fails to decode
        // is a codec bug: loud in debug builds, dropped in release.
        debug_assert!(
            decoded.is_some(),
            "undecodable server frame: tag {:?}, {} bytes",
            env.payload.first(),
            env.payload.len()
        );
        if let Some(msg) = decoded {
            let t0 = Instant::now();
            self.handle_ctx(msg, env.ctx);
            self.metrics.rpc_handled.inc();
            self.metrics.rpc_ns.record(t0.elapsed());
        }
    }

    // ---------------------------------------------------------------
    // Shard routing
    // ---------------------------------------------------------------

    /// Ops shard of a collective: every epoch of one `(kind, name, mhash)`
    /// lands on the same shard, so its epoch counter lives there too.
    fn ops_shard_of(kind: OpKind, name: &str, mhash: u64) -> usize {
        let k = match kind {
            OpKind::Fence => 1u64,
            OpKind::GroupConstruct => 2,
        };
        let mut h = fnv_u64(FNV_OFFSET, k);
        h = fnv_bytes(h, name.as_bytes());
        h = fnv_u64(h, mhash);
        (h % SERVER_SHARDS as u64) as usize
    }

    /// Kvs shard of a process (owner of the data being read or written).
    fn kvs_shard_of(proc: &ProcId) -> usize {
        (membership_hash(std::slice::from_ref(proc)) % SERVER_SHARDS as u64) as usize
    }

    /// Mint a correlation token that routes replies to kvs shard `shard`.
    fn mint_token(&self, shard: usize) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed) * SERVER_SHARDS as u64 + shard as u64
    }

    // ---------------------------------------------------------------
    // Local client entry points (the "shared-memory RPC" surface)
    // ---------------------------------------------------------------

    /// Register a local client.
    pub fn attach_client(&self, proc: &ProcId) {
        self.ctl.lock().local_clients.insert(proc.clone());
    }

    /// Deregister a local client (normal finalize — not a failure).
    pub fn detach_client(&self, proc: &ProcId) {
        let mut st = self.ctl.lock();
        st.local_clients.remove(proc);
        st.subs.retain(|(p, _)| p != proc);
    }

    // ---------------------------------------------------------------
    // Server-to-server messaging
    // ---------------------------------------------------------------

    /// Send `msg` (with an optional piggybacked trace context) to every
    /// peer server in `peers`.
    fn broadcast_ctx(
        &self,
        peers: &BTreeSet<NodeId>,
        msg: &ServerMsg,
        ctx: Option<obs::TraceContext>,
    ) {
        let encoded = msg.encode();
        for peer in peers {
            if *peer == self.node {
                continue;
            }
            if let Some(ep) = self.registry.server_of(*peer) {
                let _ = self.sender.send_ctx(ep, encoded.clone(), ctx);
            }
        }
    }

    /// Process one server-to-server message (no piggybacked trace context;
    /// used for node-local self-delivery).
    pub fn handle(&self, msg: ServerMsg) {
        self.handle_ctx(msg, None);
    }

    /// Process one server-to-server message together with the trace context
    /// piggybacked on its envelope, so collective stage spans can link their
    /// remote causal predecessors.
    pub fn handle_ctx(&self, msg: ServerMsg, ctx: Option<obs::TraceContext>) {
        let _turn = simnet::turn();
        match msg {
            ServerMsg::CollContrib { op, from_node, contrib } => {
                self.on_coll_contrib(op, from_node, contrib, ctx)
            }
            ServerMsg::CollPgcid { op, pgcid } => self.on_coll_pgcid(op, pgcid, ctx),
            ServerMsg::CollAbort { op, reason } => self.on_coll_abort(op, reason),
            ServerMsg::PgcidRequest { reply_to, token, count } => {
                self.on_pgcid_request(reply_to, token, count, ctx)
            }
            ServerMsg::PgcidReply { token, pgcid, count } => {
                self.on_pgcid_reply(token, pgcid, count, ctx)
            }
            ServerMsg::GroupReleased { pgcid, from_node, servers } => self.on_group_released(
                pgcid,
                NodeId(from_node),
                servers.into_iter().map(NodeId).collect(),
            ),
            ServerMsg::DmodexReq { reply_to, token, proc, key } => {
                self.on_dmodex_req(reply_to, token, proc, key)
            }
            ServerMsg::DmodexReply { token, value } => self.on_dmodex_reply(token, value),
            ServerMsg::Notify { event, targets } => self.on_notify(event, targets),
            ServerMsg::InviteReply { group, from, accept } => {
                self.on_invite_reply(group, from, accept)
            }
        }
    }
}
