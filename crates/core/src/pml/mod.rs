//! The point-to-point messaging layer (ob1 analog).
//!
//! One `Pml` exists per simulated process. It owns the process's fabric
//! mailbox, the per-communicator matching state (posted-receive list and
//! unexpected-message queue), the eager/rendezvous protocols, and the
//! exCID first-message handshake of paper §III-B4:
//!
//! * while the sender does not know the receiver's local CID for an
//!   exCID-bearing communicator, every message carries the 18-byte
//!   extended header (exCID + sender's local CID);
//! * the receiver maps the exCID to its own communicator, stores the
//!   sender's local CID (accelerating the reverse direction), and answers
//!   once with a `CidAck` carrying *its* local CID;
//! * after the ACK is processed, sends switch to the compact 14-byte
//!   match header with `ctx = receiver's local CID` — the optimized tag
//!   matching path.
//!
//! Multiple sends may leave in extended mode before the ACK arrives; this
//! is deliberate and reproduces the message-rate dip of the paper's
//! Fig. 5c (multi-pair `osu_mbw_mr` without pre-synchronization).
//!
//! # The handshake cache
//!
//! A completed handshake proves the peer *endpoint* speaks the exCID
//! protocol, and endpoints are stable across communicators: when the same
//! processes build a second communicator from the same group (a repeated
//! `MPI_Comm_create_from_group` on one pset, or a sibling dup), re-running
//! the extended-header exchange per communicator is pure overhead. Each
//! engine therefore remembers the endpoints it has completed a handshake
//! with; registering a new exCID communicator proactively pushes a
//! [`header::CidAdvert`] (this exCID → my local CID) to every cached peer
//! in the new communicator. A peer that absorbs the advert starts in
//! `Known` mode — no extended header, no `CidAck`, no `pml.handshake`
//! event — so only the *first* communicator between an endpoint pair pays
//! the handshake. A failed advert send means the peer died; the cache
//! entry is dropped so a later incarnation is never trusted stale.

pub mod header;

use crate::cid::ExCid;
use crate::error::{ErrClass, MpiError, Result};
use crate::request::{ReqInner, ReqKind};
use crate::status::Status;
use bytes::Bytes;
use header::{CidAck, CidAdvert, ExtHeader, MatchHeader, MsgKind, RtsInfo};
use parking_lot::Mutex;
use simnet::{Endpoint, EndpointId, EndpointSender, RecvError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default eager/rendezvous switchover (bytes).
pub const DEFAULT_EAGER_LIMIT: usize = 16 * 1024;

/// Default bound on the handshake cache (peer endpoints). The cache is an
/// accelerator, not a correctness structure: evicting an entry only means
/// the next communicator to that peer re-runs the extended-header
/// handshake. Bounding it keeps per-process PML state O(cap) under
/// sustained session churn instead of O(distinct peers ever contacted).
pub const DEFAULT_HANDSHAKE_CACHE_CAP: usize = 1024;

/// How a send addresses the peer's communicator context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendCid {
    /// Consensus/WPM communicator: the CID is globally agreed, use it.
    Fixed(u16),
    /// exCID communicator, receiver's local CID unknown: send extended.
    AwaitAck,
    /// exCID communicator after the handshake: use the learned CID.
    Known(u16),
}

/// How a communicator route addresses a peer rank.
///
/// Eager-initialized communicators know every peer's fabric endpoint up
/// front. Lazy (fence-free) communicators start with only the peer's PMIx
/// identity; the endpoint is filled in on first contact — either actively
/// (the first send triggers an on-demand KVS fetch through the installed
/// [`pmix::PeerResolver`]) or passively (an incoming message from the peer
/// carries its endpoint on the envelope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerAddr {
    /// Fabric endpoint known (eager init, or lazy resolution completed).
    Known(EndpointId),
    /// Endpoint unknown; the first send triggers a lazy resolution.
    Unresolved(pmix::ProcId),
}

struct PeerState {
    mode: SendCid,
    /// Whether we already sent our CidAck to this peer.
    acked_back: bool,
    /// Whether we already sent this peer an extended header (the first one
    /// initiates the handshake; further ones are fallbacks while the ACK is
    /// still in flight).
    ext_started: bool,
    send_seq: u16,
    recv_seq: u16,
    /// Sender-side handshake span: opened with the first extended-header
    /// send to this peer, closed when the peer's CID is learned. Its
    /// context rides only on extended sends, so a handshake produces
    /// exactly one cross-process link (ext → handshake_recv).
    handshake: Option<obs::Span>,
    /// Aggregate span for compact eager traffic to this peer (one span per
    /// (cid, peer), work = messages — bounded regardless of message count).
    eager: Option<obs::Span>,
}

struct Posted {
    src: Option<u32>,
    tag: Option<i32>,
    req: Arc<ReqInner>,
}

enum UnexBody {
    Eager(Bytes),
    Rts { size: u64, send_req: u64, src_ep: EndpointId },
}

struct Unexpected {
    src: u32,
    tag: i32,
    #[allow(dead_code)]
    seq: u16,
    body: UnexBody,
}

struct Route {
    my_rank: u32,
    addrs: Vec<PeerAddr>,
    excid: Option<ExCid>,
    posted: Vec<Posted>,
    unexpected: VecDeque<Unexpected>,
    peers: Vec<PeerState>,
}

struct PendingMsg {
    hdr: MatchHeader,
    ext: Option<ExtHeader>,
    rts: Option<RtsInfo>,
    payload: Bytes,
    src_ep: EndpointId,
    /// Trace context carried by the envelope (the sender's handshake span
    /// for extended sends).
    ctx: Option<obs::TraceContext>,
}

struct RdvSend {
    payload: Bytes,
    dst_ep: EndpointId,
    req: Arc<ReqInner>,
    /// Per-transfer rendezvous span: RTS → CTS → data send.
    span: Option<obs::Span>,
}

/// A send parked behind an in-flight lazy resolution. Flushed (in FIFO
/// order, preserving MPI ordering per peer) once the peer's endpoint is
/// known, or failed with the resolution's typed error.
struct QueuedSend {
    local_cid: u16,
    dst_rank: u32,
    tag: i32,
    payload: Bytes,
    req: Arc<ReqInner>,
}

/// One in-flight lazy resolution: the nonblocking KVS fetch plus every
/// send waiting on it.
struct LazyResolving {
    fetch: pmix::PeerFetch,
    queued: Vec<QueuedSend>,
    /// Critical-path span: opened when the resolution starts, closed at
    /// its terminal state (resolved or failed).
    span: obs::Span,
}

/// Terminal outcome of a lazy resolution: `None` = resolved, `Some(e)` =
/// failed with `e` (later sends to the peer fail fast with the same
/// error until the route learns the endpoint passively).
#[derive(Default)]
struct LazyState {
    resolving: HashMap<pmix::ProcId, LazyResolving>,
    done: HashMap<pmix::ProcId, Option<MpiError>>,
    /// Resolutions started since the last probe drain; the instance layer
    /// converts each into a watchdog-visible setup request.
    probes: VecDeque<pmix::ProcId>,
}

/// Observable state of a lazy peer resolution (watchdog stages key on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveStatus {
    /// No resolution was ever started for this peer.
    Idle,
    /// A KVS fetch is in flight.
    InFlight,
    /// Terminal: the peer's endpoint was resolved and cached.
    Resolved,
    /// Terminal: the resolution failed with a typed error.
    Failed(MpiError),
}

#[derive(Default)]
struct PmlState {
    routes: HashMap<u16, Route>,
    excid_map: HashMap<ExCid, u16>,
    pending_ext: HashMap<ExCid, Vec<PendingMsg>>,
    pending_ctx: HashMap<u16, Vec<PendingMsg>>,
    rdv_send: HashMap<u64, RdvSend>,
    rdv_recv: HashMap<u64, Arc<ReqInner>>,
    next_req_id: u64,
    /// Handshake cache: peer endpoints a CID handshake has completed with
    /// (on any communicator). Entries are dropped when a send to the
    /// endpoint fails (chaos kills invalidate them) and evicted
    /// least-recently-used once the cache exceeds its cap.
    cache: HashSet<EndpointId>,
    /// Recency order of `cache` (front = least recently confirmed).
    cache_lru: VecDeque<EndpointId>,
    /// Cache generation: bumped on *every* removal (eviction, failed-send
    /// drop, explicit invalidation, reset). Carried on `pml.handshake`
    /// events so the uniqueness invariant can tell a legal re-handshake
    /// (some entry was removed in between) from a double-handshake bug
    /// (same generation).
    cache_gen: u64,
    /// CidAdverts that arrived before the target communicator was
    /// registered here; drained by `register_comm`.
    pending_advert: HashMap<ExCid, Vec<(CidAdvert, EndpointId)>>,
}

/// Counters exposed for tests and the handshake ablation benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmlStats {
    /// Messages sent with the compact header on a known CID.
    pub eager_sent: u64,
    /// Messages sent carrying the extended (exCID) header.
    pub ext_sent: u64,
    /// CidAcks sent (receiver side of the handshake).
    pub acks_sent: u64,
    /// Rendezvous RTS messages sent.
    pub rts_sent: u64,
    /// Messages handled by the progress engine.
    pub handled: u64,
}

/// Per-engine obs counter handles (process scope = the endpoint id), so the
/// hot path stays atomic-only while the numbers land in the fabric-wide
/// registry.
struct PmlMetrics {
    eager_sent: obs::Counter,
    ext_sent: obs::Counter,
    acks_sent: obs::Counter,
    rts_sent: obs::Counter,
    handled: obs::Counter,
    /// CID handshakes completed: transitions of a peer out of `AwaitAck`
    /// (either by receiving its ext header or by absorbing its CidAck).
    handshakes: obs::Counter,
    /// Extended-header sends beyond the first to the same peer: the
    /// handshake was initiated but its ACK has not landed yet.
    ext_fallback: obs::Counter,
    /// CidAdverts pushed to cached peers on new-communicator registration.
    adverts_sent: obs::Counter,
    /// Peers switched straight to `Known` by an absorbed advert — each one
    /// is a handshake (ext + ack round trip) the cache saved.
    advert_hits: obs::Counter,
    /// Cache entries dropped by explicit invalidation (departed-but-alive
    /// peers on the elastic rebuild path).
    cache_invalidated: obs::Counter,
    /// Cache entries dropped by LRU eviction at the cap.
    cache_evicted: obs::Counter,
    /// Live cache size (high-water mark = peak footprint for soak audits).
    cache_entries: obs::Gauge,
    /// Registry + process scope retained so handshake transitions can emit
    /// a structured event (the chaos invariant checker keys on it).
    obs: Arc<obs::Registry>,
    process: String,
}

impl PmlMetrics {
    fn new(endpoint: &Endpoint) -> Self {
        let obs = endpoint.obs();
        let process = endpoint.id().to_string();
        let c = |name| obs.counter(&process, "pml", name);
        Self {
            eager_sent: c("eager_sent"),
            ext_sent: c("ext_sent"),
            acks_sent: c("acks_sent"),
            rts_sent: c("rts_sent"),
            handled: c("handled"),
            handshakes: c("handshakes"),
            ext_fallback: c("ext_fallback"),
            adverts_sent: c("adverts_sent"),
            advert_hits: c("advert_hits"),
            cache_invalidated: c("cache_invalidated"),
            cache_evicted: c("cache_evicted"),
            cache_entries: obs.gauge(&process, "pml", "cache_entries"),
            obs,
            process,
        }
    }

    /// Record one completed handshake: the counter plus a `pml.handshake`
    /// event identifying the exCID, peer and cache generation, so an
    /// external checker can assert the exactly-once property per
    /// (process, excid, peer, generation) — a repeat is legal only after a
    /// cache removal bumped the generation.
    fn handshake(&self, excid: ExCid, peer: u32, via: &str, cache_gen: u64) {
        self.handshakes.inc();
        self.obs.event(
            &self.process,
            "pml",
            "pml.handshake",
            vec![
                ("pgcid".into(), excid.pgcid.into()),
                ("derivation".into(), excid.derivation.into()),
                ("peer".into(), (peer as u64).into()),
                ("via".into(), via.into()),
                ("cache_gen".into(), cache_gen.into()),
            ],
        );
    }
}

/// The per-process messaging engine.
/// See [`Pml::cache_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmlCacheSnapshot {
    /// LRU bound currently enforced.
    pub cap: usize,
    /// Invalidation generation (bumps on every removal/eviction).
    pub gen: u64,
    /// Fabric-relative ids of cached peer endpoints, ascending.
    pub entries: Vec<u64>,
}

pub struct Pml {
    endpoint: Arc<Endpoint>,
    sender: EndpointSender,
    state: Mutex<PmlState>,
    eager_limit: AtomicUsize,
    cache_cap: AtomicUsize,
    metrics: PmlMetrics,
    /// Installed only on the lazy session-init path; eager runs never
    /// create one, keeping their metric/event shape unchanged.
    resolver: Mutex<Option<Arc<pmix::PeerResolver>>>,
    lazy: Mutex<LazyState>,
}

impl Pml {
    /// Create the engine over the process's mailbox.
    pub fn new(endpoint: Arc<Endpoint>) -> Arc<Self> {
        let sender = endpoint.sender();
        let metrics = PmlMetrics::new(&endpoint);
        Arc::new(Self {
            endpoint,
            sender,
            state: Mutex::new(PmlState { next_req_id: 1, ..Default::default() }),
            eager_limit: AtomicUsize::new(DEFAULT_EAGER_LIMIT),
            cache_cap: AtomicUsize::new(DEFAULT_HANDSHAKE_CACHE_CAP),
            metrics,
            resolver: Mutex::new(None),
            lazy: Mutex::new(LazyState::default()),
        })
    }

    /// Current eager/rendezvous switchover in bytes.
    pub fn eager_limit(&self) -> usize {
        self.eager_limit.load(Ordering::Relaxed)
    }

    /// Tune the eager limit (`mpi_eager_limit` info key).
    pub fn set_eager_limit(&self, bytes: usize) {
        self.eager_limit.store(bytes.max(1), Ordering::Relaxed);
    }

    /// Bound the handshake cache to `cap` entries (≥ 1), evicting LRU
    /// entries immediately if it is already over. Written through the
    /// `pml.handshake_cache_cap` cvar; tests and soak harnesses shrink it to
    /// force eviction churn.
    pub(crate) fn set_handshake_cache_cap(&self, cap: usize) {
        self.cache_cap.store(cap.max(1), Ordering::Relaxed);
        let mut st = self.state.lock();
        self.cache_enforce_cap(&mut st);
    }

    /// Number of peers currently held in the handshake cache.
    pub fn handshake_cache_len(&self) -> usize {
        self.state.lock().cache.len()
    }

    /// Current handshake-cache bound (the `pml.handshake_cache_cap` cvar).
    pub fn handshake_cache_cap(&self) -> usize {
        self.cache_cap.load(Ordering::Relaxed)
    }

    /// The fabric under this process's endpoint (logical-deadline waits).
    pub fn fabric(&self) -> simnet::Fabric {
        self.endpoint.fabric()
    }

    /// This process's own fabric endpoint id (the business card the lazy
    /// init path publishes).
    pub fn endpoint_id(&self) -> EndpointId {
        self.endpoint.id()
    }

    /// Introspection view of the handshake cache: bound, invalidation
    /// generation, and the cached peer endpoints **normalized** to
    /// fabric-relative offsets (raw endpoint ids are allocated globally
    /// across fabrics, so absolute values would differ between a test run
    /// in isolation and the same test inside a suite). Sorted ascending.
    pub fn cache_snapshot(&self) -> PmlCacheSnapshot {
        let st = self.state.lock();
        let base = self.endpoint.fabric().base_endpoint_id();
        let mut entries: Vec<u64> =
            st.cache.iter().map(|e| e.0.saturating_sub(base)).collect();
        entries.sort_unstable();
        PmlCacheSnapshot {
            cap: self.cache_cap.load(Ordering::Relaxed),
            gen: st.cache_gen,
            entries,
        }
    }

    /// Insert (or refresh) `ep` in the handshake cache, then enforce the
    /// LRU bound.
    fn cache_insert(&self, st: &mut PmlState, ep: EndpointId) {
        if st.cache.insert(ep) {
            st.cache_lru.push_back(ep);
        } else if let Some(pos) = st.cache_lru.iter().position(|e| *e == ep) {
            st.cache_lru.remove(pos);
            st.cache_lru.push_back(ep);
        }
        self.cache_enforce_cap(st);
        self.metrics.cache_entries.set(st.cache.len() as i64);
    }

    fn cache_enforce_cap(&self, st: &mut PmlState) {
        let cap = self.cache_cap.load(Ordering::Relaxed).max(1);
        while st.cache.len() > cap {
            let Some(victim) = st.cache_lru.pop_front() else { break };
            st.cache.remove(&victim);
            st.cache_gen += 1;
            self.metrics.cache_evicted.inc();
        }
        self.metrics.cache_entries.set(st.cache.len() as i64);
    }

    /// Remove `ep` from the handshake cache, bumping the generation.
    fn cache_remove(&self, st: &mut PmlState, ep: EndpointId) -> bool {
        if !st.cache.remove(&ep) {
            return false;
        }
        if let Some(pos) = st.cache_lru.iter().position(|e| *e == ep) {
            st.cache_lru.remove(pos);
        }
        st.cache_gen += 1;
        self.metrics.cache_entries.set(st.cache.len() as i64);
        true
    }

    /// Snapshot the counters (reads the obs-backed cells; kept as a typed
    /// convenience view for tests and the handshake ablation benchmark).
    pub fn stats(&self) -> PmlStats {
        PmlStats {
            eager_sent: self.metrics.eager_sent.get(),
            ext_sent: self.metrics.ext_sent.get(),
            acks_sent: self.metrics.acks_sent.get(),
            rts_sent: self.metrics.rts_sent.get(),
            handled: self.metrics.handled.get(),
        }
    }

    /// Register a communicator route. `fixed_cid` is `Some` for
    /// consensus/WPM communicators whose CID is globally agreed; exCID
    /// communicators pass their exCID instead and start in extended mode —
    /// unless the handshake cache already covers a peer's endpoint, in
    /// which case a `CidAdvert` is pushed so both sides skip the
    /// extended-header exchange on this communicator.
    pub fn register_comm(
        &self,
        local_cid: u16,
        my_rank: u32,
        endpoints: Vec<EndpointId>,
        excid: Option<ExCid>,
        fixed_cid: Option<u16>,
    ) {
        let addrs = endpoints.into_iter().map(PeerAddr::Known).collect();
        self.register_comm_inner(local_cid, my_rank, addrs, excid, fixed_cid);
    }

    /// Register a lazily-addressed exCID communicator: peers whose fabric
    /// endpoint is still unknown are passed as
    /// [`PeerAddr::Unresolved`] and resolved on first contact (actively by
    /// the first send through the installed resolver, or passively from an
    /// incoming message's envelope). Always extended-mode: the handshake
    /// doubles as the passive resolution channel.
    pub fn register_comm_lazy(
        &self,
        local_cid: u16,
        my_rank: u32,
        addrs: Vec<PeerAddr>,
        excid: ExCid,
    ) {
        self.register_comm_inner(local_cid, my_rank, addrs, Some(excid), None);
    }

    fn register_comm_inner(
        &self,
        local_cid: u16,
        my_rank: u32,
        addrs: Vec<PeerAddr>,
        excid: Option<ExCid>,
        fixed_cid: Option<u16>,
    ) {
        let n = addrs.len();
        let initial_mode = match (fixed_cid, excid) {
            (Some(c), _) => SendCid::Fixed(c),
            (None, Some(_)) => SendCid::AwaitAck,
            (None, None) => SendCid::Fixed(local_cid),
        };
        let mut replay = Vec::new();
        let mut adverts: Vec<EndpointId> = Vec::new();
        {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            if excid.is_some() {
                // Advertise our local CID to every peer we already hold a
                // completed handshake with (on any earlier communicator).
                // Unresolved peers can't be advertised to — no address yet.
                for (rank, addr) in addrs.iter().enumerate() {
                    if let PeerAddr::Known(ep) = addr {
                        if rank as u32 != my_rank && st.cache.contains(ep) {
                            adverts.push(*ep);
                        }
                    }
                }
            }
            let route = Route {
                my_rank,
                addrs,
                excid,
                posted: Vec::new(),
                unexpected: VecDeque::new(),
                peers: (0..n)
                    .map(|_| PeerState {
                        mode: initial_mode,
                        acked_back: false,
                        ext_started: false,
                        send_seq: 0,
                        recv_seq: 0,
                        handshake: None,
                        eager: None,
                    })
                    .collect(),
            };
            st.routes.insert(local_cid, route);
            if let Some(e) = excid {
                st.excid_map.insert(e, local_cid);
                if let Some(msgs) = st.pending_ext.remove(&e) {
                    replay.extend(msgs);
                }
                // Adverts that raced ahead of this registration.
                if let Some(parked) = st.pending_advert.remove(&e) {
                    for (ad, src_ep) in parked {
                        self.apply_advert(st, ad, src_ep);
                    }
                }
            }
            if let Some(msgs) = st.pending_ctx.remove(&local_cid) {
                replay.extend(msgs);
            }
        }
        if let Some(e) = excid {
            let ad =
                CidAdvert { excid: e, advertiser_cid: local_cid, advertiser_rank: my_rank };
            let bytes = ad.encode();
            for ep in adverts {
                match self.sender.send(ep, Bytes::from(bytes.clone())) {
                    Ok(()) => self.metrics.adverts_sent.inc(),
                    // The peer died since the handshake: forget it.
                    Err(_) => {
                        self.cache_remove(&mut self.state.lock(), ep);
                    }
                }
            }
        }
        for m in replay {
            self.dispatch(m);
        }
    }

    /// Absorb a `CidAdvert`: if the target communicator exists and the
    /// advertised rank maps to the sending endpoint, switch that peer
    /// straight to `Known` — the handshake the cache saved. Otherwise park
    /// it for `register_comm` to drain.
    fn apply_advert(&self, st: &mut PmlState, ad: CidAdvert, src_ep: EndpointId) {
        let Some(&cid) = st.excid_map.get(&ad.excid) else {
            st.pending_advert.entry(ad.excid).or_default().push((ad, src_ep));
            return;
        };
        let Some(route) = st.routes.get_mut(&cid) else { return };
        // An Unresolved slot can't validate the rank↔endpoint claim either;
        // the real handshake will resolve it.
        if route.addrs.get(ad.advertiser_rank as usize) != Some(&PeerAddr::Known(src_ep)) {
            return; // stale or misrouted advert: rank↔endpoint mismatch
        }
        let peer = &mut route.peers[ad.advertiser_rank as usize];
        if matches!(peer.mode, SendCid::AwaitAck) {
            peer.mode = SendCid::Known(ad.advertiser_cid);
            // The peer already knows our CID (it holds the mirror cache
            // entry and our own advert): no ACK owed in either direction.
            peer.acked_back = true;
            if let Some(hs) = peer.handshake.take() {
                hs.end();
            }
            self.metrics.advert_hits.inc();
        }
    }

    /// Tear down a communicator route.
    pub fn unregister_comm(&self, local_cid: u16) {
        let mut st = self.state.lock();
        if let Some(route) = st.routes.remove(&local_cid) {
            if let Some(e) = route.excid {
                st.excid_map.remove(&e);
            }
        }
    }

    /// Drop every route (last-session cleanup). The handshake cache is
    /// emptied wholesale; the generation survives (and bumps) so handshakes
    /// of a later session generation are distinguishable from re-handshake
    /// bugs within one.
    pub fn reset(&self) {
        {
            let mut st = self.state.lock();
            *st = PmlState {
                next_req_id: st.next_req_id,
                cache_gen: st.cache_gen + 1,
                ..Default::default()
            };
        }
        self.metrics.cache_entries.set(0);
        // Terminate in-flight lazy resolutions: each queued send fails
        // typed and every begun resolution still reaches an `end` event.
        let drained: Vec<(pmix::ProcId, LazyResolving)> = {
            let mut lz = self.lazy.lock();
            let out = lz.resolving.drain().collect();
            lz.done.clear();
            lz.probes.clear();
            out
        };
        for (peer, entry) in drained {
            entry.span.end();
            self.lazy_resolve_event(&peer, "end", Some("failed"));
            for qs in entry.queued {
                qs.req.fail(MpiError::new(
                    ErrClass::Session,
                    format!("session finalized while resolving peer {peer}"),
                ));
            }
        }
        *self.resolver.lock() = None;
    }

    // ------------------------------------------------------------------
    // Send / receive entry points (wrapped by `Comm`)
    // ------------------------------------------------------------------

    /// Non-blocking send of `payload` to `dst_rank` on communicator
    /// `local_cid` with `tag`.
    ///
    /// On a lazily-addressed communicator whose peer endpoint is still
    /// [`PeerAddr::Unresolved`], the send is parked behind an on-demand
    /// resolution (started here if not already in flight) and completes —
    /// or fails, typed — once the resolution reaches its terminal state.
    pub fn isend(
        &self,
        local_cid: u16,
        dst_rank: u32,
        tag: i32,
        payload: Bytes,
    ) -> Result<Arc<ReqInner>> {
        let req = ReqInner::new(ReqKind::Send);
        let unresolved = {
            let st = self.state.lock();
            let route = st
                .routes
                .get(&local_cid)
                .ok_or_else(|| MpiError::new(ErrClass::Comm, "send on unknown communicator"))?;
            match route.addrs.get(dst_rank as usize).ok_or_else(|| {
                MpiError::new(ErrClass::Rank, format!("rank {dst_rank} outside communicator"))
            })? {
                PeerAddr::Known(_) => None,
                PeerAddr::Unresolved(p) => Some(p.clone()),
            }
        };
        if let Some(peer) = unresolved {
            let cached = self.resolver.lock().clone().and_then(|r| r.lookup(&peer));
            match cached {
                // Cache hit: zero round trips — fill every route slot for
                // this peer and fall through to the normal send path.
                Some(ep) => self.fill_peer(&peer, ep),
                None => {
                    self.queue_lazy_send(
                        peer,
                        QueuedSend { local_cid, dst_rank, tag, payload, req: req.clone() },
                    );
                    return Ok(req);
                }
            }
        }
        self.isend_ready(local_cid, dst_rank, tag, payload, req.clone())?;
        Ok(req)
    }

    /// The send fast path: every address on the route is already `Known`.
    /// Split from [`Pml::isend`] so queued lazy sends can be flushed with
    /// their original (already returned) request.
    fn isend_ready(
        &self,
        local_cid: u16,
        dst_rank: u32,
        tag: i32,
        payload: Bytes,
        req: Arc<ReqInner>,
    ) -> Result<()> {
        let eager = payload.len() <= self.eager_limit();
        let (dst_ep, bytes, is_ext, is_ext_fallback, ext_ctx) = {
            let mut st = self.state.lock();
            let route = st
                .routes
                .get_mut(&local_cid)
                .ok_or_else(|| MpiError::new(ErrClass::Comm, "send on unknown communicator"))?;
            let dst_ep = match route.addrs.get(dst_rank as usize).ok_or_else(|| {
                MpiError::new(ErrClass::Rank, format!("rank {dst_rank} outside communicator"))
            })? {
                PeerAddr::Known(ep) => *ep,
                PeerAddr::Unresolved(p) => {
                    return Err(MpiError::intern(format!(
                        "send to unresolved peer {p} reached the ready path"
                    )))
                }
            };
            let my_rank = route.my_rank;
            let excid = route.excid;
            let peer = &mut route.peers[dst_rank as usize];
            let seq = peer.send_seq;
            peer.send_seq = peer.send_seq.wrapping_add(1);
            let (ctx, ext) = match peer.mode {
                SendCid::Fixed(c) | SendCid::Known(c) => (c, None),
                SendCid::AwaitAck => (
                    local_cid,
                    Some(ExtHeader {
                        excid: excid.expect("AwaitAck implies exCID"),
                        sender_cid: local_cid,
                    }),
                ),
            };
            // The first extended send to a peer initiates the handshake;
            // any further ones are fallbacks while its ACK is in flight.
            let is_ext_fallback = if ext.is_some() {
                let started = peer.ext_started;
                peer.ext_started = true;
                started
            } else {
                false
            };
            // Causal bookkeeping: the handshake span's context rides only on
            // extended sends, so the receiver's `handshake_recv` span links
            // it exactly once per peer pair; compact traffic accumulates on
            // a bounded per-peer aggregate and keeps the thread's context.
            let ext_ctx = if let Some(e) = &ext {
                let hs = peer.handshake.get_or_insert_with(|| {
                    self.metrics.obs.span(
                        &self.metrics.process,
                        "pml.handshake",
                        &format!("{}.{}->{}", e.excid.pgcid, e.excid.derivation, dst_rank),
                    )
                });
                hs.add_work(1);
                Some(hs.context())
            } else {
                if eager {
                    let eg = peer.eager.get_or_insert_with(|| {
                        self.metrics.obs.span(
                            &self.metrics.process,
                            "pml.eager",
                            &format!("cid{local_cid}->{dst_rank}"),
                        )
                    });
                    eg.add_work(1);
                }
                None
            };
            let base_kind = if eager {
                if ext.is_some() { MsgKind::EagerExt } else { MsgKind::Eager }
            } else if ext.is_some() {
                MsgKind::RtsExt
            } else {
                MsgKind::Rts
            };
            let hdr = MatchHeader {
                kind: base_kind,
                flags: 0,
                ctx,
                src: my_rank as i32,
                tag,
                seq,
            };
            let mut bytes = Vec::with_capacity(
                header::MATCH_HEADER_LEN
                    + if ext.is_some() { header::EXT_HEADER_LEN } else { 0 }
                    + if eager { payload.len() } else { 16 },
            );
            hdr.encode(&mut bytes);
            if let Some(e) = &ext {
                e.encode(&mut bytes);
            }
            if eager {
                bytes.extend_from_slice(&payload);
            } else {
                let send_req = st.next_req_id;
                st.next_req_id += 1;
                RtsInfo { size: payload.len() as u64, send_req }.encode(&mut bytes);
                let mut span = self.metrics.obs.span(
                    &self.metrics.process,
                    "pml.rdv",
                    &format!("cid{local_cid}:{send_req}"),
                );
                span.add_work(1);
                st.rdv_send.insert(
                    send_req,
                    RdvSend { payload: payload.clone(), dst_ep, req: req.clone(), span: Some(span) },
                );
                // A rendezvous send completes only when `dst_ep` answers
                // the RTS with a CTS; record the dependency so fault-aware
                // waits can fail fast if the destination dies first.
                req.set_waiting_on(dst_ep);
            }
            (dst_ep, bytes, ext.is_some(), is_ext_fallback, ext_ctx)
        };
        if is_ext {
            self.metrics.ext_sent.inc();
            if is_ext_fallback {
                self.metrics.ext_fallback.inc();
            }
        } else if eager {
            self.metrics.eager_sent.inc();
        }
        if !eager {
            self.metrics.rts_sent.inc();
        }
        let sent = match ext_ctx {
            Some(c) => self.sender.send_ctx(dst_ep, Bytes::from(bytes), Some(c)),
            None => self.sender.send(dst_ep, Bytes::from(bytes)),
        };
        match sent {
            Ok(()) => {
                if eager {
                    // Buffered-eager semantics: the send buffer is owned by
                    // the fabric now; the request is complete.
                    req.complete_send(payload.len());
                }
            }
            Err(_) => {
                req.fail(MpiError::new(ErrClass::ProcFailed, format!("peer rank {dst_rank} is dead")));
                self.cache_remove(&mut self.state.lock(), dst_ep);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lazy (fence-free) peer resolution
    // ------------------------------------------------------------------

    /// Install the process's lazy peer resolver. Called once on the lazy
    /// session-init path; eager-only processes never have one.
    pub fn install_resolver(&self, resolver: Arc<pmix::PeerResolver>) {
        *self.resolver.lock() = Some(resolver);
    }

    /// The installed lazy resolver, if any.
    pub fn resolver(&self) -> Option<Arc<pmix::PeerResolver>> {
        self.resolver.lock().clone()
    }

    /// Fill every route slot addressed to `peer` with its resolved
    /// endpoint. Idempotent; `Known` slots are left untouched.
    fn fill_peer(&self, peer: &pmix::ProcId, ep: EndpointId) {
        let mut st = self.state.lock();
        for route in st.routes.values_mut() {
            for addr in route.addrs.iter_mut() {
                if matches!(addr, PeerAddr::Unresolved(p) if p == peer) {
                    *addr = PeerAddr::Known(ep);
                }
            }
        }
    }

    /// Emit the `pml.lazy_resolve` lifecycle event the chaos invariant
    /// checker keys on: every `begin` must be paired with an `end` whose
    /// outcome is `resolved` or `failed` — never a silent eager fallback.
    fn lazy_resolve_event(&self, peer: &pmix::ProcId, phase: &str, outcome: Option<&str>) {
        let mut attrs: Vec<(String, obs::AttrValue)> = vec![
            ("peer".into(), peer.to_string().into()),
            ("phase".into(), phase.into()),
        ];
        if let Some(o) = outcome {
            attrs.push(("outcome".into(), o.into()));
        }
        self.metrics.obs.event(&self.metrics.process, "pml", "pml.lazy_resolve", attrs);
    }

    /// Park `qs` behind a resolution of `peer`, starting one if none is in
    /// flight. A terminal failure recorded earlier fails the send fast with
    /// the same typed error.
    fn queue_lazy_send(&self, peer: pmix::ProcId, qs: QueuedSend) {
        let Some(resolver) = self.resolver.lock().clone() else {
            qs.req.fail(MpiError::intern(format!(
                "unresolved peer {peer} on a communicator but no resolver installed"
            )));
            return;
        };
        let mut lz = self.lazy.lock();
        if let Some(entry) = lz.resolving.get_mut(&peer) {
            entry.queued.push(qs);
            return;
        }
        if let Some(Some(err)) = lz.done.get(&peer) {
            qs.req.fail(err.clone());
            return;
        }
        self.lazy_resolve_event(&peer, "begin", None);
        match resolver.begin(&peer) {
            Ok(fetch) => {
                let span = self.metrics.obs.span(
                    &self.metrics.process,
                    "pml.lazy_resolve",
                    &peer.to_string(),
                );
                lz.resolving
                    .insert(peer.clone(), LazyResolving { fetch, queued: vec![qs], span });
                lz.probes.push_back(peer);
            }
            // Typed immediate failure (peer deregistered or dead): the
            // resolution still reaches a terminal state.
            Err(e) => {
                let err = MpiError::from(e);
                self.lazy_resolve_event(&peer, "end", Some("failed"));
                qs.req.fail(err.clone());
                lz.done.insert(peer, Some(err));
            }
        }
    }

    /// Poll every in-flight lazy resolution; on a terminal state fill the
    /// routes (or fail) and flush the parked sends. Returns whether any
    /// resolution completed.
    fn progress_lazy(&self) -> bool {
        let Some(resolver) = self.resolver.lock().clone() else { return false };
        let mut completed: Vec<(pmix::ProcId, Result<EndpointId>, LazyResolving)> = Vec::new();
        {
            let mut lz = self.lazy.lock();
            let peers: Vec<pmix::ProcId> = lz.resolving.keys().cloned().collect();
            for p in peers {
                let polled = {
                    let entry = lz.resolving.get_mut(&p).expect("key just listed");
                    resolver.poll(&mut entry.fetch)
                };
                if let Some(res) = polled {
                    let entry = lz.resolving.remove(&p).expect("key just listed");
                    completed.push((p, res.map_err(MpiError::from), entry));
                }
            }
        }
        let did = !completed.is_empty();
        for (peer, res, entry) in completed {
            match res {
                Ok(ep) => {
                    self.fill_peer(&peer, ep);
                    entry.span.end();
                    self.lazy_resolve_event(&peer, "end", Some("resolved"));
                    self.lazy.lock().done.insert(peer, None);
                    for qs in entry.queued {
                        let req = qs.req.clone();
                        if let Err(e) =
                            self.isend_ready(qs.local_cid, qs.dst_rank, qs.tag, qs.payload, qs.req)
                        {
                            // Route unregistered while the resolution was in
                            // flight: the send itself fails, typed.
                            req.fail(e);
                        }
                    }
                }
                Err(e) => {
                    entry.span.end();
                    self.lazy_resolve_event(&peer, "end", Some("failed"));
                    for qs in entry.queued {
                        qs.req.fail(e.clone());
                    }
                    self.lazy.lock().done.insert(peer, Some(e));
                }
            }
        }
        did
    }

    /// Observable state of the lazy resolution of `peer` (the watchdog
    /// stage polls this).
    pub fn resolve_status(&self, peer: &pmix::ProcId) -> ResolveStatus {
        let lz = self.lazy.lock();
        if lz.resolving.contains_key(peer) {
            return ResolveStatus::InFlight;
        }
        match lz.done.get(peer) {
            Some(None) => ResolveStatus::Resolved,
            Some(Some(e)) => ResolveStatus::Failed(e.clone()),
            None => ResolveStatus::Idle,
        }
    }

    /// Drain one resolution started since the last call. The instance
    /// layer turns each into a progress-engine request so a stalled lazy
    /// resolution is visible to the stall watchdog.
    pub fn take_resolve_probe(&self) -> Option<pmix::ProcId> {
        self.lazy.lock().probes.pop_front()
    }

    /// Number of lazy resolutions currently in flight (tests).
    pub fn resolving_count(&self) -> usize {
        self.lazy.lock().resolving.len()
    }

    /// Non-blocking receive on communicator `local_cid`. `src`/`tag`
    /// `None` = wildcard.
    pub fn irecv(&self, local_cid: u16, src: Option<u32>, tag: Option<i32>) -> Result<Arc<ReqInner>> {
        let req = ReqInner::new(ReqKind::Recv);
        let mut outbox: Vec<(EndpointId, Vec<u8>)> = Vec::new();
        {
            let mut st = self.state.lock();
            // Generate ids before borrowing the route mutably.
            let mut reserve_req_id = st.next_req_id;
            let route = st
                .routes
                .get_mut(&local_cid)
                .ok_or_else(|| MpiError::new(ErrClass::Comm, "recv on unknown communicator"))?;
            // Search the unexpected queue first (in arrival order).
            let pos = route.unexpected.iter().position(|u| {
                src.map(|s| s == u.src).unwrap_or(true) && tag.map(|t| t == u.tag).unwrap_or(true)
            });
            match pos {
                Some(i) => {
                    let u = route.unexpected.remove(i).expect("index valid");
                    match u.body {
                        UnexBody::Eager(data) => {
                            req.complete_recv(
                                Status { source: u.src as i32, tag: u.tag, len: data.len() },
                                data,
                            );
                        }
                        UnexBody::Rts { size, send_req, src_ep } => {
                            let recv_req = reserve_req_id;
                            reserve_req_id += 1;
                            req.set_status(Status {
                                source: u.src as i32,
                                tag: u.tag,
                                len: size as usize,
                            });
                            let mut cts = Vec::with_capacity(17);
                            cts.push(MsgKind::Cts as u8);
                            cts.extend_from_slice(&send_req.to_le_bytes());
                            cts.extend_from_slice(&recv_req.to_le_bytes());
                            outbox.push((src_ep, cts));
                            st.next_req_id = reserve_req_id;
                            st.rdv_recv.insert(recv_req, req.clone());
                        }
                    }
                }
                None => {
                    route.posted.push(Posted { src, tag, req: req.clone() });
                }
            }
        }
        for (ep, bytes) in outbox {
            let _ = self.sender.send(ep, Bytes::from(bytes));
        }
        Ok(req)
    }

    // ------------------------------------------------------------------
    // Progress engine
    // ------------------------------------------------------------------

    /// Drain the mailbox. With `block`, waits up to that long for the first
    /// message if none is immediately available. Returns whether anything
    /// was processed.
    pub fn progress(&self, block: Option<Duration>) -> bool {
        let mut did = false;
        loop {
            match self.endpoint.try_recv() {
                Ok(env) => {
                    self.handle_bytes(env.src, env.payload, env.ctx);
                    did = true;
                }
                Err(RecvError::Empty) => break,
                Err(_) => return did | self.progress_lazy(), // endpoint killed
            }
        }
        if !did {
            if let Some(t) = block {
                if let Ok(env) = self.endpoint.recv_timeout(t) {
                    self.handle_bytes(env.src, env.payload, env.ctx);
                    did = true;
                    // Drain whatever arrived together with it.
                    while let Ok(env) = self.endpoint.try_recv() {
                        self.handle_bytes(env.src, env.payload, env.ctx);
                    }
                }
            }
        }
        did | self.progress_lazy()
    }

    fn handle_bytes(&self, src_ep: EndpointId, payload: Bytes, ctx: Option<obs::TraceContext>) {
        self.metrics.handled.inc();
        let Some(&kind_byte) = payload.first() else { return };
        let Some(kind) = MsgKind::from_u8(kind_byte) else { return };
        match kind {
            MsgKind::CidAck => {
                if let Some(ack) = CidAck::decode_body(&payload[1..]) {
                    self.on_cid_ack(ack, src_ep);
                }
            }
            MsgKind::CidAdvert => {
                if let Some(ad) = CidAdvert::decode_body(&payload[1..]) {
                    let mut guard = self.state.lock();
                    self.apply_advert(&mut guard, ad, src_ep);
                }
            }
            MsgKind::Cts => {
                if payload.len() >= 17 {
                    let send_req = u64::from_le_bytes(payload[1..9].try_into().expect("len"));
                    let recv_req = u64::from_le_bytes(payload[9..17].try_into().expect("len"));
                    self.on_cts(send_req, recv_req);
                }
            }
            MsgKind::RdvData => {
                if payload.len() >= 9 {
                    let recv_req = u64::from_le_bytes(payload[1..9].try_into().expect("len"));
                    let data = payload.slice(9..);
                    self.on_rdv_data(recv_req, data);
                }
            }
            MsgKind::Eager | MsgKind::EagerExt | MsgKind::Rts | MsgKind::RtsExt => {
                let Some((hdr, rest_ref)) = MatchHeader::decode(&payload) else { return };
                let mut off = header::MATCH_HEADER_LEN;
                let mut ext = None;
                let mut rest = rest_ref;
                if kind.has_ext() {
                    let Some((e, r)) = ExtHeader::decode(rest) else { return };
                    ext = Some(e);
                    off += header::EXT_HEADER_LEN;
                    rest = r;
                }
                let mut rts = None;
                if matches!(kind, MsgKind::Rts | MsgKind::RtsExt) {
                    let Some((r, _)) = RtsInfo::decode(rest) else { return };
                    rts = Some(r);
                    off += 16;
                }
                let body = payload.slice(off..);
                self.dispatch(PendingMsg { hdr, ext, rts, payload: body, src_ep, ctx });
            }
        }
    }

    fn on_cid_ack(&self, ack: CidAck, src_ep: EndpointId) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let Some(&cid) = st.excid_map.get(&ack.excid) else { return };
        let mut completed = false;
        if let Some(route) = st.routes.get_mut(&cid) {
            if let Some(peer) = route.peers.get_mut(ack.acker_rank as usize) {
                // The ACK carries the receiver's local CID: switch this peer
                // to the optimized compact-header path. An incoming ext
                // header may already have taught us the same CID — only the
                // actual transition counts as completing the handshake.
                if matches!(peer.mode, SendCid::AwaitAck) {
                    peer.mode = SendCid::Known(ack.receiver_cid);
                    if let Some(hs) = peer.handshake.take() {
                        hs.end();
                    }
                    completed = true;
                }
            }
        }
        if completed {
            // A completed handshake marks the endpoint as exCID-capable for
            // every future communicator. The event samples the generation
            // *before* the insert so a capacity eviction triggered by this
            // very insert cannot mask a double-handshake.
            let gen = st.cache_gen;
            self.cache_insert(st, src_ep);
            self.metrics.handshake(ack.excid, ack.acker_rank, "ack", gen);
        }
    }

    fn on_cts(&self, send_req: u64, recv_req: u64) {
        let entry = self.state.lock().rdv_send.remove(&send_req);
        let Some(mut rdv) = entry else { return };
        let mut bytes = Vec::with_capacity(9 + rdv.payload.len());
        bytes.push(MsgKind::RdvData as u8);
        bytes.extend_from_slice(&recv_req.to_le_bytes());
        bytes.extend_from_slice(&rdv.payload);
        match self.sender.send(rdv.dst_ep, Bytes::from(bytes)) {
            Ok(()) => {
                if let Some(mut sp) = rdv.span.take() {
                    sp.add_work(1);
                    sp.end();
                }
                rdv.req.complete_send(rdv.payload.len())
            }
            Err(_) => {
                rdv.req.fail(MpiError::new(ErrClass::ProcFailed, "peer died during rendezvous"));
                self.cache_remove(&mut self.state.lock(), rdv.dst_ep);
            }
        }
    }

    fn on_rdv_data(&self, recv_req: u64, data: Bytes) {
        let req = self.state.lock().rdv_recv.remove(&recv_req);
        if let Some(req) = req {
            let status = req
                .status_snapshot()
                .unwrap_or(Status { source: -1, tag: -1, len: data.len() });
            req.complete_recv(Status { len: data.len(), ..status }, data);
        }
    }

    /// Route an incoming matched-protocol message to its communicator.
    fn dispatch(&self, msg: PendingMsg) {
        let mut outbox: Vec<(EndpointId, Vec<u8>)> = Vec::new();
        {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            let cid = match msg.ext {
                Some(ext) => match st.excid_map.get(&ext.excid) {
                    Some(&c) => c,
                    None => {
                        // Communicator not created here yet: park.
                        st.pending_ext.entry(ext.excid).or_default().push(msg);
                        return;
                    }
                },
                None => {
                    let c = msg.hdr.ctx;
                    if !st.routes.contains_key(&c) {
                        st.pending_ctx.entry(c).or_default().push(msg);
                        return;
                    }
                    c
                }
            };
            let mut reserve_req_id = st.next_req_id;
            let mut rdv_post: Option<(u64, Arc<ReqInner>)> = None;
            let mut learned: Option<(ExCid, u32)> = None;
            let learned_ep = msg.src_ep;
            {
                let route = st.routes.get_mut(&cid).expect("checked above");
                let src = msg.hdr.src as u32;
                // Passive lazy resolution: an incoming message carries the
                // sender's endpoint on its envelope — an Unresolved slot
                // learns it for free, no KVS fetch needed.
                if let Some(addr) = route.addrs.get_mut(src as usize) {
                    if matches!(addr, PeerAddr::Unresolved(_)) {
                        *addr = PeerAddr::Known(msg.src_ep);
                        self.metrics
                            .obs
                            .counter(&self.metrics.process, "pml", "lazy_passive_resolves")
                            .inc();
                    }
                }
                if let Some(ext) = msg.ext {
                    if let Some(peer) = route.peers.get_mut(src as usize) {
                        // Learn the sender's local CID for the reverse path.
                        if matches!(peer.mode, SendCid::AwaitAck) {
                            peer.mode = SendCid::Known(ext.sender_cid);
                            if let Some(hs) = peer.handshake.take() {
                                hs.end();
                            }
                            learned = Some((ext.excid, src));
                        }
                        if !peer.acked_back {
                            peer.acked_back = true;
                            // Receiver-side handshake span, adopted into the
                            // sender's trace via the link to the extended
                            // send's context.
                            let mut hs = self.metrics.obs.span_with_parent(
                                &self.metrics.process,
                                "pml.handshake_recv",
                                &format!("{}.{}<-{}", ext.excid.pgcid, ext.excid.derivation, src),
                                None,
                            );
                            if let Some(c) = msg.ctx {
                                hs.link(c);
                            }
                            hs.add_work(1);
                            hs.end();
                            let ack = CidAck {
                                excid: ext.excid,
                                receiver_cid: cid,
                                acker_rank: route.my_rank,
                            };
                            outbox.push((msg.src_ep, ack.encode()));
                            self.metrics.acks_sent.inc();
                        }
                    }
                }
                if let Some(peer) = route.peers.get_mut(src as usize) {
                    peer.recv_seq = peer.recv_seq.wrapping_add(1);
                }
                // Match against posted receives, in post order.
                let pos = route.posted.iter().position(|p| {
                    p.src.map(|s| s == src).unwrap_or(true)
                        && p.tag.map(|t| t == msg.hdr.tag).unwrap_or(true)
                });
                match pos {
                    Some(i) => {
                        let posted = route.posted.remove(i);
                        match msg.rts {
                            None => {
                                posted.req.complete_recv(
                                    Status {
                                        source: src as i32,
                                        tag: msg.hdr.tag,
                                        len: msg.payload.len(),
                                    },
                                    msg.payload,
                                );
                            }
                            Some(rts) => {
                                let recv_req = reserve_req_id;
                                reserve_req_id += 1;
                                posted.req.set_status(Status {
                                    source: src as i32,
                                    tag: msg.hdr.tag,
                                    len: rts.size as usize,
                                });
                                let mut cts = Vec::with_capacity(17);
                                cts.push(MsgKind::Cts as u8);
                                cts.extend_from_slice(&rts.send_req.to_le_bytes());
                                cts.extend_from_slice(&recv_req.to_le_bytes());
                                outbox.push((msg.src_ep, cts));
                                rdv_post = Some((recv_req, posted.req.clone()));
                            }
                        }
                    }
                    None => {
                        let body = match msg.rts {
                            None => UnexBody::Eager(msg.payload),
                            Some(rts) => UnexBody::Rts {
                                size: rts.size,
                                send_req: rts.send_req,
                                src_ep: msg.src_ep,
                            },
                        };
                        route.unexpected.push_back(Unexpected {
                            src,
                            tag: msg.hdr.tag,
                            seq: msg.hdr.seq,
                            body,
                        });
                    }
                }
            }
            if let Some((excid, src)) = learned {
                // Sampled pre-insert; see `on_cid_ack`.
                let gen = st.cache_gen;
                self.cache_insert(st, learned_ep);
                self.metrics.handshake(excid, src, "ext", gen);
            }
            st.next_req_id = reserve_req_id;
            if let Some((id, req)) = rdv_post {
                st.rdv_recv.insert(id, req);
            }
        }
        for (ep, bytes) in outbox {
            let _ = self.sender.send(ep, Bytes::from(bytes));
        }
    }

    /// Number of unexpected messages queued on a communicator (tests).
    pub fn unexpected_count(&self, local_cid: u16) -> usize {
        self.state
            .lock()
            .routes
            .get(&local_cid)
            .map(|r| r.unexpected.len())
            .unwrap_or(0)
    }

    /// Whether `ep` is in the handshake cache — i.e. a CID handshake has
    /// completed with that endpoint on some communicator and it has not
    /// been invalidated by a failed send (tests + bench analysis).
    pub fn cached_peer(&self, ep: EndpointId) -> bool {
        self.state.lock().cache.contains(&ep)
    }

    /// Drop `ep` from the handshake cache. Sends-failures evict dead peers
    /// automatically, but a peer that *retired* gracefully never fails a
    /// send — its mailbox just drains to nowhere — so the rebuild path must
    /// invalidate departed peers explicitly, or a later incarnation on the
    /// same endpoint would be trusted with a stale `CidAdvert`. Returns
    /// whether an entry was actually dropped.
    pub fn invalidate_peer(&self, ep: EndpointId) -> bool {
        let dropped = self.cache_remove(&mut self.state.lock(), ep);
        if dropped {
            self.metrics.cache_invalidated.inc();
        }
        dropped
    }

    /// Whether the send path to `dst_rank` on `local_cid` has switched to
    /// the optimized compact-header mode (tests + Fig. 5 analysis).
    pub fn peer_switched(&self, local_cid: u16, dst_rank: u32) -> bool {
        self.state
            .lock()
            .routes
            .get(&local_cid)
            .and_then(|r| r.peers.get(dst_rank as usize))
            .map(|p| !matches!(p.mode, SendCid::AwaitAck))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cid::ExCid;
    use simnet::{Fabric, NodeId};

    /// Two PML engines wired over a raw zero-cost fabric.
    fn pair() -> (Arc<Pml>, Arc<Pml>) {
        let fabric = Fabric::new(simnet::CostModel::zero());
        let a = Pml::new(Arc::new(fabric.register(NodeId(0))));
        let b = Pml::new(Arc::new(fabric.register(NodeId(0))));
        (a, b)
    }

    fn wire(a: &Arc<Pml>, b: &Arc<Pml>, cid_a: u16, cid_b: u16, excid: Option<ExCid>) {
        let eps = vec![a.endpoint.id(), b.endpoint.id()];
        let fixed_a = excid.is_none().then_some(cid_a);
        let fixed_b = excid.is_none().then_some(cid_b);
        a.register_comm(cid_a, 0, eps.clone(), excid, fixed_a);
        b.register_comm(cid_b, 1, eps, excid, fixed_b);
    }

    fn pump(pml: &Arc<Pml>) {
        for _ in 0..50 {
            pml.progress(Some(Duration::from_millis(1)));
        }
    }

    #[test]
    fn eager_send_recv_fixed_cid() {
        let (a, b) = pair();
        wire(&a, &b, 5, 5, None); // consensus-style: same cid both sides
        let req = b.irecv(5, Some(0), Some(9)).unwrap();
        let sreq = a.isend(5, 1, 9, Bytes::from_static(b"hello")).unwrap();
        assert!(sreq.is_done(), "eager send completes immediately");
        pump(&b);
        let st = req.status_snapshot().expect("matched");
        assert_eq!(st.source, 0);
        assert_eq!(st.tag, 9);
        assert_eq!(st.len, 5);
        assert_eq!(a.stats().eager_sent, 1);
        assert_eq!(a.stats().ext_sent, 0);
    }

    #[test]
    fn excid_first_message_parks_until_comm_registered() {
        let fabric = Fabric::new(simnet::CostModel::zero());
        let a = Pml::new(Arc::new(fabric.register(NodeId(0))));
        let b = Pml::new(Arc::new(fabric.register(NodeId(0))));
        let excid = Some(ExCid::from_pgcid(777));
        let eps = vec![a.endpoint.id(), b.endpoint.id()];
        // Only A registers; B hasn't created the communicator yet.
        a.register_comm(3, 0, eps.clone(), excid, None);
        a.isend(3, 1, 1, Bytes::from_static(b"early")).unwrap();
        // B receives the EXT message for an unknown exCID: it must park.
        pump(&b);
        assert_eq!(b.state.lock().pending_ext.len(), 1);
        // Late registration drains the parked message into matching.
        b.register_comm(9, 1, eps, excid, None);
        assert_eq!(b.state.lock().pending_ext.len(), 0);
        let req = b.irecv(9, Some(0), Some(1)).unwrap();
        pump(&b);
        assert!(req.is_done(), "parked message matched after registration");
    }

    #[test]
    fn cid_ack_switches_sender_to_compact() {
        let (a, b) = pair();
        let excid = Some(ExCid::from_pgcid(42));
        wire(&a, &b, 2, 7, excid); // different local cids, as sessions allow
        assert!(!a.peer_switched(2, 1));
        a.isend(2, 1, 0, Bytes::from_static(b"x")).unwrap();
        pump(&b); // B matches (unexpected), sends CidAck
        pump(&a); // A absorbs the ack
        assert!(a.peer_switched(2, 1), "ack must switch the peer mode");
        assert_eq!(b.stats().acks_sent, 1);
        // Subsequent sends are compact and carry B's local cid (7).
        a.isend(2, 1, 0, Bytes::from_static(b"y")).unwrap();
        assert_eq!(a.stats().ext_sent, 1);
        assert_eq!(a.stats().eager_sent, 1);
        // And B, having learned A's cid from the EXT header, never EXTs back.
        assert!(b.peer_switched(7, 0));
    }

    #[test]
    fn handshake_spans_link_exactly_once_across_processes() {
        let (a, b) = pair();
        let excid = Some(ExCid::from_pgcid(42));
        wire(&a, &b, 2, 7, excid);
        a.isend(2, 1, 0, Bytes::from_static(b"x")).unwrap();
        a.isend(2, 1, 0, Bytes::from_static(b"y")).unwrap(); // ext fallback
        pump(&b); // B matches, emits handshake_recv, sends CidAck
        pump(&a); // A absorbs the ack, closing its handshake span
        let spans = a.endpoint.obs().spans_snapshot();
        let hs = spans
            .iter()
            .find(|s| s.name == "pml.handshake")
            .expect("sender handshake span");
        assert_eq!(hs.work, 2, "one unit per extended send");
        let recv = spans
            .iter()
            .find(|s| s.name == "pml.handshake_recv")
            .expect("receiver handshake span");
        assert_eq!(recv.links.len(), 1, "first ext send linked exactly once");
        assert_eq!(recv.links[0].span, hs.id);
        assert_eq!(recv.trace, hs.trace, "receiver joins the sender's trace");
        let total_links: usize = spans.iter().map(|s| s.links.len()).sum();
        assert_eq!(total_links, 1, "the handshake is the only cross-process link");
    }

    /// Drive the full handshake for comm (cid_a, cid_b): one send, B acks,
    /// A absorbs.
    fn complete_handshake(a: &Arc<Pml>, b: &Arc<Pml>, cid_a: u16) {
        a.isend(cid_a, 1, 0, Bytes::from_static(b"hs")).unwrap();
        pump(b);
        pump(a);
        assert!(a.peer_switched(cid_a, 1));
    }

    #[test]
    fn second_comm_from_cached_peer_skips_handshake() {
        let (a, b) = pair();
        wire(&a, &b, 10, 20, Some(ExCid::from_pgcid(100)));
        complete_handshake(&a, &b, 10);
        // Both sides now hold the peer endpoint in the handshake cache.
        assert!(a.cached_peer(b.endpoint.id()));
        assert!(b.cached_peer(a.endpoint.id()));
        // A second communicator over the same endpoints: registration
        // pushes CidAdverts both ways, so after absorbing them both sides
        // are in compact mode without a single extended-header send.
        wire(&a, &b, 11, 21, Some(ExCid::from_pgcid(101)));
        pump(&a);
        pump(&b);
        assert!(a.peer_switched(11, 1), "advert switched A without any send");
        assert!(b.peer_switched(21, 0), "advert switched B without any send");
        let obs = a.endpoint.obs();
        assert_eq!(obs.sum_counters("pml", "adverts_sent"), 2, "one advert each way");
        assert_eq!(obs.sum_counters("pml", "advert_hits"), 2, "both absorbed");
        // Traffic on the second comm is compact from the first message.
        let req = b.irecv(21, Some(0), Some(3)).unwrap();
        a.isend(11, 1, 3, Bytes::from_static(b"fast")).unwrap();
        pump(&b);
        assert!(req.is_done());
        assert_eq!(obs.sum_counters("pml", "ext_sent"), 1, "only comm 1's handshake");
        assert_eq!(obs.sum_counters("pml", "acks_sent"), 1, "no ack on comm 2");
        // Exactly one handshake span/event per side across BOTH comms.
        assert_eq!(obs.events_named("pml.handshake").len(), 2);
        let spans = obs.spans_snapshot();
        assert_eq!(spans.iter().filter(|s| s.name == "pml.handshake").count(), 1);
        assert_eq!(spans.iter().filter(|s| s.name == "pml.handshake_recv").count(), 1);
    }

    #[test]
    fn retired_peer_invalidation_forces_fresh_handshake() {
        // A peer that *retires* (graceful drain) never fails a send, so the
        // automatic failed-send eviction does not fire; the rebuild path
        // calls invalidate_peer explicitly. A communicator registered after
        // the invalidation must NOT trust the cache: no advert goes out, and
        // the extended-header handshake runs again from scratch.
        let (a, b) = pair();
        wire(&a, &b, 10, 20, Some(ExCid::from_pgcid(100)));
        complete_handshake(&a, &b, 10);
        assert!(a.cached_peer(b.endpoint.id()));
        // B retires; both sides' rebuilds drop the departed pairing (a
        // rejoined incarnation starts with a fresh cache anyway).
        assert!(a.invalidate_peer(b.endpoint.id()), "entry was cached");
        assert!(!a.invalidate_peer(b.endpoint.id()), "second call is a no-op");
        assert!(b.invalidate_peer(a.endpoint.id()));
        assert!(!a.cached_peer(b.endpoint.id()));
        let obs = a.endpoint.obs();
        assert_eq!(obs.sum_counters("pml", "cache_invalidated"), 2);
        // A later communicator reaching the same endpoint pair starts from
        // AwaitAck and re-runs the extended-header handshake rather than
        // riding a stale CidAdvert.
        let adverts_before = obs.sum_counters("pml", "adverts_sent");
        wire(&a, &b, 11, 21, Some(ExCid::from_pgcid(101)));
        pump(&a);
        pump(&b);
        assert_eq!(
            obs.sum_counters("pml", "adverts_sent"),
            adverts_before,
            "no advert may ride an invalidated cache entry"
        );
        assert!(!a.peer_switched(11, 1), "A still awaits a real handshake");
        let ext_before = a.stats().ext_sent;
        let handshakes_before = obs.sum_counters("pml", "handshakes");
        a.isend(11, 1, 0, Bytes::from_static(b"again")).unwrap();
        assert_eq!(a.stats().ext_sent, ext_before + 1, "extended header re-sent");
        pump(&b);
        pump(&a);
        assert!(a.peer_switched(11, 1), "fresh handshake completed");
        assert!(
            obs.sum_counters("pml", "handshakes") > handshakes_before,
            "a full handshake ran again after invalidation"
        );
    }

    #[test]
    fn cache_eviction_bounds_entries_and_keys_rehandshakes_by_generation() {
        let fabric = Fabric::new(simnet::CostModel::zero());
        let a = Pml::new(Arc::new(fabric.register(NodeId(0))));
        let b = Pml::new(Arc::new(fabric.register(NodeId(0))));
        let c = Pml::new(Arc::new(fabric.register(NodeId(0))));
        a.set_handshake_cache_cap(1);
        b.set_handshake_cache_cap(1);
        let reg = |x: &Arc<Pml>, y: &Arc<Pml>, cx: u16, cy: u16, pgcid: u64| {
            let eps = vec![x.endpoint.id(), y.endpoint.id()];
            x.register_comm(cx, 0, eps.clone(), Some(ExCid::from_pgcid(pgcid)), None);
            y.register_comm(cy, 1, eps, Some(ExCid::from_pgcid(pgcid)), None);
        };
        // Comm 1: A↔B, full handshake; both caches hold one entry.
        reg(&a, &b, 10, 20, 100);
        complete_handshake(&a, &b, 10);
        assert_eq!(a.handshake_cache_len(), 1);
        a.unregister_comm(10);
        b.unregister_comm(20);
        // A↔C and B↔C handshakes evict the A↔B pairing on both sides
        // (cap = 1, LRU).
        reg(&a, &c, 11, 30, 101);
        complete_handshake(&a, &c, 11);
        reg(&b, &c, 12, 31, 103);
        complete_handshake(&b, &c, 12);
        assert!(!a.cached_peer(b.endpoint.id()), "B evicted from A's cache");
        assert!(!b.cached_peer(a.endpoint.id()), "A evicted from B's cache");
        assert_eq!(a.handshake_cache_len(), 1, "cache stays at its cap");
        let obs = a.endpoint.obs();
        assert!(obs.sum_counters("pml", "cache_evicted") >= 2);
        assert_eq!(
            obs.gauge_value(&a.endpoint.id().to_string(), "pml", "cache_entries"),
            1
        );
        // Comm 3 reuses PGCID 100 (a recycled identifier): with the cache
        // entry gone, a *fresh* extended-header handshake must run...
        reg(&a, &b, 13, 23, 100);
        assert!(!a.peer_switched(13, 1), "no advert may ride an evicted entry");
        a.isend(13, 1, 0, Bytes::from_static(b"again")).unwrap();
        pump(&b);
        pump(&a);
        assert!(a.peer_switched(13, 1));
        // ...and the repeated (pgcid, derivation, peer) key is legal
        // precisely because the cache generation moved between the two
        // events — the uniqueness invariant keys on it.
        let my = a.endpoint.id().to_string();
        let keys: Vec<(u64, u64, u64, u64)> = obs
            .events_named("pml.handshake")
            .iter()
            .filter(|e| e.process == my)
            .map(|e| {
                let g = |k: &str| {
                    e.attrs
                        .iter()
                        .find(|(n, _)| n == k)
                        .and_then(|(_, v)| v.as_u64())
                        .unwrap()
                };
                (g("pgcid"), g("derivation"), g("peer"), g("cache_gen"))
            })
            .collect();
        let dup_without_gen = keys
            .iter()
            .filter(|(p, d, r, _)| (*p, *d, *r) == (100, 0, 1))
            .count();
        assert_eq!(dup_without_gen, 2, "PGCID reuse re-handshakes the same peer");
        let mut with_gen = keys.clone();
        with_gen.sort_unstable();
        with_gen.dedup();
        assert_eq!(with_gen.len(), keys.len(), "generation disambiguates every handshake");
    }

    #[test]
    fn advert_racing_registration_parks_then_applies() {
        let (a, b) = pair();
        wire(&a, &b, 10, 20, Some(ExCid::from_pgcid(100)));
        complete_handshake(&a, &b, 10);
        // Only A registers the second comm; its advert reaches B before B
        // knows the exCID and must park.
        let e2 = Some(ExCid::from_pgcid(101));
        let eps = vec![a.endpoint.id(), b.endpoint.id()];
        a.register_comm(11, 0, eps.clone(), e2, None);
        pump(&b);
        assert_eq!(b.state.lock().pending_advert.len(), 1, "advert parked");
        // Late registration drains the parked advert into the route.
        b.register_comm(21, 1, eps, e2, None);
        assert!(b.state.lock().pending_advert.is_empty());
        assert!(b.peer_switched(21, 0), "parked advert applied on registration");
    }

    #[test]
    fn failed_advert_send_invalidates_cache() {
        let fabric = Fabric::new(simnet::CostModel::zero());
        let a = Pml::new(Arc::new(fabric.register(NodeId(0))));
        let b = Pml::new(Arc::new(fabric.register(NodeId(0))));
        wire(&a, &b, 10, 20, Some(ExCid::from_pgcid(100)));
        complete_handshake(&a, &b, 10);
        assert!(a.cached_peer(b.endpoint.id()));
        // B dies between the two communicators (a chaos kill): the advert
        // send fails and the stale cache entry is dropped.
        fabric.kill(b.endpoint.id());
        let eps = vec![a.endpoint.id(), b.endpoint.id()];
        a.register_comm(11, 0, eps, Some(ExCid::from_pgcid(101)), None);
        assert!(!a.cached_peer(b.endpoint.id()), "dead peer evicted from cache");
        assert_eq!(a.endpoint.obs().counter_value(&a.endpoint.id().to_string(), "pml", "adverts_sent"), 0);
    }

    #[test]
    fn rendezvous_protocol_full_cycle() {
        let (a, b) = pair();
        wire(&a, &b, 4, 4, None);
        a.set_eager_limit(64);
        let big = Bytes::from(vec![0x7fu8; 1000]);
        let sreq = a.isend(4, 1, 2, big.clone()).unwrap();
        assert!(!sreq.is_done(), "rendezvous send must await CTS");
        assert_eq!(a.stats().rts_sent, 1);
        let rreq = b.irecv(4, Some(0), Some(2)).unwrap();
        // Drive both sides: B matches RTS -> CTS -> A sends data -> B done.
        for _ in 0..20 {
            a.progress(Some(Duration::from_millis(1)));
            b.progress(Some(Duration::from_millis(1)));
            if rreq.is_done() && sreq.is_done() {
                break;
            }
        }
        assert!(sreq.is_done());
        assert!(rreq.is_done());
        assert_eq!(rreq.status_snapshot().unwrap().len, 1000);
    }

    #[test]
    fn unknown_fixed_ctx_parks_until_registration() {
        let (a, b) = pair();
        let eps = vec![a.endpoint.id(), b.endpoint.id()];
        a.register_comm(6, 0, eps.clone(), None, Some(6));
        a.isend(6, 1, 0, Bytes::from_static(b"racy")).unwrap();
        pump(&b);
        assert_eq!(b.state.lock().pending_ctx.len(), 1);
        b.register_comm(6, 1, eps, None, Some(6));
        let req = b.irecv(6, None, None).unwrap();
        pump(&b);
        assert!(req.is_done());
    }

    #[test]
    fn unregister_then_reset_clears_state() {
        let (a, b) = pair();
        wire(&a, &b, 1, 1, None);
        assert!(a.state.lock().routes.contains_key(&1));
        a.unregister_comm(1);
        assert!(!a.state.lock().routes.contains_key(&1));
        b.reset();
        assert!(b.state.lock().routes.is_empty());
        assert!(b.irecv(1, None, None).is_err(), "reset engine rejects old cids");
    }

    #[test]
    fn send_on_unknown_comm_errors() {
        let (a, _b) = pair();
        assert!(a.isend(99, 0, 0, Bytes::new()).is_err());
        assert!(a.irecv(99, None, None).is_err());
    }

    #[test]
    fn send_to_out_of_range_rank_errors() {
        let (a, b) = pair();
        wire(&a, &b, 1, 1, None);
        assert!(a.isend(1, 5, 0, Bytes::new()).is_err());
    }
}
