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
//! `CidAdvert` (this exCID → my local CID) to every cached peer in the new
//! communicator. A peer that absorbs the advert starts in `Known` mode —
//! no extended header, no `CidAck`, no `pml.handshake` event — so only the
//! *first* communicator between an endpoint pair pays the handshake. A
//! failed advert send means the peer died; the cache entry is dropped so a
//! later incarnation is never trusted stale.
//!
//! # Incarnations
//!
//! A derived exCID is recycled when its communicator is freed, and `free`
//! is local: one rank can already run the next registration of an exCID
//! while its peer still holds the previous one. Every registration
//! therefore carries a rank-symmetric **incarnation** number, and every
//! frame addressed by exCID (extended-header messages, `CidAck`,
//! `CidAdvert`) names the incarnation it belongs to. The one lookup that
//! maps an inbound frame to a route (`route_frame` in `route.rs`) delivers
//! on equal incarnations, parks a frame that is ahead of the registered
//! route until that incarnation registers, and drops one that is behind,
//! counting `pml.stale_incarnation`. DESIGN.md §16 ("How a message finds
//! its communicator") has the state diagram.
//!
//! # Layout
//!
//! This file holds the engine's data model, the progress loop and the
//! frame decoder; behaviour lives by concern in `route` (registration,
//! the frame → route lookup, the send path), `matching` (posted receives
//! against arrived messages), `handshake` (the one "learn the peer's CID"
//! transition and the handshake cache), `rdv` (CTS → payload), `lazy`
//! (on-demand endpoint resolution) and [`header`] (every wire codec — of
//! heads only: a payload is the fabric envelope's body, the caller's
//! `Bytes` by handle, copied once at the `&[u8]` boundary in `Comm::isend`
//! and never between `Pml::isend` and `Request::wait_data`; `tests.rs`
//! pins the pointer identity on every path).

pub mod header;
mod handshake;
mod lazy;
mod matching;
mod rdv;
mod route;
#[cfg(test)]
mod tests;

pub use handshake::PmlCacheSnapshot;
pub use lazy::ResolveStatus;

use crate::cid::ExCid;
use crate::error::{ErrClass, MpiError, Result};
use crate::request::{ReqInner, ReqKind};
use crate::status::Status;
use bytes::Bytes;
use lazy::LazyState;
use header::{CidInfo, Cts, ExtHeader, MatchHeader, MsgKind, RdvData, RtsInfo};
use parking_lot::{Mutex, MutexGuard};
use simnet::{Endpoint, EndpointId, EndpointSender, RecvError};
use std::collections::{HashMap, VecDeque};
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
    /// Sender-side handshake span: opened with the first extended-header
    /// send to this peer, closed when the peer's CID is learned. Its
    /// context rides only on extended sends, so a handshake produces
    /// exactly one cross-process link (ext → handshake_recv).
    handshake: Option<obs::Span>,
    /// Aggregate span for compact eager traffic to this peer (one span per
    /// (cid, peer), work = messages — bounded regardless of message count).
    eager: Option<obs::Span>,
}

struct Route {
    my_rank: u32,
    addrs: Vec<PeerAddr>,
    excid: Option<ExCid>,
    /// Which registration of `excid` this route is (0 unless the exCID is
    /// a recycled derived subfield).
    incarnation: u16,
    posted: Vec<Posted>,
    unexpected: VecDeque<Arrived>,
    peers: Vec<PeerState>,
}

/// What an inbound frame is addressed to — and so what it waits for when
/// no matching route is registered yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ParkKey {
    ExCid(ExCid),
    Ctx(u16),
}

/// An inbound frame that is routed to a communicator (and may have to
/// wait for one): a matched-protocol message, or a `CidAck`/`CidAdvert`.
enum Frame {
    Msg(PendingMsg),
    Cid { via: Via, info: CidInfo, src_ep: EndpointId },
}

impl Frame {
    /// The route key the frame names, plus its incarnation (exCID-addressed
    /// frames only; compact frames name the receiver's live local CID).
    fn addr(&self) -> (ParkKey, u16) {
        match self {
            Frame::Msg(m) => match m.ext {
                Some(ext) => (ParkKey::ExCid(ext.excid), m.hdr.ctx),
                None => (ParkKey::Ctx(m.hdr.ctx), 0),
            },
            Frame::Cid { info, .. } => (ParkKey::ExCid(info.excid), info.incarnation),
        }
    }
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

struct Posted {
    src: Option<u32>,
    tag: Option<i32>,
    req: Arc<ReqInner>,
}

enum Body {
    Eager(Bytes),
    Rts { size: u64, send_req: u64, src_ep: EndpointId },
}

/// A message that reached its communicator: queued as unexpected, or
/// handed straight to a posted receive.
struct Arrived {
    src: u32,
    tag: i32,
    body: Body,
}

struct RdvSend {
    payload: Bytes,
    dst_ep: EndpointId,
    req: Arc<ReqInner>,
    /// Per-transfer rendezvous span: RTS → CTS → data send.
    span: Option<obs::Span>,
}

/// Rendezvous transfers in flight, keyed by the request ids RTS/CTS carry.
#[derive(Default)]
struct Rendezvous {
    next_req_id: u64,
    sends: HashMap<u64, RdvSend>,
    recvs: HashMap<u64, Arc<ReqInner>>,
}

impl Rendezvous {
    fn fresh_id(&mut self) -> u64 {
        self.next_req_id += 1;
        self.next_req_id - 1
    }
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

/// How a peer's local CID was learned (the `via` of `pml.handshake`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    /// The peer's `CidAck` answered our extended header.
    Ack,
    /// The peer's own extended header named its CID.
    Ext,
    /// The peer pushed a `CidAdvert` from its handshake cache.
    Advert,
}

/// Handshake cache: peer endpoints a CID handshake has completed with (on
/// any communicator), each stamped with when it was last confirmed.
/// Entries are dropped when a send to the endpoint fails (chaos kills
/// invalidate them) and evicted least-recently-confirmed once the cache
/// exceeds its cap.
#[derive(Default)]
struct HandshakeCache {
    stamps: HashMap<EndpointId, u64>,
    clock: u64,
    /// Generation: bumped on *every* removal (eviction, failed-send drop,
    /// explicit invalidation, reset). Carried on `pml.handshake` events so
    /// the uniqueness invariant can tell a legal re-handshake (some entry
    /// was removed in between) from a double-handshake bug (same
    /// generation).
    gen: u64,
}

#[derive(Default)]
struct PmlState {
    routes: HashMap<u16, Route>,
    excid_map: HashMap<ExCid, u16>,
    /// Frames that arrived before the route they name was registered, in
    /// arrival order; `register_comm` replays them through the same
    /// lookup that parked them.
    parked: HashMap<ParkKey, Vec<Frame>>,
    rdv: Rendezvous,
    cache: HandshakeCache,
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
    /// exCID-addressed frames dropped because they belong to an earlier
    /// incarnation of the exCID than the one registered here (for an ACK
    /// that includes "none registered": the route it answers is gone).
    stale_incarnation: obs::Counter,
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
    process: obs::ProcKey,
}

impl PmlMetrics {
    fn new(endpoint: &Endpoint) -> Self {
        let obs = endpoint.obs();
        let process = obs.intern(&endpoint.id().to_string());
        let c = |name| obs.counter(process, "pml", name);
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
            stale_incarnation: c("stale_incarnation"),
            cache_invalidated: c("cache_invalidated"),
            cache_evicted: c("cache_evicted"),
            cache_entries: obs.gauge(process, "pml", "cache_entries"),
            obs,
            process,
        }
    }

    /// Record one completed handshake: the counter plus a `pml.handshake`
    /// event identifying the exCID, peer and cache generation, so an
    /// external checker can assert the exactly-once property per
    /// (process, excid, peer, generation) — a repeat is legal only after a
    /// cache removal bumped the generation.
    fn handshake(&self, excid: ExCid, peer: u32, via: &'static str, cache_gen: u64) {
        self.handshakes.inc();
        self.obs.event(
            self.process,
            "pml",
            "pml.handshake",
            vec![
                ("pgcid", excid.pgcid.into()),
                ("derivation", excid.derivation.into()),
                ("peer", (peer as u64).into()),
                ("via", obs::AttrValue::name(via)),
                ("cache_gen", cache_gen.into()),
            ],
        );
    }
}

/// The per-process messaging engine.
pub struct Pml {
    endpoint: Arc<Endpoint>,
    sender: EndpointSender,
    state: Mutex<PmlState>,
    eager_limit: AtomicUsize,
    cache_cap: AtomicUsize,
    metrics: PmlMetrics,
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
            state: Mutex::new(PmlState::default()),
            eager_limit: AtomicUsize::new(DEFAULT_EAGER_LIMIT),
            cache_cap: AtomicUsize::new(DEFAULT_HANDSHAKE_CACHE_CAP),
            metrics,
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

    /// The fabric under this process's endpoint (logical-deadline waits).
    pub fn fabric(&self) -> simnet::Fabric {
        self.endpoint.fabric()
    }

    /// This process's own fabric endpoint id (the business card the lazy
    /// init path publishes).
    pub fn endpoint_id(&self) -> EndpointId {
        self.endpoint.id()
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

    /// Send a control frame whose loss needs no handling: the peer it
    /// answers is dead, and whatever waited on the answer fails on its own.
    fn send_control(&self, ep: EndpointId, frame: Vec<u8>) {
        let _ = self.sender.send(ep, Bytes::copy_from_slice(&frame));
    }
}

impl Pml {
    /// Drain the mailbox. With `block`, waits up to that long for the first
    /// message if none is immediately available. Returns whether anything
    /// was processed.
    pub fn progress(&self, block: Option<Duration>) -> bool {
        let mut did = false;
        loop {
            let env = match self.endpoint.try_recv() {
                Ok(env) => env,
                // Nothing handled yet: wait for the first message, then
                // keep draining whatever arrived together with it.
                Err(RecvError::Empty) if !did => {
                    match block.and_then(|t| self.endpoint.recv_timeout(t).ok()) {
                        Some(env) => env,
                        None => break,
                    }
                }
                Err(_) => break, // drained, or endpoint killed
            };
            self.handle_bytes(env.src, env.payload, env.body, env.ctx);
            did = true;
        }
        did | self.progress_lazy()
    }

    /// Decode one frame's head and act on it; the body is passed on as is.
    /// A head that fails its codec's length check is dropped, never indexed.
    fn handle_bytes(
        &self,
        src_ep: EndpointId,
        head: Bytes,
        body: Bytes,
        ctx: Option<obs::TraceContext>,
    ) {
        self.metrics.handled.inc();
        let Some(&kind_byte) = head.first() else { return };
        let Some(kind) = MsgKind::from_u8(kind_byte) else { return };
        match kind {
            MsgKind::CidAck | MsgKind::CidAdvert => {
                if let Some(info) = CidInfo::decode_body(&head[1..]) {
                    let via = if kind == MsgKind::CidAck { Via::Ack } else { Via::Advert };
                    self.route_frame(Frame::Cid { via, info, src_ep });
                }
            }
            MsgKind::Cts => {
                if let Some(cts) = Cts::decode_body(&head[1..]) {
                    self.on_cts(cts);
                }
            }
            MsgKind::RdvData => {
                if let Some(rdv) = RdvData::decode_body(&head[1..]) {
                    self.on_rdv_data(rdv, body);
                }
            }
            MsgKind::Eager | MsgKind::EagerExt | MsgKind::Rts | MsgKind::RtsExt => {
                let Some((hdr, mut rest)) = MatchHeader::decode(&head) else { return };
                let mut ext = None;
                if kind.has_ext() {
                    let Some((e, r)) = ExtHeader::decode(rest) else { return };
                    ext = Some(e);
                    rest = r;
                }
                let mut rts = None;
                if matches!(kind, MsgKind::Rts | MsgKind::RtsExt) {
                    let Some((r, after)) = RtsInfo::decode(rest) else { return };
                    rts = Some(r);
                    rest = after;
                }
                if !rest.is_empty() {
                    return;
                }
                let msg = PendingMsg { hdr, ext, rts, payload: body, src_ep, ctx };
                self.route_frame(Frame::Msg(msg));
            }
        }
    }
}
