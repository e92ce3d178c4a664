//! Routes: registering a communicator, the one lookup from an inbound
//! frame to its route (equal / ahead / behind incarnation, the parked
//! table), and the send path.

use super::*;

impl Pml {
    /// Register a communicator route. Without an exCID (consensus/WPM
    /// communicators) `local_cid` is globally agreed and addresses every
    /// peer from the start. exCID communicators pass their exCID and which
    /// incarnation of it this registration is, and start in extended mode —
    /// unless the handshake cache already covers a peer's endpoint, in
    /// which case a `CidAdvert` is pushed so both sides skip the
    /// extended-header exchange on this communicator. Peers whose fabric
    /// endpoint is still unknown (lazy init) are passed as
    /// [`PeerAddr::Unresolved`] and resolved on first contact; the
    /// handshake doubles as the passive resolution channel.
    pub fn register_comm(
        &self,
        local_cid: u16,
        my_rank: u32,
        addrs: Vec<PeerAddr>,
        excid: Option<(ExCid, u16)>,
    ) {
        let initial_mode = match excid {
            Some(_) => SendCid::AwaitAck,
            None => SendCid::Fixed(local_cid),
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
                        if rank as u32 != my_rank && st.cache.stamps.contains_key(ep) {
                            adverts.push(*ep);
                        }
                    }
                }
            }
            let route = Route {
                my_rank,
                peers: addrs
                    .iter()
                    .map(|_| PeerState {
                        mode: initial_mode,
                        acked_back: false,
                        ext_started: false,
                        send_seq: 0,
                        handshake: None,
                        eager: None,
                    })
                    .collect(),
                addrs,
                excid: excid.map(|(e, _)| e),
                incarnation: excid.map(|(_, i)| i).unwrap_or(0),
                posted: Vec::new(),
                unexpected: VecDeque::new(),
            };
            st.routes.insert(local_cid, route);
            // Frames that raced ahead of this registration.
            if let Some((e, _)) = excid {
                st.excid_map.insert(e, local_cid);
                replay.extend(st.parked.remove(&ParkKey::ExCid(e)).unwrap_or_default());
            }
            replay.extend(st.parked.remove(&ParkKey::Ctx(local_cid)).unwrap_or_default());
        }
        if let Some((excid, incarnation)) = excid {
            let ad = CidInfo { excid, cid: local_cid, rank: my_rank, incarnation };
            let bytes = Bytes::copy_from_slice(&ad.encode(MsgKind::CidAdvert));
            for ep in adverts {
                match self.sender.send(ep, bytes.clone()) {
                    Ok(()) => self.metrics.adverts_sent.inc(),
                    // The peer died since the handshake: forget it.
                    Err(_) => {
                        self.cache_remove(&mut self.state.lock().cache, ep);
                    }
                }
            }
        }
        for frame in replay {
            self.route_frame(frame);
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
            // Request ids and the cache generation carry on.
            *st = PmlState {
                rdv: Rendezvous { next_req_id: st.rdv.next_req_id, ..Default::default() },
                cache: HandshakeCache { gen: st.cache.gen + 1, ..Default::default() },
                ..Default::default()
            };
        }
        self.metrics.cache_entries.set(0);
        self.reset_lazy();
    }

    /// The one lookup from an inbound frame to its route. A compact frame
    /// names the receiver's local CID. An exCID-addressed frame also names
    /// the exCID's incarnation: equal to the registered route → deliver;
    /// behind it → the frame belongs to a communicator this process has
    /// already freed, drop and count; anything else (no route yet, or a
    /// route the sender is already one recycling ahead of) → park until
    /// `register_comm` replays it through here. Only messages and adverts
    /// can be ahead of their route: an ACK answers a frame that route sent,
    /// so one that finds no route has outlived it and is dropped as stale.
    pub(super) fn route_frame(&self, frame: Frame) {
        let mut st = self.state.lock();
        let (key, incarnation) = frame.addr();
        let registered = match key {
            ParkKey::Ctx(c) => st.routes.contains_key(&c).then_some((c, 0)),
            ParkKey::ExCid(e) => st.excid_map.get(&e).map(|c| (*c, st.routes[c].incarnation)),
        };
        let local_cid = match registered {
            Some((c, have)) if have == incarnation => c,
            // Incarnations count up (wrapping): a signed distance below
            // zero means the frame is older than the route.
            Some((_, have)) if (incarnation.wrapping_sub(have) as i16) < 0 => {
                self.metrics.stale_incarnation.inc();
                return;
            }
            None if matches!(frame, Frame::Cid { via: Via::Ack, .. }) => {
                self.metrics.stale_incarnation.inc();
                return;
            }
            _ => {
                st.parked.entry(key).or_default().push(frame);
                return;
            }
        };
        match frame {
            Frame::Msg(msg) => self.dispatch(st, local_cid, msg),
            Frame::Cid { via, info, src_ep } => {
                self.on_cid_frame(&mut st, local_cid, via, info, src_ep)
            }
        }
    }

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
        self.send(QueuedSend { local_cid, dst_rank, tag, payload, req: req.clone() })?;
        Ok(req)
    }

    /// The send path. A `Known` peer costs one pass under the state lock
    /// (header, sequence number, spans) and then the fabric send; an
    /// `Unresolved` one hands the send to the lazy queue, which re-enters
    /// here with the same request once the endpoint is known.
    pub(super) fn send(&self, qs: QueuedSend) -> Result<()> {
        let QueuedSend { local_cid, dst_rank, tag, ref payload, ref req } = qs;
        let eager = payload.len() <= self.eager_limit();
        let (dst_ep, head, trace_ctx) = {
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
                    let peer = p.clone();
                    drop(st);
                    return self.send_unresolved(peer, qs);
                }
            };
            let my_rank = route.my_rank;
            let peer = &mut route.peers[dst_rank as usize];
            let seq = peer.send_seq;
            peer.send_seq = peer.send_seq.wrapping_add(1);
            // An extended-header message is addressed by exCID, so its
            // match header's `ctx` is free to carry the incarnation.
            let (ctx, ext) = match peer.mode {
                SendCid::Fixed(c) | SendCid::Known(c) => (c, None),
                SendCid::AwaitAck => (
                    route.incarnation,
                    Some(ExtHeader {
                        excid: route.excid.expect("AwaitAck implies exCID"),
                        sender_cid: local_cid,
                    }),
                ),
            };
            // Causal bookkeeping: the handshake span's context rides only on
            // extended sends, so the receiver's `handshake_recv` span links
            // it exactly once per peer pair; compact traffic accumulates on
            // a bounded per-peer aggregate and keeps the thread's context.
            let trace_ctx = match &ext {
                Some(e) => {
                    // The first extended send to a peer initiates the
                    // handshake; any further ones are fallbacks while its
                    // ACK is in flight.
                    self.metrics.ext_sent.inc();
                    if std::mem::replace(&mut peer.ext_started, true) {
                        self.metrics.ext_fallback.inc();
                    }
                    let hs = peer.handshake.get_or_insert_with(|| {
                        self.metrics.obs.span(
                            self.metrics.process,
                            "pml.handshake",
                            format_args!("{}.{}->{}", e.excid.pgcid, e.excid.derivation, dst_rank),
                        )
                    });
                    hs.add_work(1);
                    Some(hs.context())
                }
                None => {
                    if eager {
                        self.metrics.eager_sent.inc();
                        let eg = peer.eager.get_or_insert_with(|| {
                            self.metrics.obs.span(
                                self.metrics.process,
                                "pml.eager",
                                format_args!("cid{local_cid}->{dst_rank}"),
                            )
                        });
                        eg.add_work(1);
                    }
                    obs::trace::current_context()
                }
            };
            let kind = match (eager, ext.is_some()) {
                (true, false) => MsgKind::Eager,
                (true, true) => MsgKind::EagerExt,
                (false, false) => MsgKind::Rts,
                (false, true) => MsgKind::RtsExt,
            };
            let hdr = MatchHeader { kind, flags: 0, ctx, src: my_rank as i32, tag, seq };
            let mut head = Vec::with_capacity(header::MATCH_HEADER_LEN + header::EXT_HEADER_LEN + 16);
            hdr.encode(&mut head);
            if let Some(e) = &ext {
                e.encode(&mut head);
            }
            if !eager {
                self.metrics.rts_sent.inc();
                let send_req = st.rdv.fresh_id();
                RtsInfo { size: payload.len() as u64, send_req }.encode(&mut head);
                let mut span = self.metrics.obs.span(
                    self.metrics.process,
                    "pml.rdv",
                    format_args!("cid{local_cid}:{send_req}"),
                );
                span.add_work(1);
                st.rdv.sends.insert(
                    send_req,
                    RdvSend {
                        payload: payload.clone(),
                        dst_ep,
                        req: req.clone(),
                        span: Some(span),
                    },
                );
                // A rendezvous send completes only when `dst_ep` answers
                // the RTS with a CTS; record the dependency so fault-aware
                // waits can fail fast if the destination dies first.
                req.set_waiting_on(dst_ep);
            }
            // Copied, not adopted: for a head of ≤ 48 bytes one allocation
            // (count + bytes) that the receiving thread frees is cheaper
            // than the two an adopted `Vec` would leave it.
            (dst_ep, Bytes::copy_from_slice(&head), trace_ctx)
        };
        let body = if eager { payload.clone() } else { Bytes::new() };
        let sent = self.sender.send_parts(dst_ep, head, body, trace_ctx);
        match sent {
            Ok(()) => {
                if eager {
                    // Buffered-eager semantics: the send buffer is owned by
                    // the fabric now; the request is complete.
                    req.complete_send(payload.len());
                }
            }
            Err(_) => {
                req.fail(MpiError::new(
                    ErrClass::ProcFailed,
                    format!("peer rank {dst_rank} is dead"),
                ));
                self.cache_remove(&mut self.state.lock().cache, dst_ep);
            }
        }
        Ok(())
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
