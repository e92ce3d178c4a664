//! Matching: posted receives against arrived messages, one predicate and
//! one delivery for both directions (receive posted first, or message
//! arrived first).

use super::*;

/// The matching predicate (`None` = wildcard).
fn matches(want_src: Option<u32>, want_tag: Option<i32>, src: u32, tag: i32) -> bool {
    want_src.is_none_or(|s| s == src) && want_tag.is_none_or(|t| t == tag)
}

impl Pml {
    /// Hand `msg` to the receive `req` that matched it: an eager message
    /// completes the request; an RTS records the match metadata, registers
    /// the receive under a fresh request id and returns the CTS that asks
    /// the sender for the payload.
    fn deliver(
        rdv: &mut Rendezvous,
        req: &Arc<ReqInner>,
        msg: Arrived,
    ) -> Option<(EndpointId, Cts)> {
        let status = |len| Status { source: msg.src as i32, tag: msg.tag, len };
        match msg.body {
            Body::Eager(data) => {
                req.complete_recv(status(data.len()), data);
                None
            }
            Body::Rts { size, send_req, src_ep } => {
                let recv_req = rdv.fresh_id();
                req.set_status(status(size as usize));
                rdv.recvs.insert(recv_req, req.clone());
                Some((src_ep, Cts { send_req, recv_req }))
            }
        }
    }

    /// Non-blocking receive on communicator `local_cid`. `src`/`tag`
    /// `None` = wildcard.
    pub fn irecv(
        &self,
        local_cid: u16,
        src: Option<u32>,
        tag: Option<i32>,
    ) -> Result<Arc<ReqInner>> {
        let req = ReqInner::new(ReqKind::Recv);
        let cts = {
            let mut st = self.state.lock();
            let PmlState { routes, rdv, .. } = &mut *st;
            let route = routes
                .get_mut(&local_cid)
                .ok_or_else(|| MpiError::new(ErrClass::Comm, "recv on unknown communicator"))?;
            // Search the unexpected queue first (in arrival order).
            let hit = route
                .unexpected
                .iter()
                .position(|u| matches(src, tag, u.src, u.tag))
                .and_then(|i| route.unexpected.remove(i));
            match hit {
                Some(msg) => Self::deliver(rdv, &req, msg),
                None => {
                    route.posted.push(Posted { src, tag, req: req.clone() });
                    None
                }
            }
        };
        if let Some((ep, cts)) = cts {
            self.send_control(ep, cts.encode());
        }
        Ok(req)
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

    /// Deliver a matched-protocol message to route `local_cid` (looked up
    /// by [`Pml::route_frame`], whose lock is handed over).
    pub(super) fn dispatch(
        &self,
        mut guard: MutexGuard<'_, PmlState>,
        local_cid: u16,
        msg: PendingMsg,
    ) {
        let PmlState { routes, cache, rdv, .. } = &mut *guard;
        let route = routes.get_mut(&local_cid).expect("route_frame found it under this lock");
        let src = msg.hdr.src as u32;
        // Passive lazy resolution: an incoming message carries the
        // sender's endpoint on its envelope — an Unresolved slot learns it
        // for free, no KVS fetch needed.
        if let Some(addr) = route.addrs.get_mut(src as usize) {
            if matches!(addr, PeerAddr::Unresolved(_)) {
                *addr = PeerAddr::Known(msg.src_ep);
                self.metrics
                    .obs
                    .counter(self.metrics.process, "pml", "lazy_passive_resolves")
                    .inc();
            }
        }
        let mut ack = None;
        if let Some(ext) = msg.ext {
            // Learn the sender's local CID for the reverse path.
            self.learn_cid(route, cache, src, ext.sender_cid, Via::Ext, msg.src_ep);
            if let Some(peer) = route.peers.get_mut(src as usize) {
                if !peer.acked_back {
                    peer.acked_back = true;
                    // Receiver-side handshake span, adopted into the
                    // sender's trace via the link to the extended
                    // send's context.
                    let mut hs = self.metrics.obs.span_with_parent(
                        self.metrics.process,
                        "pml.handshake_recv",
                        format_args!("{}.{}<-{}", ext.excid.pgcid, ext.excid.derivation, src),
                        None,
                    );
                    if let Some(c) = msg.ctx {
                        hs.link(c);
                    }
                    hs.add_work(1);
                    hs.end();
                    ack = Some(CidInfo {
                        excid: ext.excid,
                        cid: local_cid,
                        rank: route.my_rank,
                        incarnation: route.incarnation,
                    });
                    self.metrics.acks_sent.inc();
                }
            }
        }
        let arrived = Arrived {
            src,
            tag: msg.hdr.tag,
            body: match msg.rts {
                None => Body::Eager(msg.payload),
                Some(rts) => {
                    Body::Rts { size: rts.size, send_req: rts.send_req, src_ep: msg.src_ep }
                }
            },
        };
        // Match against posted receives, in post order.
        let hit = route
            .posted
            .iter()
            .position(|p| matches(p.src, p.tag, arrived.src, arrived.tag))
            .map(|i| route.posted.remove(i));
        let cts = match hit {
            Some(posted) => Self::deliver(rdv, &posted.req, arrived),
            None => {
                route.unexpected.push_back(arrived);
                None
            }
        };
        drop(guard);
        if let Some(info) = ack {
            self.send_control(msg.src_ep, info.encode(MsgKind::CidAck));
        }
        if let Some((ep, cts)) = cts {
            self.send_control(ep, cts.encode());
        }
    }
}
