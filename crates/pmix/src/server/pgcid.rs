//! PGCID acquisition — one route for every waiter: local pool → in-flight
//! latch/backlog coalescer → one RM block request → delivery — plus the
//! RM-side allocator and the recycle-on-destruct path that feeds the pool.

use super::coll::CollOutcome;
use super::{GroupInfo, PmixServer};
use crate::wire::{AbortReason, OpId, ServerMsg};
use simnet::EndpointId;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

/// Coalescing state for RM block requests. At most one `PgcidRequest` is
/// outstanding per server: constructs that hit an empty pool while one is
/// in flight queue here and are served from the same (or a follow-up)
/// block grant, so K overlapping constructions cost ~ceil(K/block) RM
/// round trips instead of K.
#[derive(Default)]
pub(super) struct PgcidCtl {
    inflight: bool,
    backlog: VecDeque<PgcidWaiter>,
}

/// Who a PGCID grant is for. Both kinds take the same route — pool, then
/// the in-flight latch/backlog, then one RM block request — and differ
/// only in where the granted id is delivered.
#[derive(Clone)]
pub(super) enum PgcidWaiter {
    /// A group-construct collective led by this server.
    Op(OpId),
    /// The finalize step of a locally initiated invite/join construct,
    /// parked on its `CtlState::invite_pgcids` slot.
    Invite(String),
}

impl std::fmt::Display for PgcidWaiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PgcidWaiter::Op(op) => op.fmt(f),
            PgcidWaiter::Invite(name) => write!(f, "invite:{name}"),
        }
    }
}

impl PmixServer {
    /// PGCIDs currently parked in the local pool.
    pub fn pgcid_pool_len(&self) -> usize {
        self.pgcid_pool.lock().len()
    }

    /// Mutate the PGCID pool and publish its new occupancy.
    fn with_pool<R>(&self, f: impl FnOnce(&mut VecDeque<u64>) -> R) -> R {
        let mut pool = self.pgcid_pool.lock();
        let out = f(&mut pool);
        self.metrics.pgcid_pool_len.set(pool.len() as i64);
        out
    }

    /// Take the oldest pooled PGCID, if any.
    pub(super) fn take_pooled_pgcid(&self) -> Option<u64> {
        self.with_pool(|pool| pool.pop_front())
    }

    /// Lifecycle GC: a destructed group's PGCID is safe to hand to a future
    /// construct once no communicator can still be derived from it (the
    /// client layer guarantees that by running the destruct only when the
    /// last communicator of the family is freed). Exactly one server — the
    /// lead participant, lowest node among the destruct's surviving members
    /// — returns the id to its local pool, the same pool RM block grants
    /// feed, so the next construct led here reuses it without RM traffic.
    ///
    /// Skipped entirely when any construct-time member has been declared
    /// dead: per-server dead sets can briefly diverge during a failure, and
    /// leaking one id is always safe while recycling it twice (two live
    /// groups sharing a PGCID) never is.
    pub(super) fn maybe_recycle_pgcid(&self, info: &GroupInfo, out: &CollOutcome) {
        let Some(pgcid) = info.pgcid else { return };
        {
            let dead = self.dead.read();
            if info.members.iter().any(|m| dead.contains(m)) {
                return;
            }
        }
        let lead = out
            .members
            .iter()
            .filter_map(|m| self.registry.locate(m).ok().map(|e| e.node))
            .min();
        if lead != Some(self.node) {
            return;
        }
        self.with_pool(|pool| pool.push_back(pgcid));
        self.metrics.pgcid_recycled.inc();
        self.metrics.obs.event(
            &self.metrics.process,
            "pmix",
            "pgcid.recycled",
            vec![("pgcid".into(), pgcid.into())],
        );
    }

    /// RM-side block allocation: reserve `count` consecutive ids and
    /// account every one of them immediately, so the PGCID accounting
    /// invariant (ids exposed ⊆ ids allocated) holds even while pooled
    /// surplus ids sit unused on the requesting server. The allocation is
    /// recorded as a `pgcid.alloc` span on this (RM) server, linked to the
    /// requesting server's context.
    fn rm_allocate_pgcid_block(
        &self,
        count: u64,
        req_ctx: Option<obs::TraceContext>,
    ) -> (u64, Option<obs::TraceContext>) {
        self.metrics.pgcid_allocated.add(count);
        let pgcid = self
            .rm_next_pgcid
            .as_ref()
            .expect("PGCID requested from a non-RM server")
            .fetch_add(count, Ordering::Relaxed);
        let mut span = self.metrics.obs.span_with_parent(
            &self.metrics.process,
            "pgcid.alloc",
            &pgcid.to_string(),
            None,
        );
        if let Some(c) = req_ctx {
            span.link(c);
        }
        let ctx = span.context();
        span.end();
        (pgcid, Some(ctx))
    }

    /// Get a PGCID for `waiter` — the one acquisition route, shared by
    /// group-construct collectives (lead server, pool already missed under
    /// the caller's shard lock) and invite/join finalizes. If an RM request
    /// is already in flight from this server, queue behind it — the grant
    /// rides the same block and no second `pgcid.request` span opens.
    /// Otherwise take a pooled id, or pay the round trip for everyone who
    /// queues after.
    pub(super) fn acquire_pgcid_for(&self, waiter: &PgcidWaiter, parent: Option<obs::TraceContext>) {
        {
            let mut ctl = self.pgcid_ctl.lock();
            if ctl.inflight {
                ctl.backlog.push_back(waiter.clone());
                drop(ctl);
                match waiter {
                    PgcidWaiter::Op(op) => self.metrics.stage_event("pgcid.coalesced", op, vec![]),
                    PgcidWaiter::Invite(name) => self.metrics.obs.event(
                        &self.metrics.process,
                        "pmix",
                        "pgcid.coalesced",
                        vec![("op".into(), name.as_str().into()), ("kind".into(), "invite".into())],
                    ),
                }
                return;
            }
            // The pool may have refilled between the caller's check and
            // here (a reply races the shard lock); prefer it over a trip.
            if let Some(pgcid) = self.take_pooled_pgcid() {
                drop(ctl);
                self.metrics.pgcid_pool_hits.inc();
                self.deliver_pgcid(waiter, pgcid, None);
                return;
            }
            ctl.inflight = true;
        }
        self.send_pgcid_request(waiter, parent, 1);
    }

    /// Ship one RM block request on behalf of `waiter`. `demand` is how
    /// many queued waiters the grant must cover; the configured block size
    /// still floors the request, so pooling behavior is unchanged.
    fn send_pgcid_request(
        &self,
        waiter: &PgcidWaiter,
        parent: Option<obs::TraceContext>,
        demand: u64,
    ) {
        let Some(rm_ep) = self.registry.rm_endpoint() else {
            // No RM to ask: fail the waiter now rather than let it time out.
            self.pgcid_ctl.lock().inflight = false;
            match waiter {
                PgcidWaiter::Op(op_id) => {
                    let si = Self::ops_shard_of(op_id.kind, &op_id.name, op_id.mhash);
                    let mut st = self.ops_shards[si].state.lock();
                    self.fail_op_locked(&mut st, si, op_id, AbortReason::Timeout);
                }
                PgcidWaiter::Invite(name) => {
                    // A vanished slot tells the waiter no grant can come.
                    self.ctl.lock().invite_pgcids.remove(name);
                    self.ctl_cv.notify_all();
                }
            }
            return;
        };
        // The RM round-trip is the "relatively expensive operation" of
        // §III-B3 — it gets its own span, parented under the exchange
        // stage, so the critical path shows it.
        let req = self.metrics.obs.span_with_parent(
            &self.metrics.process,
            "pgcid.request",
            &waiter.to_string(),
            parent,
        );
        let req_ctx = req.context();
        let count = self.pgcid_block.load(Ordering::Relaxed).max(demand).max(1);
        let token = self.mint_token(0);
        self.pgcid_waiting.lock().insert(token, (waiter.clone(), req));
        if rm_ep == self.sender.id() {
            // We *are* the RM: allocate inline.
            let (pgcid, alloc_ctx) = self.rm_allocate_pgcid_block(count, Some(req_ctx));
            self.handle_ctx(ServerMsg::PgcidReply { token, pgcid, count }, alloc_ctx);
        } else {
            let msg = ServerMsg::PgcidRequest { reply_to: self.sender.id(), token, count };
            let _ = self.sender.send_ctx(rm_ep, msg.encode(), Some(req_ctx));
        }
    }

    /// Whether `waiter` can still take a grant (its op is not reaped / its
    /// invite finalize has not given up).
    fn pgcid_waiter_live(&self, waiter: &PgcidWaiter) -> bool {
        match waiter {
            PgcidWaiter::Op(op) => {
                let si = Self::ops_shard_of(op.kind, &op.name, op.mhash);
                self.ops_shards[si].state.lock().ops.contains_key(op)
            }
            PgcidWaiter::Invite(name) => self.ctl.lock().invite_pgcids.contains_key(name),
        }
    }

    /// Hand a granted id to `waiter`. An op records it, tells the peer
    /// servers and re-attempts completion; an invite finalize finds it in
    /// its slot. When the waiter is already gone (op aborted and reaped, or
    /// invite wait timed out, while the grant was in flight) the id goes
    /// back to the head of the pool — it is younger than anything pooled
    /// after it left — instead of leaking.
    fn deliver_pgcid(&self, waiter: &PgcidWaiter, pgcid: u64, ctx: Option<obs::TraceContext>) {
        let delivered = match waiter {
            PgcidWaiter::Invite(name) => {
                let filled = match self.ctl.lock().invite_pgcids.get_mut(name) {
                    Some(slot) => slot.replace(pgcid).is_none(),
                    None => false,
                };
                self.ctl_cv.notify_all();
                filled
            }
            PgcidWaiter::Op(op_id) => {
                let si = Self::ops_shard_of(op_id.kind, &op_id.name, op_id.mhash);
                let shard = &self.ops_shards[si];
                let peers = {
                    let mut st = shard.state.lock();
                    st.ops.get_mut(op_id).map(|op| {
                        op.pgcid = Some(pgcid);
                        if let Some(c) = ctx {
                            op.contrib_ctxs.push(c);
                        }
                        op.expected_servers.clone()
                    })
                };
                if let Some(peers) = &peers {
                    let msg = ServerMsg::CollPgcid { op: op_id.clone(), pgcid };
                    self.broadcast_ctx(peers, &msg, ctx);
                    self.try_complete(op_id);
                }
                shard.cv.notify_all();
                peers.is_some()
            }
        };
        if !delivered {
            self.with_pool(|pool| pool.push_front(pgcid));
        }
    }

    /// After a block grant lands: serve queued waiters from the pool; if
    /// demand outlives the grant, ship one follow-up request sized for
    /// everything still waiting (and keep the in-flight latch held).
    fn drain_pgcid_backlog(&self) {
        loop {
            let next = {
                let mut ctl = self.pgcid_ctl.lock();
                match ctl.backlog.pop_front() {
                    Some(waiter) => waiter,
                    None => {
                        ctl.inflight = false;
                        return;
                    }
                }
            };
            // A backlogged waiter may have aborted or given up meanwhile;
            // skip it without burning a pooled id or an RM trip.
            if !self.pgcid_waiter_live(&next) {
                continue;
            }
            match self.take_pooled_pgcid() {
                Some(pgcid) => {
                    // This waiter rode someone else's round trip: the
                    // counter tallies saved RM trips at delivery time (a
                    // queued waiter promoted to lead a follow-up request is
                    // counted as a request instead, never both).
                    self.metrics.pgcid_coalesced.inc();
                    self.deliver_pgcid(&next, pgcid, None);
                }
                None => {
                    let demand = 1 + self.pgcid_ctl.lock().backlog.len() as u64;
                    let parent = match &next {
                        PgcidWaiter::Op(op) => {
                            let si = Self::ops_shard_of(op.kind, &op.name, op.mhash);
                            self.ops_shards[si]
                                .state
                                .lock()
                                .ops
                                .get(op)
                                .and_then(|o| o.xchg.as_ref().map(|s| s.context()))
                        }
                        PgcidWaiter::Invite(_) => None,
                    };
                    self.send_pgcid_request(&next, parent, demand);
                    return;
                }
            }
        }
    }

    /// RM side: grant a block to the requesting server.
    pub(super) fn on_pgcid_request(
        &self,
        reply_to: EndpointId,
        token: u64,
        count: u64,
        ctx: Option<obs::TraceContext>,
    ) {
        let (pgcid, alloc_ctx) =
            self.rm_allocate_pgcid_block(count.max(1), ctx);
        let _ = self.sender.send_ctx(
            reply_to,
            ServerMsg::PgcidReply { token, pgcid, count: count.max(1) }.encode(),
            alloc_ctx,
        );
    }

    /// Requester side: a block grant landed.
    pub(super) fn on_pgcid_reply(
        &self,
        token: u64,
        pgcid: u64,
        count: u64,
        ctx: Option<obs::TraceContext>,
    ) {
        // Pool the block's surplus first, so a construct racing this
        // handler can already hit the pool.
        self.with_pool(|pool| pool.extend((pgcid + 1)..(pgcid + count)));
        let waiting = self.pgcid_waiting.lock().remove(&token);
        if let Some((waiter, mut req_span)) = waiting {
            // Close the RM round-trip span, linking the RM's
            // allocation as its causal predecessor.
            if let Some(c) = ctx {
                req_span.link(c);
            }
            let req_ctx = Some(req_span.context());
            req_span.end();
            // Repools the lead id if the waiter aborted or gave up
            // while the grant was in flight.
            self.deliver_pgcid(&waiter, pgcid, req_ctx);
            // Serve everything that queued behind this round trip.
            self.drain_pgcid_backlog();
        }
    }
}
