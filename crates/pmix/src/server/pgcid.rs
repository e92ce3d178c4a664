//! PGCID acquisition — one route for every waiter: local pool → in-flight
//! latch/backlog coalescer → one RM block request → delivery — plus the
//! RM-side allocator and the release path that feeds recycled ids back
//! into the pool.
//!
//! # Release and recycling
//!
//! Destroying a group is local. Each member releases it at its own server
//! ([`PmixServer::group_release`]); a member that dies counts as released.
//! When every local member is released, the server drops the group and
//! reports once to the group's *lead*, the lowest node of the
//! construct-time server set (inline when it is the lead, else one
//! [`ServerMsg::GroupReleased`]). The lead tallies reports per PGCID and
//! recycles the id when every member server has reported. Only the lead
//! decides, so no two servers can disagree about recycling.
//!
//! A report travels on the same server→lead fabric pair as that server's
//! next construct contribution. Per-pair FIFO therefore makes the lead count
//! it before any later construct among the same members can ask the pool.
//!
//! Two cases leak the PGCID, which is safe: a member server whose locals
//! all died before any of them observed the construct never recorded the
//! group, so it never reports; and a live member that dropped its construct
//! handle unobserved never holds the group to release it. Once any other
//! member server has reported, the lead's pending tally names the servers
//! still missing in the flight recorder ([`PmixServer::pending_releases`]).
//!
//! A recycled id comes back one *generation* later (see [`pgcid_base`]):
//! the exCIDs of the family that reuses it differ from the freed family's,
//! so a frame of the freed family still in flight can never match on its
//! successor.

use super::{CtlState, GroupInfo, GroupKey, PmixServer, ReleaseTally};
use crate::group::PmixGroup;
use crate::types::ProcId;
use crate::wire::{membership_hash, AbortReason, OpId, ServerMsg};
use simnet::{EndpointId, NodeId};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::Ordering;

/// First bit of a PGCID's *generation*. The bits below it are the id the
/// RM allocated; bits `PGCID_GENERATION_SHIFT..=62` count how often a lead
/// recycled that id. Bit 63 stays clear: it marks the hashed PGCIDs of
/// lazy communicators.
const PGCID_GENERATION_SHIFT: u32 = 40;

/// The RM-allocated id under `pgcid`, whatever its generation: bits 40–62
/// of a PGCID count how often a lead recycled the id below them.
pub fn pgcid_base(pgcid: u64) -> u64 {
    pgcid & ((1 << PGCID_GENERATION_SHIFT) - 1)
}

/// `pgcid` one generation later: what a lead pools when it recycles
/// `pgcid`. The generation wraps inside its bits.
fn next_generation(pgcid: u64) -> u64 {
    const GENERATIONS: u64 = 1 << (63 - PGCID_GENERATION_SHIFT);
    let generation = ((pgcid >> PGCID_GENERATION_SHIFT) + 1) % GENERATIONS;
    pgcid_base(pgcid) | generation << PGCID_GENERATION_SHIFT
}

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

    /// The members of `members` homed on this server's node.
    pub(super) fn locals_of(&self, members: &[ProcId]) -> Vec<ProcId> {
        members
            .iter()
            .filter(|m| self.registry.locate(m).is_ok_and(|e| e.node == self.node))
            .cloned()
            .collect()
    }

    /// `me` releases `group` (the server half of
    /// [`crate::PmixClient::group_destruct`]). Returns at once: nothing here
    /// waits on another member. A group this server holds no record of —
    /// never observed here, or already released — is ignored.
    pub(crate) fn group_release(&self, group: &PmixGroup, me: &ProcId) {
        let _turn = simnet::turn();
        let key = (group.name().to_owned(), membership_hash(group.members()));
        let done = {
            let mut ctl = self.ctl.lock();
            let Some(info) = ctl.groups.get_mut(&key) else { return };
            if !info.released.contains(me) {
                info.released.push(me.clone());
            }
            self.take_released(&mut ctl, &key)
        };
        if let Some(info) = done {
            self.report_release(&info);
        }
    }

    /// A dead member counts as released: drop and report every group whose
    /// locals `proc`'s death leaves all released or dead.
    pub(super) fn release_dead_member(&self, proc: &ProcId) {
        let done: Vec<GroupInfo> = {
            let mut ctl = self.ctl.lock();
            let keys: Vec<GroupKey> = ctl
                .groups
                .iter()
                .filter(|(_, info)| info.locals.contains(proc))
                .map(|(key, _)| key.clone())
                .collect();
            keys.iter().filter_map(|key| self.take_released(&mut ctl, key)).collect()
        };
        for info in &done {
            self.report_release(info);
        }
    }

    /// Remove and return group `key` once each of its locals has released
    /// it or died.
    fn take_released(&self, ctl: &mut CtlState, key: &GroupKey) -> Option<GroupInfo> {
        let info = ctl.groups.get(key)?;
        let done = {
            let dead = self.dead.read();
            info.locals.iter().all(|p| info.released.contains(p) || dead.contains(p))
        };
        if done {
            ctl.groups.remove(key)
        } else {
            None
        }
    }

    /// This server is done with a group: count it at the lead — inline when
    /// that is this server. A plain group has no PGCID and nothing to count.
    fn report_release(&self, info: &GroupInfo) {
        let (Some(pgcid), Some(&lead)) = (info.pgcid, info.servers.first()) else { return };
        if lead == self.node {
            self.on_group_released(pgcid, self.node, info.servers.clone());
        } else if let Some(ep) = self.registry.server_of(lead) {
            let msg = ServerMsg::GroupReleased {
                pgcid,
                from_node: self.node.0,
                servers: info.servers.iter().map(|n| n.0).collect(),
            };
            let _ = self.sender.send(ep, msg.encode());
        }
    }

    /// Lead side: server `from` released `pgcid`. The id is recycled once
    /// every server of the construct-time set `servers` has reported —
    /// exactly once, because the tally goes with it. A report the fabric
    /// duplicated changes nothing: before the recycle the tally already
    /// holds `from`, and after it the id's next generation sits in the
    /// pool.
    pub(super) fn on_group_released(&self, pgcid: u64, from: NodeId, servers: BTreeSet<NodeId>) {
        if self.pgcid_pool.lock().contains(&next_generation(pgcid)) {
            return;
        }
        let complete = {
            let mut ctl = self.ctl.lock();
            let tally = ctl
                .releases
                .entry(pgcid)
                .or_insert_with(|| ReleaseTally { servers, heard: BTreeSet::new() });
            tally.heard.insert(from);
            let complete = tally.servers.is_subset(&tally.heard);
            if complete {
                ctl.releases.remove(&pgcid);
            }
            complete
        };
        if complete {
            // The same pool RM block grants feed, so the next construct led
            // here reuses the id without RM traffic.
            self.with_pool(|pool| pool.push_back(next_generation(pgcid)));
            self.metrics.pgcid_recycled.inc();
            self.metrics.obs.event(
                &self.metrics.process,
                "pmix",
                "pgcid.recycled",
                vec![("pgcid".into(), pgcid.into())],
            );
        }
    }

    /// Release tallies this server leads that still wait on member servers,
    /// as `(pgcid, nodes heard)`, ascending by PGCID (flight-recorder
    /// snapshots: a PGCID stuck here names the servers that never reported).
    pub fn pending_releases(&self) -> Vec<(u64, Vec<NodeId>)> {
        self.ctl
            .lock()
            .releases
            .iter()
            .map(|(pgcid, tally)| (*pgcid, tally.heard.iter().copied().collect()))
            .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::PmixUniverse;
    use simnet::SimTestbed;

    #[test]
    fn generations_keep_the_id_and_never_set_bit_63() {
        let top = (1u64 << 63) - 1; // the last generation of the largest id
        assert_eq!(pgcid_base(next_generation(42)), 42);
        assert_ne!(next_generation(42), 42);
        assert_eq!(next_generation(top), pgcid_base(top), "the generation wraps to 0");
        assert_eq!(next_generation(top) >> 63, 0);
    }

    /// Two member servers: the first report leaves the pool alone, the
    /// second recycles the id exactly once, one generation later, and a
    /// duplicate — before or after the recycle — changes nothing.
    #[test]
    fn lead_recycles_once_every_member_server_reported() {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        let lead = uni.server(NodeId(0)).unwrap();
        let recycled = || uni.fabric().obs().sum_counters("pmix", "pgcid_recycled");
        let report = |from: u32| {
            lead.handle(ServerMsg::GroupReleased { pgcid: 42, from_node: from, servers: vec![0, 1] })
        };
        report(1);
        report(1);
        assert_eq!((lead.pgcid_pool_len(), recycled()), (0, 0));
        assert_eq!(lead.pending_releases(), vec![(42, vec![NodeId(1)])]);
        report(0);
        assert_eq!((lead.pgcid_pool_len(), recycled()), (1, 1));
        assert!(lead.pending_releases().is_empty());
        report(1);
        assert_eq!((lead.pgcid_pool_len(), recycled()), (1, 1));
        assert!(lead.pending_releases().is_empty(), "a late duplicate opens no tally");
        assert_eq!(lead.take_pooled_pgcid(), Some(next_generation(42)));
    }
}
