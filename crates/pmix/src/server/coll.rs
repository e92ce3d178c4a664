//! The three-stage hierarchical collective engine (paper §III-A) behind
//! fences and group constructs: local fan-in, server all-to-all, local
//! fan-out — plus the begin/poll/park handle local participants hold on an
//! in-flight op.

use super::pgcid::PgcidWaiter;
use super::{GroupInfo, OpState, OpsShard, PmixServer, EPOCH_RETENTION_CAP, SERVER_SHARDS};
use crate::error::{PmixError, Result};
use crate::group::GroupDirectives;
use crate::types::ProcId;
use crate::value::PmixValue;
use crate::wire::{membership_hash, AbortReason, Contribution, OpId, OpKind, ServerMsg};
use simnet::NodeId;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Outcome of a completed collective, as handed back to local clients.
#[derive(Debug, Clone)]
pub struct CollOutcome {
    /// Union of all contributions' members, sorted, dead members removed.
    pub members: Vec<ProcId>,
    /// PGCID if one was requested.
    pub pgcid: Option<u64>,
    /// Context of the server's `group.fanout` span: clients link it so the
    /// release edge of the collective is visible in the span DAG.
    pub ctx: Option<obs::TraceContext>,
}

/// One participant's handle on an in-flight collective, returned by
/// [`PmixServer::coll_begin`]. The fan-in has already happened; the handle
/// tracks when *this* waiter observes the outcome. Exactly one of
/// [`PmixServer::coll_wait`] / a successful [`PmixServer::coll_poll`] /
/// [`PmixServer::coll_abandon`] must consume it, or the op-state entry
/// leaks until its epoch is evicted.
#[derive(Debug)]
pub struct PendingColl {
    op_id: OpId,
    si: usize,
    me: ProcId,
    deadline: Option<Instant>,
    directives: GroupDirectives,
    finished: bool,
}

impl PendingColl {
    /// True once this handle has delivered (or abandoned) its result.
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

impl PmixServer {
    /// Advance the epoch counter for `key`, then enforce the retention
    /// bound. New keys join the deterministic first-use eviction queue.
    fn bump_epoch(&self, st: &mut OpsShard, key: (OpKind, String, u64)) {
        if !st.epochs.contains_key(&key) {
            st.epoch_order.push_back(key.clone());
        }
        *st.epochs.entry(key).or_insert(0) += 1;
        self.bound_epochs(st);
    }

    /// Evict epoch counters past [`EPOCH_RETENTION_CAP`], oldest first-use
    /// first, skipping keys whose collective still has a live op (their
    /// counter is what disambiguates the in-flight instance).
    fn bound_epochs(&self, st: &mut OpsShard) {
        let mut scan = st.epoch_order.len();
        while st.epochs.len() > EPOCH_RETENTION_CAP && scan > 0 {
            scan -= 1;
            let Some(key) = st.epoch_order.pop_front() else { break };
            let live = st
                .ops
                .keys()
                .any(|o| o.kind == key.0 && o.name == key.1 && o.mhash == key.2);
            if live {
                st.epoch_order.push_back(key);
            } else {
                st.epochs.remove(&key);
                self.metrics.epochs_evicted.inc();
            }
        }
    }

    /// Enter a collective operation (stage 1: local fan-in) and return a
    /// pollable handle. Completion is driven by the message loop; the
    /// handle merely decides *when this participant observes* the result —
    /// [`PmixServer::coll_poll`] to test, [`PmixServer::coll_wait`] to
    /// block, [`PmixServer::coll_abandon`] to walk away.
    ///
    /// * `members` — the full, caller-supplied membership (will be sorted).
    /// * `kvs` — this participant's data contribution (fence with collect).
    pub fn coll_begin(
        &self,
        kind: OpKind,
        name: &str,
        members: &[ProcId],
        directives: &GroupDirectives,
        me: &ProcId,
        kvs: HashMap<String, PmixValue>,
    ) -> Result<PendingColl> {
        let _turn = simnet::turn();
        if members.is_empty() {
            return Err(PmixError::BadParam("empty membership".into()));
        }
        let mut sorted: Vec<ProcId> = members.to_vec();
        sorted.sort();
        sorted.dedup();
        if !sorted.contains(me) {
            return Err(PmixError::NotMember);
        }
        let mhash = membership_hash(&sorted);
        let key = (kind, name.to_owned(), mhash);

        // Resolve the participating servers and this server's local slice.
        let mut servers = BTreeSet::new();
        let mut locals = Vec::new();
        for m in &sorted {
            let e = self.registry.locate(m)?;
            servers.insert(e.node);
            if e.node == self.node {
                locals.push(m.clone());
            }
        }

        let deadline = directives.timeout.map(|t| Instant::now() + t);
        // coll_begin is a direct method call: we are still on the client's
        // thread, so its operation span (if entered) is the causal parent
        // of this server's fan-in.
        let caller_ctx = obs::trace::current_context();

        let si = Self::ops_shard_of(kind, name, mhash);
        let shard = &self.ops_shards[si];
        let mut st = shard.state.lock();
        let epoch = *st.epochs.get(&key).unwrap_or(&0);
        let op_id = OpId { kind, name: name.to_owned(), mhash, epoch };
        // Participants may already be dead (failure observed earlier). The
        // scan covers the *full* membership, not just this server's locals:
        // a dead member homed on a remote node would otherwise stall the
        // fan-in here forever — its own server gets no local arrival to
        // detect the death against, and the failure sweep ran before this
        // op existed. The failure bridge replicates the dead set to every
        // server synchronously before any pset event fires, so each server
        // reaches the same verdict at its own first arrival.
        let dead_members: Vec<ProcId> = {
            let dead = self.dead.read();
            sorted.iter().filter(|p| dead.contains(*p)).cloned().collect()
        };
        let op = st.ops.entry(op_id.clone()).or_insert_with(OpState::new);
        if op.expected_local.is_none() {
            // First local arrival opens the fan-in stage span. The span is
            // parentless — it adopts the trace of the first arriving client
            // it links, so server work joins the job's trace.
            op.fanin = Some(self.metrics.obs.span_with_parent(
                &self.metrics.process,
                "group.fanin",
                &op_id.to_string(),
                None,
            ));
            op.expected_local = Some(locals.clone());
            op.membership = sorted.clone();
            op.expected_servers = servers.clone();
            op.need_pgcid = kind == OpKind::GroupConstruct && directives.request_pgcid;
            op.error_on_early_termination = directives.error_on_early_termination;
            if let Some(p) = op.pending_pgcid.take() {
                op.pgcid = Some(p);
            }
            for d in dead_members {
                if op.error_on_early_termination {
                    op.result = Some(Err(PmixError::ProcTerminated(d)));
                } else if let Some(exp) = op.expected_local.as_mut() {
                    // Tolerant ops (fences) just stop expecting the dead
                    // local; a remote dead member is its own server's
                    // problem and a no-op here.
                    exp.retain(|p| p != &d);
                }
            }
        }
        if op.result.is_none() {
            if op.arrived_local.contains(me) {
                return Err(PmixError::BadParam(format!("{me} entered {op_id} twice")));
            }
            op.arrived_local.push(me.clone());
            if let Some(fanin) = op.fanin.as_mut() {
                if let Some(ctx) = caller_ctx {
                    fanin.link(ctx);
                }
                fanin.add_work(1);
            }
            if !kvs.is_empty() {
                op.local_kvs.push((me.clone(), kvs));
            }
        }
        self.advance_op(&mut st, si, &op_id);
        drop(st);
        self.try_complete(&op_id);
        Ok(PendingColl {
            op_id,
            si,
            me: me.clone(),
            deadline,
            directives: directives.clone(),
            finished: false,
        })
    }

    /// Test an in-flight collective. `Some(result)` exactly once when this
    /// participant's observation of the outcome happens; `None` while still
    /// in flight. The poll is also the timeout clock for nonblocking
    /// callers: a poll past the deadline aborts the collective everywhere
    /// (the failure surfaces on the next poll, once the Err result posts).
    pub fn coll_poll(&self, pc: &mut PendingColl) -> Option<Result<CollOutcome>> {
        let _turn = simnet::turn();
        if pc.finished {
            return Some(Err(PmixError::BadParam(format!(
                "{} polled a finished collective {}",
                pc.me, pc.op_id
            ))));
        }
        let shard = &self.ops_shards[pc.si];
        let mut st = shard.state.lock();
        let Some(op) = st.ops.get(&pc.op_id) else {
            // The op completed and was reaped without counting us as a
            // live waiter: this process was declared dead while the
            // collective was in flight (a live waiter is always part of
            // the expected count, so the op cannot be reaped under it).
            pc.finished = true;
            return Some(Err(PmixError::ProcTerminated(pc.me.clone())));
        };
        if op.result.is_some() {
            let servers = (pc.op_id.kind == OpKind::GroupConstruct)
                .then(|| op.expected_servers.clone());
            let res = self.observe_result_locked(&mut st, &pc.op_id);
            drop(st);
            pc.finished = true;
            if let (Ok(out), Some(servers)) = (&res, servers) {
                self.record_group(&pc.op_id.name, out, servers, &pc.directives);
            }
            return Some(res);
        }
        if pc.deadline.map(|d| Instant::now() >= d).unwrap_or(false) {
            // Abort the collective everywhere; next poll observes the Err.
            self.fail_op_locked(&mut st, pc.si, &pc.op_id, AbortReason::Timeout);
            let peers = st
                .ops
                .get(&pc.op_id)
                .map(|o| o.expected_servers.clone())
                .unwrap_or_default();
            drop(st);
            let msg = ServerMsg::CollAbort { op: pc.op_id.clone(), reason: AbortReason::Timeout };
            self.broadcast_ctx(&peers, &msg, None);
        }
        None
    }

    /// Block until an in-flight collective completes, fails or times out
    /// (a blocking collective is exactly `coll_begin` + this): poll, and
    /// park on the op's shard between polls.
    pub fn coll_wait(&self, mut pc: PendingColl) -> Result<CollOutcome> {
        loop {
            if let Some(res) = self.coll_poll(&mut pc) {
                return res;
            }
            self.coll_park(&pc, Duration::MAX);
        }
    }

    /// Block until an in-flight collective is *ready to observe*, its
    /// deadline passes or `limit` elapses — without observing it. The one
    /// place a thread waits on an ops-shard condvar: blocking calls and the
    /// setup engine's wrappers alike park here between polls, so an
    /// i-variant followed by `wait()` costs a condvar wake, not a poll-spin.
    pub fn coll_park(&self, pc: &PendingColl, limit: Duration) {
        if pc.finished {
            return;
        }
        simnet::turn::catch_up();
        let shard = &self.ops_shards[pc.si];
        let mut st = shard.state.lock();
        // Re-check under the lock so a completion between the caller's poll
        // and this wait cannot become a lost wakeup.
        let ready = st
            .ops
            .get(&pc.op_id)
            .map(|o| o.result.is_some())
            .unwrap_or(true);
        if ready {
            return;
        }
        // `limit` may be unbounded (`Duration::MAX` overflows `Instant`).
        let cap = Instant::now().checked_add(limit);
        match pc.deadline.map_or(cap, |d| Some(cap.map_or(d, |c| d.min(c)))) {
            Some(until) => {
                let _ = shard.cv.wait_until(&mut st, until);
            }
            None => shard.cv.wait(&mut st),
        }
    }

    /// Walk away from an in-flight collective without observing its result.
    /// The op itself still completes (or fails) server-side — abandonment
    /// only transfers this participant's observation duty so the op state
    /// can be reaped once everyone else has seen the outcome.
    pub fn coll_abandon(&self, pc: &mut PendingColl) {
        if pc.finished {
            return;
        }
        pc.finished = true;
        self.metrics.coll_abandoned.inc();
        let shard = &self.ops_shards[pc.si];
        let mut st = shard.state.lock();
        if !st.ops.contains_key(&pc.op_id) {
            return;
        }
        if st.ops.get(&pc.op_id).map(|o| o.result.is_some()).unwrap_or(false) {
            // Result already posted: consume our observation (dropping the
            // outcome) so the last live waiter can still reap the op.
            let _ = self.observe_result_locked(&mut st, &pc.op_id);
        } else {
            let op = st.ops.get_mut(&pc.op_id).expect("present");
            op.abandoned += 1;
        }
    }

    /// Consume one waiter's observation of a finished op.
    fn observe_result_locked(
        &self,
        st: &mut OpsShard,
        op_id: &OpId,
    ) -> std::result::Result<CollOutcome, PmixError> {
        let op = st.ops.get_mut(op_id).expect("present");
        op.observed += 1;
        let res = op.result.clone().expect("result present");
        self.reap_if_done(st, op_id);
        res
    }

    /// A result just posted: reap the op if its remaining waiters all
    /// abandoned — nobody is left to observe it. A no-op for ops with zero
    /// abandoners: the last live waiter reaps those, and an op aborted
    /// before any local entered must stay to hand the abort to late
    /// arrivals.
    fn reap_if_fully_abandoned(&self, st: &mut OpsShard, op_id: &OpId) {
        if st.ops.get(op_id).is_some_and(|op| op.abandoned > 0) {
            self.reap_if_done(st, op_id);
        }
    }

    /// Reap a finished op entry (bumping its epoch, when fan-in never did)
    /// once every live expected local has either observed its result or
    /// abandoned its handle — dead participants never come back to observe.
    fn reap_if_done(&self, st: &mut OpsShard, op_id: &OpId) {
        let Some(op) = st.ops.get(op_id) else { return };
        if op.result.is_none() {
            return;
        }
        let expected = {
            let dead = self.dead.read();
            op.expected_local
                .as_ref()
                .map(|e| e.iter().filter(|p| !dead.contains(*p)).count())
                .unwrap_or(0)
        };
        if op.observed + op.abandoned >= expected {
            let op = st.ops.remove(op_id).expect("present");
            if !op.fanin_done {
                self.bump_epoch(st, (op_id.kind, op_id.name.clone(), op_id.mhash));
            }
        }
    }

    /// A local member observed a completed construct: record the live group
    /// once, for the first local observer. Later observers must not replace
    /// the entry — it accumulates this server's releases.
    fn record_group(
        &self,
        name: &str,
        out: &CollOutcome,
        servers: BTreeSet<NodeId>,
        directives: &GroupDirectives,
    ) {
        let key = (name.to_owned(), membership_hash(&out.members));
        self.ctl.lock().groups.entry(key).or_insert_with(|| GroupInfo {
            members: out.members.clone(),
            pgcid: out.pgcid,
            notify_on_termination: directives.notify_on_termination,
            servers,
            locals: self.locals_of(&out.members),
            released: Vec::new(),
        });
    }

    /// Stage-2 trigger: if the local fan-in just completed, record our own
    /// contribution and ship it to the other participating servers.
    pub(super) fn advance_op(&self, st: &mut OpsShard, si: usize, op_id: &OpId) {
        let Some(op) = st.ops.get_mut(op_id) else { return };
        if op.result.is_some() || op.fanin_done {
            return;
        }
        let Some(expected) = op.expected_local.as_ref() else { return };
        if op.arrived_local.len() < expected.len() {
            return;
        }
        op.fanin_done = true;
        // Stage 1 complete on this server: all local participants are in.
        self.metrics.shards[si].stage_fanin.inc();
        self.metrics.stage_event(
            "group.fanin",
            op_id,
            vec![("locals".into(), (op.arrived_local.len() as u64).into())],
        );
        // Stage transition in the span DAG: fan-in closes and the exchange
        // stage opens as its child; every outgoing contribution piggybacks
        // the exchange context so peers can link their causal predecessor.
        if let Some(fanin) = op.fanin.take() {
            let fctx = fanin.context();
            fanin.end();
            op.xchg = Some(self.metrics.obs.span_with_parent(
                &self.metrics.process,
                "group.xchg",
                &op_id.to_string(),
                Some(fctx),
            ));
        }
        let xchg_ctx = op.xchg.as_ref().map(|s| s.context());
        // Batch this shard's full local contribution once, before the xchg
        // stage fans it out to every peer server.
        let contrib = Contribution {
            local_members: op.arrived_local.clone(),
            kvs: op.local_kvs.clone(),
        };
        op.contribs.insert(self.node, contrib.clone());
        let peers: Vec<NodeId> = op
            .expected_servers
            .iter()
            .copied()
            .filter(|n| *n != self.node)
            .collect();
        let key = (op_id.kind, op_id.name.clone(), op_id.mhash);
        self.bump_epoch(st, key);
        // Send outside the borrow of `op` (but still under the shard lock;
        // fabric sends never call back into this server synchronously).
        let msg = ServerMsg::CollContrib {
            op: op_id.clone(),
            from_node: self.node.0,
            contrib,
        };
        let mut sent = 0u64;
        for peer in peers {
            if let Some(ep) = self.registry.server_of(peer) {
                // Stage 2: one contribution exchange per participating peer
                // server — this is the part that scales with node count.
                self.metrics.shards[si].stage_xchg.inc();
                self.metrics.stage_event(
                    "group.xchg",
                    op_id,
                    vec![("to_node".into(), (peer.0 as u64).into())],
                );
                sent += 1;
                let _ = self.sender.send_ctx(ep, msg.encode(), xchg_ctx);
            }
        }
        if sent > 0 {
            if let Some(x) = st.ops.get_mut(op_id).and_then(|o| o.xchg.as_mut()) {
                x.add_work(sent);
            }
        }
    }

    /// Stage-3 trigger: complete the op if every contribution (and the
    /// PGCID, when needed) has arrived.
    pub(super) fn try_complete(&self, op_id: &OpId) {
        let si = Self::ops_shard_of(op_id.kind, &op_id.name, op_id.mhash);
        let shard = &self.ops_shards[si];
        let mut st = shard.state.lock();
        let Some(op) = st.ops.get_mut(op_id) else { return };
        if op.result.is_some() || !op.fanin_done {
            return;
        }
        if op.contribs.len() < op.expected_servers.len() {
            return;
        }
        if op.need_pgcid && op.pgcid.is_none() {
            // The lead participating server must go get one (exactly once).
            let lead = *op.expected_servers.iter().next().expect("non-empty");
            if lead == self.node && !op.pgcid_requested {
                // Pool fast path: a previous block grant left spare ids, so
                // this construct skips the RM round trip entirely — no
                // `pgcid.request` span appears on its critical path.
                if let Some(pgcid) = self.take_pooled_pgcid() {
                    op.pgcid = Some(pgcid);
                    op.pgcid_requested = true;
                    self.metrics.pgcid_pool_hits.inc();
                    let peers = op.expected_servers.clone();
                    let bctx = op.xchg.as_ref().map(|s| s.context());
                    drop(st);
                    self.broadcast_ctx(
                        &peers,
                        &ServerMsg::CollPgcid { op: op_id.clone(), pgcid },
                        bctx,
                    );
                    self.try_complete(op_id);
                    return;
                }
                op.pgcid_requested = true;
                let xchg_ctx = op.xchg.as_ref().map(|s| s.context());
                drop(st);
                self.acquire_pgcid_for(&PgcidWaiter::Op(op_id.clone()), xchg_ctx);
            }
            return;
        }
        // Complete: merge memberships, filter dead, wake everyone.
        let mut members: Vec<ProcId> = op
            .contribs
            .values()
            .flat_map(|c| c.local_members.iter().cloned())
            .collect();
        members.sort();
        members.dedup();
        let pgcid = op.pgcid;
        let all_kvs: Vec<(ProcId, HashMap<String, PmixValue>)> = op
            .contribs
            .values()
            .flat_map(|c| c.kvs.iter().cloned())
            .collect();
        {
            let dead = self.dead.read();
            members.retain(|m| !dead.contains(m));
        }
        // Install collected data into its kvs shards, batched so each
        // touched shard is locked (and its waiters woken) exactly once.
        let mut by_shard: Vec<Vec<(ProcId, HashMap<String, PmixValue>)>> =
            (0..SERVER_SHARDS).map(|_| Vec::new()).collect();
        for (proc, data) in all_kvs {
            by_shard[Self::kvs_shard_of(&proc)].push((proc, data));
        }
        for (ki, items) in by_shard.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let kshard = &self.kvs_shards[ki];
            let mut ks = kshard.state.lock();
            for (proc, data) in items {
                ks.kvs_cache.entry(proc).or_default().extend(data);
            }
            self.publish_kvs_gauge(ki, &ks);
            drop(ks);
            kshard.cv.notify_all();
        }
        let n_members = members.len() as u64;
        let op = st.ops.get_mut(op_id).expect("present");
        // Close the exchange stage (linking everything that gated
        // completion) and mark the release instant as the fan-out span; its
        // context travels back to the waiting clients in the outcome.
        let xchg_ctx = op.xchg.take().map(|mut xchg| {
            for c in op.contrib_ctxs.drain(..) {
                xchg.link(c);
            }
            let ctx = xchg.context();
            xchg.end();
            ctx
        });
        let mut fanout = self.metrics.obs.span_with_parent(
            &self.metrics.process,
            "group.fanout",
            &op_id.to_string(),
            xchg_ctx,
        );
        fanout.add_work(n_members);
        let fanout_ctx = fanout.context();
        fanout.end();
        op.result = Some(Ok(CollOutcome { members, pgcid, ctx: Some(fanout_ctx) }));
        // If every local waiter already walked away, nobody will observe:
        // reap here so abandoned ops cannot park in the shard forever.
        self.reap_if_fully_abandoned(&mut st, op_id);
        drop(st);
        // Stage 3: local fan-out — waiting clients on this node are released.
        // The stage event comes last, so a reader that has seen it also sees
        // every counter of the op.
        let sc = &self.metrics.shards[si];
        sc.stage_fanout.inc();
        match op_id.kind {
            OpKind::Fence => sc.fence_completed.inc(),
            OpKind::GroupConstruct => sc.group_construct_completed.inc(),
        }
        self.metrics.stage_event(
            "group.fanout",
            op_id,
            vec![
                ("members".into(), n_members.into()),
                // 0 = no PGCID involved (fences, plain groups). Non-zero values
                // let checkers match every exposed PGCID to an RM allocation
                // and assert cross-server agreement per (kind, name, epoch).
                ("pgcid".into(), pgcid.unwrap_or(0).into()),
            ],
        );
        shard.cv.notify_all();
    }

    pub(super) fn fail_op_locked(
        &self,
        st: &mut OpsShard,
        si: usize,
        op_id: &OpId,
        reason: AbortReason,
    ) {
        if let Some(op) = st.ops.get_mut(op_id) {
            if op.result.is_none() {
                op.result = Some(Err(reason.to_error()));
                self.metrics.shards[si].coll_aborted.inc();
                let why = match &reason {
                    AbortReason::Timeout => "timeout",
                    AbortReason::ProcTerminated(_) => "proc_terminated",
                };
                self.metrics
                    .stage_event("group.abort", op_id, vec![("reason".into(), why.into())]);
            }
        }
        self.reap_if_fully_abandoned(st, op_id);
        self.ops_shards[si].cv.notify_all();
    }

    /// A peer server's stage-2 contribution arrived.
    pub(super) fn on_coll_contrib(
        &self,
        op: OpId,
        from_node: u32,
        contrib: Contribution,
        ctx: Option<obs::TraceContext>,
    ) {
        let si = Self::ops_shard_of(op.kind, &op.name, op.mhash);
        {
            let mut st = self.ops_shards[si].state.lock();
            let entry = st.ops.entry(op.clone()).or_insert_with(OpState::new);
            entry.contribs.insert(NodeId(from_node), contrib);
            if let Some(c) = ctx {
                entry.contrib_ctxs.push(c);
            }
        }
        self.try_complete(&op);
        self.ops_shards[si].cv.notify_all();
    }

    /// The lead server's PGCID broadcast arrived (possibly before any
    /// local participant entered).
    pub(super) fn on_coll_pgcid(&self, op: OpId, pgcid: u64, ctx: Option<obs::TraceContext>) {
        let si = Self::ops_shard_of(op.kind, &op.name, op.mhash);
        {
            let mut st = self.ops_shards[si].state.lock();
            let entry = st.ops.entry(op.clone()).or_insert_with(OpState::new);
            if entry.expected_local.is_some() {
                entry.pgcid = Some(pgcid);
            } else {
                entry.pending_pgcid = Some(pgcid);
            }
            if let Some(c) = ctx {
                entry.contrib_ctxs.push(c);
            }
        }
        self.try_complete(&op);
        self.ops_shards[si].cv.notify_all();
    }

    /// A peer server aborted the op (timeout or member death).
    pub(super) fn on_coll_abort(&self, op: OpId, reason: AbortReason) {
        let si = Self::ops_shard_of(op.kind, &op.name, op.mhash);
        let mut st = self.ops_shards[si].state.lock();
        self.fail_op_locked(&mut st, si, &op, reason);
    }
}
