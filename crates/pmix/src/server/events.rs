//! Event delivery: subscriptions, pset-change fan-out, targeted
//! notifications, and the reaction to a process death.

use super::{PmixServer, SERVER_SHARDS};
use crate::error::PmixError;
use crate::event::{Event, EventCode, EventStream};
use crate::nspace::{PsetChange, PsetChangeKind};
use crate::types::ProcId;
use crate::value::keys;
use crate::wire::{AbortReason, OpId, ServerMsg};
use simnet::NodeId;
use std::collections::HashMap;

/// Render a registry pset change as the event delivered to subscribers.
/// The change's causal context rides along (local delivery only), so a
/// rebuild triggered by the event can link the mutating `pset.update` span.
fn pset_change_event(change: &PsetChange) -> Event {
    let code = match change.kind {
        PsetChangeKind::Defined => EventCode::PsetDefined,
        PsetChangeKind::Membership => EventCode::PsetMembership,
        PsetChangeKind::Deleted => EventCode::PsetDeleted,
    };
    Event::new(code, None)
        .with(keys::PSET_NAME, change.name.as_str())
        .with(keys::PSET_EPOCH, change.epoch)
        .with(keys::PSET_MEMBERS, change.members.as_ref().clone())
        .with_ctx(change.ctx)
}

impl PmixServer {
    /// Subscribe a local client to events.
    pub fn subscribe(&self, proc: &ProcId, codes: Option<Vec<EventCode>>) -> EventStream {
        let (sub, stream) = EventStream::pair(codes);
        self.ctl.lock().subs.push((proc.clone(), sub));
        stream
    }

    /// Subscribe a local client to pset change events, with replay: the
    /// registry's current table is rendered as synthetic `PsetDefined` /
    /// `PsetDeleted` events (at their real epochs) into the stream before
    /// the subscription goes live. Replay and registration both happen
    /// under the registry's emission lock, and live deliveries
    /// ([`PmixServer::handle_pset_change`]) hold the same lock — so a late
    /// subscriber sees every change exactly once, mirroring the
    /// `watch_failures` idiom in simnet.
    pub fn subscribe_psets(&self, proc: &ProcId) -> EventStream {
        let codes =
            vec![EventCode::PsetDefined, EventCode::PsetMembership, EventCode::PsetDeleted];
        self.registry.with_pset_replay(|replay| {
            let (sub, stream) = EventStream::pair(Some(codes));
            for change in replay {
                let _ = sub.tx.send(pset_change_event(change));
            }
            self.ctl.lock().subs.push((proc.clone(), sub));
            stream
        })
    }

    /// Deliver one pset change to this server's matching subscribers.
    /// Called by the universe's registry listener, synchronously, under the
    /// registry emission lock (see [`PmixServer::subscribe_psets`]).
    pub fn handle_pset_change(&self, change: &PsetChange) {
        self.on_notify(pset_change_event(change), Vec::new());
    }

    /// Route an event to a set of processes (local delivery + remote
    /// forwarding to their servers).
    pub fn notify_procs(&self, targets: &[ProcId], event: &Event) {
        let _turn = simnet::turn();
        let mut by_node: HashMap<NodeId, Vec<ProcId>> = HashMap::new();
        for t in targets {
            if let Ok(e) = self.registry.locate(t) {
                by_node.entry(e.node).or_default().push(t.clone());
            }
        }
        for (node, procs) in by_node {
            let msg = ServerMsg::Notify { event: event.clone(), targets: procs };
            if node == self.node {
                self.handle(msg);
            } else if let Some(ep) = self.registry.server_of(node) {
                let _ = self.sender.send(ep, msg.encode());
            }
        }
    }

    /// Deliver a routed event to this node's matching subscribers (all of
    /// them when `targets` is empty).
    pub(super) fn on_notify(&self, event: Event, targets: Vec<ProcId>) {
        let st = self.ctl.lock();
        for (proc, sub) in &st.subs {
            if !sub.matches(event.code) {
                continue;
            }
            if targets.is_empty() || targets.contains(proc) {
                let _ = sub.tx.send(event.clone());
            }
        }
    }

    /// Whether this server has observed `proc`'s death. Dead processes
    /// stay *registered* (their identity is never recycled), so callers
    /// that validate liveness — the lazy-resolver cache, fault-aware
    /// waits — must ask this rather than [`crate::NamespaceRegistry::locate`].
    pub fn proc_is_dead(&self, proc: &ProcId) -> bool {
        self.dead.read().contains(proc)
    }

    /// React to a process death: fail or shrink affected collectives,
    /// notify subscribers, count the process as released in every group it
    /// belonged to here, and mark it dead.
    pub fn on_proc_failed(&self, proc: &ProcId) {
        let _turn = simnet::turn();
        {
            let mut dead = self.dead.write();
            if !dead.insert(proc.clone()) {
                return; // already processed
            }
        }
        // Lifecycle GC: a dead process's KV data can never be read again —
        // `fetch` routes every lookup through the dead check downstream of
        // here — so drop its committed data and everything cached about it.
        // Parked dmodex fetches for the dead owner can never be served;
        // answer them "not found" instead of letting the requester time out.
        self.purge_kvs_for(proc);
        // Fail or shrink pending collectives that include the dead process,
        // one ops shard at a time (the write above already publishes the
        // death, so concurrent entries on other shards observe it).
        let mut aborts = Vec::new();
        for si in 0..SERVER_SHARDS {
            let shard = &self.ops_shards[si];
            let mut st = shard.state.lock();
            let op_ids: Vec<OpId> = st.ops.keys().cloned().collect();
            for op_id in op_ids {
                let op = st.ops.get_mut(&op_id).expect("present");
                if op.result.is_some() {
                    continue;
                }
                let involved = op.membership.contains(proc)
                    || op
                        .expected_local
                        .as_ref()
                        .map(|e| e.contains(proc))
                        .unwrap_or(false)
                    || op.contribs.values().any(|c| c.local_members.contains(proc))
                    || op.arrived_local.contains(proc);
                if !involved {
                    continue;
                }
                if op.error_on_early_termination {
                    op.result = Some(Err(PmixError::ProcTerminated(proc.clone())));
                    self.metrics.shards[si].coll_aborted.inc();
                    self.metrics.stage_event(
                        "group.abort",
                        &op_id,
                        [("reason", obs::AttrValue::name("proc_terminated"))],
                    );
                    aborts.push((op_id.clone(), op.expected_servers.clone()));
                } else {
                    if let Some(exp) = op.expected_local.as_mut() {
                        exp.retain(|p| p != proc);
                    }
                    op.arrived_local.retain(|p| p != proc);
                }
            }
            // Complete any ops whose fan-in this death unblocked.
            let candidates: Vec<OpId> = st
                .ops
                .iter()
                .filter(|(_, o)| o.result.is_none())
                .map(|(k, _)| k.clone())
                .collect();
            for op_id in &candidates {
                self.advance_op(&mut st, si, op_id);
            }
            drop(st);
            for op_id in &candidates {
                self.try_complete(op_id);
            }
            shard.cv.notify_all();
        }
        // The dead member counts as released. Reporting before notifying
        // orders the reports ahead of anything a notified local does next:
        // its next construct's contribution travels behind them.
        self.release_dead_member(proc);
        // Group-membership failure notifications + plain proc-terminated
        // events for subscribers on this node (control plane). A group
        // released just now has no live local left to care; its live
        // members elsewhere still hold it at their own servers, which
        // notify them.
        let notifications = {
            let st = self.ctl.lock();
            let dead = self.dead.read();
            let mut notifications = Vec::new();
            for ((name, _), info) in st.groups.iter() {
                if info.notify_on_termination && info.members.contains(proc) {
                    let targets: Vec<ProcId> = info
                        .members
                        .iter()
                        .filter(|m| *m != proc && !dead.contains(*m))
                        .cloned()
                        .collect();
                    let event = Event::new(EventCode::GroupMemberFailed, Some(proc.clone()))
                        .with("group", name.as_str())
                        .with("pgcid", info.pgcid.unwrap_or(0));
                    notifications.push((targets, event));
                }
            }
            let term = Event::new(EventCode::ProcTerminated, Some(proc.clone()));
            for (p, sub) in &st.subs {
                if sub.matches(EventCode::ProcTerminated) && p != proc {
                    let _ = sub.tx.send(term.clone());
                }
            }
            notifications
        };
        for (op_id, peers) in aborts {
            let reason = AbortReason::ProcTerminated(proc.clone());
            self.broadcast_ctx(&peers, &ServerMsg::CollAbort { op: op_id, reason }, None);
        }
        for (targets, event) in notifications {
            self.notify_procs(&targets, &event);
        }
        self.ctl_cv.notify_all();
        for ks in &self.kvs_shards {
            ks.cv.notify_all();
        }
    }
}
