//! Key-value store: commit, the begin/poll/park fetch tickets every getter
//! drives, purge on death/retirement, and the direct-modex handlers.

use super::{KvsShard, PmixServer, SERVER_SHARDS};
use crate::error::{PmixError, Result};
use crate::types::ProcId;
use crate::value::PmixValue;
use crate::wire::ServerMsg;
use simnet::EndpointId;
use std::collections::HashMap;
use std::time::Duration;

/// An in-flight nonblocking KVS fetch (see [`PmixServer::fetch_begin`]).
/// Drive with [`PmixServer::fetch_poll`] until it returns `Some`; park
/// between polls with [`PmixServer::fetch_park`].
pub struct FetchTicket {
    proc: ProcId,
    key: String,
    /// KVS shard holding the reply slot / data tables for `proc`.
    shard: usize,
    mode: FetchMode,
}

impl FetchTicket {
    /// The process whose data this ticket is fetching.
    pub fn proc(&self) -> &ProcId {
        &self.proc
    }

    /// The key being fetched.
    pub fn key(&self) -> &str {
        &self.key
    }
}

enum FetchMode {
    /// Answered at begin time; `fetch_poll` hands the value out once.
    Resolved(Option<PmixValue>),
    /// Owner is a local client that has not committed yet.
    LocalWait,
    /// One dmodex round trip in flight; the token names the reply slot.
    Remote { token: u64 },
    /// Terminal: the result has been handed out (or the ticket cancelled).
    Done,
}

impl PmixServer {
    /// Publish shard `ki`'s live KV-pair count; call (under the shard lock)
    /// after every mutation of its tables.
    pub(super) fn publish_kvs_gauge(&self, ki: usize, ks: &KvsShard) {
        self.metrics.shards[ki].kvs_entries.set(ks.entries() as i64);
    }

    /// Commit key-value data for a local client, waking any parked dmodex
    /// requests and local getters.
    pub fn commit_kvs(&self, proc: &ProcId, data: HashMap<String, PmixValue>) {
        let kshard = &self.kvs_shards[Self::kvs_shard_of(proc)];
        let mut ks = kshard.state.lock();
        ks.kvs_local.entry(proc.clone()).or_default().extend(data);
        // Serve parked remote fetches that are now satisfiable. Parked
        // entries live in the owner's shard, so this drain sees them all.
        let mut served = Vec::new();
        let mut still_parked = Vec::new();
        let parked = std::mem::take(&mut ks.dmodex_parked);
        for (p, key, reply_to, token) in parked {
            match ks.committed(&p, &key) {
                Some(v) => served.push((reply_to, token, v)),
                None => still_parked.push((p, key, reply_to, token)),
            }
        }
        ks.dmodex_parked = still_parked;
        self.publish_kvs_gauge(Self::kvs_shard_of(proc), &ks);
        drop(ks);
        for (reply_to, token, v) in served {
            let _ = self
                .sender
                .send(reply_to, ServerMsg::DmodexReply { token, value: Some(v) }.encode());
        }
        kshard.cv.notify_all();
    }

    /// Begin a fetch of `key` from `proc`'s committed data. Every getter —
    /// the blocking [`crate::PmixClient::get_timeout`] and the lazy-init
    /// peer resolver driven from the PML progress loop alike — holds one of
    /// these tickets and drives it with [`PmixServer::fetch_poll`] /
    /// [`PmixServer::fetch_park`]. Resolution order:
    ///
    /// * the owner must still be registered — a retired/deregistered peer
    ///   yields `NotFound` immediately, never a stale cached card;
    /// * a peer already known dead yields `ProcTerminated`;
    /// * locally-committed or cached data resolves the ticket at begin time;
    /// * a local-but-uncommitted owner produces a ticket that waits for the
    ///   owner's `commit_kvs` (wait-for-publish semantics);
    /// * a remote owner issues one dmodex round trip whose reply lands in
    ///   the ticket's shard slot.
    pub fn fetch_begin(&self, proc: &ProcId, key: &str) -> Result<FetchTicket> {
        let entry = self.registry.locate(proc)?;
        if self.dead.read().contains(proc) {
            return Err(PmixError::ProcTerminated(proc.clone()));
        }
        let ki = Self::kvs_shard_of(proc);
        let kshard = &self.kvs_shards[ki];
        let mut ks = kshard.state.lock();
        let mode = match ks.committed(proc, key).or_else(|| ks.cached(proc, key)) {
            Some(v) => FetchMode::Resolved(Some(v)),
            None if entry.node == self.node => FetchMode::LocalWait,
            None => {
                let owner = self.registry.server_of(entry.node).ok_or(PmixError::Unreachable)?;
                let token = self.mint_token(ki);
                ks.dmodex_waiting.insert(token, None);
                drop(ks);
                let msg = ServerMsg::DmodexReq {
                    reply_to: self.sender.id(),
                    token,
                    proc: proc.clone(),
                    key: key.to_owned(),
                };
                self.sender.send(owner, msg.encode()).map_err(|_| {
                    self.kvs_shards[ki].state.lock().dmodex_waiting.remove(&token);
                    PmixError::Unreachable
                })?;
                FetchMode::Remote { token }
            }
        };
        Ok(FetchTicket { proc: proc.clone(), key: key.to_owned(), shard: ki, mode })
    }

    /// Poll a ticket from [`PmixServer::fetch_begin`]: `None` while the
    /// publish/dmodex is still outstanding, `Some(result)` exactly once at
    /// the terminal state. A peer that dies or is deregistered mid-flight
    /// terminates the ticket with the matching typed error — a lazy get
    /// never silently degrades to a stale answer.
    pub fn fetch_poll(&self, ticket: &mut FetchTicket) -> Option<Result<PmixValue>> {
        if let FetchMode::Resolved(slot) = &mut ticket.mode {
            return slot.take().map(Ok);
        }
        if self.dead.read().contains(&ticket.proc) {
            self.fetch_cancel(ticket);
            return Some(Err(PmixError::ProcTerminated(ticket.proc.clone())));
        }
        if let Err(e) = self.registry.locate(&ticket.proc) {
            self.fetch_cancel(ticket);
            return Some(Err(e));
        }
        let kshard = &self.kvs_shards[ticket.shard];
        let mut ks = kshard.state.lock();
        match ticket.mode {
            FetchMode::Resolved(_) => unreachable!("handled above"),
            FetchMode::LocalWait => ks.committed(&ticket.proc, &ticket.key).map(|v| {
                ticket.mode = FetchMode::Done;
                Ok(v)
            }),
            FetchMode::Remote { token } => {
                let reply = match ks.dmodex_waiting.get(&token) {
                    Some(Some(reply)) => {
                        let reply = reply.clone();
                        ks.dmodex_waiting.remove(&token);
                        reply
                    }
                    Some(None) => return None,
                    // Slot gone (purge raced us): fall back to the cache.
                    None => ks.cached(&ticket.proc, &ticket.key),
                };
                ticket.mode = FetchMode::Done;
                match reply {
                    Some(v) => {
                        ks.kvs_cache
                            .entry(ticket.proc.clone())
                            .or_default()
                            .insert(ticket.key.clone(), v.clone());
                        self.publish_kvs_gauge(ticket.shard, &ks);
                        Some(Ok(v))
                    }
                    None => Some(Err(PmixError::NotFound(format!(
                        "{}/{}",
                        ticket.proc, ticket.key
                    )))),
                }
            }
            FetchMode::Done => None,
        }
    }

    /// Park the calling thread on the ticket's shard condvar for at most
    /// `limit` (condvar-grade wakeup on the owner's commit or the dmodex
    /// reply, instead of a poll sleep). Returns at once when the next
    /// [`PmixServer::fetch_poll`] would be terminal: readiness is re-checked
    /// under the shard lock, so a commit, reply, death or retirement landing
    /// between the caller's poll and this wait cannot be a lost wake-up.
    pub fn fetch_park(&self, ticket: &FetchTicket, limit: Duration) {
        if matches!(ticket.mode, FetchMode::Resolved(_) | FetchMode::Done) {
            return;
        }
        let kshard = &self.kvs_shards[ticket.shard];
        let mut ks = kshard.state.lock();
        let outstanding = match ticket.mode {
            FetchMode::LocalWait => ks.committed(&ticket.proc, &ticket.key).is_none(),
            FetchMode::Remote { token } => matches!(ks.dmodex_waiting.get(&token), Some(None)),
            FetchMode::Resolved(_) | FetchMode::Done => false,
        };
        if outstanding
            && !self.dead.read().contains(&ticket.proc)
            && self.registry.locate(&ticket.proc).is_ok()
        {
            kshard.cv.wait_for(&mut ks, limit);
        }
    }

    /// Abandon an in-flight ticket, releasing its reply slot (a late
    /// dmodex reply for a removed token is ignored by the handler).
    pub(crate) fn fetch_cancel(&self, ticket: &mut FetchTicket) {
        if let FetchMode::Remote { token } = ticket.mode {
            self.kvs_shards[ticket.shard].state.lock().dmodex_waiting.remove(&token);
        }
        ticket.mode = FetchMode::Done;
    }

    /// Drop every business card of `proc` — committed data, remote cache
    /// entries, and parked dmodex fetches (answered "not found" rather than
    /// left to time out) — without declaring the process dead. This is the
    /// graceful-retirement twin of the purge inside
    /// [`PmixServer::on_proc_failed`]: `retire_ranks` produces no failure
    /// event, so without this call a retired rank's card would sit in the
    /// KVS forever and a lazy get could resolve it to a stale endpoint.
    pub fn purge_kvs_for(&self, proc: &ProcId) {
        let ki = Self::kvs_shard_of(proc);
        let kshard = &self.kvs_shards[ki];
        let mut ks = kshard.state.lock();
        let purged = ks.kvs_local.remove(proc).map(|m| m.len()).unwrap_or(0)
            + ks.kvs_cache.remove(proc).map(|m| m.len()).unwrap_or(0);
        let parked = std::mem::take(&mut ks.dmodex_parked);
        let (gone_parked, live_parked): (Vec<_>, Vec<_>) =
            parked.into_iter().partition(|(p, ..)| p == proc);
        ks.dmodex_parked = live_parked;
        self.publish_kvs_gauge(ki, &ks);
        drop(ks);
        if purged > 0 {
            self.metrics.kvs_purged.add(purged as u64);
        }
        for (_, _, reply_to, token) in gone_parked {
            let _ = self
                .sender
                .send(reply_to, ServerMsg::DmodexReply { token, value: None }.encode());
        }
        kshard.cv.notify_all();
    }

    /// Snapshot of everything a local client has committed so far.
    pub fn local_committed(&self, proc: &ProcId) -> Option<HashMap<String, PmixValue>> {
        self.kvs_shards[Self::kvs_shard_of(proc)].state.lock().kvs_local.get(proc).cloned()
    }

    /// A remote server asks for `key` of local client `proc`: answer from
    /// committed data, park the request until the owner commits, or answer
    /// "not found" for a dead or foreign owner.
    pub(super) fn on_dmodex_req(&self, reply_to: EndpointId, token: u64, proc: ProcId, key: String) {
        // Resolve "is this a (live) local client" before touching
        // the kvs shard: ctl and kvs shards are never nested.
        let is_local = self.ctl.lock().local_clients.contains(&proc)
            || self
                .registry
                .locate(&proc)
                .map(|e| e.node == self.node)
                .unwrap_or(false);
        let is_dead = self.dead.read().contains(&proc);
        let kshard = &self.kvs_shards[Self::kvs_shard_of(&proc)];
        let value = {
            let mut ks = kshard.state.lock();
            match ks.committed(&proc, &key) {
                Some(v) => Some(Some(v)),
                None => {
                    if is_local && !is_dead {
                        // Park until the owner commits.
                        ks.dmodex_parked.push((proc, key, reply_to, token));
                        None
                    } else {
                        Some(None)
                    }
                }
            }
        };
        if let Some(value) = value {
            let _ = self
                .sender
                .send(reply_to, ServerMsg::DmodexReply { token, value }.encode());
        }
    }

    /// A dmodex answer lands in its ticket's reply slot (a reply for a
    /// cancelled token is dropped).
    pub(super) fn on_dmodex_reply(&self, token: u64, value: Option<PmixValue>) {
        let ki = (token % SERVER_SHARDS as u64) as usize;
        let kshard = &self.kvs_shards[ki];
        let mut ks = kshard.state.lock();
        if ks.dmodex_waiting.contains_key(&token) {
            ks.dmodex_waiting.insert(token, Some(value));
        }
        drop(ks);
        kshard.cv.notify_all();
    }
}
