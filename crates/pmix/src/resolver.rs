//! On-demand peer address resolution for lazy (fence-free) init.
//!
//! Eager startup pays a world-wide business-card exchange (put + commit +
//! collecting fence) before any communication. The lazy mode skips the
//! fence entirely: each rank publishes its own card and returns, and the
//! first *send* to a peer resolves that peer's endpoint through a
//! [`PeerResolver`] — a per-process cache over nonblocking keyed KVS
//! fetches ([`PmixServer::fetch_begin`]). A cache hit costs zero round
//! trips; a miss costs at most one dmodex round trip to the owner's
//! server, after which the endpoint is cached for the life of the process
//! (or until [`PeerResolver::invalidate`] evicts it on peer death or
//! retirement).
//!
//! Counters (`pmix.lazy_gets`, `pmix.get_cache_hits`) and the
//! `pmix.peer_cache_entries` occupancy gauge are registered per resolving
//! process, so benchmarks and the flight recorder can audit exactly how
//! many on-demand fetches a lazy run performed.

use crate::client::PmixClient;
use crate::error::{PmixError, Result};
use crate::server::{FetchTicket, PmixServer};
use crate::types::ProcId;
use crate::value::{keys, PmixValue};
use parking_lot::Mutex;
use simnet::EndpointId;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Per-process cache of peer fabric endpoints, filled on demand from the
/// server KVS. Created once per process on the lazy session-init path
/// (eager runs never construct one, so their metric shape is unchanged).
pub struct PeerResolver {
    proc: ProcId,
    server: Arc<PmixServer>,
    cache: Mutex<HashMap<ProcId, EndpointId>>,
    lazy_gets: obs::Counter,
    cache_hits: obs::Counter,
    occupancy: obs::Gauge,
}

/// An in-flight peer resolution: one nonblocking KVS fetch of the peer's
/// business card. Drive with [`PeerResolver::poll`].
pub struct PeerFetch {
    peer: ProcId,
    ticket: FetchTicket,
}

impl PeerFetch {
    /// The peer being resolved.
    pub fn peer(&self) -> &ProcId {
        &self.peer
    }
}

impl PeerResolver {
    /// Build a resolver for `client`'s process over its local server.
    pub fn new(client: &PmixClient) -> Arc<PeerResolver> {
        let server = client.server().clone();
        let obs = server.obs();
        let scope = client.obs_key();
        Arc::new(PeerResolver {
            lazy_gets: obs.counter(scope, "pmix", "lazy_gets"),
            cache_hits: obs.counter(scope, "pmix", "get_cache_hits"),
            occupancy: obs.gauge(scope, "pmix", "peer_cache_entries"),
            proc: client.proc().clone(),
            server,
            cache: Mutex::new(HashMap::new()),
        })
    }

    /// The resolving process.
    pub fn proc(&self) -> &ProcId {
        &self.proc
    }

    /// Cache-only lookup: `Some(endpoint)` on a hit (zero round trips). A
    /// cached entry whose owner has since been deregistered or declared
    /// dead is evicted and reads as a miss — the follow-up
    /// [`PeerResolver::begin`] then surfaces the typed error.
    pub fn lookup(&self, peer: &ProcId) -> Option<EndpointId> {
        let hit = self.cache.lock().get(peer).copied();
        let ep = hit?;
        // Death does not deregister (identity is never recycled), so the
        // locate() check alone would keep serving a dead peer's card: ask
        // the server's dead set too.
        if self.server.registry().locate(peer).is_err() || self.server.proc_is_dead(peer) {
            self.invalidate(peer);
            return None;
        }
        self.cache_hits.inc();
        Some(ep)
    }

    /// Begin resolving `peer`'s endpoint (a cache miss): one counted lazy
    /// get against the server KVS. Errors immediately — typed, never a
    /// stale answer — when the peer is deregistered (`NotFound`) or dead
    /// (`ProcTerminated`).
    pub fn begin(&self, peer: &ProcId) -> Result<PeerFetch> {
        self.lazy_gets.inc();
        let ticket = self.server.fetch_begin(peer, keys::ENDPOINT)?;
        Ok(PeerFetch { peer: peer.clone(), ticket })
    }

    /// Poll an in-flight resolution: `None` while the peer's card is still
    /// unpublished/in transit, `Some(Ok(endpoint))` once (cached for later
    /// sends), `Some(Err)` on a terminal typed failure.
    pub fn poll(&self, fetch: &mut PeerFetch) -> Option<Result<EndpointId>> {
        let res = self.server.fetch_poll(&mut fetch.ticket)?;
        Some(res.and_then(|v| match v {
            PmixValue::U64(raw) => {
                let ep = EndpointId(raw);
                let n = {
                    let mut cache = self.cache.lock();
                    cache.insert(fetch.peer.clone(), ep);
                    cache.len()
                };
                self.occupancy.set(n as i64);
                Ok(ep)
            }
            other => Err(PmixError::Internal(format!(
                "business card of {} is not an endpoint: {other:?}",
                fetch.peer
            ))),
        }))
    }

    /// Park on the resolution's shard condvar for at most `limit`.
    pub fn park(&self, fetch: &PeerFetch, limit: Duration) {
        self.server.fetch_park(&fetch.ticket, limit);
    }

    /// Evict `peer` from the cache (peer death, retirement, or route
    /// invalidation in the PML).
    pub fn invalidate(&self, peer: &ProcId) {
        let n = {
            let mut cache = self.cache.lock();
            cache.remove(peer);
            cache.len()
        };
        self.occupancy.set(n as i64);
    }

    /// Number of peers currently cached (the occupancy pvar's source).
    pub fn cached(&self) -> usize {
        self.cache.lock().len()
    }
}

impl std::fmt::Debug for PeerResolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerResolver")
            .field("proc", &self.proc)
            .field("cached", &self.cached())
            .finish()
    }
}
