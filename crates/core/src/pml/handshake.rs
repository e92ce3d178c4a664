//! The exCID handshake: the one "learn the peer's local CID" transition
//! (ACK, extended header or advert) and the handshake cache that decides
//! who gets an advert instead of a handshake.

use super::*;

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

impl Pml {
    /// Bound the handshake cache to `cap` entries (≥ 1), evicting LRU
    /// entries immediately if it is already over. Written through the
    /// `pml.handshake_cache_cap` cvar; tests and soak harnesses shrink it to
    /// force eviction churn.
    pub(crate) fn set_handshake_cache_cap(&self, cap: usize) {
        self.cache_cap.store(cap.max(1), Ordering::Relaxed);
        let mut st = self.state.lock();
        self.cache_enforce_cap(&mut st.cache);
    }

    /// Number of peers currently held in the handshake cache.
    pub fn handshake_cache_len(&self) -> usize {
        self.state.lock().cache.stamps.len()
    }

    /// Current handshake-cache bound (the `pml.handshake_cache_cap` cvar).
    pub fn handshake_cache_cap(&self) -> usize {
        self.cache_cap.load(Ordering::Relaxed)
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
            st.cache.stamps.keys().map(|e| e.0.saturating_sub(base)).collect();
        entries.sort_unstable();
        PmlCacheSnapshot {
            cap: self.cache_cap.load(Ordering::Relaxed),
            gen: st.cache.gen,
            entries,
        }
    }

    /// Insert (or refresh) `ep` in the handshake cache, then enforce the
    /// LRU bound.
    fn cache_insert(&self, cache: &mut HandshakeCache, ep: EndpointId) {
        cache.clock += 1;
        cache.stamps.insert(ep, cache.clock);
        self.cache_enforce_cap(cache);
    }

    fn cache_enforce_cap(&self, cache: &mut HandshakeCache) {
        let cap = self.cache_cap.load(Ordering::Relaxed).max(1);
        while cache.stamps.len() > cap {
            let Some(victim) = cache.stamps.iter().min_by_key(|(_, t)| **t).map(|(e, _)| *e)
            else {
                break;
            };
            cache.stamps.remove(&victim);
            cache.gen += 1;
            self.metrics.cache_evicted.inc();
        }
        self.metrics.cache_entries.set(cache.stamps.len() as i64);
    }

    /// Remove `ep` from the handshake cache, bumping the generation.
    pub(super) fn cache_remove(&self, cache: &mut HandshakeCache, ep: EndpointId) -> bool {
        if cache.stamps.remove(&ep).is_none() {
            return false;
        }
        cache.gen += 1;
        self.metrics.cache_entries.set(cache.stamps.len() as i64);
        true
    }

    /// Whether `ep` is in the handshake cache — i.e. a CID handshake has
    /// completed with that endpoint on some communicator and it has not
    /// been invalidated by a failed send (tests + bench analysis).
    pub fn cached_peer(&self, ep: EndpointId) -> bool {
        self.state.lock().cache.stamps.contains_key(&ep)
    }

    /// Drop `ep` from the handshake cache. Sends-failures evict dead peers
    /// automatically, but a peer that *retired* gracefully never fails a
    /// send — its mailbox just drains to nowhere — so the rebuild path must
    /// invalidate departed peers explicitly, or a later incarnation on the
    /// same endpoint would be trusted with a stale `CidAdvert`. Returns
    /// whether an entry was actually dropped.
    pub fn invalidate_peer(&self, ep: EndpointId) -> bool {
        let dropped = self.cache_remove(&mut self.state.lock().cache, ep);
        if dropped {
            self.metrics.cache_invalidated.inc();
        }
        dropped
    }

    /// The one `AwaitAck → Known` transition: peer `rank` of `route` told
    /// us (by `via`) that its local CID is `peer_cid`. Ends the sender-side
    /// handshake span. An ACK or an extended header *completes a
    /// handshake* — the endpoint enters the cache and `pml.handshake`
    /// fires; an advert is the handshake the cache saved, and its sender
    /// already knows our CID, so no ACK is owed. A peer that is already
    /// `Known` (the other direction got there first) is left alone.
    pub(super) fn learn_cid(
        &self,
        route: &mut Route,
        cache: &mut HandshakeCache,
        rank: u32,
        peer_cid: u16,
        via: Via,
        src_ep: EndpointId,
    ) {
        let (Some(excid), Some(peer)) = (route.excid, route.peers.get_mut(rank as usize)) else {
            return;
        };
        if peer.mode != SendCid::AwaitAck {
            return;
        }
        peer.mode = SendCid::Known(peer_cid);
        if let Some(hs) = peer.handshake.take() {
            hs.end();
        }
        match via {
            Via::Advert => {
                peer.acked_back = true;
                self.metrics.advert_hits.inc();
            }
            Via::Ack | Via::Ext => {
                // The event samples the generation *before* the insert so
                // a capacity eviction triggered by this very insert cannot
                // mask a double-handshake.
                let gen = cache.gen;
                self.cache_insert(cache, src_ep);
                let via = if via == Via::Ack { "ack" } else { "ext" };
                self.metrics.handshake(excid, rank, via, gen);
            }
        }
    }

    /// Absorb a `CidAck` or `CidAdvert` addressed to route `local_cid`.
    /// An advert additionally has to prove its rank↔endpoint claim: an
    /// `Unresolved` slot can't validate it, and the real handshake will
    /// resolve that peer anyway.
    pub(super) fn on_cid_frame(
        &self,
        st: &mut PmlState,
        local_cid: u16,
        via: Via,
        info: CidInfo,
        src_ep: EndpointId,
    ) {
        let Some(route) = st.routes.get_mut(&local_cid) else { return };
        if via == Via::Advert
            && route.addrs.get(info.rank as usize) != Some(&PeerAddr::Known(src_ep))
        {
            return; // stale or misrouted advert: rank↔endpoint mismatch
        }
        self.learn_cid(route, &mut st.cache, info.rank, info.cid, via, src_ep);
    }
}
