//! Lazy (fence-free) peer resolution: sends to a peer whose endpoint is
//! still unknown queue behind one on-demand KVS fetch per peer.

use super::*;

/// One in-flight lazy resolution: the nonblocking KVS fetch plus every
/// send waiting on it.
struct LazyResolving {
    fetch: pmix::PeerFetch,
    queued: Vec<QueuedSend>,
    /// Critical-path span: opened when the resolution starts, closed at
    /// its terminal state (resolved or failed).
    span: obs::Span,
}

#[derive(Default)]
pub(super) struct LazyState {
    /// Installed only on the lazy session-init path; eager runs never
    /// create one, keeping their metric/event shape unchanged.
    resolver: Option<Arc<pmix::PeerResolver>>,
    resolving: HashMap<pmix::ProcId, LazyResolving>,
    /// Terminal outcome of a lazy resolution: `None` = resolved, `Some(e)`
    /// = failed with `e` (later sends to the peer fail fast with the same
    /// error until the route learns the endpoint passively).
    done: HashMap<pmix::ProcId, Option<MpiError>>,
    /// Resolutions started since the last probe drain; the instance layer
    /// converts each into a watchdog-visible setup request.
    probes: VecDeque<pmix::ProcId>,
}

/// Observable state of a lazy peer resolution (watchdog stages key on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveStatus {
    /// No resolution was ever started for this peer.
    Idle,
    /// A KVS fetch is in flight.
    InFlight,
    /// Terminal: the peer's endpoint was resolved and cached.
    Resolved,
    /// Terminal: the resolution failed with a typed error.
    Failed(MpiError),
}

impl Pml {
    /// Install the process's lazy peer resolver. Called once on the lazy
    /// session-init path; eager-only processes never have one.
    pub fn install_resolver(&self, resolver: Arc<pmix::PeerResolver>) {
        self.lazy.lock().resolver = Some(resolver);
    }

    /// The installed lazy resolver, if any.
    pub fn resolver(&self) -> Option<Arc<pmix::PeerResolver>> {
        self.lazy.lock().resolver.clone()
    }

    /// Fill every route slot addressed to `peer` with its resolved
    /// endpoint. Idempotent; `Known` slots are left untouched.
    fn fill_peer(&self, peer: &pmix::ProcId, ep: EndpointId) {
        let mut st = self.state.lock();
        for route in st.routes.values_mut() {
            for addr in route.addrs.iter_mut() {
                if matches!(addr, PeerAddr::Unresolved(p) if p == peer) {
                    *addr = PeerAddr::Known(ep);
                }
            }
        }
    }

    /// Emit the `pml.lazy_resolve` lifecycle event the chaos invariant
    /// checker keys on: every `begin` must be paired with an `end` whose
    /// outcome is `resolved` or `failed` — never a silent eager fallback.
    fn lazy_resolve_event(&self, peer: &pmix::ProcId, phase: &'static str, outcome: Option<&'static str>) {
        let mut attrs = Vec::with_capacity(3);
        attrs.extend([("peer", peer.to_string().into()), ("phase", obs::AttrValue::name(phase))]);
        if let Some(o) = outcome {
            attrs.push(("outcome", obs::AttrValue::name(o)));
        }
        self.metrics.obs.event(self.metrics.process, "pml", "pml.lazy_resolve", attrs);
    }

    /// A send found `peer` unresolved. A resolver cache hit costs zero
    /// round trips: fill every route slot for the peer and send. Otherwise
    /// park `qs` behind a resolution of `peer`, starting one if none is in
    /// flight. A terminal failure recorded earlier fails the send fast with
    /// the same typed error.
    pub(super) fn send_unresolved(&self, peer: pmix::ProcId, qs: QueuedSend) -> Result<()> {
        let mut lz = self.lazy.lock();
        let Some(resolver) = lz.resolver.clone() else {
            qs.req.fail(MpiError::intern(format!(
                "unresolved peer {peer} on a communicator but no resolver installed"
            )));
            return Ok(());
        };
        if let Some(ep) = resolver.lookup(&peer) {
            drop(lz);
            self.fill_peer(&peer, ep);
            return self.send(qs);
        }
        if let Some(entry) = lz.resolving.get_mut(&peer) {
            entry.queued.push(qs);
            return Ok(());
        }
        if let Some(Some(err)) = lz.done.get(&peer) {
            qs.req.fail(err.clone());
            return Ok(());
        }
        self.lazy_resolve_event(&peer, "begin", None);
        match resolver.begin(&peer) {
            Ok(fetch) => {
                let span = self.metrics.obs.span(
                    self.metrics.process,
                    "pml.lazy_resolve",
                    &peer,
                );
                lz.resolving
                    .insert(peer.clone(), LazyResolving { fetch, queued: vec![qs], span });
                lz.probes.push_back(peer);
            }
            // Typed immediate failure (peer deregistered or dead): the
            // resolution still reaches a terminal state.
            Err(e) => {
                let err = MpiError::from(e);
                self.lazy_resolve_event(&peer, "end", Some("failed"));
                qs.req.fail(err.clone());
                lz.done.insert(peer, Some(err));
            }
        }
        Ok(())
    }

    /// A resolution reached its terminal state: close its span, emit the
    /// `end` event, record the outcome, then flush (or fail) the parked
    /// sends.
    fn finish_resolution(&self, peer: pmix::ProcId, res: Result<EndpointId>, entry: LazyResolving) {
        if let Ok(ep) = &res {
            self.fill_peer(&peer, *ep);
        }
        entry.span.end();
        let outcome = if res.is_ok() { "resolved" } else { "failed" };
        self.lazy_resolve_event(&peer, "end", Some(outcome));
        self.lazy.lock().done.insert(peer, res.as_ref().err().cloned());
        for qs in entry.queued {
            let req = qs.req.clone();
            // A flushed send can still fail typed: the route may have been
            // unregistered while the resolution was in flight.
            let flushed = match &res {
                Ok(_) => self.send(qs),
                Err(e) => Err(e.clone()),
            };
            if let Err(e) = flushed {
                req.fail(e);
            }
        }
    }

    /// Poll every in-flight lazy resolution; on a terminal state fill the
    /// routes (or fail) and flush the parked sends. Returns whether any
    /// resolution completed.
    pub(super) fn progress_lazy(&self) -> bool {
        let completed: Vec<(pmix::ProcId, Result<EndpointId>, LazyResolving)> = {
            let mut lz = self.lazy.lock();
            let Some(resolver) = lz.resolver.clone() else { return false };
            let ready: Vec<(pmix::ProcId, Result<EndpointId>)> = lz
                .resolving
                .iter_mut()
                .filter_map(|(p, entry)| {
                    let res = resolver.poll(&mut entry.fetch)?;
                    Some((p.clone(), res.map_err(MpiError::from)))
                })
                .collect();
            ready
                .into_iter()
                .map(|(p, res)| {
                    let entry = lz.resolving.remove(&p).expect("key just polled");
                    (p, res, entry)
                })
                .collect()
        };
        let did = !completed.is_empty();
        for (peer, res, entry) in completed {
            self.finish_resolution(peer, res, entry);
        }
        did
    }

    /// Terminate in-flight lazy resolutions (`reset`): each queued send
    /// fails typed and every begun resolution still reaches an `end` event.
    pub(super) fn reset_lazy(&self) {
        let old = std::mem::take(&mut *self.lazy.lock());
        for (peer, entry) in old.resolving {
            entry.span.end();
            self.lazy_resolve_event(&peer, "end", Some("failed"));
            for qs in entry.queued {
                qs.req.fail(MpiError::new(
                    ErrClass::Session,
                    format!("session finalized while resolving peer {peer}"),
                ));
            }
        }
    }

    /// Observable state of the lazy resolution of `peer` (the watchdog
    /// stage polls this).
    pub fn resolve_status(&self, peer: &pmix::ProcId) -> ResolveStatus {
        let lz = self.lazy.lock();
        if lz.resolving.contains_key(peer) {
            return ResolveStatus::InFlight;
        }
        match lz.done.get(peer) {
            Some(None) => ResolveStatus::Resolved,
            Some(Some(e)) => ResolveStatus::Failed(e.clone()),
            None => ResolveStatus::Idle,
        }
    }

    /// Drain one resolution started since the last call. The instance
    /// layer turns each into a progress-engine request so a stalled lazy
    /// resolution is visible to the stall watchdog.
    pub fn take_resolve_probe(&self) -> Option<pmix::ProcId> {
        self.lazy.lock().probes.pop_front()
    }

    /// Number of lazy resolutions currently in flight (tests).
    pub fn resolving_count(&self) -> usize {
        self.lazy.lock().resolving.len()
    }
}
