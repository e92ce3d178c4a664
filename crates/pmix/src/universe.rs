//! The PMIx universe: one server per node, wired to a simulated fabric,
//! plus the failure-propagation bridge. None of it has a thread: servers
//! run on the threads that send to them, and the bridge is a fabric death
//! callback (see [`simnet::turn`](mod@simnet::turn)).
//!
//! In the real system this assembly is PRRTE's job (its daemons host the
//! PMIx servers); the `prrte` crate layers job launch and mapping on top of
//! this. The universe is also usable standalone in tests.

use crate::client::PmixClient;
use crate::error::{PmixError, Result};
use crate::nspace::{NamespaceRegistry, ProcEntry};
use crate::server::PmixServer;
use crate::types::ProcId;
use simnet::{Endpoint, EndpointId, Fabric, NodeId, SimTestbed};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Name prefix of the per-namespace *survivors* psets maintained by
/// [`PmixUniverse::track_faults`]: `mpi://world` minus every failed
/// process, shrunk by the failure bridge as deaths land and pruned by the
/// graceful-retire path. Versioned like any registry pset, so epoch-pinned
/// group queries compose.
pub const SURVIVORS_PSET_PREFIX: &str = "mpi://survivors/";

/// The survivors-pset name for `nspace` (see [`SURVIVORS_PSET_PREFIX`]).
pub fn survivors_pset_name(nspace: &str) -> String {
    format!("{SURVIVORS_PSET_PREFIX}{nspace}")
}

/// A running PMIx universe over a simulated testbed.
pub struct PmixUniverse {
    fabric: Fabric,
    registry: NamespaceRegistry,
    servers: Vec<Arc<PmixServer>>,
    server_eps: Vec<EndpointId>,
    testbed: SimTestbed,
    /// Deadline (ms) the MPI layer passes on group-construct fan-ins.
    /// Runtime-writable through the `pmix.group_timeout_ms` cvar.
    group_timeout_ms: AtomicU64,
}

/// Default group-construct deadline, matching
/// [`crate::GroupDirectives::default`].
const DEFAULT_GROUP_TIMEOUT_MS: u64 = 30_000;

impl PmixUniverse {
    /// Boot servers (one per node of the testbed) and the failure bridge.
    pub fn new(testbed: SimTestbed) -> Arc<Self> {
        let fabric = Fabric::new(testbed.cost.clone());
        let registry = NamespaceRegistry::new();
        registry.attach_obs(&fabric.obs());
        let mut servers = Vec::new();
        let mut server_eps = Vec::new();

        // The resource-manager service (PGCID allocator) lives on a
        // dedicated head node, like a batch system's controller: every
        // PGCID acquisition is an inter-node RPC from the lead
        // participating server.
        let head = NodeId(u32::MAX);
        for node in std::iter::once(head).chain(testbed.cluster.node_ids()) {
            let is_rm = node == head;
            let endpoint = fabric.register(node);
            let id = endpoint.id();
            servers.push(PmixServer::new(endpoint, registry.clone(), is_rm));
            if is_rm {
                registry.register_rm(id);
            }
            server_eps.push(id);
        }

        // Pset-change bridge: every registry change becomes a `pset.update`
        // span + obs event and fans out synchronously to every server's
        // subscribers. The listener runs under the registry's emission
        // lock, so subscribers observe changes in strict epoch order. The
        // span parents under the mutator's context and its own context is
        // forwarded on the event, closing the `pset.update →
        // session.rebuild` causal chain. The listener holds the servers
        // weakly: each server owns a clone of the registry, so a strong
        // capture here would be a cycle (registry → listener → server →
        // registry) keeping every server, the fabric and its pump thread
        // alive after the universe is dropped.
        {
            let obs = fabric.obs().clone();
            let servers_l: Vec<_> = servers.iter().map(Arc::downgrade).collect();
            registry.add_pset_listener(Box::new(move |change| {
                let kind = match change.kind {
                    crate::nspace::PsetChangeKind::Defined => "defined",
                    crate::nspace::PsetChangeKind::Membership => "membership",
                    crate::nspace::PsetChangeKind::Deleted => "deleted",
                };
                let mut span = obs.span_with_parent(
                    "registry",
                    "pset.update",
                    format_args!("{}@{}", change.name, change.epoch),
                    change.ctx,
                );
                span.add_work(change.members.len() as u64);
                let ctx = span.context();
                span.end();
                obs.event(
                    "registry",
                    "pmix",
                    "pset.update",
                    vec![
                        ("pset", change.name.as_str().into()),
                        ("epoch", change.epoch.into()),
                        ("kind", obs::AttrValue::name(kind)),
                        ("members", (change.members.len() as u64).into()),
                    ],
                );
                let relayed = crate::nspace::PsetChange { ctx: Some(ctx), ..change.clone() };
                for s in servers_l.iter().filter_map(|s| s.upgrade()) {
                    s.handle_pset_change(&relayed);
                }
            }));
        }

        // Failure bridge: fabric deaths -> `on_proc_failed` at every server,
        // then the dead process's psets shrink around it (so subscribers
        // rebuilding from the event already see the server-side death). A
        // death callback, run by the killing thread at the end of its turn;
        // server endpoints die only at teardown and carry no process. It
        // holds the servers weakly for the reason the listener above does.
        let registry_w = registry.clone();
        let servers_w: Vec<_> = servers.iter().map(Arc::downgrade).collect();
        fabric.on_death(move |ev| {
            let Some(proc) = registry_w.find_by_endpoint(ev.endpoint) else { return };
            for s in servers_w.iter().filter_map(|s| s.upgrade()) {
                s.on_proc_failed(&proc);
            }
            let _ = registry_w.remove_from_psets(&proc, None);
        });

        let uni = Arc::new(Self {
            fabric,
            registry,
            servers,
            server_eps,
            testbed,
            group_timeout_ms: AtomicU64::new(DEFAULT_GROUP_TIMEOUT_MS),
        });
        uni.register_cvars();
        uni
    }

    /// Register the universe-scoped control variables (MPI_T-style cvars,
    /// see `obs::tool`). The closures hold only a `Weak` back-reference, so
    /// the cvar store (owned by the fabric's obs registry, owned by this
    /// universe) never keeps the universe alive; entries prune themselves
    /// after teardown.
    fn register_cvars(self: &Arc<Self>) {
        let obs = self.fabric.obs();
        let w = Arc::downgrade(self);
        let (r, wr) = (w.clone(), w.clone());
        obs.cvar_register(
            "universe",
            "pmix.pgcid_block",
            "PGCIDs granted per RM round trip (ablation/bench knob; 1 restores the \
             unbatched one-request-per-construct behavior); writes fan to every server",
            move || r.upgrade().map(|u| obs::CvarValue::U64(u.servers[0].pgcid_block())),
            obs::u64_writer(move |v| {
                if let Some(u) = wr.upgrade() {
                    for s in &u.servers {
                        s.set_pgcid_block(v);
                    }
                }
            }),
        );
        let (r, wr) = (w.clone(), w.clone());
        obs.cvar_register(
            "universe",
            "registry.gc_enabled",
            "tombstone GC in the pset registry",
            move || r.upgrade().map(|u| obs::CvarValue::Bool(u.registry.gc_enabled())),
            obs::bool_writer(move |v| {
                if let Some(u) = wr.upgrade() {
                    u.registry.set_gc_enabled(v);
                }
            }),
        );
        for (name, description, value) in [
            (
                "pmix.server_shards",
                "key-hashed shards per server's ops and KVS tables (compile-time)",
                crate::server::SERVER_SHARDS,
            ),
            (
                "pmix.epoch_retention_cap",
                "retained collective epoch counters per ops shard (compile-time)",
                crate::server::EPOCH_RETENTION_CAP,
            ),
            (
                "registry.gc_tombstone_threshold",
                "tombstone count that triggers a registry GC pass (compile-time)",
                crate::nspace::GC_TOMBSTONE_THRESHOLD,
            ),
        ] {
            let r = w.clone();
            let read = move || r.upgrade().map(|_| obs::CvarValue::U64(value as u64));
            obs.cvar_register("universe", name, description, read, None);
        }
        let (r, wr) = (w.clone(), w.clone());
        obs.cvar_register(
            "universe",
            "pmix.group_timeout_ms",
            "deadline (ms) the MPI layer pins on group-construct fan-ins — comm \
             creation, shrink/repair, elastic rebuild",
            move || r.upgrade().map(|u| obs::CvarValue::U64(u.group_timeout().as_millis() as u64)),
            obs::u64_writer(move |v| {
                if let Some(u) = wr.upgrade() {
                    u.group_timeout_ms.store(v.max(1), Ordering::Relaxed);
                }
            }),
        );
    }

    /// The deadline the MPI layer pins on every group-construct fan-in
    /// (comm creation, shrink/repair, elastic rebuild). Runtime-writable
    /// through the `pmix.group_timeout_ms` cvar, so fault drills can trade
    /// the forgiving default for a fast typed `Timeout`.
    pub fn group_timeout(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.group_timeout_ms.load(Ordering::Relaxed))
    }

    /// Purge a gracefully-retired process's business cards from every
    /// server (committed data, remote caches, parked fetches). The retire
    /// path produces no failure event — the endpoint is never killed — so
    /// without this sweep the cards would outlive the process and a lazy
    /// get could resolve a retired peer to a stale endpoint.
    pub fn purge_retired(&self, proc: &ProcId) {
        for s in &self.servers {
            s.purge_kvs_for(proc);
        }
    }

    /// The per-node servers (index 0 is the head-node RM daemon).
    pub fn servers(&self) -> &[Arc<PmixServer>] {
        &self.servers
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The shared registry.
    pub fn registry(&self) -> &NamespaceRegistry {
        &self.registry
    }

    /// The testbed this universe runs on.
    pub fn testbed(&self) -> &SimTestbed {
        &self.testbed
    }

    /// Fabric endpoints of the control plane: the RM daemon first, then one
    /// server per compute node. Fault-injection harnesses use this to scope
    /// message faults to (idempotent) server-to-server traffic.
    pub fn server_endpoints(&self) -> Vec<EndpointId> {
        self.server_eps.clone()
    }

    /// The server managing `node`.
    pub fn server(&self, node: NodeId) -> Result<Arc<PmixServer>> {
        self.servers
            .iter()
            .find(|s| s.node() == node)
            .cloned()
            .ok_or_else(|| PmixError::NotFound(format!("server for {node}")))
    }

    /// Register a process endpoint for a namespace and return its entry.
    ///
    /// The caller (normally `prrte`) creates the process endpoint itself so
    /// it can hand the mailbox to the process thread; this method records
    /// it in the registry.
    pub fn register_proc(&self, proc: ProcId, endpoint: &Endpoint) {
        let nspace = proc.nspace_arc();
        self.registry.register_namespace(
            &nspace,
            vec![ProcEntry { proc, node: endpoint.node(), endpoint: endpoint.id() }],
        );
    }

    /// Create a client for `proc`, which must already be registered.
    pub fn client_for(&self, proc: &ProcId) -> Result<PmixClient> {
        let entry = self.registry.locate(proc)?;
        let server = self.server(entry.node)?;
        Ok(PmixClient::init(server, proc.clone()))
    }

    /// Whether the universe has observed `proc`'s death. The failure
    /// bridge replicates every death to all servers *synchronously* before
    /// any pset event fires, so any single server's dead set is
    /// authoritative for the whole universe; a kill made by this thread has
    /// reached it by the time [`PmixUniverse::kill_proc`] returns.
    pub fn proc_is_dead(&self, proc: &ProcId) -> bool {
        self.servers[0].proc_is_dead(proc)
    }

    /// Opt in to fault tracking for `nspace`: define (idempotently) the
    /// registry-backed survivors pset — the namespace's processes minus
    /// every observed death. From then on the failure bridge's
    /// [`NamespaceRegistry::remove_from_psets`] shrinks it on each kill
    /// and the graceful-retire path prunes departures, so the pset *is*
    /// the queryable "who is still here" answer, versioned under the
    /// global registry epoch. Returns the pset name.
    ///
    /// Tracking is opt-in (not armed at launch) so jobs that never ask for
    /// fault awareness keep their exact pset-epoch sequences.
    pub fn track_faults(&self, nspace: &str) -> Result<String> {
        let name = survivors_pset_name(nspace);
        let info = self.registry.namespace(nspace)?;
        let live: Vec<ProcId> = info
            .procs()
            .iter()
            .filter(|e| !self.proc_is_dead(&e.proc))
            .map(|e| e.proc.clone())
            .collect();
        self.registry.define_pset_if_absent(&name, live);
        // Close the race with a death landing between the liveness
        // snapshot and the define: the bridge marks dead *before* it
        // shrinks psets, so a post-define sweep catches anything missed.
        for e in info.procs() {
            if self.proc_is_dead(&e.proc) {
                self.registry.remove_proc_from_pset(&name, &e.proc);
            }
        }
        Ok(name)
    }

    /// Kill a registered process (fault injection). Every server has
    /// handled the death, and the process's psets have shrunk, when this
    /// returns.
    pub fn kill_proc(&self, proc: &ProcId) -> Result<()> {
        let entry = self.registry.locate(proc)?;
        self.fabric.kill(entry.endpoint);
        Ok(())
    }

    /// Stop the control plane: kill every server endpoint, and let each
    /// server handle what its mailbox still holds (a kill settles a served
    /// endpoint, waiting out a concurrent runner). Idempotent; dropping the
    /// universe does the same. Counts a server settles only on arrival — a
    /// one-way PGCID release still waiting out its processing cost at the
    /// lead when the ranks exit — are final once this returns, which is
    /// when a harness should read them.
    pub fn shutdown(&self) {
        for ep in &self.server_eps {
            self.fabric.kill(*ep);
        }
    }
}

impl Drop for PmixUniverse {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupDirectives;
    use crate::value::PmixValue;
    use std::time::Duration;

    fn spawn_procs(
        uni: &Arc<PmixUniverse>,
        nspace: &str,
        n: u32,
    ) -> Vec<(ProcId, simnet::Endpoint)> {
        let spec = uni.testbed().cluster.clone();
        (0..n)
            .map(|rank| {
                let node = spec.node_of_slot(rank % spec.total_slots());
                let ep = uni.fabric().register(node);
                let proc = ProcId::new(nspace, rank);
                uni.register_proc(proc.clone(), &ep);
                (proc, ep)
            })
            .collect()
    }

    #[test]
    fn universe_boots_and_shuts_down() {
        let uni = PmixUniverse::new(SimTestbed::tiny(3, 2));
        // 3 compute-node servers + the head-node RM daemon.
        assert_eq!(uni.registry().servers().len(), 4);
        assert!(uni.registry().rm_endpoint().is_some());
        assert_ne!(uni.registry().rm_endpoint(), uni.registry().lead_server());
        drop(uni);
    }

    #[test]
    fn single_node_group_construct_gets_pgcid() {
        let uni = PmixUniverse::new(SimTestbed::tiny(1, 4));
        let procs = spawn_procs(&uni, "job", 2);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let m2 = members.clone();
        let uni2 = uni.clone();
        let h = std::thread::spawn(move || {
            let c = uni2.client_for(&m2[1]).unwrap();
            c.group_construct("g", &m2, &GroupDirectives::for_mpi()).unwrap()
        });
        let c = uni.client_for(&members[0]).unwrap();
        let g = c.group_construct("g", &members, &GroupDirectives::for_mpi()).unwrap();
        let g2 = h.join().unwrap();
        assert_eq!(g.pgcid(), g2.pgcid());
        assert!(g.pgcid().unwrap() > 0);
        assert_eq!(g.members(), g2.members());
        assert_eq!(g.size(), 2);
    }

    #[test]
    fn multi_node_group_construct_agrees_on_pgcid() {
        let uni = PmixUniverse::new(SimTestbed::tiny(4, 1));
        let procs = spawn_procs(&uni, "job", 4);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let mut handles = Vec::new();
        for (p, _) in &procs {
            let uni2 = uni.clone();
            let p = p.clone();
            let m = members.clone();
            handles.push(std::thread::spawn(move || {
                let c = uni2.client_for(&p).unwrap();
                c.group_construct("mg", &m, &GroupDirectives::for_mpi()).unwrap()
            }));
        }
        let groups: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let pgcid = groups[0].pgcid().unwrap();
        assert!(pgcid > 0);
        for g in &groups {
            assert_eq!(g.pgcid(), Some(pgcid));
            assert_eq!(g.size(), 4);
        }
    }

    #[test]
    fn successive_constructs_get_distinct_pgcids() {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        let procs = spawn_procs(&uni, "job", 2);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let run = |name: &'static str| {
            let mut hs = Vec::new();
            for (p, _) in &procs {
                let uni2 = uni.clone();
                let p = p.clone();
                let m = members.clone();
                hs.push(std::thread::spawn(move || {
                    let c = uni2.client_for(&p).unwrap();
                    c.group_construct(name, &m, &GroupDirectives::for_mpi()).unwrap()
                }));
            }
            hs.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        };
        let g1 = run("a");
        let g2 = run("b");
        assert_ne!(g1[0].pgcid(), g2[0].pgcid());
    }

    #[test]
    fn fence_with_data_collection_makes_gets_local() {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        let procs = spawn_procs(&uni, "job", 2);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let mut hs = Vec::new();
        for (i, (p, _)) in procs.iter().enumerate() {
            let uni2 = uni.clone();
            let p = p.clone();
            let m = members.clone();
            hs.push(std::thread::spawn(move || {
                let c = uni2.client_for(&p).unwrap();
                c.put("card", format!("endpoint-of-{i}"));
                c.commit();
                c.fence(&m, true).unwrap();
                // After a collecting fence, the peer's data must be readable.
                let peer = &m[1 - i];
                c.get(peer, "card").unwrap()
            }));
        }
        let vals: Vec<_> = hs.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(vals[0], PmixValue::Str("endpoint-of-1".into()));
        assert_eq!(vals[1], PmixValue::Str("endpoint-of-0".into()));
    }

    #[test]
    fn dmodex_fetch_without_fence() {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        let procs = spawn_procs(&uni, "job", 2);
        let (p0, _) = &procs[0];
        let (p1, _) = &procs[1];
        let c0 = uni.client_for(p0).unwrap();
        let c1 = uni.client_for(p1).unwrap();
        c1.put("bc", PmixValue::U64(77));
        c1.commit();
        // No fence: this goes through the dmodex path to the remote server.
        let v = c0.get(p1, "bc").unwrap();
        assert_eq!(v.as_u64(), Some(77));
    }

    #[test]
    fn dmodex_parks_until_commit() {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        let procs = spawn_procs(&uni, "job", 2);
        let (p0, _) = &procs[0];
        let (p1, _) = &procs[1];
        let c1 = uni.client_for(p1).unwrap();
        // The request reaches p1's server before `fetch_begin` returns, and
        // parks there: no answer until the commit.
        let server = uni.client_for(p0).unwrap().server().clone();
        let mut ticket = server.fetch_begin(p1, "late").unwrap();
        assert!(server.fetch_poll(&mut ticket).is_none());
        c1.put("late", PmixValue::Bool(true));
        c1.commit();
        server.fetch_park(&ticket, Duration::from_secs(5));
        let got = server.fetch_poll(&mut ticket).expect("the commit answered it").unwrap();
        assert_eq!(got.as_bool(), Some(true));
    }

    #[test]
    fn group_construct_times_out_when_member_never_arrives() {
        let uni = PmixUniverse::new(SimTestbed::tiny(1, 2));
        let procs = spawn_procs(&uni, "job", 2);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let c = uni.client_for(&members[0]).unwrap();
        let d = GroupDirectives::for_mpi().with_timeout(Some(Duration::from_millis(200)));
        let err = c.group_construct("never", &members, &d).unwrap_err();
        assert_eq!(err, PmixError::Timeout);
    }

    #[test]
    fn group_construct_fails_when_member_dies() {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        let procs = spawn_procs(&uni, "job", 2);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let victim = members[1].clone();
        // The construct is in flight at its server when the member dies.
        let c = uni.client_for(&members[0]).unwrap();
        let pending = c.group_construct_nb("doomed", &members, &GroupDirectives::for_mpi()).unwrap();
        uni.kill_proc(&victim).unwrap();
        assert_eq!(pending.wait().unwrap_err(), PmixError::ProcTerminated(victim));
    }

    #[test]
    fn invite_join_builds_group_without_collective() {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 2));
        let procs = spawn_procs(&uni, "job", 3);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let initiator = members[0].clone();

        // Invitees wait for the invitation event, then join (one declines).
        let mut hs = Vec::new();
        let (subscribed, listening) = std::sync::mpsc::channel();
        for (i, m) in members[1..].iter().enumerate() {
            let uni2 = uni.clone();
            let m = m.clone();
            let subscribed = subscribed.clone();
            hs.push(std::thread::spawn(move || {
                let c = uni2.client_for(&m).unwrap();
                let events = c.register_events(Some(vec![crate::event::EventCode::GroupInvited]));
                subscribed.send(()).unwrap();
                let ev = events.next_timeout(Duration::from_secs(5)).expect("invited");
                let inviter = ev.source.clone().unwrap();
                let name = ev.get("group").unwrap().as_str().unwrap().to_owned();
                let accept = i == 0; // member[1] accepts, member[2] declines
                c.group_join(&name, &inviter, accept).unwrap();
            }));
        }
        for _ in &hs {
            listening.recv().unwrap();
        }
        let c = uni.client_for(&initiator).unwrap();
        c.group_invite("async-g", &members[1..], &GroupDirectives::for_mpi())
            .unwrap();
        let g = c.group_invite_wait("async-g", Duration::from_secs(10)).unwrap();
        for h in hs {
            h.join().unwrap();
        }
        // initiator + the accepting invitee
        assert_eq!(g.size(), 2);
        assert!(g.pgcid().unwrap() > 0);
        assert!(g.members().contains(&initiator));
        assert!(g.members().contains(&members[1]));
        assert!(!g.members().contains(&members[2]));
    }

    #[test]
    fn group_leave_notifies_remaining_members() {
        let uni = PmixUniverse::new(SimTestbed::tiny(1, 2));
        let procs = spawn_procs(&uni, "job", 2);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let m2 = members.clone();
        let uni2 = uni.clone();
        let h = std::thread::spawn(move || {
            let c = uni2.client_for(&m2[1]).unwrap();
            let events =
                c.register_events(Some(vec![crate::event::EventCode::GroupMemberLeft]));
            let g = c.group_construct("lg", &m2, &GroupDirectives::for_mpi()).unwrap();
            let _ = g;
            events.next_timeout(Duration::from_secs(5))
        });
        let c = uni.client_for(&members[0]).unwrap();
        // The construct completes only once both members arrived, so the
        // peer has subscribed by now.
        let g = c.group_construct("lg", &members, &GroupDirectives::for_mpi()).unwrap();
        c.group_leave(&g).unwrap();
        let ev = h.join().unwrap().expect("leave event");
        assert_eq!(ev.source, Some(members[0].clone()));
    }

    #[test]
    fn queries_resolve_psets() {
        let uni = PmixUniverse::new(SimTestbed::tiny(1, 2));
        let procs = spawn_procs(&uni, "job", 1);
        uni.registry()
            .define_pset("app://x", vec![procs[0].0.clone()]);
        let c = uni.client_for(&procs[0].0).unwrap();
        let out = crate::query::query_info(
            &c,
            &[
                crate::query::Query::key(crate::value::keys::QUERY_NUM_PSETS),
                crate::query::Query::key(crate::value::keys::QUERY_PSET_NAMES),
                crate::query::Query::with_qualifier(
                    crate::value::keys::QUERY_PSET_MEMBERSHIP,
                    "app://x",
                ),
            ],
        )
        .unwrap();
        assert_eq!(out[0].as_u64(), Some(1));
        assert_eq!(out[1].as_str_list().unwrap(), &["app://x".to_string()]);
        assert_eq!(out[2].as_proc_list().unwrap().len(), 1);
    }

    #[test]
    fn proc_termination_event_reaches_subscribers() {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        let procs = spawn_procs(&uni, "job", 2);
        let c0 = uni.client_for(&procs[0].0).unwrap();
        let events = c0.register_events(Some(vec![crate::event::EventCode::ProcTerminated]));
        uni.kill_proc(&procs[1].0).unwrap();
        let ev = events.next_timeout(Duration::from_secs(5)).expect("termination event");
        assert_eq!(ev.source, Some(procs[1].0.clone()));
    }

    #[test]
    fn nb_construct_matches_blocking_peer() {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        let procs = spawn_procs(&uni, "job", 2);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let m2 = members.clone();
        let uni2 = uni.clone();
        let h = std::thread::spawn(move || {
            let c = uni2.client_for(&m2[1]).unwrap();
            c.group_construct("nb", &m2, &GroupDirectives::for_mpi()).unwrap()
        });
        let c = uni.client_for(&members[0]).unwrap();
        let mut pending =
            c.group_construct_nb("nb", &members, &GroupDirectives::for_mpi()).unwrap();
        // Poll-drive to completion instead of blocking.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let mine = loop {
            if let Some(res) = pending.try_group() {
                break res.unwrap();
            }
            assert!(std::time::Instant::now() < deadline, "poll never completed");
            std::thread::yield_now();
        };
        let theirs = h.join().unwrap();
        assert_eq!(mine.pgcid(), theirs.pgcid());
        assert_eq!(mine.members(), theirs.members());
        assert!(pending.is_finished());
    }

    #[test]
    fn concurrent_nb_constructs_coalesce_pgcid_requests() {
        const K: usize = 6;
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        // Paper-prototype mode: one id per RM grant, so every construct
        // that cannot coalesce pays its own round trip.
        uni.fabric().obs().cvar_write("universe", "pmix.pgcid_block", obs::CvarValue::U64(1)).unwrap();
        let procs = spawn_procs(&uni, "job", 2);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let m2 = members.clone();
        let uni2 = uni.clone();
        let h = std::thread::spawn(move || {
            let c = uni2.client_for(&m2[1]).unwrap();
            let pendings: Vec<_> = (0..K)
                .map(|i| {
                    c.group_construct_nb(&format!("cg{i}"), &m2, &GroupDirectives::for_mpi())
                        .unwrap()
                })
                .collect();
            pendings.into_iter().map(|p| p.wait().unwrap()).collect::<Vec<_>>()
        });
        let c = uni.client_for(&members[0]).unwrap();
        let pendings: Vec<_> = (0..K)
            .map(|i| {
                c.group_construct_nb(&format!("cg{i}"), &members, &GroupDirectives::for_mpi())
                    .unwrap()
            })
            .collect();
        let mine: Vec<_> = pendings.into_iter().map(|p| p.wait().unwrap()).collect();
        let theirs = h.join().unwrap();
        let obs = uni.fabric().obs();
        // Ranks agree per construct; ids are distinct across constructs.
        let mut seen = std::collections::HashSet::new();
        for (a, b) in mine.iter().zip(&theirs) {
            assert_eq!(a.pgcid(), b.pgcid());
            assert!(seen.insert(a.pgcid().unwrap()), "pgcid reused across groups");
        }
        // Every construct either paid a round trip, rode one (coalesced),
        // or hit the pool — the accounting must add up exactly.
        let requests = obs
            .spans_snapshot()
            .iter()
            .filter(|s| s.name == "pgcid.request")
            .count() as u64;
        let coalesced = obs.sum_counters("pmix", "pgcid_coalesced");
        let pool_hits = obs.sum_counters("pmix", "pgcid_pool_hits");
        assert_eq!(requests + coalesced + pool_hits, K as u64);
        assert_eq!(obs.sum_counters("pmix", "pgcid_allocated"), K as u64);
    }

    #[test]
    fn dropped_pending_construct_is_abandoned_not_leaked() {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        let procs = spawn_procs(&uni, "job", 2);
        let members: Vec<ProcId> = procs.iter().map(|(p, _)| p.clone()).collect();
        let m2 = members.clone();
        let uni2 = uni.clone();
        let h = std::thread::spawn(move || {
            let c = uni2.client_for(&m2[1]).unwrap();
            c.group_construct("aband", &m2, &GroupDirectives::for_mpi()).unwrap()
        });
        let c = uni.client_for(&members[0]).unwrap();
        let pending =
            c.group_construct_nb("aband", &members, &GroupDirectives::for_mpi()).unwrap();
        // The peer still completes: rank 0's fan-in contribution already
        // happened at coll_begin; dropping only abandons the observation.
        let theirs = h.join().unwrap();
        drop(pending);
        assert!(theirs.pgcid().is_some());
        let obs = uni.fabric().obs();
        assert_eq!(obs.sum_counters("pmix", "coll_abandoned"), 1);
        // The abandoned epoch is reaped: the same name constructs again.
        let m2 = members.clone();
        let uni2 = uni.clone();
        let h = std::thread::spawn(move || {
            let c = uni2.client_for(&m2[1]).unwrap();
            c.group_construct("aband", &m2, &GroupDirectives::for_mpi()).unwrap()
        });
        let again = c.group_construct("aband", &members, &GroupDirectives::for_mpi()).unwrap();
        let again2 = h.join().unwrap();
        assert_eq!(again.pgcid(), again2.pgcid());
        assert_ne!(again.pgcid(), theirs.pgcid());
    }
}
