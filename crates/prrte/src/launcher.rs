//! The launcher: `prte` (DVM boot) + `prun` (job launch).

use crate::ctx::ProcCtx;
use crate::job::{JobSpec, MapBy};
use parking_lot::Mutex;
use pmix::{PmixUniverse, ProcId, Rank};
use simnet::SimTestbed;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

static JOB_COUNTER: AtomicU64 = AtomicU64::new(1);

/// A booted distributed virtual machine: daemons (PMIx servers) running on
/// every node of the testbed, ready to launch jobs.
pub struct Launcher {
    universe: Arc<PmixUniverse>,
}

impl Launcher {
    /// Boot the DVM over `testbed` (the `prte` analog).
    pub fn new(testbed: SimTestbed) -> Self {
        Self { universe: PmixUniverse::new(testbed) }
    }

    /// Wrap an existing universe (sharing a DVM between launchers).
    pub fn over(universe: Arc<PmixUniverse>) -> Self {
        Self { universe }
    }

    /// The universe this launcher drives.
    pub fn universe(&self) -> &Arc<PmixUniverse> {
        &self.universe
    }

    /// Launch `spec.np` processes running `body` (the `prun` analog).
    ///
    /// Each process gets a dedicated OS thread and a [`ProcCtx`]. Returns a
    /// [`JobHandle`]; the job's namespace is fresh and unique.
    pub fn spawn<T, F>(&self, spec: JobSpec, body: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: Fn(ProcCtx) -> T + Send + Sync + 'static,
    {
        let nspace = format!("prterun-{}", JOB_COUNTER.fetch_add(1, Ordering::Relaxed));
        self.spawn_named(&nspace, spec, body)
    }

    /// [`Launcher::spawn`] with an explicit namespace (tests).
    pub fn spawn_named<T, F>(&self, nspace: &str, spec: JobSpec, body: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: Fn(ProcCtx) -> T + Send + Sync + 'static,
    {
        let cluster = self.universe.testbed().cluster.clone();
        let total = cluster.total_slots();
        assert!(
            spec.np <= total,
            "job of {} processes does not fit allocation of {} slots",
            spec.np,
            total
        );
        let spawn_cost = self.universe.testbed().cost.spawn_cost;
        let obs = self.universe.fabric().obs();
        let map_ns = obs.histogram("launcher", "prrte", "map_ns");
        let spawn_ns = obs.histogram("launcher", "prrte", "spawn_ns");
        obs.counter("launcher", "prrte", "jobs_launched").inc();
        obs.counter("launcher", "prrte", "procs_launched")
            .add(spec.np as u64);

        // Root span of the job's trace: every rank's `rank.main` span is
        // parented here, so the whole job assembles into one span DAG.
        // Ended when the job is joined.
        let mut launch = obs.span_with_parent("launcher", "launch", nspace, None);
        launch.add_work(spec.np as u64);
        let launch_ctx = launch.context();

        // Map ranks to nodes and register everything *before* any process
        // starts: the job map must be complete when clients initialize.
        let t_map = std::time::Instant::now();
        let mut map_span =
            obs.span_with_parent("launcher", "launch.map", nspace, Some(launch_ctx));
        map_span.add_work(spec.np as u64);
        let mut endpoints = Vec::with_capacity(spec.np as usize);
        for rank in 0..spec.np {
            let node = match spec.map_by {
                MapBy::Slot => cluster.node_of_slot(rank),
                MapBy::Node => cluster.node_of_slot_by_node(rank),
            };
            let ep = self.universe.fabric().register(node);
            let proc = ProcId::new(nspace, rank);
            self.universe.register_proc(proc, &ep);
            endpoints.push(ep);
        }
        for (name, ranks) in &spec.psets {
            let members: Vec<ProcId> =
                ranks.iter().map(|r| ProcId::new(nspace, *r)).collect();
            self.universe.registry().define_pset(name, members);
        }
        map_span.end();
        map_ns.record(t_map.elapsed());
        obs.event(
            "launcher",
            "prrte",
            "launch.mapped",
            vec![
                ("nspace", nspace.into()),
                ("np", (spec.np as u64).into()),
            ],
        );

        let t_spawn = std::time::Instant::now();
        let mut spawn_span =
            obs.span_with_parent("launcher", "launch.spawn", nspace, Some(launch_ctx));
        spawn_span.add_work(spec.np as u64);
        let inner = Arc::new(JobInner {
            nspace: nspace.to_owned(),
            universe: self.universe.clone(),
            body: Arc::new(body),
            map_by: spec.map_by,
            spawn_cost,
            launch_ctx,
            threads: Mutex::new(Vec::with_capacity(spec.np as usize)),
            next_rank: AtomicU32::new(spec.np),
        });
        for (rank, ep) in endpoints.into_iter().enumerate() {
            inner.spawn_rank_thread(rank as Rank, ep, spec.np);
        }
        spawn_span.end();
        spawn_ns.record(t_spawn.elapsed());
        obs.event(
            "launcher",
            "prrte",
            "launch.spawned",
            vec![("nspace", nspace.into())],
        );
        JobHandle { inner, launch: Some(launch) }
    }
}

/// State shared between a [`JobHandle`] and the [`JobCtl`]s cloned off it:
/// everything needed to start more rank threads after launch.
struct JobInner<T> {
    nspace: String,
    universe: Arc<PmixUniverse>,
    body: Arc<dyn Fn(ProcCtx) -> T + Send + Sync>,
    map_by: MapBy,
    spawn_cost: Duration,
    launch_ctx: obs::TraceContext,
    /// Live rank threads, keyed by rank so retire can drain a subset.
    threads: Mutex<Vec<(Rank, JoinHandle<T>)>>,
    /// Next rank id to assign when the job grows (dense numbering).
    next_rank: AtomicU32,
}

impl<T: Send + 'static> JobInner<T> {
    /// Start one rank thread and record its handle.
    fn spawn_rank_thread(self: &Arc<Self>, rank: Rank, ep: simnet::Endpoint, np: u32) {
        let proc = ProcId::new(self.nspace.as_str(), rank);
        let universe = self.universe.clone();
        let body = self.body.clone();
        let spawn_cost = self.spawn_cost;
        let launch_ctx = self.launch_ctx;
        let handle = std::thread::Builder::new()
            .name(format!("{proc}"))
            .spawn(move || {
                if !spawn_cost.is_zero() {
                    std::thread::sleep(spawn_cost);
                }
                // The rank's root span: ambient for the whole body, so
                // every span the rank opens lands in the job's trace.
                let rank_span = universe.fabric().obs().span_with_parent(
                    &proc.to_string(),
                    "rank.main",
                    "",
                    Some(launch_ctx),
                );
                obs::trace::set_ambient(&rank_span);
                let pmix = universe
                    .client_for(&proc)
                    .expect("process registered before spawn");
                let ctx = ProcCtx::new(proc, np, ep, pmix, universe);
                let out = body(ctx);
                obs::trace::clear_ambient();
                rank_span.end();
                out
            })
            .expect("spawn process thread");
        self.threads.lock().push((rank, handle));
    }
}

fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// A cloneable control handle for a running job: grow it with
/// [`JobCtl::spawn_ranks`], drain ranks gracefully with
/// [`JobCtl::retire_ranks`]. The runtime analog of `prun --dvm` attach.
pub struct JobCtl<T> {
    inner: Arc<JobInner<T>>,
}

impl<T> Clone for JobCtl<T> {
    fn clone(&self) -> Self {
        Self { inner: self.inner.clone() }
    }
}

impl<T: Send + 'static> JobCtl<T> {
    /// The job's namespace.
    pub fn nspace(&self) -> &str {
        &self.inner.nspace
    }

    /// Start `count` new ranks, continuing the job's dense rank numbering.
    ///
    /// The new processes are mapped with the job's original policy
    /// (wrapping over the allocation when ranks exceed slots), registered
    /// with PMIx, and — if `pset` is given — appended to that pset's
    /// membership *before* their bodies start, so the membership-change
    /// event and the newcomers' own registry reads agree on one epoch.
    /// Returns the new rank ids.
    pub fn spawn_ranks(&self, count: u32, pset: Option<&str>) -> Vec<Rank> {
        let inner = &self.inner;
        let universe = &inner.universe;
        let cluster = universe.testbed().cluster.clone();
        let total = cluster.total_slots();
        let obs = universe.fabric().obs();
        let start = inner.next_rank.fetch_add(count, Ordering::SeqCst);
        let np_now = start + count;
        let mut span =
            obs.span_with_parent("launcher", "job.grow", &inner.nspace, Some(inner.launch_ctx));
        span.add_work(count as u64);
        let grow_ctx = span.context();
        let mut new_ranks = Vec::with_capacity(count as usize);
        let mut endpoints = Vec::with_capacity(count as usize);
        for rank in start..start + count {
            let slot = rank % total;
            let node = match inner.map_by {
                MapBy::Slot => cluster.node_of_slot(slot),
                MapBy::Node => cluster.node_of_slot_by_node(slot),
            };
            let ep = universe.fabric().register(node);
            let proc = ProcId::new(inner.nspace.as_str(), rank);
            universe.register_proc(proc, &ep);
            endpoints.push((rank, ep));
            new_ranks.push(rank);
        }
        if let Some(name) = pset {
            let registry = universe.registry();
            let (_, old) = registry
                .pset_members_versioned(name)
                .expect("spawn_ranks into unknown pset");
            let mut members = old.as_ref().clone();
            members.extend(new_ranks.iter().map(|r| ProcId::new(inner.nspace.as_str(), *r)));
            registry
                .update_pset_membership(name, members, Some(grow_ctx))
                .expect("spawn_ranks into unknown pset");
        }
        for (rank, ep) in endpoints {
            inner.spawn_rank_thread(rank, ep, np_now);
        }
        obs.counter("launcher", "prrte", "procs_launched").add(count as u64);
        obs.counter("launcher", "prrte", "ranks_grown").add(count as u64);
        span.end();
        obs.event(
            "launcher",
            "prrte",
            "job.grow",
            vec![
                ("nspace", inner.nspace.as_str().into()),
                ("count", (count as u64).into()),
                ("np", (np_now as u64).into()),
            ],
        );
        new_ranks
    }

    /// Gracefully drain `ranks`: shrink `pset` so the victims (and every
    /// subscriber) observe the membership change, wait for their bodies to
    /// return, then deregister them from the namespace.
    ///
    /// Unlike [`JobHandle::kill_rank`] this produces **no** failure event —
    /// the fabric endpoint is never killed — so peers must rely on the pset
    /// change, not death notification, to stop addressing retired ranks.
    /// Returns the retired ranks' results.
    pub fn retire_ranks(&self, ranks: &[Rank], pset: Option<&str>) -> Result<Vec<T>, String> {
        let inner = &self.inner;
        let universe = &inner.universe;
        let obs = universe.fabric().obs();
        let mut span = obs.span_with_parent(
            "launcher",
            "job.shrink",
            &inner.nspace,
            Some(inner.launch_ctx),
        );
        span.add_work(ranks.len() as u64);
        let shrink_ctx = span.context();
        let retired: Vec<ProcId> = ranks
            .iter()
            .map(|r| ProcId::new(inner.nspace.as_str(), *r))
            .collect();
        if let Some(name) = pset {
            let registry = universe.registry();
            let (_, old) = registry
                .pset_members_versioned(name)
                .expect("retire_ranks from unknown pset");
            let members: Vec<ProcId> =
                old.iter().filter(|p| !retired.contains(p)).cloned().collect();
            registry
                .update_pset_membership(name, members, Some(shrink_ctx))
                .expect("retire_ranks from unknown pset");
        }
        // The membership event is the drain signal: the victims' bodies see
        // themselves gone from the pset and return. Collect their threads.
        let handles: Vec<(Rank, JoinHandle<T>)> = {
            let mut th = inner.threads.lock();
            let (gone, keep) = th.drain(..).partition(|(r, _)| ranks.contains(r));
            *th = keep;
            gone
        };
        let mut out = Vec::with_capacity(handles.len());
        let mut first_panic = None;
        for (rank, h) in handles {
            match h.join() {
                Ok(v) => out.push(v),
                Err(e) => {
                    if first_panic.is_none() {
                        first_panic = Some(format!("rank {rank} panicked: {}", panic_msg(e)));
                    }
                }
            }
        }
        for p in &retired {
            // Graceful drains must shrink the fault-tracking pset too, but
            // ONLY that one: a blanket remove_from_psets here would bump
            // every app pset's epoch on a planned shrink the app already
            // coordinated via `pset` above.
            universe
                .registry()
                .remove_proc_from_pset(&pmix::survivors_pset_name(inner.nspace.as_str()), p);
            universe.registry().deregister_proc(p);
            // A retired rank's business cards must not outlive it: no
            // failure event fires on this path, so the servers' KVS purge
            // has to be explicit (else a lazy get could resolve a stale
            // endpoint long after the rank drained).
            universe.purge_retired(p);
        }
        obs.counter("launcher", "prrte", "ranks_retired").add(ranks.len() as u64);
        span.end();
        obs.event(
            "launcher",
            "prrte",
            "job.shrink",
            vec![
                ("nspace", inner.nspace.as_str().into()),
                ("count", (ranks.len() as u64).into()),
            ],
        );
        match first_panic {
            None => Ok(out),
            Some(p) => Err(p),
        }
    }
}

/// A running job: join it to collect per-rank results.
pub struct JobHandle<T> {
    inner: Arc<JobInner<T>>,
    /// The job's root trace span; ended when the job is joined.
    launch: Option<obs::Span>,
}

impl<T: Send + 'static> JobHandle<T> {
    /// The job's namespace.
    pub fn nspace(&self) -> &str {
        &self.inner.nspace
    }

    /// A cloneable control handle for growing/shrinking this job while it
    /// runs.
    pub fn ctl(&self) -> JobCtl<T> {
        JobCtl { inner: self.inner.clone() }
    }

    /// Kill one rank of this job (fault injection).
    pub fn kill_rank(&self, rank: Rank) {
        let proc = ProcId::new(self.inner.nspace.as_str(), rank);
        let _ = self.inner.universe.kill_proc(&proc);
    }

    /// Wait for every remaining rank; returns rank-ordered results, or the
    /// panic message of the first rank that panicked. Ranks already drained
    /// by [`JobCtl::retire_ranks`] are not included.
    pub fn join(self) -> Result<Vec<T>, String> {
        let mut threads: Vec<(Rank, JoinHandle<T>)> =
            std::mem::take(&mut *self.inner.threads.lock());
        threads.sort_by_key(|(r, _)| *r);
        let mut out = Vec::with_capacity(threads.len());
        let mut first_panic = None;
        for (rank, t) in threads {
            match t.join() {
                Ok(v) => out.push(v),
                Err(e) => {
                    if first_panic.is_none() {
                        first_panic = Some(format!("rank {rank} panicked: {}", panic_msg(e)));
                    }
                }
            }
        }
        // The job is done: close its root span and retire its namespace.
        if let Some(span) = self.launch {
            span.end();
        }
        self.inner
            .universe
            .registry()
            .deregister_namespace(&self.inner.nspace);
        match first_panic {
            None => Ok(out),
            Some(p) => Err(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmix::PmixError;
    use simnet::SimTestbed;
    use std::time::Duration;

    #[test]
    fn spawn_runs_every_rank_once() {
        let launcher = Launcher::new(SimTestbed::tiny(2, 2));
        let out = launcher
            .spawn(JobSpec::new(4), |ctx| (ctx.rank(), ctx.size()))
            .join()
            .unwrap();
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn map_by_slot_packs_nodes() {
        let launcher = Launcher::new(SimTestbed::tiny(2, 2));
        let nodes = launcher
            .spawn(JobSpec::new(4), |ctx| ctx.node().0)
            .join()
            .unwrap();
        assert_eq!(nodes, vec![0, 0, 1, 1]);
    }

    #[test]
    fn map_by_node_round_robins() {
        let launcher = Launcher::new(SimTestbed::tiny(2, 2));
        let nodes = launcher
            .spawn(JobSpec::new(4).map_by(MapBy::Node), |ctx| ctx.node().0)
            .join()
            .unwrap();
        assert_eq!(nodes, vec![0, 1, 0, 1]);
    }

    #[test]
    fn custom_psets_are_queryable() {
        let launcher = Launcher::new(SimTestbed::tiny(1, 4));
        let spec = JobSpec::new(4).with_pset("app://evens", vec![0, 2]);
        let names = launcher
            .spawn(spec, |ctx| {
                let names = ctx.pmix().query_pset_names();
                let members = ctx.pmix().query_pset_membership("app://evens").unwrap();
                (names, members.len())
            })
            .join()
            .unwrap();
        for (names, count) in names {
            assert!(names.contains(&"app://evens".to_string()));
            assert_eq!(count, 2);
        }
    }

    #[test]
    fn pmix_fence_works_across_job() {
        let launcher = Launcher::new(SimTestbed::tiny(2, 2));
        let out = launcher
            .spawn(JobSpec::new(4), |ctx| {
                let members: Vec<ProcId> = (0..ctx.size())
                    .map(|r| ProcId::new(ctx.proc().nspace(), r))
                    .collect();
                ctx.pmix().fence(&members, false).unwrap();
                ctx.rank()
            })
            .join()
            .unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn two_concurrent_jobs_do_not_interfere() {
        let launcher = Launcher::new(SimTestbed::tiny(2, 4));
        let j1 = launcher.spawn(JobSpec::new(3), |ctx| {
            let members: Vec<ProcId> = (0..ctx.size())
                .map(|r| ProcId::new(ctx.proc().nspace(), r))
                .collect();
            ctx.pmix().fence(&members, false).unwrap();
            ctx.proc().nspace().to_owned()
        });
        let j2 = launcher.spawn(JobSpec::new(2), |ctx| {
            let members: Vec<ProcId> = (0..ctx.size())
                .map(|r| ProcId::new(ctx.proc().nspace(), r))
                .collect();
            ctx.pmix().fence(&members, false).unwrap();
            ctx.proc().nspace().to_owned()
        });
        let n1 = j1.join().unwrap();
        let n2 = j2.join().unwrap();
        assert_ne!(n1[0], n2[0]);
    }

    #[test]
    fn panic_in_rank_is_reported() {
        let launcher = Launcher::new(SimTestbed::tiny(1, 2));
        let res = launcher
            .spawn(JobSpec::new(2), |ctx| {
                if ctx.rank() == 1 {
                    panic!("deliberate");
                }
                ctx.rank()
            })
            .join();
        let err = res.unwrap_err();
        assert!(err.contains("rank 1"));
        assert!(err.contains("deliberate"));
    }

    #[test]
    fn grow_and_retire_ranks() {
        use pmix::value::keys;
        let launcher = Launcher::new(SimTestbed::tiny(2, 2));
        let spec = JobSpec::new(2).with_pset("app://dyn", vec![0, 1]);
        // Each rank drains pset events until it observes itself absent from
        // the pset, then returns (rank, epoch at exit).
        let handle = launcher.spawn_named("dynjob", spec, |ctx| {
            let me = ctx.proc().clone();
            let events = ctx.pmix().watch_psets();
            loop {
                let ev = events
                    .next_timeout(Duration::from_secs(10))
                    .expect("pset event before timeout");
                if ev.get(keys::PSET_NAME).and_then(|v| v.as_str()) != Some("app://dyn") {
                    continue;
                }
                let epoch = ev.get(keys::PSET_EPOCH).and_then(|v| v.as_u64()).unwrap();
                let members = ev.get(keys::PSET_MEMBERS).and_then(|v| v.as_proc_list()).unwrap();
                if !members.contains(&me) {
                    return (ctx.rank(), epoch);
                }
            }
        });
        let ctl = handle.ctl();
        let grown = ctl.spawn_ranks(2, Some("app://dyn"));
        assert_eq!(grown, vec![2, 3]);
        let mut first = ctl.retire_ranks(&[1, 3], Some("app://dyn")).unwrap();
        first.sort();
        assert_eq!(first.iter().map(|(r, _)| *r).collect::<Vec<_>>(), vec![1, 3]);
        // Retirement is graceful: no rank died, so the namespace still
        // resolves the survivors and the pset holds exactly ranks 0 and 2.
        let members = launcher
            .universe()
            .registry()
            .pset_members("app://dyn")
            .unwrap();
        assert_eq!(
            members,
            vec![ProcId::new("dynjob", 0), ProcId::new("dynjob", 2)]
        );
        let mut rest = ctl.retire_ranks(&[0, 2], Some("app://dyn")).unwrap();
        rest.sort();
        assert_eq!(rest.iter().map(|(r, _)| *r).collect::<Vec<_>>(), vec![0, 2]);
        // Later retirees exited at a strictly later epoch.
        assert!(rest[0].1 > first[1].1);
        assert!(handle.join().unwrap().is_empty());
    }

    #[test]
    fn kill_rank_fails_collectives_of_survivors() {
        let launcher = Launcher::new(SimTestbed::tiny(2, 1));
        let handle = launcher.spawn(JobSpec::new(2), |ctx| {
            if ctx.rank() == 1 {
                // Do no PMIx work: stay alive until killed. Parked again
                // once dead, the rank returns at once.
                ctx.park_until_killed();
                ctx.park_until_killed();
                return Ok(());
            }
            let members: Vec<ProcId> = (0..ctx.size())
                .map(|r| ProcId::new(ctx.proc().nspace(), r))
                .collect();
            ctx.pmix().fence_timeout(&members, false, Duration::from_secs(10))
        });
        // Kill once rank 0's fence is in flight at its server.
        let servers = launcher.universe().servers();
        let fencing = || servers.iter().any(|s| s.shard_occupancy().ops_live.iter().any(|&n| n > 0));
        let cap = std::time::Instant::now() + Duration::from_secs(60);
        while !fencing() {
            assert!(std::time::Instant::now() < cap, "rank 0 never entered the fence");
            std::thread::yield_now();
        }
        handle.kill_rank(1);
        let joined = handle.join().unwrap();
        match &joined[0] {
            Err(PmixError::ProcTerminated(p)) => assert_eq!(p.rank(), 1),
            other => panic!("expected ProcTerminated, got {other:?}"),
        }
    }
}
