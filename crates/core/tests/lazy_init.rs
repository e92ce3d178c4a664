//! Lazy (fence-free) session initialization, end to end (DESIGN.md §14):
//!
//! * `init_mode=lazy` skips every collective setup step — no fence, no
//!   PMIx group construction, no PGCID round trip — and still yields a
//!   fully functional communicator;
//! * peer endpoints resolve **on demand**: actively (first send triggers a
//!   KVS business-card fetch) or passively (the receiver learns the
//!   sender's endpoint from the first message's extended header);
//! * an eager and a lazy run of the same program produce identical
//!   results ("trace equivalence" at the application boundary);
//! * a retired rank's business card is purged from every server shard, so
//!   a later lazy resolve fails with a typed error instead of handing out
//!   a stale endpoint.

mod common;

use mpi_sessions::info::keys;
use mpi_sessions::session::PSET_WORLD;
use mpi_sessions::{coll, CidOrigin, Comm, ErrHandler, Info, ReduceOp, Session, ThreadLevel};
use prrte::{JobSpec, Launcher, ProcCtx};
use simnet::SimTestbed;
use std::time::Duration;

fn mode_info(mode: &str) -> Info {
    let info = Info::new();
    info.set(keys::INIT_MODE, mode);
    info
}

fn lazy_info() -> Info {
    mode_info("lazy")
}

fn lazy_session(ctx: &ProcCtx) -> Session {
    Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &lazy_info()).unwrap()
}

/// The workload both modes run for the equivalence test: a ring exchange
/// (every rank sends to its right neighbor and receives from its left),
/// then an allreduce. Returns (received payload, allreduce sum).
fn ring_then_allreduce(ctx: &ProcCtx, comm: &Comm) -> (Vec<u8>, u64) {
    let np = comm.size();
    let right = (ctx.rank() + 1) % np;
    let left = (ctx.rank() + np - 1) % np;
    let payload = vec![ctx.rank() as u8; 8];
    let (got, _) = comm.sendrecv(right, 5, &payload, left as i32, 5).unwrap();
    let sum = coll::allreduce_t(comm, ReduceOp::Sum, &[ctx.rank() as u64]).unwrap()[0];
    (got, sum)
}

#[test]
fn lazy_init_end_to_end_without_group_construct() {
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let out = launcher
        .spawn(JobSpec::new(4), |ctx| {
            let session = lazy_session(&ctx);
            assert!(session.is_lazy());
            let group = session.group_from_pset(PSET_WORLD).unwrap();
            assert!(group.is_lazy(), "groups inherit the session's mode");
            let comm = Comm::create_from_group(&group, "lazy-e2e").unwrap();
            assert_eq!(comm.cid_origin(), CidOrigin::Lazy);
            let excid = comm.excid().unwrap();
            assert_ne!(excid.pgcid & (1 << 63), 0, "hashed PGCIDs set bit 63");
            let res = (ring_then_allreduce(&ctx, &comm), excid);
            comm.free().unwrap();
            session.finalize().unwrap();
            (res, ctx.proc().to_string())
        })
        .join()
        .expect("lazy job");

    for (((got, sum), excid), _) in &out {
        assert_eq!(*sum, 6);
        assert_eq!(got.len(), 8);
        // Every rank hashed the identical exCID with zero traffic.
        assert_eq!(*excid, out[0].0 .1);
    }
    let obs = launcher.universe().fabric().obs();
    // The whole point: no PMIx group collective ran, in any stage.
    assert_eq!(obs.sum_counters("pmix", "group_construct_completed"), 0);
    assert_eq!(obs.sum_counters("pmix", "stage_fanin"), 0);
    assert_eq!(obs.sum_counters("pmix", "stage_fanout"), 0);
    assert_eq!(obs.sum_counters("pmix", "fence_completed"), 0);
    // Somebody resolved a peer through the KVS...
    assert!(obs.sum_counters("pmix", "lazy_gets") > 0, "active resolution happened");
    // ...and every begun resolution reached a terminal state.
    let events = obs.events_named("pml.lazy_resolve");
    let begins = events
        .iter()
        .filter(|e| e.attr("phase").and_then(|v| v.as_str()) == Some("begin"))
        .count();
    let ends = events
        .iter()
        .filter(|e| e.attr("phase").and_then(|v| v.as_str()) == Some("end"))
        .count();
    assert!(begins > 0, "at least one lazy resolve began");
    assert_eq!(begins, ends, "every lazy resolve must terminate");
}

#[test]
fn lazy_and_eager_runs_are_equivalent_at_the_app_boundary() {
    // The same program, once per mode, each in its own universe so the
    // observability registries don't mix.
    let run_mode = |mode: &'static str| {
        let launcher = Launcher::new(SimTestbed::tiny(2, 2));
        let out = launcher
            .spawn(JobSpec::new(4), move |ctx| {
                let info = mode_info(mode);
                let session =
                    Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &info).unwrap();
                let group = session.group_from_pset(PSET_WORLD).unwrap();
                let comm = Comm::create_from_group(&group, "equiv").unwrap();
                let res = ring_then_allreduce(&ctx, &comm);
                comm.free().unwrap();
                session.finalize().unwrap();
                res
            })
            .join()
            .expect("equiv job");
        let obs = launcher.universe().fabric().obs();
        (out, obs.sum_counters("pmix", "stage_fanout"))
    };
    let (eager_out, eager_fanout) = run_mode("eager");
    let (lazy_out, lazy_fanout) = run_mode("lazy");
    // Identical application-visible behavior...
    assert_eq!(eager_out, lazy_out);
    // ...with the collective machinery only on the eager side.
    assert!(eager_fanout > 0, "eager comm creation fans out");
    assert_eq!(lazy_fanout, 0, "lazy comm creation never fans out");
}

#[test]
fn first_receive_resolves_the_sender_passively() {
    // Rank 0 resolves rank 1 actively (KVS fetch). Rank 1 never fetches:
    // its route to rank 0 fills in from the first message's extended
    // header, so the reply rides a fully resolved route.
    let launcher = Launcher::new(SimTestbed::tiny(2, 1));
    let procs = launcher
        .spawn(JobSpec::new(2), |ctx| {
            let session = lazy_session(&ctx);
            let group = session.group_from_pset(PSET_WORLD).unwrap();
            let comm = Comm::create_from_group(&group, "passive").unwrap();
            if ctx.rank() == 0 {
                comm.send(1, 3, b"ping").unwrap();
                let (reply, _) = comm.recv(1, 4).unwrap();
                assert_eq!(reply, b"pong");
            } else {
                let (m, _) = comm.recv(0, 3).unwrap();
                assert_eq!(m, b"ping");
                comm.send(0, 4, b"pong").unwrap();
            }
            comm.free().unwrap();
            session.finalize().unwrap();
            ctx.proc().to_string()
        })
        .join()
        .expect("passive job");

    let obs = launcher.universe().fabric().obs();
    assert!(
        obs.counter_value(&procs[0], "pmix", "lazy_gets") >= 1,
        "the initiator resolves actively"
    );
    assert_eq!(
        obs.counter_value(&procs[1], "pmix", "lazy_gets"),
        0,
        "the receiver must not need a KVS fetch"
    );
    assert!(
        obs.sum_counters("pml", "lazy_passive_resolves") >= 1,
        "the receiver learned the sender's endpoint from the ext header"
    );
}

/// The session's info is the init mode's one source: no key is eager,
/// `lazy` is lazy, and any other value is eager.
#[test]
fn session_info_is_the_only_init_mode_source() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    let out = launcher
        .spawn(JobSpec::new(2), |ctx| {
            let with_mode = |mode: Option<&str>| {
                let info = mode.map_or_else(Info::new, mode_info);
                let session =
                    Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &info).unwrap();
                let lazy = session.is_lazy();
                session.finalize().unwrap();
                lazy
            };
            [None, Some("lazy"), Some("eager"), Some("sideways")].map(with_mode)
        })
        .join()
        .expect("mode job");
    assert_eq!(out, vec![[false, true, false, false]; 2]);
}

#[test]
fn repeated_sends_hit_the_resolver_cache() {
    // Two communicators over the same membership: the second comm's first
    // send must not pay a second KVS round trip — the per-process peer
    // cache already holds the endpoint. The second comm is created *after*
    // the first resolution completed (a comm alive during the resolution
    // gets its route filled directly and never consults the cache at all).
    let launcher = Launcher::new(SimTestbed::tiny(2, 1));
    launcher
        .spawn(JobSpec::new(2), |ctx| {
            let session = lazy_session(&ctx);
            let group = session.group_from_pset(PSET_WORLD).unwrap();
            let c1 = Comm::create_from_group(&group, "cache-a").unwrap();
            if ctx.rank() == 0 {
                c1.send(1, 1, b"x").unwrap();
            } else {
                c1.recv(0, 1).unwrap();
            }
            // Lazy creation is purely local, so this materializes a fresh
            // unresolved route table on each rank.
            let c2 = Comm::create_from_group(&group, "cache-b").unwrap();
            if ctx.rank() == 0 {
                c2.send(1, 1, b"y").unwrap();
            } else {
                c2.recv(0, 1).unwrap();
            }
            // Drain in-flight ACK handshakes before teardown.
            coll::barrier(&c2).unwrap();
            c2.free().unwrap();
            c1.free().unwrap();
            session.finalize().unwrap();
            ctx.proc().to_string()
        })
        .join()
        .expect("cache job");

    let obs = launcher.universe().fabric().obs();
    assert_eq!(
        obs.sum_counters("pmix", "lazy_gets"),
        1,
        "exactly one KVS fetch: rank 0 resolving rank 1, once"
    );
    assert!(obs.sum_counters("pmix", "get_cache_hits") >= 1, "second comm hits the cache");
}

#[test]
fn retired_rank_kvs_card_is_purged_and_resolution_fails_typed() {
    // Regression test for the retire-purge fix: without
    // `PmixUniverse::purge_retired`, a retired rank's committed business
    // card lingers in the server KVS forever, and a lazy resolve of the
    // departed peer happily returns a dangling endpoint. After the fix the
    // card is gone from every shard and the resolver reports a typed
    // process-failure error.
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let spec = JobSpec::new(4).with_pset("app://ring", vec![0, 1, 2, 3]);
    let handle = launcher.spawn_named("purgejob", spec, |ctx| {
        let session = lazy_session(&ctx);
        let group = session.group_from_pset(PSET_WORLD).unwrap();
        let comm = Comm::create_from_group(&group, "purge").unwrap();
        // Warm every route so all four business cards are committed and
        // fetched at least once; the collective also keeps everyone alive
        // until rank 3's card has certainly been published.
        let _ = ring_then_allreduce(&ctx, &comm);
        comm.free().unwrap();
        session.finalize().unwrap();
        ctx.proc().clone()
    });
    let ctl = handle.ctl();
    // Rank 3 leaves gracefully: its body returns and retire_ranks joins it.
    let retired = ctl.retire_ranks(&[3], Some("app://ring")).unwrap();
    assert_eq!(retired.len(), 1);
    handle.join().unwrap();

    // The committed business card is gone from every server shard.
    for server in launcher.universe().servers() {
        assert!(
            server.local_committed(&retired[0]).is_none(),
            "retired rank's KVS entries must be purged"
        );
    }
}

#[test]
fn killed_peer_card_is_evicted_from_resolver_cache() {
    // Regression test for the cache-invalidation fix: the per-process
    // resolver cache used to keep serving a killed peer's business card,
    // because `registry.locate` still succeeds for dead (never
    // deregistered) procs — so a subscriber that learned of the death via
    // `watch_faults` could turn around and "resolve" the corpse. After the
    // fix, `PeerResolver::lookup` cross-checks the dead set and evicts the
    // entry, so the cache converges to a miss once the death has landed.
    let launcher = Launcher::new(SimTestbed::tiny(2, 1));
    let (primed, done) = std::sync::mpsc::channel();
    let handle = launcher.spawn(JobSpec::new(2), move |ctx| {
        let session = lazy_session(&ctx);
        let group = session.group_from_pset(PSET_WORLD).unwrap();
        let comm = Comm::create_from_group(&group, "evict").unwrap();
        // Prime the cache: rank 0 lazily resolves rank 1's card.
        if ctx.rank() == 0 {
            comm.send(1, 7, b"ping").unwrap();
            comm.recv(1, 8).unwrap();
        } else {
            comm.recv(0, 7).unwrap();
            comm.send(0, 8, b"pong").unwrap();
            // Victim: hold the endpoint open until the driver kills it.
            primed.send(()).unwrap();
            ctx.park_until_killed();
            return None;
        }
        let peer = pmix::ProcId::new(ctx.proc().nspace(), 1);
        let process = mpi_sessions::instance::MpiProcess::obtain(&ctx);
        let resolver = process.pml().resolver().expect("lazy session has a resolver");
        assert!(resolver.lookup(&peer).is_some(), "cache is primed before the kill");
        primed.send(()).unwrap();
        let mut faults = session.watch_faults().unwrap();
        let victim = faults.next_timeout(Duration::from_secs(10)).expect("fault");
        assert_eq!(victim.rank(), 1);
        // The servers absorbed the death before the fault was yielded: the
        // cached card is already a miss.
        assert!(resolver.lookup(&peer).is_none(), "resolver cache still serves the dead peer's card");
        // And a fresh send to the corpse fails typed, not with a dangling
        // route from the stale card.
        let err = comm.send(1, 9, b"to-the-dead").unwrap_err();
        assert!(
            matches!(
                err.class,
                mpi_sessions::ErrClass::ProcFailed | mpi_sessions::ErrClass::ProcTerminated
            ),
            "send to a dead peer must fail typed, got {err}"
        );
        session.finalize().unwrap();
        Some(err.class)
    });
    common::await_ranks(&done, 2);
    handle.kill_rank(1);
    let out = handle.join().unwrap();
    assert!(out[0].is_some());
}
