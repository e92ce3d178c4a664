//! Hot-path scaling invariants for the batched-PGCID and coalesced-refill
//! machinery, asserted from the obs trail:
//!
//! * 300 `dup_via_group` calls (the Fig. 4 sessions mode) trigger at most
//!   `dups / block` PGCID requests to the resource manager — the span
//!   count on the critical path drops from O(dups) to O(dups/block);
//! * concurrent dups that hit an exhausted derivation pool coalesce on a
//!   single refill instead of each paying a PMIx group-construct trip;
//! * a bounded handshake cache under eviction pressure re-handshakes
//!   evicted pairings without ever violating the chaos harness's
//!   handshake-uniqueness invariant: at most one completed handshake per
//!   `(process, pgcid, derivation, peer, cache generation)`.

use mpi_sessions::{Comm, ErrHandler, Info, Session, ThreadLevel};
use prrte::{JobSpec, Launcher, ProcCtx};
use simnet::SimTestbed;
use std::collections::HashSet;

fn world_comm(ctx: &ProcCtx, tag: &str) -> (Session, Comm) {
    let s = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap();
    let g = s.group_from_pset("mpi://world").unwrap();
    let c = Comm::create_from_group(&g, tag).unwrap();
    (s, c)
}

#[test]
fn pgcid_block_batches_requests_across_300_group_dups() {
    const DUPS: usize = 300;
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    launcher
        .spawn(JobSpec::new(2), |ctx| {
            let (s, c) = world_comm(&ctx, "hot-dup300");
            let dups: Vec<Comm> = (0..DUPS).map(|_| c.dup_via_group().unwrap()).collect();
            // Every dup acquired a fresh PGCID of its own.
            let seen: HashSet<u64> =
                dups.iter().map(|d| d.excid().unwrap().pgcid).collect();
            assert_eq!(seen.len(), DUPS);
            for d in dups {
                d.free().unwrap();
            }
            c.free().unwrap();
            s.finalize().unwrap();
        })
        .join()
        .expect("dup job");

    let obs = launcher.universe().fabric().obs();
    // 301 group constructs (the parent comm plus 300 dups) needed 301
    // PGCIDs; with the default block of 8 only every 8th construct misses
    // the pool and sends a request.
    let requests = obs
        .spans_snapshot()
        .iter()
        .filter(|sp| sp.name == "pgcid.request")
        .count();
    let expected = (DUPS + 1).div_ceil(pmix::DEFAULT_PGCID_BLOCK as usize);
    assert_eq!(requests, expected, "one request per block");
    assert!(
        requests <= (DUPS + 1) / 4,
        "acceptance: >= 4x fewer pgcid.request spans than constructs"
    );
    // The other constructs were pool hits, and the accounting stays exact:
    // allocated ids == blocks * block size >= ids handed out.
    let hits = obs.sum_counters("pmix", "pgcid_pool_hits");
    assert_eq!(hits as usize + requests, DUPS + 1);
    assert_eq!(
        obs.sum_counters("pmix", "pgcid_allocated"),
        requests as u64 * pmix::DEFAULT_PGCID_BLOCK
    );
}

#[test]
fn concurrent_dups_coalesce_on_one_refill() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 1));
    launcher
        .spawn(JobSpec::new(1), |ctx| {
            let (s, c) = world_comm(&ctx, "hot-coalesce");
            // Exhaust the parent's derivation block: 255 serial dups.
            let serial: Vec<Comm> = (0..255).map(|_| c.dup().unwrap()).collect();
            // Four concurrent dups now race into the exhausted pool. The
            // refill lock lets exactly one of them pay the PMIx trip; the
            // rest block and derive from the refilled block.
            let concurrent: Vec<Comm> = std::thread::scope(|sc| {
                let handles: Vec<_> =
                    (0..4).map(|_| sc.spawn(|| c.dup().unwrap())).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut seen: HashSet<_> = serial.iter().map(|d| d.excid().unwrap()).collect();
            seen.extend(concurrent.iter().map(|d| d.excid().unwrap()));
            assert_eq!(seen.len(), 259, "every exCID unique");
            for d in serial.into_iter().chain(concurrent) {
                d.free().unwrap();
            }
            c.free().unwrap();
            s.finalize().unwrap();
            ctx.proc().to_string()
        })
        .join()
        .expect("coalesce job");

    let obs = launcher.universe().fabric().obs();
    // Exactly two PGCID acquisitions ever: the parent's own block and ONE
    // refill shared by all four concurrent dups.
    assert_eq!(obs.sum_counters("cid", "refills"), 2, "refills did not coalesce");
    assert_eq!(obs.events_named("cid.refill").len(), 1, "one refill event");
    assert_eq!(obs.sum_counters("cid", "derivations"), 259);
}

#[test]
fn cache_eviction_churn_never_breaks_handshake_uniqueness() {
    const WAVES: usize = 6;
    let launcher = Launcher::new(SimTestbed::tiny(1, 3));
    launcher
        .spawn(JobSpec::new(3), |ctx| {
            // Cap the handshake cache at one pairing per process: with two
            // ring neighbors per rank, every wave evicts the previous
            // pairing and forces a fresh handshake under a bumped cache
            // generation.
            let process = mpi_sessions::instance::MpiProcess::obtain(&ctx);
            let scope = process.proc().to_string();
            process.obs().cvar_write(&scope, "pml.handshake_cache_cap", obs::CvarValue::U64(1)).unwrap();
            let (s, c) = world_comm(&ctx, "hot-evict-base");
            let next = (ctx.rank() + 1) % 3;
            let prev = (ctx.rank() + 2) % 3;
            for wave in 0..WAVES {
                let g = s.group_from_pset("mpi://world").unwrap();
                let cw = Comm::create_from_group(&g, &format!("evict-w{wave}")).unwrap();
                // Ring traffic: both neighbors handshake on every comm.
                cw.send(next, wave as i32, &[wave as u8]).unwrap();
                let (m, _) = cw.recv(prev as i32, wave as i32).unwrap();
                assert_eq!(m, vec![wave as u8]);
                cw.send(prev, WAVES as i32 + wave as i32, b"back").unwrap();
                cw.recv(next as i32, WAVES as i32 + wave as i32).unwrap();
                cw.free().unwrap();
            }
            c.free().unwrap();
            s.finalize().unwrap();
        })
        .join()
        .expect("eviction churn job");

    let obs = launcher.universe().fabric().obs();
    assert!(obs.sum_counters("pml", "cache_evicted") > 0, "cap 1 must force evictions");
    // The chaos handshake-uniqueness key: at most one completed handshake
    // per (process, pgcid, derivation, peer, cache generation). Eviction
    // may force a re-handshake on a still-live comm, but only ever under a
    // new generation.
    let events = obs.events_named("pml.handshake");
    let attr = |e: &obs::Event, k: &str| e.attr(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let mut seen = HashSet::new();
    for e in &events {
        let key = (
            e.process.clone(),
            attr(e, "pgcid"),
            attr(e, "derivation"),
            attr(e, "peer"),
            attr(e, "cache_gen"),
        );
        assert!(seen.insert(key), "repeated handshake within one cache generation: {e:?}");
    }
    // Every completed handshake emitted exactly one event.
    assert_eq!(events.len() as u64, obs.sum_counters("pml", "handshakes"));
}
