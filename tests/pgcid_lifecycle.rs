//! The PGCID lifecycle across `Comm::free`: a free is local, the last free
//! of a family releases its PMIx group at the node's server, and the
//! group's lead server recycles the PGCID once every member has released
//! it or died (DESIGN.md §11).

use mpi_sessions_repro::mpi::{Comm, ErrHandler, Info, Session, ThreadLevel};
use mpi_sessions_repro::pmix::pgcid_base;
use mpi_sessions_repro::prrte::{JobSpec, Launcher, ProcCtx};
use mpi_sessions_repro::simnet::SimTestbed;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

mod common;
use common::Gate;

fn new_session(ctx: &ProcCtx) -> Session {
    Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null()).unwrap()
}

/// PGCIDs the run's leads recycled so far, in order.
fn recycled(ctx: &ProcCtx) -> Vec<u64> {
    ctx.universe()
        .fabric()
        .obs()
        .events_named("pgcid.recycled")
        .iter()
        .filter_map(|e| e.attr("pgcid").and_then(|v| v.as_u64()))
        .collect()
}

/// Two ranks on one node each build a communicator over `mpi://self` with
/// the same tag, so both PMIx groups carry one name. The server keeps one
/// record per (name, membership): rank 0's free recycles rank 0's PGCID,
/// never rank 1's live one.
#[test]
fn same_named_groups_on_one_node_release_their_own_pgcids() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    let step = Gate::new(2);
    let out = launcher
        .spawn(JobSpec::new(2), move |ctx| {
            let step = step.pass();
            let s = new_session(&ctx);
            let g = s.group_from_pset("mpi://self").unwrap();
            // Rank 0 builds first, then rank 1.
            if ctx.rank() == 1 {
                step.wait();
            }
            let c = Comm::create_from_group(&g, "b0").unwrap();
            if ctx.rank() == 0 {
                step.wait();
            }
            step.wait();
            let pgcid = c.excid().unwrap().pgcid;
            if ctx.rank() == 0 {
                c.free().unwrap();
                step.wait();
                let after_rank0 = recycled(&ctx);
                step.wait();
                s.finalize().unwrap();
                (pgcid, after_rank0)
            } else {
                step.wait();
                step.wait();
                c.free().unwrap();
                s.finalize().unwrap();
                (pgcid, recycled(&ctx))
            }
        })
        .join()
        .unwrap();
    let (p0, after_rank0) = &out[0];
    let (p1, after_both) = &out[1];
    assert_ne!(p0, p1);
    assert_eq!(after_rank0, &vec![*p0], "rank 0's free recycles rank 0's PGCID only");
    assert_eq!(after_both, &vec![*p0, *p1]);
}

/// A frame of a freed family still undelivered when its PGCID is reused:
/// rank 1 sends on `a` and frees it, rank 0 frees `a` without receiving,
/// and both build `b`, which reuses `a`'s PGCID (block size 1, so the
/// recycled id is the only one pooled). The id comes back one generation
/// later, so `b`'s exCID differs from `a`'s and the stale frame cannot
/// match on `b`.
#[test]
fn a_stale_frame_never_matches_on_the_family_reusing_its_pgcid() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    let obs = launcher.universe().fabric().obs();
    obs.cvar_write("universe", "pmix.pgcid_block", obs::CvarValue::U64(1)).unwrap();
    let sent = Gate::new(2);
    let out = launcher
        .spawn(JobSpec::new(2), move |ctx| {
            let sent = sent.pass();
            let s = new_session(&ctx);
            let g = s.group_from_pset("mpi://world").unwrap();
            let a = Comm::create_from_group(&g, "a").unwrap();
            if ctx.rank() == 1 {
                // The first frame on `a`: extended header, no handshake yet.
                a.send(0, 5, b"stale").unwrap();
            }
            sent.wait();
            let a_pgcid = a.excid().unwrap().pgcid;
            a.free().unwrap();
            let b = Comm::create_from_group(&g, "b").unwrap();
            let b_pgcid = b.excid().unwrap().pgcid;
            let got = if ctx.rank() == 1 {
                b.send(0, 5, b"fresh").unwrap();
                None
            } else {
                Some(b.recv(1, 5).unwrap().0)
            };
            b.free().unwrap();
            s.finalize().unwrap();
            (a_pgcid, b_pgcid, got)
        })
        .join()
        .unwrap();
    let (a, b, got) = &out[0];
    assert_eq!(got.as_deref(), Some(&b"fresh"[..]), "the stale frame matched on b");
    assert_eq!(out[1].1, *b, "both ranks agree on b's PGCID");
    assert_eq!(pgcid_base(*b), *a, "b reuses a's id");
    assert_ne!(b, a, "one generation later");
    assert_eq!(obs.sum_counters("pmix", "pgcid_allocated"), 1, "no second RM id");
}

/// `Comm::free` needs nothing from its peers: with the peer dead it
/// returns `Ok`, and the dead peer counts as released, so the free
/// recycles the PGCID.
#[test]
fn free_with_a_dead_peer_returns_ok_and_recycles() {
    let launcher = Launcher::new(SimTestbed::tiny(1, 2));
    let gate = Gate::new(3);
    let ready = gate.pass();
    let killed = Arc::new((Mutex::new(false), Condvar::new()));
    let handle = launcher.spawn(JobSpec::new(2), {
        let killed = killed.clone();
        move |ctx| {
            let ready = gate.pass();
            let s = new_session(&ctx);
            let g = s.group_from_pset("mpi://world").unwrap();
            let c = Comm::create_from_group(&g, "doomed").unwrap();
            let mut notifier = s.failure_notifier().unwrap();
            ready.wait();
            if ctx.rank() == 1 {
                // The victim holds `c` until the kill has landed.
                let (flag, cv) = &*killed;
                drop(cv.wait_while(flag.lock().unwrap(), |k| !*k).unwrap());
                return None;
            }
            let victim = notifier.next_timeout(Duration::from_secs(10)).expect("failure event");
            assert_eq!(victim.rank(), 1);
            let pgcid = c.excid().unwrap().pgcid;
            c.free().unwrap();
            let got = recycled(&ctx);
            s.finalize().unwrap();
            Some((pgcid, got))
        }
    });
    ready.wait();
    handle.kill_rank(1);
    *killed.0.lock().unwrap() = true;
    killed.1.notify_all();
    let out = handle.join().unwrap();
    let (pgcid, got) = out[0].clone().unwrap();
    assert_eq!(got, vec![pgcid]);
}
