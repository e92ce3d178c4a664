//! Flight-recorder dump: boot a small sessions stack, hold it at a known
//! live point, and emit the `introspect/v1` snapshot — the same artifact a
//! failing chaos run attaches automatically.
//!
//! Two modes:
//!
//! * **default** — four ranks each bring up a session and a world
//!   communicator, then park while the driver snapshots: the dump shows
//!   held CIDs, live subsystems, handshake-cache entries, server shard
//!   occupancy and the full cvar surface of a healthy runtime. CI
//!   validates this golden with `trace_check --introspect`.
//! * **`--chaos-fail`** — run a clean workload under the chaos harness,
//!   then plant a canary `req.stalled` event that nothing clears: the
//!   `stall-terminal` invariant must fire and the harness must attach a
//!   parseable flight-recorder artifact, which is written out. This is the
//!   CI proof that a *failing* chaos run always yields a usable
//!   post-mortem, exercising the exact code path a real failure takes.
//!
//! Usage: `introspect_dump [--out <path>] [--chaos-fail]`

use apps::cli_opt;
use chaos::{ChaosWorld, FaultPlan};
use mpi_sessions::{coll, introspect, Comm, ErrHandler, Info, ReduceOp, Session, ThreadLevel};
use prrte::{JobSpec, Launcher};
use simnet::SimTestbed;
use std::sync::{Arc, Barrier};

const NP: u32 = 4;

fn write_out(out: Option<String>, text: &str) {
    match out {
        Some(path) => {
            std::fs::write(&path, text).unwrap_or_else(|e| {
                eprintln!("introspect_dump: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("introspect_dump: wrote {path}");
        }
        None => println!("{text}"),
    }
}

/// One wave of per-rank session + world-communicator setup.
fn bring_up(ctx: &prrte::ProcCtx, tag: &str) -> (Session, Comm) {
    let session = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
        .expect("session init");
    let group = session.group_from_pset("mpi://world").expect("world pset");
    let comm = Comm::create_from_group(&group, tag).expect("comm");
    coll::allreduce_t(&comm, ReduceOp::Sum, &[1u32]).expect("allreduce");
    (session, comm)
}

/// Default mode: snapshot a healthy stack at a held point.
fn dump_live(out: Option<String>) {
    let launcher = Launcher::new(SimTestbed::tiny(2, 2));
    let uni = launcher.universe().clone();
    // Two-phase rendezvous: every rank holds its session + communicator at
    // the first barrier while the driver snapshots, then the second
    // barrier releases teardown — the snapshot sees a stable, fully
    // quiesced held state.
    let hold = Arc::new(Barrier::new(NP as usize + 1));
    let release = Arc::new(Barrier::new(NP as usize + 1));
    let (h, r) = (hold.clone(), release.clone());
    let handle = launcher.spawn(JobSpec::new(NP), move |ctx| {
        let (session, comm) = bring_up(&ctx, "introspect-dump");
        h.wait();
        r.wait();
        comm.free().expect("free");
        session.finalize().expect("finalize");
    });
    hold.wait();
    let text = introspect::snapshot_string(&uni);
    release.wait();
    handle.join().expect("workload");
    write_out(out, &text);
}

/// `--chaos-fail` mode: prove a failing chaos run attaches the recorder.
fn dump_chaos_fail(out: Option<String>) {
    let world = ChaosWorld::new(SimTestbed::tiny(2, 2), FaultPlan::quiet(0xFA11));
    world
        .launcher()
        .spawn(JobSpec::new(NP), |ctx| {
            let (session, comm) = bring_up(&ctx, "introspect-canary");
            comm.free().expect("free");
            session.finalize().expect("finalize");
        })
        .join()
        .expect("workload");
    // The canary: a watchdog stall nothing ever clears or resolves. The
    // stall-terminal invariant must flag it, which makes finish() attach
    // the flight recorder exactly as it would for a real wedged run.
    world.universe().fabric().obs().event(
        "canary",
        "request",
        "req.stalled",
        vec![("id", 1u64.into()), ("stage", "group".into())],
    );
    let report = world.finish(None, Vec::new());
    assert!(
        report.violations.iter().any(|v| v.invariant == "stall-terminal"),
        "the canary stall must trip stall-terminal, got: {:?}",
        report.violations,
    );
    for v in &report.violations {
        eprintln!("introspect_dump: violation (deliberate): {v}");
    }
    let artifact =
        report.flight_recorder.expect("a failing run always attaches the flight recorder");
    write_out(out, &artifact);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = cli_opt(&args, "--out");
    if args.iter().any(|a| a == "--chaos-fail") {
        dump_chaos_fail(out);
    } else {
        dump_live(out);
    }
}
