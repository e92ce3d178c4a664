//! Failure-scope isolation: the client/server scenario of paper §II-C(b).
//!
//! A server pool keeps an *internal* session (its coordination
//! communicator) separate from the resources used to serve clients. When a
//! client process dies, the default MPI-3 behavior would tear down every
//! connected process; with sessions, the failure is contained — the
//! server's internal session keeps working and other clients keep being
//! served.
//!
//! Run with: `cargo run --release --example client_server`

use mpi_sessions_repro::mpi::{coll, Comm, ErrHandler, Info, ReduceOp, Session, ThreadLevel};
use mpi_sessions_repro::prrte::{JobSpec, Launcher};
use mpi_sessions_repro::simnet::SimTestbed;
use std::time::Duration;

const SERVERS: u32 = 2;
const CLIENTS: u32 = 3; // ranks SERVERS..SERVERS+CLIENTS; the last one dies

fn server_body(ctx: &prrte::ProcCtx) -> u64 {
    let session = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
        .expect("server session");
    let mut notifier = session.failure_notifier().expect("notifier");

    // Internal coordination: servers-only communicator, isolated from any
    // client-facing resources.
    let world = session.group_from_pset("mpi://world").expect("world");
    let internal_group = world.incl(&(0..SERVERS as usize).collect::<Vec<_>>()).expect("servers");
    let internal = Comm::create_from_group(&internal_group, "server-internal")
        .expect("internal comm");

    // Serve requests from each healthy client over per-client comms.
    let mut served = 0u64;
    for c in 0..CLIENTS - 1 {
        let client_rank = (SERVERS + c) as usize;
        let pair = world.incl(&[0, client_rank]).expect("pair group");
        if pair.rank_of(ctx.proc()).is_some() {
            let conn = Comm::create_from_group(&pair, &format!("conn-{c}")).expect("conn");
            let (req, _) = conn.recv(1, 0).expect("client request");
            conn.send(1, 0, format!("handled:{}", String::from_utf8_lossy(&req)).as_bytes())
                .expect("reply");
            conn.free().expect("free conn");
            served += 1;
        }
    }

    // The doomed client (last rank) dies without ever connecting. Wait for
    // the failure notification...
    let victim = notifier
        .next_timeout(Duration::from_secs(30))
        .expect("failure event for the doomed client");
    assert_eq!(victim.rank(), SERVERS + CLIENTS - 1);

    // ...and demonstrate the server pool is unharmed: internal session
    // still fully functional.
    let health = coll::allreduce_t(&internal, ReduceOp::Sum, &[1u64]).expect("health check")[0];
    assert_eq!(health, SERVERS as u64);

    internal.free().expect("free internal");
    session.finalize().expect("finalize");
    served
}

fn client_body(ctx: &prrte::ProcCtx, idx: u32) -> u64 {
    if idx == CLIENTS - 1 {
        // The doomed client: killed by the harness before connecting.
        // (Short linger: the thread itself exits soon after the kill so the
        // example does not wait on a long sleep.)
        std::thread::sleep(Duration::from_secs(3));
        return 0;
    }
    let session = Session::init(ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
        .expect("client session");
    let world = session.group_from_pset("mpi://world").expect("world");
    let pair = world.incl(&[0, ctx.rank() as usize]).expect("pair");
    let conn = Comm::create_from_group(&pair, &format!("conn-{idx}")).expect("conn");
    conn.send(0, 0, format!("req-from-{idx}").as_bytes()).expect("request");
    let (reply, _) = conn.recv(0, 0).expect("reply");
    assert!(String::from_utf8_lossy(&reply).starts_with("handled:"));
    conn.free().expect("free");
    session.finalize().expect("finalize");
    1
}

fn main() {
    let launcher = Launcher::new(SimTestbed::tiny(2, 3));
    let handle = launcher.spawn(JobSpec::new(SERVERS + CLIENTS), |ctx| {
        if ctx.rank() < SERVERS {
            server_body(&ctx)
        } else {
            client_body(&ctx, ctx.rank() - SERVERS)
        }
    });
    // Let the healthy clients get served, then kill the doomed one.
    std::thread::sleep(Duration::from_millis(800));
    handle.kill_rank(SERVERS + CLIENTS - 1);
    let results = handle.join().expect("job");
    println!("served requests per server: {:?}", &results[..SERVERS as usize]);
    println!("healthy client outcomes: {:?}", &results[SERVERS as usize..]);
    assert_eq!(results[0], (CLIENTS - 1) as u64, "server 0 served every healthy client");
    println!("client_server OK — the client failure did not cascade into the server pool");
}
