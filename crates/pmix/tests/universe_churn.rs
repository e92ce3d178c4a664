//! Universe churn must not leak: after `drop(universe)` every server is
//! freed and every thread it started (servers, failure bridge, the
//! fabric's delivery pump) is gone.
//!
//! Regression for an `Arc` cycle — the registry's pset listener captured
//! the servers strongly while each server holds a registry clone — that
//! kept every server, the fabric and its parked `simnet-pump` thread alive
//! forever (one thread + ~174 KiB per universe). Lives in its own test
//! binary because it counts this process's threads.

use pmix::{PmixServer, PmixUniverse};
use simnet::SimTestbed;
use std::sync::Weak;
use std::time::{Duration, Instant};

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn dropped_universes_free_their_servers_and_threads() {
    let baseline = live_threads();
    let mut servers: Vec<Weak<PmixServer>> = Vec::new();
    for _ in 0..20 {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        servers.extend(uni.servers().iter().map(std::sync::Arc::downgrade));
        drop(uni);
    }
    assert!(
        servers.iter().all(|s| s.upgrade().is_none()),
        "{} of {} servers outlived their universe",
        servers.iter().filter(|s| s.upgrade().is_some()).count(),
        servers.len()
    );
    // Every thread is joined on drop; procfs may trail the join by a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads() > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(live_threads(), baseline, "universe churn leaked threads");
}
