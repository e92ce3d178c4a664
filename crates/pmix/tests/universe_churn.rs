//! A universe starts no thread: its servers run on the threads that send
//! to them, and a zero-cost fabric never starts its delivery pump. Booting
//! one, running a job on it and dropping it leaves this process's thread
//! count where it was at every step — and every server is freed on drop.
//!
//! Also a regression for an `Arc` cycle — the registry's pset listener
//! captured the servers strongly while each server holds a registry clone —
//! that kept every server and the fabric alive forever. Lives in its own
//! test binary because it counts this process's threads.

use pmix::{GroupDirectives, PmixServer, PmixUniverse, PmixValue, ProcId};
use simnet::SimTestbed;
use std::sync::Weak;

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn universes_start_no_threads_and_free_their_servers() {
    let baseline = live_threads();
    let mut servers: Vec<Weak<PmixServer>> = Vec::new();
    for _ in 0..20 {
        let uni = PmixUniverse::new(SimTestbed::tiny(2, 1));
        assert_eq!(live_threads(), baseline, "booting a universe started a thread");
        servers.extend(uni.servers().iter().map(std::sync::Arc::downgrade));
        // A job on both nodes, driven from this thread: a dmodex get, a
        // PGCID group construct (RM round trip, exchange, fan-out), its
        // release, and a death.
        let procs: Vec<ProcId> = (0..2)
            .map(|rank| {
                let ep = uni.fabric().register(simnet::NodeId(rank));
                let proc = ProcId::new("job", rank);
                uni.register_proc(proc.clone(), &ep);
                proc
            })
            .collect();
        let clients: Vec<_> = procs.iter().map(|p| uni.client_for(p).unwrap()).collect();
        clients[1].put("card", PmixValue::U64(7));
        clients[1].commit();
        assert_eq!(clients[0].get(&procs[1], "card").unwrap(), PmixValue::U64(7));
        let pending: Vec<_> = clients
            .iter()
            .map(|c| c.group_construct_nb("g", &procs, &GroupDirectives::for_mpi()).unwrap())
            .collect();
        for (c, p) in clients.iter().zip(pending) {
            let g = p.wait().unwrap();
            c.group_destruct(&g, None).unwrap();
        }
        uni.kill_proc(&procs[1]).unwrap();
        assert!(uni.proc_is_dead(&procs[1]));
        assert_eq!(live_threads(), baseline, "a live universe started a thread");
        drop(clients);
        drop(uni);
        assert_eq!(live_threads(), baseline, "a dropped universe left a thread");
    }
    assert!(
        servers.iter().all(|s| s.upgrade().is_none()),
        "{} of {} servers outlived their universe",
        servers.iter().filter(|s| s.upgrade().is_some()).count(),
        servers.len()
    );
}
