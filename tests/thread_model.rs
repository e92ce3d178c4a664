//! The simulator's thread model: a zero-cost job runs on its rank threads
//! alone. PMIx servers, the RM and the failure bridge have no threads (they
//! run on the threads that send to them), and a fabric starts its delivery
//! pump only for a delayed frame, which the zero-cost model never makes.

use mpi_sessions_repro::mpi::{coll, Comm, ErrHandler, Info, ReduceOp, Session, ThreadLevel};
use mpi_sessions_repro::prrte::{JobSpec, Launcher};
use mpi_sessions_repro::simnet::SimTestbed;
use std::collections::BTreeSet;

/// Names of this process's live threads (as the kernel truncates them).
fn thread_names() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .collect()
}

#[test]
fn a_zero_cost_job_runs_on_its_rank_threads_alone() {
    let before = thread_names();
    let launcher = Launcher::new(SimTestbed::tiny(2, 1));
    let seen = launcher
        .spawn(JobSpec::new(2), |ctx| {
            let mut me = ctx.proc().to_string();
            me.truncate(15);
            let s = Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())
                .unwrap();
            let g = s.group_from_pset("mpi://world").unwrap();
            let c = Comm::create_from_group(&g, "threads").unwrap();
            let sum = coll::allreduce_t(&c, ReduceOp::Sum, &[1u32]).unwrap()[0];
            let dup = c.dup().unwrap();
            coll::barrier(&dup).unwrap();
            // Every thread of the process while this rank is mid-job.
            let names = thread_names();
            dup.free().unwrap();
            c.free().unwrap();
            s.finalize().unwrap();
            (me, sum, names)
        })
        .join()
        .unwrap();
    let ranks: BTreeSet<String> = seen.iter().map(|(me, _, _)| me.clone()).collect();
    for (_, sum, names) in &seen {
        assert_eq!(*sum, 2);
        let extra: Vec<_> =
            names.iter().filter(|n| !before.contains(*n) && !ranks.contains(*n)).collect();
        assert!(extra.is_empty(), "threads besides the ranks: {extra:?}");
    }
}
