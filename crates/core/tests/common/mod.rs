//! Shared harness: launch an MPI job on a tiny zero-cost testbed and run a
//! closure per rank.

use prrte::{JobSpec, Launcher, ProcCtx};
use simnet::SimTestbed;

/// Run `np` simulated MPI processes over `nodes`×`slots` and collect
/// per-rank results (panics propagate as test failures).
///
/// Not every test file uses both helpers; the module is shared.
#[allow(dead_code)]
pub fn run<T, F>(nodes: u32, slots: u32, np: u32, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(ProcCtx) -> T + Send + Sync + 'static,
{
    let launcher = Launcher::new(SimTestbed::tiny(nodes, slots));
    launcher
        .spawn(JobSpec::new(np), f)
        .join()
        .expect("no rank may panic")
}

/// Same, with a customized job spec.
#[allow(dead_code)]
pub fn run_spec<T, F>(nodes: u32, slots: u32, spec: JobSpec, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(ProcCtx) -> T + Send + Sync + 'static,
{
    let launcher = Launcher::new(SimTestbed::tiny(nodes, slots));
    launcher.spawn(spec, f).join().expect("no rank may panic")
}

/// Wait for `n` ranks to report on `done` that their phase is over: the
/// test's own happens-before for a driver action such as a kill. The cap
/// only turns a rank that panicked before reporting into a failure.
#[allow(dead_code)]
pub fn await_ranks(done: &std::sync::mpsc::Receiver<()>, n: usize) {
    for _ in 0..n {
        done.recv_timeout(std::time::Duration::from_secs(60)).expect("a rank never reported");
    }
}

/// Yield until `ready` holds: runtime state a step waits for. The cap only
/// turns a hang into a failure; it never decides a verdict.
#[allow(dead_code)]
pub fn await_state(mut ready: impl FnMut() -> bool) {
    let cap = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !ready() {
        assert!(std::time::Instant::now() < cap, "the awaited state never came");
        std::thread::yield_now();
    }
}
