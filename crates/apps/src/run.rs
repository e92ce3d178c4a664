//! The one job runner every workload uses: launch, join, settle.
//!
//! A [`Job`] boots a fresh DVM over a testbed and takes the universe cvars
//! a workload writes before its ranks start. [`Job::run`] and
//! [`Job::drive`] launch the ranks, join them and then shut the universe
//! down, which drains every PMIx server's mailbox: the last release of a
//! PGCID may still be on its one-way trip to the lead server when the
//! ranks exit, and only a drained lead has counted it. What they return is
//! a [`Run`], and a `Run` is the only way to read the run's registry, so
//! no export or trace is ever taken from an unsettled run.

use obs::{CvarValue, Registry};
use pmix::PmixUniverse;
use prrte::{JobHandle, JobSpec, Launcher, ProcCtx};
use serde_json::Value;
use simnet::SimTestbed;
use std::sync::{Arc, OnceLock};

/// A job about to run: a freshly booted DVM plus its pre-spawn cvars.
pub struct Job {
    launcher: Launcher,
}

impl Job {
    /// Boot a DVM over `testbed` (one `prte`).
    pub fn new(testbed: SimTestbed) -> Job {
        Job { launcher: Launcher::new(testbed) }
    }

    /// Write the universe-scope cvar `name` before the job spawns
    /// (`pmix.pgcid_block`, `pmix.group_timeout_ms`, `registry.gc_enabled`).
    pub fn cvar(self, name: &str, value: CvarValue) -> Job {
        let obs = self.launcher.universe().fabric().obs();
        obs.cvar_write("universe", name, value).unwrap_or_else(|e| panic!("cvar {name}: {e}"));
        self
    }

    /// Launch `np` ranks of `body` (one `prun`), join them and settle.
    pub fn run<T, F>(self, np: u32, body: F) -> Run<T>
    where
        T: Send + 'static,
        F: Fn(ProcCtx) -> T + Send + Sync + 'static,
    {
        let ranks = self.launcher.spawn(JobSpec::new(np), body).join();
        self.settle(ranks)
    }

    /// Launch `spec` under the namespace `name`, hand the live job to
    /// `driver` (grow, kill, retire, churn psets, wait for acks), then
    /// join and settle. The driver's return value comes back beside the
    /// run.
    pub fn drive<T, F, D, R>(self, name: &str, spec: JobSpec, body: F, driver: D) -> (Run<T>, R)
    where
        T: Send + 'static,
        F: Fn(ProcCtx) -> T + Send + Sync + 'static,
        D: FnOnce(&JobHandle<T>, &Arc<PmixUniverse>) -> R,
    {
        let handle = self.launcher.spawn_named(name, spec, body);
        let driven = driver(&handle, self.launcher.universe());
        (self.settle(handle.join()), driven)
    }

    fn settle<T>(self, ranks: Result<Vec<T>, String>) -> Run<T> {
        let ranks = ranks.unwrap_or_else(|e| panic!("job failed: {e}"));
        self.launcher.universe().shutdown();
        let registry = self.launcher.universe().fabric().obs();
        Run { ranks, registry, _launcher: self.launcher, trace: OnceLock::new() }
    }
}

/// A joined job whose universe has shut down: the per-rank results and
/// the settled registry.
pub struct Run<T> {
    /// Per-rank results in rank order (ranks retired mid-run excluded).
    pub ranks: Vec<T>,
    registry: Arc<Registry>,
    /// Keeps the universe, and so everything the registry saw, alive
    /// until the run is read.
    _launcher: Launcher,
    trace: OnceLock<Value>,
}

impl<T> Run<T> {
    /// The run's observability registry, read after settling.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The full registry export (counters, histograms, events per process).
    pub fn export(&self) -> Value {
        self.registry().export()
    }

    /// The analyzed span-DAG report (`obs::analyze`), computed once.
    pub fn trace(&self) -> &Value {
        self.trace.get_or_init(|| {
            obs::analyze::analyze(&self.registry.spans_snapshot(), self.registry.spans_dropped())
        })
    }
}
