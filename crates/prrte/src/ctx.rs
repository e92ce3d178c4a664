//! The per-process context handed to each launched process body.

use pmix::{PmixClient, PmixUniverse, ProcId, Rank};
use simnet::{Endpoint, NodeId};
use std::sync::Arc;

/// Everything a simulated MPI process owns: its identity, its fabric
/// mailbox, its PMIx client and a handle to the universe.
///
/// The MPI library (`mpi-sessions`) is handed a `&ProcCtx` at
/// `MPI_Session_init` / `MPI_Init` time — the analog of an OS process's
/// ambient environment (PMIx connection info in the environment, the NIC).
pub struct ProcCtx {
    proc: ProcId,
    size: u32,
    endpoint: Arc<Endpoint>,
    pmix: PmixClient,
    universe: Arc<PmixUniverse>,
}

impl ProcCtx {
    pub(crate) fn new(
        proc: ProcId,
        size: u32,
        endpoint: Endpoint,
        pmix: PmixClient,
        universe: Arc<PmixUniverse>,
    ) -> Self {
        Self { proc, size, endpoint: Arc::new(endpoint), pmix, universe }
    }

    /// This process's PMIx identity.
    pub fn proc(&self) -> &ProcId {
        &self.proc
    }

    /// Rank within the job.
    pub fn rank(&self) -> Rank {
        self.proc.rank()
    }

    /// Number of processes in the job.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.endpoint.node()
    }

    /// The process's fabric mailbox (the MPI progress engine drains this).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Shared handle to the mailbox, for subsystems (like the MPI progress
    /// engine) that must co-own it.
    pub fn endpoint_arc(&self) -> Arc<Endpoint> {
        self.endpoint.clone()
    }

    /// The process's PMIx client.
    pub fn pmix(&self) -> &PmixClient {
        &self.pmix
    }

    /// The universe (escape hatch: fault injection, registry access).
    pub fn universe(&self) -> &Arc<PmixUniverse> {
        &self.universe
    }

    /// Block until this process is killed (at once if it already was). The
    /// death arrives behind the failure bridge, so the servers have marked
    /// it and its psets have shrunk around it when this returns.
    pub fn park_until_killed(&self) {
        let mut deaths = self.universe.fabric().watch_failures();
        while deaths.recv().is_some_and(|ev| ev.endpoint != self.endpoint.id()) {}
    }
}

impl std::fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcCtx")
            .field("proc", &self.proc)
            .field("size", &self.size)
            .field("node", &self.endpoint.node())
            .finish()
    }
}
