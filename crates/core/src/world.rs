//! The World Process Model: `MPI_Init` / `MPI_Finalize`.
//!
//! Implemented *as an internal session* (paper §III-B5: "the legacy MPI-3
//! initialization and finalize functions were restructured to create and
//! finalize an internal MPI Session that also initializes the World
//! Process Model built-in MPI objects"). Differences from a plain session:
//!
//! * **eager**: every subsystem is brought up at init;
//! * **global exchange**: a PMIx business-card commit + collecting fence
//!   over the whole job (the `add_procs`/modex analog — this is the
//!   startup cost Fig. 3 measures for the baseline);
//! * **built-ins**: `MPI_COMM_WORLD` (local CID 0) and `MPI_COMM_SELF`
//!   (local CID 1) with globally agreed CIDs;
//! * **once-only**: per MPI-3 semantics, `init` may run once per process
//!   lifetime — the very restriction the Sessions model removes.

use crate::comm::{CidOrigin, Comm};
use crate::error::{ErrClass, MpiError, Result};
use crate::group::{MpiGroup, ProcRef};
use crate::instance::{MpiProcess, SUBSYSTEMS};
use crate::session::ThreadLevel;
use parking_lot::Mutex;
use prrte::ProcCtx;
use simnet::EndpointId;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Guards MPI-3 "initialize once" semantics per simulated process.
static WPM_USED: Mutex<Option<HashSet<EndpointId>>> = Mutex::new(None);

/// A World Process Model instance: the owner of `MPI_COMM_WORLD`.
pub struct World {
    process: Arc<MpiProcess>,
    comm_world: Comm,
    comm_self: Comm,
    finalized: AtomicBool,
    thread_level: ThreadLevel,
}

/// `MPI_Init`.
pub fn init(ctx: &ProcCtx) -> Result<World> {
    init_thread(ctx, ThreadLevel::Single)
}

/// `MPI_Init_thread`.
pub fn init_thread(ctx: &ProcCtx, requested: ThreadLevel) -> Result<World> {
    let process = MpiProcess::obtain(ctx);
    {
        let mut used = WPM_USED.lock();
        let set = used.get_or_insert_with(HashSet::new);
        if !set.insert(ctx.endpoint().id()) {
            return Err(MpiError::new(
                ErrClass::Other,
                "MPI_Init called twice: the World Process Model cannot be re-initialized \
                 (use MPI Sessions for repeatable initialization)",
            ));
        }
    }
    // Eager initialization of every subsystem.
    process.acquire_instance(SUBSYSTEMS);

    // The add_procs/modex analog. Per paper §III-B1, Open MPI's startup
    // only discovers *node-local* processes eagerly; remote peers are
    // resolved on first communication (direct modex). So: publish our
    // business card, then a plain (non-collecting) fence across the job.
    let pmix = process.pmix();
    pmix.put(pmix::value::keys::ENDPOINT, pmix::PmixValue::U64(ctx.endpoint().id().0));
    pmix.commit();
    let registry = process.universe().registry();
    let nspace = registry.namespace(process.proc().nspace())?;
    let all: Vec<pmix::ProcId> = nspace.procs().iter().map(|p| p.proc.clone()).collect();
    pmix.fence(&all, false)?;

    // Built-in communicators on reserved CIDs.
    let world_group = MpiGroup::from_members(
        nspace
            .procs()
            .iter()
            .map(|p| ProcRef { proc: p.proc.clone(), endpoint: p.endpoint })
            .collect(),
    )
    .bind(process.clone());
    let me = registry.locate(process.proc())?;
    let self_group = MpiGroup::from_members(vec![ProcRef {
        proc: process.proc().clone(),
        endpoint: me.endpoint,
    }])
    .bind(process.clone());

    process.claim_cid(0)?;
    process.claim_cid(1)?;
    let comm_world = Comm::build(
        process.clone(),
        world_group,
        0,
        None,
        0,
        CidOrigin::Builtin,
        None,
    )?;
    let comm_self = Comm::build(
        process.clone(),
        self_group,
        1,
        None,
        0,
        CidOrigin::Builtin,
        None,
    )?;
    Ok(World {
        process,
        comm_world,
        comm_self,
        finalized: AtomicBool::new(false),
        thread_level: requested,
    })
}

impl World {
    /// `MPI_COMM_WORLD`.
    pub fn comm(&self) -> &Comm {
        &self.comm_world
    }

    /// `MPI_COMM_SELF`.
    pub fn comm_self(&self) -> &Comm {
        &self.comm_self
    }

    /// Shortcut: rank in `MPI_COMM_WORLD`.
    pub fn rank(&self) -> u32 {
        self.comm_world.rank()
    }

    /// Shortcut: size of `MPI_COMM_WORLD`.
    pub fn size(&self) -> u32 {
        self.comm_world.size()
    }

    /// The granted thread level (`MPI_Query_thread`).
    pub fn thread_level(&self) -> ThreadLevel {
        self.thread_level
    }

    /// The owning process (crate plumbing, e.g. for the QUO layer).
    pub fn mpi_process(&self) -> &Arc<MpiProcess> {
        &self.process
    }

    /// `MPI_Finalize`: tears down the built-ins and releases the internal
    /// session. Sessions may still be open (the models coexist); the
    /// library fully cleans up when the last instance goes.
    pub fn finalize(self) -> Result<()> {
        if self.finalized.swap(true, Ordering::AcqRel) {
            return Err(MpiError::new(ErrClass::Other, "MPI_Finalize called twice"));
        }
        self.process.pml().unregister_comm(self.comm_world.local_cid());
        self.process.pml().unregister_comm(self.comm_self.local_cid());
        self.process.release_cid(0);
        self.process.release_cid(1);
        self.process.release_instance(SUBSYSTEMS);
        Ok(())
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("rank", &self.rank())
            .field("size", &self.size())
            .finish()
    }
}
