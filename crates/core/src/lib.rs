//! # mpi-sessions — an MPI library with the MPI Sessions extensions
//!
//! This crate is the reproduction of the paper's primary contribution: the
//! prototype implementation of the **MPI Sessions** proposal inside an MPI
//! library (the paper used Open MPI; here the library itself is built from
//! scratch in Rust over the `pmix`/`prrte`/`simnet` substrates).
//!
//! ## The two process models
//!
//! * **World Process Model (WPM)** — [`world::init`] /
//!   [`world::World::finalize`]: eager initialization of every subsystem, a
//!   PMIx fence across the job (the `add_procs` analog), and the built-in
//!   `MPI_COMM_WORLD` / `MPI_COMM_SELF` communicators with consensus-based
//!   CIDs. Internally implemented *as a session* (paper §III-B5), so the two
//!   models coexist.
//! * **Sessions Process Model** — [`session::Session::init`] is local and
//!   thread-safe, can be called many times, and initializes only the
//!   subsystems the session needs (reference-counted with cleanup callbacks
//!   — the OPAL finalize-framework analog, [`instance`]). Communicators are
//!   built with `Session → psets → Group → Comm::create_from_group`,
//!   exactly the sequence in the paper's Figure 1.
//!
//! ## Communicator identifiers (paper §III-B2/3/4)
//!
//! Communicators carry a 16-bit local CID (an index into the per-process
//! communicator table, kept in the compact 14-byte match header) and, for
//! sessions-derived communicators, a 128-bit **exCID** (PGCID + eight 8-bit
//! derivation subfields). The `ob1`-style PML performs the first-message
//! extended-header handshake and per-peer local-CID exchange described in
//! the paper; the legacy multi-round **consensus** CID algorithm is kept
//! for the WPM path and as the fallback/baseline.
//!
//! ## Quick start
//!
//! The paper's Figure 1 sequence — init a session, resolve a process set,
//! build a group, and create a communicator from it — on a two-process
//! simulated job:
//!
//! ```
//! use mpi_sessions::{Comm, ErrHandler, Info, MpiError, Session, ThreadLevel};
//! use prrte::{JobSpec, Launcher};
//! use simnet::SimTestbed;
//!
//! let launcher = Launcher::new(SimTestbed::tiny(1, 2));
//! let results = launcher
//!     .spawn(JobSpec::new(2), |ctx| {
//!         let session =
//!             Session::init(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null())?;
//!         let group = session.group_from_pset("mpi://world")?;
//!         let comm = Comm::create_from_group(&group, "quick-start")?;
//!         let peer = 1 - comm.rank();
//!         let (reply, _status) = comm.sendrecv(peer, 0, b"hello", peer as i32, 0)?;
//!         assert_eq!(reply, b"hello");
//!         comm.free()?;
//!         session.finalize()?;
//!         Ok::<(), MpiError>(())
//!     })
//!     .join()
//!     .expect("job ran");
//! results.into_iter().for_each(|r| r.expect("rank succeeded"));
//! ```

pub mod attr;
pub mod cid;
pub mod coll;
pub mod comm;
pub mod datatype;
pub mod elastic;
pub mod errhandler;
pub mod error;
pub mod file;
pub mod ft;
pub mod group;
pub mod info;
pub mod instance;
pub mod introspect;
pub mod pml;
pub mod request;
pub mod session;
pub mod status;
pub mod win;
pub mod world;

pub use comm::{CidOrigin, Comm};
pub use datatype::{MpiScalar, ReduceOp};
pub use elastic::{ElasticComm, PsetUpdate, PsetUpdateKind, PsetWatcher, Rebuild};
pub use errhandler::ErrHandler;
pub use error::{ErrClass, MpiError, Result};
pub use ft::{FailureNotifier, FaultWatcher};
pub use group::MpiGroup;
pub use info::Info;
pub use request::{
    stage, ProgressEngine, ReqSnapshot, Request, SetupRequest, SetupStage, SetupStep,
    DEFAULT_STALL_TICKS,
};
pub use session::{Session, ThreadLevel};
pub use status::Status;
pub use world::World;

/// Wildcard source rank for receives (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag for receives (`MPI_ANY_TAG`).
pub const ANY_TAG: i32 = -1;
