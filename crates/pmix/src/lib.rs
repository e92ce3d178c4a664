//! # pmix — a PMIx analog in Rust
//!
//! Reimplementation of the PMIx functionality the paper's MPI Sessions
//! prototype depends on (Section III-A of the paper):
//!
//! * **clients and per-node servers** — every simulated process initializes
//!   a [`PmixClient`] against the [`PmixServer`] on its node; on-node
//!   client↔server interaction is a direct method call (the shared-memory
//!   RPC analog), while **server↔server** traffic crosses the [`simnet`]
//!   fabric and therefore pays inter-node costs;
//! * **key-value exchange** — `put`/`commit`/`get` with both fence-collected
//!   data and direct modex (on-demand fetch from the owning server);
//! * **fences** — collective barriers over arbitrary process sets, with
//!   optional data collection;
//! * **groups** — collective construct over arbitrary process sets,
//!   three-stage hierarchical implementation (local fan-in → server
//!   all-to-all → local fan-out), optional **PGCID** assignment by the
//!   resource manager (a 64-bit id, unique among live groups, never zero),
//!   timeouts, and failure reporting; a local destruct whose releases the
//!   group's lead server counts before it recycles the PGCID; plus the
//!   asynchronous *invite/join* construction mode;
//! * **events** — process-termination and group-membership notifications;
//! * **queries** — `PMIX_QUERY_NUM_PSETS` / `PMIX_QUERY_PSET_NAMES` and pset
//!   membership resolution.
//!
//! The crate is deliberately independent of MPI: the `mpi-sessions` crate
//! consumes this API exactly the way Open MPI consumes PMIx.
//!
//! ## Quick start
//!
//! Stand up a universe on a simulated testbed, register a process, and use
//! its client for key-value exchange:
//!
//! ```
//! use pmix::{PmixUniverse, ProcId};
//! use simnet::SimTestbed;
//!
//! let uni = PmixUniverse::new(SimTestbed::tiny(1, 1));
//! let node = uni.testbed().cluster.node_of_slot(0);
//! let ep = uni.fabric().register(node);
//! let me = ProcId::new("job-0", 0);
//! uni.register_proc(me.clone(), &ep);
//!
//! let client = uni.client_for(&me).unwrap();
//! client.put("hostname", "n0");
//! client.commit();
//! assert_eq!(client.get(&me, "hostname").unwrap().as_str(), Some("n0"));
//! ```

pub mod client;
pub mod error;
pub mod event;
pub mod group;
pub mod nspace;
pub mod query;
pub mod resolver;
pub mod server;
pub mod types;
pub mod universe;
pub mod value;
pub mod wire;

pub use client::{PendingGroup, PmixClient};
pub use error::PmixError;
pub use event::{Event, EventCode};
pub use group::{GroupDirectives, GroupResult, InviteOutcome, InviteReport, PmixGroup};
pub use nspace::{NamespaceInfo, NamespaceRegistry};
pub use resolver::{PeerFetch, PeerResolver};
pub use server::{
    pgcid_base, FetchTicket, LogicalDeadline, PendingColl, PmixServer, ServerShardOccupancy,
    DEFAULT_PGCID_BLOCK, EPOCH_RETENTION_CAP, SERVER_SHARDS,
};
pub use types::{ProcId, Rank};
pub use universe::{survivors_pset_name, PmixUniverse, SURVIVORS_PSET_PREFIX};
pub use value::PmixValue;
