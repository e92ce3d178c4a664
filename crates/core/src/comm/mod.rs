//! Communicators.
//!
//! Every communicator has a 16-bit **local CID** (index into this process's
//! communicator table — the value carried by the compact match header) and
//! optionally a 128-bit **exCID** (paper §III-B3). Three creation regimes:
//!
//! * **built-in** (WPM `MPI_COMM_WORLD`/`MPI_COMM_SELF`): reserved slots
//!   0/1, identical everywhere, `pgcid = 0` exCIDs;
//! * **consensus** (the legacy algorithm, §III-B2): multi-round
//!   max/agree reductions over the parent communicator until every
//!   participant proposes the same free table index — the baseline path,
//!   which degrades when the CID space fragments;
//! * **exCID** (the sessions path): a PGCID from PMIx group construction
//!   (or derivation from a parent's subfields) names the communicator
//!   globally, while each process picks its *own* table index locally —
//!   no agreement traffic at all, at the price of the first-message
//!   handshake in the PML.
//!
//! Each route is written once: `construct` (fresh and hashed PGCIDs),
//! `dup` (derivation and consensus), `retire` (free and abandon).

mod construct;
mod dup;
mod retire;

use crate::cid::{DerivePool, ExCid};
use crate::datatype::{self, MpiScalar};
use crate::errhandler::ErrHandler;
use crate::error::{ErrClass, MpiError, Result};
use crate::group::MpiGroup;
use crate::instance::MpiProcess;
use crate::pml::PeerAddr;
use crate::request::Request;
use crate::status::Status;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// First local CID available to non-built-in communicators (0 = world,
/// 1 = self).
pub const FIRST_DYNAMIC_CID: u16 = 2;

/// How a communicator's identifier was produced (shapes `dup` behavior and
/// benchmark bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CidOrigin {
    /// Reserved built-in slot (WPM world/self).
    Builtin,
    /// Legacy consensus agreement.
    Consensus,
    /// Fresh PGCID from PMIx group construction.
    Pgcid,
    /// Local subfield derivation from a parent exCID.
    Derived,
    /// Rank-symmetric hashed PGCID (lazy sessions, DESIGN.md §14): no PMIx
    /// group construction at all — every member computes the same exCID
    /// locally from the stringtag and membership, and peer endpoints are
    /// left unresolved in the PML until first use.
    Lazy,
}

pub(crate) struct CommInner {
    pub local_cid: u16,
    pub excid: Option<ExCid>,
    /// Which registration of `excid` this communicator is (0 unless the
    /// exCID is a recycled derived subfield).
    pub incarnation: u16,
    /// The exCID blocks this communicator derives from and came from.
    pub derive: DerivePool,
    /// Serializes exhaustion-triggered refills: the first dup through the
    /// exhausted pool pays the PMIx group-construct trip, concurrent dups
    /// block here and then derive from the refilled pool (coalescing).
    pub refill_lock: Mutex<()>,
    pub group: MpiGroup,
    pub my_rank: u32,
    pub coll_seq: AtomicU32,
    pub dup_seq: AtomicU64,
    pub origin: CidOrigin,
    pub freed: AtomicBool,
}

/// An MPI communicator bound to its process.
#[derive(Clone)]
pub struct Comm {
    pub(crate) inner: Arc<CommInner>,
    pub(crate) process: Arc<MpiProcess>,
    pub(crate) errh: ErrHandler,
}

impl Comm {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    pub(crate) fn build(
        process: Arc<MpiProcess>,
        group: MpiGroup,
        local_cid: u16,
        excid: Option<ExCid>,
        incarnation: u16,
        origin: CidOrigin,
        pmix_group: Option<pmix::PmixGroup>,
    ) -> Result<Comm> {
        let my_rank = group
            .rank_of(process.proc())
            .ok_or_else(|| MpiError::new(ErrClass::Group, "calling process not in group"))?
            as u32;
        // Route table: group members carry their fabric endpoint — except
        // on a lazy communicator, where only our own slot is known and
        // every other member starts Unresolved, to be resolved on first
        // send (active KVS fetch) or first receive (passive, from the ext
        // header handshake).
        let me = process.proc();
        let addrs: Vec<PeerAddr> = group
            .iter()
            .map(|m| {
                if origin == CidOrigin::Lazy && &m.proc != me {
                    PeerAddr::Unresolved(m.proc)
                } else {
                    PeerAddr::Known(m.endpoint)
                }
            })
            .collect();
        process.pml().register_comm(local_cid, my_rank, addrs, excid.map(|e| (e, incarnation)));
        // A PGCID-fresh communicator roots a new derivation block: itself
        // plus up to 255 locally-derived children. Acquiring such a block
        // is what the `cid.refills` counter tallies — one per trip through
        // PMIx group construction, never per dup. Hashed lazy exCIDs root a
        // block too (derivation is purely local arithmetic, so it composes
        // with lazy routes), but they are not a refill: no PMIx trip.
        let derive = match (origin, excid) {
            (CidOrigin::Pgcid | CidOrigin::Lazy, Some(e)) => DerivePool::rooted(e),
            _ => DerivePool::default(),
        };
        if origin == CidOrigin::Pgcid {
            process.metrics().cid.refills.inc();
        }
        // Every exCID communicator holds a reference on its PGCID family;
        // the PMIx group handle (if we own one) parks there so the *last*
        // free of the family — base or derived — releases the group, after
        // which the lead server can recycle the PGCID.
        if let Some(e) = excid {
            if e.pgcid != 0 {
                process.pgcid_retain(e.pgcid, pmix_group);
            }
        }
        Ok(Comm {
            inner: Arc::new(CommInner {
                local_cid,
                excid,
                incarnation,
                derive,
                refill_lock: Mutex::new(()),
                group,
                my_rank,
                coll_seq: AtomicU32::new(0),
                dup_seq: AtomicU64::new(0),
                origin,
                freed: AtomicBool::new(false),
            }),
            process,
            errh: ErrHandler::Return,
        })
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of processes (`MPI_Comm_size`).
    pub fn size(&self) -> u32 {
        self.inner.group.size() as u32
    }

    /// This process's rank (`MPI_Comm_rank`).
    pub fn rank(&self) -> u32 {
        self.inner.my_rank
    }

    /// The communicator's group (`MPI_Comm_group`).
    pub fn group(&self) -> MpiGroup {
        self.inner.group.clone()
    }

    /// The local (table-index) CID. May differ between processes for
    /// sessions communicators — that is the design.
    pub fn local_cid(&self) -> u16 {
        self.inner.local_cid
    }

    /// The exCID, if this communicator has one.
    pub fn excid(&self) -> Option<ExCid> {
        self.inner.excid
    }

    /// How the identifier was produced.
    pub fn cid_origin(&self) -> CidOrigin {
        self.inner.origin
    }

    /// The owning process (internal plumbing).
    pub(crate) fn process(&self) -> &Arc<MpiProcess> {
        &self.process
    }

    /// Replace the error handler (`MPI_Comm_set_errhandler`).
    pub fn set_errhandler(&mut self, errh: ErrHandler) {
        self.errh = errh;
    }

    fn check_live(&self) -> Result<()> {
        if self.inner.freed.load(Ordering::Acquire) {
            return Err(MpiError::new(ErrClass::Comm, "communicator has been freed"));
        }
        Ok(())
    }

    fn check_rank(&self, rank: u32) -> Result<()> {
        if rank >= self.size() {
            return Err(MpiError::new(
                ErrClass::Rank,
                format!("rank {rank} outside communicator of size {}", self.size()),
            ));
        }
        Ok(())
    }

    fn check_tag(tag: i32) -> Result<()> {
        if tag < 0 {
            return Err(MpiError::new(ErrClass::Tag, format!("negative user tag {tag}")));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Non-blocking byte send (`MPI_Isend` with `MPI_BYTE`).
    pub fn isend(&self, dst: u32, tag: i32, data: &[u8]) -> Result<Request> {
        self.check_live()?;
        self.check_rank(dst)?;
        Self::check_tag(tag)?;
        self.isend_internal(dst, tag, Bytes::copy_from_slice(data))
    }

    pub(crate) fn isend_internal(&self, dst: u32, tag: i32, data: Bytes) -> Result<Request> {
        let inner = self.process.pml().isend(self.inner.local_cid, dst, tag, data)?;
        // A send to an unresolved lazy peer parks behind a KVS fetch; hand
        // the fetch to the watchdog engine so stalls get diagnosed like any
        // other setup operation. No-op unless a resolution just began.
        self.process.watch_lazy_resolves();
        Ok(Request::new(inner, self.process.pml().clone()))
    }

    /// Blocking byte send (`MPI_Send`).
    pub fn send(&self, dst: u32, tag: i32, data: &[u8]) -> Result<()> {
        let req = self.errh.check(self.isend(dst, tag, data))?;
        self.errh.check(req.wait().map(|_| ()))
    }

    /// Non-blocking receive. `src`/`tag` accept [`crate::ANY_SOURCE`] /
    /// [`crate::ANY_TAG`].
    pub fn irecv(&self, src: i32, tag: i32) -> Result<Request> {
        self.check_live()?;
        if src >= 0 {
            self.check_rank(src as u32)?;
        } else if src != crate::ANY_SOURCE {
            return Err(MpiError::new(ErrClass::Rank, format!("invalid source {src}")));
        }
        if tag < 0 && tag != crate::ANY_TAG {
            return Err(MpiError::new(ErrClass::Tag, format!("invalid tag {tag}")));
        }
        self.irecv_internal(
            (src != crate::ANY_SOURCE).then_some(src as u32),
            (tag != crate::ANY_TAG).then_some(tag),
        )
    }

    pub(crate) fn irecv_internal(&self, src: Option<u32>, tag: Option<i32>) -> Result<Request> {
        let inner = self.process.pml().irecv(self.inner.local_cid, src, tag)?;
        // A named-source receive can only ever be completed by that one
        // peer: record its endpoint so a fault-aware wait can fail fast
        // (typed) when the peer is already dead, instead of burning its
        // whole timeout budget on a message that can never arrive.
        if let Some(s) = src {
            if let Some(m) = self.inner.group.member(s as usize) {
                inner.set_waiting_on(m.endpoint);
            }
        }
        Ok(Request::new(inner, self.process.pml().clone()))
    }

    /// Blocking receive returning the payload (`MPI_Recv` with `MPI_BYTE`).
    pub fn recv(&self, src: i32, tag: i32) -> Result<(Vec<u8>, Status)> {
        let req = self.errh.check(self.irecv(src, tag))?;
        let (data, status) = self.errh.check(req.wait_data())?;
        Ok((data.to_vec(), status))
    }

    /// Typed send.
    pub fn send_t<T: MpiScalar>(&self, dst: u32, tag: i32, data: &[T]) -> Result<()> {
        self.send(dst, tag, &datatype::to_bytes(data))
    }

    /// Typed receive.
    pub fn recv_t<T: MpiScalar>(&self, src: i32, tag: i32) -> Result<(Vec<T>, Status)> {
        let (bytes, status) = self.recv(src, tag)?;
        Ok((datatype::from_bytes(&bytes)?, status))
    }

    /// Combined send+receive (`MPI_Sendrecv`): both transfers in flight
    /// concurrently, then both awaited.
    pub fn sendrecv(
        &self,
        dst: u32,
        send_tag: i32,
        data: &[u8],
        src: i32,
        recv_tag: i32,
    ) -> Result<(Vec<u8>, Status)> {
        let rreq = self.irecv(src, recv_tag)?;
        let sreq = self.isend(dst, send_tag, data)?;
        let (rdata, status) = rreq.wait_data()?;
        sreq.wait()?;
        Ok((rdata.to_vec(), status))
    }

    /// `MPI_Probe`-lite: whether an unexpected message is queued (tests).
    pub fn unexpected_queued(&self) -> usize {
        self.process.pml().unexpected_count(self.inner.local_cid)
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.inner.my_rank)
            .field("size", &self.inner.group.size())
            .field("local_cid", &self.inner.local_cid)
            .field("excid", &self.inner.excid)
            .field("origin", &self.inner.origin)
            .finish()
    }
}
