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

use crate::cid::{try_derive_excid, DeriveExhausted, DeriveState, ExCid};
use crate::coll;
use crate::datatype::{self, MpiScalar};
use crate::errhandler::ErrHandler;
use crate::error::{ErrClass, MpiError, Result};
use crate::group::MpiGroup;
use crate::instance::MpiProcess;
use crate::pml::PeerAddr;
use crate::request::{stage, Request, SetupRequest, SetupStage, SetupStep};
use crate::status::Status;
use bytes::Bytes;
use parking_lot::Mutex;
use pmix::GroupDirectives;
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

/// A block of derivable exCIDs: a base exCID (PGCID-fresh or itself
/// derived) plus the derivation cursor walking its subfield space.
///
/// Stored behind an `Arc` so a parent whose block is exhausted and the
/// refill child it mints (see [`Comm::dup`]) *share* one pool: further
/// dups of either consume the same 255-slot budget, which keeps the
/// derivation tree collision-free without re-acquiring a PGCID per dup.
pub(crate) struct DerivePool {
    pub base: ExCid,
    pub state: DeriveState,
    /// Subfield slots returned by collectively-freed derived children:
    /// the child's exCID together with the child's *own* pool, captured at
    /// free time. A recycled child resumes that pool rather than starting a
    /// fresh one, so it can never re-derive a grandchild exCID that might
    /// still be live. LIFO and fed only by [`Comm::free`], which every rank
    /// calls on the same children, so the list stays identical on every
    /// rank (derivation must stay rank-symmetric).
    pub freed: Vec<FreedSlot>,
}

/// One recyclable subfield on a [`DerivePool`]'s freed list.
pub(crate) struct FreedSlot {
    pub excid: ExCid,
    pub pool: Arc<Mutex<DerivePool>>,
    /// Incarnation of the communicator that returned the slot. The list is
    /// identical on every rank, so the count is too: the next communicator
    /// to take the slot is incarnation + 1 everywhere, which is what lets
    /// the PML tell its traffic from its predecessor's.
    pub incarnation: u16,
}

/// A subfield handed out by [`Comm::take_subfield`].
struct Subfield {
    excid: ExCid,
    incarnation: u16,
    /// The child's own derivation pool (resumed when recycled).
    pool: Arc<Mutex<DerivePool>>,
    /// The pool the subfield came from; `free` returns it there.
    parent: Arc<Mutex<DerivePool>>,
    recycled: bool,
}

pub(crate) struct CommInner {
    pub local_cid: u16,
    pub excid: Option<ExCid>,
    /// Which registration of `excid` this communicator is (0 unless the
    /// exCID is a recycled derived subfield).
    pub incarnation: u16,
    pub derive: Mutex<Option<Arc<Mutex<DerivePool>>>>,
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
    /// The pool this communicator was derived *from* (`None` unless origin
    /// is `Derived`): freeing the communicator returns its exCID subfield
    /// there for recycling.
    pub parent_pool: Mutex<Option<Arc<Mutex<DerivePool>>>>,
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
        process
            .pml()
            .register_comm(local_cid, my_rank, addrs, excid.map(|e| (e, incarnation)));
        // A PGCID-fresh communicator roots a new derivation block: itself
        // plus up to 255 locally-derived children. Acquiring such a block
        // is what the `cid.refills` counter tallies — one per trip through
        // PMIx group construction, never per dup. Hashed lazy exCIDs root a
        // block too (derivation is purely local arithmetic, so it composes
        // with lazy routes), but they are not a refill: no PMIx trip.
        let derive = match origin {
            CidOrigin::Pgcid | CidOrigin::Lazy => excid.map(|e| {
                Arc::new(Mutex::new(DerivePool {
                    base: e,
                    state: DeriveState::fresh(),
                    freed: Vec::new(),
                }))
            }),
            _ => None,
        };
        if origin == CidOrigin::Pgcid {
            count_cid(&process, "refills");
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
                derive: Mutex::new(derive),
                refill_lock: Mutex::new(()),
                group,
                my_rank,
                coll_seq: AtomicU32::new(0),
                dup_seq: AtomicU64::new(0),
                origin,
                freed: AtomicBool::new(false),
                parent_pool: Mutex::new(None),
            }),
            process,
            errh: ErrHandler::Return,
        })
    }

    /// The sessions constructor (`MPI_Comm_create_from_group`): collective
    /// over the group's members. Performs a PMIx group construct to obtain
    /// a PGCID; each process picks its local CID independently.
    /// Implemented as [`Comm::icomm_create_from_group`] + `wait` (quiet).
    pub fn create_from_group(group: &MpiGroup, stringtag: &str) -> Result<Comm> {
        Self::icomm_inner(group, stringtag, true)?.wait()
    }

    /// Nonblocking `MPI_Comm_create_from_group`: issues the PMIx group
    /// fan-in immediately and returns a [`SetupRequest`] whose stages
    /// (`begin` → `group` → `commit`) complete under `test`/`wait`/the
    /// process [`crate::instance::MpiProcess::progress_engine`]. N
    /// concurrent requests pipeline: all fan-ins (and their PGCID demand)
    /// are on the wire before the first wait, so the per-server coalescer
    /// batches their `pgcid.request` round trips. Dropping the request
    /// cancels collectively (the construction completes, then the
    /// communicator is freed — every rank must drop symmetrically).
    pub fn icomm_create_from_group(
        group: &MpiGroup,
        stringtag: &str,
    ) -> Result<SetupRequest<Comm>> {
        Self::icomm_inner(group, stringtag, false)
    }

    fn icomm_inner(group: &MpiGroup, stringtag: &str, quiet: bool) -> Result<SetupRequest<Comm>> {
        let process = group_process(group)?;
        process.require_active()?;
        // Outer span, entered for every step: the PMIx construct issued in
        // `begin` becomes its child, exactly as in the blocking call.
        let span = process
            .obs()
            .span(&process.proc().to_string(), "comm.create_from_group", stringtag);
        let dense = group.to_dense();
        let first = if group.is_lazy() {
            // Lazy sessions path (DESIGN.md §14): no PMIx group construct,
            // no fan-in, no PGCID round trip. Every member hashes the same
            // exCID from (stringtag, membership) — rank-symmetric by
            // construction — and registers unresolved routes. The whole
            // creation is one local stage.
            let members: Vec<pmix::ProcId> = group.iter().map(|m| m.proc).collect();
            let pgcid = lazy_pgcid(stringtag, &members);
            let process = process.clone();
            stage("lazy_cid", move || {
                let local_cid = process.claim_lowest_cid(FIRST_DYNAMIC_CID)?;
                let comm = Comm::build(
                    process.clone(),
                    dense,
                    local_cid,
                    Some(ExCid::from_pgcid(pgcid)),
                    0,
                    CidOrigin::Lazy,
                    None,
                )?;
                count_cid(&process, "lazy_hashed");
                Ok(SetupStep::Done(comm))
            })
        } else {
            begin_stage(process.clone(), format!("mpi-comm:{stringtag}"), dense)
        };
        Ok(issue_comm(process, "comm_create_from_group", Some(span), quiet, first))
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

    // ------------------------------------------------------------------
    // Derivation: dup / split / create_group
    // ------------------------------------------------------------------

    /// `MPI_Comm_dup`.
    ///
    /// * Consensus/built-in parents run the legacy multi-round consensus
    ///   algorithm (the Open MPI baseline of the paper's Fig. 4).
    /// * exCID parents derive a child exCID **locally** from the parent's
    ///   active subfield — zero agreement traffic — falling back to a fresh
    ///   PGCID when the subfield space is exhausted.
    pub fn dup(&self) -> Result<Comm> {
        self.check_live()?;
        if self.inner.excid.is_none() || self.inner.origin == CidOrigin::Builtin {
            return self.dup_consensus();
        }
        if let Some(res) = self.derive_once() {
            return res;
        }
        // Block exhausted: every participant hits this at the same dup
        // index (derivation is deterministic), so the group collectively
        // acquires a fresh PGCID. The parent's pool is then *refilled in
        // place* with the child's block — shared, so subsequent dups of
        // either communicator derive locally from it rather than paying
        // PMIx again.
        //
        // Refills are serialized per communicator: exactly one concurrent
        // dup pays the PMIx trip, the rest wait here, observe the refilled
        // pool on their second-chance derivation, and derive locally.
        let _refill = self.inner.refill_lock.lock();
        if let Some(Ok(sub)) = self.take_subfield() {
            // Someone refilled (or freed a sibling) while we waited:
            // coalesce.
            count_cid(&self.process, "refill_coalesced");
            return self.build_derived(sub);
        }
        let child = self.dup_via_group()?;
        self.adopt_refill(&child);
        Ok(child)
    }

    /// Take one exCID subfield from this communicator's pool: recycled
    /// slots first (returned by freed children, one incarnation later than
    /// their previous holder), then fresh derivation — initially rooted at
    /// this communicator's own exCID, and after an exhaustion-triggered
    /// refill rooted at the fresh block. `None` when the communicator never
    /// seeded a pool, `Some(Err(why))` when the subfield space is exhausted.
    fn take_subfield(&self) -> Option<std::result::Result<Subfield, DeriveExhausted>> {
        let parent = self.inner.derive.lock().clone()?;
        let mut pl = parent.lock();
        if let Some(slot) = pl.freed.pop() {
            drop(pl);
            return Some(Ok(Subfield {
                excid: slot.excid,
                incarnation: slot.incarnation.wrapping_add(1),
                pool: slot.pool,
                parent,
                recycled: true,
            }));
        }
        let base = pl.base;
        let derived = try_derive_excid(&base, &mut pl.state);
        drop(pl);
        Some(derived.map(|(excid, state)| Subfield {
            excid,
            incarnation: 0,
            pool: Arc::new(Mutex::new(DerivePool { base: excid, state, freed: Vec::new() })),
            parent,
            recycled: false,
        }))
    }

    /// One attempt at the local-derivation fast path. `None` when no
    /// subfield is to be had, with the exhaustion mode recorded: silently
    /// wrapping here would alias two children onto one exCID.
    fn derive_once(&self) -> Option<Result<Comm>> {
        match self.take_subfield() {
            Some(Ok(sub)) => Some(self.build_derived(sub)),
            other => {
                let obs = self.process.obs();
                let p = self.process.proc().to_string();
                obs.counter(&p, "cid", "subfield_exhausted").inc();
                let reason = match other {
                    Some(Err(why)) => why.as_str(),
                    _ => "no-pool",
                };
                obs.event(
                    &p,
                    "cid",
                    "cid.subfield_exhausted",
                    vec![("reason".into(), reason.into())],
                );
                None
            }
        }
    }

    /// Build a locally-derived child communicator (the zero-traffic dup):
    /// emits the `comm.dup_derived` span, claims a local CID, installs the
    /// child's derivation pool (fresh, or resumed when the exCID was
    /// recycled from a freed sibling), and records the parent pool so a
    /// later free can return the subfield.
    fn build_derived(&self, sub: Subfield) -> Result<Comm> {
        let mut span = self.process.obs().span(
            &self.process.proc().to_string(),
            "comm.dup_derived",
            &format!("{}", sub.excid),
        );
        span.add_work(1);
        let local_cid = self.process.claim_lowest_cid(FIRST_DYNAMIC_CID)?;
        let comm = Comm::build(
            self.process.clone(),
            self.inner.group.clone(),
            local_cid,
            Some(sub.excid),
            sub.incarnation,
            CidOrigin::Derived,
            None,
        )?;
        *comm.inner.derive.lock() = Some(sub.pool);
        *comm.inner.parent_pool.lock() = Some(sub.parent);
        count_cid(&self.process, "derivations");
        if sub.recycled {
            count_cid(&self.process, "subfields_recycled");
        }
        Ok(comm)
    }

    /// Install a fresh-PGCID child's derivation block as this
    /// communicator's pool (the exhaustion refill: shared, so dups of
    /// either derive locally from it from now on).
    fn adopt_refill(&self, child: &Comm) {
        let refilled = child.inner.derive.lock().clone();
        *self.inner.derive.lock() = refilled;
        count_cid(&self.process, "derivations");
        self.process.obs().event(
            &self.process.proc().to_string(),
            "cid",
            "cid.refill",
            vec![("pgcid".into(), child.excid().map(|e| e.pgcid).unwrap_or(0).into())],
        );
    }

    /// Name of the next PMIx group a fresh-PGCID dup of this communicator
    /// constructs (every member counts `dup_seq` in step).
    fn dup_group_name(&self) -> String {
        let n = self.inner.dup_seq.fetch_add(1, Ordering::Relaxed);
        match self.inner.excid {
            Some(e) => format!("mpi-dup:{e}:{n}"),
            None => format!("mpi-dup:cid{}:{n}", self.inner.local_cid),
        }
    }

    /// `MPI_Comm_dup` acquiring a *fresh PGCID* through PMIx — the behavior
    /// of the paper's prototype as measured in Fig. 4 ("overhead ...
    /// accounted for by the overhead of acquiring a PMIx group context
    /// identifier"). Exposed separately so the benchmarks can reproduce the
    /// figure and the ablation can compare it against local derivation.
    /// Implemented as [`Comm::idup_via_group`] + `wait` (quiet).
    pub fn dup_via_group(&self) -> Result<Comm> {
        self.idup_via_group_inner(true)?.wait()
    }

    /// Nonblocking [`Comm::dup_via_group`]: the fresh-PGCID dup as a
    /// [`SetupRequest`] (`begin` → `group` → `commit`). This is the
    /// overlap workhorse of `fig4_comm_dup --nonblocking`: K requests
    /// issued back-to-back put K fan-ins (and one coalesced PGCID demand)
    /// on the wire before the first wait.
    pub fn idup_via_group(&self) -> Result<SetupRequest<Comm>> {
        self.idup_via_group_inner(false)
    }

    fn idup_via_group_inner(&self, quiet: bool) -> Result<SetupRequest<Comm>> {
        self.check_live()?;
        let name = self.dup_group_name();
        let span = self
            .process
            .obs()
            .span(&self.process.proc().to_string(), "comm.dup_group", &name);
        let first = begin_stage(self.process.clone(), name, self.inner.group.clone());
        Ok(issue_comm(self.process.clone(), "comm_dup_via_group", Some(span), quiet, first))
    }

    /// Nonblocking `MPI_Comm_dup`. Mirrors [`Comm::dup`]'s regimes:
    ///
    /// * exCID parents try the local-derivation fast path at issue time —
    ///   completing in the issuing call when a subfield is free — and fall
    ///   back to a *pipelined* refill (fresh PGCID via the nonblocking
    ///   PMIx construct; the parent pool is refilled at commit). Unlike
    ///   the blocking `dup`, concurrent exhausted `idup`s do not coalesce
    ///   on the refill lock — each pipelines its own construct, which is
    ///   the point of the nonblocking path (the per-server PGCID
    ///   coalescer still batches their id demand).
    /// * Consensus/built-in parents run the legacy consensus agreement as
    ///   one coarse `consensus` stage: nothing runs at issue, and the
    ///   first poll executes the whole (inherently blocking) multi-round
    ///   exchange. Documented in DESIGN.md §12.
    pub fn idup(&self) -> Result<SetupRequest<Comm>> {
        self.check_live()?;
        let excid_path = self.inner.excid.is_some() && self.inner.origin != CidOrigin::Builtin;
        let parent = self.clone();
        let first = if excid_path {
            stage("derive", move || match parent.derive_once() {
                Some(res) => res.map(SetupStep::Done),
                None => parent.begin_refill(),
            })
        } else {
            // A cheap first stage so `issue` never blocks: the consensus
            // exchange runs on the first *poll*, not in the issuing call.
            stage("resolve", move || {
                Ok(SetupStep::Next(stage("consensus", move || {
                    parent.dup_consensus().map(SetupStep::Done)
                })))
            })
        };
        Ok(issue_comm(self.process.clone(), "comm_idup", None, false, first))
    }

    /// Begin the exhaustion refill for [`Comm::idup`]: a nonblocking PMIx
    /// construct whose commit installs the child's fresh derivation block
    /// as this communicator's pool (same in-place refill as the blocking
    /// `dup`, minus the refill-lock coalescing).
    fn begin_refill(&self) -> Result<SetupStep<Comm>> {
        let parent = self.clone();
        construct_stage(
            self.process.clone(),
            &self.dup_group_name(),
            self.inner.group.clone(),
            Some(Box::new(move |child: &Comm| parent.adopt_refill(child))),
        )
    }

    /// `MPI_Comm_dup` via the legacy consensus algorithm (baseline path).
    pub fn dup_consensus(&self) -> Result<Comm> {
        self.check_live()?;
        let all: Vec<u32> = (0..self.size()).collect();
        self.build_consensus(self.inner.group.clone(), &all)
    }

    /// Agree on a CID among `participants` (ranks of this communicator)
    /// and build the consensus communicator over `group` under it.
    fn build_consensus(&self, group: MpiGroup, participants: &[u32]) -> Result<Comm> {
        let cid = self.consensus_cid(participants)?;
        Comm::build(self.process.clone(), group, cid, None, 0, CidOrigin::Consensus, None)
    }

    /// The legacy consensus algorithm (paper §III-B2): propose the lowest
    /// free table index, agree on the max, repeat until unanimous. Runs
    /// over this communicator's point-to-point channels among
    /// `participants` (ranks of this comm). Returns the agreed CID,
    /// claimed locally.
    pub(crate) fn consensus_cid(&self, participants: &[u32]) -> Result<u16> {
        let obs = self.process.obs();
        let p = self.process.proc().to_string();
        let rounds_ctr = obs.counter(&p, "cid", "consensus_rounds");
        // Entered for the whole agreement, so the allreduce traffic below
        // carries this span's context; work = rounds to convergence.
        let mut span = obs.span(
            &p,
            "cid.consensus",
            &format!(
                "cid{}@{}",
                self.inner.local_cid,
                self.inner.coll_seq.load(Ordering::Relaxed)
            ),
        );
        let _entered = span.enter();
        let mut candidate = FIRST_DYNAMIC_CID;
        for round in 1..=4096u64 {
            let (max, unanimous) = self.consensus_round(participants, candidate)?;
            // Claim may race with a local interleaved creation; retry
            // the consensus if the slot vanished.
            if unanimous && self.process.claim_cid(max).is_ok() {
                rounds_ctr.add(round);
                obs.counter(&p, "cid", "consensus_agreements").inc();
                span.add_work(round);
                return Ok(max);
            }
            candidate = max;
        }
        Err(MpiError::intern("CID consensus did not converge in 4096 rounds"))
    }

    /// One round of the consensus algorithm: everyone proposes its lowest
    /// free index at or above `candidate`; returns the maximum proposed and
    /// whether every participant proposed exactly that.
    fn consensus_round(&self, participants: &[u32], candidate: u16) -> Result<(u16, bool)> {
        let proposed = self.process.peek_lowest_cid(candidate)? as u32;
        let max =
            coll::subgroup_allreduce_u32(self, participants, proposed, coll::SubgroupOp::Max)?;
        let agree = u32::from(proposed == max);
        let unanimous =
            coll::subgroup_allreduce_u32(self, participants, agree, coll::SubgroupOp::Min)?;
        Ok((max as u16, unanimous == 1))
    }

    /// Number of consensus rounds a hypothetical allocation would need
    /// right now (fragmentation diagnostics for the ablation benchmark).
    pub fn probe_consensus_rounds(&self) -> Result<u32> {
        let all: Vec<u32> = (0..self.size()).collect();
        let mut candidate = FIRST_DYNAMIC_CID;
        for round in 1..=4096 {
            let (max, unanimous) = self.consensus_round(&all, candidate)?;
            if unanimous {
                return Ok(round);
            }
            candidate = max;
        }
        Ok(4096)
    }

    /// `MPI_Comm_split`.
    pub fn split(&self, color: u32, key: u32) -> Result<Comm> {
        self.check_live()?;
        // Exchange (color, key, rank) among all members.
        let mine = [color, key, self.rank()];
        let all = coll::allgather_t(self, &mine)?;
        let mut members: Vec<(u32, u32)> = all
            .chunks_exact(3)
            .filter(|c| c[0] == color)
            .map(|c| (c[1], c[2]))
            .collect();
        members.sort();
        let ranks: Vec<usize> = members.iter().map(|(_, r)| *r as usize).collect();
        let subgroup = self.inner.group.incl(&ranks)?;
        self.make_subgroup_comm(subgroup, &format!("split:c{color}"))
    }

    /// `MPI_Comm_create_group`: collective only over `group`'s members
    /// (partial participation ⇒ always a fresh identifier; paper §III-B3).
    pub fn create_group(&self, group: &MpiGroup, tag: i32) -> Result<Comm> {
        self.check_live()?;
        if group.rank_of(self.process.proc()).is_none() {
            return Err(MpiError::new(ErrClass::Group, "caller not in group"));
        }
        self.make_subgroup_comm(group.clone(), &format!("cgrp:t{tag}"))
    }

    fn make_subgroup_comm(&self, subgroup: MpiGroup, label: &str) -> Result<Comm> {
        if self.inner.excid.is_some() {
            // Sessions path: fresh PGCID over the subgroup.
            let members: Vec<pmix::ProcId> = subgroup.iter().map(|m| m.proc).collect();
            let name = format!(
                "mpi-sub:{}:{}:{}",
                self.inner.excid.map(|e| e.pgcid).unwrap_or(0),
                label,
                self.inner.dup_seq.fetch_add(1, Ordering::Relaxed)
            );
            let pgroup = self
                .process
                .pmix()
                .group_construct(&name, &members, &mpi_directives(&self.process))?;
            let pgcid = pgroup.pgcid().ok_or_else(|| MpiError::intern("no PGCID"))?;
            let local_cid = self.process.claim_lowest_cid(FIRST_DYNAMIC_CID)?;
            Comm::build(
                self.process.clone(),
                subgroup,
                local_cid,
                Some(ExCid::from_pgcid(pgcid)),
                0,
                CidOrigin::Pgcid,
                Some(pgroup),
            )
        } else {
            // Baseline: consensus among the subgroup over parent channels.
            let my_parent_rank = self.rank();
            let participants: Vec<u32> = subgroup
                .iter()
                .map(|m| {
                    self.inner
                        .group
                        .rank_of(&m.proc)
                        .map(|r| r as u32)
                        .ok_or_else(|| {
                            MpiError::new(ErrClass::Group, "subgroup member not in parent")
                        })
                })
                .collect::<Result<_>>()?;
            debug_assert!(participants.contains(&my_parent_rank));
            self.build_consensus(subgroup, &participants)
        }
    }

    /// Retire a communicator whose membership may have diverged — a member
    /// died, or ranks observed a fault at different points.
    /// [`crate::elastic::ElasticComm`] calls this on the broken
    /// communicator before it builds the replacement. Like
    /// [`Comm::free`] it is local and releases the PGCID family, so the
    /// PGCID of a repaired communicator is recycled once every member has
    /// freed, abandoned or died. Unlike `free` it does not return a derived
    /// exCID subfield to its parent pool: abandonment is rank-asymmetric,
    /// and the pool's freed list must stay identical on every rank.
    pub fn abandon(self) {
        if self.inner.freed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.retire_local();
    }

    /// The local half of retiring a communicator: release the PML route and
    /// the local CID and drop the PGCID-family reference; the family's last
    /// reference releases its PMIx group.
    fn retire_local(&self) {
        self.process.pml().unregister_comm(self.inner.local_cid);
        self.process.release_cid(self.inner.local_cid);
        count_cid(&self.process, "released");
        let Some(pgcid) = self.inner.excid.map(|e| e.pgcid).filter(|p| *p != 0) else {
            return;
        };
        if let Some(group) = self.process.pgcid_release(pgcid) {
            // A one-way release to the local server; it cannot fail.
            let _ = self.process.pmix().group_destruct(&group, None);
        }
    }

    /// `MPI_Comm_free`. Completes locally: it releases the local CID and
    /// route, returns a derived exCID subfield to its parent pool for
    /// recycling, and — when this was the last live communicator of its
    /// PGCID family — releases the backing PMIx group. The lead server
    /// recycles the PGCID once every member has released it or died, so
    /// nothing here waits on a peer, dead or alive. Every rank must still
    /// free (not abandon) a derived communicator, so the parent pools'
    /// freed lists stay identical; the only error is freeing twice.
    pub fn free(self) -> Result<()> {
        self.check_live()?;
        self.inner.freed.store(true, Ordering::Release);
        self.retire_local();
        if self.inner.origin == CidOrigin::Derived {
            if let (Some(excid), Some(parent)) =
                (self.inner.excid, self.inner.parent_pool.lock().clone())
            {
                if let Some(own) = self.inner.derive.lock().clone() {
                    if !Arc::ptr_eq(&own, &parent) {
                        parent.lock().freed.push(FreedSlot {
                            excid,
                            pool: own,
                            incarnation: self.inner.incarnation,
                        });
                        count_cid(&self.process, "subfields_returned");
                    }
                }
            }
        }
        Ok(())
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

/// Rank-symmetric hashed PGCID for lazy communicators: FNV-1a over the
/// stringtag and the (rank-ordered) membership, with bit 63 forced on so
/// the value can never collide with a server-issued PGCID (those grow
/// upward from one) and can never be 0 (the built-in sentinel). Every
/// member computes the identical value with zero traffic; MPI requires the
/// stringtag to be unique among concurrent creations over the same group,
/// which is exactly the disambiguation the hash relies on.
pub(crate) fn lazy_pgcid(stringtag: &str, members: &[pmix::ProcId]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let mut h = eat(OFFSET, stringtag.as_bytes());
    for m in members {
        h = eat(h, &[0xff]); // field separator: "ab"+"c" != "a"+"bc"
        h = eat(h, m.to_string().as_bytes());
    }
    h | (1 << 63)
}

/// Bump one of the process's `cid/*` counters. `derivations` — one per
/// exCID handed out by dup-derivation, including the dup that triggered a
/// refill — is the "zero agreement traffic" currency of the sessions
/// design.
fn count_cid(process: &MpiProcess, name: &str) {
    process.obs().counter(&process.proc().to_string(), "cid", name).inc();
}

/// The MPI-profile group directives, with the construct deadline read from
/// the universe's `pmix.group_timeout_ms` cvar instead of the compile-time
/// default — fault drills lower it to get fast typed `Timeout` verdicts.
fn mpi_directives(process: &MpiProcess) -> GroupDirectives {
    GroupDirectives::for_mpi().with_timeout(Some(process.universe().group_timeout()))
}

fn group_process(group: &MpiGroup) -> Result<Arc<MpiProcess>> {
    // Groups created through sessions carry their process; reconstruct it
    // from the session-bound group type.
    group
        .process_hint()
        .ok_or_else(|| MpiError::new(ErrClass::Group, "group is not bound to an MPI process"))
}

/// Issue a communicator construction whose cancellation (a drop before the
/// result is claimed) collectively frees the just-built communicator.
fn issue_comm(
    process: Arc<MpiProcess>,
    op: &'static str,
    span: Option<obs::Span>,
    quiet: bool,
    first: Box<dyn SetupStage<Comm>>,
) -> SetupRequest<Comm> {
    let cancel = Box::new(|c: Comm| {
        let _ = c.free();
    });
    SetupRequest::issue(process, op, span, quiet, first, Some(cancel))
}

/// Put the PMIx group construct named `name` over `group` on the wire and
/// hand over to the `group` → `commit` stages that build the communicator
/// from the PGCID it delivers.
fn construct_stage(
    process: Arc<MpiProcess>,
    name: &str,
    group: MpiGroup,
    after: Option<CommitHook>,
) -> Result<SetupStep<Comm>> {
    let members: Vec<pmix::ProcId> = group.iter().map(|m| m.proc).collect();
    let pending = process.pmix().group_construct_nb(name, &members, &mpi_directives(&process))?;
    let commit = commit_stage(process, group, after);
    Ok(SetupStep::Next(Box::new(GroupStage { pending: Some(pending), next: Some(commit) })))
}

/// [`construct_stage`] as the `begin` stage of a request.
fn begin_stage(
    process: Arc<MpiProcess>,
    name: String,
    group: MpiGroup,
) -> Box<dyn SetupStage<Comm>> {
    stage("begin", move || construct_stage(process, &name, group, None))
}

/// Continuation a [`GroupStage`] hands the delivered PMIx group to.
type GroupCont = Box<dyn FnOnce(pmix::PmixGroup) -> Result<SetupStep<Comm>> + Send>;
/// Post-build hook run by the `commit` stage on the constructed comm.
type CommitHook = Box<dyn FnOnce(&Comm) + Send>;

/// The `group` stage of a communicator [`SetupRequest`]: an in-flight
/// nonblocking PMIx group construct. Parks on the server condvar (not a
/// sleep), so a blocking wrapper of an `i`-variant keeps condvar-grade
/// wakeup latency: this is the one stage of a communicator construction
/// that answers `Pending`, hence the only one a blocking driver parks —
/// the one-shot `commit` it hands over to runs at once, with no nap.
struct GroupStage {
    pending: Option<pmix::PendingGroup>,
    next: Option<GroupCont>,
}

impl SetupStage<Comm> for GroupStage {
    fn name(&self) -> &'static str {
        "group"
    }
    fn poll(&mut self) -> Result<SetupStep<Comm>> {
        let pending = self
            .pending
            .as_mut()
            .ok_or_else(|| MpiError::intern("group stage polled after completion"))?;
        match pending.try_group() {
            None => Ok(SetupStep::Pending),
            Some(res) => {
                self.pending = None;
                let pgroup = res?;
                (self.next.take().expect("group continuation runs once"))(pgroup)
            }
        }
    }
    fn park(&mut self, limit: std::time::Duration) {
        if let Some(p) = self.pending.as_mut() {
            p.park(limit);
        }
    }
    fn waiting_on(&self) -> Option<String> {
        self.pending
            .as_ref()
            .map(|p| format!("pmix group construct '{}'", p.name()))
    }
}

/// Continuation for [`GroupStage`]: once the construct delivers, hand over
/// to a `commit` stage that extracts the PGCID, claims a local CID and
/// builds the communicator. `after` runs on the built comm before the
/// request completes (the idup refill installs the child's derivation
/// block there).
fn commit_stage(process: Arc<MpiProcess>, group: MpiGroup, after: Option<CommitHook>) -> GroupCont {
    Box::new(move |pgroup| {
        Ok(SetupStep::Next(stage("commit", move || {
            let pgcid = pgroup
                .pgcid()
                .ok_or_else(|| MpiError::intern("PMIx group construct returned no PGCID"))?;
            let local_cid = process.claim_lowest_cid(FIRST_DYNAMIC_CID)?;
            let comm = Comm::build(
                process,
                group,
                local_cid,
                Some(ExCid::from_pgcid(pgcid)),
                0,
                CidOrigin::Pgcid,
                Some(pgroup),
            )?;
            if let Some(f) = after {
                f(&comm);
            }
            Ok(SetupStep::Done(comm))
        })))
    })
}
