//! Collective constructors. Every fresh PGCID comes from one stage machine,
//! `begin` → `group` → `commit`; blocking callers `wait` on it (quiet).

use super::{CidOrigin, Comm, FIRST_DYNAMIC_CID};
use crate::cid::ExCid;
use crate::coll;
use crate::error::{ErrClass, MpiError, Result};
use crate::group::MpiGroup;
use crate::instance::MpiProcess;
use crate::request::{stage, SetupRequest, SetupStage, SetupStep};
use pmix::GroupDirectives;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Comm {
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
        // Groups created through sessions carry their process.
        let process = group.process_hint().ok_or_else(|| {
            MpiError::new(ErrClass::Group, "group is not bound to an MPI process")
        })?;
        process.require_active()?;
        // Outer span, entered for every step: the PMIx construct issued in
        // `begin` becomes its child, exactly as in the blocking call.
        let m = process.metrics();
        let span = m.obs.span(m.key, "comm.create_from_group", stringtag);
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
                process.metrics().cid.lazy_hashed.inc();
                Ok(SetupStep::Done(comm))
            })
        } else {
            begin_stage(process.clone(), format!("mpi-comm:{stringtag}"), dense)
        };
        Ok(issue_comm(process, "comm_create_from_group", Some(span), quiet, first))
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
        // Every member counts `dup_seq` in step, so all name one group.
        let n = self.inner.dup_seq.fetch_add(1, Ordering::Relaxed);
        let name = match self.inner.excid {
            Some(e) => format!("mpi-dup:{e}:{n}"),
            None => format!("mpi-dup:cid{}:{n}", self.inner.local_cid),
        };
        let m = self.process.metrics();
        let span = m.obs.span(m.key, "comm.dup_group", &name);
        let first = begin_stage(self.process.clone(), name, self.inner.group.clone());
        Ok(issue_comm(self.process.clone(), "comm_dup_via_group", Some(span), quiet, first))
    }

    /// `MPI_Comm_split`.
    pub fn split(&self, color: u32, key: u32) -> Result<Comm> {
        self.check_live()?;
        // Exchange (color, key, rank) among all members.
        let mine = [color, key, self.rank()];
        let all = coll::allgather_t(self, &mine)?;
        let mut members: Vec<(u32, u32)> =
            all.chunks_exact(3).filter(|c| c[0] == color).map(|c| (c[1], c[2])).collect();
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
        if let Some(excid) = self.inner.excid {
            // Sessions path: fresh PGCID over the subgroup, through the
            // same stages as every other PGCID construct.
            let name = format!(
                "mpi-sub:{}:{}:{}",
                excid.pgcid,
                label,
                self.inner.dup_seq.fetch_add(1, Ordering::Relaxed)
            );
            let first = begin_stage(self.process.clone(), name, subgroup);
            issue_comm(self.process.clone(), "comm_subgroup", None, true, first).wait()
        } else {
            // Baseline: consensus among the subgroup over parent channels.
            let my_parent_rank = self.rank();
            let participants: Vec<u32> = subgroup
                .iter()
                .map(|m| {
                    self.inner.group.rank_of(&m.proc).map(|r| r as u32).ok_or_else(|| {
                        MpiError::new(ErrClass::Group, "subgroup member not in parent")
                    })
                })
                .collect::<Result<_>>()?;
            debug_assert!(participants.contains(&my_parent_rank));
            self.build_consensus(subgroup, &participants)
        }
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

/// The `begin` stage of a fresh-PGCID construction: put the PMIx group
/// construct named `name` over `group` on the wire and hand over to the
/// `group` → `commit` stages that build the communicator from the PGCID it
/// delivers.
fn begin_stage(
    process: Arc<MpiProcess>,
    name: String,
    group: MpiGroup,
) -> Box<dyn SetupStage<Comm>> {
    stage("begin", move || {
        let members: Vec<pmix::ProcId> = group.iter().map(|m| m.proc).collect();
        // The construct deadline comes from the universe's
        // `pmix.group_timeout_ms` cvar: fault drills lower it to get fast
        // typed `Timeout` verdicts.
        let directives =
            GroupDirectives::for_mpi().with_timeout(Some(process.universe().group_timeout()));
        let pending = process.pmix().group_construct_nb(&name, &members, &directives)?;
        Ok(SetupStep::Next(Box::new(GroupStage {
            pending: Some(pending),
            commit: Some((process, group)),
        })))
    })
}

/// The `group` stage of a communicator [`SetupRequest`]: an in-flight
/// nonblocking PMIx group construct. Parks on the server condvar (not a
/// sleep), so a blocking wrapper of an `i`-variant keeps condvar-grade
/// wakeup latency: this is the one stage of a communicator construction
/// that answers `Pending`, hence the only one a blocking driver parks —
/// the one-shot `commit` it hands over to runs at once, with no nap.
struct GroupStage {
    pending: Option<pmix::PendingGroup>,
    /// What the `commit` stage builds on once the construct delivers.
    commit: Option<(Arc<MpiProcess>, MpiGroup)>,
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
                let (process, group) = self.commit.take().expect("group stage delivers once");
                Ok(SetupStep::Next(commit_stage(process, group, pgroup)))
            }
        }
    }
    fn park(&mut self, limit: std::time::Duration) {
        if let Some(p) = self.pending.as_mut() {
            p.park(limit);
        }
    }
    fn waiting_on(&self) -> Option<String> {
        self.pending.as_ref().map(|p| format!("pmix group construct '{}'", p.name()))
    }
}

/// The `commit` stage after [`GroupStage`]: extract the PGCID, claim a
/// local CID and build the communicator. The one place a communicator is
/// built on a fresh PGCID.
fn commit_stage(
    process: Arc<MpiProcess>,
    group: MpiGroup,
    pgroup: pmix::PmixGroup,
) -> Box<dyn SetupStage<Comm>> {
    stage("commit", move || {
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
        Ok(SetupStep::Done(comm))
    })
}
