//! `MPI_Comm_dup`: local exCID derivation, the refill of an exhausted pool,
//! and the legacy consensus.

use super::{CidOrigin, Comm, FIRST_DYNAMIC_CID};
use crate::cid::Subfield;
use crate::coll;
use crate::error::{MpiError, Result};
use crate::group::MpiGroup;
use std::sync::atomic::Ordering;

impl Comm {
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
        // The local-derivation fast path. Without a subfield, record the
        // exhaustion mode: silently wrapping would alias two children onto
        // one exCID.
        let why = match self.inner.derive.take() {
            Some(Ok(sub)) => return self.build_derived(sub),
            Some(Err(why)) => why.as_str(),
            None => "no-pool",
        };
        let m = self.process.metrics();
        m.cid.subfield_exhausted.inc();
        m.obs.event(m.key, "cid", "cid.subfield_exhausted", vec![("reason", obs::AttrValue::name(why))]);
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
        if let Some(Ok(sub)) = self.inner.derive.take() {
            // Someone refilled (or freed a sibling) while we waited:
            // coalesce.
            self.process.metrics().cid.refill_coalesced.inc();
            return self.build_derived(sub);
        }
        let child = self.dup_via_group()?;
        self.adopt_refill(&child);
        Ok(child)
    }

    /// Build a locally-derived child communicator (the zero-traffic dup):
    /// emits the `comm.dup_derived` span, claims a local CID, installs the
    /// child's derivation pool (fresh, or resumed when the exCID was
    /// recycled from a freed sibling), and records the parent pool so a
    /// later free can return the subfield.
    fn build_derived(&self, sub: Subfield) -> Result<Comm> {
        let m = self.process.metrics();
        let mut span = m.obs.span(m.key, "comm.dup_derived", sub.excid);
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
        let recycled = sub.recycled;
        comm.inner.derive.seat(sub);
        self.process.metrics().cid.derivations.inc();
        if recycled {
            self.process.metrics().cid.subfields_recycled.inc();
        }
        Ok(comm)
    }

    /// Install a fresh-PGCID child's derivation block as this
    /// communicator's pool (the exhaustion refill: shared, so dups of
    /// either derive locally from it from now on).
    fn adopt_refill(&self, child: &Comm) {
        self.inner.derive.adopt(&child.inner.derive);
        let m = self.process.metrics();
        m.cid.derivations.inc();
        m.obs.event(
            m.key,
            "cid",
            "cid.refill",
            vec![("pgcid", child.excid().map(|e| e.pgcid).unwrap_or(0).into())],
        );
    }

    /// `MPI_Comm_dup` via the legacy consensus algorithm (baseline path).
    pub fn dup_consensus(&self) -> Result<Comm> {
        self.check_live()?;
        let all: Vec<u32> = (0..self.size()).collect();
        self.build_consensus(self.inner.group.clone(), &all)
    }

    /// Agree on a CID among `participants` (ranks of this communicator)
    /// and build the consensus communicator over `group` under it.
    pub(super) fn build_consensus(&self, group: MpiGroup, participants: &[u32]) -> Result<Comm> {
        let cid = self.consensus_cid(participants)?;
        Comm::build(self.process.clone(), group, cid, None, 0, CidOrigin::Consensus, None)
    }

    /// The legacy consensus algorithm (paper §III-B2): propose the lowest
    /// free table index, agree on the max, repeat until unanimous. Runs
    /// over this communicator's point-to-point channels among
    /// `participants` (ranks of this comm). Returns the agreed CID,
    /// claimed locally.
    fn consensus_cid(&self, participants: &[u32]) -> Result<u16> {
        let m = self.process.metrics();
        // Entered for the whole agreement, so the allreduce traffic below
        // carries this span's context; work = rounds to convergence.
        let mut span = m.obs.span(
            m.key,
            "cid.consensus",
            format_args!("cid{}@{}", self.inner.local_cid, self.inner.coll_seq.load(Ordering::Relaxed)),
        );
        let _entered = span.enter();
        // Claim may race with a local interleaved creation; the rounds go
        // on if the slot vanished.
        let (cid, rounds) = self
            .consensus_rounds(participants, |max| self.process.claim_cid(max).is_ok())?
            .ok_or_else(|| MpiError::intern("CID consensus did not converge in 4096 rounds"))?;
        m.cid.consensus_rounds.add(rounds);
        m.cid.consensus_agreements.inc();
        span.add_work(rounds);
        Ok(cid)
    }

    /// The consensus rounds among `participants`: everyone proposes its
    /// lowest free index at or above the candidate, the maximum becomes
    /// the next candidate, and the loop ends once every participant
    /// proposed exactly that and `accept` takes it. Returns the agreed
    /// index and the rounds it took; `None` after 4096 rounds.
    fn consensus_rounds(
        &self,
        participants: &[u32],
        mut accept: impl FnMut(u16) -> bool,
    ) -> Result<Option<(u16, u64)>> {
        let mut candidate = FIRST_DYNAMIC_CID;
        for round in 1..=4096u64 {
            let proposed = self.process.peek_lowest_cid(candidate)? as u32;
            let max =
                coll::subgroup_allreduce_u32(self, participants, proposed, coll::SubgroupOp::Max)?;
            let agree = u32::from(proposed == max);
            let unanimous =
                coll::subgroup_allreduce_u32(self, participants, agree, coll::SubgroupOp::Min)?;
            if unanimous == 1 && accept(max as u16) {
                return Ok(Some((max as u16, round)));
            }
            candidate = max as u16;
        }
        Ok(None)
    }

    /// Number of consensus rounds a hypothetical allocation would need
    /// right now (fragmentation diagnostics for the ablation benchmark).
    pub fn probe_consensus_rounds(&self) -> Result<u32> {
        let all: Vec<u32> = (0..self.size()).collect();
        Ok(self.consensus_rounds(&all, |_| true)?.map_or(4096, |(_, rounds)| rounds as u32))
    }
}
