//! PMIx group construction: directives, results and the client-side handle.
//!
//! The collective construct and the local release behind destruct live in
//! [`crate::server`]; this module defines the user-facing pieces, which
//! mirror Figure 2 of the paper (`PMIx_Group_construct` /
//! `PMIx_Group_destruct` plus directives).

use crate::types::ProcId;
use std::time::Duration;

/// Directives accepted by the group constructor (paper §III-A):
/// leader designation, a completion timeout, a PGCID request, and the
/// failure-notification policies.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDirectives {
    /// Optional designated leader process.
    pub leader: Option<ProcId>,
    /// Time-out for completion of the collective; `None` = wait forever.
    pub timeout: Option<Duration>,
    /// Request a Process Group Context Identifier from the resource
    /// manager — a unique, non-zero 64-bit id usable by MPI as the
    /// communicator and/or session id.
    pub request_pgcid: bool,
    /// Request an event if a member terminates without first leaving.
    pub notify_on_termination: bool,
    /// Whether a process terminating *before joining* the group is an
    /// error (fails the construct) or is silently dropped.
    pub error_on_early_termination: bool,
}

impl Default for GroupDirectives {
    fn default() -> Self {
        Self {
            leader: None,
            timeout: Some(Duration::from_secs(30)),
            request_pgcid: true,
            notify_on_termination: true,
            error_on_early_termination: true,
        }
    }
}

impl GroupDirectives {
    /// Directives as the MPI Sessions prototype issues them: PGCID
    /// requested, termination is an error.
    pub fn for_mpi() -> Self {
        Self::default()
    }

    /// No PGCID (pure membership agreement, e.g. fences).
    pub fn without_pgcid(mut self) -> Self {
        self.request_pgcid = false;
        self
    }

    /// Override the timeout.
    pub fn with_timeout(mut self, t: Option<Duration>) -> Self {
        self.timeout = t;
        self
    }

    /// Designate a leader.
    pub fn with_leader(mut self, leader: ProcId) -> Self {
        self.leader = Some(leader);
        self
    }
}

/// What happened to one invitee of an asynchronous (invite/join) construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InviteOutcome {
    /// Accepted and is part of the final membership.
    Accepted,
    /// Explicitly declined the invitation.
    Declined,
    /// Died before answering.
    Dead,
    /// Never answered within the initiator's deadline. The group is still
    /// finalized without them; a straggler reply arriving later is ignored.
    TimedOut,
}

impl InviteOutcome {
    /// Stable lowercase label (used in observability events).
    pub fn as_str(&self) -> &'static str {
        match self {
            InviteOutcome::Accepted => "accepted",
            InviteOutcome::Declined => "declined",
            InviteOutcome::Dead => "dead",
            InviteOutcome::TimedOut => "timed_out",
        }
    }
}

/// Detailed result of an invite-based construct: the finalized group plus
/// the per-invitee resolution, in invitation order.
#[derive(Debug, Clone)]
pub struct InviteReport {
    /// The finalized group (initiator plus accepting invitees).
    pub group: GroupResult,
    /// One entry per invitee, in the order they were invited.
    pub outcomes: Vec<(ProcId, InviteOutcome)>,
}

impl InviteReport {
    /// Resolution for one invitee, if they were invited.
    pub fn outcome_of(&self, proc: &ProcId) -> Option<InviteOutcome> {
        self.outcomes.iter().find(|(p, _)| p == proc).map(|(_, o)| *o)
    }

    /// True when any invitee ran out the clock.
    pub fn any_timed_out(&self) -> bool {
        self.outcomes.iter().any(|(_, o)| *o == InviteOutcome::TimedOut)
    }
}

/// Outcome of a successful group construct.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// Final, rank-ordered membership (may be smaller than requested when
    /// invitees declined or died and policy allowed it).
    pub members: Vec<ProcId>,
    /// The PGCID, when one was requested. Guaranteed non-zero.
    pub pgcid: Option<u64>,
}

/// A live PMIx group as seen by one member.
///
/// Dropping the handle does *not* release the group; only
/// [`crate::PmixClient::group_destruct`] does, matching PMIx semantics where
/// the group outlives any one handle until `PMIx_Group_destruct` or the
/// last member leaves.
#[derive(Debug, Clone)]
pub struct PmixGroup {
    name: String,
    members: Vec<ProcId>,
    pgcid: Option<u64>,
}

impl PmixGroup {
    pub(crate) fn new(name: String, result: &GroupResult) -> Self {
        Self { name, members: result.members.clone(), pgcid: result.pgcid }
    }

    /// The group's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rank-ordered membership.
    pub fn members(&self) -> &[ProcId] {
        &self.members
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The PGCID, if one was assigned.
    pub fn pgcid(&self) -> Option<u64> {
        self.pgcid
    }

    /// Position of `proc` in the membership, if present.
    pub fn rank_of(&self, proc: &ProcId) -> Option<usize> {
        self.members.iter().position(|m| m == proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_directives_match_mpi_usage() {
        let d = GroupDirectives::for_mpi();
        assert!(d.request_pgcid);
        assert!(d.error_on_early_termination);
        assert!(d.timeout.is_some());
    }

    #[test]
    fn directive_builders() {
        let lead = ProcId::new("j", 0);
        let d = GroupDirectives::default()
            .without_pgcid()
            .with_timeout(None)
            .with_leader(lead.clone());
        assert!(!d.request_pgcid);
        assert_eq!(d.timeout, None);
        assert_eq!(d.leader, Some(lead));
    }

    #[test]
    fn group_handle_accessors() {
        let res = GroupResult {
            members: vec![ProcId::new("j", 0), ProcId::new("j", 4)],
            pgcid: Some(99),
        };
        let g = PmixGroup::new("g".into(), &res);
        assert_eq!(g.name(), "g");
        assert_eq!(g.size(), 2);
        assert_eq!(g.pgcid(), Some(99));
        assert_eq!(g.rank_of(&ProcId::new("j", 4)), Some(1));
        assert_eq!(g.rank_of(&ProcId::new("j", 1)), None);
    }
}
