//! Asynchronous (invite/join) group construction and group departure, plus
//! the control-plane wait the finalize rides: a [`LogicalDeadline`] over the
//! ctl condvar.

use super::pgcid::PgcidWaiter;
use super::{CtlState, GroupInfo, PmixServer};
use crate::error::{PmixError, Result};
use crate::event::{Event, EventCode};
use crate::group::{GroupDirectives, GroupResult, InviteOutcome, InviteReport};
use crate::types::ProcId;
use crate::wire::{membership_hash, ServerMsg};
use std::collections::HashMap;
use std::time::{Duration, Instant};

pub(super) struct InviteState {
    initiator: ProcId,
    invited: Vec<ProcId>,
    responses: HashMap<ProcId, bool>,
    request_pgcid: bool,
}

/// Poll slice for logical-deadline waits: short enough to notice fabric
/// quiescence promptly, long enough not to busy-spin.
const LOGICAL_POLL: Duration = Duration::from_millis(2);
/// Consecutive quiet polls (no fabric activity, nothing in flight) required
/// after the wall budget elapses before a wait is declared expired.
const LOGICAL_GRACE: u32 = 3;
/// Safety valve: even a never-quiescent fabric cannot stretch a wait past
/// this multiple of the caller's budget.
const LOGICAL_HARD_CAP: u32 = 20;

/// A deadline in *logical* time.
///
/// Wall-clock deadlines inside the deterministic simnet world are a
/// determinism hazard: a chaos delay rule can hold a reply in the delivery
/// pump past the wall deadline on one run and under it on the next, so the
/// same seed yields different invite outcomes (and different traces). A
/// logical deadline expires only once (a) the caller's wall budget has
/// elapsed AND (b) the fabric has quiesced — zero messages in flight and no
/// send/delivery activity — for `LOGICAL_GRACE` consecutive polls. A
/// scheduled-but-delayed reply keeps `in_flight` nonzero, so injected
/// delays defer expiry instead of flipping the outcome.
///
/// Public because every layer that offers a timed wait over the simulated
/// fabric needs the same discipline — the MPI core's
/// `SetupRequest::wait_timeout` reuses this type for its stall-diagnosis
/// expiry.
pub struct LogicalDeadline {
    fabric: simnet::Fabric,
    start: Instant,
    budget: Duration,
    hard_cap: Duration,
    last_activity: u64,
    quiet: u32,
}

impl LogicalDeadline {
    /// Start a deadline of `budget` wall time over `fabric`.
    pub fn new(fabric: simnet::Fabric, budget: Duration) -> Self {
        let last_activity = fabric.activity();
        Self {
            fabric,
            start: Instant::now(),
            budget,
            hard_cap: budget.saturating_mul(LOGICAL_HARD_CAP),
            last_activity,
            quiet: 0,
        }
    }

    /// One poll; true once the deadline has logically expired.
    pub fn expired(&mut self) -> bool {
        let elapsed = self.start.elapsed();
        if elapsed < self.budget {
            return false;
        }
        if elapsed >= self.hard_cap {
            return true;
        }
        let activity = self.fabric.activity();
        let quiet_now = activity == self.last_activity && self.fabric.in_flight() == 0;
        self.last_activity = activity;
        self.quiet = if quiet_now { self.quiet + 1 } else { 0 };
        self.quiet >= LOGICAL_GRACE
    }
}

impl PmixServer {
    /// Initiator side: send invitations. Returns immediately; call
    /// [`PmixServer::invite_wait`] to collect responses.
    pub fn invite(
        &self,
        initiator: &ProcId,
        name: &str,
        invited: &[ProcId],
        directives: &GroupDirectives,
    ) -> Result<()> {
        let _turn = simnet::turn();
        for target in invited {
            self.registry.locate(target)?;
        }
        {
            let mut st = self.ctl.lock();
            if st.invites.contains_key(name) {
                return Err(PmixError::Exists(name.to_owned()));
            }
            st.invites.insert(
                name.to_owned(),
                InviteState {
                    initiator: initiator.clone(),
                    invited: invited.to_vec(),
                    responses: HashMap::new(),
                    request_pgcid: directives.request_pgcid,
                },
            );
        }
        let event = Event::new(EventCode::GroupInvited, Some(initiator.clone()))
            .with("group", name);
        self.notify_procs(invited, &event);
        Ok(())
    }

    /// Invitee side: answer an invitation (routed to the initiator's server).
    pub fn join_reply(&self, name: &str, me: &ProcId, initiator: &ProcId, accept: bool) -> Result<()> {
        let _turn = simnet::turn();
        let entry = self.registry.locate(initiator)?;
        let msg = ServerMsg::InviteReply { group: name.to_owned(), from: me.clone(), accept };
        if entry.node == self.node {
            self.handle(msg);
        } else {
            let ep = self.registry.server_of(entry.node).ok_or(PmixError::Unreachable)?;
            self.sender.send(ep, msg.encode()).map_err(|_| PmixError::Unreachable)?;
        }
        Ok(())
    }

    /// Initiator side: wait for all invitees to respond (or die), then
    /// finalize the group. Decliners and dead invitees are dropped from the
    /// membership; the initiator is always a member.
    ///
    /// Collapsed view of [`PmixServer::invite_wait_report`]: an invitee that
    /// ran out the clock surfaces as `Err(Timeout)` here. Callers that need
    /// to distinguish declined / dead / timed-out invitees — or want the
    /// partial group despite a straggler — should use the report variant.
    pub fn invite_wait(&self, name: &str, timeout: Duration) -> Result<GroupResult> {
        let report = self.invite_wait_report(name, timeout)?;
        if report.any_timed_out() {
            // The collapsed API treats a straggler as failure: undo the
            // partial finalization the report path performed.
            let key = (name.to_owned(), membership_hash(&report.group.members));
            self.ctl.lock().groups.remove(&key);
            return Err(PmixError::Timeout);
        }
        Ok(report.group)
    }

    /// Initiator side: wait for the invitees of `name`, then finalize the
    /// group and report what happened to each invitee individually
    /// ([`InviteOutcome`]: accepted / declined / dead / timed out).
    ///
    /// Unlike [`PmixServer::invite_wait`], an unresponsive invitee does not
    /// fail the construct: at the deadline they are marked
    /// [`InviteOutcome::TimedOut`], dropped from the membership, and the
    /// group is finalized with everyone who did accept. The invitation
    /// record is consumed either way, so a straggler reply is ignored.
    pub fn invite_wait_report(&self, name: &str, timeout: Duration) -> Result<InviteReport> {
        // Resolved once every invitee has answered or died (or the invite
        // is unknown — reported by the `remove` below). On expiry the budget
        // is spent and the fabric quiescent — no reply can still be on its
        // way — so stragglers are classified as timed out.
        let _ = self.ctl_wait(timeout, |st| {
            let Some(inv) = st.invites.get(name) else { return Some(()) };
            let dead = self.dead.read();
            inv.invited
                .iter()
                .all(|p| inv.responses.contains_key(p) || dead.contains(p))
                .then_some(())
        });
        let inv = self
            .ctl
            .lock()
            .invites
            .remove(name)
            .ok_or_else(|| PmixError::NotFound(format!("invite {name}")))?;
        let outcomes: Vec<(ProcId, InviteOutcome)> = {
            let dead = self.dead.read();
            inv.invited
                .iter()
                .map(|p| {
                    let outcome = match inv.responses.get(p) {
                        Some(true) => InviteOutcome::Accepted,
                        Some(false) => InviteOutcome::Declined,
                        None if dead.contains(p) => InviteOutcome::Dead,
                        None => InviteOutcome::TimedOut,
                    };
                    (p.clone(), outcome)
                })
                .collect()
        };
        let mut members: Vec<ProcId> = outcomes
            .iter()
            .filter(|(_, o)| *o == InviteOutcome::Accepted)
            .map(|(p, _)| p.clone())
            .collect();
        members.push(inv.initiator.clone());
        members.sort();
        members.dedup();
        for (p, outcome) in &outcomes {
            self.metrics.obs.event(
                self.metrics.process,
                "pmix",
                "invite.resolved",
                vec![
                    ("group", name.into()),
                    ("proc", p.to_string().into()),
                    ("outcome", obs::AttrValue::name(outcome.as_str())),
                ],
            );
        }
        let pgcid = if inv.request_pgcid {
            // The RM fetch gets its own full budget: when invitees timed
            // out the original budget has already been spent, yet the
            // partial group still needs its PGCID.
            Some(self.invite_pgcid(name, timeout)?)
        } else {
            None
        };
        // Only the initiator holds a handle and only this server records
        // the group, so its PGCID is recycled only when the initiator is
        // the sole member. Otherwise the id leaks, which is safe.
        let servers = members
            .iter()
            .filter_map(|m| self.registry.locate(m).ok().map(|e| e.node))
            .collect();
        let info = GroupInfo {
            members: members.clone(),
            pgcid,
            notify_on_termination: true,
            servers,
            locals: self.locals_of(&members),
            released: Vec::new(),
        };
        self.ctl.lock().groups.insert((name.to_owned(), membership_hash(&members)), info);
        Ok(InviteReport { group: GroupResult { members, pgcid }, outcomes })
    }

    /// PGCID for the invite/join finalize path (outside any collective
    /// op): open a grant slot, request through
    /// [`PmixServer::acquire_pgcid_for`] like a collective would — pool,
    /// coalescer, `pgcid.request` span — and wait for the slot to fill. A
    /// grant landing after the wait gave up finds no slot and is repooled.
    fn invite_pgcid(&self, name: &str, timeout: Duration) -> Result<u64> {
        self.ctl.lock().invite_pgcids.insert(name.to_owned(), None);
        {
            // The RM request's handlers run before the wait below parks.
            let _turn = simnet::turn();
            self.acquire_pgcid_for(&PgcidWaiter::Invite(name.to_owned()), None);
        }
        let granted = self.ctl_wait(timeout, |st| match st.invite_pgcids.get(name) {
            Some(None) => None,
            // Filled, or withdrawn because no RM is reachable.
            _ => Some(st.invite_pgcids.remove(name).flatten().ok_or(PmixError::Unreachable)),
        });
        granted.unwrap_or_else(|| {
            self.ctl.lock().invite_pgcids.remove(name);
            Err(PmixError::Timeout)
        })
    }

    /// Wait on the control-plane condvar until `ready` yields a value or
    /// `timeout` expires *logically* ([`LogicalDeadline`]: a chaos-delayed
    /// reply defers expiry rather than racing a wall clock). Polls in
    /// short slices: a reply wakes the condvar immediately, an injected
    /// delay shows up as in-flight fabric traffic.
    fn ctl_wait<T>(
        &self,
        timeout: Duration,
        mut ready: impl FnMut(&mut CtlState) -> Option<T>,
    ) -> Option<T> {
        simnet::turn::catch_up();
        let mut deadline = LogicalDeadline::new(self.sender.fabric(), timeout);
        let mut st = self.ctl.lock();
        loop {
            if let Some(v) = ready(&mut st) {
                return Some(v);
            }
            if deadline.expired() {
                return None;
            }
            let _ = self.ctl_cv.wait_for(&mut st, LOGICAL_POLL);
        }
    }

    /// A member leaves a group: remaining members are notified
    /// asynchronously (paper §III-A: departure notifications).
    pub fn group_leave(&self, name: &str, me: &ProcId) -> Result<()> {
        let remaining = {
            let mut st = self.ctl.lock();
            let info = st
                .groups
                .iter_mut()
                .find(|((n, _), info)| n == name && info.members.contains(me))
                .map(|(_, info)| info)
                .ok_or_else(|| PmixError::NotFound(format!("group {name}")))?;
            info.members.retain(|m| m != me);
            info.members.clone()
        };
        let event =
            Event::new(EventCode::GroupMemberLeft, Some(me.clone())).with("group", name);
        self.notify_procs(&remaining, &event);
        Ok(())
    }

    /// An invitee's answer reached the initiator's server.
    pub(super) fn on_invite_reply(&self, group: String, from: ProcId, accept: bool) {
        let mut st = self.ctl.lock();
        if let Some(inv) = st.invites.get_mut(&group) {
            inv.responses.insert(from, accept);
        }
        drop(st);
        self.ctl_cv.notify_all();
    }
}
