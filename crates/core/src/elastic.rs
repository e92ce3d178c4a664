//! Elastic sessions: pset churn, versioned groups, and fault-aware
//! communicator rebuild.
//!
//! The runtime's pset registry is **versioned**: every definition,
//! membership change, and deletion bumps a global epoch and is broadcast
//! through the PMIx event subsystem (with replay to late subscribers).
//! This module is the application-facing rim of that machinery:
//!
//! * [`Session::watch_psets`] — subscribe to pset changes as decoded
//!   [`PsetUpdate`]s;
//! * [`Session::group_from_pset_at`] — resolve a pset *at a pinned epoch*,
//!   failing with a typed [`ErrClass::Stale`] error when the registry has
//!   moved on (torn-read detection);
//! * [`ElasticComm`] — the rebuild loop: on every membership change (a
//!   grow, a graceful retirement, or a failure-driven shrink) derive a
//!   fresh group from the surviving membership, build a replacement
//!   communicator with `MPI_Comm_create_from_group`, and explicitly
//!   invalidate the PML handshake cache for departed peers so a later
//!   incarnation on the same endpoint is never trusted with a stale
//!   `CidAdvert`. It is also the only fault-recovery primitive: a repair
//!   is [`ElasticComm::establish`] on the [`Session::track_faults`] pset,
//!   and following later faults is [`ElasticComm::next_rebuild`].
//!
//! The protocol assumption is the one the driver examples/benches uphold:
//! churn is sequenced, i.e. the controller waits until every member of
//! epoch `E` has rebuilt before initiating epoch `E+1`. Within that
//! regime every member observes the same ordered stream of epochs, so the
//! `rebuild:{pset}@{epoch}` string tags line up and each
//! `create_from_group` is a well-formed collective over exactly the
//! members of that epoch.

use crate::comm::Comm;
use crate::error::{ErrClass, MpiError, Result};
use crate::ft::Watcher;
use crate::group::{MpiGroup, ProcRef};
use crate::instance::MpiProcess;
use crate::session::Session;
use pmix::value::keys;
use pmix::{Event, EventCode, ProcId};
use std::sync::Arc;
use std::time::Duration;

/// One decoded pset change, as observed through a [`PsetWatcher`].
#[derive(Debug, Clone)]
pub struct PsetUpdate {
    /// Name of the pset that changed.
    pub pset: String,
    /// Global registry epoch at which the change took effect.
    pub epoch: u64,
    /// What happened.
    pub kind: PsetUpdateKind,
    /// Membership after the change (empty for deletions).
    pub members: Vec<ProcId>,
    /// Causal context of the runtime-side `pset.update` span, so rebuild
    /// spans can link back across the event hop.
    pub ctx: Option<obs::TraceContext>,
}

/// The kind of a [`PsetUpdate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsetUpdateKind {
    /// The pset was defined (also synthesized on replay for subscribers
    /// that arrive after the definition).
    Defined,
    /// The membership changed (grow, retire, or failure-driven shrink).
    Membership,
    /// The pset was deleted.
    Deleted,
}

/// A subscription to pset-change events, scoped to a session
/// ([`Session::watch_psets`]).
pub type PsetWatcher = Watcher<PsetUpdate>;

fn decode(ev: Event) -> Option<PsetUpdate> {
    let kind = match ev.code {
        EventCode::PsetDefined => PsetUpdateKind::Defined,
        EventCode::PsetMembership => PsetUpdateKind::Membership,
        EventCode::PsetDeleted => PsetUpdateKind::Deleted,
        _ => return None,
    };
    Some(PsetUpdate {
        pset: ev.get(keys::PSET_NAME)?.as_str()?.to_owned(),
        epoch: ev.get(keys::PSET_EPOCH)?.as_u64()?,
        members: ev
            .get(keys::PSET_MEMBERS)
            .and_then(|v| v.as_proc_list())
            .map(|m| m.to_vec())
            .unwrap_or_default(),
        kind,
        ctx: ev.ctx,
    })
}

impl Session {
    /// Subscribe this session to pset-change events. The subscription
    /// replays the registry's current state (one synthesized `Defined` per
    /// live pset, in epoch order) before live events, so a late subscriber
    /// starts from a consistent snapshot.
    pub fn watch_psets(&self) -> Result<PsetWatcher> {
        self.check_live()?;
        let stream = self.process().pmix().watch_psets();
        Ok(Watcher::new(move |wait| stream.next_timeout(wait), decode))
    }

    /// `MPI_Group_from_session_pset` pinned at `epoch`: resolves the pset
    /// membership only if the registry is still exactly at that version.
    /// A mismatch returns an [`ErrClass::Stale`] error naming both epochs,
    /// so callers distinguish "the world moved on" from "no such pset".
    pub fn group_from_pset_at(&self, name: &str, epoch: u64) -> Result<MpiGroup> {
        self.check_live()?;
        let registry = self.process().universe().registry();
        let (current, members) = registry.pset_members_versioned(name).map_err(|_| {
            MpiError::new(ErrClass::Arg, format!("unknown process set '{name}'"))
        })?;
        if current != epoch {
            return Err(MpiError::new(
                ErrClass::Stale,
                format!("pset '{name}' is at epoch {current}, caller pinned epoch {epoch}"),
            ));
        }
        bind_members(self.process(), &members)
    }
}

/// `members`, located in the registry and bound to `process` as a group.
fn bind_members(process: &Arc<MpiProcess>, members: &[ProcId]) -> Result<MpiGroup> {
    let registry = process.universe().registry();
    let refs: Vec<ProcRef> = members
        .iter()
        .map(|proc| {
            let entry = registry.locate(proc)?;
            Ok(ProcRef { proc: proc.clone(), endpoint: entry.endpoint })
        })
        .collect::<Result<_>>()?;
    Ok(MpiGroup::from_members(refs).bind(process.clone()))
}

/// What [`ElasticComm::next_rebuild`] did with the change it observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rebuild {
    /// A replacement communicator was built at this epoch; the previous
    /// one was locally retired.
    Rebuilt {
        /// The epoch the new communicator corresponds to.
        epoch: u64,
    },
    /// The calling process is no longer a member of the pset: the old
    /// communicator was locally retired and no new one exists.
    Retired {
        /// The epoch at which this process left the membership.
        epoch: u64,
    },
    /// The pset itself was deleted.
    Deleted {
        /// The deletion epoch.
        epoch: u64,
    },
}

/// A communicator that tracks one pset across churn.
///
/// [`ElasticComm::establish`] subscribes to pset events and builds the
/// initial communicator from the first observed membership containing the
/// caller; [`ElasticComm::next_rebuild`] consumes one change at a time,
/// replacing the communicator (grow/shrink) or retiring it (the caller
/// departed, or the pset was deleted).
///
/// Fault recovery is the same loop over the [`Session::track_faults`]
/// pset. `establish` after a fault starts from the replayed, settled
/// membership; a corpse the prune has not yet removed fails the eager
/// fan-in `ProcFailed`, and the loop re-enters onto the prune event.
/// Every rebuild constructs eagerly: its fan-in is where the members
/// agree on the membership.
pub struct ElasticComm {
    session: Session,
    pset: String,
    watcher: PsetWatcher,
    comm: Option<Comm>,
    epoch: u64,
    members: Vec<ProcId>,
}

impl ElasticComm {
    /// Subscribe and build the initial communicator; waits up to `timeout`
    /// for an event naming `pset` with the caller in its membership.
    pub fn establish(session: &Session, pset: &str, timeout: Duration) -> Result<ElasticComm> {
        let watcher = session.watch_psets()?;
        let mut ec = ElasticComm {
            session: session.clone(),
            pset: pset.to_owned(),
            watcher,
            comm: None,
            epoch: 0,
            members: Vec::new(),
        };
        match ec.next_rebuild(timeout)? {
            Rebuild::Rebuilt { .. } => Ok(ec),
            Rebuild::Retired { epoch } | Rebuild::Deleted { epoch } => Err(MpiError::new(
                ErrClass::Group,
                format!("caller is not a member of pset '{pset}' at epoch {epoch}"),
            )),
        }
    }

    /// The pset this communicator tracks.
    pub fn pset(&self) -> &str {
        &self.pset
    }

    /// The epoch the current communicator was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current communicator, if the caller is still a member.
    pub fn comm(&self) -> Option<&Comm> {
        self.comm.as_ref()
    }

    /// Wait up to `timeout` for the next change to this pset and apply it.
    ///
    /// On a membership change containing the caller: locally retire the
    /// old communicator (counting any unexpected messages still queued on
    /// it — traffic addressed to the stale epoch), invalidate the PML
    /// handshake cache for every departed peer, and build the replacement
    /// via `MPI_Comm_create_from_group` tagged `rebuild:{pset}@{epoch}` —
    /// a collective over exactly the members of that epoch.
    ///
    /// A fault racing the rebuild is survived, not surfaced: if a member
    /// of the pinned epoch dies after the epoch is pinned but before the
    /// `create_from_group` fan-in completes, the fan-in fails *typed* on
    /// every survivor (the PMIx servers detect the dead member at their
    /// own first arrival — it never stalls), and this loop re-enters to
    /// consume the death's own membership event and rebuild at the newer
    /// epoch. A fan-in that times out instead (e.g. a partition straddling
    /// the rebuild) is retried at the same epoch while the caller's budget
    /// lasts. Only a non-transient error (or the budget expiring) returns
    /// `Err`.
    pub fn next_rebuild(&mut self, timeout: Duration) -> Result<Rebuild> {
        let deadline = std::time::Instant::now() + timeout;
        let mut stale_unexpected = 0u64;
        'events: loop {
            let update = loop {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                let u = self.watcher.next_timeout(left).ok_or_else(|| {
                    MpiError::new(
                        ErrClass::Timeout,
                        format!("no change to pset '{}' within {timeout:?}", self.pset),
                    )
                })?;
                if u.pset == self.pset {
                    break u;
                }
            };
            let process = self.session.process().clone();
            let obs = process.obs();
            let p = process.metrics().key;
            let me = process.proc().clone();

            // Retire the old communicator first, whatever happens next: any
            // message still unexpected-queued on it was addressed to a stale
            // epoch and must never be delivered to the rebuilt communicator.
            stale_unexpected += self.retire_current(&update, &obs, p);

            match update.kind {
                PsetUpdateKind::Deleted => {
                    self.epoch = update.epoch;
                    self.members.clear();
                    return Ok(Rebuild::Deleted { epoch: update.epoch });
                }
                _ if !update.members.contains(&me) => {
                    self.epoch = update.epoch;
                    self.members = update.members;
                    return Ok(Rebuild::Retired { epoch: self.epoch });
                }
                _ => {}
            }
            let comm = loop {
                let mut span = obs.span(
                    p,
                    "session.rebuild",
                    format_args!("{}@{}", self.pset, update.epoch),
                );
                if let Some(ctx) = update.ctx {
                    span.link(ctx);
                }
                span.add_work(update.members.len() as u64);
                let _entered = span.enter();
                let group = self
                    .session
                    .group_from_pset_at(&self.pset, update.epoch)
                    .or_else(|e| {
                        // The registry may legitimately be *ahead* of this
                        // event (the driver already issued the next churn);
                        // fall back to the membership the event itself
                        // carries — that is the epoch-consistent snapshot.
                        if e.class != ErrClass::Stale {
                            return Err(e);
                        }
                        bind_members(&process, &update.members)
                    })?;
                match Comm::create_from_group(
                    &group,
                    &format!("rebuild:{}@{}", self.pset, update.epoch),
                ) {
                    Ok(c) => break c,
                    Err(e)
                        if matches!(
                            e.class,
                            ErrClass::ProcFailed | ErrClass::ProcTerminated
                        ) =>
                    {
                        // A second fault landed mid-rebuild. The failure
                        // bridge marks the death before it shrinks psets,
                        // so this pset's next membership event is already
                        // queued (or imminent) on our watcher: consume it
                        // and rebuild at the newer epoch.
                        obs.counter(p, "session", "rebuild_reentered").inc();
                        obs.event(
                            p,
                            "session",
                            "rebuild.reenter",
                            vec![
                                ("pset", self.pset.as_str().into()),
                                ("epoch", update.epoch.into()),
                                ("error", e.to_string().into()),
                            ],
                        );
                        continue 'events;
                    }
                    Err(e)
                        if e.class == ErrClass::Timeout
                            && std::time::Instant::now() < deadline =>
                    {
                        // Transient: the collective aborted symmetrically
                        // on every participant, so a retry at the same
                        // epoch is well-formed. Keep trying while the
                        // caller's budget lasts.
                        obs.counter(p, "session", "rebuild_retries").inc();
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            };
            let pgcid = comm.excid().map(|e| e.pgcid).unwrap_or(0);
            self.comm = Some(comm);
            self.epoch = update.epoch;
            self.members = update.members;
            obs.counter(p, "session", "rebuilds").inc();
            obs.event(
                p,
                "session",
                "session.rebuild",
                vec![
                    ("pset", self.pset.as_str().into()),
                    ("epoch", self.epoch.into()),
                    ("pgcid", pgcid.into()),
                    ("stale_unexpected", stale_unexpected.into()),
                ],
            );
            return Ok(Rebuild::Rebuilt { epoch: self.epoch });
        }
    }

    /// Locally retire the current communicator ahead of `update` taking
    /// effect: count stale unexpected messages, invalidate departed peers
    /// in the handshake cache, release the route. Returns the stale count.
    fn retire_current(
        &mut self,
        update: &PsetUpdate,
        obs: &std::sync::Arc<obs::Registry>,
        p: obs::ProcKey,
    ) -> u64 {
        let Some(old) = self.comm.take() else { return 0 };
        let stale_unexpected = old.unexpected_queued() as u64;
        let mut departed = 0u64;
        for member in old.group().iter() {
            if !update.members.contains(&member.proc)
                && old.process().pml().invalidate_peer(member.endpoint)
            {
                departed += 1;
            }
        }
        old.abandon();
        obs.event(
            p,
            "session",
            "elastic.retire",
            vec![
                ("pset", self.pset.as_str().into()),
                ("epoch", update.epoch.into()),
                ("stale_unexpected", stale_unexpected.into()),
                ("departed_invalidated", departed.into()),
            ],
        );
        stale_unexpected
    }
}

impl Drop for ElasticComm {
    fn drop(&mut self) {
        if let Some(comm) = self.comm.take() {
            comm.abandon();
        }
    }
}
