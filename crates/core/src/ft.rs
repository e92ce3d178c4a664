//! Fault-tolerance surface (paper §II-C).
//!
//! Sessions as fault-isolation domains rest on two capabilities this
//! module exposes:
//!
//! * **failure notification** — a session can subscribe to process-failure
//!   events (PMIx event forwarding) and learn which peers died;
//! * **re-initialization** — because `MPI_Session_init` is repeatable, an
//!   application can finalize everything after a failure and re-initialize
//!   MPI over the surviving processes ("roll forward ... and use whatever
//!   resources are available at the point of re-initialization").
//!
//! Repair without re-initialization rebuilds a communicator over the
//! survivors pset ([`Session::track_faults`]) with
//! [`crate::elastic::ElasticComm`], the one rebuild loop.
//!
//! The client/server isolation scenario (a client failure must not cascade
//!   into the server's internal session) is exercised by the
//! `client_server` example and the integration tests.

use crate::error::Result;
use crate::session::Session;
use pmix::{Event, EventCode, PmixUniverse, ProcId};
use std::sync::Arc;
use std::time::Duration;

/// A subscription that pulls raw events from one source, decodes each into
/// a `T` and skips those that decode to nothing (other namespaces, other
/// event codes). What the source replays on attach is the constructor's
/// contract — see [`Session::failure_notifier`], [`Session::watch_faults`]
/// and [`Session::watch_psets`].
pub struct Watcher<T> {
    /// Wait up to the given time for one raw event and decode it: `None` =
    /// the source stayed empty, `Some(None)` = an event was filtered out.
    pull: Box<dyn FnMut(Duration) -> Option<Option<T>> + Send>,
}

impl<T> Watcher<T> {
    pub(crate) fn new<R>(
        mut recv: impl FnMut(Duration) -> Option<R> + Send + 'static,
        mut decode: impl FnMut(R) -> Option<T> + Send + 'static,
    ) -> Self {
        Self { pull: Box::new(move |wait| recv(wait).map(&mut decode)) }
    }

    /// Poll for the next update, if any is queued.
    pub fn try_next(&mut self) -> Option<T> {
        self.next_timeout(Duration::ZERO)
    }

    /// Wait up to `timeout` for the next update.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<T> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if let Some(update) = (self.pull)(left)? {
                return Some(update);
            }
        }
    }
}

/// Peer-failure notifications forwarded by PMIx
/// ([`Session::failure_notifier`]): live events only.
pub type FailureNotifier = Watcher<ProcId>;

/// Faults of the session's job, rooted at the fabric's dead set
/// ([`Session::watch_faults`]): exactly-once, with replay.
pub type FaultWatcher = Watcher<ProcId>;

impl Session {
    /// Subscribe this session to process-failure events (PMIx event
    /// forwarding). **Live only**: a subscriber attaching after a death
    /// never hears about it.
    pub fn failure_notifier(&self) -> Result<FailureNotifier> {
        let stream = self
            .process()
            .pmix()
            .register_events(Some(vec![EventCode::ProcTerminated, EventCode::GroupMemberFailed]));
        Ok(Watcher::new(move |wait| stream.next_timeout(wait), |e: Event| e.source))
    }

    /// Subscribe to faults of this session's job, rooted at the fabric's
    /// dead set. Unlike [`Session::failure_notifier`] this has the same
    /// **exactly-once replay** contract as [`Session::watch_psets`]: deaths
    /// that happened before the subscription are replayed on attach (in
    /// endpoint-id order), deaths after it arrive live, and no death is
    /// ever reported twice. A subscriber attaching at any point — before
    /// the kill, after the kill but before the first lazy resolution, long
    /// after — converges on the same fault knowledge.
    pub fn watch_faults(&self) -> Result<FaultWatcher> {
        self.check_live()?;
        let process = self.process();
        let mut failures = process.universe().fabric().watch_failures();
        let universe: Arc<PmixUniverse> = process.universe().clone();
        let nspace = process.proc().nspace().to_owned();
        // Map a fabric death onto a process of this namespace. Server
        // endpoints are not registered as processes and deaths from other
        // jobs carry a different nspace; both filter out.
        Ok(Watcher::new(
            move |wait| failures.recv_timeout(wait),
            move |ev: simnet::FailureEvent| {
                let proc = universe.registry().find_by_endpoint(ev.endpoint)?;
                (proc.nspace() == nspace).then_some(proc)
            },
        ))
    }

    /// Opt this session's job into the queryable faults pset: defines (or
    /// returns) `mpi://survivors/{nspace}` — the job's world minus every
    /// process the runtime has observed dead, shrunk live by the failure
    /// bridge on each kill and by the launcher on each graceful retire.
    ///
    /// The pset is versioned under the registry epoch like any other, so
    /// it composes with [`Session::group_from_pset`] and
    /// [`Session::group_from_pset_at`] (epoch-pinned); a repair after a
    /// fault is [`crate::elastic::ElasticComm::establish`] on it. It is
    /// **opt-in** (not defined at
    /// launch) so jobs that never track faults keep their exact pset
    /// epoch sequence. Returns the pset name.
    pub fn track_faults(&self) -> Result<String> {
        self.check_live()?;
        let process = self.process();
        Ok(process.universe().track_faults(process.proc().nspace())?)
    }

    /// Build the set of *surviving* members of a pset: the pset membership
    /// minus processes the fabric has marked dead. This is what an
    /// application uses to re-initialize after a failure.
    pub fn surviving_group(&self, pset: &str) -> Result<crate::group::MpiGroup> {
        let group = self.group_from_pset(pset)?;
        let process = self.process().clone();
        let fabric = process.universe().fabric().clone();
        let members: Vec<crate::group::ProcRef> = group
            .iter()
            .filter(|m| fabric.is_alive(m.endpoint))
            .collect();
        Ok(crate::group::MpiGroup::from_members(members).bind(process))
    }
}
