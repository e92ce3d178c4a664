//! Point-to-point requests: the slot the PML completes and its handle.

use super::{drive, Polled, Waitable};
use crate::error::{ErrClass, MpiError, Result};
use crate::pml::Pml;
use crate::status::Status;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// What kind of operation a request tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A send.
    Send,
    /// A receive.
    Recv,
}

struct ReqState {
    done: bool,
    err: Option<MpiError>,
    status: Option<Status>,
    data: Option<Bytes>,
    /// The one endpoint whose process must act for this request to ever
    /// complete (a named-source receive's sender, a rendezvous send's
    /// destination). Every wait consults it to fail fast when that peer is
    /// dead instead of waiting forever or burning its timeout budget.
    waiting_on: Option<simnet::EndpointId>,
}

/// Shared request core (engine side).
pub struct ReqInner {
    kind: ReqKind,
    state: Mutex<ReqState>,
}

impl ReqInner {
    /// New incomplete request.
    pub fn new(kind: ReqKind) -> Arc<Self> {
        Arc::new(Self {
            kind,
            state: Mutex::new(ReqState {
                done: false,
                err: None,
                status: None,
                data: None,
                waiting_on: None,
            }),
        })
    }

    /// Mark a send complete.
    pub fn complete_send(&self, len: usize) {
        let mut st = self.state.lock();
        st.status = Some(Status { source: -1, tag: -1, len });
        st.done = true;
    }

    /// Mark a receive complete with its payload.
    pub fn complete_recv(&self, status: Status, data: Bytes) {
        let mut st = self.state.lock();
        st.status = Some(status);
        st.data = Some(data);
        st.done = true;
    }

    /// Record match metadata before the payload arrives (rendezvous).
    pub fn set_status(&self, status: Status) {
        self.state.lock().status = Some(status);
    }

    /// Snapshot the status (may be pre-completion for rendezvous).
    pub fn status_snapshot(&self) -> Option<Status> {
        self.state.lock().status
    }

    /// Fail the request.
    pub fn fail(&self, err: MpiError) {
        let mut st = self.state.lock();
        st.err = Some(err);
        st.done = true;
    }

    /// Record the endpoint this request's completion depends on (set by
    /// the PML when the dependency is known: a named-source receive, a
    /// rendezvous send awaiting its CTS).
    pub fn set_waiting_on(&self, ep: simnet::EndpointId) {
        self.state.lock().waiting_on = Some(ep);
    }

    /// Completion check: the status once complete, `None` while pending,
    /// the request's error (sticky) once failed.
    fn poll_status(&self) -> Result<Option<Status>> {
        let st = self.state.lock();
        match &st.err {
            Some(e) => Err(e.clone()),
            None if !st.done => Ok(None),
            None => st
                .status
                .map(Some)
                .ok_or_else(|| MpiError::intern("completed request without status")),
        }
    }

    /// Claim a completed receive's payload.
    fn take_data(&self) -> Result<Bytes> {
        self.state.lock().data.take().ok_or_else(|| {
            MpiError::new(ErrClass::Arg, "payload wait on a request with no payload (send?)")
        })
    }

    /// Whether the request has completed (engine-side check).
    pub fn is_done(&self) -> bool {
        self.state.lock().done
    }
}

/// A user-facing request handle bound to its process's progress engine.
pub struct Request {
    inner: Arc<ReqInner>,
    pml: Arc<Pml>,
}

impl Request {
    /// Wrap an engine request.
    pub fn new(inner: Arc<ReqInner>, pml: Arc<Pml>) -> Self {
        Self { inner, pml }
    }

    /// `MPI_Test`: progress once, then check completion.
    pub fn test(&mut self) -> Result<bool> {
        self.pml.progress(None);
        Ok(self.inner.poll_status()?.is_some())
    }

    /// `MPI_Wait`: [`Request::wait_timeout`] with no budget. Returns the
    /// status; fails typed [`ErrClass::ProcTerminated`] instead of waiting
    /// forever once the one peer the request depends on is dead.
    pub fn wait(mut self) -> Result<Status> {
        self.wait_timeout(Duration::MAX)
    }

    /// `MPI_Wait` with a logical deadline: progress until complete or
    /// until `budget` expires in logical time (wall budget elapsed AND
    /// fabric quiesced, [`pmix::LogicalDeadline`]). Expiry surfaces as an
    /// [`ErrClass::Timeout`] error naming the request kind; the request
    /// stays live and a later `test`/`wait` can still claim it.
    /// The wait also fails fast — typed [`ErrClass::ProcTerminated`], well
    /// before the budget expires — when the one peer this request depends
    /// on ([`ReqInner::set_waiting_on`]) is already dead and the fabric is
    /// quiet: nothing that could still complete the request is in flight,
    /// so burning the rest of the budget would only delay the verdict.
    pub fn wait_timeout(&mut self, budget: Duration) -> Result<Status> {
        drive(self, budget)
    }

    /// [`Request::wait_timeout`] for receives: bounded wait returning the
    /// payload bytes and status. Same typed verdicts as `wait_timeout` —
    /// [`ErrClass::Timeout`] on budget expiry (the request stays live and
    /// can be retried), fast [`ErrClass::ProcTerminated`] when the one
    /// peer the receive depends on is dead and the fabric is quiet. This
    /// is the primitive fault-aware application loops build on: every
    /// blocking point has a bounded, typed exit instead of an unbounded
    /// park on a message that can never arrive.
    pub fn wait_data_timeout(&mut self, budget: Duration) -> Result<(Bytes, Status)> {
        let status = self.wait_timeout(budget)?;
        Ok((self.inner.take_data()?, status))
    }

    /// `MPI_Wait` for receives, returning the payload bytes and status.
    pub fn wait_data(mut self) -> Result<(Bytes, Status)> {
        self.wait_data_timeout(Duration::MAX)
    }

    /// Wait for all requests (`MPI_Waitall`): [`Request::wait`] on each, in
    /// issue order — which cannot livelock, since every park completes
    /// whichever requests its messages answer. Every request is driven to
    /// terminal; the error returned is the first by issue index.
    pub fn wait_all(reqs: Vec<Request>) -> Result<Vec<Status>> {
        let results: Vec<Result<Status>> = reqs.into_iter().map(Request::wait).collect();
        results.into_iter().collect()
    }

    /// Whether the request has already completed (no progress attempt).
    pub fn is_complete(&self) -> bool {
        self.inner.is_done()
    }

    /// Engine-side handle.
    pub fn inner(&self) -> &Arc<ReqInner> {
        &self.inner
    }
}

impl Waitable for Request {
    type Output = Status;

    fn fabric(&self) -> simnet::Fabric {
        self.pml.fabric()
    }

    fn poll(&mut self) -> Polled<Status> {
        self.inner.poll_status().transpose().map_or(Polled::Pending, Polled::Ready)
    }

    fn park(&mut self, limit: Duration) {
        self.pml.progress(Some(limit));
    }

    /// Dead and quiet: the endpoint is gone, and — read after that —
    /// nothing is in flight that it could have sent before dying.
    fn waiting_on(&self) -> Option<MpiError> {
        let ep = self.inner.state.lock().waiting_on?;
        let fabric = self.pml.fabric();
        (!fabric.is_alive(ep) && fabric.in_flight() == 0).then(|| {
            MpiError::new(
                ErrClass::ProcTerminated,
                format!(
                    "{:?} request waits on endpoint {ep:?}, whose process is dead \
                     and the fabric is quiet: it can never complete",
                    self.inner.kind
                ),
            )
        })
    }

    fn fail(&mut self, err: MpiError) {
        self.inner.fail(err);
    }

    fn timed_out(&self, budget: Duration) -> MpiError {
        MpiError::new(
            ErrClass::Timeout,
            format!("{:?} request timed out after {budget:?}", self.inner.kind),
        )
    }
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("kind", &self.inner.kind)
            .field("done", &self.inner.is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_send_sets_status() {
        let r = ReqInner::new(ReqKind::Send);
        assert_eq!(r.poll_status().unwrap(), None);
        r.complete_send(10);
        assert_eq!(r.poll_status().unwrap().unwrap().len, 10);
    }

    #[test]
    fn fail_surfaces_error() {
        let r = ReqInner::new(ReqKind::Recv);
        r.fail(MpiError::new(ErrClass::ProcFailed, "peer died"));
        assert_eq!(r.poll_status().unwrap_err().class, ErrClass::ProcFailed);
    }
}
