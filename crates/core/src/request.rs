//! Request objects (`MPI_Request`): completion tracking for non-blocking
//! operations, plus the poll-hook mechanism that implements non-blocking
//! collectives (`MPI_Ibarrier`) as state machines driven by `test`/`wait`.
//!
//! # The setup engine (nonblocking session/comm construction)
//!
//! [`SetupRequest`] is the request type behind the `i`-variants of the
//! construction API (`Session::init_i`, `Session::igroup_from_pset`,
//! `Comm::icomm_create_from_group`, `Comm::idup`, `Comm::idup_via_group`).
//! A setup request is a **multi-stage state machine**: each stage is a
//! [`SetupStage`] whose `poll` either reports [`SetupStep::Pending`],
//! hands over to the next stage ([`SetupStep::Next`]), or finishes with
//! the constructed object ([`SetupStep::Done`]). Issuing the request runs
//! the first stage synchronously — that is what lets N concurrent
//! constructions *pipeline*: every request's PMIx fan-in (and therefore
//! its PGCID demand) is on the wire before the first `wait`, so the
//! per-server PGCID coalescer batches them into fewer `pgcid.request`
//! round trips than N blocking calls would pay.
//!
//! Progress is driven three ways, all equivalent:
//! * `test()` — one step, the caller's thread;
//! * `wait()` — steps until terminal and never sleeps after a step that
//!   made progress: `park` is called only after a poll answered
//!   `Pending`, only on the stage that answered it, and blocks on that
//!   stage's own wake source (a blocking variant is exactly
//!   `i`-variant + `wait`);
//! * [`ProgressEngine::progress`] — the per-process engine sweeps every
//!   registered in-flight request once (explicit `MPI_Progress` analog,
//!   what the test harness single-steps).
//!
//! **Cancellation is collective** (like the constructions themselves):
//! dropping an in-flight `SetupRequest` first drives it to a terminal
//! state and then runs the release action — e.g. a cancelled
//! `icomm_create_from_group` collectively frees the just-built
//! communicator, returning its local CID, PML route and PGCID-family
//! reference. Every rank of the construction must drop (or complete) the
//! same request; see DESIGN.md §12 for the full contract.
//!
//! # Quick start: issue → progress → wait
//!
//! The canonical life of a setup request, on a two-process simulated job:
//! issuing puts the first stage on the wire, `test` drives it one step at
//! a time, and `wait` claims the constructed object.
//!
//! ```
//! use mpi_sessions::{ErrHandler, Info, MpiError, Session, ThreadLevel};
//! use prrte::{JobSpec, Launcher};
//! use simnet::SimTestbed;
//!
//! let launcher = Launcher::new(SimTestbed::tiny(1, 2));
//! let results = launcher
//!     .spawn(JobSpec::new(2), |ctx| {
//!         // Issue: the first stage has already run when this returns.
//!         let mut req =
//!             Session::init_i(&ctx, ThreadLevel::Single, ErrHandler::Return, &Info::null());
//!         // Progress: step explicitly until the construction lands...
//!         while !req.test()? {}
//!         // ...and claim the built session (completes immediately here).
//!         let session = req.wait()?;
//!         session.finalize()?;
//!         Ok::<(), MpiError>(())
//!     })
//!     .join()
//!     .expect("job ran");
//! results.into_iter().for_each(|r| r.expect("rank succeeded"));
//! ```

use crate::error::{ErrClass, MpiError, Result};
use crate::instance::MpiProcess;
use crate::pml::{Pml, ResolveStatus};
use crate::status::Status;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// What kind of operation a request tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A send.
    Send,
    /// A receive.
    Recv,
    /// A non-blocking collective (driven by a poll hook).
    Coll,
}

/// Poll hook for collective requests: returns `Ok(true)` when the
/// collective has completed. Runs outside all PML locks.
pub type PollHook = Box<dyn FnMut() -> Result<bool> + Send>;

struct ReqState {
    done: bool,
    err: Option<MpiError>,
    status: Option<Status>,
    data: Option<Bytes>,
    hook: Option<PollHook>,
    /// The one endpoint whose process must act for this request to ever
    /// complete (a named-source receive's sender, a rendezvous send's
    /// destination). Fault-aware waits consult it to fail fast when that
    /// peer is already dead instead of burning their whole timeout budget.
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
                hook: None,
                waiting_on: None,
            }),
        })
    }

    /// New collective request driven by `hook`.
    pub fn with_hook(hook: PollHook) -> Arc<Self> {
        let r = Self::new(ReqKind::Coll);
        r.state.lock().hook = Some(hook);
        r
    }

    /// The request kind.
    pub fn kind(&self) -> ReqKind {
        self.kind
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

    /// The endpoint this request is known to be waiting on, if any.
    pub fn waiting_on(&self) -> Option<simnet::EndpointId> {
        self.state.lock().waiting_on
    }

    /// Completion check; runs the poll hook for collective requests.
    fn poll(&self) -> Result<bool> {
        let hook = {
            let mut st = self.state.lock();
            if st.done {
                return match &st.err {
                    Some(e) => Err(e.clone()),
                    None => Ok(true),
                };
            }
            st.hook.take()
        };
        match hook {
            None => Ok(false),
            Some(mut h) => {
                let res = h();
                let mut st = self.state.lock();
                match res {
                    Ok(true) => {
                        st.done = true;
                        // Collectives carry no match metadata.
                        if st.status.is_none() {
                            st.status = Some(Status { source: -1, tag: -1, len: 0 });
                        }
                        Ok(true)
                    }
                    Ok(false) => {
                        st.hook = Some(h);
                        Ok(false)
                    }
                    Err(e) => {
                        st.err = Some(e.clone());
                        st.done = true;
                        Err(e)
                    }
                }
            }
        }
    }

    /// [`ReqInner::poll`], claiming the status of a completed request.
    fn poll_status(&self) -> Result<Option<Status>> {
        if !self.poll()? {
            return Ok(None);
        }
        self.status_snapshot()
            .map(Some)
            .ok_or_else(|| MpiError::intern("completed request without status"))
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
        self.inner.poll()
    }

    /// `MPI_Wait`: progress until complete. Returns the status.
    pub fn wait(self) -> Result<Status> {
        loop {
            if let Some(status) = self.inner.poll_status()? {
                return Ok(status);
            }
            self.pml.progress(Some(Duration::from_millis(1)));
        }
    }

    /// `MPI_Wait` with a logical deadline: progress until complete or
    /// until `budget` expires in logical time (wall budget elapsed AND
    /// fabric quiesced, [`pmix::LogicalDeadline`]). Expiry surfaces as an
    /// [`ErrClass::Timeout`] error naming the request kind; the request
    /// stays live and a later `test`/`wait` can still claim it.
    /// The wait also fails fast — typed [`ErrClass::ProcTerminated`], well
    /// before the budget expires — when the one peer this request depends
    /// on ([`ReqInner::waiting_on`]) is already dead and the fabric is
    /// quiet: nothing that could still complete the request is in flight,
    /// so burning the rest of the budget would only delay the verdict.
    pub fn wait_timeout(&mut self, budget: Duration) -> Result<Status> {
        let mut deadline = pmix::LogicalDeadline::new(self.pml.fabric(), budget);
        loop {
            if let Some(status) = self.inner.poll_status()? {
                return Ok(status);
            }
            if let Some(ep) = self.inner.waiting_on() {
                let fabric = self.pml.fabric();
                if !fabric.is_alive(ep) && fabric.in_flight() == 0 {
                    // One final sweep: a completion the dead peer sent
                    // before dying may already sit in our mailbox, and a
                    // delivered message must always beat the verdict.
                    self.pml.progress(None);
                    if let Some(status) = self.inner.poll_status()? {
                        return Ok(status);
                    }
                    let err = MpiError::new(
                        ErrClass::ProcTerminated,
                        format!(
                            "{:?} request waits on endpoint {ep:?}, whose process is dead \
                             and the fabric is quiet: it can never complete",
                            self.inner.kind()
                        ),
                    );
                    self.inner.fail(err.clone());
                    return Err(err);
                }
            }
            if deadline.expired() {
                return Err(MpiError::new(
                    ErrClass::Timeout,
                    format!("{:?} request timed out after {budget:?}", self.inner.kind()),
                ));
            }
            self.pml.progress(Some(Duration::from_millis(1)));
        }
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
    pub fn wait_data(self) -> Result<(Bytes, Status)> {
        let inner = self.inner.clone();
        let status = self.wait()?;
        Ok((inner.take_data()?, status))
    }

    /// Wait for all requests (`MPI_Waitall`).
    ///
    /// Polls **round-robin** across the whole set. The obvious
    /// `for r in reqs { r.wait() }` is wrong for hook-driven (collective /
    /// setup) requests: their completion only advances when *their* hook
    /// is polled, so waiting in issue order livelocks when request 0 can
    /// only finish after a completion that request 1's hook must first
    /// observe. Completions arriving in any order now unblock the set.
    pub fn wait_all(reqs: Vec<Request>) -> Result<Vec<Status>> {
        let n = reqs.len();
        let mut out: Vec<Option<Status>> = vec![None; n];
        // First failure by *issue index* (deterministic regardless of the
        // completion interleaving); the remaining requests are still
        // drained to terminal so none is left un-progressed.
        let mut first_err: Option<(usize, MpiError)> = None;
        let mut pending: Vec<(usize, Request)> = reqs.into_iter().enumerate().collect();
        while !pending.is_empty() {
            let mut advanced = false;
            let mut i = 0;
            while i < pending.len() {
                let (idx, req) = &pending[i];
                let idx = *idx;
                match req.inner.poll_status() {
                    Ok(None) => {
                        i += 1;
                        continue;
                    }
                    Ok(done) => out[idx] = done,
                    Err(e) => {
                        if first_err.as_ref().map(|(j, _)| idx < *j).unwrap_or(true) {
                            first_err = Some((idx, e));
                        }
                    }
                }
                pending.swap_remove(i);
                advanced = true;
            }
            if !pending.is_empty() && !advanced {
                pending[0].1.pml.progress(Some(Duration::from_millis(1)));
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        Ok(out.into_iter().map(|s| s.expect("every request drained")).collect())
    }

    /// Whether the request has already completed (no progress attempt).
    pub fn is_complete(&self) -> bool {
        self.inner.state.lock().done
    }

    /// Engine-side handle (internal plumbing for collectives).
    pub fn inner(&self) -> &Arc<ReqInner> {
        &self.inner
    }
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("kind", &self.inner.kind())
            .field("done", &self.inner.state.lock().done)
            .finish()
    }
}

// ----------------------------------------------------------------------
// The setup engine
// ----------------------------------------------------------------------

/// Outcome of polling one stage of a [`SetupRequest`].
pub enum SetupStep<T> {
    /// The stage is waiting on an external completion; poll again.
    Pending,
    /// The stage finished; continue with the given next stage.
    Next(Box<dyn SetupStage<T>>),
    /// The whole construction finished with the built object.
    Done(T),
}

/// One stage of a setup request's state machine. A stage may do arbitrary
/// synchronous work in `poll` (stages wrapping an inherently collective
/// exchange, like CID consensus, run it to completion in one poll — see
/// DESIGN.md §12); a stage waiting on an asynchronous completion returns
/// [`SetupStep::Pending`] and names its real wake source in `park`. The
/// contract the blocking drivers enforce: `park` is called only after
/// `poll` answered `Pending`, and only on the stage that answered it — a
/// stage that hands over or finishes is never slept on.
pub trait SetupStage<T>: Send {
    /// Stage name (harness introspection and `req.progressed` telemetry).
    fn name(&self) -> &'static str;
    /// Attempt to advance the construction.
    fn poll(&mut self) -> Result<SetupStep<T>>;
    /// Block on whatever makes the next `poll` succeed, at most `limit`.
    /// There is no default: a timed nap is not a wake source.
    fn park(&mut self, limit: Duration);
    /// What the stage is currently parked on (the stall watchdog's
    /// diagnosis: a peer, an endpoint, a PMIx op). `None` means the stage
    /// has nothing more specific to say than its name.
    fn waiting_on(&self) -> Option<String> {
        None
    }
    /// The one *process* whose cooperation this stage's completion depends
    /// on, when the stage knows it (a lazy resolution's target peer).
    /// Fault-aware waits consult it to fail the request fast — typed —
    /// once that peer is known dead, instead of burning the timeout.
    fn waiting_on_proc(&self) -> Option<pmix::ProcId> {
        None
    }
}

/// Watchdog-visible wrapper around one lazy peer resolution (lazy init's
/// on-demand business-card fetch; see [`Pml::resolve_status`]). The send
/// that triggered the resolution is an ordinary point-to-point request,
/// invisible to the [`ProgressEngine`] — issuing this stage alongside it
/// puts the resolution under the stall watchdog, so a fetch stuck on an
/// unpublished or partitioned peer produces a `req.stalled` diagnosis
/// naming the peer instead of a silent hang.
pub(crate) struct LazyResolveStage {
    pub(crate) pml: Arc<Pml>,
    pub(crate) peer: pmix::ProcId,
}

impl SetupStage<()> for LazyResolveStage {
    fn name(&self) -> &'static str {
        "lazy_resolve"
    }
    fn poll(&mut self) -> Result<SetupStep<()>> {
        match self.pml.resolve_status(&self.peer) {
            ResolveStatus::InFlight => Ok(SetupStep::Pending),
            // `Idle` is terminal here too: the resolution state was pruned
            // (e.g. a PML reset) after this stage was issued.
            ResolveStatus::Resolved | ResolveStatus::Idle => Ok(SetupStep::Done(())),
            ResolveStatus::Failed(e) => Err(e),
        }
    }
    fn park(&mut self, limit: Duration) {
        self.pml.progress(Some(limit));
    }
    fn waiting_on(&self) -> Option<String> {
        Some(format!("business card of {}", self.peer))
    }
    fn waiting_on_proc(&self) -> Option<pmix::ProcId> {
        Some(self.peer.clone())
    }
}

struct FnStage<T> {
    name: &'static str,
    f: Option<Box<dyn FnOnce() -> Result<SetupStep<T>> + Send>>,
}

impl<T> SetupStage<T> for FnStage<T> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn poll(&mut self) -> Result<SetupStep<T>> {
        let f = self.f.take().ok_or_else(|| MpiError::intern("one-shot stage polled twice"))?;
        f()
    }
    /// Never reached: a one-shot stage never answers `Pending`.
    fn park(&mut self, _limit: Duration) {}
}

/// Build a stage from a closure that runs once: a local stage finishes,
/// hands over or fails in its first poll, it never reports `Pending`.
pub fn stage<T, F>(name: &'static str, f: F) -> Box<dyn SetupStage<T>>
where
    F: FnOnce() -> Result<SetupStep<T>> + Send + 'static,
    T: 'static,
{
    Box::new(FnStage { name, f: Some(Box::new(f)) })
}

enum SetupPhase<T> {
    Running(Box<dyn SetupStage<T>>),
    /// Completed; `None` once the value has been claimed by `wait`/`take`.
    Done(Option<T>),
    Failed(MpiError),
}

static SETUP_REQ_IDS: AtomicU64 = AtomicU64::new(1);

struct SetupCore<T> {
    process: Arc<MpiProcess>,
    /// Operation label (`icomm_create_from_group`, …) for telemetry.
    op: &'static str,
    /// Process-unique request id carried on every `req.*` event, so the
    /// `request-terminal` invariant can pair issuance with termination.
    id: u64,
    /// The operation's outer span (e.g. `comm.create_from_group`),
    /// entered for the duration of every step so stage-created child
    /// spans parent correctly; ended when the request turns terminal.
    span: Option<obs::Span>,
    phase: SetupPhase<T>,
    /// Stage polls performed (diagnostics; `req.progressed` fires only on
    /// stage *transitions*).
    steps: u64,
    /// Blocking wrappers run quiet: no `req.*` telemetry, no engine
    /// registration — their observable behavior stays byte-identical to
    /// the historical blocking implementations.
    quiet: bool,
    /// Release action for a cancelled (dropped-before-claimed) result.
    cancel: Option<Box<dyn FnOnce(T) + Send>>,
    /// Engine sweeps since the last stage transition (the watchdog's
    /// logical-tick counter; wait/test polls do not count — a spinning
    /// waiter is making *attempts*, only engine sweeps define ticks).
    ticks: u64,
    /// Whether the watchdog has flagged this request as stalled.
    stalled: bool,
}

impl<T> SetupCore<T> {
    fn is_terminal(&self) -> bool {
        !matches!(self.phase, SetupPhase::Running(_))
    }

    fn stage_name(&self) -> &'static str {
        match &self.phase {
            SetupPhase::Running(s) => s.name(),
            SetupPhase::Done(_) => "done",
            SetupPhase::Failed(_) => "failed",
        }
    }

    fn emit(&self, name: &str, extra: Vec<(String, obs::AttrValue)>) {
        if self.quiet {
            return;
        }
        let obs = self.process.obs();
        let p = self.process.proc().to_string();
        let mut attrs: Vec<(String, obs::AttrValue)> = vec![
            ("op".into(), self.op.into()),
            ("id".into(), self.id.into()),
        ];
        attrs.extend(extra);
        obs.event(&p, "req", name, attrs);
    }

    /// [`SetupCore::emit`] for the lifecycle events that are also tallied:
    /// `req.{what}` plus the `req/{what}` counter.
    fn emit_counted(&self, what: &str, extra: Vec<(String, obs::AttrValue)>) {
        if self.quiet {
            return;
        }
        self.emit(&format!("req.{what}"), extra);
        let p = self.process.proc().to_string();
        self.process.obs().counter(&p, "req", what).inc();
    }

    /// Run at most one stage poll (and so at most one stage transition).
    /// Returns whether the request advanced (stage transition or terminal)
    /// — the signal the stall watchdog keys on.
    fn step(&mut self) -> bool {
        let SetupPhase::Running(stage) = &mut self.phase else {
            return false;
        };
        self.steps += 1;
        let from = stage.name();
        let res = match &self.span {
            Some(span) => {
                let _entered = span.enter();
                stage.poll()
            }
            None => stage.poll(),
        };
        match res {
            Ok(SetupStep::Pending) => false,
            Ok(SetupStep::Next(next)) => {
                let to = next.name();
                self.phase = SetupPhase::Running(next);
                self.note_progress(from);
                self.emit(
                    "req.progressed",
                    vec![("from".into(), from.into()), ("to".into(), to.into())],
                );
                true
            }
            Ok(SetupStep::Done(v)) => {
                self.phase = SetupPhase::Done(Some(v));
                self.note_progress(from);
                if let Some(span) = self.span.take() {
                    span.end();
                }
                self.emit_counted("completed", vec![("stage".into(), from.into())]);
                true
            }
            Err(e) => {
                self.fail(e);
                true
            }
        }
    }

    /// The request advanced out of `from`: reset the watchdog tick counter
    /// and, if the watchdog had flagged a stall, emit the matching
    /// `req.unstalled` (heal notification). Runs on *every* driver —
    /// engine sweep, `wait`, `test`, cancellation drain — so a stall
    /// always clears the moment progress resumes, whoever caused it.
    fn note_progress(&mut self, from: &'static str) {
        self.ticks = 0;
        if self.stalled {
            self.stalled = false;
            self.emit("req.unstalled", vec![("stage".into(), from.into())]);
        }
    }

    /// One engine sweep passed without progress. Crossing `stall_after`
    /// consecutive profitless sweeps fires the watchdog: a single
    /// `req.stalled` event carrying the structured diagnosis (stage,
    /// what it is parked on, poll count, tick count).
    fn tick(&mut self, stall_after: u64) {
        self.ticks += 1;
        if self.stalled || self.ticks < stall_after {
            return;
        }
        self.stalled = true;
        let (stage, waiting) = match &self.phase {
            SetupPhase::Running(s) => (s.name(), self.waiting_desc()),
            _ => return,
        };
        self.emit(
            "req.stalled",
            vec![
                ("stage".into(), stage.into()),
                ("waiting_on".into(), waiting.into()),
                ("steps".into(), self.steps.into()),
                ("ticks".into(), self.ticks.into()),
            ],
        );
    }

    /// Terminally fail the request in its current stage: a stage poll's
    /// error, or a verdict from outside one (the fault-aware wait's dead
    /// peer). One telemetry shape for both, so the request-terminal
    /// invariant pairs every issuance with a termination.
    fn fail(&mut self, e: MpiError) {
        let from = self.stage_name();
        self.note_progress(from);
        self.emit_counted(
            "failed",
            vec![("stage".into(), from.into()), ("error".into(), e.to_string().into())],
        );
        self.phase = SetupPhase::Failed(e);
        if let Some(span) = self.span.take() {
            span.end();
        }
    }

    /// What the request is parked on right now (stage-provided detail,
    /// falling back to the stage name).
    fn waiting_desc(&self) -> String {
        match &self.phase {
            SetupPhase::Running(s) => {
                s.waiting_on().unwrap_or_else(|| format!("stage '{}'", s.name()))
            }
            SetupPhase::Done(_) => "nothing (done)".to_string(),
            SetupPhase::Failed(_) => "nothing (failed)".to_string(),
        }
    }

    /// One-line structured diagnosis (timeout errors, `Debug`, dumps).
    fn diagnosis(&self) -> String {
        format!(
            "op={} id={} stage={} steps={} ticks={} stalled={} parked_on={}",
            self.op,
            self.id,
            self.stage_name(),
            self.steps,
            self.ticks,
            self.stalled,
            self.waiting_desc(),
        )
    }

    fn snapshot(&self) -> ReqSnapshot {
        ReqSnapshot {
            op: self.op,
            id: self.id,
            stage: self.stage_name(),
            steps: self.steps,
            ticks: self.ticks,
            stalled: self.stalled,
            waiting_on: match &self.phase {
                SetupPhase::Running(s) => s.waiting_on(),
                _ => None,
            },
        }
    }
}

/// Point-in-time description of one in-flight setup request, as reported
/// by [`ProgressEngine::describe`] (the flight recorder's `requests`
/// section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqSnapshot {
    /// Operation label (`icomm_create_from_group`, …).
    pub op: &'static str,
    /// Process-unique request id.
    pub id: u64,
    /// Current stage name (`"done"` / `"failed"` once terminal).
    pub stage: &'static str,
    /// Stage polls performed.
    pub steps: u64,
    /// Engine sweeps since the last stage transition.
    pub ticks: u64,
    /// Whether the stall watchdog has flagged the request.
    pub stalled: bool,
    /// Stage-provided description of what the request is parked on.
    pub waiting_on: Option<String>,
}

/// Engine-side view of an in-flight setup request (type-erased so one
/// [`ProgressEngine`] drives requests of every construction type).
trait EngineStep: Send + Sync {
    /// Try to step once; `true` when the request is terminal. A request
    /// currently being driven by another thread is skipped (not stalled
    /// on: whoever holds the lock is already making progress). A step
    /// that makes no progress accrues one watchdog tick; crossing
    /// `stall_after` ticks fires the stall diagnosis.
    fn engine_step(&self, stall_after: u64) -> bool;
    fn is_terminal(&self) -> bool;
    /// Point-in-time description (`None` while another thread drives it).
    fn snapshot(&self) -> Option<ReqSnapshot>;
}

impl<T: Send + 'static> EngineStep for Mutex<SetupCore<T>> {
    fn engine_step(&self, stall_after: u64) -> bool {
        match self.try_lock() {
            Some(mut core) => {
                let advanced = core.step();
                if !advanced && !core.is_terminal() {
                    core.tick(stall_after);
                }
                core.is_terminal()
            }
            None => false,
        }
    }
    fn is_terminal(&self) -> bool {
        self.try_lock().is_some_and(|c| c.is_terminal())
    }
    fn snapshot(&self) -> Option<ReqSnapshot> {
        self.try_lock().map(|c| c.snapshot())
    }
}

/// Default stall threshold: engine sweeps a request may sit in one stage
/// without progress before the watchdog emits `req.stalled`. High enough
/// that ordinary in-flight exchanges (a fan-out crossing a slow fabric)
/// never trip it; tests shrink it through the `core.stall_ticks` cvar to
/// fire deterministically.
pub const DEFAULT_STALL_TICKS: u64 = 64;

/// The per-process progress engine for setup requests: every issued
/// `i`-variant registers here, and [`ProgressEngine::progress`] steps each
/// in-flight request once. This is the seam the interleaving test harness
/// single-steps, and the hook a future virtual-time backend replaces
/// (blocked = parked request, not parked thread).
///
/// The engine doubles as the **stall watchdog**: a sweep that fails to
/// advance a request accrues one logical tick against it, and a request
/// exceeding the stall threshold gets a structured `req.stalled` diagnosis
/// (cleared by `req.unstalled` the moment it moves again). Quiet blocking
/// wrappers never register, so the watchdog cannot fire on them.
pub struct ProgressEngine {
    slots: Mutex<Vec<Weak<dyn EngineStep>>>,
    stall_after: AtomicU64,
}

impl Default for ProgressEngine {
    fn default() -> Self {
        Self { slots: Mutex::new(Vec::new()), stall_after: AtomicU64::new(DEFAULT_STALL_TICKS) }
    }
}

impl ProgressEngine {
    fn register(&self, s: Weak<dyn EngineStep>) {
        self.slots.lock().push(s);
    }

    /// Current stall threshold (engine sweeps without progress).
    pub fn stall_ticks(&self) -> u64 {
        self.stall_after.load(Ordering::Relaxed)
    }

    /// Tune the stall threshold (clamped to ≥ 1). Exposed as the
    /// per-process `core.stall_ticks` cvar.
    pub fn set_stall_ticks(&self, ticks: u64) {
        self.stall_after.store(ticks.max(1), Ordering::Relaxed);
    }

    /// Describe every registered in-flight request (terminal and
    /// currently-driven ones excluded), sorted by request id — the flight
    /// recorder's per-process `requests` section.
    pub fn describe(&self) -> Vec<ReqSnapshot> {
        let snapshot: Vec<Weak<dyn EngineStep>> = self.slots.lock().clone();
        let mut out: Vec<ReqSnapshot> = snapshot
            .iter()
            .filter_map(|w| w.upgrade())
            .filter_map(|s| s.snapshot())
            .filter(|r| r.stage != "done" && r.stage != "failed")
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// Step every live in-flight request once; prune completed and dropped
    /// ones. Returns how many requests remain in flight.
    pub fn progress(&self) -> usize {
        let stall_after = self.stall_after.load(Ordering::Relaxed);
        // Snapshot the weak handles so stage polls (which may send, park
        // briefly, or re-enter the engine's owner) run outside our lock.
        let snapshot: Vec<Weak<dyn EngineStep>> = self.slots.lock().clone();
        for w in &snapshot {
            if let Some(s) = w.upgrade() {
                s.engine_step(stall_after);
            }
        }
        let mut live = 0;
        self.slots.lock().retain(|w| match w.upgrade() {
            Some(s) if !s.is_terminal() => {
                live += 1;
                true
            }
            _ => false,
        });
        live
    }

    /// Registered requests not yet terminal (without stepping them).
    pub fn in_flight(&self) -> usize {
        self.slots
            .lock()
            .iter()
            .filter(|w| w.upgrade().is_some_and(|s| !s.is_terminal()))
            .count()
    }
}

impl std::fmt::Debug for ProgressEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressEngine")
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// A multi-stage nonblocking construction request (see the module docs).
pub struct SetupRequest<T: Send + 'static> {
    core: Arc<Mutex<SetupCore<T>>>,
}

impl<T: Send + 'static> SetupRequest<T> {
    /// Issue a construction: emit `req.issued`, register with the owning
    /// process's [`ProgressEngine`], and run the first stage synchronously
    /// — so by the time `issue` returns, the request's opening exchange
    /// (e.g. the PMIx fan-in carrying its PGCID demand) is on the wire.
    pub(crate) fn issue(
        process: Arc<MpiProcess>,
        op: &'static str,
        span: Option<obs::Span>,
        quiet: bool,
        first: Box<dyn SetupStage<T>>,
        cancel: Option<Box<dyn FnOnce(T) + Send>>,
    ) -> SetupRequest<T> {
        let id = SETUP_REQ_IDS.fetch_add(1, Ordering::Relaxed);
        let core = Arc::new(Mutex::new(SetupCore {
            process,
            op,
            id,
            span,
            phase: SetupPhase::Running(first),
            steps: 0,
            quiet,
            cancel,
            ticks: 0,
            stalled: false,
        }));
        {
            let mut c = core.lock();
            c.emit_counted("issued", vec![("stage".into(), c.stage_name().into())]);
            if !quiet {
                let weak: Weak<Mutex<SetupCore<T>>> = Arc::downgrade(&core);
                c.process.progress_engine().register(weak);
            }
            c.step();
        }
        SetupRequest { core }
    }

    /// One engine step. `Ok(true)` once the construction has completed
    /// (the value is claimed by [`SetupRequest::wait`]); a failed
    /// construction surfaces its error on every call (sticky).
    pub fn test(&mut self) -> Result<bool> {
        let mut core = self.core.lock();
        core.step();
        match &core.phase {
            SetupPhase::Running(_) => Ok(false),
            SetupPhase::Done(_) => Ok(true),
            SetupPhase::Failed(e) => Err(e.clone()),
        }
    }

    /// Drive to completion and claim the constructed object.
    pub fn wait(self) -> Result<T> {
        Self::claimed(self.drive(Duration::MAX)?)
    }

    /// Drive to completion, giving up once `budget` expires in *logical*
    /// time ([`pmix::LogicalDeadline`]: the wall budget must elapse AND
    /// the fabric must quiesce, so injected delays defer expiry instead of
    /// flipping the outcome). On expiry the error carries the watchdog's
    /// structured stall diagnosis — current stage, what the request is
    /// parked on, poll and tick counts — instead of leaving the caller to
    /// guess why a wait hung. The request stays in flight: the caller can
    /// keep waiting, test, or drop it (collective cancellation as usual).
    pub fn wait_timeout(&mut self, budget: Duration) -> Result<T> {
        Self::claimed(self.drive(budget)?)
    }

    fn claimed(v: Option<T>) -> Result<T> {
        v.ok_or_else(|| MpiError::intern("setup result already claimed"))
    }

    /// The one blocking loop behind `wait` (an unbounded budget),
    /// `wait_timeout` and the drop drain: keep stepping while steps make
    /// progress — a stage that is ready to run is run, never slept on —
    /// and only when the current stage's poll answered `Pending` judge the
    /// verdicts and park on that stage's wake source. Yields the unclaimed
    /// result (`None` once claimed).
    fn drive(&self, budget: Duration) -> Result<Option<T>> {
        let fabric = self.core.lock().process.universe().fabric().clone();
        let mut deadline = pmix::LogicalDeadline::new(fabric, budget);
        loop {
            let mut core = self.core.lock();
            if core.step() {
                continue;
            }
            // No progress: the poll above ran (a delivered result beats
            // every verdict below) and the stage, if any, is `Pending`.
            let peer = match &mut core.phase {
                SetupPhase::Running(stage) => stage.waiting_on_proc(),
                SetupPhase::Done(v) => return Ok(v.take()),
                SetupPhase::Failed(e) => return Err(e.clone()),
            };
            // Fail fast on a stage parked on a peer that is already dead:
            // it can never complete, so the request turns terminal (typed)
            // rather than timing out — or hanging the collective drop.
            if let Some(peer) = peer.filter(|p| core.process.universe().proc_is_dead(p)) {
                let err = MpiError::new(
                    ErrClass::ProcTerminated,
                    format!("setup request waits on dead peer {peer}: {}", core.diagnosis()),
                );
                core.fail(err.clone());
                return Err(err);
            }
            if deadline.expired() {
                return Err(MpiError::new(
                    ErrClass::Timeout,
                    format!("setup request timed out: {}", core.diagnosis()),
                ));
            }
            if let SetupPhase::Running(stage) = &mut core.phase {
                stage.park(Duration::from_millis(1));
            }
        }
    }

    /// Whether the request is terminal (no progress attempt).
    pub fn is_complete(&self) -> bool {
        self.core.lock().is_terminal()
    }

    /// Whether the stall watchdog currently flags this request.
    pub fn is_stalled(&self) -> bool {
        self.core.lock().stalled
    }

    /// One-line structured diagnosis: op, id, stage, poll/tick counts and
    /// what the request is parked on (same rendering `wait_timeout`
    /// embeds in its timeout error).
    pub fn diagnosis(&self) -> String {
        self.core.lock().diagnosis()
    }

    /// Current stage name (`"done"` / `"failed"` once terminal).
    pub fn stage(&self) -> &'static str {
        self.core.lock().stage_name()
    }

    /// The operation label this request was issued under.
    pub fn op(&self) -> &'static str {
        self.core.lock().op
    }

    /// Process-unique request id (telemetry correlation).
    pub fn id(&self) -> u64 {
        self.core.lock().id
    }

    /// Stage polls performed so far (diagnostics).
    pub fn steps(&self) -> u64 {
        self.core.lock().steps
    }
}

impl<T: Send + 'static> Drop for SetupRequest<T> {
    fn drop(&mut self) {
        // Cancellation is *collective*: drive the construction to a
        // terminal state (the exchange completes on every rank — walking
        // away mid-collective would strand the peers), then release the
        // unclaimed result via the op's cancel action. A request whose
        // value was claimed by `wait` carries `Done(None)` and is a no-op
        // here; a failed request has nothing to release.
        if let Ok(Some(v)) = self.drive(Duration::MAX) {
            let mut core = self.core.lock();
            let cancel = core.cancel.take();
            core.emit_counted("cancelled", Vec::new());
            drop(core);
            if let Some(c) = cancel {
                c(v);
            }
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for SetupRequest<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.core.lock();
        f.debug_struct("SetupRequest")
            .field("op", &core.op)
            .field("id", &core.id)
            .field("stage", &core.stage_name())
            .field("steps", &core.steps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_send_sets_status() {
        let r = ReqInner::new(ReqKind::Send);
        assert!(!r.poll().unwrap());
        r.complete_send(10);
        assert!(r.poll().unwrap());
        assert_eq!(r.status_snapshot().unwrap().len, 10);
    }

    #[test]
    fn fail_surfaces_error() {
        let r = ReqInner::new(ReqKind::Recv);
        r.fail(MpiError::new(ErrClass::ProcFailed, "peer died"));
        assert_eq!(r.poll().unwrap_err().class, ErrClass::ProcFailed);
    }

    #[test]
    fn hook_drives_completion() {
        let mut count = 0;
        let r = ReqInner::with_hook(Box::new(move || {
            count += 1;
            Ok(count >= 3)
        }));
        assert!(!r.poll().unwrap());
        assert!(!r.poll().unwrap());
        assert!(r.poll().unwrap());
        // Once done, stays done without re-running the hook.
        assert!(r.poll().unwrap());
    }

    #[test]
    fn hook_error_is_sticky() {
        let r = ReqInner::with_hook(Box::new(|| Err(MpiError::intern("boom"))));
        assert!(r.poll().is_err());
        assert!(r.poll().is_err());
    }

    // The park contract of the blocking drivers, by count — no wall clock.

    /// Every `park` the drivers made, by the name of the stage parked.
    type Parks = Arc<Mutex<Vec<&'static str>>>;

    /// A stage that answers `Pending` `pending` times, then hands over to
    /// `next` (or finishes with 7). Its `park` only logs.
    struct Probe {
        name: &'static str,
        pending: usize,
        next: Option<Box<dyn SetupStage<u32>>>,
        parks: Parks,
        on: Option<pmix::ProcId>,
    }

    impl SetupStage<u32> for Probe {
        fn name(&self) -> &'static str {
            self.name
        }
        fn poll(&mut self) -> Result<SetupStep<u32>> {
            if self.pending > 0 {
                self.pending -= 1;
                return Ok(SetupStep::Pending);
            }
            Ok(self.next.take().map_or(SetupStep::Done(7), SetupStep::Next))
        }
        fn park(&mut self, _limit: Duration) {
            self.parks.lock().push(self.name);
            std::thread::yield_now();
        }
        fn waiting_on_proc(&self) -> Option<pmix::ProcId> {
            self.on.clone()
        }
    }

    /// Drive the chain `stages` (name, `Pending` answers) to the end once
    /// under each blocking driver — `wait`, `wait_timeout`, the drop drain
    /// — and return the parks made. Checks all three reached `Done`.
    fn parks_under_every_driver(stages: &'static [(&'static str, usize)]) -> Vec<&'static str> {
        let launcher = prrte::Launcher::new(simnet::SimTestbed::tiny(1, 1));
        let job = launcher.spawn(prrte::JobSpec::new(1), move |ctx| {
            let parks = Parks::default();
            let released = Arc::new(AtomicU64::new(0));
            let issue = || {
                let first = stages.iter().rev().fold(None, |next, &(name, pending)| {
                    let parks = parks.clone();
                    Some(Box::new(Probe { name, pending, next, parks, on: None })
                        as Box<dyn SetupStage<u32>>)
                });
                let released = released.clone();
                let cancel = Box::new(move |v: u32| {
                    released.fetch_add(v.into(), Ordering::SeqCst);
                });
                let process = MpiProcess::obtain(&ctx);
                SetupRequest::issue(process, "probe", None, true, first.unwrap(), Some(cancel))
            };
            assert_eq!(issue().wait().unwrap(), 7);
            assert_eq!(issue().wait_timeout(Duration::from_secs(30)).unwrap(), 7);
            drop(issue());
            assert_eq!(released.load(Ordering::SeqCst), 7, "only the dropped result is released");
            let parks = parks.lock().clone();
            parks
        });
        job.join().unwrap().remove(0)
    }

    /// A transition that leaves the request `Running` must not park the
    /// stage it handed over to.
    #[test]
    fn a_stage_that_progressed_is_never_parked() {
        let parks = parks_under_every_driver(&[("a", 0), ("b", 0), ("c", 0)]);
        assert_eq!(parks, Vec::<&str>::new());
    }

    #[test]
    fn a_pending_stage_is_parked_once_while_it_is_current() {
        let parks = parks_under_every_driver(&[("a", 0), ("b", 1), ("c", 0)]);
        assert_eq!(parks, ["b"; 3], "one park per driver, on the stage that answered Pending");
    }

    /// The dead-peer exit of the drive loop: a stage that can only be
    /// completed by a dead process fails typed and terminal, long before
    /// the budget.
    #[test]
    fn a_stage_waiting_on_a_dead_peer_fails_proc_terminated() {
        let launcher = prrte::Launcher::new(simnet::SimTestbed::tiny(1, 2));
        let job = launcher.spawn(prrte::JobSpec::new(2), |ctx| {
            let victim = pmix::ProcId::new(ctx.proc().nspace(), 1);
            if ctx.rank() == 1 {
                while !ctx.universe().proc_is_dead(&victim) {
                    std::thread::yield_now();
                }
                return None;
            }
            let stage = Box::new(Probe {
                name: "probe",
                pending: usize::MAX,
                next: None,
                parks: Parks::default(),
                on: Some(victim),
            });
            let mut req =
                SetupRequest::issue(MpiProcess::obtain(&ctx), "probe", None, true, stage, None);
            let err = req.wait_timeout(Duration::from_secs(3600)).unwrap_err();
            assert!(req.is_complete(), "the verdict is terminal, not a timeout");
            Some(err)
        });
        job.kill_rank(1);
        let err = job.join().unwrap().remove(0).expect("rank 0 reports");
        assert_eq!(err.class, ErrClass::ProcTerminated, "{err}");
        assert!(err.message.contains("stage=probe"), "verdict carries the diagnosis: {err}");
    }
}
