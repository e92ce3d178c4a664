//! Setup requests: staged state machines behind nonblocking constructions.

use super::engine::{EngineStep, ReqSnapshot};
use super::{drive, Polled, Waitable};
use crate::error::{ErrClass, MpiError, Result};
use crate::instance::MpiProcess;
use crate::pml::{Pml, ResolveStatus};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

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
    /// Every wait consults it to fail the request fast — typed — once
    /// that peer is known dead, instead of burning the timeout.
    fn waiting_on_proc(&self) -> Option<pmix::ProcId> {
        None
    }
}

/// Watchdog-visible wrapper around one lazy peer resolution (lazy init's
/// on-demand business-card fetch; see [`Pml::resolve_status`]). The send
/// that triggered the resolution is an ordinary point-to-point request,
/// invisible to the [`ProgressEngine`](super::ProgressEngine) — issuing
/// this stage alongside it puts the resolution under the stall watchdog,
/// so a fetch stuck on an unpublished or partitioned peer produces a
/// `req.stalled` diagnosis naming the peer instead of a silent hang.
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

/// A waiting owner holds the core's lock for the whole wait, across every
/// park, so an engine sweep skips a request its owner is driving.
impl<T> Waitable for SetupCore<T> {
    type Output = T;

    fn fabric(&self) -> simnet::Fabric {
        self.process.universe().fabric().clone()
    }

    fn poll(&mut self) -> Polled<T> {
        let progressed = self.step();
        let claimed = || MpiError::intern("setup result already claimed");
        match &mut self.phase {
            SetupPhase::Running(_) if progressed => Polled::Progressed,
            SetupPhase::Running(_) => Polled::Pending,
            SetupPhase::Done(v) => Polled::Ready(v.take().ok_or_else(claimed)),
            SetupPhase::Failed(e) => Polled::Ready(Err(e.clone())),
        }
    }

    fn park(&mut self, limit: Duration) {
        if let SetupPhase::Running(stage) = &mut self.phase {
            stage.park(limit);
        }
    }

    /// The stage's peer process is dead: it can never complete, so the
    /// request turns terminal (typed) rather than timing out — or hanging
    /// the collective drop.
    fn waiting_on(&self) -> Option<MpiError> {
        let SetupPhase::Running(stage) = &self.phase else { return None };
        let peer = stage.waiting_on_proc().filter(|p| self.process.universe().proc_is_dead(p))?;
        Some(MpiError::new(
            ErrClass::ProcTerminated,
            format!("setup request waits on dead peer {peer}: {}", self.diagnosis()),
        ))
    }

    /// Terminally fail the request in its current stage: a stage poll's
    /// error, or a verdict from outside one (the wait loop's dead peer).
    /// One telemetry shape for both, so the request-terminal invariant
    /// pairs every issuance with a termination.
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

    fn timed_out(&self, _budget: Duration) -> MpiError {
        MpiError::new(ErrClass::Timeout, format!("setup request timed out: {}", self.diagnosis()))
    }
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

/// A multi-stage nonblocking construction request (see the module docs).
pub struct SetupRequest<T: Send + 'static> {
    core: Arc<Mutex<SetupCore<T>>>,
}

impl<T: Send + 'static> SetupRequest<T> {
    /// Issue a construction: emit `req.issued`, register with the owning
    /// process's [`ProgressEngine`](super::ProgressEngine), and run the
    /// first stage synchronously — so by the time `issue` returns, the
    /// request's opening exchange (e.g. the PMIx fan-in carrying its PGCID
    /// demand) is on the wire.
    pub(crate) fn issue(
        process: Arc<MpiProcess>,
        op: &'static str,
        span: Option<obs::Span>,
        quiet: bool,
        first: Box<dyn SetupStage<T>>,
        cancel: Option<Box<dyn FnOnce(T) + Send>>,
    ) -> SetupRequest<T> {
        // The first stage puts its exchange on the wire; the servers handle
        // it when this thread next tests, waits or parks, so requests
        // issued back to back are all on the wire before the first is
        // served (simnet::turn::issue).
        let _issue = simnet::turn::issue();
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
        drive(&mut *self.core.lock(), Duration::MAX)
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
        drive(&mut *self.core.lock(), budget)
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
        let mut core = self.core.lock();
        if let Ok(v) = drive(&mut *core, Duration::MAX) {
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

    /// A stage still `Pending` after the driver's yield-and-repoll is
    /// parked, once per driver.
    #[test]
    fn a_pending_stage_is_parked_once_while_it_is_current() {
        let parks = parks_under_every_driver(&[("a", 0), ("b", 2), ("c", 0)]);
        assert_eq!(parks, ["b"; 3], "one park per driver, on the stage that answered Pending");
    }

    /// The driver yields once before it parks: a stage that is ready when
    /// polled again after the yield is never parked.
    #[test]
    fn a_stage_ready_after_one_yield_is_never_parked() {
        let parks = parks_under_every_driver(&[("a", 0), ("b", 1), ("c", 0)]);
        assert_eq!(parks, Vec::<&str>::new());
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
                ctx.park_until_killed();
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
