//! Request objects (`MPI_Request`): point-to-point completions and the
//! staged nonblocking constructions, and the one wait loop both block in.
//!
//! A point-to-point [`Request`] is completed by the PML inside
//! `Pml::progress`; a [`SetupRequest`] is a staged construction (below).
//! Every blocking call on either kind is one private `drive(budget)` loop
//! over a private waitable surface both implement (`poll` / `park` /
//! `waiting_on` / `fail`): it polls again at once after progress; on the
//! first `Pending` since its last park it yields the CPU once and polls
//! again; on `Pending` after a park it fails the request typed
//! `ProcTerminated` once what it waits on is dead (after a final sweep: a
//! delivered message beats the verdict), returns `Timeout` once a bounded
//! budget expires in logical time, and else parks on the kind's wake
//! source. DESIGN.md §12 has the contract.
//!
//! # The setup engine (nonblocking session/comm construction)
//!
//! [`SetupRequest`] is the request type behind the `i`-variants of the
//! construction API (`Session::init_i`, `Session::igroup_from_pset`,
//! `Comm::icomm_create_from_group`, `Comm::idup_via_group`) and behind
//! `coll::ibarrier`.
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
//! * `wait()` — the wait loop above, which parks only the stage that
//!   answered `Pending` (a blocking variant is exactly `i`-variant + `wait`);
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

mod engine;
mod p2p;
mod setup;

pub use engine::{ProgressEngine, ReqSnapshot, DEFAULT_STALL_TICKS};
pub use p2p::{ReqInner, ReqKind, Request};
pub(crate) use setup::LazyResolveStage;
pub use setup::{stage, SetupRequest, SetupStage, SetupStep};

use crate::error::{MpiError, Result};
use std::time::Duration;

/// Where one poll left a request.
enum Polled<T> {
    /// Terminal: the result, or the request's sticky error.
    Ready(Result<T>),
    /// Advanced without finishing: poll again at once, never park.
    Progressed,
    Pending,
}

/// The waitable surface both request kinds implement for [`drive`].
trait Waitable {
    type Output;
    /// The fabric a bounded wait's logical deadline watches.
    fn fabric(&self) -> simnet::Fabric;
    fn poll(&mut self) -> Polled<Self::Output>;
    /// Block on the kind's wake source, at most `limit`; zero only sweeps.
    fn park(&mut self, limit: Duration);
    /// The dead-peer verdict, once what the request waits on is dead.
    fn waiting_on(&self) -> Option<MpiError>;
    fn fail(&mut self, err: MpiError);
    /// The error of a wait whose `budget` expired; the request stays live.
    fn timed_out(&self, budget: Duration) -> MpiError;
}

/// How long one park may block before the loop judges the verdicts again.
const PARK_LIMIT: Duration = Duration::from_millis(1);

/// The one blocking loop behind every wait on every request (see the
/// module docs). `Duration::MAX` is unbounded.
fn drive<W: Waitable>(w: &mut W, budget: Duration) -> Result<W::Output> {
    let mut deadline =
        (budget < Duration::MAX).then(|| pmix::LogicalDeadline::new(w.fabric(), budget));
    let mut last_park = None;
    let mut yielded = false;
    loop {
        let limit = match w.poll() {
            Polled::Ready(res) => return res,
            Polled::Progressed => continue,
            // Before parking, hand the CPU to a runnable peer once and look
            // again: what it does next is usually what this wait needs.
            Polled::Pending if !yielded => {
                yielded = true;
                std::thread::yield_now();
                continue;
            }
            // Liveness is judged only once a park found nothing, so a wait
            // its first park completes never looks.
            Polled::Pending => match last_park.and_then(|_| w.waiting_on()) {
                Some(err) if last_park == Some(Duration::ZERO) => {
                    w.fail(err.clone());
                    return Err(err);
                }
                // What the dead peer sent before dying may already sit in
                // the mailbox: sweep without blocking, then poll again.
                Some(_) => Duration::ZERO,
                None if deadline.as_mut().is_some_and(|d| d.expired()) => {
                    return Err(w.timed_out(budget));
                }
                None => PARK_LIMIT,
            },
        };
        last_park = Some(limit);
        yielded = false;
        w.park(limit);
    }
}
