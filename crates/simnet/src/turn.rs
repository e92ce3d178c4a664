//! Run to completion: served endpoints and the thread's top-level turn.
//!
//! A *served* endpoint ([`Endpoint::serve`](crate::Endpoint::serve)) has no
//! thread of its own. Its mailbox fills as any other does; its handler runs
//! on whichever thread delivered the frame, once that thread leaves its
//! outermost fabric or protocol call — its *turn*. Three rules keep that
//! equivalent to a dedicated thread per endpoint:
//!
//! * **One runner at a time.** A try-lock run token guards each served
//!   endpoint. The holder drains the mailbox until it is empty and looks
//!   again after it lets the token go, so no frame is stranded; a thread
//!   that finds the token taken leaves its frame to the holder.
//! * **No recursion.** A send never runs a handler: it queues the drain on
//!   the sending thread, and the queue is worked off only when the thread's
//!   outermost [`Turn`] ends. Callers that may send while holding their own
//!   locks open a turn first ([`turn`]), so handlers run after those locks
//!   are dropped; a thread about to park works off what it still owes
//!   first ([`catch_up`]).
//! * **A nonblocking issue stays nonblocking.** A turn opened with
//!   [`issue`] leaves its work to the thread's next turn or park: the
//!   operation progresses when its caller tests or waits for it (MPI's
//!   progress rule), so requests issued back to back all reach the wire
//!   before a server handles the first.
//! * **No borrowed context.** Handlers and death callbacks run with the
//!   thread's entered spans and ambient context hidden
//!   ([`obs::trace::detached`]).
//!
//! A nonzero `CostModel::rpc_processing` is a processing delay, not the
//! sender's sleep: each frame becomes due at max(now, the endpoint's
//! busy-until) + cost, and the fabric's pump runs its handler then.

use crate::fabric::FabricCore;
use crate::failure::FailureEvent;
use crate::message::Envelope;
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A fabric-death subscriber (see [`Fabric::on_death`](crate::Fabric::on_death)):
/// told of each death once; returns false once it has gone (a dropped
/// watcher), and is then unsubscribed.
pub(crate) type DeathCallback = Arc<dyn Fn(FailureEvent) -> bool + Send + Sync>;

/// What a turn owes before it ends.
pub(crate) enum Work {
    /// Drain a served endpoint that was sent to.
    Drain(Arc<Served>),
    /// Handle everything a killed served endpoint still holds, waiting for
    /// a concurrent runner if there is one.
    Settle(Arc<Served>),
    /// Tell a death subscriber of the fabric it subscribed to.
    Death(Weak<FabricCore>, DeathCallback, FailureEvent),
}

#[derive(Default)]
struct TurnState {
    depth: u32,
    handlers: u32,
    queue: VecDeque<Work>,
}

thread_local! {
    static TURN: RefCell<TurnState> = RefCell::new(TurnState::default());
}

/// Guard of one (possibly nested) turn; see [`turn`] and [`issue`].
#[must_use = "the turn ends when the guard drops"]
pub struct Turn {
    // Whether ending the outermost turn works off the queue.
    runs: bool,
    _thread_bound: std::marker::PhantomData<*const ()>,
}

/// Open a turn on this thread. Work queued while any turn is open — the
/// drains of served endpoints sent to, death callbacks — runs when the
/// outermost one ends, after everything its caller held inside it is
/// released. Fabric sends and kills open their own; a layer that sends
/// while holding locks opens one around the whole call.
pub fn turn() -> Turn {
    open(true)
}

/// Open a turn for a nonblocking issue: like [`turn`], except that its end
/// leaves what it queued for this thread's next turn, or for the park
/// before it ([`catch_up`]). The issuer observes the operation by testing
/// or waiting for it, and those calls run its handlers.
pub fn issue() -> Turn {
    open(false)
}

fn open(runs: bool) -> Turn {
    TURN.with(|t| t.borrow_mut().depth += 1);
    Turn { runs, _thread_bound: std::marker::PhantomData }
}

impl Drop for Turn {
    fn drop(&mut self) {
        let outermost = TURN.with(|t| {
            let mut t = t.borrow_mut();
            t.depth -= 1;
            t.depth == 0
        });
        if outermost && self.runs && !std::thread::panicking() {
            catch_up();
        }
    }
}

/// Work off what this thread owes, if it is in no turn: the handlers of
/// frames it delivered and the death callbacks of endpoints it killed.
/// Every park on a simulated wake source calls this first, so no thread
/// sleeps on an effect that only it can produce.
pub fn catch_up() {
    let owed = TURN.with(|t| {
        let t = t.borrow();
        t.depth == 0 && !t.queue.is_empty()
    });
    if owed {
        obs::trace::detached(run_queue);
    }
}

/// Work off this thread's queue, one item at a time. Each item runs at
/// depth 1, so whatever it sends is queued behind it rather than run.
fn run_queue() {
    struct Unwind;
    impl Drop for Unwind {
        fn drop(&mut self) {
            TURN.with(|t| t.borrow_mut().depth = 0);
        }
    }
    loop {
        let work = TURN.with(|t| {
            let mut t = t.borrow_mut();
            let work = t.queue.pop_front();
            t.depth = work.is_some() as u32;
            work
        });
        let Some(work) = work else { return };
        let _unwind = Unwind;
        match work {
            Work::Drain(served) => served.drain(None),
            Work::Settle(served) => served.settle(),
            Work::Death(fabric, subscriber, event) => {
                if !subscriber(event) {
                    if let Some(fabric) = fabric.upgrade() {
                        fabric.unsubscribe(&subscriber);
                    }
                }
            }
        }
    }
}

/// Queue `work` for the end of this thread's outermost turn. Always called
/// inside a turn.
pub(crate) fn defer(work: Work) {
    TURN.with(|t| {
        let mut t = t.borrow_mut();
        debug_assert!(t.depth > 0, "deferred work outside a turn");
        t.queue.push_back(work);
    });
}

/// How many served-endpoint handlers are running on this thread's stack:
/// 1 inside a handler, 0 elsewhere. Never more — a handler's sends are
/// queued, not run — which is what the tests check.
pub fn handler_depth() -> u32 {
    TURN.with(|t| t.borrow().handlers)
}

/// True when this thread is in no turn and owes no work.
pub fn idle() -> bool {
    TURN.with(|t| {
        let t = t.borrow();
        t.depth == 0 && t.queue.is_empty()
    })
}

/// A served endpoint: its mailbox, its handler and its run token.
pub(crate) struct Served {
    rx: Receiver<Envelope>,
    handler: Box<dyn Fn(Envelope) + Send + Sync>,
    token: Mutex<()>,
    /// Processing cost per frame; zero runs handlers on delivering threads.
    pub(crate) cost: Duration,
    /// When the last frame scheduled on the pump is due (nonzero cost only).
    busy_until: Mutex<Instant>,
    /// Test-only pause point between "mailbox empty" and the token release.
    #[cfg(test)]
    pub(crate) gate: Gate,
}

impl Served {
    pub(crate) fn new(
        rx: Receiver<Envelope>,
        handler: Box<dyn Fn(Envelope) + Send + Sync>,
        cost: Duration,
    ) -> Self {
        Self {
            rx,
            handler,
            token: Mutex::new(()),
            cost,
            busy_until: Mutex::new(Instant::now()),
            #[cfg(test)]
            gate: Default::default(),
        }
    }

    /// The instant a frame arriving now is due: frames are processed one at
    /// a time, each `cost` after the later of its arrival and the previous
    /// frame's due time.
    pub(crate) fn next_due(&self) -> Instant {
        let mut busy = self.busy_until.lock();
        *busy = (*busy).max(Instant::now()) + self.cost;
        *busy
    }

    /// Take the run token and handle up to `budget` frames (all of them
    /// with `None`). A taken token means its holder drains instead.
    pub(crate) fn drain(&self, budget: Option<usize>) {
        loop {
            let Some(token) = self.token.try_lock() else { return };
            self.run(budget);
            #[cfg(test)]
            self.gate.pass();
            drop(token);
            // A frame pushed after the last empty look found the token
            // taken and was left here: look again now that it is free.
            if budget.is_some() || self.rx.is_empty() {
                return;
            }
        }
    }

    /// Handle every frame left, waiting for a concurrent runner to finish
    /// first: a killed endpoint's last frames are final when this returns.
    fn settle(&self) {
        let _token = self.token.lock();
        self.run(None);
    }

    fn run(&self, budget: Option<usize>) {
        let mut handled = 0;
        while budget.is_none_or(|b| handled < b) {
            let Ok(env) = self.rx.try_recv() else { return };
            TURN.with(|t| {
                let mut t = t.borrow_mut();
                debug_assert_eq!(t.handlers, 0, "a handler ran inside another");
                t.handlers += 1;
            });
            (self.handler)(env);
            TURN.with(|t| t.borrow_mut().handlers -= 1);
            handled += 1;
        }
    }
}

/// A test-only pause point. Armed, the thread that passes it parks there
/// until the test releases it: an interleaving is forced, not raced for.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct Gate {
    state: Mutex<GateState>,
    cv: parking_lot::Condvar,
}

#[cfg(test)]
#[derive(Default)]
struct GateState {
    armed: bool,
    paused: bool,
}

#[cfg(test)]
impl Gate {
    /// The paused thread's side: park here while armed.
    pub(crate) fn pass(&self) {
        let mut st = self.state.lock();
        if !st.armed {
            return;
        }
        st.paused = true;
        self.cv.notify_all();
        while st.armed {
            self.cv.wait(&mut st);
        }
        st.paused = false;
    }

    pub(crate) fn arm(&self) {
        self.state.lock().armed = true;
    }

    /// Wait until a thread has reached the gate and parked there.
    pub(crate) fn await_pause(&self) {
        let mut st = self.state.lock();
        while !st.paused {
            self.cv.wait(&mut st);
        }
    }

    pub(crate) fn release(&self) {
        self.state.lock().armed = false;
        self.cv.notify_all();
    }
}
