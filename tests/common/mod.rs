//! Support shared by the integration tests.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A barrier that a panicking party cannot strand the others at. Each
/// party takes a [`Pass`] before anything that can panic; a pass dropped
/// while its thread unwinds poisons the gate, and every party waiting at
/// it, or arriving later, panics instead of blocking forever.
pub struct Gate {
    parties: usize,
    state: Mutex<GateState>,
    turned: Condvar,
}

#[derive(Default)]
struct GateState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

/// One party's hold on a [`Gate`].
pub struct Pass(Arc<Gate>);

impl Gate {
    pub fn new(parties: usize) -> Arc<Gate> {
        Arc::new(Gate { parties, state: Mutex::default(), turned: Condvar::new() })
    }

    pub fn pass(self: &Arc<Self>) -> Pass {
        Pass(Arc::clone(self))
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Pass {
    /// Block until every party has arrived; panics if a party unwound.
    pub fn wait(&self) {
        let gate = &*self.0;
        let mut state = gate.lock();
        assert!(!state.poisoned, "gate poisoned: another party panicked");
        state.arrived += 1;
        if state.arrived == gate.parties {
            state.arrived = 0;
            state.generation += 1;
            gate.turned.notify_all();
            return;
        }
        let generation = state.generation;
        let state = gate
            .turned
            .wait_while(state, |s| s.generation == generation && !s.poisoned)
            .unwrap_or_else(PoisonError::into_inner);
        assert!(!state.poisoned, "gate poisoned: another party panicked");
    }
}

impl Drop for Pass {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().poisoned = true;
            self.0.turned.notify_all();
        }
    }
}
