//! Failure events and watchers.
//!
//! The paper's Section II-C motivates MPI Sessions as fault-isolation
//! domains: PMIx group construction must be able to report process failures,
//! and sessions must be re-initializable after a failure. The fabric is the
//! root source of truth for "process X died"; this module carries that fact
//! to subscribers (PMIx servers, tests).

use crate::endpoint::EndpointId;
use crate::topology::NodeId;
use crossbeam::channel::Receiver;
use std::time::Duration;

/// A process (endpoint) death notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// The endpoint that died.
    pub endpoint: EndpointId,
    /// The node it lived on.
    pub node: NodeId,
}

/// A subscription to fabric failure events.
pub struct FailureWatcher {
    rx: Receiver<FailureEvent>,
}

impl FailureWatcher {
    pub(crate) fn new(rx: Receiver<FailureEvent>) -> Self {
        Self { rx }
    }

    /// Block until the next failure event (or the fabric shuts down).
    pub fn recv(&mut self) -> Option<FailureEvent> {
        crate::turn::catch_up();
        self.rx.recv().ok()
    }

    /// Wait up to `timeout` for a failure event.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<FailureEvent> {
        crate::turn::catch_up();
        self.rx.recv_timeout(timeout).ok()
    }

    /// Poll for a failure event without blocking.
    pub fn try_recv(&mut self) -> Option<FailureEvent> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use crate::cost::CostModel;
    use crate::fabric::Fabric;
    use crate::topology::NodeId;
    use std::time::Duration;

    #[test]
    fn late_watcher_replays_earlier_failures() {
        let fabric = Fabric::new(CostModel::zero());
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        fabric.kill(b.id());
        fabric.kill(a.id());
        // A watcher subscribing after the deaths still learns about them:
        // the fabric replays the dead set (in endpoint-id order) on
        // subscription, so late subscribers converge with early ones.
        let mut w = fabric.watch_failures();
        let first = w.try_recv().expect("first death replayed");
        let second = w.try_recv().expect("second death replayed");
        assert_eq!(first.endpoint, a.id());
        assert_eq!(first.node, NodeId(0));
        assert_eq!(second.endpoint, b.id());
        assert_eq!(second.node, NodeId(1));
        assert!(w.try_recv().is_none());
        assert!(fabric.was_killed(a.id()));
    }

    #[test]
    fn replayed_and_live_failures_are_each_seen_once() {
        let fabric = Fabric::new(CostModel::zero());
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(0));
        fabric.kill(a.id());
        let mut w = fabric.watch_failures();
        fabric.kill(b.id());
        // Replay of the earlier death, then the live one — no duplicates
        // of either, and both landed before the calls returned.
        assert_eq!(w.try_recv().unwrap().endpoint, a.id());
        assert_eq!(w.try_recv().unwrap().endpoint, b.id());
        assert!(w.try_recv().is_none());
    }

    /// `Duration::MAX` is past the end of `Instant`'s range: no deadline.
    #[test]
    fn recv_timeout_max_returns_a_queued_failure() {
        let fabric = Fabric::new(CostModel::zero());
        let a = fabric.register(NodeId(0));
        let mut w = fabric.watch_failures();
        fabric.kill(a.id());
        assert_eq!(w.recv_timeout(Duration::MAX).unwrap().endpoint, a.id());
    }
}
