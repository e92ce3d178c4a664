//! Fault-injection hook points.
//!
//! A [`FaultHook`] installed on a fabric is consulted for every message the
//! fabric accepts, *before* routing. The hook sees a [`MsgView`] — src/dst
//! endpoints (both raw and normalized relative to the fabric's first
//! registered endpoint), their nodes, the per-(src,dst) message sequence
//! number and the payload length — and returns a [`FaultVerdict`]: what to do
//! with the message plus any endpoints to kill as a side effect.
//!
//! The view deliberately exposes only *deterministic* inputs: normalized
//! endpoint ids and per-pair sequence numbers are stable across runs of the
//! same workload, while raw endpoint ids and wall-clock time are not (the
//! endpoint id counter is process-global and shifts under parallel tests).
//! A hook that decides purely from `rel_src`/`rel_dst`/`pair_seq` and a seed
//! reproduces the same fault schedule on every run — the property the chaos
//! harness is built on.

use crate::endpoint::EndpointId;
use crate::topology::NodeId;
use std::time::Duration;

/// What the fabric should do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Drop silently. The sender still observes a successful send — exactly
    /// the semantics of a lost packet on a real fabric.
    Drop,
    /// Deliver after an extra delay on top of the cost model.
    Delay(Duration),
    /// Deliver twice (models a retransmission duplicate). Only meaningful
    /// against idempotent receivers.
    Duplicate,
}

/// A hook's decision for one message.
#[derive(Debug, Clone)]
pub struct FaultVerdict {
    /// What to do with the message itself.
    pub action: FaultAction,
    /// Endpoints to kill as a side effect (applied before the message is
    /// routed, so a `kill` of the destination makes this very message the
    /// first casualty).
    pub kills: Vec<EndpointId>,
}

impl FaultVerdict {
    /// Deliver, no side effects.
    pub fn deliver() -> Self {
        Self { action: FaultAction::Deliver, kills: Vec::new() }
    }
}

impl From<FaultAction> for FaultVerdict {
    fn from(action: FaultAction) -> Self {
        Self { action, kills: Vec::new() }
    }
}

/// The fabric's view of one message offered to a [`FaultHook`].
#[derive(Debug, Clone, Copy)]
pub struct MsgView {
    /// Raw source endpoint id.
    pub src: EndpointId,
    /// Raw destination endpoint id.
    pub dst: EndpointId,
    /// Source id normalized to the fabric's first registered endpoint
    /// (first endpoint = 0). Stable across runs of the same workload.
    pub rel_src: u64,
    /// Destination id, normalized like `rel_src`.
    pub rel_dst: u64,
    /// Node the source lives on (`None` if the sender already died).
    pub src_node: Option<NodeId>,
    /// Node the destination lives on (`None` if it is already dead).
    pub dst_node: Option<NodeId>,
    /// 0-based sequence number of this message on the (src, dst) pair.
    /// Counted only while a hook is installed.
    pub pair_seq: u64,
    /// Wire length in bytes (head + body, [`crate::Envelope::len`]).
    pub len: usize,
}

/// Per-message fault decision callback, installed via
/// [`Fabric::set_fault_hook`](crate::fabric::Fabric::set_fault_hook).
///
/// Called on the *sending* thread with no fabric locks held, so a hook may
/// freely request kills (which take the registry write lock). Hooks must be
/// cheap and deterministic: no wall-clock reads, no global mutable state
/// outside the hook itself.
pub trait FaultHook: Send + Sync {
    /// Decide the fate of one message.
    fn on_message(&self, msg: &MsgView) -> FaultVerdict;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_from_action_has_no_kills() {
        let v: FaultVerdict = FaultAction::Drop.into();
        assert_eq!(v.action, FaultAction::Drop);
        assert!(v.kills.is_empty());
        assert_eq!(FaultVerdict::deliver().action, FaultAction::Deliver);
    }
}
