//! Server-to-server wire protocol.
//!
//! Everything in this module crosses the simulated fabric and therefore
//! pays inter-node communication costs — this is what makes PMIx group
//! construction (and hence `MPI_Comm_create_from_group`) measurably more
//! expensive than purely local operations, the central performance effect
//! in the paper's Figures 3 and 4.
//!
//! Control-plane messages are JSON-serialized: they are small, rare and
//! off the MPI critical path; debuggability wins over compactness here.

use crate::error::PmixError;
use crate::event::Event;
use crate::types::ProcId;
use crate::value::PmixValue;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use simnet::EndpointId;
use std::collections::HashMap;

/// Kind of a collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// `PMIx_Fence` over a process set.
    Fence,
    /// `PMIx_Group_construct`.
    GroupConstruct,
}

/// Identifier of one *instance* of a collective operation.
///
/// `mhash` is a hash of the sorted membership, so that same-named
/// operations over different process sets do not collide; `epoch` counts
/// instances of the same (kind, name, membership), so that repeated
/// collectives stay distinct even when one server races ahead.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpId {
    /// Operation kind.
    pub kind: OpKind,
    /// User-visible operation tag (group name, fence tag).
    pub name: String,
    /// Hash of the sorted membership list.
    pub mhash: u64,
    /// Instance counter for this (kind, name, mhash).
    pub epoch: u64,
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}:{}#{}@{}", self.kind, self.name, self.mhash, self.epoch)
    }
}

/// Stable hash of a sorted membership list (FNV-1a over the display forms;
/// must be identical across all participants, which sorting guarantees).
pub fn membership_hash(sorted_members: &[ProcId]) -> u64 {
    sorted_members
        .iter()
        .fold(FNV_OFFSET, |h, m| fnv_u64(fnv_bytes(h, m.nspace().as_bytes()), m.rank() as u64))
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// One FNV-1a step per byte.
pub(crate) fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| fnv_u64(h, *b as u64))
}

/// One FNV-1a step over a whole word.
pub(crate) fn fnv_u64(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// One server's contribution to a collective instance.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Contribution {
    /// Participants managed by the contributing server.
    pub local_members: Vec<ProcId>,
    /// Collected key-value data (fence with data collection).
    pub kvs: Vec<(ProcId, HashMap<String, PmixValue>)>,
}

/// Why a collective was aborted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortReason {
    /// A participant's wait deadline elapsed.
    Timeout,
    /// A participant process died before completing.
    ProcTerminated(ProcId),
}

impl AbortReason {
    /// Convert to the error participants observe.
    pub fn to_error(&self) -> PmixError {
        match self {
            AbortReason::Timeout => PmixError::Timeout,
            AbortReason::ProcTerminated(p) => PmixError::ProcTerminated(p.clone()),
        }
    }
}

/// Messages exchanged between PMIx servers (and the resource-manager
/// service hosted on the lead server).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServerMsg {
    /// A server's contribution to a collective instance (stage 2 of the
    /// three-stage hierarchical pattern: the server all-to-all).
    CollContrib {
        /// Which collective instance.
        op: OpId,
        /// Contributing server's node.
        from_node: u32,
        /// Its local data.
        contrib: Contribution,
    },
    /// PGCID assignment for a group-construct instance, broadcast by the
    /// lead participating server after the RM allocated it.
    CollPgcid {
        /// Which collective instance.
        op: OpId,
        /// The allocated Process Group Context Identifier (non-zero).
        pgcid: u64,
    },
    /// Abort a collective instance on all participating servers.
    CollAbort {
        /// Which collective instance.
        op: OpId,
        /// Why.
        reason: AbortReason,
    },
    /// Ask the resource manager for a block of fresh PGCIDs.
    ///
    /// `count == 1` reproduces the paper's one-at-a-time round trip;
    /// larger counts amortize the RM RPC over `count` future group
    /// constructs led by the requesting server (the surplus ids go into
    /// its local pool).
    PgcidRequest {
        /// Where to send the reply.
        reply_to: EndpointId,
        /// Correlation token.
        token: u64,
        /// How many consecutive ids to allocate (>= 1).
        count: u64,
    },
    /// RM's reply to [`ServerMsg::PgcidRequest`]: a consecutive block
    /// `[pgcid, pgcid + count)`, all freshly allocated and accounted under
    /// the RM's `pgcid_allocated` counter.
    PgcidReply {
        /// Correlation token from the request.
        token: u64,
        /// First id of the allocated block.
        pgcid: u64,
        /// Number of consecutive ids in the block (>= 1).
        count: u64,
    },
    /// One-way, to a group's lead server: every local member of the group on
    /// `from_node` has released it (or died). The lead recycles `pgcid` once
    /// such a report has arrived from every node in `servers`.
    GroupReleased {
        /// The group's PGCID.
        pgcid: u64,
        /// The reporting server's node.
        from_node: u32,
        /// The group's construct-time server set (ascending nodes; the
        /// first is the lead).
        servers: Vec<u32>,
    },
    /// Broadcast: a process died. Servers fail affected collectives and
    /// notify subscribed clients.
    ProcFailed {
        /// The dead process.
        proc: ProcId,
    },
    /// Direct-modex fetch of one key of one (remote) process.
    DmodexReq {
        /// Where to send the reply.
        reply_to: EndpointId,
        /// Correlation token.
        token: u64,
        /// Whose data.
        proc: ProcId,
        /// Which key.
        key: String,
    },
    /// Reply to [`ServerMsg::DmodexReq`].
    DmodexReply {
        /// Correlation token from the request.
        token: u64,
        /// The value, or `None` if the owner does not have it.
        value: Option<PmixValue>,
    },
    /// Deliver an event to specific local clients of the destination server
    /// (or to all subscribed clients when `targets` is empty).
    Notify {
        /// The event.
        event: Event,
        /// Local clients that should receive it; empty = all subscribed.
        targets: Vec<ProcId>,
    },
    /// Response of an invited process to an asynchronous group invitation,
    /// routed to the initiator's server.
    InviteReply {
        /// Group being constructed.
        group: String,
        /// The responding process.
        from: ProcId,
        /// Whether it joined.
        accept: bool,
    },
}

impl ServerMsg {
    /// Serialize for the fabric.
    pub fn encode(&self) -> Bytes {
        Bytes::from(serde_json::to_vec(self).expect("ServerMsg serializes"))
    }

    /// Deserialize from the fabric.
    pub fn decode(bytes: &[u8]) -> Option<ServerMsg> {
        serde_json::from_slice(bytes).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_hash_is_order_stable_after_sort() {
        let mut a = vec![ProcId::new("j", 2), ProcId::new("j", 0), ProcId::new("j", 1)];
        let mut b = vec![ProcId::new("j", 1), ProcId::new("j", 2), ProcId::new("j", 0)];
        a.sort();
        b.sort();
        assert_eq!(membership_hash(&a), membership_hash(&b));
    }

    #[test]
    fn membership_hash_distinguishes_sets() {
        let a = vec![ProcId::new("j", 0), ProcId::new("j", 1)];
        let b = vec![ProcId::new("j", 0), ProcId::new("j", 2)];
        assert_ne!(membership_hash(&a), membership_hash(&b));
        let c = vec![ProcId::new("k", 0), ProcId::new("k", 1)];
        assert_ne!(membership_hash(&a), membership_hash(&c));
    }

    #[test]
    fn server_msg_roundtrip() {
        let msg = ServerMsg::CollContrib {
            op: OpId { kind: OpKind::GroupConstruct, name: "g".into(), mhash: 7, epoch: 0 },
            from_node: 3,
            contrib: Contribution {
                local_members: vec![ProcId::new("j", 5)],
                kvs: vec![(
                    ProcId::new("j", 5),
                    [("k".to_string(), PmixValue::U64(1))].into_iter().collect(),
                )],
            },
        };
        let bytes = msg.encode();
        let back = ServerMsg::decode(&bytes).unwrap();
        match back {
            ServerMsg::CollContrib { op, from_node, contrib } => {
                assert_eq!(op.name, "g");
                assert_eq!(from_node, 3);
                assert_eq!(contrib.local_members.len(), 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ServerMsg::decode(b"not json").is_none());
    }

    #[test]
    fn abort_reason_to_error() {
        assert_eq!(AbortReason::Timeout.to_error(), PmixError::Timeout);
        let p = ProcId::new("j", 1);
        assert_eq!(
            AbortReason::ProcTerminated(p.clone()).to_error(),
            PmixError::ProcTerminated(p)
        );
    }
}
