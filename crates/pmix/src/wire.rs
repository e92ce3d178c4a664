//! Server-to-server wire protocol.
//!
//! Everything in this module crosses the simulated fabric and therefore
//! pays inter-node communication costs — this is what makes PMIx group
//! construction (and hence `MPI_Comm_create_from_group`) measurably more
//! expensive than purely local operations, the central performance effect
//! in the paper's Figures 3 and 4.
//!
//! Control-plane messages pack to binary frames, as the reference PMIx
//! packs its buffers (`bfrops`): one tag byte per variant, LEB128 varints
//! for integers, `mhash` and `F64` as 8 little-endian bytes, length-prefixed
//! UTF-8 strings. Maps are written in sorted key order, so one message
//! always packs to the same bytes. [`ServerMsg::decode`] is total: an
//! unknown tag, a truncated or over-long frame, invalid UTF-8 or an
//! out-of-range `u32` yields `None`, and no length prefix reserves more
//! than the remaining input could fill. The fabric carries bytes because it
//! models them: bandwidth delay scales with a frame's length, and chaos
//! fault records carry it.

use crate::error::PmixError;
use crate::event::{Event, EventCode};
use crate::types::ProcId;
use crate::value::PmixValue;
use bytes::Bytes;
use simnet::EndpointId;
use std::collections::HashMap;

/// Kind of a collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Contribution {
    /// Participants managed by the contributing server.
    pub local_members: Vec<ProcId>,
    /// Collected key-value data (fence with data collection).
    pub kvs: Vec<(ProcId, HashMap<String, PmixValue>)>,
}

/// Why a collective was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
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

/// Frame tags, one per [`ServerMsg`] variant (the first byte of a frame).
/// Tag 7 is retired (it carried a process-death broadcast; deaths reach
/// servers only through the universe's failure bridge) and decodes to
/// `None`.
mod tag {
    pub const COLL_CONTRIB: u8 = 1;
    pub const COLL_PGCID: u8 = 2;
    pub const COLL_ABORT: u8 = 3;
    pub const PGCID_REQUEST: u8 = 4;
    pub const PGCID_REPLY: u8 = 5;
    pub const GROUP_RELEASED: u8 = 6;
    pub const DMODEX_REQ: u8 = 8;
    pub const DMODEX_REPLY: u8 = 9;
    pub const NOTIFY: u8 = 10;
    pub const INVITE_REPLY: u8 = 11;
}

impl ServerMsg {
    /// Pack into one binary frame for the fabric.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(64);
        match self {
            ServerMsg::CollContrib { op, from_node, contrib } => {
                out.push(tag::COLL_CONTRIB);
                op.put(&mut out);
                from_node.put(&mut out);
                contrib.local_members.put(&mut out);
                contrib.kvs.put(&mut out);
            }
            ServerMsg::CollPgcid { op, pgcid } => {
                out.push(tag::COLL_PGCID);
                op.put(&mut out);
                pgcid.put(&mut out);
            }
            ServerMsg::CollAbort { op, reason } => {
                out.push(tag::COLL_ABORT);
                op.put(&mut out);
                reason.put(&mut out);
            }
            ServerMsg::PgcidRequest { reply_to, token, count } => {
                out.push(tag::PGCID_REQUEST);
                reply_to.0.put(&mut out);
                token.put(&mut out);
                count.put(&mut out);
            }
            ServerMsg::PgcidReply { token, pgcid, count } => {
                out.push(tag::PGCID_REPLY);
                token.put(&mut out);
                pgcid.put(&mut out);
                count.put(&mut out);
            }
            ServerMsg::GroupReleased { pgcid, from_node, servers } => {
                out.push(tag::GROUP_RELEASED);
                pgcid.put(&mut out);
                from_node.put(&mut out);
                servers.put(&mut out);
            }
            ServerMsg::DmodexReq { reply_to, token, proc, key } => {
                out.push(tag::DMODEX_REQ);
                reply_to.0.put(&mut out);
                token.put(&mut out);
                proc.put(&mut out);
                key.put(&mut out);
            }
            ServerMsg::DmodexReply { token, value } => {
                out.push(tag::DMODEX_REPLY);
                token.put(&mut out);
                value.put(&mut out);
            }
            ServerMsg::Notify { event, targets } => {
                out.push(tag::NOTIFY);
                event.put(&mut out);
                targets.put(&mut out);
            }
            ServerMsg::InviteReply { group, from, accept } => {
                out.push(tag::INVITE_REPLY);
                group.put(&mut out);
                from.put(&mut out);
                accept.put(&mut out);
            }
        }
        Bytes::from(out)
    }

    /// Unpack one frame; `None` unless `bytes` is exactly one valid frame.
    pub fn decode(bytes: &[u8]) -> Option<ServerMsg> {
        let mut r = Reader(bytes);
        let msg = match r.byte()? {
            tag::COLL_CONTRIB => ServerMsg::CollContrib {
                op: r.get()?,
                from_node: r.get()?,
                contrib: Contribution { local_members: r.get()?, kvs: r.get()? },
            },
            tag::COLL_PGCID => ServerMsg::CollPgcid { op: r.get()?, pgcid: r.get()? },
            tag::COLL_ABORT => ServerMsg::CollAbort { op: r.get()?, reason: r.get()? },
            tag::PGCID_REQUEST => ServerMsg::PgcidRequest {
                reply_to: EndpointId(r.get()?),
                token: r.get()?,
                count: r.get()?,
            },
            tag::PGCID_REPLY => {
                ServerMsg::PgcidReply { token: r.get()?, pgcid: r.get()?, count: r.get()? }
            }
            tag::GROUP_RELEASED => {
                ServerMsg::GroupReleased { pgcid: r.get()?, from_node: r.get()?, servers: r.get()? }
            }
            tag::DMODEX_REQ => ServerMsg::DmodexReq {
                reply_to: EndpointId(r.get()?),
                token: r.get()?,
                proc: r.get()?,
                key: r.get()?,
            },
            tag::DMODEX_REPLY => ServerMsg::DmodexReply { token: r.get()?, value: r.get()? },
            tag::NOTIFY => ServerMsg::Notify { event: r.get()?, targets: r.get()? },
            tag::INVITE_REPLY => {
                ServerMsg::InviteReply { group: r.get()?, from: r.get()?, accept: r.get()? }
            }
            _ => return None,
        };
        r.0.is_empty().then_some(msg)
    }
}

/// A cursor over an incoming frame. Every read either consumes exactly the
/// bytes it parsed or returns `None`. Reads accept only the form `put`
/// writes, so a frame that decodes packs back to the same bytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(b)
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn fixed64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let low = (b & 0x7f) as u64;
            // The tenth byte holds bit 63 alone.
            if shift == 63 && low > 1 {
                return None;
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                // A zero final byte after the first pads the number: only
                // the shortest form is a frame.
                return (b != 0 || shift == 0).then_some(v);
            }
        }
        None
    }

    /// A length prefix. Every counted item takes at least one byte, so a
    /// count beyond the bytes left is a lie, rejected before any reserve.
    fn len(&mut self) -> Option<usize> {
        usize::try_from(self.varint()?).ok().filter(|&n| n <= self.0.len())
    }

    fn str(&mut self) -> Option<&'a str> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    fn get<T: Wire>(&mut self) -> Option<T> {
        T::get(self)
    }
}

/// A type with a binary frame form: `put` appends it, `get` reads it back.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Option<Self>;
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        r.varint()
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        u32::try_from(r.varint()?).ok()
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        r.str().map(str::to_owned)
    }
}

impl Wire for ProcId {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.nspace().as_bytes());
        self.rank().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let nspace = r.str()?;
        Some(ProcId::new(nspace, r.get()?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(r.get()?);
        }
        Some(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(None),
            1 => Some(Some(r.get()?)),
            _ => None,
        }
    }
}

/// Entries in sorted key order: equal maps pack to equal bytes.
impl Wire for HashMap<String, PmixValue> {
    fn put(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        put_varint(out, entries.len() as u64);
        for (k, v) in entries {
            k.put(out);
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.len()?;
        let mut m = HashMap::with_capacity(n);
        let mut prev: Option<&str> = None;
        for _ in 0..n {
            // Strictly ascending keys: one map, one frame.
            let k = r.str().filter(|k| prev.is_none_or(|p| p < *k))?;
            prev = Some(k);
            m.insert(k.to_owned(), r.get()?);
        }
        Some(m)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some((r.get()?, r.get()?))
    }
}

impl Wire for OpId {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self.kind {
            OpKind::Fence => 0,
            OpKind::GroupConstruct => 1,
        });
        self.name.put(out);
        out.extend_from_slice(&self.mhash.to_le_bytes());
        self.epoch.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let kind = match r.byte()? {
            0 => OpKind::Fence,
            1 => OpKind::GroupConstruct,
            _ => return None,
        };
        Some(OpId { kind, name: r.get()?, mhash: r.fixed64()?, epoch: r.get()? })
    }
}

impl Wire for AbortReason {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            AbortReason::Timeout => out.push(0),
            AbortReason::ProcTerminated(p) => {
                out.push(1);
                p.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(AbortReason::Timeout),
            1 => Some(AbortReason::ProcTerminated(r.get()?)),
            _ => None,
        }
    }
}

impl Wire for PmixValue {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            PmixValue::Str(s) => {
                out.push(0);
                s.put(out);
            }
            PmixValue::U64(v) => {
                out.push(1);
                v.put(out);
            }
            PmixValue::I64(v) => {
                out.push(2);
                // Zigzag: small magnitudes of either sign stay short.
                put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
            }
            PmixValue::Bool(b) => {
                out.push(3);
                b.put(out);
            }
            PmixValue::F64(f) => {
                out.push(4);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            PmixValue::Bytes(b) => {
                out.push(5);
                put_bytes(out, b);
            }
            PmixValue::ProcList(procs) => {
                out.push(6);
                procs.put(out);
            }
            PmixValue::StrList(strs) => {
                out.push(7);
                strs.put(out);
            }
            PmixValue::VersionedProcList { epoch, members } => {
                out.push(8);
                epoch.put(out);
                members.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.byte()? {
            0 => PmixValue::Str(r.get()?),
            1 => PmixValue::U64(r.get()?),
            2 => {
                let z = r.varint()?;
                PmixValue::I64((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            3 => PmixValue::Bool(r.get()?),
            4 => PmixValue::F64(f64::from_bits(r.fixed64()?)),
            5 => {
                let n = r.len()?;
                PmixValue::Bytes(r.take(n)?.to_vec())
            }
            6 => PmixValue::ProcList(r.get()?),
            7 => PmixValue::StrList(r.get()?),
            8 => PmixValue::VersionedProcList { epoch: r.get()?, members: r.get()? },
            _ => return None,
        })
    }
}

impl Wire for EventCode {
    fn put(&self, out: &mut Vec<u8>) {
        let tag = match self {
            EventCode::ProcTerminated => 0,
            EventCode::GroupMemberFailed => 1,
            EventCode::GroupMemberLeft => 2,
            EventCode::GroupDestructed => 3,
            EventCode::GroupInvited => 4,
            EventCode::PsetDefined => 5,
            EventCode::PsetMembership => 6,
            EventCode::PsetDeleted => 7,
            EventCode::Custom(_) => 8,
        };
        out.push(tag);
        if let EventCode::Custom(c) = self {
            c.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.byte()? {
            0 => EventCode::ProcTerminated,
            1 => EventCode::GroupMemberFailed,
            2 => EventCode::GroupMemberLeft,
            3 => EventCode::GroupDestructed,
            4 => EventCode::GroupInvited,
            5 => EventCode::PsetDefined,
            6 => EventCode::PsetMembership,
            7 => EventCode::PsetDeleted,
            8 => EventCode::Custom(r.get()?),
            _ => return None,
        })
    }
}

/// `ctx` never crosses the wire: span ids are registry-local, and
/// cross-node consumers re-root their spans.
impl Wire for Event {
    fn put(&self, out: &mut Vec<u8>) {
        self.code.put(out);
        self.source.put(out);
        self.data.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(Event { code: r.get()?, source: r.get()?, data: r.get()?, ctx: None })
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

    fn op(name: &str) -> OpId {
        OpId {
            kind: OpKind::GroupConstruct,
            name: name.into(),
            mhash: 0x0123_4567_89ab_cdef,
            epoch: 3,
        }
    }

    /// Every [`EventCode`] but `Custom`.
    const CODES: [EventCode; 8] = [
        EventCode::ProcTerminated,
        EventCode::GroupMemberFailed,
        EventCode::GroupMemberLeft,
        EventCode::GroupDestructed,
        EventCode::GroupInvited,
        EventCode::PsetDefined,
        EventCode::PsetMembership,
        EventCode::PsetDeleted,
    ];

    fn every_value() -> Vec<PmixValue> {
        vec![
            PmixValue::Str("héllo".into()),
            PmixValue::U64(u64::MAX),
            PmixValue::I64(i64::MIN),
            PmixValue::I64(-1),
            PmixValue::Bool(true),
            PmixValue::F64(-0.5),
            PmixValue::F64(f64::NAN),
            PmixValue::Bytes(vec![0, 0xff, 7]),
            PmixValue::ProcList(vec![ProcId::new("j", 0), ProcId::new("k", u32::MAX)]),
            PmixValue::StrList(vec![String::new(), "p".into()]),
            PmixValue::VersionedProcList { epoch: 9, members: vec![ProcId::new("j", 1)] },
        ]
    }

    /// One message of every variant; every `PmixValue` variant rides a
    /// `DmodexReply`.
    fn every_variant() -> Vec<ServerMsg> {
        let p = ProcId::new("prterun-1", 5);
        let data: HashMap<String, PmixValue> =
            every_value().into_iter().enumerate().map(|(i, v)| (format!("k{i}"), v)).collect();
        let mut msgs = vec![
            ServerMsg::CollContrib {
                op: op("g"),
                from_node: 3,
                contrib: Contribution {
                    local_members: vec![p.clone()],
                    kvs: vec![(p.clone(), data.clone()), (ProcId::new("j", 0), HashMap::new())],
                },
            },
            ServerMsg::CollPgcid { op: OpId { kind: OpKind::Fence, ..op("") }, pgcid: 1 << 62 },
            ServerMsg::CollAbort { op: op("a"), reason: AbortReason::Timeout },
            ServerMsg::CollAbort { op: op("b"), reason: AbortReason::ProcTerminated(p.clone()) },
            ServerMsg::PgcidRequest { reply_to: EndpointId(u64::MAX), token: 0, count: 64 },
            ServerMsg::PgcidReply { token: 17, pgcid: 42, count: 1 },
            ServerMsg::GroupReleased { pgcid: 42, from_node: u32::MAX, servers: vec![0, 1, 300] },
            ServerMsg::DmodexReq {
                reply_to: EndpointId(4),
                token: 9,
                proc: p.clone(),
                key: "k".into(),
            },
            ServerMsg::DmodexReply { token: 9, value: None },
            ServerMsg::Notify { event: Event::new(EventCode::Custom(7), None), targets: vec![] },
            ServerMsg::Notify {
                event: Event {
                    code: EventCode::GroupMemberFailed,
                    source: Some(p.clone()),
                    data,
                    ctx: None,
                },
                targets: vec![p.clone(), ProcId::new("j", 2)],
            },
            ServerMsg::InviteReply { group: "grp".into(), from: p, accept: true },
        ];
        msgs.extend(
            every_value().into_iter().map(|v| ServerMsg::DmodexReply { token: 1, value: Some(v) }),
        );
        msgs.extend(
            CODES.map(|code| ServerMsg::Notify { event: Event::new(code, None), targets: vec![] }),
        );
        msgs
    }

    /// Decoding a frame gives back a message that packs to the same bytes.
    /// (Byte equality, not `==`: a NaN payload is never `==` itself.)
    fn assert_roundtrip(msg: &ServerMsg) {
        let bytes = msg.encode();
        let back = ServerMsg::decode(&bytes).unwrap_or_else(|| panic!("{msg:?} must decode"));
        assert_eq!(back.encode(), bytes, "{msg:?} re-encoded differently");
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in every_variant() {
            assert_roundtrip(&msg);
        }
        let nan = ServerMsg::DmodexReply { token: 1, value: Some(PmixValue::F64(f64::NAN)) };
        let Some(ServerMsg::DmodexReply { value: Some(PmixValue::F64(f)), .. }) =
            ServerMsg::decode(&nan.encode())
        else {
            panic!("NaN frame must decode");
        };
        assert_eq!(f.to_bits(), f64::NAN.to_bits(), "NaN keeps its bit pattern");
    }

    #[test]
    fn structure_survives_and_ctx_stays_home() {
        let ctx = obs::Registry::new().span("p", "x", "0").context();
        let event = Event::new(EventCode::GroupInvited, Some(ProcId::new("j", 1)))
            .with("group", "g")
            .with_ctx(Some(ctx));
        let msg = ServerMsg::Notify { event: event.clone(), targets: vec![ProcId::new("j", 0)] };
        let ServerMsg::Notify { event: back, targets } = ServerMsg::decode(&msg.encode()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(back, Event { ctx: None, ..event });
        assert_eq!(targets, vec![ProcId::new("j", 0)]);
        // A NaN payload is never `==` itself; every other message is.
        for msg in every_variant().into_iter().filter(|m| *m == m.clone()) {
            assert_eq!(ServerMsg::decode(&msg.encode()), Some(msg));
        }
    }

    #[test]
    fn every_strict_prefix_and_one_byte_extension_is_rejected() {
        for msg in every_variant() {
            let bytes = msg.encode();
            for n in 0..bytes.len() {
                assert_eq!(ServerMsg::decode(&bytes[..n]), None, "{n}-byte prefix of {msg:?}");
            }
            for b in [0u8, 1, 0x7f, 0x80, 0xff] {
                let mut longer = bytes.to_vec();
                longer.push(b);
                assert_eq!(ServerMsg::decode(&longer), None, "{msg:?} + {b:#x}");
            }
        }
    }

    #[test]
    fn unknown_tags_and_malformed_fields_are_rejected() {
        assert_eq!(ServerMsg::decode(b""), None);
        assert_eq!(ServerMsg::decode(b"not json"), None);
        assert_eq!(ServerMsg::decode(&[0]), None);
        assert_eq!(ServerMsg::decode(&[12]), None);
        // The retired tag 7, with what its frame used to carry.
        assert_eq!(ServerMsg::decode(&[7, 1, b'j', 0]), None);
        // A `u32` field one past its range.
        let mut frame = vec![tag::GROUP_RELEASED, 42];
        put_varint(&mut frame, u32::MAX as u64 + 1);
        frame.push(0);
        assert_eq!(ServerMsg::decode(&frame), None);
        // Invalid UTF-8 in a string, and a non-0/1 bool.
        assert_eq!(ServerMsg::decode(&[tag::DMODEX_REQ, 0, 0, 1, 0xff, 0, 0]), None);
        assert_eq!(ServerMsg::decode(&[tag::INVITE_REPLY, 0, 1, b'j', 0, 2]), None);
        // A varint running past 64 bits.
        let mut frame = vec![tag::PGCID_REPLY];
        frame.extend([0xff; 9]);
        frame.push(0x02);
        frame.extend([0, 0]);
        assert_eq!(ServerMsg::decode(&frame), None);
    }

    /// A length prefix larger than the input is refused before any reserve:
    /// honoured, these counts would ask for exabytes and abort the process.
    #[test]
    fn an_oversized_length_prefix_is_rejected_without_allocating() {
        for n in [5, 1 << 32, 1 << 60, u64::MAX] {
            let mut frame = vec![tag::NOTIFY, 0, 0];
            put_varint(&mut frame, n);
            frame.extend([0; 4]);
            assert_eq!(ServerMsg::decode(&frame), None, "map of {n}");
            let mut frame = vec![tag::GROUP_RELEASED, 1, 0];
            put_varint(&mut frame, n);
            assert_eq!(ServerMsg::decode(&frame), None, "list of {n}");
            let mut frame = vec![tag::DMODEX_REPLY, 1, 1, 5];
            put_varint(&mut frame, n);
            frame.push(0);
            assert_eq!(ServerMsg::decode(&frame), None, "bytes of {n}");
            let mut r = Reader(&frame[4..]);
            assert_eq!(r.len(), None);
        }
    }

    #[test]
    fn equal_maps_pack_to_equal_bytes_whatever_their_insertion_order() {
        let keys: Vec<String> = (0..32).map(|i| format!("key{i}")).collect();
        let forward: HashMap<String, PmixValue> =
            keys.iter().map(|k| (k.clone(), PmixValue::from(k.as_str()))).collect();
        let backward: HashMap<String, PmixValue> =
            keys.iter().rev().map(|k| (k.clone(), PmixValue::from(k.as_str()))).collect();
        let notify = |data| ServerMsg::Notify {
            event: Event { code: EventCode::PsetDefined, source: None, data, ctx: None },
            targets: vec![],
        };
        assert_eq!(notify(forward.clone()).encode(), notify(backward.clone()).encode());
        let contrib = |m| ServerMsg::CollContrib {
            op: op("g"),
            from_node: 0,
            contrib: Contribution { local_members: vec![], kvs: vec![(ProcId::new("j", 0), m)] },
        };
        assert_eq!(contrib(forward).encode(), contrib(backward).encode());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Random messages of every variant, with random-bit floats (NaNs
        /// included), nested values and maps.
        struct AnyMsg;

        fn string(rng: &mut TestRng) -> String {
            let n = rng.below(6);
            (0..n).map(|_| ['a', 'z', 'é', '0', '∑', '-'][rng.below(6)]).collect()
        }

        fn proc(rng: &mut TestRng) -> ProcId {
            ProcId::new(string(rng), rng.next_u64() as u32)
        }

        fn procs(rng: &mut TestRng) -> Vec<ProcId> {
            (0..rng.below(4)).map(|_| proc(rng)).collect()
        }

        fn value(rng: &mut TestRng) -> PmixValue {
            match rng.below(9) {
                0 => PmixValue::Str(string(rng)),
                1 => PmixValue::U64(rng.next_u64() >> rng.below(64)),
                2 => PmixValue::I64(rng.next_u64() as i64 >> rng.below(64)),
                3 => PmixValue::Bool(rng.next_u64() & 1 == 1),
                4 => PmixValue::F64(f64::from_bits(rng.next_u64())),
                5 => PmixValue::Bytes((0..rng.below(8)).map(|_| rng.next_u64() as u8).collect()),
                6 => PmixValue::ProcList(procs(rng)),
                7 => PmixValue::StrList((0..rng.below(4)).map(|_| string(rng)).collect()),
                _ => PmixValue::VersionedProcList { epoch: rng.next_u64(), members: procs(rng) },
            }
        }

        fn map(rng: &mut TestRng) -> HashMap<String, PmixValue> {
            (0..rng.below(5)).map(|_| (string(rng), value(rng))).collect()
        }

        fn op_id(rng: &mut TestRng) -> OpId {
            let kind = if rng.next_u64() & 1 == 0 { OpKind::Fence } else { OpKind::GroupConstruct };
            OpId { kind, name: string(rng), mhash: rng.next_u64(), epoch: rng.next_u64() >> 40 }
        }

        fn event(rng: &mut TestRng) -> Event {
            let code = match rng.below(9) {
                8 => EventCode::Custom(rng.next_u64() as u32),
                i => CODES[i],
            };
            let source = (rng.next_u64() & 1 == 1).then(|| proc(rng));
            Event { code, source, data: map(rng), ctx: None }
        }

        impl Strategy for AnyMsg {
            type Value = ServerMsg;
            fn generate(&self, rng: &mut TestRng) -> ServerMsg {
                match rng.below(10) {
                    0 => ServerMsg::CollContrib {
                        op: op_id(rng),
                        from_node: rng.next_u64() as u32,
                        contrib: Contribution {
                            local_members: procs(rng),
                            kvs: (0..rng.below(3)).map(|_| (proc(rng), map(rng))).collect(),
                        },
                    },
                    1 => ServerMsg::CollPgcid { op: op_id(rng), pgcid: rng.next_u64() },
                    2 => ServerMsg::CollAbort {
                        op: op_id(rng),
                        reason: if rng.next_u64() & 1 == 0 {
                            AbortReason::Timeout
                        } else {
                            AbortReason::ProcTerminated(proc(rng))
                        },
                    },
                    3 => ServerMsg::PgcidRequest {
                        reply_to: EndpointId(rng.next_u64()),
                        token: rng.next_u64(),
                        count: rng.next_u64() >> 32,
                    },
                    4 => ServerMsg::PgcidReply {
                        token: rng.next_u64(),
                        pgcid: rng.next_u64(),
                        count: rng.next_u64() >> 48,
                    },
                    5 => ServerMsg::GroupReleased {
                        pgcid: rng.next_u64(),
                        from_node: rng.next_u64() as u32,
                        servers: (0..rng.below(5)).map(|_| rng.next_u64() as u32 >> 20).collect(),
                    },
                    6 => ServerMsg::DmodexReq {
                        reply_to: EndpointId(rng.next_u64() >> 50),
                        token: rng.next_u64(),
                        proc: proc(rng),
                        key: string(rng),
                    },
                    7 => ServerMsg::DmodexReply {
                        token: rng.next_u64(),
                        value: (rng.next_u64() & 1 == 1).then(|| value(rng)),
                    },
                    8 => ServerMsg::Notify { event: event(rng), targets: procs(rng) },
                    _ => ServerMsg::InviteReply {
                        group: string(rng),
                        from: proc(rng),
                        accept: rng.next_u64() & 1 == 1,
                    },
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            #[test]
            fn random_messages_roundtrip(msg in AnyMsg) {
                assert_roundtrip(&msg);
            }

            /// Arbitrary bytes, and valid frames with one byte flipped,
            /// decode to `None` or to a message that packs back to exactly
            /// those bytes: never a panic, never a second spelling.
            #[test]
            fn random_bytes_never_panic(
                junk in collection::vec(0u8..=255, 0..64),
                msg in AnyMsg,
                at: usize,
                flip: u8,
            ) {
                if let Some(m) = ServerMsg::decode(&junk) {
                    prop_assert_eq!(&m.encode()[..], &junk[..]);
                }
                let mut bytes = msg.encode().to_vec();
                let i = at % bytes.len();
                bytes[i] ^= flip | 1;
                if let Some(other) = ServerMsg::decode(&bytes) {
                    prop_assert_eq!(&other.encode()[..], &bytes[..]);
                }
            }
        }
    }

    #[test]
    fn abort_reason_to_error() {
        assert_eq!(AbortReason::Timeout.to_error(), PmixError::Timeout);
        let p = ProcId::new("j", 1);
        assert_eq!(AbortReason::ProcTerminated(p.clone()).to_error(), PmixError::ProcTerminated(p));
    }
}
