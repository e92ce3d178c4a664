//! Wire headers for the ob1-style point-to-point messaging layer.
//!
//! The **match header** packs to exactly 14 bytes, like Open MPI ob1's
//! `mca_pml_ob1_match_hdr_t` — the paper stresses that the header was
//! "designed to be as compact as possible to limit the overhead of
//! messaging", which is why the 64-bit PGCID could not simply replace the
//! 16-bit CID field (§III-B3).
//!
//! When a communicator has an exCID and the sender has not yet learned the
//! receiver's local CID, an 18-byte **extended header** (16-byte exCID +
//! sender's local CID) follows the match header (§III-B4).
//!
//! Everything here is a **head**, the first of the two segments a fabric
//! message gathers (`simnet::Envelope`), exactly as long as its kind says
//! (shorter, or with bytes left over, and the frame is dropped). A payload
//! is never serialized: it is the envelope's body, the sender's `Bytes` by
//! handle, on eager and `RdvData` frames (DESIGN.md §16).

use crate::cid::ExCid;

/// Message kinds on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Eager send: header; the body is the payload.
    Eager = 1,
    /// Eager send with extended (exCID) header.
    EagerExt = 2,
    /// Rendezvous request-to-send: header + size + send-request id.
    Rts = 3,
    /// RTS with extended header.
    RtsExt = 4,
    /// Clear-to-send: send-request id + recv-request id.
    Cts = 5,
    /// Rendezvous payload: recv-request id; the body is the payload.
    RdvData = 6,
    /// Receiver → sender: "for this exCID my local CID is X" (the ACK of
    /// the first-message handshake).
    CidAck = 7,
    /// Unsolicited CID advertisement: a process that already completed a
    /// handshake with this peer on an earlier communicator of the same
    /// group pushes its local CID for a *new* exCID, letting the peer skip
    /// the extended-header exchange entirely (the handshake cache).
    CidAdvert = 8,
}

impl MsgKind {
    /// Parse from the wire byte.
    pub fn from_u8(v: u8) -> Option<MsgKind> {
        Some(match v {
            1 => MsgKind::Eager,
            2 => MsgKind::EagerExt,
            3 => MsgKind::Rts,
            4 => MsgKind::RtsExt,
            5 => MsgKind::Cts,
            6 => MsgKind::RdvData,
            7 => MsgKind::CidAck,
            8 => MsgKind::CidAdvert,
            _ => return None,
        })
    }

    /// Whether this kind carries the extended header.
    pub fn has_ext(&self) -> bool {
        matches!(self, MsgKind::EagerExt | MsgKind::RtsExt)
    }
}

/// Size of the packed match header.
pub const MATCH_HEADER_LEN: usize = 14;
/// Size of the packed extended header.
pub const EXT_HEADER_LEN: usize = 18;

/// The 14-byte match header.
///
/// Layout (little-endian): `kind:u8 | flags:u8 | ctx:u16 | src:i32 |
/// tag:i32 | seq:u16` = 14 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchHeader {
    /// Message kind.
    pub kind: MsgKind,
    /// Flags (reserved; kept for header-size fidelity).
    pub flags: u8,
    /// Communicator context id — the *receiver's* local CID once known.
    /// Extended-header messages are addressed by exCID instead (and carry
    /// the sender's local CID in [`ExtHeader::sender_cid`]), so there this
    /// field holds the exCID's incarnation: which registration of a
    /// recycled exCID the message belongs to.
    pub ctx: u16,
    /// Sender's rank within the communicator.
    pub src: i32,
    /// Message tag.
    pub tag: i32,
    /// Per-(peer, communicator) sequence number.
    pub seq: u16,
}

impl MatchHeader {
    /// Pack into exactly [`MATCH_HEADER_LEN`] bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.kind as u8);
        out.push(self.flags);
        out.extend_from_slice(&self.ctx.to_le_bytes());
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
    }

    /// Unpack from at least [`MATCH_HEADER_LEN`] bytes.
    pub fn decode(b: &[u8]) -> Option<(MatchHeader, &[u8])> {
        if b.len() < MATCH_HEADER_LEN {
            return None;
        }
        let kind = MsgKind::from_u8(b[0])?;
        let hdr = MatchHeader {
            kind,
            flags: b[1],
            ctx: u16::from_le_bytes([b[2], b[3]]),
            src: i32::from_le_bytes([b[4], b[5], b[6], b[7]]),
            tag: i32::from_le_bytes([b[8], b[9], b[10], b[11]]),
            seq: u16::from_le_bytes([b[12], b[13]]),
        };
        Some((hdr, &b[MATCH_HEADER_LEN..]))
    }
}

/// The extended header: exCID plus the sender's local CID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtHeader {
    /// The communicator's exCID.
    pub excid: ExCid,
    /// Sender's local CID for this communicator.
    pub sender_cid: u16,
}

impl ExtHeader {
    /// Pack into exactly [`EXT_HEADER_LEN`] bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.excid.encode());
        out.extend_from_slice(&self.sender_cid.to_le_bytes());
    }

    /// Unpack.
    pub fn decode(b: &[u8]) -> Option<(ExtHeader, &[u8])> {
        if b.len() < EXT_HEADER_LEN {
            return None;
        }
        let excid = ExCid::decode(&b[..16]);
        let sender_cid = u16::from_le_bytes([b[16], b[17]]);
        Some((ExtHeader { excid, sender_cid }, &b[EXT_HEADER_LEN..]))
    }
}

/// Body of the two control frames that tell a peer "for this exCID my
/// local CID is X": [`MsgKind::CidAck`] answers an extended header,
/// [`MsgKind::CidAdvert`] is pushed proactively from the handshake cache.
/// One wire shape, two kinds — the kind byte is the only difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CidInfo {
    /// Which communicator (by exCID).
    pub excid: ExCid,
    /// The sender's local CID for it.
    pub cid: u16,
    /// The sender's rank within the communicator.
    pub rank: u32,
    /// Which registration of the (recyclable) exCID the sender speaks for.
    pub incarnation: u16,
}

impl CidInfo {
    /// Packed body length (after the kind byte).
    pub const BODY_LEN: usize = 16 + 2 + 4 + 2;

    /// Serialize (kind byte + body) as a `CidAck` or `CidAdvert`.
    pub fn encode(&self, kind: MsgKind) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + Self::BODY_LEN);
        out.push(kind as u8);
        out.extend_from_slice(&self.excid.encode());
        out.extend_from_slice(&self.cid.to_le_bytes());
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&self.incarnation.to_le_bytes());
        out
    }

    /// Deserialize the body (after the kind byte).
    pub fn decode_body(b: &[u8]) -> Option<CidInfo> {
        if b.len() != Self::BODY_LEN {
            return None;
        }
        Some(CidInfo {
            excid: ExCid::decode(&b[..16]),
            cid: u16::from_le_bytes([b[16], b[17]]),
            rank: u32::from_le_bytes([b[18], b[19], b[20], b[21]]),
            incarnation: u16::from_le_bytes([b[22], b[23]]),
        })
    }
}

/// Clear-to-send: the receiver matched an RTS and names both request ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cts {
    /// Sender-side request id, echoed from the RTS.
    pub send_req: u64,
    /// Receiver-side request id the payload must be addressed to.
    pub recv_req: u64,
}

impl Cts {
    /// Serialize (kind byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 16);
        out.push(MsgKind::Cts as u8);
        out.extend_from_slice(&self.send_req.to_le_bytes());
        out.extend_from_slice(&self.recv_req.to_le_bytes());
        out
    }

    /// Deserialize the body (after the kind byte).
    pub fn decode_body(b: &[u8]) -> Option<Cts> {
        if b.len() != 16 {
            return None;
        }
        Some(Cts {
            send_req: u64::from_le_bytes(b[..8].try_into().ok()?),
            recv_req: u64::from_le_bytes(b[8..16].try_into().ok()?),
        })
    }
}

/// Rendezvous payload head: the receiver-side request id (from the CTS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdvData(pub u64);

impl RdvData {
    /// Serialize (kind byte + request id).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 8);
        out.push(MsgKind::RdvData as u8);
        out.extend_from_slice(&self.0.to_le_bytes());
        out
    }

    /// Deserialize the body (after the kind byte).
    pub fn decode_body(b: &[u8]) -> Option<RdvData> {
        Some(RdvData(u64::from_le_bytes(b.try_into().ok()?)))
    }
}

/// Rendezvous control fields carried by RTS messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtsInfo {
    /// Total payload size the sender wants to transfer.
    pub size: u64,
    /// Sender-side request id (echoed in the CTS).
    pub send_req: u64,
}

impl RtsInfo {
    /// Pack (16 bytes).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.send_req.to_le_bytes());
    }

    /// Unpack.
    pub fn decode(b: &[u8]) -> Option<(RtsInfo, &[u8])> {
        if b.len() < 16 {
            return None;
        }
        Some((
            RtsInfo {
                size: u64::from_le_bytes(b[..8].try_into().ok()?),
                send_req: u64::from_le_bytes(b[8..16].try_into().ok()?),
            },
            &b[16..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_header_is_exactly_14_bytes() {
        let h = MatchHeader {
            kind: MsgKind::Eager,
            flags: 0,
            ctx: 513,
            src: -1,
            tag: 99,
            seq: 7,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), MATCH_HEADER_LEN);
        let (back, rest) = MatchHeader::decode(&buf).unwrap();
        assert_eq!(back, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn ext_header_is_exactly_18_bytes() {
        let e = ExtHeader { excid: ExCid::from_pgcid(77), sender_cid: 3 };
        let mut buf = Vec::new();
        e.encode(&mut buf);
        assert_eq!(buf.len(), EXT_HEADER_LEN);
        let (back, rest) = ExtHeader::decode(&buf).unwrap();
        assert_eq!(back, e);
        assert!(rest.is_empty());
    }

    #[test]
    fn cid_info_roundtrips_under_both_kinds() {
        let info = CidInfo { excid: ExCid::from_pgcid(5), cid: 12, rank: 3, incarnation: 9 };
        for kind in [MsgKind::CidAck, MsgKind::CidAdvert] {
            let bytes = info.encode(kind);
            assert_eq!(bytes[0], kind as u8);
            assert_eq!(CidInfo::decode_body(&bytes[1..]).unwrap(), info);
        }
    }

    #[test]
    fn cts_and_rdv_data_roundtrip_and_reject_truncation() {
        let cts = Cts { send_req: 1 << 40, recv_req: 7 };
        let bytes = cts.encode();
        assert_eq!(bytes.len(), 17);
        assert_eq!(bytes[0], MsgKind::Cts as u8);
        assert_eq!(Cts::decode_body(&bytes[1..]).unwrap(), cts);
        assert!(Cts::decode_body(&bytes[1..16]).is_none(), "15-byte body");

        assert!(Cts::decode_body(&[&bytes[1..], &[0]].concat()).is_none(), "17-byte body");

        let rdv = RdvData(9);
        let head = rdv.encode();
        assert_eq!(head.len(), 9);
        assert_eq!(head[0], MsgKind::RdvData as u8);
        assert_eq!(RdvData::decode_body(&head[1..]).unwrap(), rdv);
        assert!(RdvData::decode_body(&head[1..8]).is_none(), "7-byte body");
        assert!(RdvData::decode_body(&[&head[1..], &[0]].concat()).is_none(), "9-byte body");
    }

    #[test]
    fn rts_info_roundtrip() {
        let r = RtsInfo { size: 1 << 40, send_req: 9 };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (back, rest) = RtsInfo::decode(&buf).unwrap();
        assert_eq!(back, r);
        assert!(rest.is_empty());
    }

    #[test]
    fn kind_parse_rejects_garbage() {
        assert!(MsgKind::from_u8(0).is_none());
        assert!(MsgKind::from_u8(200).is_none());
        assert!(MsgKind::from_u8(2).unwrap().has_ext());
        assert!(!MsgKind::from_u8(1).unwrap().has_ext());
    }

    #[test]
    fn truncated_headers_rejected() {
        assert!(MatchHeader::decode(&[1u8; 13]).is_none());
        assert!(ExtHeader::decode(&[0u8; 17]).is_none());
        assert!(CidInfo::decode_body(&[0u8; CidInfo::BODY_LEN - 1]).is_none());
        assert!(CidInfo::decode_body(&[0u8; CidInfo::BODY_LEN + 1]).is_none());
        assert!(RtsInfo::decode(&[0u8; 15]).is_none());
    }
}
