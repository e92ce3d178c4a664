//! The message envelope carried by the fabric.

use crate::endpoint::EndpointId;
use bytes::Bytes;
use obs::TraceContext;

/// A message as delivered to a destination endpoint's mailbox.
///
/// The fabric is payload-agnostic and carries a message as a **gather of
/// two segments**, like a NIC descriptor with a header segment and a data
/// segment: `payload` is the *head* — the wire header a higher layer
/// serialized for this message — and `body` is the data it describes,
/// handed through by reference count from the sender's buffer to the
/// receiver's, never copied into a frame. A layer with nothing to gather
/// (PMIx, PRRTE, raw endpoint users) puts its whole message in the head
/// and leaves the body empty; that is what [`Envelope::new`] and
/// `Endpoint::send` spell.
///
/// The wire length of a message is head + body: that sum is what
/// [`Envelope::len`] reports, what the cost model charges bandwidth for,
/// what the `bytes_*` counters add and what a fault hook is shown, so
/// splitting a frame into two segments changes no number anywhere.
///
/// Besides the two segments, an envelope can piggyback the sender's current
/// [`TraceContext`] — a 24-byte `(trace, span, clock)` triple — so causal
/// tracing crosses process boundaries. The context is metadata: it is
/// excluded from `len()` and from equality (the fabric's delivery
/// bookkeeping compares src/dst/head/body).
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending endpoint.
    pub src: EndpointId,
    /// Destination endpoint.
    pub dst: EndpointId,
    /// Head segment: the wire header (or, for a body-less message, the
    /// whole message) owned by the protocol layered above the fabric.
    pub payload: Bytes,
    /// Body segment: the data the head describes; empty when the protocol
    /// has nothing to gather.
    pub body: Bytes,
    /// Piggybacked trace context of the sender's current span, if any.
    pub ctx: Option<TraceContext>,
}

impl Envelope {
    /// Construct a body-less envelope carrying no trace context.
    pub fn new(src: EndpointId, dst: EndpointId, payload: Bytes) -> Self {
        Self::gather(src, dst, payload, Bytes::new(), None)
    }

    /// The one constructor: a head segment, a body segment and an optional
    /// piggybacked trace context.
    pub fn gather(
        src: EndpointId,
        dst: EndpointId,
        head: Bytes,
        body: Bytes,
        ctx: Option<TraceContext>,
    ) -> Self {
        Envelope { src, dst, payload: head, body, ctx }
    }

    /// Wire length in bytes, head + body (what the cost model charges for).
    pub fn len(&self) -> usize {
        self.payload.len() + self.body.len()
    }

    /// True when both segments are empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty() && self.body.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_reports_len() {
        let e = Envelope::new(EndpointId(1), EndpointId(2), Bytes::from_static(b"abcd"));
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
        assert!(Envelope::new(EndpointId(1), EndpointId(2), Bytes::new()).is_empty());
    }

    #[test]
    fn len_is_head_plus_body() {
        let gather = |head: &'static [u8], body: &'static [u8]| {
            let (head, body) = (Bytes::from_static(head), Bytes::from_static(body));
            Envelope::gather(EndpointId(1), EndpointId(2), head, body, None)
        };
        let e = gather(b"hdr", b"payload");
        assert_eq!(e.len(), 10);
        assert!(!e.is_empty());
        assert!(!gather(b"", b"x").is_empty(), "a body alone is not empty");
        assert!(gather(b"", b"").is_empty());
        // Equality is over both segments, not over their concatenation.
        assert_eq!(e, gather(b"hdr", b"payload"));
        assert_ne!(e, gather(b"hdr", b"PAYLOAD"));
        assert_ne!(e, gather(b"hdrpayload", b""));
    }

    #[test]
    fn envelope_clone_shares_payload() {
        let payload = Bytes::from(vec![0u8; 1024]);
        let e = Envelope::new(EndpointId(1), EndpointId(2), payload.clone());
        let f = e.clone();
        // Bytes clones share the same backing storage.
        assert_eq!(f.payload.as_ptr(), payload.as_ptr());
    }
}
