//! PMIx event notification.
//!
//! The reference implementation's event subsystem delivers asynchronous
//! notifications (process termination, group membership changes, group
//! invitations) to registered clients. We model registration as a channel
//! subscription filtered by event code; clients poll or block on their
//! [`EventStream`].

use crate::types::ProcId;
use crate::value::PmixValue;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::time::Duration;

/// Event codes (subset of `pmix_status_t` event space used here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventCode {
    /// A process terminated without deregistering (abnormal exit).
    ProcTerminated,
    /// A member of a group the receiver belongs to failed.
    GroupMemberFailed,
    /// A member left a group the receiver belongs to.
    GroupMemberLeft,
    /// A group the receiver belongs to was destructed collectively.
    GroupDestructed,
    /// The receiver is invited to join a group (async construct).
    GroupInvited,
    /// A process set was defined (or redefined) in the registry.
    PsetDefined,
    /// The membership of an existing process set changed (grow/shrink).
    PsetMembership,
    /// A process set was deleted from the registry.
    PsetDeleted,
    /// Application-defined event.
    Custom(u32),
}

/// An asynchronous notification.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What happened.
    pub code: EventCode,
    /// The process the event is about (the dead process, the leaver, the
    /// inviter...), when applicable.
    pub source: Option<ProcId>,
    /// Event payload (group name, PGCID, ...).
    pub data: HashMap<String, PmixValue>,
    /// Causal trace context of the operation that emitted the event.
    /// Only survives local (same-universe) delivery: the wire format skips
    /// it (span ids are registry-local), which is harmless — cross-node
    /// consumers re-root their spans.
    pub ctx: Option<obs::TraceContext>,
}

impl Event {
    /// Build an event with no payload.
    pub fn new(code: EventCode, source: Option<ProcId>) -> Self {
        Self { code, source, data: HashMap::new(), ctx: None }
    }

    /// Attach a payload entry.
    pub fn with(mut self, key: &str, value: impl Into<PmixValue>) -> Self {
        self.data.insert(key.to_owned(), value.into());
        self
    }

    /// Attach a causal trace context (kept on local delivery only).
    pub fn with_ctx(mut self, ctx: Option<obs::TraceContext>) -> Self {
        self.ctx = ctx;
        self
    }

    /// Fetch a payload entry.
    pub fn get(&self, key: &str) -> Option<&PmixValue> {
        self.data.get(key)
    }
}

/// A client's subscription to events. `codes: None` subscribes to all.
pub(crate) struct Subscription {
    pub codes: Option<Vec<EventCode>>,
    pub tx: Sender<Event>,
}

impl Subscription {
    pub fn matches(&self, code: EventCode) -> bool {
        match &self.codes {
            None => true,
            Some(cs) => cs.contains(&code),
        }
    }
}

/// Receiving half of an event subscription.
pub struct EventStream {
    rx: Receiver<Event>,
}

impl EventStream {
    /// Create a subscription pair.
    pub(crate) fn pair(codes: Option<Vec<EventCode>>) -> (Subscription, EventStream) {
        let (tx, rx) = unbounded();
        (Subscription { codes, tx }, EventStream { rx })
    }

    /// Poll for an event without blocking.
    pub fn try_next(&self) -> Option<Event> {
        self.rx.try_recv().ok()
    }

    /// Wait up to `timeout` for an event.
    pub fn next_timeout(&self, timeout: Duration) -> Option<Event> {
        simnet::turn::catch_up();
        self.rx.recv_timeout(timeout).ok()
    }

    /// Number of queued events.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_builder_and_payload() {
        let e = Event::new(EventCode::GroupInvited, Some(ProcId::new("j", 0)))
            .with("group", "g1")
            .with("pgcid", 42u64);
        assert_eq!(e.get("group").unwrap().as_str(), Some("g1"));
        assert_eq!(e.get("pgcid").unwrap().as_u64(), Some(42));
        assert!(e.get("missing").is_none());
    }

    #[test]
    fn subscription_filtering() {
        let (sub, _stream) = EventStream::pair(Some(vec![EventCode::ProcTerminated]));
        assert!(sub.matches(EventCode::ProcTerminated));
        assert!(!sub.matches(EventCode::GroupInvited));
        let (all, _stream) = EventStream::pair(None);
        assert!(all.matches(EventCode::Custom(9)));
    }

    #[test]
    fn stream_delivery() {
        let (sub, stream) = EventStream::pair(None);
        sub.tx.send(Event::new(EventCode::Custom(1), None)).unwrap();
        assert_eq!(stream.pending(), 1);
        assert_eq!(stream.try_next().unwrap().code, EventCode::Custom(1));
        assert!(stream.try_next().is_none());
    }

    /// `Duration::MAX` is past the end of `Instant`'s range: no deadline.
    #[test]
    fn next_timeout_max_returns_a_queued_event() {
        let (sub, stream) = EventStream::pair(None);
        sub.tx.send(Event::new(EventCode::Custom(2), None)).unwrap();
        assert_eq!(stream.next_timeout(Duration::MAX).unwrap().code, EventCode::Custom(2));
    }
}
