//! Core PMIx identifiers.

use std::sync::Arc;

/// A process rank within a namespace (PMIx `pmix_rank_t`).
pub type Rank = u32;

/// Fully-qualified PMIx process identifier: namespace plus rank
/// (`pmix_proc_t`).
///
/// The namespace string is reference-counted: `ProcId`s are copied around
/// heavily in group membership lists and wire messages.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId {
    nspace: Arc<str>,
    rank: Rank,
}

impl ProcId {
    /// Create a proc id.
    pub fn new(nspace: impl Into<Arc<str>>, rank: Rank) -> Self {
        Self { nspace: nspace.into(), rank }
    }

    /// The namespace (job) this process belongs to.
    pub fn nspace(&self) -> &str {
        &self.nspace
    }

    /// The shared namespace handle (cheap to clone).
    pub fn nspace_arc(&self) -> Arc<str> {
        self.nspace.clone()
    }

    /// The rank within the namespace.
    pub fn rank(&self) -> Rank {
        self.rank
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.nspace, self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_id_accessors() {
        let p = ProcId::new("prterun-42", 7);
        assert_eq!(p.nspace(), "prterun-42");
        assert_eq!(p.rank(), 7);
        assert_eq!(p.to_string(), "prterun-42:7");
    }

    #[test]
    fn proc_id_ordering_is_nspace_then_rank() {
        let a = ProcId::new("a", 9);
        let b = ProcId::new("b", 0);
        let a2 = ProcId::new("a", 10);
        assert!(a < b);
        assert!(a < a2);
    }

    #[test]
    fn proc_id_codec_roundtrip() {
        use crate::wire::ServerMsg;
        let p = ProcId::new("job", 3);
        let msg = ServerMsg::InviteReply { group: "g".into(), from: p.clone(), accept: true };
        let Some(ServerMsg::InviteReply { from: q, .. }) = ServerMsg::decode(&msg.encode()) else {
            panic!("an InviteReply frame decodes to itself");
        };
        assert_eq!(p, q);
    }

    #[test]
    fn proc_id_hash_equality() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ProcId::new("j", 1));
        assert!(set.contains(&ProcId::new("j", 1)));
        assert!(!set.contains(&ProcId::new("j", 2)));
    }
}
