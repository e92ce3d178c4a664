//! PMIx values: the typed payloads stored in the key-value store and
//! returned by queries (`pmix_value_t`).

use crate::types::ProcId;

/// A typed PMIx value.
#[derive(Debug, Clone, PartialEq)]
pub enum PmixValue {
    /// UTF-8 string.
    Str(String),
    /// Unsigned 64-bit integer (PGCIDs, sizes, endpoints).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean flag.
    Bool(bool),
    /// Double-precision float.
    F64(f64),
    /// Raw bytes (business cards, opaque blobs).
    Bytes(Vec<u8>),
    /// A list of process identifiers (pset membership, group members).
    ProcList(Vec<ProcId>),
    /// A list of strings (pset names).
    StrList(Vec<String>),
    /// A proc list stamped with the registry epoch it was read at.
    /// Membership queries return this so clients can detect torn reads
    /// against a names/count answer taken at a different epoch.
    VersionedProcList {
        /// Global pset-registry epoch at the time of the read.
        epoch: u64,
        /// The membership at that epoch.
        members: Vec<ProcId>,
    },
}

impl PmixValue {
    /// Interpret as string, if possible.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PmixValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret as u64, if possible.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            PmixValue::U64(v) => Some(*v),
            PmixValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Interpret as bool, if possible.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            PmixValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interpret as a proc list, if possible. Versioned lists answer too:
    /// callers that don't care about the epoch see just the members.
    pub fn as_proc_list(&self) -> Option<&[ProcId]> {
        match self {
            PmixValue::ProcList(v) => Some(v),
            PmixValue::VersionedProcList { members, .. } => Some(members),
            _ => None,
        }
    }

    /// Interpret as an epoch-stamped proc list, if possible.
    pub fn as_versioned_proc_list(&self) -> Option<(u64, &[ProcId])> {
        match self {
            PmixValue::VersionedProcList { epoch, members } => Some((*epoch, members)),
            _ => None,
        }
    }

    /// Interpret as a string list, if possible.
    pub fn as_str_list(&self) -> Option<&[String]> {
        match self {
            PmixValue::StrList(v) => Some(v),
            _ => None,
        }
    }

    /// Interpret as bytes, if possible.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            PmixValue::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl From<&str> for PmixValue {
    fn from(s: &str) -> Self {
        PmixValue::Str(s.to_owned())
    }
}
impl From<String> for PmixValue {
    fn from(s: String) -> Self {
        PmixValue::Str(s)
    }
}
impl From<u64> for PmixValue {
    fn from(v: u64) -> Self {
        PmixValue::U64(v)
    }
}
impl From<bool> for PmixValue {
    fn from(v: bool) -> Self {
        PmixValue::Bool(v)
    }
}
impl From<Vec<u8>> for PmixValue {
    fn from(v: Vec<u8>) -> Self {
        PmixValue::Bytes(v)
    }
}
impl From<Vec<ProcId>> for PmixValue {
    fn from(v: Vec<ProcId>) -> Self {
        PmixValue::ProcList(v)
    }
}

/// Well-known PMIx attribute/query keys used by this reproduction.
pub mod keys {
    /// Number of processes in the namespace (job).
    pub const JOB_SIZE: &str = "pmix.job.size";
    /// Ranks of the processes on the caller's node, comma-separated.
    pub const LOCAL_PEERS: &str = "pmix.lpeers";
    /// The caller's rank on its node.
    pub const LOCAL_RANK: &str = "pmix.lrank";
    /// The caller's node id.
    pub const NODE_ID: &str = "pmix.nodeid";
    /// Fabric endpoint of a process ("business card").
    pub const ENDPOINT: &str = "pmix.endpoint";
    /// Query: number of defined process sets.
    pub const QUERY_NUM_PSETS: &str = "pmix.qry.psetnum";
    /// Query: names of defined process sets.
    pub const QUERY_PSET_NAMES: &str = "pmix.qry.psets";
    /// Query: membership of one process set (passed with the pset name).
    pub const QUERY_PSET_MEMBERSHIP: &str = "pmix.qry.psetmems";
    /// Query: current global pset-registry epoch.
    pub const QUERY_PSET_EPOCH: &str = "pmix.qry.psetepoch";
    /// Event payload: name of the pset a change event is about.
    pub const PSET_NAME: &str = "pmix.pset.name";
    /// Event payload: registry epoch at which the change took effect.
    pub const PSET_EPOCH: &str = "pmix.pset.epoch";
    /// Event payload: pset membership after the change.
    pub const PSET_MEMBERS: &str = "pmix.pset.members";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_accessors() {
        assert_eq!(PmixValue::from("x").as_str(), Some("x"));
        assert_eq!(PmixValue::from(7u64).as_u64(), Some(7));
        assert_eq!(PmixValue::I64(7).as_u64(), Some(7));
        assert_eq!(PmixValue::I64(-7).as_u64(), None);
        assert_eq!(PmixValue::from(true).as_bool(), Some(true));
        assert_eq!(PmixValue::from(vec![1u8, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert!(PmixValue::from("x").as_u64().is_none());
    }

    #[test]
    fn proc_list_roundtrip() {
        use crate::wire::ServerMsg;
        let v = PmixValue::ProcList(vec![ProcId::new("j", 0), ProcId::new("j", 1)]);
        let msg = ServerMsg::DmodexReply { token: 1, value: Some(v.clone()) };
        let Some(ServerMsg::DmodexReply { value: Some(w), .. }) = ServerMsg::decode(&msg.encode())
        else {
            panic!("a DmodexReply frame decodes to itself");
        };
        assert_eq!(v, w);
        assert_eq!(w.as_proc_list().unwrap().len(), 2);
    }
}
