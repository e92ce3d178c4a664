//! MPI_Info objects.
//!
//! Per the Sessions proposal (paper §III-B5), info objects must be fully
//! usable *before* any MPI initialization call and must be thread-safe
//! regardless of the eventual thread-support level — hence the always-on
//! internal lock (the prototype "always enables" these locks; they are off
//! the communication critical path).

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A thread-safe string key/value dictionary (`MPI_Info`).
#[derive(Clone, Default)]
pub struct Info {
    map: Arc<RwLock<BTreeMap<String, String>>>,
}

impl Info {
    /// `MPI_Info_create`.
    pub fn new() -> Self {
        Self::default()
    }

    /// The null info object (`MPI_INFO_NULL`): empty and shareable.
    pub fn null() -> Self {
        Self::default()
    }

    /// `MPI_Info_set`.
    pub fn set(&self, key: &str, value: &str) {
        self.map.write().insert(key.to_owned(), value.to_owned());
    }

    /// `MPI_Info_get`.
    pub fn get(&self, key: &str) -> Option<String> {
        self.map.read().get(key).cloned()
    }

    /// `MPI_Info_delete`. Returns whether the key existed.
    pub fn delete(&self, key: &str) -> bool {
        self.map.write().remove(key).is_some()
    }

    /// `MPI_Info_get_nkeys`.
    pub fn nkeys(&self) -> usize {
        self.map.read().len()
    }

    /// `MPI_Info_get_nthkey` (keys are sorted, as iteration order must be
    /// stable).
    pub fn nth_key(&self, n: usize) -> Option<String> {
        self.map.read().keys().nth(n).cloned()
    }

    /// `MPI_Info_dup`: a deep copy (mutations do not alias).
    pub fn dup(&self) -> Self {
        Self { map: Arc::new(RwLock::new(self.map.read().clone())) }
    }

    /// Typed convenience: parse a value as an integer.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(|v| v.parse().ok())
    }

    /// Typed convenience: parse a value as a boolean ("true"/"false").
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(|v| v.parse().ok())
    }
}

impl std::fmt::Debug for Info {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.map.read().iter()).finish()
    }
}

/// Well-known info keys understood by this implementation.
pub mod keys {
    /// Eager/rendezvous protocol switchover size in bytes (PML tuning).
    pub const EAGER_LIMIT: &str = "mpi_eager_limit";
    /// Force the legacy consensus CID algorithm even when exCIDs are
    /// available ("thread_level" of CID selection; used by benchmarks to
    /// compare both paths).
    pub const FORCE_CONSENSUS_CID: &str = "mpi_force_consensus_cid";
    /// `mpi_thread_support_level` info key on sessions (per the proposal).
    pub const THREAD_LEVEL: &str = "thread_level";
    /// Session initialization mode: `"eager"` (default; endpoints known up
    /// front) or `"lazy"` (fence-free init with on-demand peer resolution;
    /// see DESIGN.md §14). This key is the mode's only source: a session
    /// without it (or with any other value) is eager.
    pub const INIT_MODE: &str = "init_mode";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_delete() {
        let info = Info::new();
        assert_eq!(info.nkeys(), 0);
        info.set("a", "1");
        info.set("b", "2");
        assert_eq!(info.get("a").as_deref(), Some("1"));
        assert_eq!(info.nkeys(), 2);
        assert!(info.delete("a"));
        assert!(!info.delete("a"));
        assert_eq!(info.get("a"), None);
    }

    #[test]
    fn nth_key_is_sorted() {
        let info = Info::new();
        info.set("zeta", "");
        info.set("alpha", "");
        assert_eq!(info.nth_key(0).as_deref(), Some("alpha"));
        assert_eq!(info.nth_key(1).as_deref(), Some("zeta"));
        assert_eq!(info.nth_key(2), None);
    }

    #[test]
    fn dup_is_deep() {
        let info = Info::new();
        info.set("k", "v");
        let copy = info.dup();
        info.set("k", "changed");
        assert_eq!(copy.get("k").as_deref(), Some("v"));
    }

    #[test]
    fn clone_aliases_but_dup_does_not() {
        let info = Info::new();
        let alias = info.clone();
        info.set("x", "1");
        assert_eq!(alias.get("x").as_deref(), Some("1"));
    }

    #[test]
    fn typed_getters() {
        let info = Info::new();
        info.set("n", "42");
        info.set("flag", "true");
        info.set("junk", "xyz");
        assert_eq!(info.get_int("n"), Some(42));
        assert_eq!(info.get_bool("flag"), Some(true));
        assert_eq!(info.get_int("junk"), None);
        assert_eq!(info.get_int("missing"), None);
    }

    #[test]
    fn info_is_usable_from_many_threads_pre_init() {
        // The Sessions proposal requires info calls to be thread-safe even
        // before any initialization; exercise concurrent mutation.
        let info = Info::new();
        let mut handles = Vec::new();
        for t in 0..8 {
            let info = info.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    info.set(&format!("k{t}-{i}"), "v");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(info.nkeys(), 800);
    }
}
