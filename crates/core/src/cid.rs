//! Communicator identifiers: the 128-bit extended CID (exCID) and its
//! derivation rules (paper §III-B3).
//!
//! An exCID is two 64-bit fields:
//!
//! * the **PGCID** obtained from PMIx group construction (non-zero; `0`
//!   marks built-in World-Process-Model communicators);
//! * a **derivation** field of eight 8-bit subfields used to name derived
//!   communicators (`MPI_Comm_dup` chains) without a new PGCID.
//!
//! Each communicator tracks its *active subfield*. A communicator built
//! directly from a PGCID starts with active subfield 7 and derivation 0.
//! Deriving a child increments the parent's counter for its active
//! subfield, stamps that value into the child's exCID at the parent's
//! active position, and gives the child `active = parent.active - 1`.
//! A fresh PGCID is required when the parent's active subfield is 0, the
//! counter would pass 255, or not all processes of the parent participate
//! (`MPI_Comm_create_group`).
//!
//! `DerivePool` holds that policy for one communicator: which block it
//! derives from, which block it came from, and the freed slots a block
//! recycles.
//!
//! The 16-bit local CID (communicator-table index) is unchanged from the
//! classic design and remains what the optimized 14-byte match header
//! carries; this module also houses the table allocator for it.

use crate::error::{ErrClass, MpiError, Result};
use parking_lot::Mutex;
use std::sync::Arc;

/// Maximum local CIDs per process (16-bit index space).
pub const MAX_LOCAL_CIDS: usize = u16::MAX as usize + 1;

/// A 128-bit extended communicator identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExCid {
    /// PGCID from PMIx (0 = built-in WPM communicator).
    pub pgcid: u64,
    /// Eight 8-bit derivation subfields (subfield 7 = most significant).
    pub derivation: u64,
}

impl ExCid {
    /// exCID for a communicator created directly from a PGCID.
    pub fn from_pgcid(pgcid: u64) -> Self {
        debug_assert!(pgcid != 0, "PGCIDs are guaranteed non-zero");
        Self { pgcid, derivation: 0 }
    }

    /// exCID for a built-in World Process Model communicator
    /// (`MPI_COMM_WORLD` = slot 0, `MPI_COMM_SELF` = slot 1, ...).
    pub fn builtin(slot: u8) -> Self {
        Self { pgcid: 0, derivation: slot as u64 }
    }

    /// Subfield value at position `i` (0..=7).
    pub fn subfield(&self, i: u8) -> u8 {
        debug_assert!(i < 8);
        ((self.derivation >> (8 * i as u64)) & 0xff) as u8
    }

    /// Copy of this exCID with subfield `i` set to `v`.
    pub fn with_subfield(&self, i: u8, v: u8) -> Self {
        debug_assert!(i < 8);
        let shift = 8 * i as u64;
        let cleared = self.derivation & !(0xffu64 << shift);
        Self { pgcid: self.pgcid, derivation: cleared | ((v as u64) << shift) }
    }

    /// Serialize to 16 little-endian bytes (wire format for the extended
    /// match header).
    pub fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.pgcid.to_le_bytes());
        out[8..].copy_from_slice(&self.derivation.to_le_bytes());
        out
    }

    /// Deserialize from 16 bytes.
    pub fn decode(bytes: &[u8]) -> Self {
        Self {
            pgcid: u64::from_le_bytes(bytes[..8].try_into().expect("16-byte excid")),
            derivation: u64::from_le_bytes(bytes[8..16].try_into().expect("16-byte excid")),
        }
    }
}

impl std::fmt::Display for ExCid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "excid({:#x}.{:#018x})", self.pgcid, self.derivation)
    }
}

/// Per-communicator derivation bookkeeping: which subfield this
/// communicator writes into when deriving children, and the next value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeriveState {
    /// Active subfield (7 for PGCID-fresh communicators, counts down).
    pub active: u8,
    /// Next child counter for the active subfield (starts at 1; the parent
    /// itself holds value 0 there).
    pub next_child: u16,
}

impl DeriveState {
    /// State for a communicator freshly minted from a PGCID.
    pub fn fresh() -> Self {
        Self { active: 7, next_child: 1 }
    }

    /// State for a derived communicator one level down.
    fn child_of(parent: &DeriveState) -> Self {
        debug_assert!(parent.active > 0);
        Self { active: parent.active - 1, next_child: 1 }
    }
}

/// Why local subfield derivation cannot produce another child exCID and a
/// fresh PGCID is required instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeriveExhausted {
    /// The chain is 8 levels deep: the active subfield counted down to 0
    /// and there is no position left to write a child value into.
    Depth,
    /// 255 children were already derived at the active subfield; the next
    /// value would wrap the 8-bit counter and collide with child #0.
    Width,
}

impl DeriveExhausted {
    /// Stable label for counters/events.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeriveExhausted::Depth => "depth",
            DeriveExhausted::Width => "width",
        }
    }
}

impl std::fmt::Display for DeriveExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeriveExhausted::Depth => write!(f, "derivation chain 8 levels deep"),
            DeriveExhausted::Width => write!(f, "255 children derived at active subfield"),
        }
    }
}

/// Attempt to derive a child exCID from `parent` with derivation state
/// `state` (mutated on success). The error says *why* a fresh PGCID is
/// required, so callers can count and report the two exhaustion modes
/// separately — the 8-bit counter must never silently wrap, or two
/// children would alias one exCID and the PML would cross-deliver.
pub fn try_derive_excid(
    parent: &ExCid,
    state: &mut DeriveState,
) -> std::result::Result<(ExCid, DeriveState), DeriveExhausted> {
    if state.active == 0 {
        return Err(DeriveExhausted::Depth);
    }
    if state.next_child > 255 {
        return Err(DeriveExhausted::Width);
    }
    let value = state.next_child as u8;
    state.next_child += 1;
    let child = parent.with_subfield(state.active, value);
    let child_state = DeriveState::child_of(state);
    Ok((child, child_state))
}

/// One communicator's place in the exCID derivation tree: the block it
/// derives children from, and the block it was itself derived from.
///
/// A block is a base exCID (PGCID-fresh or itself derived) plus the
/// derivation cursor walking its subfield space. Blocks sit behind an `Arc`
/// so a parent whose block is exhausted and the refill child it mints (see
/// `Comm::dup`) *share* one block: further dups of either consume the same
/// 255-slot budget, which keeps the derivation tree collision-free without
/// re-acquiring a PGCID per dup.
#[derive(Default)]
pub(crate) struct DerivePool {
    /// The block children are derived from (`None`: no exCID block, so
    /// every dup takes the fresh-PGCID route).
    own: Mutex<Option<Block>>,
    /// The block this communicator was derived *from* (`None` unless it
    /// is a derived child): freeing it returns its subfield there.
    parent: Mutex<Option<Block>>,
}

type Block = Arc<Mutex<BlockState>>;

struct BlockState {
    base: ExCid,
    state: DeriveState,
    /// Subfield slots returned by freed derived children. LIFO and fed only
    /// by `Comm::free`, which every rank calls on the same children, so the
    /// list stays identical on every rank (derivation must stay
    /// rank-symmetric).
    freed: Vec<FreedSlot>,
}

impl BlockState {
    fn rooted(base: ExCid, state: DeriveState) -> Block {
        Arc::new(Mutex::new(BlockState { base, state, freed: Vec::new() }))
    }
}

/// One recyclable subfield on a block's freed list: the child's exCID
/// together with the child's *own* block, captured at free time. A recycled
/// child resumes that block rather than starting a fresh one, so it can
/// never re-derive a grandchild exCID that might still be live.
struct FreedSlot {
    excid: ExCid,
    own: Block,
    /// Incarnation of the communicator that returned the slot. The list is
    /// identical on every rank, so the count is too: the next communicator
    /// to take the slot is incarnation + 1 everywhere, which is what lets
    /// the PML tell its traffic from its predecessor's.
    incarnation: u16,
}

/// A subfield handed out by [`DerivePool::take`], to be seated on the
/// child communicator with [`DerivePool::seat`].
pub(crate) struct Subfield {
    pub excid: ExCid,
    pub incarnation: u16,
    /// Whether the slot was recycled from a freed sibling.
    pub recycled: bool,
    own: Block,
    parent: Block,
}

impl DerivePool {
    /// A pool rooting a fresh block at `base` (a PGCID-fresh or hashed
    /// lazy exCID: itself plus up to 255 locally-derived children).
    pub fn rooted(base: ExCid) -> Self {
        DerivePool {
            own: Mutex::new(Some(BlockState::rooted(base, DeriveState::fresh()))),
            ..Default::default()
        }
    }

    /// Take one exCID subfield: recycled slots first (one incarnation later
    /// than their previous holder), then fresh derivation from the block.
    /// `None` when there is no block, `Some(Err(why))` when the subfield
    /// space is exhausted.
    pub fn take(&self) -> Option<std::result::Result<Subfield, DeriveExhausted>> {
        let parent = self.own.lock().clone()?;
        let mut block = parent.lock();
        if let Some(slot) = block.freed.pop() {
            drop(block);
            return Some(Ok(Subfield {
                excid: slot.excid,
                incarnation: slot.incarnation.wrapping_add(1),
                recycled: true,
                own: slot.own,
                parent,
            }));
        }
        let base = block.base;
        let derived = try_derive_excid(&base, &mut block.state);
        drop(block);
        Some(derived.map(|(excid, state)| Subfield {
            excid,
            incarnation: 0,
            recycled: false,
            own: BlockState::rooted(excid, state),
            parent,
        }))
    }

    /// Install a taken subfield on the child built from it: the child
    /// derives from its own block (fresh, or resumed when recycled) and
    /// remembers the block it came from.
    pub fn seat(&self, sub: Subfield) {
        *self.own.lock() = Some(sub.own);
        *self.parent.lock() = Some(sub.parent);
    }

    /// Give a freed derived child's subfield back to the block it came
    /// from, for recycling. Whether a slot was returned: a refill child
    /// shares its parent's block and has nothing to give back.
    pub fn give_back(&self, excid: ExCid, incarnation: u16) -> bool {
        let (Some(parent), Some(own)) = (self.parent.lock().clone(), self.own.lock().clone())
        else {
            return false;
        };
        if Arc::ptr_eq(&own, &parent) {
            return false;
        }
        parent.lock().freed.push(FreedSlot { excid, own, incarnation });
        true
    }

    /// Adopt `refill`'s block as this pool's own (the exhaustion refill:
    /// shared, so dups of either communicator derive from it from now on).
    pub fn adopt(&self, refill: &DerivePool) {
        let block = refill.own.lock().clone();
        *self.own.lock() = block;
    }
}

/// The per-process local-CID table allocator: lowest-free-index policy,
/// exactly like Open MPI's communicator array.
#[derive(Debug, Default)]
pub struct CidTable {
    used: Vec<bool>,
}

impl CidTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lowest free index at or above `from`, without claiming it.
    pub fn lowest_free(&self, from: u16) -> Result<u16> {
        let start = from as usize;
        for i in start..MAX_LOCAL_CIDS {
            if self.used.get(i).copied() != Some(true) {
                return Ok(i as u16);
            }
        }
        Err(MpiError::new(ErrClass::Other, "local CID space exhausted"))
    }

    /// Claim a specific index. Errors when already in use.
    pub fn claim(&mut self, idx: u16) -> Result<()> {
        let i = idx as usize;
        if self.used.len() <= i {
            self.used.resize(i + 1, false);
        }
        if self.used[i] {
            return Err(MpiError::new(ErrClass::Intern, format!("local CID {idx} already in use")));
        }
        self.used[i] = true;
        Ok(())
    }

    /// Claim the lowest free index at or above `from`.
    pub fn claim_lowest(&mut self, from: u16) -> Result<u16> {
        let idx = self.lowest_free(from)?;
        self.claim(idx)?;
        Ok(idx)
    }

    /// Release an index (communicator freed).
    pub fn release(&mut self, idx: u16) {
        if let Some(slot) = self.used.get_mut(idx as usize) {
            *slot = false;
        }
    }

    /// Whether an index is currently in use.
    pub fn in_use(&self, idx: u16) -> bool {
        self.used.get(idx as usize).copied() == Some(true)
    }

    /// Number of indices currently in use.
    pub fn count_used(&self) -> usize {
        self.used.iter().filter(|b| **b).count()
    }

    /// The in-use indices, ascending (introspection snapshots).
    pub fn used_indices(&self) -> Vec<u16> {
        self.used
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.then_some(i as u16))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn builtin_excids_have_zero_pgcid() {
        let w = ExCid::builtin(0);
        let s = ExCid::builtin(1);
        assert_eq!(w.pgcid, 0);
        assert_ne!(w, s);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = ExCid { pgcid: 0xdead_beef_0123, derivation: 0x0807060504030201 };
        assert_eq!(ExCid::decode(&e.encode()), e);
    }

    #[test]
    fn subfield_accessors() {
        let e = ExCid { pgcid: 1, derivation: 0 }.with_subfield(7, 9).with_subfield(0, 3);
        assert_eq!(e.subfield(7), 9);
        assert_eq!(e.subfield(0), 3);
        assert_eq!(e.subfield(4), 0);
    }

    #[test]
    fn derive_chain_matches_paper_rules() {
        let root = ExCid::from_pgcid(42);
        let mut root_state = DeriveState::fresh();
        assert_eq!(root_state.active, 7);

        let (c1, mut c1_state) = try_derive_excid(&root, &mut root_state).unwrap();
        assert_eq!(c1.subfield(7), 1);
        assert_eq!(c1_state.active, 6);

        let (c2, _) = try_derive_excid(&root, &mut root_state).unwrap();
        assert_eq!(c2.subfield(7), 2);

        let (g1, g1_state) = try_derive_excid(&c1, &mut c1_state).unwrap();
        assert_eq!(g1.subfield(7), 1);
        assert_eq!(g1.subfield(6), 1);
        assert_eq!(g1_state.active, 5);
        assert_ne!(g1, c1);
        assert_ne!(g1, c2);
    }

    #[test]
    fn derivation_exhausts_after_255_children() {
        let root = ExCid::from_pgcid(7);
        let mut state = DeriveState::fresh();
        let mut seen = HashSet::new();
        seen.insert(root);
        for _ in 0..255 {
            let (c, _) = try_derive_excid(&root, &mut state).expect("within budget");
            assert!(seen.insert(c), "collision in dup chain");
        }
        assert_eq!(
            try_derive_excid(&root, &mut state),
            Err(DeriveExhausted::Width),
            "256th dup needs a new PGCID"
        );
        // The counter must not move on a refused derivation: a retry after
        // exhaustion reports the same error instead of wrapping to 0.
        assert_eq!(state.next_child, 256);
        assert_eq!(try_derive_excid(&root, &mut state), Err(DeriveExhausted::Width));
    }

    #[test]
    fn derivation_exhausts_at_depth_8() {
        let mut cur = ExCid::from_pgcid(9);
        let mut state = DeriveState::fresh();
        for depth in 0..7 {
            let (c, s) = try_derive_excid(&cur, &mut state)
                .unwrap_or_else(|_| panic!("depth {depth} should derive"));
            cur = c;
            state = s;
        }
        assert_eq!(state.active, 0);
        assert_eq!(
            try_derive_excid(&cur, &mut state),
            Err(DeriveExhausted::Depth),
            "depth 8 needs a new PGCID"
        );
    }

    #[test]
    fn cid_table_lowest_free_policy() {
        let mut t = CidTable::new();
        assert_eq!(t.claim_lowest(0).unwrap(), 0);
        assert_eq!(t.claim_lowest(0).unwrap(), 1);
        assert_eq!(t.claim_lowest(0).unwrap(), 2);
        t.release(1);
        assert_eq!(t.claim_lowest(0).unwrap(), 1);
        assert_eq!(t.claim_lowest(2).unwrap(), 3);
        assert!(t.claim(0).is_err());
        assert_eq!(t.count_used(), 4);
    }

    proptest! {
        /// Any sequence of derivations from a single PGCID yields unique
        /// exCIDs — the invariant that lets matching trust the exCID.
        #[test]
        fn prop_derivation_tree_is_collision_free(ops in proptest::collection::vec(0usize..6, 1..200)) {
            let root = ExCid::from_pgcid(1234);
            let mut nodes = vec![(root, DeriveState::fresh())];
            let mut seen: HashSet<ExCid> = HashSet::new();
            seen.insert(root);
            for pick in ops {
                let idx = pick % nodes.len();
                let (parent, mut state) = nodes[idx];
                if let Ok((child, cs)) = try_derive_excid(&parent, &mut state) {
                    nodes[idx].1 = state;
                    prop_assert!(seen.insert(child), "derived exCID collided: {child}");
                    nodes.push((child, cs));
                } else {
                    // Exhaustion is a legal outcome, never a collision.
                    nodes[idx].1 = state;
                }
            }
        }

        /// Claim/release sequences keep the lowest-free invariant.
        #[test]
        fn prop_cid_table_reuses_lowest(releases in proptest::collection::vec(0u16..32, 0..16)) {
            let mut t = CidTable::new();
            for _ in 0..32 { t.claim_lowest(0).unwrap(); }
            let mut released: Vec<u16> = releases.clone();
            released.sort_unstable();
            released.dedup();
            for r in &released { t.release(*r); }
            for _ in 0..released.len() {
                let got = t.claim_lowest(0).unwrap();
                prop_assert!(released.contains(&got), "claimed {got} which was never freed");
            }
            prop_assert_eq!(t.count_used(), 32);
        }

        #[test]
        fn prop_excid_roundtrip(pgcid in 1u64.., derivation: u64) {
            let e = ExCid { pgcid, derivation };
            prop_assert_eq!(ExCid::decode(&e.encode()), e);
        }
    }
}
