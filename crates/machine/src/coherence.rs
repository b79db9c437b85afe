//! The coherence directory: which caches hold each block, which (if any) holds it modified,
//! and how many cache-to-cache transfers each block has undergone (the paper's block delay,
//! Definition 4.1).

use crate::addr::{BlockId, ProcId};
use std::collections::HashMap;

/// A small growable bit set over processor ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcSet {
    words: Vec<u64>,
}

impl ProcSet {
    /// Create an empty set.
    pub fn new() -> Self {
        ProcSet::default()
    }

    /// Insert a processor. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, p: ProcId) -> bool {
        let (w, b) = (p.index() / 64, p.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Remove a processor. Returns `true` if it was present.
    pub fn remove(&mut self, p: ProcId) -> bool {
        let (w, b) = (p.index() / 64, p.index() % 64);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Whether a processor is in the set.
    pub fn contains(&self, p: ProcId) -> bool {
        let (w, b) = (p.index() / 64, p.index() % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Number of processors in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate over the members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(
                move |b| {
                    if w & (1u64 << b) != 0 {
                        Some(ProcId(wi * 64 + b))
                    } else {
                        None
                    }
                },
            )
        })
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.words.clear();
    }
}

/// The sharing state of one block as recorded by the directory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockState {
    /// Caches currently holding a (clean or dirty) copy.
    pub sharers: ProcSet,
    /// The cache holding a modified copy, if any. Always a member of `sharers`.
    pub owner: Option<ProcId>,
    /// The cache that most recently received the block (used to count cache-to-cache moves).
    pub last_holder: Option<ProcId>,
    /// How many times this block has moved from one cache to a different cache
    /// (the block delay of Definition 4.1, accumulated over the whole run).
    pub transfers: u64,
}

/// The coherence directory for the whole machine.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    blocks: HashMap<BlockId, BlockState>,
}

impl Directory {
    /// Create an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// The state of `block`, if it has ever been referenced.
    pub fn get(&self, block: BlockId) -> Option<&BlockState> {
        self.blocks.get(&block)
    }

    /// Mutable state of `block`, creating a default entry if needed.
    pub fn entry(&mut self, block: BlockId) -> &mut BlockState {
        self.blocks.entry(block).or_default()
    }

    /// Record that `proc` now holds a copy of `block`; counts a cache-to-cache transfer if
    /// the previous holder was a different cache. Returns `true` if a transfer was counted.
    pub fn record_fill(&mut self, block: BlockId, proc: ProcId) -> bool {
        let e = self.entry(block);
        e.sharers.insert(proc);
        let transferred = matches!(e.last_holder, Some(prev) if prev != proc);
        if transferred {
            e.transfers += 1;
        }
        e.last_holder = Some(proc);
        transferred
    }

    /// Record that `proc` dropped its copy of `block` (eviction). The ownership is cleared if
    /// `proc` was the owner.
    pub fn record_eviction(&mut self, block: BlockId, proc: ProcId) {
        if let Some(e) = self.blocks.get_mut(&block) {
            e.sharers.remove(proc);
            if e.owner == Some(proc) {
                e.owner = None;
            }
        }
    }

    /// Total transfers of `block` so far (0 if never referenced).
    pub fn transfers_of(&self, block: BlockId) -> u64 {
        self.blocks.get(&block).map(|e| e.transfers).unwrap_or(0)
    }

    /// Sum of transfers over all blocks.
    pub fn total_transfers(&self) -> u64 {
        self.blocks.values().map(|e| e.transfers).sum()
    }

    /// Number of blocks the directory has ever seen.
    pub fn tracked_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterate over `(block, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BlockState)> + '_ {
        self.blocks.iter().map(|(b, s)| (*b, s))
    }

    /// Clear all directory state.
    pub fn clear(&mut self) {
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procset_insert_remove_contains() {
        let mut s = ProcSet::new();
        assert!(s.insert(ProcId(3)));
        assert!(!s.insert(ProcId(3)));
        assert!(s.contains(ProcId(3)));
        assert!(!s.contains(ProcId(2)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(ProcId(3)));
        assert!(!s.remove(ProcId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn procset_handles_large_ids() {
        let mut s = ProcSet::new();
        s.insert(ProcId(0));
        s.insert(ProcId(64));
        s.insert(ProcId(129));
        assert_eq!(s.len(), 3);
        let members: Vec<usize> = s.iter().map(|p| p.index()).collect();
        assert_eq!(members, vec![0, 64, 129]);
        assert!(!s.contains(ProcId(130)));
        assert!(!s.remove(ProcId(200)));
    }

    #[test]
    fn fill_counts_transfers_only_across_caches() {
        let mut d = Directory::new();
        let blk = BlockId(7);
        assert!(!d.record_fill(blk, ProcId(0)), "first fill is not a transfer");
        assert!(!d.record_fill(blk, ProcId(0)), "refill by the same cache is not a transfer");
        assert!(d.record_fill(blk, ProcId(1)), "moving to a different cache is a transfer");
        assert!(d.record_fill(blk, ProcId(0)), "moving back is another transfer");
        assert_eq!(d.transfers_of(blk), 2);
        assert_eq!(d.total_transfers(), 2);
    }

    #[test]
    fn eviction_clears_ownership() {
        let mut d = Directory::new();
        let blk = BlockId(1);
        d.record_fill(blk, ProcId(0));
        d.entry(blk).owner = Some(ProcId(0));
        d.record_eviction(blk, ProcId(0));
        let st = d.get(blk).unwrap();
        assert!(st.sharers.is_empty());
        assert_eq!(st.owner, None);
    }

    #[test]
    fn transfers_of_unknown_block_is_zero() {
        let d = Directory::new();
        assert_eq!(d.transfers_of(BlockId(99)), 0);
    }

    #[test]
    fn tracked_blocks_counts_distinct() {
        let mut d = Directory::new();
        d.record_fill(BlockId(1), ProcId(0));
        d.record_fill(BlockId(2), ProcId(0));
        d.record_fill(BlockId(1), ProcId(1));
        assert_eq!(d.tracked_blocks(), 2);
    }
}
