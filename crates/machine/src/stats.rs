//! Counters for cache misses, block misses, false sharing and block transfers.

use crate::addr::ProcId;
use std::ops::{Add, AddAssign};

/// Per-processor memory-system counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Accesses served from the private cache.
    pub hits: u64,
    /// Cold misses: the block was never previously resident in this cache.
    pub cold_misses: u64,
    /// Capacity misses: the block was previously resident but had been evicted (LRU).
    pub capacity_misses: u64,
    /// Block misses (paper, Section 2.1): misses caused by coherence — the copy was
    /// invalidated by another processor's write, or the data had to be transferred from
    /// another processor's modified copy.
    pub block_misses: u64,
    /// The subset of block misses where the invalidating write was to a *different word*
    /// of the block than the word now being accessed: false sharing proper.
    pub false_sharing_misses: u64,
    /// Writes that hit a shared copy and only needed to invalidate other copies (no data
    /// transfer for this processor).
    pub upgrades: u64,
    /// Number of times a resident block of this cache was invalidated by another processor.
    pub invalidations_received: u64,
    /// Lines evicted from this cache to make room.
    pub evictions: u64,
    /// Dirty lines written back (on eviction or downgrade).
    pub writebacks: u64,
}

impl ProcStats {
    /// Sequential-style cache misses: cold + capacity (the misses that would also occur in a
    /// one-processor execution with the same access order).
    pub fn cache_misses(&self) -> u64 {
        self.cold_misses + self.capacity_misses
    }

    /// Every miss of any kind (cold + capacity + block).
    pub fn total_misses(&self) -> u64 {
        self.cache_misses() + self.block_misses
    }

    /// Total accesses observed by this processor's cache.
    pub fn accesses(&self) -> u64 {
        self.hits + self.total_misses()
    }
}

impl Add for ProcStats {
    type Output = ProcStats;
    fn add(mut self, rhs: ProcStats) -> ProcStats {
        self += rhs;
        self
    }
}

impl AddAssign for ProcStats {
    fn add_assign(&mut self, rhs: ProcStats) {
        self.hits += rhs.hits;
        self.cold_misses += rhs.cold_misses;
        self.capacity_misses += rhs.capacity_misses;
        self.block_misses += rhs.block_misses;
        self.false_sharing_misses += rhs.false_sharing_misses;
        self.upgrades += rhs.upgrades;
        self.invalidations_received += rhs.invalidations_received;
        self.evictions += rhs.evictions;
        self.writebacks += rhs.writebacks;
    }
}

/// Aggregate memory-system counters for a whole simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Per-processor counters, indexed by processor id.
    pub per_proc: Vec<ProcStats>,
    /// Total number of cache-to-cache block transfers (Definition 4.1 aggregated over all
    /// blocks and the whole execution).
    pub block_transfers: u64,
}

impl MemStats {
    /// Create zeroed statistics for `procs` processors.
    pub fn new(procs: usize) -> Self {
        MemStats { per_proc: vec![ProcStats::default(); procs], block_transfers: 0 }
    }

    /// Counters of one processor.
    pub fn proc(&self, p: ProcId) -> &ProcStats {
        &self.per_proc[p.index()]
    }

    /// Mutable counters of one processor.
    pub fn proc_mut(&mut self, p: ProcId) -> &mut ProcStats {
        &mut self.per_proc[p.index()]
    }

    /// Sum of all per-processor counters.
    pub fn total(&self) -> ProcStats {
        self.per_proc.iter().cloned().fold(ProcStats::default(), |a, b| a + b)
    }

    /// Total sequential-style cache misses (cold + capacity) over all processors.
    pub fn cache_misses(&self) -> u64 {
        self.total().cache_misses()
    }

    /// Total block misses over all processors.
    pub fn block_misses(&self) -> u64 {
        self.total().block_misses
    }

    /// Total false-sharing misses over all processors.
    pub fn false_sharing_misses(&self) -> u64 {
        self.total().false_sharing_misses
    }

    /// Total misses of any kind over all processors.
    pub fn total_misses(&self) -> u64 {
        self.total().total_misses()
    }

    /// Total accesses over all processors.
    pub fn accesses(&self) -> u64 {
        self.total().accesses()
    }

    /// Reset every counter to zero, keeping the processor count.
    pub fn reset(&mut self) {
        let n = self.per_proc.len();
        *self = MemStats::new(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stats_derived_counts() {
        let s = ProcStats {
            hits: 10,
            cold_misses: 2,
            capacity_misses: 3,
            block_misses: 4,
            false_sharing_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.cache_misses(), 5);
        assert_eq!(s.total_misses(), 9);
        assert_eq!(s.accesses(), 19);
    }

    #[test]
    fn add_accumulates_every_field() {
        let a = ProcStats {
            hits: 1,
            cold_misses: 2,
            capacity_misses: 3,
            block_misses: 4,
            false_sharing_misses: 5,
            upgrades: 6,
            invalidations_received: 7,
            evictions: 8,
            writebacks: 9,
        };
        let sum = a.clone() + a.clone();
        assert_eq!(sum.hits, 2);
        assert_eq!(sum.cold_misses, 4);
        assert_eq!(sum.capacity_misses, 6);
        assert_eq!(sum.block_misses, 8);
        assert_eq!(sum.false_sharing_misses, 10);
        assert_eq!(sum.upgrades, 12);
        assert_eq!(sum.invalidations_received, 14);
        assert_eq!(sum.evictions, 16);
        assert_eq!(sum.writebacks, 18);
    }

    #[test]
    fn memstats_aggregation() {
        let mut m = MemStats::new(2);
        m.proc_mut(ProcId(0)).hits = 5;
        m.proc_mut(ProcId(0)).cold_misses = 1;
        m.proc_mut(ProcId(1)).block_misses = 3;
        m.proc_mut(ProcId(1)).false_sharing_misses = 2;
        assert_eq!(m.cache_misses(), 1);
        assert_eq!(m.block_misses(), 3);
        assert_eq!(m.false_sharing_misses(), 2);
        assert_eq!(m.total_misses(), 4);
        assert_eq!(m.accesses(), 9);
    }

    #[test]
    fn reset_zeroes_but_keeps_shape() {
        let mut m = MemStats::new(3);
        m.proc_mut(ProcId(2)).hits = 7;
        m.block_transfers = 11;
        m.reset();
        assert_eq!(m.per_proc.len(), 3);
        assert_eq!(m.accesses(), 0);
        assert_eq!(m.block_transfers, 0);
    }
}
