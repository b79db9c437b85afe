//! The complete memory system: `p` private caches plus the coherence directory and shared
//! memory, with the paper's invalidation rule and miss/transfer accounting.

use crate::addr::{Addr, BlockId, ProcId, Region};
use crate::cache::Cache;
use crate::coherence::Directory;
use crate::config::MachineConfig;
use crate::stats::MemStats;

/// A single memory access by one processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Access {
    /// Word address accessed.
    pub addr: Addr,
    /// `true` for a write, `false` for a read.
    pub write: bool,
}

impl Access {
    /// A read of `addr`.
    pub fn read(addr: Addr) -> Self {
        Access { addr, write: false }
    }

    /// A write of `addr`.
    pub fn write(addr: Addr) -> Self {
        Access { addr, write: true }
    }
}

/// Classification of a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissKind {
    /// The block was never resident in this processor's cache.
    Cold,
    /// The block was resident before but was evicted for capacity reasons.
    Capacity,
    /// The block was resident but was invalidated by another processor's write
    /// (the paper's *block miss*). `false_sharing` is `true` when the invalidating write was
    /// to a different word than the one now accessed.
    Invalidation {
        /// Whether the invalidating write touched a different word (false sharing proper).
        false_sharing: bool,
    },
    /// The data had to be fetched from another processor's modified copy (the accessing
    /// processor did not have a resident copy that was invalidated, but the block is shared).
    DirtyTransfer,
}

impl MissKind {
    /// Whether this miss is a *block miss* in the paper's sense (caused by sharing) rather
    /// than a sequential-style cache miss.
    pub fn is_block_miss(&self) -> bool {
        matches!(self, MissKind::Invalidation { .. } | MissKind::DirtyTransfer)
    }
}

/// The result of one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The block that was accessed.
    pub block: BlockId,
    /// `None` on a hit; otherwise the kind of miss.
    pub miss: Option<MissKind>,
    /// Whether this access moved the block from another cache into this one
    /// (contributes to the block delay of Definition 4.1).
    pub transferred: bool,
    /// Number of remote copies invalidated by this access (non-zero only for writes).
    pub invalidations: u32,
    /// Address-space region of the access.
    pub region: Region,
}

impl AccessOutcome {
    /// Whether the access hit in the private cache.
    pub fn is_hit(&self) -> bool {
        self.miss.is_none()
    }

    /// Whether the access was a block miss (coherence-induced).
    pub fn is_block_miss(&self) -> bool {
        self.miss.map(|m| m.is_block_miss()).unwrap_or(false)
    }
}

/// The simulated memory system.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    config: MachineConfig,
    caches: Vec<Cache>,
    directory: Directory,
    stats: MemStats,
}

impl MemorySystem {
    /// Build the memory system for `config`. Panics if the configuration is invalid.
    pub fn new(config: MachineConfig) -> Self {
        config.validate().expect("invalid machine configuration");
        let lines = config.lines_per_cache();
        MemorySystem {
            caches: (0..config.procs).map(|_| Cache::new(lines)).collect(),
            directory: Directory::new(),
            stats: MemStats::new(config.procs),
            config,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Reset statistics (cache contents and directory state are preserved).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The private cache of processor `p` (for inspection in tests).
    pub fn cache(&self, p: ProcId) -> &Cache {
        &self.caches[p.index()]
    }

    /// The coherence directory (for inspection).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Total cache-to-cache transfers of `block` so far (block delay, Definition 4.1).
    pub fn transfers_of(&self, block: BlockId) -> u64 {
        self.directory.transfers_of(block)
    }

    /// Perform one access by processor `proc` and return its outcome.
    ///
    /// The cost in time units is *not* computed here; the scheduler charges `b` per miss
    /// (of either kind) per the paper's cost model.
    pub fn access(&mut self, proc: ProcId, access: Access) -> AccessOutcome {
        let b = self.config.block_words;
        let block = access.addr.block(b);
        let region = access.addr.region();
        let hit = self.caches[proc.index()].touch(block);

        let mut invalidations = 0u32;
        let mut transferred = false;
        let miss;

        if hit {
            miss = None;
            self.stats.proc_mut(proc).hits += 1;
            if access.write {
                // Upgrade: invalidate every other copy; the writer keeps its data.
                invalidations = self.invalidate_others(block, proc, access.addr);
                if invalidations > 0 {
                    self.stats.proc_mut(proc).upgrades += 1;
                }
                let e = self.directory.entry(block);
                e.owner = Some(proc);
                e.last_holder = Some(proc);
                self.caches[proc.index()].mark_dirty(block);
            }
        } else {
            // Miss path. First figure out where the data comes from.
            let remote_owner =
                self.directory.get(block).and_then(|e| e.owner).filter(|&o| o != proc);

            if access.write {
                // Read-for-ownership: every other copy is invalidated.
                invalidations = self.invalidate_others(block, proc, access.addr);
            } else if let Some(owner) = remote_owner {
                // A remote modified copy is downgraded to shared (write-back).
                if self.caches[owner.index()].clean(block) {
                    self.stats.proc_mut(owner).writebacks += 1;
                }
                self.directory.entry(block).owner = None;
            }

            // Fill into the local cache, possibly evicting.
            let fill = self.caches[proc.index()].fill(block);
            if let Some((victim, dirty)) = fill.evicted {
                self.stats.proc_mut(proc).evictions += 1;
                if dirty {
                    self.stats.proc_mut(proc).writebacks += 1;
                }
                self.directory.record_eviction(victim, proc);
            }
            transferred = self.directory.record_fill(block, proc);
            if transferred {
                self.stats.block_transfers += 1;
            }

            // Classify the miss.
            let kind = if let Some(written_word) = fill.invalidated_by {
                MissKind::Invalidation { false_sharing: written_word != access.addr }
            } else if remote_owner.is_some() {
                MissKind::DirtyTransfer
            } else if fill.cold {
                MissKind::Cold
            } else {
                MissKind::Capacity
            };
            let pstats = self.stats.proc_mut(proc);
            match kind {
                MissKind::Cold => pstats.cold_misses += 1,
                MissKind::Capacity => pstats.capacity_misses += 1,
                MissKind::Invalidation { false_sharing } => {
                    pstats.block_misses += 1;
                    if false_sharing {
                        pstats.false_sharing_misses += 1;
                    }
                }
                MissKind::DirtyTransfer => pstats.block_misses += 1,
            }
            miss = Some(kind);

            if access.write {
                let e = self.directory.entry(block);
                e.owner = Some(proc);
                self.caches[proc.index()].mark_dirty(block);
            }
        }

        AccessOutcome { block, miss, transferred, invalidations, region }
    }

    /// Perform a batch of accesses by one processor, returning the number of misses of each
    /// kind `(cache_misses, block_misses)` incurred by the batch.
    pub fn access_all(&mut self, proc: ProcId, accesses: &[Access]) -> (u64, u64) {
        let mut cache_misses = 0;
        let mut block_misses = 0;
        for &a in accesses {
            let out = self.access(proc, a);
            match out.miss {
                Some(k) if k.is_block_miss() => block_misses += 1,
                Some(_) => cache_misses += 1,
                None => {}
            }
        }
        (cache_misses, block_misses)
    }

    fn invalidate_others(&mut self, block: BlockId, writer: ProcId, word: Addr) -> u32 {
        let holders: Vec<ProcId> = match self.directory.get(block) {
            Some(e) => e.sharers.iter().filter(|&p| p != writer).collect(),
            None => Vec::new(),
        };
        let mut count = 0;
        for p in holders {
            let (was_resident, was_dirty) = self.caches[p.index()].invalidate(block, word);
            if was_resident {
                count += 1;
                self.stats.proc_mut(p).invalidations_received += 1;
                if was_dirty {
                    self.stats.proc_mut(p).writebacks += 1;
                }
            }
            let e = self.directory.entry(block);
            e.sharers.remove(p);
            if e.owner == Some(p) {
                e.owner = None;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(procs: usize, m: u64, b: u64) -> MemorySystem {
        MemorySystem::new(
            MachineConfig::small().with_procs(procs).with_cache_words(m).with_block_words(b),
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut s = sys(1, 64, 8);
        let out = s.access(ProcId(0), Access::read(Addr(0)));
        assert_eq!(out.miss, Some(MissKind::Cold));
        let out2 = s.access(ProcId(0), Access::read(Addr(3)));
        assert!(out2.is_hit(), "same block, different word: hit");
        assert_eq!(s.stats().cache_misses(), 1);
        assert_eq!(s.stats().accesses(), 2);
    }

    #[test]
    fn capacity_miss_after_eviction() {
        // Cache of exactly one line.
        let mut s = sys(1, 8, 8);
        s.access(ProcId(0), Access::read(Addr(0)));
        s.access(ProcId(0), Access::read(Addr(8)));
        let out = s.access(ProcId(0), Access::read(Addr(0)));
        assert_eq!(out.miss, Some(MissKind::Capacity));
        assert_eq!(s.stats().proc(ProcId(0)).evictions, 2);
    }

    #[test]
    fn sequential_run_has_no_block_misses() {
        let mut s = sys(1, 64, 8);
        for i in 0..100u64 {
            s.access(ProcId(0), Access::write(Addr(i % 40)));
            s.access(ProcId(0), Access::read(Addr((i * 7) % 40)));
        }
        assert_eq!(s.stats().block_misses(), 0);
        assert_eq!(s.stats().false_sharing_misses(), 0);
        assert_eq!(s.stats().block_transfers, 0);
    }

    #[test]
    fn true_sharing_invalidation() {
        let mut s = sys(2, 64, 8);
        // P0 reads word 0; P1 writes word 0; P0 re-reads word 0 -> block miss, not false sharing.
        s.access(ProcId(0), Access::read(Addr(0)));
        let w = s.access(ProcId(1), Access::write(Addr(0)));
        assert_eq!(w.invalidations, 1);
        let out = s.access(ProcId(0), Access::read(Addr(0)));
        assert_eq!(out.miss, Some(MissKind::Invalidation { false_sharing: false }));
        assert_eq!(s.stats().block_misses(), 1);
        assert_eq!(s.stats().false_sharing_misses(), 0);
    }

    #[test]
    fn false_sharing_invalidation() {
        let mut s = sys(2, 64, 8);
        // P0 reads word 1; P1 writes word 2 (same block); P0 re-reads word 1 -> false sharing.
        s.access(ProcId(0), Access::read(Addr(1)));
        s.access(ProcId(1), Access::write(Addr(2)));
        let out = s.access(ProcId(0), Access::read(Addr(1)));
        assert_eq!(out.miss, Some(MissKind::Invalidation { false_sharing: true }));
        assert_eq!(s.stats().false_sharing_misses(), 1);
    }

    #[test]
    fn different_blocks_do_not_interfere() {
        let mut s = sys(2, 64, 8);
        s.access(ProcId(0), Access::read(Addr(0)));
        s.access(ProcId(1), Access::write(Addr(8))); // different block
        let out = s.access(ProcId(0), Access::read(Addr(0)));
        assert!(out.is_hit());
        assert_eq!(s.stats().block_misses(), 0);
    }

    #[test]
    fn write_upgrade_keeps_writer_data() {
        let mut s = sys(2, 64, 8);
        s.access(ProcId(0), Access::read(Addr(0)));
        s.access(ProcId(1), Access::read(Addr(0)));
        // P0 writes: it already has the block, so this is a hit (upgrade) that invalidates P1.
        let out = s.access(ProcId(0), Access::write(Addr(0)));
        assert!(out.is_hit());
        assert_eq!(out.invalidations, 1);
        assert_eq!(s.stats().proc(ProcId(0)).upgrades, 1);
        // P1 rereads: block miss.
        let out = s.access(ProcId(1), Access::read(Addr(0)));
        assert!(out.is_block_miss());
    }

    #[test]
    fn dirty_transfer_counts_as_block_miss() {
        let mut s = sys(2, 64, 8);
        s.access(ProcId(0), Access::write(Addr(0))); // P0 has modified copy
        let out = s.access(ProcId(1), Access::read(Addr(1))); // P1 never had it
        assert_eq!(out.miss, Some(MissKind::DirtyTransfer));
        assert!(out.transferred);
        assert_eq!(s.stats().proc(ProcId(0)).writebacks, 1, "owner downgraded with write-back");
    }

    #[test]
    fn ping_pong_counts_transfers() {
        let mut s = sys(2, 64, 8);
        let rounds = 10;
        for _ in 0..rounds {
            s.access(ProcId(0), Access::write(Addr(0)));
            s.access(ProcId(1), Access::write(Addr(1)));
        }
        // After the first two accesses, every write misses and moves the block across caches.
        assert!(s.stats().block_transfers >= 2 * rounds - 2);
        assert!(s.transfers_of(Addr(0).block(8)) >= 2 * rounds - 2);
        // All of these are false sharing: P0 writes word 0, P1 writes word 1.
        assert!(s.stats().false_sharing_misses() >= 2 * rounds - 3);
    }

    #[test]
    fn read_sharing_causes_no_misses_after_warmup() {
        let mut s = sys(4, 64, 8);
        for p in 0..4 {
            s.access(ProcId(p), Access::read(Addr(0)));
        }
        for p in 0..4 {
            let out = s.access(ProcId(p), Access::read(Addr(1)));
            assert!(out.is_hit(), "read-shared blocks stay valid in every cache");
        }
        assert_eq!(s.stats().block_misses(), 0);
    }

    #[test]
    fn access_all_counts_by_kind() {
        let mut s = sys(2, 64, 8);
        s.access(ProcId(1), Access::write(Addr(0)));
        let (cache_misses, block_misses) = s.access_all(
            ProcId(0),
            &[Access::read(Addr(0)), Access::read(Addr(1)), Access::read(Addr(16))],
        );
        assert_eq!(block_misses, 1, "word 0 comes from P1's modified copy");
        assert_eq!(cache_misses, 1, "word 16 is a cold miss; word 1 hits after the fill");
    }

    #[test]
    fn stats_reset_preserves_cache_contents() {
        let mut s = sys(1, 64, 8);
        s.access(ProcId(0), Access::read(Addr(0)));
        s.reset_stats();
        assert_eq!(s.stats().accesses(), 0);
        let out = s.access(ProcId(0), Access::read(Addr(0)));
        assert!(out.is_hit(), "reset_stats does not flush the cache");
    }

    #[test]
    fn region_is_reported() {
        let mut s = sys(1, 64, 8);
        let g = s.access(ProcId(0), Access::read(Addr(5)));
        assert_eq!(g.region, Region::Global);
        let st = s.access(ProcId(0), Access::read(Addr(crate::addr::STACK_REGION_BASE + 5)));
        assert_eq!(st.region, Region::Stack);
    }
}
