//! Results of one scheduler run: every quantity the paper's analysis bounds.

use crate::potential::PotentialSample;
use rws_dag::NodeId;
use rws_machine::{MachineConfig, MemStats, ProcId};

/// One successful steal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StealEvent {
    /// Simulated time at which the steal completed.
    pub time: u64,
    /// The stealing processor.
    pub thief: ProcId,
    /// The victim processor.
    pub victim: ProcId,
    /// The fork node whose right child was stolen.
    pub par_node: NodeId,
    /// The stolen child node (root of the stolen task's subtree).
    pub child: NodeId,
}

/// Aggregate results of a run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// The machine the run was simulated on.
    pub machine: Option<MachineConfig>,
    /// Simulated completion time of the computation (the parallel runtime `T_p`).
    pub makespan: u64,
    /// Number of successful steals `S`.
    pub successful_steals: u64,
    /// Number of failed steal attempts.
    pub failed_steals: u64,
    /// Total time spent on steals (successful and failed) summed over all processors.
    pub steal_time: u64,
    /// Number of usurpations: joins at which the processor that continues the parent task is
    /// not the processor that previously executed it (Definition 4.7 discussion).
    pub usurpations: u64,
    /// Queue entries executed by the processor that pushed them, as separate task instances,
    /// after their original task suspended (not steals).
    pub local_pops: u64,
    /// Total operations executed (should equal the dag's work `W`).
    pub work_executed: u64,
    /// Total dag nodes executed.
    pub nodes_executed: u64,
    /// Total time processors spent executing dag nodes (including miss delays).
    pub busy_time: u64,
    /// Memory-system statistics (cache misses, block misses, false sharing, transfers).
    pub mem: MemStats,
    /// Cache-to-cache transfers of blocks in the execution-stack region.
    pub stack_block_transfers: u64,
    /// Cache-to-cache transfers of blocks in the global region.
    pub global_block_transfers: u64,
    /// The largest number of transfers suffered by any single execution-stack block
    /// (empirical counterpart of the `Y(|τ|, B)` bound of Lemma 4.4).
    pub max_stack_block_transfers: u64,
    /// The largest number of transfers suffered by any single global-region block.
    pub max_global_block_transfers: u64,
    /// Number of task instances created (1 + steals + local pops).
    pub tasks_created: u64,
    /// Peak simulated space usage: global footprint + stack words actually touched (words).
    pub peak_stack_words: u64,
    /// Successful-steal events (only if requested in [`crate::SimConfig`]).
    pub steal_events: Vec<StealEvent>,
    /// Potential-function samples (only if requested in [`crate::SimConfig`]).
    pub potential_trace: Vec<PotentialSample>,
}

impl RunReport {
    /// Sequential-style cache misses (cold + capacity) over all processors.
    pub fn cache_misses(&self) -> u64 {
        self.mem.cache_misses()
    }

    /// Block misses (coherence-induced misses) over all processors.
    pub fn block_misses(&self) -> u64 {
        self.mem.block_misses()
    }

    /// False-sharing misses (block misses where the invalidating write touched another word).
    pub fn false_sharing_misses(&self) -> u64 {
        self.mem.false_sharing_misses()
    }

    /// Total block delay (Definition 4.1) accumulated over all blocks: the number of
    /// cache-to-cache transfers.
    pub fn block_delay(&self) -> u64 {
        self.mem.block_transfers
    }

    /// Parallel speedup with respect to a sequential execution that takes `seq_time` units.
    pub fn speedup(&self, seq_time: u64) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        seq_time as f64 / self.makespan as f64
    }

    /// Average number of block transfers per successful steal — the paper's `O(B)` bound for
    /// Hierarchical Tree Algorithms (Lemma 4.5 and friends) predicts this stays below a small
    /// multiple of `B`.
    pub fn block_delay_per_steal(&self) -> f64 {
        if self.successful_steals == 0 {
            return 0.0;
        }
        self.block_delay() as f64 / self.successful_steals as f64
    }

    /// Steal attempts of any kind.
    pub fn total_steal_attempts(&self) -> u64 {
        self.successful_steals + self.failed_steals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut r = RunReport {
            makespan: 100,
            successful_steals: 4,
            failed_steals: 6,
            ..Default::default()
        };
        r.mem = MemStats::new(2);
        r.mem.proc_mut(ProcId(0)).cold_misses = 3;
        r.mem.proc_mut(ProcId(1)).block_misses = 5;
        r.mem.block_transfers = 8;
        assert_eq!(r.cache_misses(), 3);
        assert_eq!(r.block_misses(), 5);
        assert_eq!(r.block_delay(), 8);
        assert_eq!(r.total_steal_attempts(), 10);
        assert!((r.speedup(400) - 4.0).abs() < 1e-12);
        assert!((r.block_delay_per_steal() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_steals_and_zero_makespan_are_safe() {
        let r = RunReport::default();
        assert_eq!(r.block_delay_per_steal(), 0.0);
        assert_eq!(r.speedup(100), 0.0);
    }
}
