//! Sequential execution tracing: runs a dag on a single simulated processor to obtain the
//! paper's sequential quantities `W` (operation count) and `Q` (sequential cache misses).
//!
//! The tracer resolves symbolic local accesses exactly like a sequential runtime would: a
//! single execution stack, segments pushed when a segment-declaring node starts and popped
//! when it completes, so stack addresses are reused by siblings — the same reuse that makes
//! block misses on stacks possible in the parallel execution.

use crate::access::WorkUnit;
use crate::dag::SpDag;
use crate::node::{NodeId, SpStructure};
use rws_machine::{Access, Addr, MachineConfig, MemorySystem, ProcId};

/// Results of a sequential trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SequentialCosts {
    /// Total operation count `W`.
    pub work: u64,
    /// Sequential cache misses `Q` (cold + capacity; there is no sharing with one processor).
    pub cache_misses: u64,
    /// Total memory accesses performed.
    pub accesses: u64,
    /// Peak execution-stack usage in words.
    pub stack_peak_words: u64,
    /// Total time units of a sequential execution under the paper's cost model:
    /// `W + b * Q`.
    pub time: u64,
}

/// A sequential tracer over a single-processor memory system.
pub struct SequentialTracer {
    memory: MemorySystem,
    stack_base: u64,
}

impl SequentialTracer {
    /// Create a tracer for a machine with the given cache parameters (only `M`, `B` and `b`
    /// matter; the processor count is forced to 1).
    pub fn new(config: &MachineConfig) -> Self {
        let cfg = config.clone().with_procs(1);
        // Align the stack base to a block boundary, matching the runtime's Space Allocation
        // Property (Property 4.3) so sequential and one-processor parallel runs see the same
        // addresses.
        let stack_base =
            rws_machine::addr::STACK_REGION_BASE.div_ceil(cfg.block_words) * cfg.block_words;
        SequentialTracer { memory: MemorySystem::new(cfg), stack_base }
    }

    /// Trace a sequential execution of `dag` and return its costs.
    pub fn run(&mut self, dag: &SpDag) -> SequentialCosts {
        let mut costs = SequentialCosts::default();
        let mut seg_stack: Vec<(u64, u32)> = Vec::new(); // (base address, size)
        let mut stack_top = self.stack_base;
        let mut peak = 0u64;
        self.walk(dag, dag.root(), &mut seg_stack, &mut stack_top, &mut peak, &mut costs);
        costs.cache_misses = self.memory.stats().cache_misses();
        costs.stack_peak_words = peak - self.stack_base;
        costs.time = costs.work + self.memory.config().miss_cost * costs.cache_misses;
        costs
    }

    /// The underlying memory system (for inspecting detailed statistics after a run).
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    fn exec_unit(
        &mut self,
        unit: &WorkUnit,
        seg_stack: &[(u64, u32)],
        costs: &mut SequentialCosts,
    ) {
        costs.work += unit.base_cost();
        for a in &unit.global {
            self.memory.access(ProcId(0), *a);
            costs.accesses += 1;
        }
        for la in &unit.locals {
            let idx = seg_stack.len() - 1 - la.hops as usize;
            let (base, size) = seg_stack[idx];
            debug_assert!(la.offset < size, "local access outside its segment");
            let addr = Addr(base + la.offset as u64);
            self.memory.access(ProcId(0), Access { addr, write: la.write });
            costs.accesses += 1;
        }
    }

    fn walk(
        &mut self,
        dag: &SpDag,
        id: NodeId,
        seg_stack: &mut Vec<(u64, u32)>,
        stack_top: &mut u64,
        peak: &mut u64,
        costs: &mut SequentialCosts,
    ) {
        let node = dag.node(id);
        match &node.structure {
            SpStructure::Leaf { work, seg_words } => {
                seg_stack.push((*stack_top, *seg_words));
                *stack_top += *seg_words as u64;
                *peak = (*peak).max(*stack_top);
                self.exec_unit(work, seg_stack, costs);
                *stack_top -= *seg_words as u64;
                seg_stack.pop();
            }
            SpStructure::Seq { children, seg_words } => {
                let declares = *seg_words > 0;
                if declares {
                    seg_stack.push((*stack_top, *seg_words));
                    *stack_top += *seg_words as u64;
                    *peak = (*peak).max(*stack_top);
                }
                for &c in children {
                    self.walk(dag, c, seg_stack, stack_top, peak, costs);
                }
                if declares {
                    *stack_top -= *seg_words as u64;
                    seg_stack.pop();
                }
            }
            SpStructure::Par { fork, join, left, right, seg_words } => {
                seg_stack.push((*stack_top, *seg_words));
                *stack_top += *seg_words as u64;
                *peak = (*peak).max(*stack_top);
                self.exec_unit(&fork.clone(), seg_stack, costs);
                self.walk(dag, *left, seg_stack, stack_top, peak, costs);
                self.walk(dag, *right, seg_stack, stack_top, peak, costs);
                self.exec_unit(&join.clone(), seg_stack, costs);
                *stack_top -= *seg_words as u64;
                seg_stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::SpDagBuilder;

    fn config() -> MachineConfig {
        MachineConfig::small()
    }

    #[test]
    fn work_matches_dag_work() {
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::compute(3).read(Addr(0)));
        let r = b.leaf(WorkUnit::compute(5).write(Addr(100)));
        let root = b.par(WorkUnit::compute(1), WorkUnit::compute(1), l, r);
        let dag = b.build(root).unwrap();
        let costs = SequentialTracer::new(&config()).run(&dag);
        assert_eq!(costs.work, dag.work());
        assert_eq!(costs.accesses, 2);
    }

    #[test]
    fn cache_misses_counted_per_block() {
        // Two leaves reading 16 consecutive words each, B = 8: 4 blocks -> 4 cold misses.
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::compute(1).reads((0..16).map(Addr)));
        let r = b.leaf(WorkUnit::compute(1).reads((16..32).map(Addr)));
        let root = b.par(WorkUnit::compute(1), WorkUnit::compute(1), l, r);
        let dag = b.build(root).unwrap();
        let costs = SequentialTracer::new(&config()).run(&dag);
        assert_eq!(costs.cache_misses, 4);
        assert_eq!(costs.time, costs.work + 4 * config().miss_cost);
    }

    #[test]
    fn no_block_misses_sequentially() {
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::compute(1).writes((0..8).map(Addr)));
        let r = b.leaf(WorkUnit::compute(1).writes((0..8).map(Addr)));
        let root = b.par(WorkUnit::compute(1), WorkUnit::compute(1), l, r);
        let dag = b.build(root).unwrap();
        let mut tracer = SequentialTracer::new(&config());
        tracer.run(&dag);
        assert_eq!(tracer.memory().stats().block_misses(), 0);
    }

    #[test]
    fn stack_segments_are_pushed_and_reused() {
        // Two sibling leaves each with a 4-word segment: sequentially they reuse the same
        // addresses, so the peak is fork segment (2) + one leaf segment (4).
        let mut b = SpDagBuilder::new();
        let l = b.leaf_with_segment(WorkUnit::compute(1).local_write(0, 0), 4);
        let r = b.leaf_with_segment(WorkUnit::compute(1).local_write(0, 3), 4);
        let root = b.par_with_segment(
            WorkUnit::compute(1),
            WorkUnit::compute(1).local_read(0, 1),
            l,
            r,
            2,
        );
        let dag = b.build(root).unwrap();
        let costs = SequentialTracer::new(&config()).run(&dag);
        assert_eq!(costs.stack_peak_words, 6);
        assert_eq!(costs.accesses, 3);
    }

    #[test]
    fn local_accesses_hit_the_stack_region() {
        let mut b = SpDagBuilder::new();
        let l = b.leaf_with_segment(WorkUnit::compute(1).local_write(0, 0), 1);
        let dag = b.build(l).unwrap();
        let mut tracer = SequentialTracer::new(&config());
        tracer.run(&dag);
        // Exactly one access, and it must be in the stack region: the directory then has one
        // tracked block whose base is in the stack region.
        let dir = tracer.memory().directory();
        assert_eq!(dir.tracked_blocks(), 1);
        let (block, _) = dir.iter().next().unwrap();
        assert_eq!(block.region(config().block_words), rws_machine::Region::Stack);
    }

    #[test]
    fn ancestor_segment_accesses_resolve_upward() {
        // The leaf writes into the fork's segment (hops = 1).
        let mut b = SpDagBuilder::new();
        let l = b.leaf_with_segment(WorkUnit::compute(1).local_write(1, 1), 1);
        let r = b.leaf(WorkUnit::compute(1));
        let root = b.par_with_segment(WorkUnit::compute(1), WorkUnit::compute(1), l, r, 2);
        let dag = b.build(root).unwrap();
        let mut tracer = SequentialTracer::new(&config());
        let costs = tracer.run(&dag);
        assert_eq!(costs.accesses, 1);
        // Only the fork segment's block is touched (offset 1 of the first stack block).
        assert_eq!(tracer.memory().directory().tracked_blocks(), 1);
    }
}
