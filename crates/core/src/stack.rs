//! Execution-stack allocation for tasks.
//!
//! Following the paper's Space Allocation Property (Property 4.3), every task — the original
//! task and each stolen task — receives its own stack region whose base is block-aligned, so
//! stack allocations of different tasks never share a block. Within a task the segments of
//! its fork and leaf nodes are bump-allocated and popped in LIFO order, so siblings reuse the
//! same addresses — the reuse that Lemma 4.4 has to reason about.

use rws_machine::addr::STACK_REGION_BASE;

/// A task's private stack region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskStack {
    /// First word of the region (block-aligned).
    pub base: u64,
    /// Current allocation top (next free word).
    pub top: u64,
    /// One past the last usable word.
    pub limit: u64,
    /// High-water mark of `top` over the task's lifetime.
    pub peak: u64,
}

impl TaskStack {
    /// Push a segment of `words` words and return its base address.
    ///
    /// Panics if the reservation is exhausted (which indicates the caller under-estimated the
    /// stack bound when configuring the [`StackAllocator`]).
    pub fn push_segment(&mut self, words: u64) -> u64 {
        assert!(
            self.top + words <= self.limit,
            "task stack overflow: need {} words, {} available",
            words,
            self.limit - self.top
        );
        let base = self.top;
        self.top += words;
        self.peak = self.peak.max(self.top);
        base
    }

    /// Pop the most recent `words`-word segment.
    pub fn pop_segment(&mut self, words: u64) {
        debug_assert!(self.top >= self.base + words, "popping more stack than was pushed");
        self.top -= words;
    }

    /// Words currently in use.
    pub fn used_words(&self) -> u64 {
        self.top - self.base
    }

    /// Peak usage in words.
    pub fn peak_words(&self) -> u64 {
        self.peak - self.base
    }
}

/// Allocates disjoint, block-aligned stack regions for tasks.
#[derive(Clone, Debug)]
pub struct StackAllocator {
    next_base: u64,
    block_words: u64,
    reserve_words: u64,
    allocated_tasks: u64,
}

impl StackAllocator {
    /// Create an allocator that reserves `reserve_words` words per task (rounded up to whole
    /// blocks of `block_words` words).
    pub fn new(block_words: u64, reserve_words: u64) -> Self {
        assert!(block_words > 0);
        let reserve = reserve_words.max(1);
        let reserve = reserve.div_ceil(block_words) * block_words;
        // Align the start of the stack region to a block boundary so that every task stack
        // base is block-aligned even for block sizes that do not divide the region base.
        let first_base = STACK_REGION_BASE.div_ceil(block_words) * block_words;
        StackAllocator {
            next_base: first_base,
            block_words,
            reserve_words: reserve,
            allocated_tasks: 0,
        }
    }

    /// Reserve a fresh stack region for a new task.
    pub fn new_task_stack(&mut self) -> TaskStack {
        let base = self.next_base;
        debug_assert_eq!(base % self.block_words, 0, "stack bases are block-aligned");
        self.next_base += self.reserve_words;
        self.allocated_tasks += 1;
        TaskStack { base, top: base, limit: base + self.reserve_words, peak: base }
    }

    /// Number of task stacks handed out so far.
    pub fn allocated_tasks(&self) -> u64 {
        self.allocated_tasks
    }

    /// Per-task reservation in words (after rounding to blocks).
    pub fn reserve_words(&self) -> u64 {
        self.reserve_words
    }

    /// Total words of stack address space reserved so far.
    pub fn total_reserved_words(&self) -> u64 {
        self.allocated_tasks * self.reserve_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_is_block_rounded() {
        let a = StackAllocator::new(8, 10);
        assert_eq!(a.reserve_words(), 16);
        let a = StackAllocator::new(8, 16);
        assert_eq!(a.reserve_words(), 16);
        let a = StackAllocator::new(8, 0);
        assert_eq!(a.reserve_words(), 8);
    }

    #[test]
    fn task_stacks_are_disjoint_and_aligned() {
        let mut a = StackAllocator::new(8, 20);
        let s1 = a.new_task_stack();
        let s2 = a.new_task_stack();
        assert_eq!(s1.base % 8, 0);
        assert_eq!(s2.base % 8, 0);
        assert!(s1.limit <= s2.base, "regions must not overlap");
        assert_eq!(a.allocated_tasks(), 2);
        assert_eq!(a.total_reserved_words(), 2 * a.reserve_words());
    }

    #[test]
    fn push_pop_lifo_reuses_addresses() {
        let mut a = StackAllocator::new(8, 64);
        let mut s = a.new_task_stack();
        let seg1 = s.push_segment(4);
        s.pop_segment(4);
        let seg2 = s.push_segment(4);
        assert_eq!(seg1, seg2, "siblings reuse the same stack addresses");
        assert_eq!(s.used_words(), 4);
        assert_eq!(s.peak_words(), 4);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut a = StackAllocator::new(8, 64);
        let mut s = a.new_task_stack();
        s.push_segment(10);
        s.push_segment(20);
        s.pop_segment(20);
        s.pop_segment(10);
        assert_eq!(s.used_words(), 0);
        assert_eq!(s.peak_words(), 30);
    }

    #[test]
    #[should_panic(expected = "task stack overflow")]
    fn overflow_panics() {
        let mut a = StackAllocator::new(8, 8);
        let mut s = a.new_task_stack();
        s.push_segment(9);
    }

    #[test]
    fn stacks_start_in_stack_region() {
        let mut a = StackAllocator::new(8, 8);
        let s = a.new_task_stack();
        assert!(s.base >= STACK_REGION_BASE);
    }
}
