//! The simulated per-processor work queue.
//!
//! Matches the paper's description in Section 2: a processor pushes newly created stealable
//! tasks at the *bottom* of its queue and pops its own work from the bottom; thieves steal
//! from the *top*, so the oldest (largest) outstanding forked task is taken first.

use rws_dag::NodeId;
use std::collections::VecDeque;

/// One stealable entry: the right child of a fork, together with enough information for a
/// thief to reconstruct the execution context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DequeEntry {
    /// The task instance that performed the fork.
    pub owner_task: u32,
    /// The fork (`Par`) node whose right child this entry represents.
    pub par_node: NodeId,
    /// The right child to execute.
    pub child: NodeId,
    /// Length of the owner task's segment chain at the time of the fork (including the fork's
    /// own segment). A thief copies exactly this prefix so that local accesses of the stolen
    /// subtree resolve to the victim's live segments.
    pub chain_len: u32,
}

/// A double-ended work queue of stealable entries.
#[derive(Clone, Debug, Default)]
pub struct SimDeque {
    entries: VecDeque<DequeEntry>,
}

impl SimDeque {
    /// Create an empty deque.
    pub fn new() -> Self {
        SimDeque::default()
    }

    /// Number of stealable entries currently queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there is nothing to steal.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Push a newly forked entry at the bottom (owner side).
    pub fn push_bottom(&mut self, entry: DequeEntry) {
        self.entries.push_back(entry);
    }

    /// Pop the newest entry from the bottom (owner side).
    pub fn pop_bottom(&mut self) -> Option<DequeEntry> {
        self.entries.pop_back()
    }

    /// Look at the newest entry without removing it.
    pub fn peek_bottom(&self) -> Option<&DequeEntry> {
        self.entries.back()
    }

    /// Steal the oldest entry from the top (thief side).
    pub fn steal_top(&mut self) -> Option<DequeEntry> {
        self.entries.pop_front()
    }

    /// Look at the oldest entry without removing it.
    pub fn peek_top(&self) -> Option<&DequeEntry> {
        self.entries.front()
    }

    /// Iterate from top (oldest) to bottom (newest).
    pub fn iter(&self) -> impl Iterator<Item = &DequeEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(node: u32) -> DequeEntry {
        DequeEntry { owner_task: 0, par_node: NodeId(node), child: NodeId(node + 1), chain_len: 1 }
    }

    #[test]
    fn lifo_for_owner() {
        let mut d = SimDeque::new();
        d.push_bottom(entry(1));
        d.push_bottom(entry(2));
        d.push_bottom(entry(3));
        assert_eq!(d.pop_bottom().unwrap().par_node, NodeId(3));
        assert_eq!(d.pop_bottom().unwrap().par_node, NodeId(2));
        assert_eq!(d.pop_bottom().unwrap().par_node, NodeId(1));
        assert!(d.pop_bottom().is_none());
    }

    #[test]
    fn fifo_for_thief() {
        let mut d = SimDeque::new();
        d.push_bottom(entry(1));
        d.push_bottom(entry(2));
        d.push_bottom(entry(3));
        assert_eq!(d.steal_top().unwrap().par_node, NodeId(1));
        assert_eq!(d.steal_top().unwrap().par_node, NodeId(2));
        assert_eq!(d.steal_top().unwrap().par_node, NodeId(3));
        assert!(d.steal_top().is_none());
    }

    #[test]
    fn owner_and_thief_meet_in_the_middle() {
        let mut d = SimDeque::new();
        for i in 0..4 {
            d.push_bottom(entry(i));
        }
        assert_eq!(d.steal_top().unwrap().par_node, NodeId(0));
        assert_eq!(d.pop_bottom().unwrap().par_node, NodeId(3));
        assert_eq!(d.steal_top().unwrap().par_node, NodeId(1));
        assert_eq!(d.pop_bottom().unwrap().par_node, NodeId(2));
        assert!(d.is_empty());
    }

    #[test]
    fn peeks_do_not_remove() {
        let mut d = SimDeque::new();
        d.push_bottom(entry(1));
        d.push_bottom(entry(2));
        assert_eq!(d.peek_top().unwrap().par_node, NodeId(1));
        assert_eq!(d.peek_bottom().unwrap().par_node, NodeId(2));
        assert_eq!(d.len(), 2);
        let order: Vec<u32> = d.iter().map(|e| e.par_node.0).collect();
        assert_eq!(order, vec![1, 2]);
    }
}
