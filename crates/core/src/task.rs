//! Runtime state of task instances (the original task and every stolen or locally re-popped
//! subtask) and the control-flow frames that walk the series-parallel dag.

use crate::stack::TaskStack;
use rws_dag::NodeId;
use rws_machine::ProcId;

/// Identifier of a task instance within one simulation run. Task 0 is the original task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a task instance came into being.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskOrigin {
    /// The original task of the computation.
    Root,
    /// Created by a successful steal from another processor's queue.
    Stolen,
    /// Created by a processor popping an entry from its *own* queue after its previous task
    /// suspended or completed (not a steal; no steal cost, no new-stack requirement in the
    /// paper, but we give it a fresh stack region anyway — see the crate documentation of
    /// `scheduler`).
    LocalPop,
}

/// A control-flow frame of a task's walk over the dag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Executing the children of a `Seq` node; `next` is the index of the child currently
    /// being executed.
    Seq {
        /// The sequencing node.
        node: NodeId,
        /// Index of the child currently executing.
        next: u32,
    },
    /// The left child of this `Par` node is currently being executed by this task.
    Par {
        /// The fork/join node.
        node: NodeId,
    },
    /// The right child of this `Par` node is being executed inline by the owner (it was
    /// popped from the bottom of the owner's own queue at the join point).
    ParRight {
        /// The fork/join node.
        node: NodeId,
    },
}

/// One entry of a task's segment chain: a live execution-stack segment of an ancestor (or of
/// the current node).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegEntry {
    /// Base word address of the segment.
    pub base: u64,
    /// Segment size in words (after any padding).
    pub words: u64,
    /// Whether this segment was allocated on this task's own stack (and must therefore be
    /// popped from it) or belongs to an ancestor task.
    pub own: bool,
}

/// The full runtime state of one task instance.
#[derive(Clone, Debug)]
pub struct TaskInstance {
    /// This task's id.
    pub id: TaskId,
    /// How it was created.
    pub origin: TaskOrigin,
    /// Control-flow frames (innermost last).
    pub frames: Vec<Frame>,
    /// The node about to be entered, if the walk is descending.
    pub entering: Option<NodeId>,
    /// Chain of live segments from the computation root down to the current position
    /// (crossing task boundaries: entries of ancestors are `own == false`).
    pub seg_chain: Vec<SegEntry>,
    /// This task's private stack region.
    pub stack: TaskStack,
    /// If this task is not the root: the parent task and the `Par` node whose right child
    /// this task executes.
    pub parent: Option<(TaskId, NodeId)>,
    /// If set, the task was suspended at this `Par` node's join; on resumption the join work
    /// of that node must be executed first.
    pub resume_join: Option<NodeId>,
    /// The processor that most recently executed this task (used to count usurpations).
    pub last_proc: Option<ProcId>,
    /// Number of dag nodes whose work this task instance executed (kernel size proxy).
    pub nodes_executed: u64,
}

impl TaskInstance {
    /// Create a new task instance.
    pub fn new(
        id: TaskId,
        origin: TaskOrigin,
        entering: NodeId,
        seg_chain: Vec<SegEntry>,
        stack: TaskStack,
        parent: Option<(TaskId, NodeId)>,
    ) -> Self {
        TaskInstance {
            id,
            origin,
            frames: Vec::new(),
            entering: Some(entering),
            seg_chain,
            stack,
            parent,
            resume_join: None,
            last_proc: None,
            nodes_executed: 0,
        }
    }

    /// Whether the task has nothing left to do (no frames, nothing being entered, no pending
    /// join to resume).
    pub fn is_complete(&self) -> bool {
        self.frames.is_empty() && self.entering.is_none() && self.resume_join.is_none()
    }
}

/// Per-`Par`-node join bookkeeping shared by all task instances of a run.
#[derive(Clone, Debug, Default)]
pub struct JoinState {
    /// Number of children (left subtree, right subtree) that have completed (0, 1 or 2).
    pub arrived: u8,
    /// Whether the right child was taken from a queue by a processor other than the one that
    /// pushed it (a steal in the paper's sense).
    pub right_stolen: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StackAllocator;

    #[test]
    fn new_task_is_not_complete_until_drained() {
        let mut alloc = StackAllocator::new(8, 64);
        let mut t = TaskInstance::new(
            TaskId(0),
            TaskOrigin::Root,
            NodeId(0),
            Vec::new(),
            alloc.new_task_stack(),
            None,
        );
        assert!(!t.is_complete());
        t.entering = None;
        assert!(t.is_complete());
        t.resume_join = Some(NodeId(3));
        assert!(!t.is_complete());
    }

    #[test]
    fn task_id_index() {
        assert_eq!(TaskId(5).index(), 5);
    }

    #[test]
    fn join_state_default() {
        let j = JoinState::default();
        assert_eq!(j.arrived, 0);
        assert!(!j.right_stolen);
    }
}
