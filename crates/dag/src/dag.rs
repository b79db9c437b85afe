//! The series-parallel dag arena, its builder and its structural analyses (work, span,
//! path costs, validation).

use crate::access::WorkUnit;
use crate::node::{NodeId, SpNode, SpStructure};

/// Errors detected while building or validating a dag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// A node references a child id that does not exist.
    MissingChild {
        /// The referencing parent.
        parent: NodeId,
        /// The dangling child id.
        child: NodeId,
    },
    /// A child id is not smaller than its parent id (children must be created before their
    /// parents, which also guarantees acyclicity).
    ChildAfterParent {
        /// The parent.
        parent: NodeId,
        /// The offending child.
        child: NodeId,
    },
    /// A node is referenced as a child by more than one parent.
    MultipleParents {
        /// The node with several parents.
        child: NodeId,
    },
    /// The designated root is referenced as a child of some node.
    RootHasParent {
        /// The root node.
        root: NodeId,
    },
    /// A node other than the root is not reachable from the root.
    Unreachable {
        /// The unreachable node.
        node: NodeId,
    },
    /// A `Seq` node has fewer than one child.
    EmptySeq {
        /// The empty sequencing node.
        node: NodeId,
    },
    /// A local access targets a segment that does not exist or an offset outside it.
    BadLocalAccess {
        /// The node whose work unit contains the bad access.
        node: NodeId,
        /// Number of ancestor segments requested.
        hops: u16,
        /// Offset requested.
        offset: u32,
    },
    /// The dag has no nodes.
    Empty,
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::MissingChild { parent, child } => {
                write!(f, "node {parent:?} references missing child {child:?}")
            }
            DagError::ChildAfterParent { parent, child } => {
                write!(f, "child {child:?} has an id not smaller than its parent {parent:?}")
            }
            DagError::MultipleParents { child } => {
                write!(f, "node {child:?} has more than one parent")
            }
            DagError::RootHasParent { root } => write!(f, "root {root:?} has a parent"),
            DagError::Unreachable { node } => write!(f, "node {node:?} unreachable from root"),
            DagError::EmptySeq { node } => write!(f, "sequence node {node:?} has no children"),
            DagError::BadLocalAccess { node, hops, offset } => write!(
                f,
                "node {node:?} has a local access (hops {hops}, offset {offset}) outside any segment"
            ),
            DagError::Empty => write!(f, "dag has no nodes"),
        }
    }
}

impl std::error::Error for DagError {}

/// A validated series-parallel dag.
#[derive(Clone, Debug, PartialEq)]
pub struct SpDag {
    nodes: Vec<SpNode>,
    root: NodeId,
}

/// Builder for [`SpDag`]. Children must be created before their parents.
#[derive(Clone, Debug, Default)]
pub struct SpDagBuilder {
    nodes: Vec<SpNode>,
}

impl SpDagBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        SpDagBuilder::default()
    }

    /// Number of nodes created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been created yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, node: SpNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Add a leaf node with no local segment.
    pub fn leaf(&mut self, work: WorkUnit) -> NodeId {
        self.leaf_with_segment(work, 0)
    }

    /// Add a leaf node declaring a `seg_words`-word segment of local variables.
    pub fn leaf_with_segment(&mut self, work: WorkUnit, seg_words: u32) -> NodeId {
        self.push(SpNode::new(SpStructure::Leaf { work, seg_words }))
    }

    /// Add a sequencing node over `children` (executed in order).
    pub fn seq(&mut self, children: Vec<NodeId>) -> NodeId {
        self.seq_with_segment(children, 0)
    }

    /// Add a sequencing node over `children` that declares a `seg_words`-word segment of
    /// local variables living for the whole sequence (e.g. the local result arrays a Type-2
    /// recursive call allocates for its sub-calls).
    pub fn seq_with_segment(&mut self, children: Vec<NodeId>, seg_words: u32) -> NodeId {
        self.push(SpNode::new(SpStructure::Seq { children, seg_words }))
    }

    /// Add a binary fork/join node with no local segment.
    pub fn par(&mut self, fork: WorkUnit, join: WorkUnit, left: NodeId, right: NodeId) -> NodeId {
        self.par_with_segment(fork, join, left, right, 0)
    }

    /// Add a binary fork/join node declaring a `seg_words`-word segment that lives from the
    /// fork until the join completes.
    pub fn par_with_segment(
        &mut self,
        fork: WorkUnit,
        join: WorkUnit,
        left: NodeId,
        right: NodeId,
        seg_words: u32,
    ) -> NodeId {
        self.push(SpNode::new(SpStructure::Par { fork, join, left, right, seg_words }))
    }

    /// Tag the most recently created node (or any node) with a user label.
    pub fn tag(&mut self, node: NodeId, tag: u32) {
        self.nodes[node.index()].tag = Some(tag);
    }

    /// Finish the dag with `root` as its root node, validating the structure.
    pub fn build(self, root: NodeId) -> Result<SpDag, DagError> {
        let dag = SpDag { nodes: self.nodes, root };
        dag.validate()?;
        Ok(dag)
    }
}

impl SpDag {
    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the dag is empty (never true for a validated dag).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &SpNode {
        &self.nodes[id.index()]
    }

    /// Iterate over `(id, node)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &SpNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Validate the structural invariants (tree-shaped series-parallel structure, children
    /// created before parents, local accesses within existing segments).
    pub fn validate(&self) -> Result<(), DagError> {
        if self.nodes.is_empty() {
            return Err(DagError::Empty);
        }
        if self.root.index() >= self.nodes.len() {
            return Err(DagError::MissingChild { parent: self.root, child: self.root });
        }
        let mut parents = vec![0u32; self.nodes.len()];
        for (id, node) in self.iter() {
            if let SpStructure::Seq { children, .. } = &node.structure {
                if children.is_empty() {
                    return Err(DagError::EmptySeq { node: id });
                }
            }
            for child in node.children() {
                if child.index() >= self.nodes.len() {
                    return Err(DagError::MissingChild { parent: id, child });
                }
                if child.index() >= id.index() {
                    return Err(DagError::ChildAfterParent { parent: id, child });
                }
                parents[child.index()] += 1;
                if parents[child.index()] > 1 {
                    return Err(DagError::MultipleParents { child });
                }
            }
        }
        if parents[self.root.index()] != 0 {
            return Err(DagError::RootHasParent { root: self.root });
        }
        // Reachability: every node must be reachable from the root.
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if reachable[id.index()] {
                continue;
            }
            reachable[id.index()] = true;
            stack.extend(self.node(id).children());
        }
        if let Some(i) = reachable.iter().position(|r| !r) {
            return Err(DagError::Unreachable { node: NodeId(i as u32) });
        }
        self.validate_local_accesses()?;
        Ok(())
    }

    fn validate_local_accesses(&self) -> Result<(), DagError> {
        // Walk the tree keeping the stack of segment-declaring ancestors (their sizes).
        fn check_unit(id: NodeId, unit: &WorkUnit, seg_sizes: &[u32]) -> Result<(), DagError> {
            for la in &unit.locals {
                let hops = la.hops as usize;
                if hops >= seg_sizes.len() {
                    return Err(DagError::BadLocalAccess {
                        node: id,
                        hops: la.hops,
                        offset: la.offset,
                    });
                }
                let size = seg_sizes[seg_sizes.len() - 1 - hops];
                if la.offset >= size {
                    return Err(DagError::BadLocalAccess {
                        node: id,
                        hops: la.hops,
                        offset: la.offset,
                    });
                }
            }
            Ok(())
        }
        fn walk(dag: &SpDag, id: NodeId, seg_sizes: &mut Vec<u32>) -> Result<(), DagError> {
            let node = dag.node(id);
            match &node.structure {
                SpStructure::Leaf { work, seg_words } => {
                    seg_sizes.push(*seg_words);
                    check_unit(id, work, seg_sizes)?;
                    seg_sizes.pop();
                }
                SpStructure::Seq { children, seg_words } => {
                    let declares = *seg_words > 0;
                    if declares {
                        seg_sizes.push(*seg_words);
                    }
                    for &c in children {
                        walk(dag, c, seg_sizes)?;
                    }
                    if declares {
                        seg_sizes.pop();
                    }
                }
                SpStructure::Par { fork, join, left, right, seg_words } => {
                    seg_sizes.push(*seg_words);
                    check_unit(id, fork, seg_sizes)?;
                    walk(dag, *left, seg_sizes)?;
                    walk(dag, *right, seg_sizes)?;
                    check_unit(id, join, seg_sizes)?;
                    seg_sizes.pop();
                }
            }
            Ok(())
        }
        walk(self, self.root, &mut Vec::new())
    }

    /// Total work `W`: the sum of base costs of every executed work unit.
    pub fn work(&self) -> u64 {
        self.fold_costs(|w| w.base_cost()).0
    }

    /// Span (critical-path length) measured in unit-time operations.
    pub fn span_ops(&self) -> u64 {
        self.fold_costs(|w| w.base_cost()).1
    }

    /// Span measured in dag *vertices* — the paper's `T∞` (length in vertices of the longest
    /// path descending the dag).
    pub fn span_nodes(&self) -> u64 {
        self.fold_costs(|_| 1).1
    }

    /// `(total, critical-path)` of an arbitrary per-work-unit cost function. Used e.g. with
    /// `|w| w.access_count()` to bound `D_b` (the cache-miss cost along any path).
    pub fn fold_costs<F: Fn(&WorkUnit) -> u64>(&self, cost: F) -> (u64, u64) {
        // Children always have smaller ids, so a single forward pass computes bottom-up values.
        let mut total = vec![0u64; self.nodes.len()];
        let mut path = vec![0u64; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            match &node.structure {
                SpStructure::Leaf { work, .. } => {
                    total[i] = cost(work);
                    path[i] = cost(work);
                }
                SpStructure::Seq { children, .. } => {
                    total[i] = children.iter().map(|c| total[c.index()]).sum();
                    path[i] = children.iter().map(|c| path[c.index()]).sum();
                }
                SpStructure::Par { fork, join, left, right, .. } => {
                    let f = cost(fork);
                    let j = cost(join);
                    total[i] = f + j + total[left.index()] + total[right.index()];
                    path[i] = f + j + path[left.index()].max(path[right.index()]);
                }
            }
        }
        (total[self.root.index()], path[self.root.index()])
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> u64 {
        self.nodes.iter().filter(|n| n.is_leaf()).count() as u64
    }

    /// Number of fork/join (`Par`) nodes.
    pub fn fork_count(&self) -> u64 {
        self.nodes.iter().filter(|n| n.is_par()).count() as u64
    }

    /// Maximum number of memory accesses (global + local) at any single work unit — the
    /// paper's per-node bound `e1` (and, scaled by the miss cost, a bound related to `E`).
    pub fn max_accesses_per_unit(&self) -> u64 {
        let mut max = 0;
        for node in &self.nodes {
            match &node.structure {
                SpStructure::Leaf { work, .. } => max = max.max(work.access_count()),
                SpStructure::Seq { .. } => {}
                SpStructure::Par { fork, join, .. } => {
                    max = max.max(fork.access_count()).max(join.access_count());
                }
            }
        }
        max
    }

    /// Upper bound on the number of memory accesses along any root-to-sink path (a proxy for
    /// the paper's `D_b`, the cache-miss cost along any path, measured in accesses).
    pub fn path_access_bound(&self) -> u64 {
        self.fold_costs(|w: &WorkUnit| w.access_count()).1
    }

    /// Maximum nesting depth of execution-stack segments along any path (bounds the
    /// sequential stack space together with the segment sizes).
    pub fn max_segment_depth(&self) -> u64 {
        fn walk(dag: &SpDag, id: NodeId, depth: u64, max: &mut u64) {
            let node = dag.node(id);
            let d = depth + if node.declares_segment() { 1 } else { 0 };
            *max = (*max).max(d);
            for c in node.children() {
                walk(dag, c, d, max);
            }
        }
        let mut max = 0;
        walk(self, self.root, 0, &mut max);
        max
    }

    /// Peak execution-stack space (in words) of a *sequential* execution: the maximum, over
    /// root-to-leaf paths, of the sum of segment sizes of segment-declaring ancestors.
    pub fn sequential_stack_words(&self) -> u64 {
        fn walk(dag: &SpDag, id: NodeId, space: u64, max: &mut u64) {
            let node = dag.node(id);
            let s = space + node.seg_words() as u64;
            *max = (*max).max(s);
            for c in node.children() {
                walk(dag, c, s, max);
            }
        }
        let mut max = 0;
        walk(self, self.root, 0, &mut max);
        max
    }

    /// The distinct global words read or written anywhere in the dag (the task "size" |τ| of
    /// Definition 2.1, restricted to global variables).
    pub fn global_footprint_words(&self) -> u64 {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        for node in &self.nodes {
            let units: Vec<&WorkUnit> = match &node.structure {
                SpStructure::Leaf { work, .. } => vec![work],
                SpStructure::Seq { .. } => vec![],
                SpStructure::Par { fork, join, .. } => vec![fork, join],
            };
            for u in units {
                for a in &u.global {
                    set.insert(a.addr);
                }
            }
        }
        set.len() as u64
    }

    /// Total number of global-array accesses over the whole dag.
    pub fn total_global_accesses(&self) -> u64 {
        self.fold_costs(|w: &WorkUnit| w.global.len() as u64).0
    }

    /// Total number of local (stack) accesses over the whole dag.
    pub fn total_local_accesses(&self) -> u64 {
        self.fold_costs(|w: &WorkUnit| w.locals.len() as u64).0
    }

    /// Maximum number of times any single global word is written over the whole computation.
    /// A *limited-access* algorithm (Property 4.1) has this bounded by a constant.
    pub fn max_writes_per_global_word(&self) -> u64 {
        use std::collections::HashMap;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for node in &self.nodes {
            let units: Vec<&WorkUnit> = match &node.structure {
                SpStructure::Leaf { work, .. } => vec![work],
                SpStructure::Seq { .. } => vec![],
                SpStructure::Par { fork, join, .. } => vec![fork, join],
            };
            for u in units {
                for a in &u.global {
                    if a.write {
                        *counts.entry(a.addr.0).or_insert(0) += 1;
                    }
                }
            }
        }
        counts.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_machine::Addr;

    fn simple_par() -> SpDag {
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::compute(3).read(Addr(0)));
        let r = b.leaf(WorkUnit::compute(5).write(Addr(1)));
        let root = b.par_with_segment(WorkUnit::compute(1), WorkUnit::compute(1), l, r, 2);
        b.build(root).unwrap()
    }

    #[test]
    fn work_and_span_of_simple_par() {
        let d = simple_par();
        assert_eq!(d.work(), 3 + 5 + 1 + 1);
        assert_eq!(d.span_ops(), 1 + 5 + 1);
        assert_eq!(d.span_nodes(), 1 + 1 + 1 + 1 - 1); // fork + max(leaf) + join = 3
        assert_eq!(d.leaf_count(), 2);
        assert_eq!(d.fork_count(), 1);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn seq_adds_spans() {
        let mut b = SpDagBuilder::new();
        let a = b.leaf(WorkUnit::compute(2));
        let c = b.leaf(WorkUnit::compute(3));
        let root = b.seq(vec![a, c]);
        let d = b.build(root).unwrap();
        assert_eq!(d.work(), 5);
        assert_eq!(d.span_ops(), 5);
        assert_eq!(d.span_nodes(), 2);
    }

    #[test]
    fn nested_structure_analysis() {
        // seq( par(l1, l2), l3 )
        let mut b = SpDagBuilder::new();
        let l1 = b.leaf(WorkUnit::compute(4));
        let l2 = b.leaf(WorkUnit::compute(6));
        let p = b.par(WorkUnit::compute(1), WorkUnit::compute(1), l1, l2);
        let l3 = b.leaf(WorkUnit::compute(10));
        let root = b.seq(vec![p, l3]);
        let d = b.build(root).unwrap();
        assert_eq!(d.work(), 4 + 6 + 1 + 1 + 10);
        assert_eq!(d.span_ops(), 1 + 6 + 1 + 10);
    }

    #[test]
    fn validation_rejects_missing_child() {
        let b = SpDagBuilder::new();
        let mut nodes = b;
        let l = nodes.leaf(WorkUnit::empty());
        // Build a Par that references a node id that does not exist.
        let bogus = NodeId(99);
        let root = nodes.par(WorkUnit::empty(), WorkUnit::empty(), l, bogus);
        assert!(matches!(nodes.build(root), Err(DagError::MissingChild { .. })));
    }

    #[test]
    fn validation_rejects_shared_child() {
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::empty());
        let r = b.leaf(WorkUnit::empty());
        let p1 = b.par(WorkUnit::empty(), WorkUnit::empty(), l, r);
        // l used again by a second parent.
        let p2 = b.par(WorkUnit::empty(), WorkUnit::empty(), p1, l);
        assert!(matches!(b.build(p2), Err(DagError::MultipleParents { .. })));
    }

    #[test]
    fn validation_rejects_non_root_orphan() {
        let mut b = SpDagBuilder::new();
        let _orphan = b.leaf(WorkUnit::empty());
        let l = b.leaf(WorkUnit::empty());
        let r = b.leaf(WorkUnit::empty());
        let root = b.par(WorkUnit::empty(), WorkUnit::empty(), l, r);
        assert!(matches!(b.build(root), Err(DagError::Unreachable { .. })));
    }

    #[test]
    fn validation_rejects_root_with_parent() {
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::empty());
        let r = b.leaf(WorkUnit::empty());
        let _root = b.par(WorkUnit::empty(), WorkUnit::empty(), l, r);
        // Declare one of the children as root: it has a parent.
        assert!(matches!(b.build(l), Err(DagError::RootHasParent { .. })));
    }

    #[test]
    fn validation_rejects_empty_seq() {
        let mut b = SpDagBuilder::new();
        let s = b.seq(vec![]);
        assert!(matches!(b.build(s), Err(DagError::EmptySeq { .. })));
    }

    #[test]
    fn validation_rejects_empty_dag() {
        let b = SpDagBuilder::new();
        assert!(matches!(b.build(NodeId(0)), Err(DagError::Empty)));
    }

    #[test]
    fn validation_rejects_bad_local_access() {
        let mut b = SpDagBuilder::new();
        // Leaf declares a 1-word segment but accesses offset 3.
        let l = b.leaf_with_segment(WorkUnit::empty().local_write(0, 3), 1);
        assert!(matches!(b.build(l), Err(DagError::BadLocalAccess { .. })));

        // Access to a non-existent ancestor segment.
        let mut b = SpDagBuilder::new();
        let l = b.leaf_with_segment(WorkUnit::empty().local_write(1, 0), 1);
        assert!(matches!(b.build(l), Err(DagError::BadLocalAccess { .. })));
    }

    #[test]
    fn local_access_to_ancestor_segment_is_ok() {
        let mut b = SpDagBuilder::new();
        let l = b.leaf_with_segment(WorkUnit::empty().local_write(1, 1), 1);
        let r = b.leaf(WorkUnit::empty());
        let root = b.par_with_segment(WorkUnit::empty(), WorkUnit::empty(), l, r, 2);
        assert!(b.build(root).is_ok());
    }

    #[test]
    fn footprint_and_write_counts() {
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::empty().write(Addr(0)).write(Addr(0)).read(Addr(1)));
        let r = b.leaf(WorkUnit::empty().write(Addr(2)));
        let root = b.par(WorkUnit::empty(), WorkUnit::empty(), l, r);
        let d = b.build(root).unwrap();
        assert_eq!(d.global_footprint_words(), 3);
        assert_eq!(d.max_writes_per_global_word(), 2);
        assert_eq!(d.total_global_accesses(), 4);
    }

    #[test]
    fn segment_depth_and_stack_space() {
        let mut b = SpDagBuilder::new();
        let l1 = b.leaf_with_segment(WorkUnit::empty(), 3);
        let l2 = b.leaf(WorkUnit::empty());
        let inner = b.par_with_segment(WorkUnit::empty(), WorkUnit::empty(), l1, l2, 5);
        let l3 = b.leaf(WorkUnit::empty());
        let root = b.par_with_segment(WorkUnit::empty(), WorkUnit::empty(), inner, l3, 7);
        let d = b.build(root).unwrap();
        assert_eq!(d.max_segment_depth(), 3);
        assert_eq!(d.sequential_stack_words(), 7 + 5 + 3);
    }

    #[test]
    fn max_accesses_per_unit() {
        let d = simple_par();
        assert_eq!(d.max_accesses_per_unit(), 1);
        assert_eq!(d.path_access_bound(), 1);
    }

    #[test]
    fn tags_round_trip() {
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::empty());
        b.tag(l, 42);
        let r = b.leaf(WorkUnit::empty());
        let root = b.par(WorkUnit::empty(), WorkUnit::empty(), l, r);
        let d = b.build(root).unwrap();
        assert_eq!(d.node(l).tag, Some(42));
        assert_eq!(d.node(r).tag, None);
    }
}
