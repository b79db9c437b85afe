//! The potential function of Section 5.
//!
//! Each vertex `u` of the dag is assigned a cost `e1 + b·E` (fork vertices get an additional
//! `2s`), and its *height* `h(u)` is `1/s` times the maximum cost of a path descending from
//! `u` to the end of the computation. A task on a queue has potential `2^{1+h(u)}`, an
//! executing task `2^{h(u) - x/s}` after `x` units of work, and the total potential `φ` is
//! the sum over all live vertices. Lemmas 5.1 and 5.2 show `φ` drops by a constant factor in
//! every steal phase (in expectation) and by `(1 - b/4s)` in every computation phase, which
//! is what bounds the number of steals (Theorem 5.1).
//!
//! Potentials are astronomically large (`2^h` with `h` in the hundreds or thousands), so this
//! module works in the log2 domain throughout.

use rws_dag::{NodeId, SpDag, SpStructure, WorkUnit};

/// Heights `h(u)` (in units of the steal cost `s`) of the *entry vertex* of every dag node,
/// measured to the end of the whole computation (not just the node's subtree).
#[derive(Clone, Debug)]
pub struct HeightAssignment {
    heights: Vec<f64>,
    join_heights: Vec<f64>,
    root_height: f64,
}

impl HeightAssignment {
    /// Compute heights for `dag` with miss cost `b`, steal cost `s` and per-node miss bound
    /// `e_bound` (the paper's `E`, measured in misses). When `e_bound` is `None` each work
    /// unit is charged one potential miss per access it performs.
    pub fn new(dag: &SpDag, miss_cost: u64, steal_cost: u64, e_bound: Option<u64>) -> Self {
        let s = steal_cost.max(1) as f64;
        let b = miss_cost as f64;
        let unit_cost = |w: &WorkUnit| -> f64 {
            let misses = e_bound.unwrap_or(w.access_count()) as f64;
            (w.base_cost() as f64 + b * misses) / s
        };
        let mut heights = vec![0.0f64; dag.len()];
        let mut join_heights = vec![0.0f64; dag.len()];
        // Heights are computed top-down: the entry height of a node is the cost of the longest
        // path through its subtree plus the height of whatever follows it (its "tail").
        Self::compute_rec(dag, dag.root(), 0.0, &unit_cost, &mut heights, &mut join_heights);
        let root_height = heights[dag.root().index()];
        HeightAssignment { heights, join_heights, root_height }
    }

    fn compute_rec(
        dag: &SpDag,
        id: NodeId,
        tail: f64,
        unit_cost: &dyn Fn(&WorkUnit) -> f64,
        heights: &mut Vec<f64>,
        join_heights: &mut Vec<f64>,
    ) {
        match &dag.node(id).structure {
            SpStructure::Leaf { work, .. } => {
                heights[id.index()] = unit_cost(work) + tail;
                join_heights[id.index()] = tail;
            }
            SpStructure::Seq { children, .. } => {
                let mut t = tail;
                for &c in children.iter().rev() {
                    Self::compute_rec(dag, c, t, unit_cost, heights, join_heights);
                    t = heights[c.index()];
                }
                heights[id.index()] = heights[children[0].index()];
                join_heights[id.index()] = tail;
            }
            SpStructure::Par { fork, join, left, right, .. } => {
                let join_h = unit_cost(join) + tail;
                Self::compute_rec(dag, *left, join_h, unit_cost, heights, join_heights);
                Self::compute_rec(dag, *right, join_h, unit_cost, heights, join_heights);
                let fork_h = unit_cost(fork) + 2.0;
                heights[id.index()] = fork_h + heights[left.index()].max(heights[right.index()]);
                join_heights[id.index()] = join_h;
            }
        }
    }

    /// Height of node `u`'s entry vertex.
    pub fn height(&self, u: NodeId) -> f64 {
        self.heights[u.index()]
    }

    /// Height of node `u`'s *join* vertex (for `Par` nodes: the up-pass vertex executed after
    /// both children complete; for other nodes: the height of whatever follows the node).
    pub fn join_height(&self, u: NodeId) -> f64 {
        self.join_heights[u.index()]
    }

    /// log2 of the potential of a task that is executing the up-pass (join side) of node `u`.
    pub fn log_potential_at_join(&self, u: NodeId) -> f64 {
        self.join_height(u)
    }

    /// Height of the root `h(t)` — the quantity appearing in Theorem 5.1's steal bound
    /// `O(p · h(t) · (1 + a))`.
    pub fn root_height(&self) -> f64 {
        self.root_height
    }

    /// log2 of the potential `2^{1 + h(u)}` of a queued task rooted at `u`.
    pub fn log_potential_queued(&self, u: NodeId) -> f64 {
        1.0 + self.height(u)
    }

    /// log2 of the potential `2^{h(u)}` of a task currently executing at `u` (progress within
    /// the node is ignored — this is instrumentation, not part of the proof).
    pub fn log_potential_executing(&self, u: NodeId) -> f64 {
        self.height(u)
    }
}

/// log2 of a sum of powers of two given their exponents (a numerically stable log-sum-exp in
/// base 2). Returns negative infinity for an empty slice.
pub fn log2_sum_exp2(exponents: &[f64]) -> f64 {
    if exponents.is_empty() {
        return f64::NEG_INFINITY;
    }
    let max = exponents.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f64 = exponents.iter().map(|&x| (x - max).exp2()).sum();
    max + sum.log2()
}

/// One sample of the potential function during a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PotentialSample {
    /// Simulated time of the sample.
    pub time: u64,
    /// log2 of the total potential φ.
    pub log2_phi: f64,
    /// Number of queued (stealable) entries across all processors.
    pub queued: u32,
    /// Number of processors currently executing a task.
    pub executing: u32,
    /// Cumulative successful steals at the time of the sample.
    pub steals_so_far: u64,
}

/// Collects potential samples during a run.
#[derive(Clone, Debug, Default)]
pub struct PotentialTracker {
    samples: Vec<PotentialSample>,
}

impl PotentialTracker {
    /// Create an empty tracker.
    pub fn new() -> Self {
        PotentialTracker::default()
    }

    /// Record a sample.
    pub fn record(&mut self, sample: PotentialSample) {
        self.samples.push(sample);
    }

    /// All recorded samples in time order.
    pub fn samples(&self) -> &[PotentialSample] {
        &self.samples
    }

    /// Consume the tracker and return its samples.
    pub fn into_samples(self) -> Vec<PotentialSample> {
        self.samples
    }

    /// The fraction of consecutive sample pairs in which the potential did not increase
    /// (Lemmas 5.1 / 5.2 imply the potential never increases; small increases can appear in
    /// this instrumentation because executing-task progress is not subtracted).
    pub fn non_increasing_fraction(&self) -> f64 {
        if self.samples.len() < 2 {
            return 1.0;
        }
        let mut ok = 0usize;
        for w in self.samples.windows(2) {
            if w[1].log2_phi <= w[0].log2_phi + 1e-9 {
                ok += 1;
            }
        }
        ok as f64 / (self.samples.len() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_dag::{SpDagBuilder, WorkUnit};

    fn two_level_dag() -> SpDag {
        // par( par(a, b), par(c, d) ) with unit leaves.
        let mut b = SpDagBuilder::new();
        let leaves: Vec<NodeId> = (0..4).map(|_| b.leaf(WorkUnit::compute(1))).collect();
        let p1 = b.par(WorkUnit::compute(1), WorkUnit::compute(1), leaves[0], leaves[1]);
        let p2 = b.par(WorkUnit::compute(1), WorkUnit::compute(1), leaves[2], leaves[3]);
        let root = b.par(WorkUnit::compute(1), WorkUnit::compute(1), p1, p2);
        b.build(root).unwrap()
    }

    #[test]
    fn heights_decrease_downward() {
        let dag = two_level_dag();
        let h = HeightAssignment::new(&dag, 4, 8, Some(0));
        let root = dag.root();
        for (id, node) in dag.iter() {
            for c in node.children() {
                assert!(
                    h.height(c) < h.height(id),
                    "child {c:?} must have smaller height than parent {id:?}"
                );
            }
        }
        assert!(h.root_height() > 0.0);
        assert_eq!(h.root_height(), h.height(root));
    }

    #[test]
    fn fork_adds_at_least_two() {
        let dag = two_level_dag();
        let h = HeightAssignment::new(&dag, 4, 8, Some(0));
        for (id, node) in dag.iter() {
            if let SpStructure::Par { left, right, .. } = &node.structure {
                let child_max = h.height(*left).max(h.height(*right));
                assert!(h.height(id) >= child_max + 2.0, "fork must add at least 2 to the height");
            }
        }
    }

    #[test]
    fn root_height_scales_with_span_and_miss_cost() {
        let dag = two_level_dag();
        let cheap = HeightAssignment::new(&dag, 1, 8, Some(0)).root_height();
        let pricey = HeightAssignment::new(&dag, 64, 8, Some(4)).root_height();
        assert!(pricey > cheap);
    }

    #[test]
    fn seq_heights_accumulate() {
        let mut b = SpDagBuilder::new();
        let l1 = b.leaf(WorkUnit::compute(8));
        let l2 = b.leaf(WorkUnit::compute(8));
        let root = b.seq(vec![l1, l2]);
        let dag = b.build(root).unwrap();
        let h = HeightAssignment::new(&dag, 1, 8, Some(0));
        // Second leaf executes after the first: the first leaf's entry height includes it.
        assert!(h.height(NodeId(0)) > h.height(NodeId(1)));
        assert_eq!(h.root_height(), h.height(NodeId(0)));
    }

    #[test]
    fn log_sum_exp_basics() {
        assert_eq!(log2_sum_exp2(&[]), f64::NEG_INFINITY);
        assert!((log2_sum_exp2(&[3.0]) - 3.0).abs() < 1e-12);
        // 2^3 + 2^3 = 2^4.
        assert!((log2_sum_exp2(&[3.0, 3.0]) - 4.0).abs() < 1e-12);
        // Huge exponents do not overflow.
        let v = log2_sum_exp2(&[10_000.0, 9_999.0]);
        assert!(v > 10_000.0 && v < 10_001.0);
    }

    #[test]
    fn tracker_non_increasing_fraction() {
        let mut t = PotentialTracker::new();
        for (i, phi) in [10.0, 9.0, 9.0, 8.5, 9.5].iter().enumerate() {
            t.record(PotentialSample {
                time: i as u64,
                log2_phi: *phi,
                queued: 0,
                executing: 1,
                steals_so_far: 0,
            });
        }
        // 3 of 4 consecutive pairs are non-increasing.
        assert!((t.non_increasing_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(t.samples().len(), 5);
    }

    #[test]
    fn potential_log_values() {
        let dag = two_level_dag();
        let h = HeightAssignment::new(&dag, 4, 8, None);
        let u = dag.root();
        assert!((h.log_potential_queued(u) - (1.0 + h.height(u))).abs() < 1e-12);
        assert!((h.log_potential_executing(u) - h.height(u)).abs() < 1e-12);
    }
}
