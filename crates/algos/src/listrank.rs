//! List ranking and connected components by iterated rounds (Section 7, last paragraphs).
//!
//! The paper obtains both algorithms by iterating a sorting / list-ranking primitive
//! `O(log n)` times, so their costs are at most `O(log n)` times those of the primitive. We
//! model exactly that structure: the computation is a sequence of `O(log n)` rounds, each a
//! BP computation over the whole instance (pointer jumping for list ranking, label
//! propagation for connected components). Each round writes a fresh output array so the
//! computation stays limited-access.
//!
//! [`list_ranking_native`] runs the same round structure for real on the `rws-runtime`
//! pool: each pointer-jumping round fork-joins over disjoint chunks of a double-buffered
//! successor/rank state, so parallel branches only borrow (the fresh buffer mutably and
//! disjointly, the previous round's buffer shared).

use crate::common::par_chunks_mut;
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, SpDagBuilder, WorkUnit};

/// Configuration for list ranking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListRankConfig {
    /// Number of list nodes (power of two).
    pub n: usize,
    /// Elements per leaf.
    pub chunk: usize,
}

impl ListRankConfig {
    /// `n` elements with chunk 8 (or `n` if smaller).
    pub fn new(n: usize) -> Self {
        ListRankConfig { n, chunk: 8.min(n) }
    }
}

fn bp_round(
    b: &mut SpDagBuilder,
    n: u64,
    chunk: u64,
    read_bases: &[u64],
    write_bases: &[u64],
    reads_per_elem: u64,
) -> NodeId {
    let leaves: Vec<NodeId> = (0..n / chunk)
        .map(|i| {
            let lo = i * chunk;
            let mut unit = WorkUnit::compute(chunk * reads_per_elem.max(1));
            for &base in read_bases {
                unit = unit.reads((base + lo..base + lo + chunk).map(Addr));
            }
            for &base in write_bases {
                unit = unit.writes((base + lo..base + lo + chunk).map(Addr));
            }
            b.leaf(unit)
        })
        .collect();
    BalancedTreeBuilder::new(b, 2).combine(
        &leaves,
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    )
}

/// Build the list-ranking computation: `log2 n` pointer-jumping rounds, each reading the
/// previous round's successor and rank arrays and writing fresh ones.
pub fn list_ranking_computation(cfg: &ListRankConfig) -> Computation {
    let n = cfg.n as u64;
    let chunk = cfg.chunk as u64;
    assert!(cfg.n.is_power_of_two() && (n / chunk).is_power_of_two() && chunk <= n);
    let rounds = (cfg.n as f64).log2().ceil() as u64;
    let mut b = SpDagBuilder::new();
    // Arrays: succ_0 at 0, rank_0 at n; round i writes succ_{i+1}, rank_{i+1} at 2n(i+1)..
    let mut parts = Vec::new();
    for round in 0..rounds {
        let read_succ = 2 * n * round;
        let read_rank = 2 * n * round + n;
        let write_succ = 2 * n * (round + 1);
        let write_rank = 2 * n * (round + 1) + n;
        parts.push(bp_round(
            &mut b,
            n,
            chunk,
            &[read_succ, read_rank],
            &[write_succ, write_rank],
            2,
        ));
    }
    let root = b.seq(parts);
    let dag = b.build(root).expect("list-ranking dag must validate");
    let mut meta = AlgoMeta::bp("list-ranking", n);
    meta.class = rws_dag::AlgoClass::Hierarchical {
        level: 3,
        hbp: true,
        collections: 1,
        shrink: rws_dag::Shrink::Half,
    };
    Computation::new(dag, meta)
}

/// Configuration for connected components.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnectedComponentsConfig {
    /// Number of vertices (power of two).
    pub vertices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Elements per leaf.
    pub chunk: usize,
}

impl ConnectedComponentsConfig {
    /// A graph with `vertices` vertices and `2 * vertices` edges.
    pub fn new(vertices: usize) -> Self {
        ConnectedComponentsConfig { vertices, edges: 2 * vertices, chunk: 8.min(vertices) }
    }
}

/// Build the connected-components computation: `log2 v` label-propagation rounds, each a BP
/// pass over the edge list reading both endpoints' labels and writing fresh labels.
pub fn connected_components_computation(cfg: &ConnectedComponentsConfig) -> Computation {
    let v = cfg.vertices as u64;
    let e = (cfg.edges as u64).next_power_of_two();
    let chunk = cfg.chunk as u64;
    assert!(cfg.vertices.is_power_of_two());
    let rounds = (cfg.vertices as f64).log2().ceil() as u64;
    let mut b = SpDagBuilder::new();
    // Edge endpoint arrays at 0 and e; the initial labels at 2e; then per round a fresh
    // edge-proposal array (length e) and a fresh label array (length v), so every word is
    // written at most once over the whole computation.
    let initial_labels = 2 * e;
    let round_base = initial_labels + v;
    let stride = e + v;
    let mut parts = Vec::new();
    for round in 0..rounds {
        let read_labels =
            if round == 0 { initial_labels } else { round_base + (round - 1) * stride + e };
        let proposals = round_base + round * stride;
        let write_labels = proposals + e;
        // One pass over the edges (reads endpoints + labels, writes proposals), then a pass
        // over the vertices compacting proposals into the next label array.
        parts.push(bp_round(&mut b, e, chunk, &[0, e, read_labels], &[proposals], 3));
        parts.push(bp_round(&mut b, v, chunk, &[proposals, read_labels], &[write_labels], 1));
    }
    let root = b.seq(parts);
    let dag = b.build(root).expect("connected-components dag must validate");
    let mut meta = AlgoMeta::bp("connected-components", v + e);
    meta.class = rws_dag::AlgoClass::Hierarchical {
        level: 4,
        hbp: true,
        collections: 1,
        shrink: rws_dag::Shrink::Half,
    };
    Computation::new(dag, meta)
}

// ------------------------------------------------------------------------------------------
// Sequential references
// ------------------------------------------------------------------------------------------

/// Sequential list ranking: given `succ` (successor indices, with the tail pointing to
/// itself), return the distance of every node from the tail.
pub fn list_ranking_reference(succ: &[usize]) -> Vec<u64> {
    let n = succ.len();
    let mut rank = vec![0u64; n];
    let mut s: Vec<usize> = succ.to_vec();
    let mut r: Vec<u64> =
        succ.iter().enumerate().map(|(i, &x)| if x == i { 0 } else { 1 }).collect();
    let rounds = (n as f64).log2().ceil() as usize + 1;
    for _ in 0..rounds {
        let mut new_s = s.clone();
        let mut new_r = r.clone();
        for i in 0..n {
            new_r[i] = r[i] + r[s[i]];
            new_s[i] = s[s[i]];
        }
        s = new_s;
        r = new_r;
    }
    rank.copy_from_slice(&r);
    rank
}

/// Elements per fork-join leaf of the native pointer-jumping rounds (the native analogue
/// of [`ListRankConfig::chunk`], sized so leaf work dominates fork overhead).
const NATIVE_CHUNK: usize = 256;

/// Native fork-join list ranking on the `rws-runtime` work-stealing pool — the same
/// round-synchronized pointer jumping as [`list_ranking_computation`]'s dag, executed for
/// real.
///
/// Rounds are sequenced; within a round, [`par_chunks_mut`] fork-joins over disjoint
/// chunks of the fresh `(successor, rank)` buffer while every branch reads the previous
/// round's buffer through a shared borrow — double buffering, exactly like the dag's
/// fresh per-round output arrays. The round count and update rule are identical to
/// [`list_ranking_reference`], so the two agree element-for-element even on inputs with no
/// fixed point (cycles), where the final ranks depend on the number of rounds performed.
/// Outside a pool worker the joins run sequentially.
pub fn list_ranking_native(succ: &[usize]) -> Vec<u64> {
    let n = succ.len();
    if n == 0 {
        return Vec::new();
    }
    let mut cur: Vec<(usize, u64)> =
        succ.iter().enumerate().map(|(i, &s)| (s, u64::from(s != i))).collect();
    let rounds = (n as f64).log2().ceil() as usize + 1;
    for _ in 0..rounds {
        let mut next = vec![(0usize, 0u64); n];
        par_chunks_mut(&mut next, NATIVE_CHUNK, &|chunk_idx, part: &mut [(usize, u64)]| {
            let lo = chunk_idx * NATIVE_CHUNK;
            for (off, out) in part.iter_mut().enumerate() {
                let (s, r) = cur[lo + off];
                let (s2, r2) = cur[s];
                *out = (s2, r + r2);
            }
        });
        cur = next;
    }
    cur.into_iter().map(|(_, r)| r).collect()
}

/// Sequential connected components by label propagation; returns the smallest vertex id in
/// each vertex's component.
pub fn connected_components_reference(vertices: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut label: Vec<usize> = (0..vertices).collect();
    loop {
        let mut changed = false;
        for &(u, v) in edges {
            let m = label[u].min(label[v]);
            if label[u] != m {
                label[u] = m;
                changed = true;
            }
            if label[v] != m {
                label[v] = m;
                changed = true;
            }
        }
        // Pointer-jump the labels.
        for i in 0..vertices {
            let l = label[label[i]];
            if l != label[i] {
                label[i] = l;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_ranking_reference_on_a_chain() {
        // 0 -> 1 -> 2 -> 3 -> 3 (tail).
        let succ = vec![1, 2, 3, 3];
        assert_eq!(list_ranking_reference(&succ), vec![3, 2, 1, 0]);
    }

    #[test]
    fn list_ranking_reference_on_a_reversed_chain() {
        let succ = vec![0, 0, 1, 2];
        assert_eq!(list_ranking_reference(&succ), vec![0, 1, 2, 3]);
    }

    #[test]
    fn native_runner_matches_reference_outside_a_pool() {
        // Outside a pool worker the joins run sequentially; correctness is identical.
        // Chains (with a self-loop tail) have a fixed point; the shuffled ring has none,
        // which is exactly where matching the reference's round count matters.
        let chain: Vec<usize> = (0..1000).map(|i| (i + 1).min(999)).collect();
        assert_eq!(list_ranking_native(&chain), list_ranking_reference(&chain));
        let ring: Vec<usize> = (0..512).map(|i| (i + 3) % 512).collect();
        assert_eq!(list_ranking_native(&ring), list_ranking_reference(&ring));
        assert_eq!(list_ranking_native(&[]), Vec::<u64>::new());
        assert_eq!(list_ranking_native(&[0]), vec![0]);
    }

    #[test]
    fn connected_components_reference_small_graph() {
        // Two components: {0,1,2} and {3,4}.
        let labels = connected_components_reference(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn connected_components_reference_fully_disconnected() {
        let labels = connected_components_reference(4, &[]);
        assert_eq!(labels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn list_ranking_dag_has_log_n_rounds() {
        let comp = list_ranking_computation(&ListRankConfig::new(256));
        assert!(comp.check_properties().is_empty());
        // 8 rounds of 32 leaves each.
        assert_eq!(comp.dag.leaf_count(), 8 * 32);
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
    }

    #[test]
    fn connected_components_dag_structure() {
        let comp = connected_components_computation(&ConnectedComponentsConfig::new(128));
        assert!(comp.check_properties().is_empty());
        assert!(comp.dag.work() > 0);
        assert!(comp.dag.max_writes_per_global_word() <= 2);
        // Rounds are sequenced: the span is much larger than a single BP pass but far less
        // than the work.
        assert!(comp.dag.span_nodes() < comp.dag.work());
    }
}
