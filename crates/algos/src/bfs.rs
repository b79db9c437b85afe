//! Level-synchronized breadth-first search on seeded random graphs.
//!
//! The first irregular workload of the suite: the frontier's size and shape are data-
//! dependent, so neither the paper's fork-join steal bounds nor its balanced-tree cache
//! analysis applies — the lab runs this workload **measured-only**. What the dag builder
//! does model faithfully is the level-synchronized structure itself: one BP-style pass per
//! BFS level over the exact frontier the input graph produces, with every distance word
//! written exactly once (by the level that discovers it), sequenced by a barrier between
//! levels — the same structure [`bfs_native`] executes for real on the pool.

use crate::common::par_chunks_mut;
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, SpDagBuilder, WorkUnit};
use std::sync::atomic::{AtomicI64, Ordering};

/// A directed graph in compressed-sparse-row form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `row_starts[v]..row_starts[v + 1]` indexes `cols` with `v`'s out-neighbors.
    pub row_starts: Vec<usize>,
    /// Concatenated adjacency lists.
    pub cols: Vec<usize>,
}

impl CsrGraph {
    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.row_starts.len().saturating_sub(1)
    }

    /// Number of edges.
    pub fn edges(&self) -> usize {
        self.cols.len()
    }

    /// The out-neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.cols[self.row_starts[v]..self.row_starts[v + 1]]
    }

    /// A seeded random graph over `vertices` vertices: every vertex keeps a ring edge to
    /// its successor (so the graph is connected and every BFS from any source reaches all
    /// of it) plus up to `extra_degree` random out-edges. Deterministic in `seed`.
    pub fn random(seed: u64, vertices: usize, extra_degree: usize) -> CsrGraph {
        assert!(vertices > 0, "a graph needs at least one vertex");
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut row_starts = Vec::with_capacity(vertices + 1);
        let mut cols = Vec::new();
        row_starts.push(0);
        for v in 0..vertices {
            let mut adj = vec![(v + 1) % vertices];
            for _ in 0..(next() as usize) % (extra_degree + 1) {
                adj.push(next() as usize % vertices);
            }
            adj.sort_unstable();
            adj.dedup();
            adj.retain(|&u| u != v);
            cols.extend(adj);
            row_starts.push(cols.len());
        }
        CsrGraph { row_starts, cols }
    }
}

/// Sequential BFS distances from `src` (`-1` for unreachable vertices).
pub fn bfs_reference(g: &CsrGraph, src: usize) -> Vec<i64> {
    let mut dist = vec![-1i64; g.vertices()];
    for (level, frontier) in bfs_level_sets(g, src).iter().enumerate() {
        for &v in frontier {
            dist[v] = level as i64;
        }
    }
    dist
}

/// The BFS level sets from `src`: `sets[l]` holds the vertices at distance `l`, each in
/// the deterministic discovery order of a sequential queue BFS. This is the structure the
/// dag builder encodes and the native runner mirrors level by level.
pub fn bfs_level_sets(g: &CsrGraph, src: usize) -> Vec<Vec<usize>> {
    let n = g.vertices();
    assert!(src < n, "source {src} out of range for {n} vertices");
    let mut seen = vec![false; n];
    seen[src] = true;
    let mut sets = vec![vec![src]];
    loop {
        let frontier = sets.last().expect("sets starts non-empty");
        let mut next = Vec::new();
        for &u in frontier {
            for &v in g.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            return sets;
        }
        sets.push(next);
    }
}

/// Frontier vertices per fork-join leaf of the native level sweep.
const NATIVE_CHUNK: usize = 64;

/// Native level-synchronized BFS on the `rws-runtime` pool.
///
/// Each level fork-joins over chunks of the current frontier; a chunk claims newly
/// discovered vertices with a compare-exchange on the shared distance array, so every
/// vertex is discovered exactly once. Distances are deterministic whatever the race
/// outcome — every contender for a vertex writes the same level — which is why the output
/// matches [`bfs_reference`] element for element on any schedule.
pub fn bfs_native(g: &CsrGraph, src: usize) -> Vec<i64> {
    let n = g.vertices();
    assert!(src < n, "source {src} out of range for {n} vertices");
    let dist: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    dist[src].store(0, Ordering::Relaxed);
    let mut frontier = vec![src];
    let mut level = 0i64;
    while !frontier.is_empty() {
        let chunks = frontier.len().div_ceil(NATIVE_CHUNK);
        // One discovery bucket per frontier chunk: disjoint `&mut` targets for the
        // fork-join, concatenated afterwards into the next frontier.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); chunks];
        let frontier_ref = &frontier;
        let dist_ref = &dist;
        par_chunks_mut(&mut buckets, 1, &|i, slot: &mut [Vec<usize>]| {
            let lo = i * NATIVE_CHUNK;
            let hi = (lo + NATIVE_CHUNK).min(frontier_ref.len());
            for &u in &frontier_ref[lo..hi] {
                for &v in g.neighbors(u) {
                    if dist_ref[v]
                        .compare_exchange(-1, level + 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        slot[0].push(v);
                    }
                }
            }
        });
        frontier = buckets.concat();
        level += 1;
    }
    dist.into_iter().map(AtomicI64::into_inner).collect()
}

/// Configuration for the BFS computation builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsConfig {
    /// Source vertex.
    pub src: usize,
    /// Frontier vertices per dag leaf.
    pub chunk: usize,
}

impl BfsConfig {
    /// BFS from vertex 0 with the default leaf granularity.
    pub fn new() -> Self {
        BfsConfig { src: 0, chunk: 8 }
    }
}

impl Default for BfsConfig {
    fn default() -> Self {
        BfsConfig::new()
    }
}

/// Build the level-synchronized BFS computation for `g`: one balanced parallel pass per
/// BFS level (over that level's exact frontier), passes sequenced by a barrier.
///
/// Memory layout: the adjacency array occupies words `0..e`; the distance array, in
/// discovery order, occupies the next `n` words, so level `l` writes the contiguous slice
/// its discoveries own and every distance word is written exactly once (limited access).
/// Each leaf reads its frontier vertices' distance words and adjacency ranges and writes
/// the distance words of the vertices those frontier vertices discovered.
pub fn bfs_computation(g: &CsrGraph, cfg: &BfsConfig) -> Computation {
    let n = g.vertices() as u64;
    let e = g.edges() as u64;
    let sets = bfs_level_sets(g, cfg.src);
    // Discovery order: position of each vertex in the concatenated level sets.
    let mut discovery = vec![u64::MAX; g.vertices()];
    let mut discoverer = vec![usize::MAX; g.vertices()];
    let mut pos = 0u64;
    for frontier in &sets {
        for &v in frontier {
            discovery[v] = pos;
            pos += 1;
        }
    }
    for frontier in &sets {
        for &u in frontier {
            for &v in g.neighbors(u) {
                if discoverer[v] == usize::MAX && discovery[v] > discovery[u] {
                    discoverer[v] = u;
                }
            }
        }
    }
    let dist_base = e;
    let mut b = SpDagBuilder::new();
    let mut rounds: Vec<NodeId> = Vec::new();
    for frontier in &sets {
        let leaves: Vec<NodeId> = frontier
            .chunks(cfg.chunk.max(1))
            .map(|chunk| {
                let mut unit = WorkUnit::compute(0);
                let mut ops = 0u64;
                for &u in chunk {
                    ops += 1 + g.neighbors(u).len() as u64;
                    unit = unit.read(Addr(dist_base + discovery[u]));
                    let lo = g.row_starts[u] as u64;
                    let hi = g.row_starts[u + 1] as u64;
                    unit = unit.reads((lo..hi).map(Addr));
                    for &v in g.neighbors(u) {
                        if discoverer[v] == u {
                            unit = unit.write(Addr(dist_base + discovery[v]));
                        }
                    }
                }
                b.leaf(unit.with_ops(ops))
            })
            .collect();
        rounds.push(BalancedTreeBuilder::new(&mut b, 2).combine(
            &leaves,
            |_, _| WorkUnit::compute(1),
            |_, _| WorkUnit::compute(1),
        ));
    }
    let root = b.seq(rounds);
    let dag = b.build(root).expect("bfs dag must validate");
    let mut meta = AlgoMeta::bp("bfs", n);
    // Level-synchronized rounds over a data-dependent frontier: iterated like list
    // ranking, but *not* balanced — the paper's HBP analysis does not cover it, which is
    // why the lab treats this workload as measured-only.
    meta.class = rws_dag::AlgoClass::Hierarchical {
        level: 3,
        hbp: false,
        collections: 1,
        shrink: rws_dag::Shrink::Half,
    };
    Computation::new(dag, meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_distances_on_a_ring() {
        // Pure ring: distance is the forward walk length.
        let g = CsrGraph::random(1, 8, 0);
        let d = bfs_reference(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn random_graph_is_fully_reachable_and_deterministic() {
        let g = CsrGraph::random(42, 256, 4);
        assert_eq!(g, CsrGraph::random(42, 256, 4));
        let d = bfs_reference(&g, 3);
        assert!(d.iter().all(|&x| x >= 0), "the ring edge keeps every vertex reachable");
    }

    #[test]
    fn native_matches_reference_outside_a_pool() {
        for (seed, n, deg) in [(7u64, 1usize, 0usize), (7, 64, 3), (11, 500, 6)] {
            let g = CsrGraph::random(seed, n, deg);
            assert_eq!(bfs_native(&g, 0), bfs_reference(&g, 0), "seed {seed}, n {n}");
        }
    }

    #[test]
    fn level_sets_partition_the_reachable_vertices() {
        let g = CsrGraph::random(9, 128, 5);
        let sets = bfs_level_sets(&g, 0);
        let total: usize = sets.iter().map(Vec::len).sum();
        assert_eq!(total, 128, "every vertex is discovered exactly once");
        let d = bfs_reference(&g, 0);
        for (level, set) in sets.iter().enumerate() {
            assert!(set.iter().all(|&v| d[v] == level as i64));
        }
    }

    #[test]
    fn bfs_dag_writes_each_distance_word_once() {
        let g = CsrGraph::random(5, 64, 3);
        let comp = bfs_computation(&g, &BfsConfig::new());
        assert!(comp.check_properties().is_empty(), "{:?}", comp.check_properties());
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        assert!(comp.dag.work() > 0);
        // Levels are sequenced: the span reflects the level count, not one flat pass.
        assert_eq!(
            comp.dag.leaf_count() as usize,
            bfs_level_sets(&g, 0).iter().map(|s| s.len().div_ceil(8)).sum::<usize>()
        );
    }
}
