//! Sample sort: splitter selection, a parallel partition pass, and independent per-bucket
//! sorts.
//!
//! This is the classic three-phase sample sort (the algorithm the paper's sorting results
//! cite; `sort.rs` keeps the HBP merge sort that stands in for it analytically). Bucket
//! sizes are data-dependent — a skewed key distribution gives a skewed fan-out — so the
//! balanced-tree steal analysis does **not** apply and the lab runs this workload
//! measured-only. Precisely that skew is what makes it a good idle-path stress: a large
//! bucket keeps one worker busy long after its siblings drained theirs.
//!
//! [`sample_sort_native`] is deterministic on every schedule: splitters are a deterministic
//! function of the input, the partition preserves input order within a bucket, and each
//! bucket is sorted independently — so the output equals [`sample_sort_reference`] (a plain
//! sequential sort) element for element.

use crate::common::par_chunks_mut;
use rws_dag::builders::BalancedTreeBuilder;
use rws_dag::{Addr, AlgoMeta, Computation, NodeId, SpDagBuilder, WorkUnit};

/// Sequential reference: the sorted copy of `keys`.
pub fn sample_sort_reference(keys: &[u64]) -> Vec<u64> {
    let mut v = keys.to_vec();
    v.sort_unstable();
    v
}

/// Splitter oversampling factor.
const OVERSAMPLE: usize = 4;

/// Deterministic splitters: an evenly-spaced oversampled probe of `keys`, sorted, with
/// every `OVERSAMPLE`-th element kept — `buckets - 1` splitters.
fn choose_splitters(keys: &[u64], buckets: usize) -> Vec<u64> {
    let s = (buckets * OVERSAMPLE).min(keys.len()).max(1);
    let mut sample: Vec<u64> = (0..s).map(|i| keys[i * keys.len() / s]).collect();
    sample.sort_unstable();
    (1..buckets).map(|b| sample[(b * s / buckets).min(s - 1)]).collect()
}

/// The bucket a key belongs to: keys `<=` a splitter go left of it, so bucket boundaries
/// are monotone and the concatenation of sorted buckets is sorted.
fn bucket_of(splitters: &[u64], key: u64) -> usize {
    splitters.partition_point(|&s| s < key)
}

/// Input keys per fork-join leaf of the native partition pass.
const NATIVE_CHUNK: usize = 256;

/// Native sample sort on the `rws-runtime` pool.
///
/// Phase 1 picks splitters (sequential; the sample is tiny). Phase 2 fork-joins over input
/// chunks, each partitioning its slice into per-bucket runs. Phase 3 fork-joins over
/// buckets, each concatenating its runs in chunk order and sorting them. Output order is
/// schedule-independent throughout.
pub fn sample_sort_native(keys: &[u64], buckets: usize) -> Vec<u64> {
    let n = keys.len();
    if n <= 1 || buckets <= 1 {
        return sample_sort_reference(keys);
    }
    let splitters = choose_splitters(keys, buckets);
    let chunks = n.div_ceil(NATIVE_CHUNK);
    // Phase 2: per-chunk, per-bucket runs (disjoint `&mut` slots; input read shared).
    let mut parts: Vec<Vec<Vec<u64>>> = vec![Vec::new(); chunks];
    let splitters_ref = &splitters;
    par_chunks_mut(&mut parts, 1, &|c, slot: &mut [Vec<Vec<u64>>]| {
        let lo = c * NATIVE_CHUNK;
        let hi = (lo + NATIVE_CHUNK).min(keys.len());
        let mut local = vec![Vec::new(); buckets];
        for &k in &keys[lo..hi] {
            local[bucket_of(splitters_ref, k)].push(k);
        }
        slot[0] = local;
    });
    // Phase 3: per-bucket gather + sort (each bucket owns its slot).
    let mut sorted: Vec<Vec<u64>> = vec![Vec::new(); buckets];
    let parts_ref = &parts;
    par_chunks_mut(&mut sorted, 1, &|b, slot: &mut [Vec<u64>]| {
        let mut v: Vec<u64> = parts_ref.iter().flat_map(|p| p[b].iter().copied()).collect();
        v.sort_unstable();
        slot[0] = v;
    });
    sorted.concat()
}

/// Configuration for the sample-sort computation builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleSortConfig {
    /// Number of buckets.
    pub buckets: usize,
    /// Input keys per partition-pass dag leaf.
    pub chunk: usize,
}

impl SampleSortConfig {
    /// `buckets` buckets with the default leaf granularity.
    pub fn new(buckets: usize) -> Self {
        SampleSortConfig { buckets: buckets.max(2), chunk: 8 }
    }
}

/// Build the sample-sort computation for `keys`: a splitter leaf, a balanced partition
/// pass over input chunks, and a parallel pass over the (data-dependent, possibly skewed)
/// buckets, the three phases sequenced.
///
/// Memory layout: input at words `0..n`, splitters next, then the bucketed array (every
/// element's destination precomputed from the actual keys, each word written once), then
/// the output array (written once by the bucket sorts) — limited access throughout.
pub fn sample_sort_computation(keys: &[u64], cfg: &SampleSortConfig) -> Computation {
    let n = keys.len() as u64;
    assert!(n > 0, "sample sort needs at least one key");
    let buckets = cfg.buckets.max(2);
    let splitters = choose_splitters(keys, buckets);
    let s = splitters.len() as u64;
    let splitter_base = n;
    let bucketed_base = n + s;
    let out_base = bucketed_base + n;

    // Destination of each input element in the bucketed array: bucket start + stable rank.
    let assignment: Vec<usize> = keys.iter().map(|&k| bucket_of(&splitters, k)).collect();
    let mut bucket_len = vec![0u64; buckets];
    for &b in &assignment {
        bucket_len[b] += 1;
    }
    let mut bucket_start = vec![0u64; buckets + 1];
    for b in 0..buckets {
        bucket_start[b + 1] = bucket_start[b] + bucket_len[b];
    }
    let mut cursor = bucket_start.clone();
    let dest: Vec<u64> = assignment
        .iter()
        .map(|&b| {
            let d = cursor[b];
            cursor[b] += 1;
            d
        })
        .collect();

    let mut b = SpDagBuilder::new();
    // Phase 1: sample + splitter selection (one leaf; the sample is O(buckets)).
    let sample_words = (buckets * OVERSAMPLE) as u64;
    let phase1 = b.leaf(
        WorkUnit::compute(sample_words.max(1) * 4)
            .reads((0..sample_words.min(n)).map(|i| Addr(i * n / sample_words.max(1))))
            .writes((0..s).map(|i| Addr(splitter_base + i))),
    );
    // Phase 2: balanced partition pass over input chunks.
    let idx: Vec<usize> = (0..keys.len()).collect();
    let leaves: Vec<NodeId> = idx
        .chunks(cfg.chunk.max(1))
        .map(|chunk| {
            let mut unit = WorkUnit::empty().reads((0..s).map(|i| Addr(splitter_base + i)));
            for &i in chunk {
                unit = unit.read(Addr(i as u64)).write(Addr(bucketed_base + dest[i]));
            }
            b.leaf(unit.with_ops(chunk.len() as u64 * (1 + s.ilog2().max(1) as u64)))
        })
        .collect();
    let phase2 = BalancedTreeBuilder::new(&mut b, 2).combine(
        &leaves,
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    );
    // Phase 3: one leaf per bucket — the skewed fan-out is the point.
    let bucket_leaves: Vec<NodeId> = (0..buckets)
        .map(|bk| {
            let (lo, hi) = (bucket_start[bk], bucket_start[bk + 1]);
            let len = hi - lo;
            let ops = (len.max(1)) * (len.max(2).ilog2() as u64);
            b.leaf(
                WorkUnit::compute(ops)
                    .reads((lo..hi).map(|i| Addr(bucketed_base + i)))
                    .writes((lo..hi).map(|i| Addr(out_base + i))),
            )
        })
        .collect();
    let phase3 = BalancedTreeBuilder::new(&mut b, 2).combine(
        &bucket_leaves,
        |_, _| WorkUnit::compute(1),
        |_, _| WorkUnit::compute(1),
    );
    let root = b.seq(vec![phase1, phase2, phase3]);
    let dag = b.build(root).expect("sample-sort dag must validate");
    let mut meta = AlgoMeta::bp("sample-sort", n).with_base_case(cfg.chunk as u64);
    // Data-dependent bucket sizes break the HBP balance conditions: measured-only.
    meta.class = rws_dag::AlgoClass::Hierarchical {
        level: 2,
        hbp: false,
        collections: 2,
        shrink: rws_dag::Shrink::Sqrt,
    };
    Computation::new(dag, meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_keys(seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D) % 1_000_000
            })
            .collect()
    }

    #[test]
    fn native_matches_the_reference_outside_a_pool() {
        for (seed, n, buckets) in [(1u64, 1usize, 4usize), (2, 100, 8), (3, 5000, 16), (4, 64, 2)] {
            let keys = seeded_keys(seed, n);
            assert_eq!(
                sample_sort_native(&keys, buckets),
                sample_sort_reference(&keys),
                "seed {seed}, n {n}, buckets {buckets}"
            );
        }
    }

    #[test]
    fn duplicates_and_skew_still_sort_correctly() {
        // Heavy duplication lands most keys in one bucket — the skewed case.
        let keys: Vec<u64> = (0..1000).map(|i| if i % 10 == 0 { i as u64 } else { 7 }).collect();
        assert_eq!(sample_sort_native(&keys, 8), sample_sort_reference(&keys));
    }

    #[test]
    fn bucket_assignment_is_monotone() {
        let keys = seeded_keys(9, 256);
        let splitters = choose_splitters(&keys, 8);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let assigned: Vec<usize> = sorted.iter().map(|&k| bucket_of(&splitters, k)).collect();
        assert!(assigned.windows(2).all(|w| w[0] <= w[1]), "buckets respect key order");
    }

    #[test]
    fn sample_sort_dag_is_three_sequenced_phases_with_single_writes() {
        let keys = seeded_keys(5, 256);
        let comp = sample_sort_computation(&keys, &SampleSortConfig::new(8));
        assert!(comp.check_properties().is_empty(), "{:?}", comp.check_properties());
        assert_eq!(comp.dag.max_writes_per_global_word(), 1);
        // 1 splitter leaf + 256/8 partition leaves + 8 bucket leaves.
        assert_eq!(comp.dag.leaf_count(), 1 + 32 + 8);
        assert!(!comp.meta.class.is_hbp(), "skewed buckets are not HBP");
    }
}
