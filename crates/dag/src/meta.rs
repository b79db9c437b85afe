//! Algorithm classification metadata: the algorithm classes and structural properties the
//! paper's analysis depends on (Sections 4 and 6).

use crate::dag::SpDag;

/// How fast the recursive subproblem size shrinks — the `s(n)` of Definition 4.5.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shrink {
    /// `s(n) = n / 2`.
    Half,
    /// `s(n) = n / 4` (the matrix-multiply recursions on input size `n²`).
    Quarter,
    /// `s(n) = sqrt(n)` (the sorting / FFT recursions).
    Sqrt,
    /// `s(n) = n / k` for the given constant `k > 1`.
    ByFactor(f64),
}

impl Shrink {
    /// Apply the shrink function once to a problem of size `n`.
    pub fn apply(&self, n: f64) -> f64 {
        match self {
            Shrink::Half => n / 2.0,
            Shrink::Quarter => n / 4.0,
            Shrink::Sqrt => n.sqrt(),
            Shrink::ByFactor(k) => n / k,
        }
    }

    /// `s*(n, B)`: the number of iterations of the shrink function needed to reduce `n`
    /// below the threshold `target` (used with `target = B` or `target = Sl^{-1}(B)`).
    pub fn iterations_to_reach(&self, mut n: f64, target: f64) -> u32 {
        let mut it = 0;
        while n >= target && n > 1.0 && it < 10_000 {
            n = self.apply(n);
            it += 1;
        }
        it
    }
}

/// The local-space bound `Sl(n)` of Definition 4.6, as a symbolic function of the task size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpaceBound {
    /// `Sl(n) = Θ(1)` (tree-algorithm nodes).
    Constant,
    /// `Sl(n) = Θ(log n)` (a tree-algorithm task's whole stack).
    Logarithmic,
    /// `Sl(n) = Θ(sqrt n)` (padded BP tasks).
    SqrtN,
    /// `Sl(n) = Θ(n)` — the *exactly linear space bounded* case used by all the paper's
    /// recursive algorithms.
    Linear,
}

impl SpaceBound {
    /// Evaluate the bound at size `n` (up to constant factors; the constant is taken as 1).
    pub fn eval(&self, n: f64) -> f64 {
        match self {
            SpaceBound::Constant => 1.0,
            SpaceBound::Logarithmic => n.max(2.0).log2(),
            SpaceBound::SqrtN => n.max(0.0).sqrt(),
            SpaceBound::Linear => n,
        }
    }
}

/// The algorithm classes of Definitions 4.4, 4.5 and Section 6.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AlgoClass {
    /// Type 0: a sequential computation of constant size.
    Type0,
    /// Type 1: a Tree Algorithm (down-pass + up-pass of a binary forking tree). `bp` records
    /// whether it additionally satisfies the Balanced Parallel (BP) conditions of Section 6
    /// (balanced subtree sizes, regular global-write pattern, local-variable access rule).
    Tree {
        /// Whether the tree is a BP computation.
        bp: bool,
    },
    /// Type `level >= 2`: a Hierarchical Tree Algorithm that calls `collections` successive
    /// collections of parallel recursive subproblems whose sizes shrink by `shrink`. `hbp`
    /// records whether it satisfies the HBP balance conditions of Section 6.
    Hierarchical {
        /// The type level `i >= 2`.
        level: u8,
        /// Whether the algorithm is HBP (balanced recursive forking).
        hbp: bool,
        /// The number `c` of collections of recursive calls.
        collections: u32,
        /// The subproblem shrink function `s(n)`.
        shrink: Shrink,
    },
}

impl AlgoClass {
    /// The paper's `c` (number of collections of recursive calls); 1 for non-recursive
    /// classes.
    pub fn collections(&self) -> u32 {
        match self {
            AlgoClass::Hierarchical { collections, .. } => *collections,
            _ => 1,
        }
    }

    /// Whether the class is in the HBP subclass analyzed in Section 6 (BP trees and HBP
    /// hierarchical algorithms).
    pub fn is_hbp(&self) -> bool {
        match self {
            AlgoClass::Type0 => true,
            AlgoClass::Tree { bp } => *bp,
            AlgoClass::Hierarchical { hbp, .. } => *hbp,
        }
    }
}

/// Structural metadata attached to a built computation.
#[derive(Clone, Debug, PartialEq)]
pub struct AlgoMeta {
    /// Human-readable algorithm name.
    pub name: String,
    /// Input size `n` the computation was built for.
    pub input_size: u64,
    /// The algorithm class.
    pub class: AlgoClass,
    /// Whether every writable variable is written O(1) times (Property 4.1). Recorded by the
    /// builder; `SpDag::max_writes_per_global_word` can verify it for global variables.
    pub limited_access: bool,
    /// Whether the algorithm is top-dominant (Property 4.2).
    pub top_dominant: bool,
    /// The local space bound `Sl` of the recursive tasks.
    pub local_space: SpaceBound,
    /// Base-case size used when coarsening leaves (1 = no coarsening).
    pub base_case: u64,
}

impl AlgoMeta {
    /// Metadata for a (non-BP) tree algorithm.
    pub fn tree(name: impl Into<String>, input_size: u64) -> Self {
        AlgoMeta {
            name: name.into(),
            input_size,
            class: AlgoClass::Tree { bp: false },
            limited_access: true,
            top_dominant: true,
            local_space: SpaceBound::Constant,
            base_case: 1,
        }
    }

    /// Metadata for a BP computation.
    pub fn bp(name: impl Into<String>, input_size: u64) -> Self {
        AlgoMeta { class: AlgoClass::Tree { bp: true }, ..AlgoMeta::tree(name, input_size) }
    }

    /// Metadata for a Type-2 HBP algorithm with `collections` collections of recursive calls
    /// shrinking by `shrink`.
    pub fn hbp2(
        name: impl Into<String>,
        input_size: u64,
        collections: u32,
        shrink: Shrink,
    ) -> Self {
        AlgoMeta {
            name: name.into(),
            input_size,
            class: AlgoClass::Hierarchical { level: 2, hbp: true, collections, shrink },
            limited_access: true,
            top_dominant: true,
            local_space: SpaceBound::Linear,
            base_case: 1,
        }
    }

    /// Builder-style: set the base-case size.
    pub fn with_base_case(mut self, base: u64) -> Self {
        self.base_case = base;
        self
    }

    /// Builder-style: mark as not limited-access (e.g. the in-place depth-n MM).
    pub fn unlimited_access(mut self) -> Self {
        self.limited_access = false;
        self
    }
}

/// A built computation: the dag plus its classification metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Computation {
    /// The series-parallel dag.
    pub dag: SpDag,
    /// Classification metadata.
    pub meta: AlgoMeta,
}

impl Computation {
    /// Bundle a dag with its metadata.
    pub fn new(dag: SpDag, meta: AlgoMeta) -> Self {
        Computation { dag, meta }
    }

    /// Check that the dag is consistent with the declared metadata, returning a list of
    /// violations (empty if everything checks out). Currently verifies the limited-access
    /// property for global words and that HBP metadata is only claimed for fork-join shapes.
    pub fn check_properties(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.meta.limited_access {
            let max_writes = self.dag.max_writes_per_global_word();
            // "O(1) times" — we allow a small constant; 4 covers all our algorithms
            // (the limited-access MM writes each output word at most twice per level merge).
            if max_writes > 4 {
                problems.push(format!(
                    "declared limited-access but some global word is written {max_writes} times"
                ));
            }
        }
        if self.dag.leaf_count() == 0 {
            problems.push("computation has no leaves".to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::WorkUnit;
    use crate::dag::SpDagBuilder;
    use rws_machine::Addr;

    #[test]
    fn shrink_functions() {
        assert_eq!(Shrink::Half.apply(16.0), 8.0);
        assert_eq!(Shrink::Quarter.apply(16.0), 4.0);
        assert_eq!(Shrink::Sqrt.apply(16.0), 4.0);
        assert!((Shrink::ByFactor(3.0).apply(9.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn shrink_iteration_counts() {
        // n=256, target 2: halving takes 7 steps to drop below 2? 256->128->...->2->1: to get < 2
        // we need 8 steps; the loop stops when n < target.
        assert_eq!(Shrink::Half.iterations_to_reach(256.0, 2.0), 8);
        // sqrt: 65536 -> 256 -> 16 -> 4 -> 2 -> 1.41: below 2 after 5 steps.
        assert_eq!(Shrink::Sqrt.iterations_to_reach(65536.0, 2.0), 5);
        // Already below target.
        assert_eq!(Shrink::Quarter.iterations_to_reach(1.0, 8.0), 0);
    }

    #[test]
    fn space_bounds() {
        assert_eq!(SpaceBound::Constant.eval(1000.0), 1.0);
        assert_eq!(SpaceBound::Linear.eval(1000.0), 1000.0);
        assert!((SpaceBound::SqrtN.eval(64.0) - 8.0).abs() < 1e-9);
        assert!((SpaceBound::Logarithmic.eval(1024.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn class_helpers() {
        assert!(AlgoClass::Type0.is_hbp());
        assert!(AlgoClass::Tree { bp: true }.is_hbp());
        assert!(!AlgoClass::Tree { bp: false }.is_hbp());
        let h = AlgoClass::Hierarchical {
            level: 2,
            hbp: true,
            collections: 2,
            shrink: Shrink::Quarter,
        };
        assert!(h.is_hbp());
        assert_eq!(h.collections(), 2);
        assert_eq!(AlgoClass::Type0.collections(), 1);
    }

    #[test]
    fn meta_constructors() {
        let m = AlgoMeta::bp("prefix-sums", 1024);
        assert!(m.class.is_hbp());
        assert!(m.limited_access);
        let m2 = AlgoMeta::hbp2("mm", 64, 2, Shrink::Quarter).with_base_case(8).unlimited_access();
        assert_eq!(m2.base_case, 8);
        assert!(!m2.limited_access);
    }

    #[test]
    fn property_check_flags_unlimited_writes() {
        let mut b = SpDagBuilder::new();
        let mut w = WorkUnit::empty();
        for _ in 0..10 {
            w = w.write(Addr(0));
        }
        let l = b.leaf(w);
        let dag = b.build(l).unwrap();
        let comp = Computation::new(dag, AlgoMeta::tree("bad", 1));
        let problems = comp.check_properties();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("limited-access"));
    }

    #[test]
    fn property_check_ok_for_clean_dag() {
        let mut b = SpDagBuilder::new();
        let l = b.leaf(WorkUnit::empty().write(Addr(0)));
        let r = b.leaf(WorkUnit::empty().write(Addr(1)));
        let root = b.par(WorkUnit::empty(), WorkUnit::empty(), l, r);
        let dag = b.build(root).unwrap();
        let comp = Computation::new(dag, AlgoMeta::bp("ok", 2));
        assert!(comp.check_properties().is_empty());
    }
}
