//! The pool's work-stealing deque selector. Every worker owns one lock-free Chase–Lev deque
//! (the vendored `crossbeam-deque`): the owner pushes and pops at the bottom, thieves steal
//! from the top — the paper's work queue.

/// Which deque implementation the pool uses. There is one: the Chase–Lev deque. The enum is
/// kept only so the benchmark's `NativeExecutor::with_options(threads, backend, trace)` call
/// keeps compiling; no pool reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DequeBackend {
    /// The `crossbeam-deque` lock-free Chase–Lev deque.
    #[default]
    Crossbeam,
}
