//! The acceptance test for the allocation-free `join` fast path: a counting global
//! allocator measures heap traffic while a deep unstolen fork-join recursion runs, and the
//! delta must be **zero**.
//!
//! The pool has one worker, so no branch is ever stolen: every `join` pushes its stack job,
//! runs the left branch, pops the job straight back and runs it inline. A warm-up run first
//! absorbs one-time costs (thread-local init, channel plumbing of `install`); the measured
//! window is entirely inside the installed closure. The counter is per thread and is read
//! on the pool worker that runs that window, so allocations by sibling tests running on
//! other threads of this binary never land in it.

use rws_runtime::{join, scope, ThreadPoolBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// NOTE: crates/bench/src/bin/native_bench.rs has a process-global variant for its
// multi-thread counts — a #[global_allocator] must be declared in each binary crate root.
struct CountingAllocator;

thread_local! {
    // `const` init with no destructor: touching it never allocates or registers a dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` so the allocator can never panic, even during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn recursive_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= 64 {
        return (lo..hi).sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(move || recursive_sum(lo, mid), move || recursive_sum(mid, hi));
    a + b
}

#[test]
fn unstolen_join_fast_path_is_allocation_free() {
    let pool = ThreadPoolBuilder::new().threads(1).build();
    let n = 1 << 16; // ~1 << 10 joins, recursion depth 10 — far below the deque's
                     // initial capacity, so no buffer growth during the measured run
                     // Warm up: first run pays any one-time lazy initialization.
    assert_eq!(pool.install(move || recursive_sum(0, n)), n * (n - 1) / 2);
    let (total, delta) = pool.install(move || {
        let before = allocations();
        let total = recursive_sum(0, n);
        let after = allocations();
        (total, after - before)
    });
    assert_eq!(total, n * (n - 1) / 2);
    assert_eq!(
        delta,
        0,
        "the unstolen join fast path must not allocate (got {delta} \
         allocations for {} joins)",
        (n / 64).max(1)
    );
}

#[test]
fn traced_unstolen_join_fast_path_is_allocation_free() {
    // The flight recorder must not cost the fast path its zero-allocation property: ring
    // slots are preallocated at pool build, and recording an event is two atomic stores
    // into an existing slot. Same measurement as above, on a pool built with `.trace(..)` —
    // and the recorder must actually have been on (events observed), or the assertion
    // would vacuously measure an untraced pool.
    let pool = ThreadPoolBuilder::new().threads(1).trace(1 << 12).build();
    let n = 1 << 16;
    // Warm up: first run pays any one-time lazy initialization.
    assert_eq!(pool.install(move || recursive_sum(0, n)), n * (n - 1) / 2);
    let (total, delta) = pool.install(move || {
        let before = allocations();
        let total = recursive_sum(0, n);
        let after = allocations();
        (total, after - before)
    });
    assert_eq!(total, n * (n - 1) / 2);
    assert_eq!(
        delta, 0,
        "the traced unstolen join fast path must not allocate \
         (got {delta} allocations)"
    );
    let snap = pool.trace_snapshot().expect("traced pool must yield a snapshot");
    assert!(snap.total_recorded() > 0, "the recorder must have observed the measured run");
}

#[test]
fn unstolen_single_spawn_scope_fast_path_is_allocation_free() {
    // The scoped-task analogue of the join assertion: a scope whose (small) spawns fit the
    // inline slots queues them as two-word refs in the scope's own stack frame — no Box,
    // no Arc, no lock. One worker means nothing is stolen: the owner pops every spawn back
    // and runs it itself, and the whole recursion must not allocate once warm.
    fn scoped_sum(lo: u64, hi: u64) -> u64 {
        if hi - lo <= 64 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let mut left = 0u64;
        // The canonical single-spawn scope: one spawned branch, one in the body.
        let right = scope(|s| {
            s.spawn(|_| left = scoped_sum(lo, mid));
            scoped_sum(mid, hi)
        });
        left + right
    }
    let pool = ThreadPoolBuilder::new().threads(1).build();
    let n = 1 << 16;
    // Warm up: first run pays any one-time lazy initialization.
    assert_eq!(pool.install(move || scoped_sum(0, n)), n * (n - 1) / 2);
    let (total, delta) = pool.install(move || {
        let before = allocations();
        let total = scoped_sum(0, n);
        let after = allocations();
        (total, after - before)
    });
    assert_eq!(total, n * (n - 1) / 2);
    assert_eq!(
        delta, 0,
        "the unstolen single-spawn scope fast path must not allocate \
         (got {delta} allocations)"
    );
}

#[test]
fn allocator_counter_actually_counts() {
    // Guard against the instrument itself silently breaking: a Box must be visible.
    let before = allocations();
    let b = std::hint::black_box(Box::new(123u64));
    let after = allocations();
    drop(b);
    assert!(after > before, "counting allocator failed to observe an allocation");
}
