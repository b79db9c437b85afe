//! Bench: sleep-protocol backoff schedule sweep behind the `SleepBackoff`
//! defaults (`spin_rounds = 6`, `spin_cap_shift = 5`, `yield_rounds = 3`).
//!
//! The workload is a bursty fork-join tree: a recursive sum over a slice whose sequential
//! leaves are deliberately small, so workers repeatedly drain their deques and hit the
//! idle path between bursts. A schedule that parks too eagerly pays a futex wake on every
//! burst; one that spins too long burns the (shared) core the producer needs. The sweep
//! brackets the default with park-immediately, yield-only, and spin-heavy schedules so the
//! chosen constants are a measured trade-off, not a guess.
//!
//! Run with `cargo bench -p rws-bench --bench sleep_backoff`; each schedule prints the
//! median and min of 10 timed bursts after one warm-up.

mod support;

use rws_runtime::{join, SleepBackoff, ThreadPool, ThreadPoolBuilder};

const LEN: usize = 1 << 14;
const LEAF: usize = 64;

fn recursive_sum(data: &[u64]) -> u64 {
    if data.len() <= LEAF {
        return data.iter().sum();
    }
    let (lo, hi) = data.split_at(data.len() / 2);
    let (a, b) = join(|| recursive_sum(lo), || recursive_sum(hi));
    a + b
}

/// One bursty iteration: the tree runs to completion, then the pool goes idle so every
/// worker walks the spin → yield → park ladder before the next burst arrives.
fn burst(pool: &ThreadPool, data: &'static [u64]) -> u64 {
    pool.install(|| recursive_sum(data))
}

fn main() {
    // `install` requires a 'static closure; leak the input once for the process lifetime.
    let data: &'static [u64] = Vec::leak((0..LEN as u64).collect());
    let expected: u64 = data.iter().sum();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 8));

    let schedules: &[(&str, SleepBackoff)] = &[
        ("park-immediately", SleepBackoff { spin_rounds: 0, spin_cap_shift: 0, yield_rounds: 0 }),
        ("yield-only", SleepBackoff { spin_rounds: 0, spin_cap_shift: 0, yield_rounds: 8 }),
        ("default-6-5-3", SleepBackoff::default()),
        ("spin-heavy", SleepBackoff { spin_rounds: 12, spin_cap_shift: 8, yield_rounds: 6 }),
    ];

    for (name, backoff) in schedules {
        let pool = ThreadPoolBuilder::new().threads(threads).backoff(*backoff).build();
        support::measure(&format!("sleep_backoff/{name}"), || {
            let got = burst(&pool, data);
            assert_eq!(got, expected);
        });
    }
}
