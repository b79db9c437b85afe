//! The shard worker the sharded workload spawns: `rws_shard::ShardedExecutor` looks for a
//! `shard-worker` executable next to the benchmark's own.

fn main() {
    std::process::exit(rws_shard::worker::run_worker());
}
