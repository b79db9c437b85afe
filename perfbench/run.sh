#!/usr/bin/env bash
# Build the benchmark and the shard worker it spawns from source, then run it with the
# arguments given. Run from the repository root:
#   bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 10 --trace 0
# The build goes to $CARGO_TARGET_DIR (default perfbench/target); its output goes to
# standard error, so standard output carries only the benchmark's own lines.
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins 1>&2
exec "$target/release/perfbench" "$@"
