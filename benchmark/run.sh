#!/usr/bin/env bash
# The benchmark's entry point (the `command` of BENCHMARK.json).
#
#   bash benchmark/run.sh --workload q1_stream --seed 42 --seconds 10 --trace 0
#   bash benchmark/run.sh all            # every workload, medians, result file
#   bash benchmark/run.sh --help         # workloads and metrics, from the tables
#
# Builds ttc_bench from source (offline; every dependency is a path into this
# repository) and runs it from the repository root, so the default spec
# directory (benchmark/workloads) and output directory (target/benchmark)
# resolve. Build output goes to $CARGO_TARGET_DIR (default target/ttc_bench).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/ttc_bench}"
# Loops are aligned to 64 bytes in every crate. Without it, where the linker
# happened to place the hot loop of Q1's batch mxv moved load_initial_s by 28%
# (0.70 s vs 0.89 s at sf256) between two builds of identical library source
# that differed by one unrelated line of the benchmark.
export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-loops=64"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ttc_bench" "$@"
