#!/usr/bin/env bash
# The benchmark's one command: build the benchmark package (and, through
# its path dependencies, the crates under test) from source, then run it
# with the arguments given. `BENCHMARK.json` names this script.
#
#   bash benchmark/run.sh                      every workload, untraced then traced
#   bash benchmark/run.sh --json               the same, one JSON object per pass on stdout
#   bash benchmark/run.sh --workload et1_mem --seed 7 --seconds 10 --trace 0
#                                              one pass; last stdout line is the result object
#   bash benchmark/run.sh --quick | --aa | --matrix | --only NAME
#
# Build output goes to stderr, so stdout carries only the benchmark's own.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dlog-benchmark" "$@"
