#!/usr/bin/env bash
# Build the benchmark (release) and run every workload: `all` repeats
# each one in fresh child processes, prints every end-to-end and
# per-layer metric, and writes out/result-seed<N>.json for `compare`.
#
#   benchmark/run.sh                    # seed 42
#   benchmark/run.sh --seed 43 --repeats 3 --seconds 3
#
# Scratch log directories live under out/scratch/ and are removed by
# the binary on success and on failure; this script sweeps whatever a
# killed run left behind.
set -euo pipefail
cd "$(dirname "$0")"
trap 'rm -rf out/scratch' EXIT
cargo build --release --offline
target="${CARGO_TARGET_DIR:-target}"
"$target/release/cbm-benchmark" all "$@"
