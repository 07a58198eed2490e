#!/usr/bin/env bash
# The harness's own gate: its unit tests (floor, percentiles, quartile
# spread, CPU clock, spans, and the workload and metric names and units held
# against BENCHMARK.json), then `--smoke`: every workload for 20 steps,
# untraced once and traced twice, with the result's keys, a number for every
# listed metric, every correctness check passing, no failed step, and the
# counts of the two traced runs identical.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke
echo "benchmark check: ok"
