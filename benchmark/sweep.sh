#!/usr/bin/env bash
# One result set for `compare`: every workload RUNS times untraced, each time
# with another seed, plus one traced run (always seed 1, so that `compare`
# can hold the counts of two sets against each other). Appends one record
# per run to OUT.
#
#   benchmark/sweep.sh OUT.jsonl [RUNS] [FIRST_SEED]
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:?usage: benchmark/sweep.sh OUT.jsonl [RUNS] [FIRST_SEED]}
runs=${2:-10}
first=${3:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
for workload in train-spmm train-gemm train-exec serve-churn; do
  for ((seed = first; seed < first + runs; seed++)); do
    "${run[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" \
      2>/dev/null | tail -n 1
  done
  "${run[@]}" --workload "$workload" --seed 1 --seconds "$seconds" --trace 1 --out "$out" \
    2>/dev/null | tail -n 1 | cut -c 1-120
done
