#!/usr/bin/env bash
# Hermetic CI for the MG-GCN reproduction. Everything runs offline: all
# third-party dependencies are in-tree path crates (crates/rand, crates/rayon,
# crates/proptest, crates/criterion), so no registry access is attempted.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> rustfmt (workspace)"
cargo fmt --check

echo "==> clippy -D warnings (workspace, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> unsafe audit (forbid(unsafe_code) everywhere but the rayon shim)"
# Every crate root carries #![forbid(unsafe_code)]. The single sanctioned
# unsafe site is the in-tree rayon shim's type-erased job dispatch
# (crates/rayon/src/pool.rs); any other `unsafe` token fails CI.
for lib in src/lib.rs crates/*/src/lib.rs; do
  [ "${lib}" = "crates/rayon/src/lib.rs" ] && continue
  grep -qF '#![forbid(unsafe_code)]' "${lib}" || {
    echo "${lib} is missing #![forbid(unsafe_code)]" >&2
    exit 1
  }
done
if grep -rn '\bunsafe\b' --include='*.rs' src crates \
  | grep -v 'unsafe_code' | grep -v '^crates/rayon/src/pool.rs:'; then
  echo "new unsafe code outside crates/rayon/src/pool.rs" >&2
  exit 1
fi

echo "==> build (release, workspace)"
cargo build --release --workspace

echo "==> tests (workspace, kernel pool width 1)"
MGGCN_THREADS=1 cargo test -q --workspace

echo "==> tests (workspace, kernel pool width 4)"
# Oversubscribed on small CI boxes — that is the point: the threaded
# backend must be bit-identical at any pool width, including widths
# wider than the machine.
MGGCN_THREADS=4 cargo test -q --workspace

echo "==> exec runtime on one CPU, then 20x oversubscribed"
# One-CPU interleavings are what the benchmark gates, and where a lost
# wake-up would hide: a parked worker that nobody wakes hangs the test.
if command -v taskset >/dev/null 2>&1; then
  taskset -c 0 cargo test -q -p mggcn-exec
else
  echo "taskset not available: skipping the one-CPU pass"
fi
for _ in $(seq 20); do
  MGGCN_THREADS=4 cargo test -q -p mggcn-exec >/dev/null
done

echo "==> conformance harness (testkit: differential + golden + 50-seed fuzz)"
# Failing fuzz seeds are printed by the test for replay via
# MGGCN_FUZZ_SEED=<seed> cargo test -p mggcn-testkit --test fuzz_corpus
MGGCN_FUZZ_SEEDS=50 cargo test -q -p mggcn-testkit

echo "==> chaos conformance (seeded fault matrix x pool widths)"
# Seeded fault plans — worker death mid-collective, slow links, preemption,
# cluster cache-node loss, kills landing inside a pipelined epoch's
# prefetch window (Scenario::StaleEpochKill) — against every subsystem
# on the sched core.
# Budgeted like the fuzz pass: 2 widths x 2 base seeds x 8-seed sweeps.
# A red run names its seed; replay with
#   MGGCN_CHAOS_SEED=<seed> cargo test -p mggcn-testkit --test chaos_invariants
for threads in 1 4; do
  for seed in 12648430 271828; do
    MGGCN_THREADS="${threads}" MGGCN_CHAOS_SEED="${seed}" MGGCN_CHAOS_SEEDS=8 \
      cargo test -q -p mggcn-testkit --test chaos_invariants
  done
done

echo "==> bench-exec smoke (threaded runtime really executes; JSON schema)"
# Wall-clock speedup is asserted only in shape, not magnitude — CI cores
# vary. The staleness_sim card is simulated-clock and deterministic, so
# the validator's k=1 speedup floor is a real gate on the fresh artifact
# AND on the committed one (regenerate with
#   ./target/release/mggcn bench-exec --gpus 2 --vertices 800 --hidden 32 \
#     --epochs 5 --out BENCH_exec.json
# whenever the cost models change).
BENCH_OUT="$(mktemp -d)/BENCH_exec.json"
./target/release/mggcn bench-exec --gpus 2 --vertices 500 --hidden 32 \
  --epochs 3 --threads 1,2 --out "${BENCH_OUT}" >/dev/null
for key in '"bench":"exec"' '"backend":"threaded"' '"pool_size":' \
           '"results":[' '"threads":1' '"threads":2' \
           '"epoch_ms_p50":' '"speedup":' '"category_ms":' \
           '"staleness_sim":' '"speedup_vs_fresh":'; do
  grep -qF "${key}" "${BENCH_OUT}" || {
    echo "BENCH_exec.json missing ${key}:" >&2
    cat "${BENCH_OUT}" >&2
    exit 1
  }
done
./target/release/mggcn bench-exec --check "${BENCH_OUT}" >/dev/null
rm -f "${BENCH_OUT}"
./target/release/mggcn bench-exec --check BENCH_exec.json >/dev/null

echo "==> staleness smoke (DESIGN §15: fused pipelines on a 2x2 cluster)"
# k=0 must be the old trainer bit for bit (covered by the differential
# suite); here the CLI path trains end-to-end at k in {0,1} on the
# 2-node hierarchical cluster under both pool widths. The analyze smoke
# below re-verifies every fused shape with stale reads declared.
for threads in 1 4; do
  for k in 0 1; do
    MGGCN_THREADS="${threads}" ./target/release/mggcn train \
      --gpus 4 --nodes 2 --nic 1 --staleness "${k}" \
      --vertices 400 --hidden 16 --epochs 3 --backend threaded >/dev/null
  done
done

echo "==> trace smoke (traced epoch; §5.1 bytes + §4.2 memory bound; schemas)"
# `mggcn trace` exits nonzero if the traced broadcast byte counters
# diverge from the comm::analysis closed form or a per-GPU memory
# high-watermark exceeds the L+3 plan. Run at both pool widths — the
# sim-clock numbers must not depend on the width.
TRACE_DIR="$(mktemp -d)"
for threads in 1 4; do
  MGGCN_THREADS="${threads}" ./target/release/mggcn trace \
    --gpus 2 --vertices 500 --hidden 16 --epochs 2 \
    --out "${TRACE_DIR}/BENCH_trace.json" \
    --chrome "${TRACE_DIR}/trace.json" >/dev/null
  ./target/release/mggcn trace --check "${TRACE_DIR}/BENCH_trace.json" >/dev/null
  ./target/release/mggcn trace --check "${TRACE_DIR}/trace.json" >/dev/null
done
for key in '"bench":"trace"' '"schema":"mggcn-trace-v1"' \
           '"sim.bcast.bytes.total"' '"mem.plan.big_buffers_bytes"' \
           '"overlap_efficiency"' '"mem_bound_ok":true'; do
  grep -qF "${key}" "${TRACE_DIR}/BENCH_trace.json" || {
    echo "BENCH_trace.json missing ${key}:" >&2
    cat "${TRACE_DIR}/BENCH_trace.json" >&2
    exit 1
  }
done
rm -rf "${TRACE_DIR}"

echo "==> serve-bench schema check (shared JSON writer round-trips the validator)"
SERVE_DIR="$(mktemp -d)"
./target/release/mggcn serve-bench --qps 50000 --requests 400 --vertices 400 \
  --epochs 4 >"${SERVE_DIR}/BENCH_serve.json"
./target/release/mggcn serve-bench --check "${SERVE_DIR}/BENCH_serve.json" >/dev/null
rm -rf "${SERVE_DIR}"

echo "==> cluster-bench smoke (sharded tier; p99 SLO + shedding gate; schema)"
# `mggcn cluster-bench` exits nonzero unless the admitted-request p99 meets
# the SLO, the degraded rate stays bounded, shedding engaged under the
# deliberate overload, and every request was answered. All accounting is on
# the simulated clock, so both pool widths must produce identical reports.
CLUSTER_DIR="$(mktemp -d)"
for threads in 1 4; do
  for topo in "2 2" "4 1"; do
    read -r shards gpus <<<"${topo}"
    out="${CLUSTER_DIR}/BENCH_cluster_${shards}x${gpus}_t${threads}.json"
    MGGCN_THREADS="${threads}" ./target/release/mggcn cluster-bench \
      --shards "${shards}" --gpus-per-shard "${gpus}" \
      --requests 1200 --vertices 1200 --epochs 8 \
      --out "${out}" >/dev/null
    ./target/release/mggcn cluster-bench --check "${out}" >/dev/null
    for key in '"bench":"cluster"' '"schema":"mggcn-cluster-v1"' \
               '"capacity_rps":' '"reduction":' '"p99_ok":true' \
               '"degraded_nonzero":true' '"all_answered":true'; do
      grep -qF "${key}" "${out}" || {
        echo "${out} missing ${key}:" >&2
        cat "${out}" >&2
        exit 1
      }
    done
  done
done
rm -rf "${CLUSTER_DIR}"

echo "==> analyze smoke (static schedule verification; Reddit model A, P=4)"
# `mggcn analyze` exits nonzero if any recorded schedule has an unordered
# buffer conflict, a dependency cycle, an undeclared cross-epoch stale
# read (§15 fused pipelines), or a liveness coloring that needs more big
# buffers than the budget (L+3, +RP for 1.5D, +SF under staleness).
./target/release/mggcn analyze >/dev/null
./target/release/mggcn analyze --dataset reddit --gpus 4
./target/release/mggcn analyze --dataset reddit --gpus 4 --partition 1.5d

echo "==> effect-soundness + model-check smoke (shadow oracle; DPOR linearizations)"
# `--audit-effects` shadow-executes every materialized schedule's bodies
# and fails on any read/write/stale-age the declarations miss;
# `--model-check` DPOR-explores the HB linearizations of P in {1,2,3}
# schedules and fails unless final weights are bit-identical. The JSON
# report must round-trip the in-tree parser and be byte-stable.
ANALYZE_DIR="$(mktemp -d)"
for gpus in 1 2; do
  ./target/release/mggcn analyze --gpus "${gpus}" --audit-effects --model-check \
    --json --out "${ANALYZE_DIR}/analyze_p${gpus}.json" >/dev/null
  ./target/release/mggcn analyze --gpus "${gpus}" --audit-effects --model-check \
    --json --out "${ANALYZE_DIR}/analyze_p${gpus}_again.json" >/dev/null
  cmp "${ANALYZE_DIR}/analyze_p${gpus}.json" "${ANALYZE_DIR}/analyze_p${gpus}_again.json" || {
    echo "analyze --json is not byte-stable at P=${gpus}" >&2
    exit 1
  }
  for key in '"schema":"mggcn-analyze-v1"' '"dirty":0' '"model_check":[' \
             '"deterministic":true'; do
    grep -qF "${key}" "${ANALYZE_DIR}/analyze_p${gpus}.json" || {
      echo "analyze_p${gpus}.json missing ${key}:" >&2
      cat "${ANALYZE_DIR}/analyze_p${gpus}.json" >&2
      exit 1
    }
  done
done
rm -rf "${ANALYZE_DIR}"

echo "==> topo smoke (2-node cluster training; §5.1 crossover card; schema)"
# Train on a 2-node x 2-GPU hierarchical machine under both partitionings
# and both kernel-pool widths — numerics must be identical in all four
# cells (the 1.5D reduce re-folds partials in canonical stage order).
# Then `mggcn topo-bench` reproduces the §5.1 verdicts (closed form AND
# discrete-event), locates the NIC crossover, runs the papers100M e2e
# sweep, and exits nonzero if any verdict fails. The committed
# BENCH_topo.json must also still validate — regenerate it with
#   ./target/release/mggcn topo-bench --out BENCH_topo.json
# whenever the cost models change.
for threads in 1 4; do
  for partition in 1d 1.5d; do
    MGGCN_THREADS="${threads}" ./target/release/mggcn train \
      --gpus 4 --nodes 2 --partition "${partition}" \
      --vertices 400 --hidden 16 --epochs 3 >/dev/null
  done
done
TOPO_DIR="$(mktemp -d)"
./target/release/mggcn topo-bench --out "${TOPO_DIR}/BENCH_topo.json" >/dev/null
./target/release/mggcn topo-bench --check "${TOPO_DIR}/BENCH_topo.json" >/dev/null
rm -rf "${TOPO_DIR}"
./target/release/mggcn topo-bench --check BENCH_topo.json >/dev/null

echo "==> benchmark harness gate (BENCHMARK.json; unit tests + 20-step smoke of every workload)"
# benchmark/ is a cargo workspace of its own built against this checkout,
# so this also proves the public API the harness times (Trainer, Schedule,
# preflight, execute, Server) still compiles. Performance claims cite its
# metrics (benchmark/README.md), never the BENCH_*.json cards above.
benchmark/check.sh

echo "==> CI green"
