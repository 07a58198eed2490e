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

echo "==> rustdoc -D warnings (workspace)"
# A deleted or private item must not leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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

echo "==> kernel bit-identity, steady-state allocations, served answers (release)"
# The benchmark times the vectorised release kernels and serves with them;
# the workspace passes above only run the debug build of them.
cargo test --release -q --test kernel_bits --test steady_state_allocs
cargo test --release -q -p mggcn-serve --test serving

echo "==> kernel bit-identity and the target_bits golden, baseline x86-64 (release)"
# .cargo/config.toml builds for x86-64-v3; an explicit RUSTFLAGS replaces it.
# Both targets must compute the same bits. Own target dir: the flag change
# would otherwise rebuild the main cache twice.
RUSTFLAGS="-C target-cpu=x86-64" cargo test --release -q --target-dir target/x86-64 \
  -p mg-gcn -p mggcn-testkit --test kernel_bits --test target_bits

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

echo "==> fuzz corpus (testkit: train -> checkpoint -> restore -> serve, 50 seeds)"
# Failing fuzz seeds are printed by the test for replay via
# MGGCN_FUZZ_SEED=<seed> cargo test -p mggcn-testkit --test fuzz_corpus
MGGCN_FUZZ_SEEDS=50 cargo test -q -p mggcn-testkit --test fuzz_corpus

echo "==> chaos conformance (seeded fault matrix x pool widths)"
# Seeded fault plans — worker death mid-collective, slow links, preemption,
# cluster cache-node loss, kills landing inside a pipelined epoch's
# prefetch window (Scenario::StaleEpochKill) — at the injection hook of
# every event loop (gpusim DES, exec workers, cluster shard loop).
# Budgeted like the fuzz pass: 2 widths x 2 base seeds x 8-seed sweeps.
# A red run names its seed; replay with
#   MGGCN_CHAOS_SEED=<seed> cargo test -p mggcn-testkit --test chaos_invariants
for threads in 1 4; do
  for seed in 12648430 271828; do
    MGGCN_THREADS="${threads}" MGGCN_CHAOS_SEED="${seed}" MGGCN_CHAOS_SEEDS=8 \
      cargo test -q -p mggcn-testkit --test chaos_invariants
  done
done

echo "==> benchmark harness gate (BENCHMARK.json; unit tests + 20-step smoke of every workload)"
# benchmark/ is a cargo workspace of its own built against this checkout,
# so this also proves the public API the harness times (Trainer, Schedule,
# preflight, execute, Server) still compiles. Performance claims cite its
# metrics (benchmark/README.md); simulated-clock claims are `#[test]`s and
# table goldens, all inside the workspace tests above.
# benchmark/Cargo.lock records every crate's dependency edges; check.sh would
# silently rewrite it after a change to any of them, so refuse that first.
cargo metadata --offline --locked --manifest-path benchmark/Cargo.toml --format-version 1 >/dev/null
benchmark/check.sh

echo "==> CI green"
