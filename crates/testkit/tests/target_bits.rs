//! Same bits on every target: a golden of what the kernels and the trainer
//! compute, byte-equal whatever CPU the workspace is built for.
//!
//! Every other bit-identity test compares two paths inside one build, so a
//! build target that changed an output would pass them all. This one pins
//! the outputs themselves, as FNV-1a digests of their bits:
//!
//! * `spmm`, `spmm_rows`, `gemm`, `gemm_a_bt` and `gemm_at_b` at every
//!   width `tests/kernel_bits.rs` sweeps, in both accumulate modes;
//! * the loss bits of three epochs and the final `weights_digest` on small
//!   problems shaped like the benchmark's training workloads, and the bits
//!   of 64 answers from a served model shaped like its serving workload.
//!
//! The golden was written by a baseline `-C target-cpu=x86-64` build; the
//! workspace's default build and the baseline pass of `ci.sh` both check
//! it. Rustc asks LLVM for no floating-point contraction, so a multiply and
//! an add fuse only where the source calls `mul_add`, and the kernels keep
//! one accumulator per output element fed in source order — a wider vector
//! register changes no element's sequence of operations. A change to this
//! golden is a change of numerics, never a matter of the build.

use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_dense::{gemm, gemm_a_bt, gemm_at_b, Accumulate, Dense};
use mggcn_exec::Backend;
use mggcn_gpusim::{GpuSpec, MachineSpec};
use mggcn_graph::generators::{chung_lu, degree};
use mggcn_graph::Graph;
use mggcn_serve::{BatchPolicy, ServeConfig, Server, ServingModel};
use mggcn_sparse::{spmm, spmm_rows, Coo, Csr};
use mggcn_testkit::check_golden;
use std::fmt::Write;

/// `tests/kernel_bits.rs`'s widths: past the second widest-strip boundary,
/// then the benchmark's wide layers and one ragged width beyond them.
fn widths() -> impl Iterator<Item = usize> {
    (1..=70).chain([96, 128, 130])
}

const MODES: [Accumulate; 2] = [Accumulate::Overwrite, Accumulate::Add];

/// FNV-1a over a matrix's shape and element bits.
fn digest(m: &Dense) -> u64 {
    let words = [m.rows() as u32, m.cols() as u32].into_iter();
    words
        .chain(m.as_slice().iter().map(|v| v.to_bits()))
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`, with `0.0` and `-0.0` one time in eight each.
    fn value(&mut self) -> f32 {
        match self.next() % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
        }
    }

    fn dense(&mut self, rows: usize, cols: usize) -> Dense {
        Dense::from_fn(rows, cols, |_, _| self.value())
    }

    /// About `fill` percent of the entries stored; every fifth row empty.
    fn sparse(&mut self, rows: usize, cols: usize, fill: u64) -> Csr {
        let mut coo = Coo::new(rows, cols);
        for r in (0..rows).filter(|r| r % 5 != 3) {
            for c in 0..cols {
                if self.next() % 100 < fill {
                    coo.push(r as u32, c as u32, self.value());
                }
            }
        }
        coo.to_csr()
    }
}

/// One line per kernel, width and both modes: `kernel d=W overwrite add`.
fn kernel_digests() -> String {
    let mut out = String::new();
    let mut line = |kernel: &str, d: usize, run: &mut dyn FnMut(Accumulate) -> Dense| {
        let [o, a] = MODES.map(|acc| digest(&run(acc)));
        writeln!(out, "{kernel:<9} d={d:<3} {o:016x} {a:016x}").unwrap();
    };
    let mut rng = Rng(31);
    // 75 rows: two full row blocks of the SpMM kernel and a ragged third.
    let a = rng.sparse(75, 41, 30);
    let picked: Vec<u32> = (0..90).map(|_| (rng.next() % 75) as u32).collect();
    for d in widths() {
        let (b, c0, c0_rows) = (rng.dense(41, d), rng.dense(75, d), rng.dense(picked.len(), d));
        line("spmm", d, &mut |acc| {
            let mut c = c0.clone();
            spmm(&a, &b, &mut c, acc);
            c
        });
        line("spmm_rows", d, &mut |acc| {
            let mut c = c0_rows.clone();
            spmm_rows(&a, &picked, &b, &mut c, acc);
            c
        });
    }
    type Kernel = fn(&Dense, &Dense, &mut Dense, Accumulate);
    let mut dense = |kernel: &str, f: Kernel, a: Dense, b: Dense, c0: Dense, d: usize| {
        line(kernel, d, &mut |acc| {
            let mut c = c0.clone();
            f(&a, &b, &mut c, acc);
            c
        });
    };
    for n in widths() {
        // 131 rows: two full row blocks and a ragged third with an odd row.
        let (a, b, c0) = (rng.dense(131, 19), rng.dense(19, n), rng.dense(131, n));
        dense("gemm", gemm, a, b, c0, n);
        let (a, b, c0) = (rng.dense(131, 19), rng.dense(n, 19), rng.dense(131, n));
        dense("gemm_a_bt", gemm_a_bt, a, b, c0, n);
        // k = 1100 folds in two pieces.
        let m = 1 + n % 7;
        let (a, b, c0) = (rng.dense(1100, m), rng.dense(1100, n), rng.dense(m, n));
        dense("gemm_at_b", gemm_at_b, a, b, c0, n);
    }
    out
}

/// A Chung–Lu graph over a truncated power-law degree sequence, with
/// features, labels and a split attached: the benchmark's graphs, smaller.
fn power_law_graph(vertices: usize, avg_degree: f64, feat: usize, seed: u64) -> Graph {
    let model = degree::DegreeModel { avg_degree, exponent: 2.2, max_degree: vertices / 8 };
    let adj = chung_lu::generate(&degree::sample_degrees(&model, vertices, seed), seed ^ 1);
    Graph::synthesize(adj, feat, 16, seed ^ 2)
}

/// Three epochs on `gpus` GPUs: each epoch's loss bits, then the weights.
fn train_line(
    name: &str,
    graph: &Graph,
    hidden: &[usize],
    gpus: usize,
    backend: Backend,
) -> String {
    let cfg = GcnConfig::new(graph.features.cols(), hidden, graph.classes);
    let mut opts = TrainOptions::quick(gpus);
    opts.backend = backend;
    let problem = Problem::from_graph(graph, &cfg, &opts);
    let mut trainer = Trainer::new(problem, cfg, opts).expect("trainer");
    let mut line = format!("{name:<12}");
    for report in trainer.train(3).expect("three epochs") {
        write!(line, " {:016x}", report.loss.to_bits()).unwrap();
    }
    format!("{line} weights {:016x}\n", trainer.state().weights_digest())
}

/// 64 answers from a `64 → 32 → 16` model on two GPUs: layer 0 narrows, so
/// a batch's first layer is the SpMM over the frozen `H⁰·W⁰`.
fn serve_line() -> String {
    let graph = power_law_graph(600, 16.0, 64, 7);
    let mut rng = Rng(37);
    let weights = vec![rng.dense(64, 32), rng.dense(32, 16)];
    let model = ServingModel::from_parts(weights, graph.adj.clone(), graph.features.clone())
        .expect("valid model");
    let machine = MachineSpec::uniform("replica", GpuSpec::a100(), 2, 12, 25.0e9);
    let cfg = ServeConfig::new(machine, BatchPolicy::new(1e-3, 32), 150 * 64 * 4);
    let mut server = Server::new(model, cfg);
    let vertices: Vec<u32> = (0..64).map(|_| (rng.next() % 600) as u32).collect();
    format!("{:<12} answers {:016x}\n", "serve-churn", digest(&server.query(&vertices)))
}

#[test]
fn kernels_and_training_match_the_golden_on_every_target() {
    let mut out = kernel_digests();
    let narrow = power_law_graph(800, 24.0, 32, 3);
    out += &train_line("train-spmm", &narrow, &[32], 4, Backend::Simulated);
    let wide = power_law_graph(400, 4.0, 128, 4);
    out += &train_line("train-gemm", &wide, &[128], 4, Backend::Simulated);
    let small = power_law_graph(300, 8.0, 32, 5);
    out += &train_line("train-exec", &small, &[32, 32], 2, Backend::Threaded);
    out += &serve_line();
    check_golden("target_bits.txt", &out);
}
