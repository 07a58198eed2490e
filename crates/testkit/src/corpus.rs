//! The deterministic fuzz corpus: seeded degenerate training problems
//! driven end-to-end through train → checkpoint → restore → serve.
//!
//! Every case derives entirely from one `u64` seed, so a failure report
//! is a replay command. The generator deliberately over-samples the edge
//! geometry the partitioned kernels are most likely to get wrong:
//! edge-free graphs (column normalization of all-zero columns), isolated
//! vertices, `n == P` single-row tiles, and both growing
//! (`d(l) < d(l+1)`, the §4.4 SpMM-first regime) and shrinking layer
//! stacks.

use crate::dense64::max_rel_diff_f32;
use crate::oracle::ReferenceGcn;
use crate::{rel_diff, P_LOSS_TOL, REL_FLOOR, TRAINER_VS_ORACLE_TOL};
use mggcn_core::checkpoint::Checkpoint;
use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_dense::Dense;
use mggcn_exec::Backend;
use mggcn_gpusim::MachineSpec;
use mggcn_graph::Graph;
use mggcn_serve::{BatchPolicy, ServeConfig, Server, ServingModel};
use mggcn_sparse::{Coo, Csr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Graph shapes the generator rotates through.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// No edges at all: `Â` is all-zero, every aggregation is zero.
    Empty,
    /// Sparse random edges; isolated vertices occur naturally.
    Sparse,
    /// A cycle: connected, every column nonzero.
    Ring,
}

/// One seeded end-to-end problem.
pub struct FuzzCase {
    pub seed: u64,
    pub shape: Shape,
    pub graph: Graph,
    pub cfg: GcnConfig,
    pub gpus: usize,
    pub permute: bool,
    pub epochs: usize,
    /// Which execution backend drives the trainer (the oracle is always
    /// sequential f64). Defaults to `Simulated`; the differential suite
    /// re-runs the corpus with `Threaded`.
    pub backend: Backend,
}

impl FuzzCase {
    /// Derive a case from `seed` alone.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xf022_f022_f022_f022);
        let gpus = rng.gen_range(1usize..=4);
        // One case in five is the n == P degenerate: every tile is a
        // single row (or empty after uneven splits).
        let n = if rng.gen_bool(0.2) { gpus } else { rng.gen_range(gpus.max(2)..=40) };
        let shape = match rng.gen_range(0u32..3) {
            0 => Shape::Empty,
            1 => Shape::Sparse,
            _ => Shape::Ring,
        };
        let mut coo = Coo::new(n, n);
        match shape {
            Shape::Empty => {}
            Shape::Sparse => {
                for _ in 0..rng.gen_range(0..2 * n) {
                    let u = rng.gen_range(0..n as u32);
                    let v = rng.gen_range(0..n as u32);
                    coo.push(u, v, 1.0);
                    coo.push(v, u, 1.0);
                }
            }
            Shape::Ring => {
                for i in 0..n {
                    let j = (i + 1) % n;
                    coo.push(i as u32, j as u32, 1.0);
                    coo.push(j as u32, i as u32, 1.0);
                }
            }
        }
        let classes = rng.gen_range(2usize..=5);
        // Alternate growing and shrinking stacks; growing (d0 < d1)
        // exercises the §4.4 SpMM-before-GeMM order.
        let (d0, hidden) = if rng.gen_bool(0.5) {
            (rng.gen_range(2usize..=4), rng.gen_range(8usize..=12))
        } else {
            (rng.gen_range(8usize..=12), rng.gen_range(2usize..=4))
        };
        let layers = rng.gen_range(1usize..=2);
        let graph = Graph::synthesize(coo.to_csr(), d0, classes, seed ^ 0x9e37_79b9);
        let mut cfg = if layers == 1 {
            GcnConfig::new(d0, &[], classes)
        } else {
            GcnConfig::new(d0, &[hidden], classes)
        };
        cfg.seed = seed ^ 0x5eed;
        Self {
            seed,
            shape,
            graph,
            cfg,
            gpus,
            permute: rng.gen_bool(0.5),
            epochs: rng.gen_range(1usize..=3),
            backend: Backend::Simulated,
        }
    }

    /// The same case, driven through a different execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// One-line summary for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "seed={} shape={:?} n={} nnz={} dims={:?} P={} permute={} epochs={}",
            self.seed,
            self.shape,
            self.graph.n(),
            self.graph.adj.nnz(),
            self.cfg.dims,
            self.gpus,
            self.permute,
            self.epochs
        )
    }

    /// The training options this case runs under.
    pub fn opts(&self) -> TrainOptions {
        let mut o = TrainOptions::quick(self.gpus);
        o.permute = self.permute;
        o.backend = self.backend;
        o
    }

    /// A fresh trainer for this case (deterministic: two calls train
    /// identically).
    pub fn trainer(&self) -> Result<Trainer, String> {
        let problem = Problem::from_graph(&self.graph, &self.cfg, &self.opts());
        Trainer::new(problem, self.cfg.clone(), self.opts())
            .map_err(|e| format!("trainer OOM on a toy problem: {e:?}"))
    }
}

macro_rules! check {
    ($cond:expr, $($arg:tt)*) => {
        // Bind first: `!(a < b)` on floats trips clippy's partial-ord lint.
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($arg)*));
        }
    };
}

/// Drive one case end-to-end. `Err` carries a human-readable diagnosis;
/// the caller prepends the replay seed.
pub fn run_case(case: &FuzzCase) -> Result<(), String> {
    case.graph
        .adj
        .validate()
        .map_err(|e| format!("generator produced a malformed adjacency: {e}"))?;

    // 1. Train, with the f64 oracle shadowing every epoch.
    let mut trainer = case.trainer()?;
    let mut oracle = ReferenceGcn::new(&case.graph, &case.cfg);
    for e in 0..case.epochs {
        let got = trainer.train_epoch().map_err(|err| format!("epoch {e} failed: {err}"))?;
        let want = oracle.train_epoch();
        check!(got.loss.is_finite(), "epoch {e}: non-finite loss {}", got.loss);
        check!(
            rel_diff(got.loss, want.loss) < P_LOSS_TOL,
            "epoch {e}: trainer loss {} diverged from oracle {}",
            got.loss,
            want.loss
        );
    }

    // 2. Checkpoint → save → load → restore → train must be bit-identical
    //    to training straight through (deterministic execution).
    let halves = case.epochs.div_ceil(2);
    let mut first = case.trainer()?;
    first.train(halves).map_err(|err| format!("first-half training failed: {err}"))?;
    let ck = Checkpoint::from_trainer(&first);
    let path =
        std::env::temp_dir().join(format!("mggcn_fuzz_{}_{}.ckpt", std::process::id(), case.seed));
    ck.save(&path).map_err(|e| format!("checkpoint save failed: {e}"))?;
    let loaded = Checkpoint::load(&path).map_err(|e| format!("checkpoint load failed: {e}"))?;
    std::fs::remove_file(&path).ok();
    check!(loaded == ck, "checkpoint did not round-trip through disk");
    let mut resumed = case.trainer()?;
    loaded.restore_into(&mut resumed).map_err(|e| format!("restore failed: {e}"))?;
    resumed.train(case.epochs - halves).map_err(|err| format!("resumed training failed: {err}"))?;
    let (ga, gb) = (trainer.state().gpu(0), resumed.state().gpu(0));
    let (a, b) = (&ga.weights, &gb.weights);
    for l in 0..a.len() {
        check!(
            a[l].as_slice() == b[l].as_slice(),
            "resumed weights differ from straight-through at layer {l}"
        );
    }
    drop((ga, gb));

    // 3. Serve the final checkpoint and compare logits against the oracle
    //    evaluated at the same (f32) weights; a random batch (duplicates
    //    allowed) through the batch path must return `forward_full`'s rows
    //    bit for bit, cold and warm.
    let final_ck = Checkpoint::from_trainer(&trainer);
    let model = ServingModel::from_checkpoint(&final_ck, &case.graph)
        .map_err(|e| format!("serving rejected a valid checkpoint: {e}"))?;
    let served = model.forward_full();
    check!(served.as_slice().iter().all(|v| v.is_finite()), "serving produced non-finite logits");
    oracle.set_weights(&final_ck.weights);
    let reference = oracle.forward();
    let logits = reference.last().expect("logits");
    let err = max_rel_diff_f32(logits, &served, REL_FLOOR.max(logits.max_abs() * 1e-3));
    check!(err < TRAINER_VS_ORACLE_TOL, "served logits diverge from oracle by {err:.3e}");
    let mut rng = SmallRng::seed_from_u64(case.seed ^ 0xba7c_ba7c);
    let n = case.graph.n() as u32;
    let batch: Vec<u32> = (0..rng.gen_range(1..=6)).map(|_| rng.gen_range(0..n)).collect();
    let cfg = ServeConfig::new(MachineSpec::dgx_a100(), BatchPolicy::new(1e-3, 8), 1 << 16);
    let mut server = Server::new(model.clone(), cfg);
    for phase in ["cold", "warm"] {
        check_batch(&server.query(&batch), &batch, &served, phase)?;
    }

    // 4. Graph delta: add an edge online, then check the server's
    //    re-normalized operator is structurally sound and bit-equal to a
    //    from-scratch rebuild, the invalidation set covers the endpoints,
    //    the post-delta logits match an oracle rebuilt on the updated
    //    graph at the same weights, and the batch path answers from the
    //    updated graph bit for bit.
    if case.graph.n() >= 2 {
        let mut model = model;
        let (u, v) = (0u32, (case.graph.n() - 1) as u32);
        let invalidated = model.apply_delta(&[(u, v)]);
        check!(
            invalidated.contains(&u) && invalidated.contains(&v),
            "delta invalidation set {invalidated:?} misses an endpoint of ({u},{v})"
        );
        let adj = model.adj();
        adj.validate().map_err(|e| format!("delta left a malformed adjacency: {e}"))?;
        let rebuilt = ServingModel::from_parts(
            final_ck.weights.clone(),
            adj.clone(),
            case.graph.features.clone(),
        )
        .map_err(|e| format!("rebuilding the post-delta model failed: {e}"))?;
        let (a, b) = (rebuilt.a_hat_t(), model.a_hat_t());
        let bits = |m: &Csr| m.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        check!(
            a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() && bits(a) == bits(b),
            "patched operator differs from a from-scratch rebuild"
        );
        let updated = Graph::new(
            adj,
            case.graph.features.clone(),
            case.graph.labels.clone(),
            case.graph.classes,
            case.graph.split.clone(),
        );
        let mut oracle = ReferenceGcn::new(&updated, &case.cfg);
        oracle.set_weights(&final_ck.weights);
        let reference = oracle.forward();
        let logits = reference.last().expect("logits");
        let served = model.forward_full();
        let err = max_rel_diff_f32(logits, &served, REL_FLOOR.max(logits.max_abs() * 1e-3));
        check!(
            err < TRAINER_VS_ORACLE_TOL,
            "post-delta served logits diverge from oracle by {err:.3e}"
        );
        server.apply_delta(&[(u, v)]);
        check_batch(&server.query(&batch), &batch, &served, "post-delta")?;
    }
    Ok(())
}

/// Each row of a served batch must carry the bits of its vertex's
/// `forward_full` row.
fn check_batch(out: &Dense, batch: &[u32], full: &Dense, phase: &str) -> Result<(), String> {
    for (i, &v) in batch.iter().enumerate() {
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        check!(
            bits(out.row(i)) == bits(full.row(v as usize)),
            "{phase} batch {batch:?}: vertex {v} differs from forward_full"
        );
    }
    Ok(())
}

/// Run seeds `0..count`, collecting failures as `(seed, diagnosis)`.
pub fn run_corpus(count: u64) -> Vec<(u64, String)> {
    run_corpus_with(count, Backend::Simulated)
}

/// Run seeds `0..count` on a specific execution backend.
pub fn run_corpus_with(count: u64, backend: Backend) -> Vec<(u64, String)> {
    let mut failures = Vec::new();
    for seed in 0..count {
        let case = FuzzCase::from_seed(seed).with_backend(backend);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_case(&case)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => failures.push((seed, format!("{msg} [{}]", case.describe()))),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".into());
                failures.push((seed, format!("panic: {msg} [{}]", case.describe())));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let a = FuzzCase::from_seed(7);
        let b = FuzzCase::from_seed(7);
        assert_eq!(a.describe(), b.describe());
        assert_eq!(a.graph.adj, b.graph.adj);
        assert_eq!(a.graph.features, b.graph.features);
    }

    #[test]
    fn generator_covers_the_degenerate_shapes() {
        let cases: Vec<FuzzCase> = (0..60).map(FuzzCase::from_seed).collect();
        assert!(cases.iter().any(|c| c.shape == Shape::Empty), "no empty graphs");
        assert!(cases.iter().any(|c| c.graph.n() == c.gpus && c.gpus > 1), "no n == P cases");
        assert!(
            cases.iter().any(|c| c.cfg.dims.windows(2).any(|w| w[0] < w[1])),
            "no growing layer"
        );
        assert!(
            cases.iter().any(|c| c.cfg.dims.windows(2).any(|w| w[0] > w[1])),
            "no shrinking layer"
        );
        assert!(cases.iter().any(|c| c.cfg.layers() == 1), "no single-layer model");
    }
}
