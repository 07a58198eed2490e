//! DGL-like baseline.
//!
//! DGL (v0.7.1 in the paper) trains correct full-batch GCNs on one GPU but
//! with none of MG-GCN's §4 optimizations. We model it as the same kernel
//! pipeline with:
//!
//! * single GPU only (§1: "most of the existing systems, such as DGL, lack
//!   the support for multi-GPU training");
//! * per-layer buffer allocation — ~3 live hidden-width buffers per layer
//!   at the backward peak (calibrated from Fig 12a's 20-layer limit);
//! * fixed GeMM→SpMM order and no first-layer backward-SpMM skip;
//! * lower effective kernel efficiency and a larger per-launch overhead
//!   (Python dispatch, framework bookkeeping, separate normalization and
//!   activation materialization). The efficiency knobs are calibrated so
//!   the single-GPU gap lands in the paper's measured 1.4–3.1× band.

use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::memplan::BufferPolicy;
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_gpusim::{spmm_first, CostModel, MachineSpec, OomError};

/// Kernel-efficiency haircut relative to the paper's hand-tuned CUDA.
const DGL_SPMM_EFFICIENCY: f64 = 0.33;
const DGL_GEMM_EFFICIENCY: f64 = 0.52;
const DGL_STREAMING_EFFICIENCY: f64 = 0.45;
/// Python/framework per-kernel dispatch cost.
const DGL_LAUNCH_OVERHEAD: f64 = 200.0e-6;

/// Training options describing a DGL-like run on one GPU of `machine`.
pub fn options(machine: MachineSpec, cfg: &GcnConfig) -> TrainOptions {
    let mut o = TrainOptions::full(machine, 1);
    o.permute = false;
    o.overlap = false;
    // DGL's GraphConv multiplies by W first when in_feats > out_feats —
    // the same trick as §4.4's forward half — so the baseline keeps it.
    o.op_order_opt = true;
    // When layer 0 is SpMM-first, autograd retains ÂᵀX and the layer-0
    // backward needs no SpMM at all — only MG-GCN's shared buffers force a
    // recomputation there (which §4.4 then skips). Cost-wise the two are
    // identical, so the baseline "skips" exactly when DGL's autograd would.
    o.skip_first_backward_spmm = spmm_first(cfg.d_in(0), cfg.d_out(0));
    o.cost = CostModel {
        gemm_efficiency: DGL_GEMM_EFFICIENCY,
        spmm_efficiency: DGL_SPMM_EFFICIENCY,
        streaming_efficiency: DGL_STREAMING_EFFICIENCY,
    };
    o.launch_overhead = DGL_LAUNCH_OVERHEAD;
    o.buffer_policy = BufferPolicy::PerLayer3;
    o.epoch_host_overhead = 10.0e-3;
    o
}

/// Build a DGL-like trainer for a materialized or stat-card problem.
/// Fails with OOM exactly when the per-layer allocation does not fit.
pub fn trainer(
    problem: Problem,
    cfg: GcnConfig,
    machine: MachineSpec,
) -> Result<Trainer, OomError> {
    let opts = options(machine, &cfg);
    Trainer::new(problem, cfg, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_core::config::GcnConfig;
    use mggcn_graph::datasets;

    fn epoch_time(card: &mggcn_graph::DatasetCard, machine: MachineSpec) -> f64 {
        let cfg = GcnConfig::model_a(card.feat_dim, card.classes);
        let opts = options(machine.clone(), &cfg);
        let problem = Problem::from_stats(card, &opts);
        let mut t = trainer(problem, cfg, machine).expect("fits");
        t.train_epoch().expect("train").sim_seconds
    }

    fn mggcn_time(card: &mggcn_graph::DatasetCard, machine: MachineSpec) -> f64 {
        let opts = TrainOptions::full(machine, 1);
        let cfg = GcnConfig::model_a(card.feat_dim, card.classes);
        let problem = Problem::from_stats(card, &opts);
        let mut t = Trainer::new(problem, cfg, opts).expect("fits");
        t.train_epoch().expect("train").sim_seconds
    }

    #[test]
    fn mggcn_beats_dgl_single_gpu_in_paper_band() {
        // Paper §6.5: single-GPU speedups vs DGL on DGX-V100 are 2.72×
        // (Reddit), 1.42× (Products), 1.76× (Arxiv), 3.1× (Cora). Check
        // each lands within a loose band around the measured value.
        let m = MachineSpec::dgx_v100();
        for (card, lo, hi) in [
            (datasets::REDDIT, 1.7, 4.0),
            (datasets::PRODUCTS, 1.1, 2.8),
            (datasets::ARXIV, 1.2, 3.2),
            (datasets::CORA, 1.4, 6.0),
        ] {
            let speedup = epoch_time(&card, m.clone()) / mggcn_time(&card, m.clone());
            assert!(
                speedup > lo && speedup < hi,
                "{}: speedup {speedup:.2} outside [{lo}, {hi}]",
                card.name
            );
        }
    }

    #[test]
    fn dgl_is_single_gpu() {
        let o = options(MachineSpec::dgx_a100(), &GcnConfig::model_a(602, 41));
        assert_eq!(o.gpus, 1);
        assert!(!o.overlap);
    }

    #[test]
    fn dgl_ooms_where_paper_says() {
        // Fig 10/13: DGL runs out of memory on Proteins on both machines.
        let card = datasets::PROTEINS;
        let cfg = GcnConfig::model_a(card.feat_dim, card.classes);
        for machine in [MachineSpec::dgx_v100(), MachineSpec::dgx_a100()] {
            let opts = options(machine.clone(), &cfg);
            let problem = Problem::from_stats(&card, &opts);
            assert!(trainer(problem, cfg.clone(), machine).is_err(), "Proteins should OOM");
        }
    }
}
