//! Ablation — the §5.1 decision, run end-to-end in the engine.
//!
//! `analysis_1d_vs_15d` checks the paper's closed-form link arithmetic;
//! this harness *executes* both staged-SpMM schedules (broadcast rounds,
//! compute, cross-group reduce) in the discrete-event engine, including
//! overlap and bandwidth contention, and reports which strategy wins on
//! which machine. The paper's conclusion — 1D on DGX-1, near-tie on
//! DGX-A100 where 1.5D's comm edge is bought with 2× memory — should
//! fall out.

use mggcn_bench::{spmm_15d_timeline, staged_spmm_timeline};
use mggcn_gpusim::MachineSpec;
use mggcn_graph::datasets::{PRODUCTS, REDDIT};
use mggcn_graph::tilestats::{TileStats, VertexOrdering};

fn main() {
    println!("Ablation: 1D vs 1.5D staged SpMM, executed in the engine (8 GPUs, d = 512)");
    println!(
        "{:<10} {:<10} {:>12} {:>12} {:>10} {:>8}",
        "Machine", "Dataset", "1D (ms)", "1.5D (ms)", "ratio", "winner"
    );
    for machine in [MachineSpec::dgx_v100(), MachineSpec::dgx_a100()] {
        for card in [REDDIT, PRODUCTS] {
            let stats = TileStats::model(&card, 8, VertexOrdering::Permuted);
            let (_, t_1d) = staged_spmm_timeline(&stats, 512, machine.clone(), true);
            let (_, t_15d) = spmm_15d_timeline(&stats, 512, machine.clone(), true);
            println!(
                "{:<10} {:<10} {:>12.2} {:>12.2} {:>9.2}x {:>8}",
                machine.name,
                card.name,
                t_1d * 1e3,
                t_15d * 1e3,
                t_15d / t_1d,
                if t_1d <= t_15d { "1D" } else { "1.5D" }
            );
        }
    }
    println!();
    println!("memory: the 1.5D replica doubles the partitioned feature/buffer state");
    println!("per GPU — on memory-bound GNN training that decides it (paper §5.1).");
}
