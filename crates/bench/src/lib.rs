//! The paper's evaluation as data, plus the host's measured ceilings.
//!
//! [`paper`] computes every table and figure of the evaluation as a typed
//! [`paper::Table`]; the `paper` bench target prints them, and
//! `mggcn-testkit` holds each one to a golden and asserts its verdicts.
//! This file holds what the tables are built from: one simulated epoch
//! runner for MG-GCN and both baselines, and the §4.1 staged SpMM in
//! isolation (the content of Figs 6 and 8).

#![forbid(unsafe_code)]

pub mod host;
pub mod paper;

use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::state::BcSlot;
use mggcn_core::trainer::Trainer;
use mggcn_core::EpochReport;
use mggcn_gpusim::engine::OpDesc;
use mggcn_gpusim::{BufId, Category, Effects, MachineSpec, Schedule, Timeline};
use mggcn_graph::tilestats::TileStats;
use mggcn_graph::DatasetCard;

/// Simulate one epoch of `card` under `opts` — MG-GCN's own with
/// `TrainOptions::full`, a baseline's with `dgl::options` or
/// `cagnet::options`; `None` when it does not fit in GPU memory.
pub(crate) fn epoch(
    card: &DatasetCard,
    cfg: &GcnConfig,
    opts: TrainOptions,
) -> Option<EpochReport> {
    let problem = Problem::from_stats(card, &opts);
    let mut t = Trainer::new(problem, cfg.clone(), opts).ok()?;
    t.train_epoch().ok()
}

/// Build and run one staged broadcast-SpMM (the §4.1 pipeline in
/// isolation) and return its timeline — the exact content of the paper's
/// Figs 6 and 8. `overlap` selects the §4.3 two-stream schedule.
pub(crate) fn staged_spmm_timeline(
    stats: &TileStats,
    d: usize,
    machine: MachineSpec,
    overlap: bool,
) -> (Timeline, f64) {
    let p = stats.parts();
    let cost = mggcn_gpusim::CostModel::default();
    let group: Vec<usize> = (0..p).collect();
    let comm_stream = usize::from(overlap);
    let lanes: Vec<(usize, usize)> = group.iter().map(|&g| (g, comm_stream)).collect();
    let mut sched: Schedule<()> = Schedule::new(machine.clone());
    for s in 0..p {
        let rows = stats.rows_of(s);
        let bytes = rows as f64 * d as f64 * 4.0;
        let bw = machine.broadcast_bw(s, &group);
        sched.record_collective(
            &lanes,
            bytes,
            bw,
            OpDesc::staged(Category::Comm, "bcast", s),
            Effects::none().writes(group.iter().map(|&g| bc_slot(g, s))),
            None,
        );
        for j in 0..p {
            let work = cost.spmm(
                &machine.gpus[j],
                stats.rows_of(j) as u64,
                rows as u64,
                stats.nnz(j, s),
                d as u64,
                s > 0,
            );
            sched.record(
                j,
                0,
                work,
                OpDesc::staged(Category::SpMM, "spmm", s),
                Effects::none().reads([bc_slot(j, s)]).rw(BufId::new(j, "AHW")),
                None,
            );
        }
    }
    let run = sched.run(&());
    (run.timeline, run.makespan)
}

/// Stage `s`'s half of the §4.3 broadcast double buffer on GPU `g`. The
/// timeline builder above declares only these effects; the §4.3 waits
/// (`spmm(s)` after `bcast(s)`, `bcast(s)` after the readers of
/// `bcast(s-2)`) are inferred from them.
fn bc_slot(g: usize, s: usize) -> BufId {
    BufId::new(g, BcSlot::for_stage(s).buf_name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_baselines::{cagnet, dgl};
    use mggcn_graph::datasets;

    #[test]
    fn runners_return_values() {
        let cfg = GcnConfig::model_a(128, 40);
        let m = MachineSpec::dgx_a100();
        assert!(epoch(&datasets::ARXIV, &cfg, TrainOptions::full(m.clone(), 4)).is_some());
        assert!(epoch(&datasets::ARXIV, &cfg, dgl::options(m.clone(), &cfg)).is_some());
        assert!(epoch(&datasets::ARXIV, &cfg, cagnet::options(m, 4)).is_some());
        let proteins = GcnConfig::model_a(128, 256);
        let one_v100 = TrainOptions::full(MachineSpec::dgx_v100(), 1);
        assert!(epoch(&datasets::PROTEINS, &proteins, one_v100).is_none(), "OOM is None");
    }
}
