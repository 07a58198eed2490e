//! Shared machinery for the per-figure/per-table benchmark harnesses.
//!
//! Every evaluation artifact of the paper has a bench target in
//! `benches/` that prints the corresponding rows/series; this library holds
//! the runners they share. Bench targets use `harness = false` so that
//! `cargo bench` regenerates the whole evaluation.

#![forbid(unsafe_code)]

pub mod host;

use mggcn_baselines::{cagnet, dgl};
use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::state::BcSlot;
use mggcn_core::trainer::Trainer;
use mggcn_core::EpochReport;
use mggcn_gpusim::engine::OpDesc;
use mggcn_gpusim::{BufId, Category, Effects, MachineSpec, Schedule, Timeline};
use mggcn_graph::tilestats::TileStats;
use mggcn_graph::DatasetCard;

/// Simulate one MG-GCN epoch from a dataset card; `None` when it OOMs.
pub fn mggcn_epoch(
    card: &DatasetCard,
    cfg: &GcnConfig,
    machine: MachineSpec,
    gpus: usize,
) -> Option<EpochReport> {
    let opts = TrainOptions::full(machine, gpus);
    mggcn_epoch_with(card, cfg, opts)
}

/// Simulate one MG-GCN epoch with explicit options (for ablations).
pub fn mggcn_epoch_with(
    card: &DatasetCard,
    cfg: &GcnConfig,
    opts: TrainOptions,
) -> Option<EpochReport> {
    let problem = Problem::from_stats(card, &opts);
    let mut t = Trainer::new(problem, cfg.clone(), opts).ok()?;
    t.train_epoch().ok()
}

/// Simulate one DGL-like epoch; `None` on OOM.
pub fn dgl_epoch(card: &DatasetCard, cfg: &GcnConfig, machine: MachineSpec) -> Option<f64> {
    let opts = dgl::options(machine, cfg);
    let problem = Problem::from_stats(card, &opts);
    let mut t = Trainer::new(problem, cfg.clone(), opts).ok()?;
    Some(t.train_epoch().ok()?.sim_seconds)
}

/// Simulate one CAGNET-like epoch; `None` on OOM.
pub fn cagnet_epoch(
    card: &DatasetCard,
    cfg: &GcnConfig,
    machine: MachineSpec,
    gpus: usize,
) -> Option<f64> {
    let opts = cagnet::options(machine, gpus);
    let problem = Problem::from_stats(card, &opts);
    let mut t = Trainer::new(problem, cfg.clone(), opts).ok()?;
    Some(t.train_epoch().ok()?.sim_seconds)
}

/// Format an optional epoch time the way the paper's figures mark OOM.
pub fn fmt_time(t: Option<f64>) -> String {
    match t {
        Some(v) if v >= 0.1 => format!("{v:.3}"),
        Some(v) => format!("{v:.4}"),
        None => "OOM".to_string(),
    }
}

/// Print a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
}

/// Build and run one staged broadcast-SpMM (the §4.1 pipeline in
/// isolation) and return its timeline — the exact content of the paper's
/// Figs 6 and 8. `overlap` selects the §4.3 two-stream schedule.
pub fn staged_spmm_timeline(
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
/// timeline builders below declare only these effects; the §4.3 waits
/// (`spmm(s)` after `bcast(s)`, `bcast(s)` after the readers of
/// `bcast(s-2)`) are inferred from them.
fn bc_slot(g: usize, s: usize) -> BufId {
    BufId::new(g, BcSlot::for_stage(s).buf_name())
}

/// Busy compute time of one GPU in a staged-SpMM timeline.
pub fn gpu_compute_time(tl: &Timeline, gpu: usize) -> f64 {
    tl.gpu_category_time(gpu, Category::SpMM)
}

/// Build and run the **1.5D** staged SpMM (CAGNET's replication-2 variant,
/// §5.1): the GPUs split into two groups that each hold a full replica of
/// the feature matrix partitioned `P/2` ways. Each group runs its own
/// broadcast rounds concurrently (half the stages each), then the partial
/// results are reduced across the group boundary. Uses twice the feature
/// memory; communication per §5.1's arithmetic.
pub fn spmm_15d_timeline(
    stats: &TileStats,
    d: usize,
    machine: MachineSpec,
    overlap: bool,
) -> (Timeline, f64) {
    let p = stats.parts();
    assert!(p >= 4 && p.is_multiple_of(2), "1.5D needs an even GPU count ≥ 4");
    let half = p / 2;
    let cost = mggcn_gpusim::CostModel::default();
    let comm_stream = usize::from(overlap);
    let mut sched: Schedule<()> = Schedule::new(machine.clone());
    let groups: [Vec<usize>; 2] = [(0..half).collect(), (half..p).collect()];

    // Feature rows are partitioned half-ways; group g handles stages
    // g*half..(g+1)*half of the original P-way stage space, i.e. each
    // group covers half the column tiles against its full replica.
    for s_local in 0..half {
        for (gidx, group) in groups.iter().enumerate() {
            let s = gidx * half + s_local;
            // Map the P-way tile stats onto the half-way partition: the
            // half-partition part `s_local` of group gidx covers original
            // parts {s} and {s ^ half-interleaved}; approximate rows by
            // doubling the P-way part.
            let rows = stats.rows_of(s % p) + stats.rows_of((s + half) % p);
            let bytes = rows as f64 * d as f64 * 4.0;
            let root = group[s_local % half];
            let bw = machine.broadcast_bw(root, group);
            let lanes: Vec<(usize, usize)> = group.iter().map(|&g| (g, comm_stream)).collect();
            sched.record_collective(
                &lanes,
                bytes,
                bw,
                OpDesc::staged(Category::Comm, "bcast-15d", s),
                Effects::none().writes(group.iter().map(|&g| bc_slot(g, s_local))),
                None,
            );
            for &j in group {
                // Each GPU covers two of the P-way tiles per stage (the
                // replica is half-partitioned), same total nnz as 1D.
                let nnz = stats.nnz(j % half, s % p) + stats.nnz(j % half + half, s % p);
                let work = cost.spmm(
                    &machine.gpus[j],
                    rows as u64,
                    rows as u64,
                    nnz,
                    d as u64,
                    s_local > 0,
                );
                sched.record(
                    j,
                    0,
                    work,
                    OpDesc::staged(Category::SpMM, "spmm-15d", s),
                    Effects::none().reads([bc_slot(j, s_local)]).rw(BufId::new(j, "AHW")),
                    None,
                );
            }
        }
    }

    // Cross-group reduction: each GPU pair (j, j + half) combines partials.
    for j in 0..half {
        let pair = vec![j, j + half];
        let rows = stats.rows_of(j) + stats.rows_of(j + half);
        let bytes = rows as f64 * d as f64 * 4.0;
        let bw = machine.reduce_bw(j, &pair);
        let lanes: Vec<(usize, usize)> = pair.iter().map(|&g| (g, comm_stream)).collect();
        sched.record_collective(
            &lanes,
            bytes,
            bw,
            OpDesc::new(Category::Comm, "reduce-15d"),
            Effects::none().rw(BufId::new(j, "AHW")).rw(BufId::new(j + half, "AHW")),
            None,
        );
    }

    let run = sched.run(&());
    (run.timeline, run.makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_graph::datasets;
    use mggcn_graph::tilestats::VertexOrdering;

    #[test]
    fn staged_spmm_overlap_is_faster() {
        let stats = TileStats::model(&datasets::PRODUCTS, 4, VertexOrdering::Permuted);
        let m = MachineSpec::dgx_v100();
        let (_, t_ovlp) = staged_spmm_timeline(&stats, 512, m.clone(), true);
        let (_, t_serial) = staged_spmm_timeline(&stats, 512, m, false);
        assert!(t_ovlp < t_serial, "overlap {t_ovlp} should beat serial {t_serial}");
    }

    #[test]
    fn permuted_staged_spmm_is_balanced() {
        let m = MachineSpec::dgx_v100();
        let orig = TileStats::model(&datasets::PRODUCTS, 4, VertexOrdering::Original);
        let perm = TileStats::model(&datasets::PRODUCTS, 4, VertexOrdering::Permuted);
        let (_, t_orig) = staged_spmm_timeline(&orig, 512, m.clone(), false);
        let (_, t_perm) = staged_spmm_timeline(&perm, 512, m, false);
        assert!(t_perm < t_orig, "permuted {t_perm} vs original {t_orig}");
    }

    #[test]
    fn runners_return_values() {
        let cfg = GcnConfig::model_a(128, 40);
        let m = MachineSpec::dgx_a100();
        assert!(mggcn_epoch(&datasets::ARXIV, &cfg, m.clone(), 4).is_some());
        assert!(dgl_epoch(&datasets::ARXIV, &cfg, m.clone()).is_some());
        assert!(cagnet_epoch(&datasets::ARXIV, &cfg, m, 4).is_some());
    }

    #[test]
    fn fmt_time_marks_oom() {
        assert_eq!(fmt_time(None), "OOM");
        assert_eq!(fmt_time(Some(1.5)), "1.500");
        assert_eq!(fmt_time(Some(0.0123)), "0.0123");
    }
}
