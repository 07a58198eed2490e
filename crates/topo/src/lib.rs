//! Hierarchical multi-node machine studies: the §5.1 1D/1.5D crossover.
//!
//! MG-GCN ships 1D row partitioning because on the machines the paper had,
//! 1.5D (replication factor `c = 2`) either loses outright (DGX-1: the
//! cross-quad reduction sees only 2 NVLinks, 1.5D is 1.5× slower) or wins
//! by 4/3 but doubles memory (DGX-A100, §5.1). The calculus flips on
//! *multi-node* machines: a 1D full-machine broadcast crosses the node NIC
//! every stage, while 1.5D — with replication groups aligned to nodes —
//! broadcasts over NVLink and only crosses the NIC during its pairwise
//! cross-group reduction. This crate quantifies exactly that:
//!
//! * [`sim_1d_comm`] / [`sim_15d_comm`] — pure-communication DES makespans
//!   of the two wire patterns on any [`MachineSpec`], cross-checked against
//!   the closed form of [`mggcn_comm::analysis::analyze`];
//! * [`nic_sweep`] / [`crossover_nic_gbps`] — sweep the inter-node NIC on a
//!   split-quad DGX-1 ([`MachineSpec::v100_quad_cluster`]) and pin the
//!   bandwidth where 1.5D starts winning (analytically 100 GB/s: the point
//!   where the NIC caps 1D's 6-link fan-out down to 1.5D's aggregate rate);
//! * [`e2e_sweep`] — full scheduled-trainer epochs at papers100M scale
//!   (P = 8, [`MachineSpec::a100_quad_cluster`]) for both partitionings,
//!   showing the end-to-end crossover, not just the comm term;
//! * [`traffic_split`] — traced intra- vs inter-node byte counters on a
//!   2-node machine, proving 1.5D relocates exactly the broadcast volume
//!   from the NIC onto NVLink (inter-node bytes are *equal* between the
//!   strategies; 1.5D's broadcasts become intra-node);
//! * [`preflight_sweep`] — every generated 1D and 1.5D schedule passes the
//!   `mggcn-analyze` hazard/deadlock/budget verifier;
//! * [`staleness_sweep`] — bounded-staleness pipelining (DESIGN §15) on a
//!   NIC-bound 2-node machine: how much epoch time prefetching `k`-epoch-old
//!   tiles hides.
//!
//! The studies are measurements, not presentations: `mggcn_bench::paper`
//! prints them as its `ext_15d_*` tables, and `mggcn-testkit`'s `paper`
//! suite holds each table to a golden and asserts its verdicts. The
//! preflight count is a verification result, asserted by a unit test below.

#![forbid(unsafe_code)]

use std::sync::Arc;

use mggcn_analyze::{analyze_budget, BudgetSpec};
use mggcn_comm::analysis;
use mggcn_core::config::{GcnConfig, Partition, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_gpusim::engine::OpDesc;
use mggcn_gpusim::{Category, GpuSpec, MachineSpec, Schedule};
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_trace::Tracer;

/// The two replication groups: the machine's halves, which on node-major
/// hierarchical machines with `nodes | 2` align with node boundaries.
pub fn replication_groups(p: usize) -> [Vec<usize>; 2] {
    assert!(p >= 2 && p.is_multiple_of(2), "1.5D needs an even GPU count");
    [(0..p / 2).collect(), (p / 2..p).collect()]
}

/// DES makespan of the 1D pattern: `P` serialized full-machine broadcasts
/// of `nd/P` bytes each (every broadcast occupies all comm lanes, so the
/// lane FIFO serializes them — exactly the closed form's model).
pub fn sim_1d_comm(machine: &MachineSpec, nd_bytes: f64) -> f64 {
    let mut m = machine.clone();
    m.comm_latency = 0.0; // compare pure bandwidth terms exactly
    let p = m.gpu_count();
    let all: Vec<usize> = (0..p).collect();
    let lanes: Vec<(usize, usize)> = all.iter().map(|&g| (g, 1)).collect();
    let mut s: Schedule<()> = Schedule::new(m.clone());
    s.launch_overhead = 0.0;
    for root in 0..p {
        let bw = m.broadcast_bw(root, &all);
        s.collective(
            &lanes,
            nd_bytes / p as f64,
            bw,
            OpDesc::staged(Category::Comm, "bcast", root),
            &[],
            None,
        );
    }
    s.simulate().report.makespan
}

/// DES makespan of the 1.5D pattern (`c = 2`): the two groups broadcast
/// their half of the matrix concurrently (`P/2` rounds of `nd/P` bytes,
/// serialized per group by the lane FIFO), then the `P/2` cross-group
/// pairs reduce `nd/(P/2)` bytes each, all pairs concurrent.
pub fn sim_15d_comm(machine: &MachineSpec, nd_bytes: f64) -> f64 {
    let mut m = machine.clone();
    m.comm_latency = 0.0;
    let p = m.gpu_count();
    assert!(p >= 4 && p.is_multiple_of(2), "1.5D comm sim needs an even GPU count ≥ 4");
    let half = p / 2;
    let [g0, g1] = replication_groups(p);
    let lanes0: Vec<(usize, usize)> = g0.iter().map(|&g| (g, 1)).collect();
    let lanes1: Vec<(usize, usize)> = g1.iter().map(|&g| (g, 1)).collect();
    let mut s: Schedule<()> = Schedule::new(m.clone());
    s.launch_overhead = 0.0;
    for r in 0..half {
        s.collective(
            &lanes0,
            nd_bytes / p as f64,
            m.broadcast_bw(r, &g0),
            OpDesc::staged(Category::Comm, "bcast", r),
            &[],
            None,
        );
        s.collective(
            &lanes1,
            nd_bytes / p as f64,
            m.broadcast_bw(half + r, &g1),
            OpDesc::staged(Category::Comm, "bcast", half + r),
            &[],
            None,
        );
    }
    for a in 0..half {
        let pair = [a, a + half];
        s.collective(
            &[(a, 1), (a + half, 1)],
            nd_bytes / half as f64,
            m.reduce_bw(a, &pair),
            OpDesc::new(Category::Comm, "reduce"),
            &[],
            None,
        );
    }
    s.simulate().report.makespan
}

/// One machine's §5.1 verdict: the closed-form and DES `t_15d / t_1d`
/// ratios (above 1.0 means 1D wins) and the 1.5D memory factor.
#[derive(Clone, Debug)]
pub struct PaperVerdict {
    pub machine: String,
    pub slowdown_closed: f64,
    pub slowdown_sim: f64,
    pub mem_factor_15d: f64,
}

fn verdict_for(machine: &MachineSpec, nd_bytes: f64) -> PaperVerdict {
    let closed = analysis::analyze(machine, nd_bytes);
    let sim = sim_15d_comm(machine, nd_bytes) / sim_1d_comm(machine, nd_bytes);
    PaperVerdict {
        machine: machine.name.clone(),
        slowdown_closed: closed.slowdown_15d(),
        slowdown_sim: sim,
        mem_factor_15d: closed.mem_factor_15d,
    }
}

/// The paper's two §5.1 data points: DGX-1 (1.5D loses 1.5×) and DGX-A100
/// (1.5D wins 4/3×), each from the closed form *and* the DES.
pub fn paper_51_verdicts(nd_bytes: f64) -> (PaperVerdict, PaperVerdict) {
    (
        verdict_for(&MachineSpec::dgx_v100(), nd_bytes),
        verdict_for(&MachineSpec::dgx_a100(), nd_bytes),
    )
}

/// One NIC setting of the split-quad sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    pub nic_gbps: f64,
    pub slowdown_closed: f64,
    pub slowdown_sim: f64,
}

/// Sweep the inter-node NIC of [`MachineSpec::v100_quad_cluster`]: with an
/// infinite NIC the machine is bandwidth-identical to DGX-1 (1.5D loses);
/// as the NIC shrinks, 1D's every-stage node crossings pay for it while
/// 1.5D only crosses during the reduction.
pub fn nic_sweep(nics_gbps: &[f64], nd_bytes: f64) -> Vec<SweepPoint> {
    nics_gbps
        .iter()
        .map(|&nic| {
            let m = MachineSpec::v100_quad_cluster(nic * 1e9);
            let v = verdict_for(&m, nd_bytes);
            SweepPoint {
                nic_gbps: nic,
                slowdown_closed: v.slowdown_closed,
                slowdown_sim: v.slowdown_sim,
            }
        })
        .collect()
}

/// Linearly interpolated NIC bandwidth where the simulated slowdown
/// crosses 1.0 — the 1D/1.5D break-even point (analytically 100 GB/s on
/// the split-quad machine). `None` when the sweep never crosses.
pub fn crossover_nic_gbps(sweep: &[SweepPoint]) -> Option<f64> {
    for w in sweep.windows(2) {
        let (a, b) = (w[0], w[1]);
        let (sa, sb) = (a.slowdown_sim, b.slowdown_sim);
        if (sa - 1.0) * (sb - 1.0) <= 0.0 && sa != sb {
            return Some(a.nic_gbps + (1.0 - sa) * (b.nic_gbps - a.nic_gbps) / (sb - sa));
        }
    }
    None
}

/// One NIC setting of the end-to-end trainer sweep.
#[derive(Clone, Copy, Debug)]
pub struct E2ePoint {
    pub nic_gbps: f64,
    /// Simulated seconds of one full 1D training epoch.
    pub t_1d: f64,
    /// Simulated seconds of one full 1.5D training epoch.
    pub t_15d: f64,
}

impl E2ePoint {
    /// Above 1.0 means 1D wins end to end.
    pub fn slowdown_15d(&self) -> f64 {
        self.t_15d / self.t_1d
    }
}

fn e2e_epoch_seconds(nic_gbps: f64, partition: Partition) -> f64 {
    let card = mggcn_graph::datasets::PAPERS;
    // Papers with a 2-layer hidden-128 model: the widest configuration
    // that fits 8×80 GB under the 1.5D `L + 4` budget (model D's hidden
    // 208 does not — §5.1's 2× memory objection is real at this scale).
    let cfg = GcnConfig::new(card.feat_dim, &[128], card.classes);
    let mut opts = TrainOptions::full(MachineSpec::a100_quad_cluster(nic_gbps * 1e9), 8);
    opts.partition = partition;
    let problem = Problem::from_stats(&card, &opts);
    let mut t = Trainer::new(problem, cfg, opts).expect("papers100M must fit 8×80 GB");
    t.train_epoch().expect("timing epoch").sim_seconds
}

/// Full scheduled-trainer epochs at papers100M scale (P = 8 across two
/// A100 quads) for both partitionings at each NIC setting. Compute costs
/// are identical between the strategies (each GPU does one own-row plus
/// one mate-row half-sweep under 1.5D — the same tile count as a 1D full
/// sweep), so the end-to-end crossover tracks the comm crossover.
pub fn e2e_sweep(nics_gbps: &[f64]) -> Vec<E2ePoint> {
    nics_gbps
        .iter()
        .map(|&nic| E2ePoint {
            nic_gbps: nic,
            t_1d: e2e_epoch_seconds(nic, Partition::OneD),
            t_15d: e2e_epoch_seconds(nic, Partition::OneFiveD),
        })
        .collect()
}

/// Traced byte totals of one training run, split by node locality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficSplit {
    pub intra_node: u64,
    pub inter_node: u64,
    pub total: u64,
}

/// Run a real (materialized) training epoch on a 2-node × 2-GPU machine
/// and read the tracer's machine-aware byte counters. Under 1D every
/// collective spans both nodes (intra-node bytes are zero); under 1.5D
/// the group broadcasts are node-local and only the pairwise reductions
/// (plus the weight-gradient all-reduces both strategies share) cross
/// the NIC — with *exactly* the 1D inter-node byte total.
pub fn traffic_split(partition: Partition, epochs: usize) -> TrafficSplit {
    let graph = sbm::generate(&SbmConfig::community_benchmark(400, 4), 11);
    let cfg = GcnConfig::new(graph.features.cols(), &[16], graph.classes);
    let machine = MachineSpec::hier_cluster("A100-2x2", GpuSpec::a100(), 2, 2, 12, 25.0e9, 50.0e9);
    let mut opts = TrainOptions::full(machine, 4);
    opts.partition = partition;
    let problem = Problem::from_graph(&graph, &cfg, &opts);
    let mut trainer = Trainer::new(problem, cfg, opts).expect("tiny graph fits");
    let tracer = Arc::new(Tracer::new());
    trainer.set_tracer(tracer.clone());
    for _ in 0..epochs {
        trainer.train_epoch().expect("train");
    }
    TrafficSplit {
        intra_node: tracer.counter("sim.comm.bytes.intra_node"),
        inter_node: tracer.counter("sim.comm.bytes.inter_node"),
        total: tracer.counter("sim.comm.bytes.total"),
    }
}

/// How many generated schedules the `mggcn-analyze` verifier saw and how
/// many came back clean (no hazards, no deadlock, within the partition's
/// buffer budget).
#[derive(Clone, Copy, Debug)]
pub struct PreflightSummary {
    pub schedules: usize,
    pub clean: usize,
}

/// Build trainer schedules across `{1D, 1.5D} × {2, 4, 8 GPUs} ×
/// {overlap on/off} × {NVSwitch, 2-node hierarchical}` and verify each
/// with [`analyze_budget`] under the partition's own budget
/// ([`BudgetSpec::mg_gcn`] is `L + 3` big buffers; `mg_gcn_15d` allows
/// the 1.5D `RP` replica, `L + 4`).
pub fn preflight_sweep() -> PreflightSummary {
    let graph = sbm::generate(&SbmConfig::community_benchmark(160, 4), 7);
    let cfg = GcnConfig::new(graph.features.cols(), &[24], graph.classes);
    let machines = [
        MachineSpec::dgx_a100(),
        MachineSpec::hier_cluster("A100-2x4", GpuSpec::a100(), 2, 4, 12, 25.0e9, 50.0e9),
    ];
    let mut schedules = 0;
    let mut clean = 0;
    for partition in [Partition::OneD, Partition::OneFiveD] {
        for gpus in [2usize, 4, 8] {
            for overlap in [false, true] {
                for machine in &machines {
                    let mut opts = TrainOptions::full(machine.clone(), gpus);
                    opts.partition = partition;
                    opts.overlap = overlap;
                    let problem = Problem::from_graph(&graph, &cfg, &opts);
                    let trainer = Trainer::new(problem, cfg.clone(), opts).expect("fits");
                    let budget = match partition {
                        Partition::OneD => BudgetSpec::mg_gcn(cfg.layers()),
                        Partition::OneFiveD => BudgetSpec::mg_gcn_15d(cfg.layers()),
                    };
                    let report = analyze_budget(&trainer.epoch_schedule(), &budget);
                    schedules += 1;
                    if report.clean() {
                        clean += 1;
                    }
                }
            }
        }
    }
    PreflightSummary { schedules, clean }
}

/// One setting of the bounded-staleness sweep.
#[derive(Clone, Copy, Debug)]
pub struct StalePoint {
    pub staleness: usize,
    /// Mean simulated milliseconds per epoch of the fused run.
    pub epoch_ms: f64,
    /// The fresh (`k = 0`) epoch time over this one.
    pub speedup_vs_fresh: f64,
}

/// NIC of the staleness machine, GB/s: slow enough that cross-node
/// broadcasts dominate what prefetch can hide, fast enough that the NIC is
/// not saturated (a saturated NIC bounds the epoch by total bytes and no
/// amount of pipelining helps).
pub const STALE_NIC_GBPS: f64 = 1.0;
/// Epochs of each fused staleness run.
pub const STALE_EPOCHS: usize = 5;

/// Fused [`STALE_EPOCHS`]-epoch training runs at staleness `k ∈ {0, 1, 2}`
/// on a 2-node × 2-GPU machine behind a [`STALE_NIC_GBPS`] NIC, where epoch
/// `e + 1`'s prefetch broadcasts can hide under epoch `e`'s backward pass.
/// `k = 0` is the fresh pipeline every speedup is measured against.
pub fn staleness_sweep() -> Vec<StalePoint> {
    let graph = sbm::generate(&SbmConfig::community_benchmark(800, 5), 42);
    let cfg = GcnConfig::new(graph.features.cols(), &[32], graph.classes);
    let machine = MachineSpec::hier_cluster(
        "A100-2x2",
        GpuSpec::a100(),
        2,
        2,
        12,
        25.0e9,
        STALE_NIC_GBPS * 1e9,
    );
    let mut fresh_ms = None;
    [0usize, 1, 2]
        .into_iter()
        .map(|staleness| {
            let mut opts = TrainOptions::full(machine.clone(), 4);
            opts.skip_first_backward_spmm = false;
            opts.permute = false;
            opts.staleness = staleness;
            let problem = Problem::from_graph(&graph, &cfg, &opts);
            let mut trainer = Trainer::new(problem, cfg.clone(), opts).expect("tiny graph fits");
            let reports = trainer.train(STALE_EPOCHS).expect("simulated backend cannot fail");
            let total_s: f64 = reports.iter().map(|r| r.sim_seconds).sum();
            let epoch_ms = total_s / STALE_EPOCHS as f64 * 1e3;
            let fresh = *fresh_ms.get_or_insert(epoch_ms);
            StalePoint { staleness, epoch_ms, speedup_vs_fresh: fresh / epoch_ms }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_groups_are_the_machine_halves() {
        let [g0, g1] = replication_groups(8);
        assert_eq!(g0, vec![0, 1, 2, 3]);
        assert_eq!(g1, vec![4, 5, 6, 7]);
    }

    /// The DES makespan of each wire pattern equals its §5.1 closed form.
    fn assert_closed_forms_match(m: &MachineSpec, nd: f64) {
        let a = analysis::analyze(m, nd);
        let (t1, t15) = (sim_1d_comm(m, nd), sim_15d_comm(m, nd));
        assert!((t1 - a.t_1d).abs() / a.t_1d < 1e-9, "{}: 1D {t1} vs {}", m.name, a.t_1d);
        assert!((t15 - a.t_15d).abs() / a.t_15d < 1e-9, "{}: 1.5D {t15} vs {}", m.name, a.t_15d);
    }

    #[test]
    fn closed_forms_match_simulation_on_single_node_machines() {
        for m in [MachineSpec::dgx_v100(), MachineSpec::dgx_a100()] {
            assert_closed_forms_match(&m, 4.0e8);
        }
    }

    #[test]
    fn closed_forms_match_simulation_across_the_nic_sweep() {
        // The NICs `comm::analysis`'s crossover test sweeps, either side of
        // and at the 100 GB/s tie.
        for nic_gbps in [10.0, 25.0, 50.0, 75.0, 90.0, 100.0, 110.0, 125.0, 150.0, 200.0] {
            assert_closed_forms_match(&MachineSpec::v100_quad_cluster(nic_gbps * 1.0e9), 1.0e9);
        }
    }

    #[test]
    fn preflight_is_clean_for_every_generated_schedule() {
        let p = preflight_sweep();
        assert!(p.schedules >= 24, "sweep must cover the shape grid: {p:?}");
        assert_eq!(p.clean, p.schedules, "analyze found findings: {p:?}");
    }
}
