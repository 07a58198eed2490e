//! Golden-snapshot tests: gpusim schedule structure and the §4.2 memory
//! plan.
//!
//! The schedule dumps pin op order, lane placement and dependency edges —
//! the invariants behind §4.2 (buffer reuse is only safe under this
//! ordering) and §4.3 (double-buffer broadcast waits) — without recording
//! work magnitudes, so cost-model tuning never invalidates them.
//!
//! Regenerate after an intentional schedule change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p mggcn-testkit --test golden
//! ```

use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::memplan::{BufferPolicy, MemoryPlan};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_graph::Graph;
use mggcn_testkit::check_golden;

fn graph() -> Graph {
    sbm::generate(&SbmConfig::community_benchmark(60, 3), 5)
}

fn dump(g: &Graph, cfg: &GcnConfig, opts: TrainOptions) -> String {
    let problem = Problem::from_graph(g, cfg, &opts);
    let trainer = Trainer::new(problem, cfg.clone(), opts).expect("fits");
    trainer.epoch_schedule().dump_ops()
}

#[test]
fn schedule_single_gpu() {
    let g = graph();
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(1);
    opts.permute = false;
    check_golden("schedule_p1.txt", &dump(&g, &cfg, opts));
}

#[test]
fn schedule_three_gpus_overlapped() {
    // The paper's configuration: staged broadcasts on stream 1, SpMMs
    // waiting on their stage's broadcast, broadcasts waiting on the
    // double-buffer's previous reader (§4.3).
    let g = graph();
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(3);
    opts.permute = false;
    check_golden("schedule_p3_overlap.txt", &dump(&g, &cfg, opts));
}

#[test]
fn schedule_three_gpus_serialized() {
    let g = graph();
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(3);
    opts.permute = false;
    opts.overlap = false;
    check_golden("schedule_p3_serial.txt", &dump(&g, &cfg, opts));
}

#[test]
fn schedule_op_order_swap_on_widening_layer() {
    // d(0)=32 < d(1)=64 triggers §4.4 SpMM-before-GeMM in layer 0.
    let g = graph();
    let cfg = GcnConfig::new(g.features.cols(), &[64], g.classes);
    let mut opts = TrainOptions::quick(2);
    opts.permute = false;
    check_golden("schedule_p2_spmm_first.txt", &dump(&g, &cfg, opts));
}

#[test]
fn schedule_skip_first_backward_spmm() {
    let g = graph();
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(2);
    opts.permute = false;
    opts.skip_first_backward_spmm = true;
    check_golden("schedule_p2_skip_bwd.txt", &dump(&g, &cfg, opts));
}

#[test]
fn memplan_big_buffers_are_exactly_l_plus_3() {
    // §4.2: the working set is L AHW buffers + HW + BC1 + BC2, each sized
    // n_p × d_max — never more, regardless of depth or GPU count.
    let g = graph();
    for hidden in [&[8][..], &[8, 8], &[8, 8, 8, 8]] {
        let cfg = GcnConfig::new(g.features.cols(), hidden, g.classes);
        for gpus in [1usize, 2, 4] {
            let mut opts = TrainOptions::quick(gpus);
            opts.permute = false;
            let problem = Problem::from_graph(&g, &cfg, &opts);
            let trainer = Trainer::new(problem, cfg.clone(), opts).expect("fits");
            let plan = trainer.plan();
            let n_p = (g.n() as u64).div_ceil(gpus as u64);
            let buffer_bytes = n_p * cfg.max_dim() as u64 * 4;
            assert_eq!(
                plan.big_buffers % buffer_bytes,
                0,
                "big-buffer bytes must be whole buffers"
            );
            assert_eq!(
                plan.big_buffers / buffer_bytes,
                cfg.layers() as u64 + 3,
                "L={} P={gpus}: expected exactly L+3 big buffers",
                cfg.layers()
            );
        }
    }
}

#[test]
fn memplan_paper_scale_golden() {
    // Fixed-integer plan for Reddit / model A on 4 GPUs — any change to
    // the §4.2 accounting shows up as a diff here.
    let n = 232_965u64;
    let m = 114_615_892u64;
    let cfg = GcnConfig::model_a(602, 41);
    let mut out = String::new();
    for policy in [BufferPolicy::MgGcn, BufferPolicy::PerLayer6, BufferPolicy::CagnetFullGather] {
        let plan = MemoryPlan::new(n, m, &cfg, 4, policy);
        out.push_str(&format!(
            "{policy:?}: adjacency={} features={} big_buffers={} weights={} labels={} total={}\n",
            plan.adjacency,
            plan.features,
            plan.big_buffers,
            plan.weights,
            plan.labels,
            plan.total()
        ));
    }
    check_golden("memplan_reddit_model_a_p4.txt", &out);
}
