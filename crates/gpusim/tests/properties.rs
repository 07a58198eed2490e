//! Property-based tests for the discrete-event engine, memory tracker, and
//! cost models: conservation laws that must hold for any schedule.

use mggcn_gpusim::engine::OpDesc;
use mggcn_gpusim::{BufId, Category, CostModel, Effects, GpuSpec, MachineSpec, Schedule, Work};
use proptest::prelude::*;

fn machine(gpus: usize) -> MachineSpec {
    let mut m = MachineSpec::uniform("prop", GpuSpec::v100(), gpus, 6, 25.0e9);
    m.comm_latency = 0.0;
    m
}

/// A random well-formed schedule description: per op (gpu, stream,
/// seconds, optional wait on an earlier op).
#[derive(Debug, Clone)]
struct OpSpec {
    gpu: usize,
    stream: usize,
    seconds: f64,
    wait_back: Option<usize>,
}

fn ops_strategy(gpus: usize) -> impl Strategy<Value = Vec<OpSpec>> {
    proptest::collection::vec(
        (0..gpus, 0..2usize, 1u32..100, proptest::option::of(1usize..8)),
        1..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(gpu, stream, ms, wait_back)| OpSpec {
                gpu,
                stream,
                seconds: ms as f64 * 1e-3,
                wait_back,
            })
            .collect()
    })
}

/// Op `idx` writes its own output slot and reads the slot of the op it
/// waits on, so the recorded schedule orders exactly that pair. Reads
/// reference only *earlier* ops, so the DAG is acyclic by construction.
fn effects(idx: usize, op: &OpSpec) -> Effects {
    let slot = |i| BufId::indexed(0, "OUT", i);
    let earlier = op.wait_back.and_then(|back| idx.checked_sub(back));
    Effects::none().reads(earlier.map(slot)).writes([slot(idx)])
}

fn build_and_run(gpus: usize, specs: &[OpSpec]) -> (f64, usize, Vec<usize>) {
    type Log = std::sync::Mutex<Vec<usize>>;
    let mut sched: Schedule<Log> = Schedule::new(machine(gpus));
    sched.launch_overhead = 0.0;
    for (idx, op) in specs.iter().enumerate() {
        sched.record(
            op.gpu,
            op.stream,
            Work::Fixed { seconds: op.seconds },
            OpDesc::new(Category::Other, "prop"),
            effects(idx, op),
            Some(Box::new(move |log: &Log| log.lock().unwrap().push(idx))),
        );
    }
    let log: Log = std::sync::Mutex::new(Vec::new());
    let report = sched.run(&log);
    let log = log.into_inner().unwrap();
    (report.makespan, report.ops_executed, log)
}

proptest! {
    #[test]
    fn every_op_executes_exactly_once(specs in ops_strategy(4)) {
        let (_, executed, log) = build_and_run(4, &specs);
        prop_assert_eq!(executed, specs.len());
        let mut sorted = log.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..specs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn makespan_bounds_hold(specs in ops_strategy(4)) {
        let (makespan, _, _) = build_and_run(4, &specs);
        // Lower bound: the busiest lane's total work.
        let mut lane_work = std::collections::BTreeMap::new();
        let total: f64 = specs.iter().map(|o| o.seconds).sum();
        for o in &specs {
            *lane_work.entry((o.gpu, o.stream)).or_insert(0.0) += o.seconds;
        }
        let busiest = lane_work.values().cloned().fold(0.0, f64::max);
        prop_assert!(makespan >= busiest - 1e-9, "makespan {makespan} < busiest lane {busiest}");
        // Upper bound: fully serial execution.
        prop_assert!(makespan <= total + 1e-9, "makespan {makespan} > total {total}");
    }

    #[test]
    fn bodies_respect_dependencies(specs in ops_strategy(3)) {
        let (_, _, log) = build_and_run(3, &specs);
        let position: std::collections::HashMap<usize, usize> =
            log.iter().enumerate().map(|(pos, &idx)| (idx, pos)).collect();
        for (idx, op) in specs.iter().enumerate() {
            if let Some(earlier) = op.wait_back.and_then(|b| idx.checked_sub(b)) {
                prop_assert!(
                    position[&earlier] < position[&idx],
                    "op {idx} ran before its dependency {earlier}"
                );
            }
        }
        // Stream FIFO order also holds per lane.
        for lane_gpu in 0..3 {
            for stream in 0..2 {
                let lane: Vec<usize> = log
                    .iter()
                    .copied()
                    .filter(|&i| specs[i].gpu == lane_gpu && specs[i].stream == stream)
                    .collect();
                prop_assert!(lane.windows(2).all(|w| w[0] < w[1]), "lane FIFO violated: {lane:?}");
            }
        }
    }

    #[test]
    fn timeline_spans_are_well_formed(specs in ops_strategy(4)) {
        let mut sched: Schedule<()> = Schedule::new(machine(4));
        sched.launch_overhead = 0.0;
        for (idx, op) in specs.iter().enumerate() {
            sched.record(
                op.gpu,
                op.stream,
                Work::Fixed { seconds: op.seconds },
                OpDesc::new(Category::Other, "prop"),
                effects(idx, op),
                None,
            );
        }
        let report = sched.run(&());
        prop_assert_eq!(report.timeline.spans.len(), specs.len());
        for span in &report.timeline.spans {
            prop_assert!(span.end >= span.start);
            prop_assert!(span.end <= report.makespan + 1e-9);
        }
        // Spans on one lane never overlap.
        for gpu in 0..4 {
            for stream in 0..2 {
                let lane = report.timeline.lane(gpu, stream);
                for w in lane.windows(2) {
                    prop_assert!(w[0].end <= w[1].start + 1e-9, "lane overlap");
                }
            }
        }
    }

    #[test]
    fn spmm_cost_is_monotone(
        nnz1 in 1u64..1_000_000,
        extra in 1u64..1_000_000,
        d in 1u64..512,
    ) {
        let model = CostModel::default();
        let g = GpuSpec::v100();
        let lo = model.solo_seconds(&g, model.spmm(&g, 1000, 1000, nnz1, d, false));
        let hi = model.solo_seconds(&g, model.spmm(&g, 1000, 1000, nnz1 + extra, d, false));
        prop_assert!(hi >= lo, "cost not monotone in nnz: {lo} vs {hi}");
    }

    #[test]
    fn gemm_cost_scales_with_flops(m in 1u64..5000, k in 1u64..500, n in 1u64..500) {
        let model = CostModel::default();
        let g = GpuSpec::a100();
        let base = model.solo_seconds(&g, model.gemm(&g, m, k, n));
        let double = model.solo_seconds(&g, model.gemm(&g, 2 * m, k, n));
        prop_assert!(double >= base);
        prop_assert!(double <= base * 2.0 + 1e-12);
    }

    #[test]
    fn broadcast_bw_never_exceeds_total_links(root in 0usize..8, sz in 2usize..8) {
        let m = MachineSpec::dgx_v100();
        let group: Vec<usize> = (0..sz).collect();
        if root < sz {
            let bw = m.broadcast_bw(root, &group);
            prop_assert!(bw <= 6.0 * 25.0e9 + 1.0);
            prop_assert!(bw > 0.0);
        }
    }
}
