//! Property test for the dependency rule itself (`mggcn_gpusim::deps`).
//!
//! Random op streams over at most 6 lanes and 5 buffers, with random
//! read/write sets and random multi-lane collectives, recorded through the
//! inferring calls only. The independent auditor must agree that the rule
//! is sound (the schedule analyzes clean and cannot deadlock), and that it
//! is minimal and deterministic (replaying it over the recorded ops
//! reproduces the same `waits`, and every single inferred edge is
//! load-bearing: deleting it produces a hazard finding).

use mggcn_analyze::{analyze, Finding};
use mggcn_gpusim::engine::OpDesc;
use mggcn_gpusim::sched::Injector;
use mggcn_gpusim::{infer_waits, BufId, Category, Effects, GpuSpec, MachineSpec, Schedule, Work};
use proptest::prelude::*;

const GPUS: usize = 3;
const STREAMS: usize = 2;
const BUFS: usize = 5;

/// One op: which of the 6 lanes it occupies (one bit set is a kernel,
/// several a collective) and which of the 5 buffers it reads and writes.
type OpSpec = (usize, usize, usize);

fn bits(mask: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).filter(move |i| mask & (1 << i) != 0)
}

fn build(ops: &[OpSpec]) -> Schedule<()> {
    let mut s = Schedule::new(MachineSpec::uniform("prop", GpuSpec::v100(), GPUS, 6, 25.0e9));
    // "T" is outside the analyzer's scratch families, so a read with no
    // earlier writer is persistent state, not an uninitialized read.
    let buf = |i: usize| BufId::indexed(i % GPUS, "T", i);
    for &(lane_mask, reads, writes) in ops {
        let lanes: Vec<(usize, usize)> =
            bits(lane_mask, GPUS * STREAMS).map(|l| (l / STREAMS, l % STREAMS)).collect();
        let fx =
            Effects::none().reads(bits(reads, BUFS).map(buf)).writes(bits(writes, BUFS).map(buf));
        let desc = OpDesc::new(Category::Other, "op");
        match lanes[..] {
            [(gpu, stream)] => s.record(gpu, stream, Work::Fixed { seconds: 1e-6 }, desc, fx, None),
            _ => s.record_collective(&lanes, 1.0e3, 25.0e9, desc, fx, None),
        };
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn inferred_schedules_are_clean_live_reproducible_and_minimal(
        ops in proptest::collection::vec(
            (1usize..1 << (GPUS * STREAMS), 0usize..1 << BUFS, 0usize..1 << BUFS),
            1..40,
        )
    ) {
        let sched = build(&ops);
        let report = analyze(&sched);
        prop_assert!(report.clean(), "inferred schedule has findings:\n{}", report.render());
        prop_assert!(
            sched.simulate_with(&Injector::none()).is_ok(),
            "inferred schedule deadlocks"
        );

        let infos = sched.op_infos();
        let recorded: Vec<Vec<usize>> = infos.iter().map(|o| o.waits.to_vec()).collect();
        prop_assert_eq!(infer_waits(&infos), recorded, "re-running inference changed the waits");

        for (op, wait) in sched.wait_edges() {
            let mut mutant = build(&ops);
            mutant.remove_wait(op, wait);
            let report = analyze(&mutant);
            prop_assert!(
                report.findings.iter().any(|f| matches!(f, Finding::Hazard { .. })),
                "deleting inferred edge {wait}->{op} went unnoticed:\n{}",
                mutant.dump_ops()
            );
        }
    }
}
