//! Tier-1 guard for the schedule builders: the same 41-schedule sweep
//! `mggcn analyze` gates on (P × partition × op-order × overlap, the fused
//! bounded-staleness pipelines at k ∈ {1, 2}, one serving batch) must
//! verify clean within its §4.2 budget — `L + 3`, `+RP` under 1.5D, `+SF`
//! under staleness. The recorders state effects only, so a lost or wrong
//! declaration shows up here as a hazard, an over-budget coloring, or
//! waits that inference would not reproduce.

use mg_gcn::analyze::{analyze, analyze_budget};
use mg_gcn::gpusim::infer_waits;
use mg_gcn::prelude::*;
use mg_gcn::sweep::{serve_case, trainer_cases, SWEEP_GPUS};

#[test]
fn every_sweep_schedule_verifies_clean_within_budget() {
    // The CLI's defaults: `mggcn analyze` with no flags.
    let graph = sbm::generate(&SbmConfig::community_benchmark(600, 5), 42);
    let cfg = GcnConfig::new(graph.features.cols(), &[16], graph.classes);
    let cases = trainer_cases(&graph, &cfg, &SWEEP_GPUS).expect("toy problems fit");
    assert_eq!(cases.len(), 40, "28 classic + 12 fused trainer schedules");

    for case in &cases {
        let label = case.label.trim_end();
        let sched = case.schedule();
        let layers = case.trainer.config().layers();
        let opts = case.trainer.options();
        // One SF snapshot per layer whose broadcast source can go stale:
        // the features are wider than the hidden layer, so no layer runs
        // spmm-first on the constant X and every layer snapshots.
        let sf = if opts.staleness > 0 { layers } else { 0 };
        let expected_budget = layers + 3 + usize::from(opts.partition == Partition::OneFiveD) + sf;
        assert_eq!(case.budget.budget, expected_budget, "{label}: budget");

        let report = analyze_budget(&sched, &case.budget);
        assert!(report.clean(), "{label}:\n{}", report.render());
        let needed = report.liveness.as_ref().expect("liveness ran").buffers_needed;
        assert!(needed <= expected_budget, "{label}: needs {needed} of {expected_budget}");

        let infos = sched.op_infos();
        let recorded: Vec<Vec<usize>> = infos.iter().map(|o| o.waits.to_vec()).collect();
        assert_eq!(infer_waits(&infos), recorded, "{label}: a recorder passed its own wait");
    }

    let (label, sched) = serve_case(&graph, 16).expect("serving model builds");
    let report = analyze(&sched);
    assert!(report.clean(), "{label}:\n{}", report.render());
    assert!(sched.wait_edges().is_empty(), "{label}: one lane needs no waits");
}
