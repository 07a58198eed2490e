//! Tier-1 guard for the schedule builders, through the same driver
//! `mggcn analyze` prints (`mg_gcn::sweep`): the 41-schedule sweep (P ×
//! partition × op-order × overlap, the fused bounded-staleness pipelines at
//! k ∈ {1, 2}, one serving batch) and Reddit model A at P = 4 must verify
//! clean within their §4.2 budgets — `L + 3`, `+RP` under 1.5D, `+SF`
//! under staleness. The recorders state effects only, so a lost or wrong
//! declaration shows up here as a hazard, an over-budget coloring, or
//! waits that inference would not reproduce.

use mg_gcn::gpusim::infer_waits;
use mg_gcn::prelude::*;
use mg_gcn::sweep::{analyze_dataset, analyze_sweep, trainer_cases, Passes, SWEEP_GPUS};
use mg_gcn::trace::json::{self, Value};

/// The CLI's defaults: `mggcn analyze` with no flags.
fn default_graph() -> (Graph, GcnConfig) {
    let graph = sbm::generate(&SbmConfig::community_benchmark(600, 5), 42);
    let cfg = GcnConfig::new(graph.features.cols(), &[16], graph.classes);
    (graph, cfg)
}

#[test]
fn every_sweep_schedule_verifies_clean_within_budget() {
    let (graph, cfg) = default_graph();
    let cases = trainer_cases(&graph, &cfg, &SWEEP_GPUS).expect("toy problems fit");
    assert_eq!(cases.len(), 40, "28 classic + 12 fused trainer schedules");
    let sweep = analyze_sweep(&cases, &graph, 16, Passes::default()).expect("serving model builds");
    assert_eq!(sweep.total(), 41, "plus the serving batch");
    assert_eq!(sweep.dirty(), 0);

    for (case, row) in cases.iter().zip(&sweep.rows) {
        let label = case.label.trim_end();
        let layers = case.trainer.config().layers();
        let opts = case.trainer.options();
        // One SF snapshot per layer whose broadcast source can go stale:
        // the features are wider than the hidden layer, so no layer runs
        // spmm-first on the constant X and every layer snapshots.
        let sf = if opts.staleness > 0 { layers } else { 0 };
        let expected_budget = layers + 3 + usize::from(opts.partition == Partition::OneFiveD) + sf;
        assert_eq!(row.report.budget, Some(expected_budget), "{label}: budget");

        assert!(row.clean(), "{label}:\n{}", row.report.render());
        let needed = row.report.liveness.as_ref().expect("liveness ran").buffers_needed;
        assert!(needed <= expected_budget, "{label}: needs {needed} of {expected_budget}");

        let sched = case.schedule();
        let infos = sched.op_infos();
        let recorded: Vec<Vec<usize>> = infos.iter().map(|o| o.waits.to_vec()).collect();
        assert_eq!(infer_waits(&infos), recorded, "{label}: a recorder passed its own wait");
    }

    let serve = sweep.rows.last().expect("the serving row");
    assert!(serve.clean(), "{}:\n{}", serve.label, serve.report.render());
    // One lane: FIFO adjacency is the only ordering, no op waits on another.
    assert_eq!(serve.report.edges + 1, serve.report.ops, "{}", serve.label);
}

/// Paper scale: Reddit model A on four A100s colors within exactly the
/// planned budget under both partitionings.
#[test]
fn reddit_model_a_at_p4_needs_exactly_its_budget() {
    let card = datasets::by_name("reddit").expect("Table 1 card");
    let cfg = GcnConfig::model_a(card.feat_dim, card.classes);
    for (partition, buffers) in [(Partition::OneD, 5), (Partition::OneFiveD, 6)] {
        let row = analyze_dataset(&card, &cfg, MachineSpec::dgx_a100(), 4, partition, false)
            .expect("Reddit fits four A100s");
        assert!(row.clean(), "{}:\n{}", row.label, row.report.render());
        assert_eq!(row.report.budget, Some(buffers), "{}", row.label);
        let needed = row.report.liveness.as_ref().expect("liveness ran").buffers_needed;
        assert_eq!(needed, buffers, "{}: L + 3 (+RP) is tight", row.label);
    }
}

/// `analyze --gpus {1,2} --audit-effects --model-check --json`: every
/// schedule effect-sound, every small schedule a single Mazurkiewicz
/// trace, and the `mggcn-analyze-v1` report byte-stable across two runs.
#[test]
fn audited_and_model_checked_report_is_clean_and_byte_stable() {
    let (graph, cfg) = default_graph();
    let passes = Passes { audit: true, model_check: true, dump: false };
    let run = || {
        let cases = trainer_cases(&graph, &cfg, &[1, 2]).expect("toy problems fit");
        analyze_sweep(&cases, &graph, 16, passes).expect("serving model builds")
    };
    let sweep = run();
    assert_eq!(sweep.dirty(), 0);
    let (serve, trainers) = sweep.rows.split_last().expect("the serving row");
    assert!(serve.audit.is_none(), "serving bodies run under their own context");
    for row in trainers {
        assert!(row.audit.as_ref().is_some_and(|a| a.clean()), "{}: not effect-sound", row.label);
    }
    assert_eq!(sweep.checks.len(), 3, "P ∈ {{1, 2, 3}}");
    for m in &sweep.checks {
        assert!(m.clean(), "{}: divergent or truncated", m.label);
        assert_eq!(m.exhaustive.executions, 1, "{}: one trace", m.label);
    }

    let text = sweep.to_json();
    assert_eq!(text, run().to_json(), "the report must not depend on the run");
    let doc = json::parse(&text).expect("the report is JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("mggcn-analyze-v1"));
    assert_eq!(doc.get("dirty").and_then(Value::as_num), Some(0.0));
    let reports = doc.get("reports").and_then(Value::as_arr).expect("reports array");
    assert_eq!(doc.get("schedules").and_then(Value::as_num), Some(reports.len() as f64));
    assert_eq!(doc.get("model_check").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
}
