//! The schedule sweep `mggcn analyze` prints and tier-1 asserts
//! (`tests/schedule_sweep.rs`): every trainer schedule shape — P ×
//! partition × overlap × op-order, plus the fused bounded-staleness
//! pipelines — one serving batch schedule, optionally the effect audit and
//! the DPOR model check, and the `mggcn-analyze-v1` rendering of it all.
//! One enumeration and one driver, so the CLI and the test cannot drift
//! apart.

use crate::analyze::{
    analyze, analyze_budget, audit_effects, model_check, BudgetSpec, DporOptions, DporResult,
    EffectAudit, Report,
};
use crate::core::state::DeviceState;
use crate::core::trainer::sf_buffer_count;
use crate::gpusim::{GpuSpec, OomError, Schedule};
use crate::graph::DatasetCard;
use crate::prelude::*;
use crate::serve::BatchCtx;
use crate::trace::json::{escape, JsonWriter};
use std::sync::Mutex;

/// The GPU counts the full sweep covers.
pub const SWEEP_GPUS: [usize; 4] = [1, 2, 4, 8];

/// Epochs fused into each bounded-staleness case.
const FUSED_EPOCHS: usize = 3;

/// One trainer schedule shape of the sweep.
pub struct TrainerCase {
    pub label: String,
    pub trainer: Trainer,
    /// The liveness budget the schedule must color within: §4.2 `L + 3`,
    /// `+RP` under 1.5D, `+SF` under staleness.
    pub budget: BudgetSpec,
}

impl TrainerCase {
    /// Record the case's schedule: one classic epoch, or the fused
    /// three-epoch pipeline of a bounded-staleness case.
    pub fn schedule(&self) -> Schedule<DeviceState> {
        if self.trainer.options().staleness > 0 {
            self.trainer.pipelined_schedule(FUSED_EPOCHS)
        } else {
            self.trainer.epoch_schedule()
        }
    }
}

/// The classic liveness budget of a partitioning: §4.2 `L + 3`, `+RP`
/// under 1.5D.
fn budget_of(partition: Partition, cfg: &GcnConfig) -> BudgetSpec {
    match partition {
        Partition::OneD => BudgetSpec::mg_gcn(cfg.layers()),
        Partition::OneFiveD => BudgetSpec::mg_gcn_15d(cfg.layers()),
    }
}

/// Every trainer case over `gpu_list`: the classic schedules first, then
/// the fused pipelines (`P >= 2`: a single GPU has no remote tile to read
/// stale) at `k ∈ {1, 2}`. 1.5D needs an even GPU count.
pub fn trainer_cases(
    graph: &Graph,
    cfg: &GcnConfig,
    gpu_list: &[usize],
) -> Result<Vec<TrainerCase>, OomError> {
    let mut cases = Vec::new();
    let mut push = |label: String, opts: TrainOptions| -> Result<(), OomError> {
        let budget = budget_of(opts.partition, cfg).with_staleness(sf_buffer_count(cfg, &opts));
        let problem = Problem::from_graph(graph, cfg, &opts);
        let trainer = Trainer::new(problem, cfg.clone(), opts)?;
        cases.push(TrainerCase { label, trainer, budget });
        Ok(())
    };
    let partitions = |gpus: usize| {
        [Partition::OneD, Partition::OneFiveD]
            .into_iter()
            .filter(move |&p| p == Partition::OneD || gpus.is_multiple_of(2))
    };
    let on_off = |b: bool| if b { "on " } else { "off" };
    for &gpus in gpu_list {
        for partition in partitions(gpus) {
            for overlap in [false, true] {
                for op_order in [false, true] {
                    let mut opts = TrainOptions::quick(gpus);
                    opts.overlap = overlap;
                    opts.op_order_opt = op_order;
                    opts.partition = partition;
                    let label = format!(
                        "trainer P={gpus} {:<4} overlap={} op-order={}",
                        partition.name(),
                        on_off(overlap),
                        on_off(op_order),
                    );
                    push(label, opts)?;
                }
            }
        }
    }
    for &gpus in gpu_list.iter().filter(|&&g| g >= 2) {
        for partition in partitions(gpus) {
            for k in [1usize, 2] {
                let mut opts = TrainOptions::quick(gpus);
                opts.partition = partition;
                opts.staleness = k;
                let label = format!(
                    "stale   P={gpus} {:<4} k={k} ({FUSED_EPOCHS} epochs)   ",
                    partition.name()
                );
                push(label, opts)?;
            }
        }
    }
    Ok(cases)
}

/// The sweep's serving case: train briefly on `graph`, freeze the model,
/// and record (not run) one batch of four queries on a single replica.
pub fn serve_case(
    graph: &Graph,
    hidden: usize,
) -> Result<(String, Schedule<Mutex<BatchCtx>>), String> {
    let model = ServingModel::train(graph, hidden, 3)?;
    let machine = MachineSpec::uniform("A100-serve", GpuSpec::a100(), 1, 12, 300.0e9);
    let mut server =
        Server::new(model, ServeConfig::new(machine, BatchPolicy::new(1e-3, 16), 1 << 20));
    let batch: Vec<u32> = vec![3, 17, 42, 101];
    let label = format!("serve  batch of {} on 1 replica  ", batch.len());
    Ok((label, server.batch_schedule(&batch, 0)))
}

/// One verified schedule: its static verification result plus (when
/// asked for) the effect-soundness audit and the annotated op stream.
pub struct AnalyzedSchedule {
    pub label: String,
    pub report: Report,
    pub audit: Option<EffectAudit>,
    /// `Schedule::dump_ops` of the verified schedule.
    pub ops: Option<String>,
}

impl AnalyzedSchedule {
    fn of<Ctx>(label: String, sched: &Schedule<Ctx>, report: Report, dump: bool) -> Self {
        Self { label, report, audit: None, ops: dump.then(|| sched.dump_ops()) }
    }

    pub fn clean(&self) -> bool {
        self.report.clean() && self.audit.as_ref().is_none_or(EffectAudit::clean)
    }
}

/// One model-checked schedule: exhaustive footprint-reduced exploration
/// plus a capped device-level cross-check.
pub struct ModelChecked {
    pub label: String,
    pub exhaustive: DporResult,
    pub device: DporResult,
}

impl ModelChecked {
    pub fn clean(&self) -> bool {
        self.exhaustive.deterministic() && !self.exhaustive.truncated && self.device.deterministic()
    }
}

/// Which optional passes a sweep runs beside static verification.
#[derive(Clone, Copy, Debug, Default)]
pub struct Passes {
    /// Shadow-execute every materialized trainer schedule's bodies and
    /// diff observed reads/writes/stale ages against the declarations.
    pub audit: bool,
    /// DPOR-explore the linearizations of small P ∈ {1, 2, 3} schedules.
    pub model_check: bool,
    /// Keep each schedule's annotated op stream.
    pub dump: bool,
}

/// Everything one `mggcn analyze` run verified.
pub struct SweepReport {
    pub rows: Vec<AnalyzedSchedule>,
    pub checks: Vec<ModelChecked>,
}

pub const ANALYZE_SCHEMA: &str = "mggcn-analyze-v1";

impl SweepReport {
    pub fn total(&self) -> usize {
        self.rows.len() + self.checks.len()
    }

    /// Schedules with a finding, an under-declared effect, or a
    /// nondeterministic or truncated exploration.
    pub fn dirty(&self) -> usize {
        self.rows.iter().filter(|r| !r.clean()).count()
            + self.checks.iter().filter(|m| !m.clean()).count()
    }

    /// Render the machine-readable report. Deterministic: findings and
    /// warnings are canonically sorted by the analyzer, labels are fixed by
    /// the sweep order, so the output is byte-stable across runs.
    pub fn to_json(&self) -> String {
        // `arr` takes pre-rendered JSON values, so quote + escape each line.
        fn lines<T: ToString>(xs: &[T]) -> Vec<String> {
            xs.iter().map(|x| format!("\"{}\"", escape(&x.to_string()))).collect()
        }
        let schedules: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let mut w = JsonWriter::new()
                    .str("label", r.label.trim_end())
                    .usize("ops", r.report.ops)
                    .usize("edges", r.report.edges)
                    .bool("clean", r.clean())
                    .arr("findings", &lines(&r.report.findings))
                    .arr("warnings", &lines(&r.report.warnings));
                if let Some(lv) = &r.report.liveness {
                    w = w.usize("buffers_needed", lv.buffers_needed);
                }
                if let Some(b) = r.report.budget {
                    w = w.usize("budget", b);
                }
                if let Some(a) = &r.audit {
                    let audit = JsonWriter::new()
                        .bool("clean", a.clean())
                        .arr("findings", &lines(&a.findings))
                        .arr("warnings", &lines(&a.warnings))
                        .finish();
                    w = w.raw("audit", &audit);
                }
                w.finish()
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|m| {
                JsonWriter::new()
                    .str("label", &m.label)
                    .bool("clean", m.clean())
                    .usize("executions", m.exhaustive.executions)
                    .bool("truncated", m.exhaustive.truncated)
                    .bool("deterministic", m.exhaustive.deterministic())
                    .usize("device_executions", m.device.executions)
                    .bool("device_deterministic", m.device.deterministic())
                    .finish()
            })
            .collect();
        let mut w = JsonWriter::new()
            .str("schema", ANALYZE_SCHEMA)
            .usize("schedules", self.rows.len())
            .usize("dirty", self.dirty())
            .arr("reports", &schedules);
        if !self.checks.is_empty() {
            w = w.arr("model_check", &checks);
        }
        w.finish()
    }
}

/// Verify `cases` (see [`trainer_cases`]) and the serving case on `graph`,
/// then run the optional passes. The effect audit covers the trainer
/// schedules only: the serving bodies run under a frozen inference context
/// the training-side shadow interpreter does not apply to.
pub fn analyze_sweep(
    cases: &[TrainerCase],
    graph: &Graph,
    hidden: usize,
    passes: Passes,
) -> Result<SweepReport, String> {
    let mut rows: Vec<AnalyzedSchedule> = cases
        .iter()
        .map(|case| {
            let sched = case.schedule();
            let report = analyze_budget(&sched, &case.budget);
            let mut row = AnalyzedSchedule::of(case.label.clone(), &sched, report, passes.dump);
            if passes.audit {
                let actual = case.trainer.record_actual_effects(case.schedule());
                row.audit = Some(audit_effects(&sched.op_infos(), &actual));
            }
            row
        })
        .collect();
    let (label, sched) = serve_case(graph, hidden)?;
    rows.push(AnalyzedSchedule::of(label, &sched, analyze(&sched), passes.dump));
    let checks = if passes.model_check { model_check_small()? } else { Vec::new() };
    Ok(SweepReport { rows, checks })
}

/// DPOR linearization model checking: exhaustively execute every
/// HB-distinct linearization of small schedules at P ∈ {1, 2, 3} and
/// require bit-identical final weights. Footprint dependence (sound given
/// the effect audit) must reduce a clean schedule to one trace; the capped
/// device-dependence pass cross-checks the reduction empirically.
fn model_check_small() -> Result<Vec<ModelChecked>, String> {
    let graph = sbm::generate(&SbmConfig::community_benchmark(24, 2), 11);
    let cfg = GcnConfig::new(graph.features.cols(), &[4], graph.classes);
    [1usize, 2, 3]
        .into_iter()
        .map(|gpus| {
            let mut opts = TrainOptions::quick(gpus);
            opts.permute = false;
            opts.overlap = true;
            let problem = Problem::from_graph(&graph, &cfg, &opts);
            let trainer = Trainer::new(problem, cfg.clone(), opts).map_err(|e| e.to_string())?;
            let sched = trainer.epoch_schedule();
            let infos = sched.op_infos();
            let explore = |opts: DporOptions| {
                model_check(&infos, &opts, &mut |order| trainer.linearization_digest(|_| {}, order))
            };
            Ok(ModelChecked {
                label: format!("model-check P={gpus} ({} ops)", sched.op_count()),
                exhaustive: explore(DporOptions::default()),
                device: explore(DporOptions { max_executions: 128, device_dependence: true }),
            })
        })
        .collect()
}

/// Verify one paper-scale epoch schedule: `card` on `gpus` GPUs of
/// `machine` under `partition`, within the partition's liveness budget.
/// Descriptor-backed problems carry shapes, not tensors, so there are no
/// bodies to audit or model-check.
pub fn analyze_dataset(
    card: &DatasetCard,
    cfg: &GcnConfig,
    machine: MachineSpec,
    gpus: usize,
    partition: Partition,
    dump: bool,
) -> Result<AnalyzedSchedule, OomError> {
    let label = format!("{} on {} x{gpus} ({})", card.name, machine.name, partition.name());
    let mut opts = TrainOptions::full(machine, gpus);
    opts.partition = partition;
    let problem = Problem::from_stats(card, &opts);
    let sched = Trainer::new(problem, cfg.clone(), opts)?.epoch_schedule();
    let report = analyze_budget(&sched, &budget_of(partition, cfg));
    Ok(AnalyzedSchedule::of(label, &sched, report, dump))
}
