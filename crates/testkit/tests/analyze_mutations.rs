//! Mutation harness for the static schedule verifier.
//!
//! Three claims pin `mggcn-analyze` to the real trainer:
//!
//! * **Zero false positives** — every schedule the trainer actually
//!   builds (`P ∈ {1, 2, 4, 8}` × op-order × overlap) analyzes clean,
//!   and its liveness coloring reproduces the §4.2 budget: exactly
//!   `L + 3` big buffers under overlap with `P ≥ 2`, fewer when the
//!   broadcasts serialize (the second broadcast buffer is bought *for*
//!   the overlap).
//! * **Zero false negatives** — deleting any dependency edge, or swapping
//!   a stage's `BC1`/`BC2` double-buffer slot, is flagged. The trainer's
//!   wait edges are inferred from declared effects and transitively
//!   reduced at record time, so none is redundant: every single deletion
//!   must leave its pair unordered *and* surface as a finding.
//! * **Findings are real** — one flagged WAR mutant is executed and its
//!   loss diverges from the f64 oracle the clean schedule matches: the
//!   analyzer's report corresponds to actual data corruption.

use mggcn_analyze::{analyze_budget, analyze_ops, BudgetSpec, Hb};
use mggcn_core::config::{GcnConfig, Partition, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::state::DeviceState;
use mggcn_core::trainer::{sf_buffer_count, Trainer};
use mggcn_gpusim::{GpuSpec, MachineSpec, OpId, Schedule};
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_graph::Graph;
use mggcn_testkit::oracle::ReferenceGcn;
use mggcn_testkit::{rel_diff, P_LOSS_TOL};

fn graph() -> Graph {
    sbm::generate(&SbmConfig::community_benchmark(60, 3), 5)
}

fn trainer(g: &Graph, hidden: &[usize], gpus: usize, overlap: bool) -> Trainer {
    let cfg = GcnConfig::new(g.features.cols(), hidden, g.classes);
    let mut opts = TrainOptions::quick(gpus);
    opts.permute = false;
    opts.overlap = overlap;
    let problem = Problem::from_graph(g, &cfg, &opts);
    Trainer::new(problem, cfg, opts).expect("toy problem fits")
}

#[test]
fn real_schedules_analyze_clean_with_the_planned_buffer_count() {
    let g = graph();
    // hidden=8 shrinks (GeMM-first everywhere); hidden=64 widens layer 0,
    // so §4.4 swaps it to SpMM-first.
    for hidden in [&[8usize][..], &[64usize][..]] {
        for gpus in [1usize, 2, 4, 8] {
            for overlap in [true, false] {
                let t = trainer(&g, hidden, gpus, overlap);
                let layers = t.config().layers();
                let sched = t.epoch_schedule();
                let report = analyze_budget(&sched, &BudgetSpec::mg_gcn(layers));
                assert!(
                    report.clean(),
                    "hidden={hidden:?} P={gpus} overlap={overlap}:\n{}",
                    report.render()
                );
                let lv = report.liveness.as_ref().expect("liveness ran");
                let budget = layers + 3;
                if overlap && gpus >= 2 {
                    // The paper's configuration uses every budgeted buffer.
                    assert_eq!(
                        lv.buffers_needed,
                        budget,
                        "hidden={hidden:?} P={gpus}: overlap needs exactly L+3\n{}",
                        report.render()
                    );
                } else {
                    // Serialized broadcasts time-slice BC1/BC2; P=1 has a
                    // single stage and never names BC2.
                    assert!(
                        lv.buffers_needed < budget,
                        "hidden={hidden:?} P={gpus} overlap={overlap}: \
                         expected under-budget, got {}/{budget}",
                        lv.buffers_needed
                    );
                }
            }
        }
    }
}

/// Delete each of `edges` from a fresh `build()` in turn: the pair must
/// become unordered (the edge was load-bearing, not implied by another
/// path) and the analyzer must report it.
fn assert_every_deletion_is_flagged(
    what: &str,
    build: impl Fn() -> Schedule<DeviceState>,
    edges: &[(OpId, OpId)],
) {
    for &(op, wait) in edges {
        let mut mutant = build();
        mutant.remove_wait(op, wait);
        let infos = mutant.op_infos();
        let hb = Hb::of_ops(&infos);
        // Removing an edge cannot create a cycle, so ordered() is meaningful.
        assert!(hb.cycle.is_none());
        assert!(
            !hb.ordered(wait, op),
            "{what}: edge {wait}->{op} is redundant — inference should have dropped it"
        );
        assert!(
            !analyze_ops(&infos, None).clean(),
            "{what}: edge {wait}->{op} deleted without a finding (false negative)"
        );
    }
}

#[test]
fn every_deleted_wait_edge_is_flagged() {
    let g = graph();
    for (hidden, gpus, overlap) in
        [(&[8usize][..], 4, true), (&[8][..], 2, false), (&[64][..], 2, true)]
    {
        let t = trainer(&g, hidden, gpus, overlap);
        let edges = t.epoch_schedule().wait_edges();
        // Overlapped schedules carry real cross-stream edges; serialized
        // ones ride lane FIFO and rendezvous, so they need no wait at all.
        assert_eq!(edges.is_empty(), !overlap, "P={gpus} overlap={overlap}: {edges:?}");
        assert_every_deletion_is_flagged(
            &format!("P={gpus} overlap={overlap}"),
            || t.epoch_schedule(),
            &edges,
        );
    }
}

/// Swap one broadcast stage's double-buffer slot (writer and its readers
/// together, so the mutation is consistent — only the *pipelining* is
/// wrong, exactly the §4.3 bug class).
fn swap_bc_slot_of_stage(sched: &mut Schedule<DeviceState>, stage: usize) {
    let infos = sched.op_infos();
    let bcast = infos
        .iter()
        .find(|o| o.desc.label == "bcast-H" && o.desc.stage == Some(stage))
        .expect("stage broadcast exists")
        .id;
    // The broadcast plus its consumers: the SpMM stage recorded right
    // after it, up to the next broadcast.
    let group: Vec<OpId> = infos[bcast..]
        .iter()
        .take_while(|o| o.id == bcast || o.desc.label == "spmm")
        .map(|o| o.id)
        .collect();
    drop(infos);
    for id in group {
        let fx = sched.effects_mut(id);
        for b in fx.reads.iter_mut().chain(fx.writes.iter_mut()) {
            b.name = match b.name {
                "BC1" => "BC2",
                "BC2" => "BC1",
                other => other,
            };
        }
    }
}

#[test]
fn bc_slot_swaps_are_flagged_exactly_when_overlapped() {
    let g = graph();
    for stage in 0..4 {
        // Overlapped: the swapped stage collides with its neighbors'
        // in-flight broadcasts — every stage must be flagged.
        let t = trainer(&g, &[8], 4, true);
        let mut mutant = t.epoch_schedule();
        swap_bc_slot_of_stage(&mut mutant, stage);
        let report = analyze_ops(&mutant.op_infos(), None);
        assert!(
            !report.clean(),
            "stage {stage} BC swap not flagged under overlap (false negative)"
        );

        // Serialized: broadcasts and consumers share one lane per GPU, so
        // slot choice is immaterial — the analyzer must agree.
        let t = trainer(&g, &[8], 4, false);
        let mut mutant = t.epoch_schedule();
        swap_bc_slot_of_stage(&mut mutant, stage);
        let report = analyze_ops(&mutant.op_infos(), None);
        assert!(
            report.clean(),
            "stage {stage} BC swap flagged under serialization (false positive):\n{}",
            report.render()
        );
    }
}

#[test]
fn flagged_war_mutant_corrupts_real_training() {
    // Near-instant communication so the mutant's early broadcast really
    // does land before its victim readers run.
    let g = graph();
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(4);
    opts.permute = false;
    opts.machine = MachineSpec::uniform("fast-comm", GpuSpec::a100(), 4, 12, 1.0e15);
    opts.machine.comm_latency = 0.0;
    opts.launch_overhead = 0.0;

    let mk = || {
        let problem = Problem::from_graph(&g, &cfg, &opts);
        Trainer::new(problem, cfg.clone(), opts.clone()).expect("fits")
    };

    let oracle_loss = ReferenceGcn::new(&g, &cfg).train_epoch().loss;
    let mut clean = mk();
    let clean_loss = clean.train_epoch().expect("clean epoch").loss;
    assert!(
        rel_diff(clean_loss, oracle_loss) < P_LOSS_TOL,
        "clean schedule diverges from oracle: {clean_loss} vs {oracle_loss}"
    );

    // Delete the WAR guards of forward stage 2's broadcast: the waits on
    // stage 0's SpMM readers of BC1. The broadcast may now overwrite BC1
    // while stage 0 is still consuming it.
    let mutant_trainer = mk();
    let mut sched = mutant_trainer.epoch_schedule();
    let (bcast, victim_waits): (OpId, Vec<OpId>) = {
        let infos = sched.op_infos();
        let b = infos
            .iter()
            .find(|o| o.desc.label == "bcast-H" && o.desc.stage == Some(2))
            .expect("stage-2 broadcast");
        let victims = b.waits.iter().copied().filter(|&w| infos[w].desc.label == "spmm").collect();
        (b.id, victims)
    };
    assert_eq!(victim_waits.len(), 4, "one WAR guard per reader GPU");
    for w in victim_waits {
        sched.remove_wait(bcast, w);
    }

    let report = analyze_ops(&sched.op_infos(), None);
    assert!(!report.clean(), "deleted WAR guards must be flagged");
    assert!(
        report.findings.iter().any(|f| f.to_string().contains("WAR hazard on BC1")),
        "expected a BC1 WAR finding, got:\n{}",
        report.render()
    );

    // Execute the mutant: the corruption the analyzer predicted is real.
    mutant_trainer.state().reset_scratch();
    sched.run(mutant_trainer.state());
    let mutant_loss = mutant_trainer.state().total_loss();
    assert!(
        rel_diff(mutant_loss, oracle_loss) > P_LOSS_TOL,
        "mutant loss {mutant_loss} still matches the oracle {oracle_loss} — \
         the flagged hazard did not manifest"
    );
}

// ---------------------------------------------------------------------------
// Bounded-staleness (DESIGN §15): the epoch-crossing happens-before pass.
// ---------------------------------------------------------------------------

fn stale_trainer(g: &Graph, gpus: usize, partition: Partition, k: usize) -> Trainer {
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(gpus);
    opts.permute = false;
    opts.partition = partition;
    opts.staleness = k;
    let problem = Problem::from_graph(g, &cfg, &opts);
    Trainer::new(problem, cfg, opts).expect("toy problem fits")
}

/// Every fused schedule the trainer builds analyzes clean under the
/// §15 budget (`L + 3` plus the SF snapshot family): all stale reads are
/// *declared*, so the epoch-crossing pass reports nothing — and the
/// claim is non-vacuous because the schedules really do carry StaleRead
/// declarations.
#[test]
fn pipelined_schedules_analyze_clean_with_declared_stale_reads() {
    let g = graph();
    for partition in [Partition::OneD, Partition::OneFiveD] {
        for gpus in [2usize, 4, 8] {
            for k in [1usize, 2] {
                let t = stale_trainer(&g, gpus, partition, k);
                let layers = t.config().layers();
                let sf = sf_buffer_count(t.config(), t.options());
                let base = match partition {
                    Partition::OneD => BudgetSpec::mg_gcn(layers),
                    Partition::OneFiveD => BudgetSpec::mg_gcn_15d(layers),
                };
                let sched = t.pipelined_schedule(3);
                let report = analyze_budget(&sched, &base.with_staleness(sf));
                assert!(
                    report.clean(),
                    "{} P={gpus} k={k}:\n{}",
                    partition.name(),
                    report.render()
                );
                let declared =
                    sched.op_infos().iter().filter(|o| !o.effects.stale_reads.is_empty()).count();
                assert!(
                    declared > 0,
                    "{} P={gpus} k={k}: no StaleRead declarations in a fused schedule",
                    partition.name()
                );
            }
        }
    }
}

/// Deleting any *cross-epoch* wait edge must surface as a finding: like
/// every inferred edge, each one is the only path ordering its pair.
#[test]
fn every_deleted_cross_epoch_wait_edge_is_flagged() {
    let g = graph();
    let t = stale_trainer(&g, 4, Partition::OneD, 1);
    let sched = t.pipelined_schedule(2);
    let infos = sched.op_infos();
    let cross: Vec<(OpId, OpId)> = sched
        .wait_edges()
        .into_iter()
        .filter(|&(op, wait)| {
            let (oe, we) = (infos[op].desc.epoch, infos[wait].desc.epoch);
            oe.is_some() && we.is_some() && oe != we
        })
        .collect();
    assert!(!cross.is_empty(), "fused schedule has no cross-epoch edges");
    assert_every_deletion_is_flagged("fused k=1", || t.pipelined_schedule(2), &cross);
}

/// Stripping the StaleRead declaration off one prefetch broadcast turns
/// it into an *undeclared* stale read: the analyzer must flag exactly
/// that class, and executing the mutant on a fast-comm machine shows the
/// flagged read really does consume old state — the stale epoch's loss
/// measurably diverges from the fresh f64 oracle that the k = 0 pipeline
/// matches on the same machine.
#[test]
fn undeclared_stale_read_mutant_is_flagged_and_corrupts_loss() {
    let g = graph();
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(4);
    opts.permute = false;
    opts.machine = MachineSpec::uniform("fast-comm", GpuSpec::a100(), 4, 12, 1.0e15);
    opts.machine.comm_latency = 0.0;
    opts.launch_overhead = 0.0;

    // Fresh trainer matches the oracle at epoch 1 on this machine.
    let mut oracle = ReferenceGcn::new(&g, &cfg);
    let oracle_loss = oracle.train(2).last().expect("epochs").loss;
    let problem = Problem::from_graph(&g, &cfg, &opts);
    let mut fresh = Trainer::new(problem, cfg.clone(), opts.clone()).expect("fits");
    let fresh_loss = fresh.train(2).expect("train").last().expect("epochs").loss;
    assert!(
        rel_diff(fresh_loss, oracle_loss) < P_LOSS_TOL,
        "fresh pipeline diverges from oracle: {fresh_loss} vs {oracle_loss}"
    );

    opts.staleness = 1;
    let problem = Problem::from_graph(&g, &cfg, &opts);
    let t = Trainer::new(problem, cfg.clone(), opts).expect("fits");
    let mut sched = t.pipelined_schedule(2);
    let victim = sched
        .op_infos()
        .iter()
        .find(|o| o.desc.epoch == Some(1) && !o.effects.stale_reads.is_empty())
        .expect("epoch-1 prefetch broadcast declares a stale read")
        .id;
    sched.effects_mut(victim).stale_reads.clear();

    let report = analyze_ops(&sched.op_infos(), None);
    let stale_findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| f.to_string())
        .filter(|s| s.contains("undeclared stale read"))
        .collect();
    assert!(
        !stale_findings.is_empty(),
        "stripping the declaration must surface an undeclared StaleRead:\n{}",
        report.render()
    );

    // Execute: the flagged read genuinely consumes epoch-0 state.
    t.state().reset_scratch();
    sched.run(t.state());
    let stale_loss: f64 = (0..4).map(|gpu| t.state().gpu(gpu).epoch_stats[1].loss_sum).sum();
    assert!(
        rel_diff(stale_loss, oracle_loss) > P_LOSS_TOL,
        "undeclared stale read did not manifest: epoch-1 loss {stale_loss} \
         still matches the fresh oracle {oracle_loss}"
    );
}
