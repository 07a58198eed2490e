//! Chaos conformance suite: seeded fault plans against every subsystem
//! that dispatches through the `mggcn-sched` core, proving three
//! invariants per scenario class:
//!
//! 1. **No deadlock** — every run terminates within a structural bound,
//!    with `Ok` or a *labeled* error (a tagged `ExecError` or a `Stall`
//!    naming the stuck lanes). Never a hang, never an anonymous panic.
//! 2. **No silent corruption** — runs that survive injection produce
//!    results bit-identical to the fault-free oracle; runs that do not
//!    survive fail loudly.
//! 3. **Graceful degradation** — cluster shard/cache-node loss yields
//!    tagged degraded answers with a fixed host-side latency bound,
//!    never timeouts, while surviving shards stay bit-identical.
//!
//! Every scenario is derived from a seed (`FaultPlan::seeded`), so any
//! CI failure replays exactly with
//! `MGGCN_CHAOS_SEED=<seed> cargo test -p mggcn-testkit --test chaos_invariants`.
//! `MGGCN_CHAOS_SEEDS=<n>` widens the sweep (seeds `base..base+n`).

use mggcn_cluster::{AdmissionPolicy, Cluster, ClusterConfig, DEGRADED_COST};
use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_dense::Dense;
use mggcn_exec::{execute, execute_chaos};
use mggcn_gpusim::engine::OpDesc;
use mggcn_gpusim::{BufId, Category, Effects, GpuSpec, MachineSpec, Schedule, Work};
use mggcn_graph::generators::chung_lu;
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_sched::{chaos_seed, chaos_seed_count, FaultPlan, Injector, Kill, Scenario, ShardLoss};
use mggcn_serve::{BatchPolicy, LoadGenConfig, Request, ServingModel};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Generous wall-clock ceiling for "bounded": everything here simulates
/// or runs millisecond-scale bodies, so half a minute means a hang.
const BOUND: Duration = Duration::from_secs(30);

fn seeds() -> Vec<u64> {
    let base = chaos_seed();
    (0..chaos_seed_count(3) as u64).map(|i| base.wrapping_add(i)).collect()
}

/// A real 2-GPU training epoch schedule — collectives, waits, multiple
/// streams — the richest dispatch structure the repo produces.
fn epoch_schedule(gpus: usize) -> Schedule<mggcn_core::state::DeviceState> {
    let g = sbm::generate(&SbmConfig::community_benchmark(60, 3), 5);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(gpus);
    opts.permute = false;
    let problem = Problem::from_graph(&g, &cfg, &opts);
    let trainer = Trainer::new(problem, cfg, opts).expect("fits");
    trainer.epoch_schedule()
}

// ---------------------------------------------------------------------
// Oracle identity: the injection machinery itself must cost nothing.
// ---------------------------------------------------------------------

#[test]
fn noop_injector_is_bit_identical_to_the_legacy_simulator() {
    let s = epoch_schedule(2);
    let base = s.simulate();
    let alt = s.simulate_with(&Injector::none()).expect("fault-free run cannot stall");
    assert_eq!(
        base.report.makespan.to_bits(),
        alt.report.makespan.to_bits(),
        "makespan drifted under the no-op injector"
    );
    assert_eq!(base.completion_order, alt.completion_order);
    assert_eq!(base.report.ops_executed, alt.report.ops_executed);
}

// ---------------------------------------------------------------------
// Scenario: slow links (recoverable — the run completes, just later).
// ---------------------------------------------------------------------

#[test]
fn slow_links_terminate_and_never_beat_the_fault_free_oracle() {
    let s = epoch_schedule(2);
    let base = s.simulate();
    let mut base_set = base.completion_order.clone();
    base_set.sort_unstable();
    for seed in seeds() {
        let plan = FaultPlan::seeded(seed, Scenario::SlowLink { gpus: 2 });
        let start = Instant::now();
        let a = s
            .simulate_with(&Injector::new(plan.clone()))
            .unwrap_or_else(|st| panic!("slow links must be recoverable (seed {seed}): {st}"));
        assert!(start.elapsed() < BOUND, "seed {seed} blew the time bound");
        assert!(
            a.report.makespan >= base.report.makespan * (1.0 - 1e-12),
            "seed {seed}: slowing links sped the run up ({} < {})",
            a.report.makespan,
            base.report.makespan
        );
        let mut set = a.completion_order.clone();
        set.sort_unstable();
        assert_eq!(set, base_set, "seed {seed}: ops lost or duplicated");
        // Replay: the same seed must reproduce the run bit for bit.
        let b = s.simulate_with(&Injector::new(plan)).expect("replay");
        assert_eq!(a.report.makespan.to_bits(), b.report.makespan.to_bits(), "seed {seed}");
        assert_eq!(a.completion_order, b.completion_order, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Scenario: NIC degradation on a multi-node 1.5D run (recoverable).
// ---------------------------------------------------------------------

/// A 1.5D epoch schedule on a 2-node × 2-GPU hierarchical machine —
/// group broadcasts on NVLink, pairwise cross-group reductions over the
/// NIC — the schedule class `Scenario::NicDegrade` is aimed at.
fn epoch_schedule_15d_multinode() -> Schedule<mggcn_core::state::DeviceState> {
    let g = sbm::generate(&SbmConfig::community_benchmark(60, 3), 5);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let machine = MachineSpec::hier_cluster("chaos-2x2", GpuSpec::a100(), 2, 2, 12, 25.0e9, 50.0e9);
    let mut opts = TrainOptions::full(machine, 4);
    opts.partition = mggcn_core::config::Partition::OneFiveD;
    opts.permute = false;
    let problem = Problem::from_graph(&g, &cfg, &opts);
    let trainer = Trainer::new(problem, cfg, opts).expect("fits");
    trainer.epoch_schedule()
}

#[test]
fn nic_degrade_delays_15d_multinode_runs_but_loses_nothing() {
    let s = epoch_schedule_15d_multinode();
    let base = s.simulate();
    let mut base_set = base.completion_order.clone();
    base_set.sort_unstable();
    for seed in seeds() {
        let plan = FaultPlan::seeded(seed, Scenario::NicDegrade { nodes: 2, gpus_per_node: 2 });
        let start = Instant::now();
        let a = s
            .simulate_with(&Injector::new(plan.clone()))
            .unwrap_or_else(|st| panic!("NIC degradation must be recoverable (seed {seed}): {st}"));
        assert!(start.elapsed() < BOUND, "seed {seed} blew the time bound");
        // Lossless: every op completes, exactly once.
        let mut set = a.completion_order.clone();
        set.sort_unstable();
        assert_eq!(set, base_set, "seed {seed}: ops lost or duplicated");
        assert_eq!(a.report.ops_executed, base.report.ops_executed, "seed {seed}");
        // Just later: a degraded fabric can never beat the healthy one.
        assert!(
            a.report.makespan >= base.report.makespan * (1.0 - 1e-12),
            "seed {seed}: degrading the NIC sped the run up ({} < {})",
            a.report.makespan,
            base.report.makespan
        );
        // Replay: the seed is the whole story.
        let b = s.simulate_with(&Injector::new(plan)).expect("replay");
        assert_eq!(a.report.makespan.to_bits(), b.report.makespan.to_bits(), "seed {seed}");
        assert_eq!(a.completion_order, b.completion_order, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Scenario: worker death (unrecoverable in the sim — bounded, labeled).
// ---------------------------------------------------------------------

#[test]
fn sim_worker_death_stalls_bounded_with_the_stuck_lanes_named() {
    let s = epoch_schedule(2);
    // Kill op 0 at promotion regardless of which GPU hosts it: lanes
    // behind it block and the run must surface a labeled stall.
    let plan =
        FaultPlan { kills: (0..2).map(|g| Kill { gpu: g, seq: 0 }).collect(), ..FaultPlan::none() };
    let start = Instant::now();
    let stall = match s.simulate_with(&Injector::new(plan)) {
        Err(stall) => stall,
        Ok(_) => panic!("a killed head op must stall the schedule"),
    };
    assert!(start.elapsed() < BOUND, "stall detection must be bounded");
    assert!(!stall.stuck.is_empty(), "stall must name the blocked work");
    assert!(
        stall.stuck.iter().all(|l| l.contains("lane")),
        "stuck entries keep the legacy lane format: {:?}",
        stall.stuck
    );
}

#[test]
fn seeded_worker_death_either_fails_labeled_or_matches_the_oracle() {
    let s = epoch_schedule(2);
    let base = s.simulate();
    let n_ops = base.report.ops_executed;
    for seed in seeds() {
        let plan = FaultPlan::seeded(seed, Scenario::WorkerDeath { gpus: 2, ops_per_gpu: n_ops });
        let start = Instant::now();
        match s.simulate_with(&Injector::new(plan)) {
            // The kill coordinate missed (wrong GPU for that op id):
            // the run must then be indistinguishable from fault-free.
            Ok(out) => {
                assert_eq!(out.report.makespan.to_bits(), base.report.makespan.to_bits());
                assert_eq!(out.completion_order, base.completion_order);
            }
            Err(stall) => {
                assert!(!stall.stuck.is_empty(), "seed {seed}: unlabeled stall");
            }
        }
        assert!(start.elapsed() < BOUND, "seed {seed} blew the time bound");
    }
}

// ---------------------------------------------------------------------
// Threaded executor: preemption is transparent, death is tagged.
// ---------------------------------------------------------------------

fn exec_machine(gpus: usize) -> MachineSpec {
    MachineSpec::uniform("chaos", GpuSpec::v100(), gpus, 6, 25.0e9)
}

fn writer_schedule(gpus: usize) -> Schedule<Mutex<Vec<usize>>> {
    let mut s: Schedule<Mutex<Vec<usize>>> = Schedule::new(exec_machine(gpus));
    for g in 0..gpus {
        s.record(
            g,
            0,
            Work::Fixed { seconds: 1e-6 },
            OpDesc::new(Category::GeMM, "write"),
            Effects::none().writes([BufId::new(g, "HW")]),
            Some(Box::new(move |l: &Mutex<Vec<usize>>| l.lock().unwrap().push(g))),
        );
    }
    s
}

#[test]
fn exec_preemption_leaves_results_bit_identical_to_fault_free() {
    let oracle = Mutex::new(Vec::new());
    execute(writer_schedule(2), &oracle).expect("fault-free run");
    let mut want = std::mem::take(&mut *oracle.lock().unwrap());
    want.sort_unstable();

    for seed in seeds() {
        let plan = FaultPlan::seeded(
            seed,
            Scenario::Preemption { gpus: 2, ops_per_gpu: 1, max_pause: 5e-3 },
        );
        let inj = Injector::new(plan);
        let ctx = Mutex::new(Vec::new());
        let start = Instant::now();
        let r = execute_chaos(writer_schedule(2), &ctx, &inj)
            .unwrap_or_else(|e| panic!("preemption must be recoverable (seed {seed}): {e}"));
        assert!(start.elapsed() < BOUND, "seed {seed} blew the time bound");
        assert_eq!(r.bodies_run, 2, "seed {seed}: a paused body was dropped");
        let mut got = std::mem::take(&mut *ctx.lock().unwrap());
        got.sort_unstable();
        assert_eq!(got, want, "seed {seed}: pause corrupted results");
    }
}

#[test]
fn exec_death_mid_collective_fails_bounded_and_tagged_for_every_seed() {
    for seed in seeds() {
        // Every worker's first dispatch is the collective, so whichever
        // GPU the seed picks, the kill fires mid-rendezvous.
        let plan = FaultPlan::seeded(seed, Scenario::WorkerDeath { gpus: 4, ops_per_gpu: 1 });
        let mut s: Schedule<()> = Schedule::new(exec_machine(4));
        let lanes: Vec<(usize, usize)> = (0..4).map(|g| (g, 0)).collect();
        s.record_collective(
            &lanes,
            1.0e6,
            25.0e9,
            OpDesc::new(Category::Comm, "allreduce"),
            Effects::none(),
            None,
        );
        let start = Instant::now();
        let err = execute_chaos(s, &(), &Injector::new(plan))
            .expect_err("a dead rendezvous participant must fail the run");
        assert!(start.elapsed() < BOUND, "seed {seed}: peers hung on the dead worker");
        assert!(
            err.message.contains("injected worker death"),
            "seed {seed}: untagged error: {err}"
        );
    }
}

// ---------------------------------------------------------------------
// Cluster: shard/cache-node loss degrades gracefully, never times out.
// ---------------------------------------------------------------------

fn serving_model(n: usize) -> ServingModel {
    let adj = chung_lu::generate(&vec![4u32; n], 9);
    let feats = Dense::from_fn(n, 6, |r, c| ((r + 2 * c) as f32).sin());
    let w0 = Dense::from_fn(6, 5, |r, c| ((r * 2 + c) as f32).cos() * 0.3);
    let w1 = Dense::from_fn(5, 3, |r, c| ((r + 3 * c) as f32).sin() * 0.3);
    ServingModel::from_parts(vec![w0, w1], adj, feats).expect("valid model")
}

fn cluster_and_trace(model: &ServingModel) -> (Cluster, Vec<Request>) {
    let mut cfg = ClusterConfig::new(2, 1, BatchPolicy::new(1e-3, 8));
    cfg.admission = AdmissionPolicy::unbounded();
    let cluster = Cluster::new(model, cfg, None);
    let reqs = mggcn_serve::generate_load(&LoadGenConfig::uniform(5000.0, 160, 64, 11));
    (cluster, reqs)
}

#[test]
fn cluster_cache_node_loss_degrades_the_dead_shard_and_spares_the_rest() {
    let model = serving_model(64);
    let (mut oracle_cluster, reqs) = cluster_and_trace(&model);
    let oracle = oracle_cluster.serve_trace("oracle", &reqs);
    assert_eq!(oracle.report.shed_fault, 0, "fault-free run must not count faults");

    let window = 1e-3;
    let plan = FaultPlan { shard_loss: vec![ShardLoss { shard: 0, at: 0.0 }], ..FaultPlan::none() };
    let inj = Injector::new(plan.clone());
    let (mut cluster, _) = cluster_and_trace(&model);
    let start = Instant::now();
    let out = cluster.serve_trace_chaos("cache-loss", &reqs, &inj);
    assert!(start.elapsed() < BOUND, "shard loss must not stall the sweep");

    // Graceful degradation: every request still gets exactly one answer.
    assert_eq!(out.answers.len(), reqs.len(), "requests lost under shard loss");
    assert!(out.report.shed_fault > 0, "the loss never fired");
    let degraded_bound = window + DEGRADED_COST + 1e-9;
    for (a, o) in out.answers.iter().zip(&oracle.answers) {
        assert_eq!(a.id, o.id, "answers stay sorted by request id");
        if a.shard == 0 {
            // Dead shard: tagged degraded, bounded latency — never a
            // timeout — and the lost cache forces raw-feature fallback.
            assert!(a.degraded, "request {} on the dead shard escaped tagging", a.id);
            assert!(!a.from_cache, "request {} used a cache that was lost", a.id);
            assert!(
                a.latency <= degraded_bound,
                "request {}: degraded latency {} exceeds bound {degraded_bound}",
                a.id,
                a.latency
            );
        } else {
            // Surviving shard: bit-identical to the fault-free oracle.
            assert!(!a.degraded, "survivor {} was degraded", a.id);
            assert_eq!(a.row, o.row, "survivor {} row drifted", a.id);
            assert_eq!(a.latency.to_bits(), o.latency.to_bits(), "survivor {} latency", a.id);
        }
    }

    // Replay: same plan, fresh cluster, identical outcome.
    let (mut again, _) = cluster_and_trace(&model);
    let rerun = again.serve_trace_chaos("cache-loss", &reqs, &Injector::new(plan));
    assert_eq!(rerun.report.shed_fault, out.report.shed_fault);
    for (a, b) in out.answers.iter().zip(&rerun.answers) {
        assert_eq!(a.row, b.row);
        assert_eq!(a.latency.to_bits(), b.latency.to_bits());
    }
}

#[test]
fn seeded_cache_loss_answers_everything_for_every_seed() {
    let model = serving_model(64);
    for seed in seeds() {
        let plan = FaultPlan::seeded(seed, Scenario::CacheLoss { shards: 2, horizon: 0.02 });
        let (mut cluster, reqs) = cluster_and_trace(&model);
        let start = Instant::now();
        let out = cluster.serve_trace_chaos("seeded-loss", &reqs, &Injector::new(plan));
        assert!(start.elapsed() < BOUND, "seed {seed} blew the time bound");
        assert_eq!(out.answers.len(), reqs.len(), "seed {seed}: requests lost");
        assert_eq!(
            out.report.admitted + out.report.degraded,
            reqs.len(),
            "seed {seed}: answers neither exact nor degraded"
        );
        for a in &out.answers {
            assert!(a.latency.is_finite() && a.latency >= 0.0, "seed {seed}: bad latency");
            assert!(a.row.iter().all(|x| x.is_finite()), "seed {seed}: corrupt row");
        }
    }
}

// ---------------------------------------------------------------------
// Replayability: the seed is the whole story.
// ---------------------------------------------------------------------

#[test]
fn seeded_plans_are_deterministic_for_every_scenario_class() {
    let classes = [
        Scenario::WorkerDeath { gpus: 4, ops_per_gpu: 9 },
        Scenario::SlowLink { gpus: 4 },
        Scenario::Preemption { gpus: 4, ops_per_gpu: 9, max_pause: 0.01 },
        Scenario::CacheLoss { shards: 4, horizon: 1.0 },
        Scenario::NicDegrade { nodes: 2, gpus_per_node: 4 },
    ];
    for seed in seeds() {
        for sc in classes {
            let a = FaultPlan::seeded(seed, sc);
            let b = FaultPlan::seeded(seed, sc);
            assert_eq!(a, b, "seed {seed}, scenario {sc:?}: plan not replayable");
            assert_eq!(a.seed, seed, "plan must record its seed");
            assert!(!a.is_empty(), "seed {seed}, scenario {sc:?}: empty plan");
        }
    }
}

// ---------------------------------------------------------------------
// Scenario: worker death while the next epoch's stale broadcasts are in
// flight (DESIGN §15). Three invariants: the sim surfaces a bounded,
// labeled stall (or is oracle-identical when the kill coordinate
// misses); the threaded executor dies tagged; and restarting from the
// checkpoint at the last completed epoch is clean — bit-identical to a
// never-faulted run from the same checkpoint.
// ---------------------------------------------------------------------

/// A fused bounded-staleness schedule: 3 epochs at k=1 on 2 GPUs, where
/// epoch e+1's prefetch broadcasts overlap epoch e's backward pass.
fn pipelined_trainer(gpus: usize) -> Trainer {
    let g = sbm::generate(&SbmConfig::community_benchmark(60, 3), 5);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(gpus);
    opts.permute = false;
    opts.staleness = 1;
    let problem = Problem::from_graph(&g, &cfg, &opts);
    Trainer::new(problem, cfg, opts).expect("fits")
}

#[test]
fn sim_stale_epoch_kill_stalls_labeled_or_matches_the_oracle() {
    let t = pipelined_trainer(2);
    let s = t.pipelined_schedule(3);
    let base = s.simulate();
    // k=1 snapshots every epoch, so the three epochs have identical op
    // counts and the global op-id range of epoch 1 is exactly the second
    // third — the window `Scenario::StaleEpochKill` aims at.
    let n_ops = base.report.ops_executed;
    assert_eq!(n_ops % 3, 0, "fused k=1 epochs must have equal op counts");
    for seed in seeds() {
        let plan =
            FaultPlan::seeded(seed, Scenario::StaleEpochKill { gpus: 2, ops_per_epoch: n_ops / 3 });
        let start = Instant::now();
        match s.simulate_with(&Injector::new(plan)) {
            // Kill coordinate missed (wrong GPU for that op id): the run
            // must be indistinguishable from fault-free.
            Ok(out) => {
                assert_eq!(out.report.makespan.to_bits(), base.report.makespan.to_bits());
                assert_eq!(out.completion_order, base.completion_order);
            }
            Err(stall) => {
                assert!(!stall.stuck.is_empty(), "seed {seed}: unlabeled stall");
                assert!(
                    stall.stuck.iter().all(|l| l.contains("lane")),
                    "seed {seed}: stuck entries must name lanes: {:?}",
                    stall.stuck
                );
            }
        }
        assert!(start.elapsed() < BOUND, "seed {seed} blew the time bound");
    }
}

#[test]
fn stale_epoch_kill_dies_tagged_and_restarts_cleanly_from_checkpoint() {
    let mut t = pipelined_trainer(2);
    t.train(1).expect("epoch 0");
    let ck = mggcn_core::checkpoint::Checkpoint::from_trainer(&t);
    assert_eq!(ck.epoch, 1, "checkpoint records the last completed epoch");

    // Per-worker dispatches in one epoch of the fused schedule: the
    // seeded kill window `[ops_per_epoch, 2·ops_per_epoch)` then lands
    // inside the second epoch of any ≥2-epoch run for every GPU.
    let sched = t.pipelined_schedule(2);
    let infos = sched.op_infos();
    let first_epoch = infos.iter().filter_map(|o| o.desc.epoch).min().expect("tagged ops");
    let ops_per_epoch = (0..2)
        .map(|g| {
            infos
                .iter()
                .filter(|o| {
                    o.desc.epoch == Some(first_epoch) && o.lanes.iter().any(|&(l, _)| l == g)
                })
                .count()
        })
        .min()
        .expect("two workers");
    drop(infos);
    drop(sched);
    assert!(ops_per_epoch > 0);

    // Never-faulted control: restore the checkpoint, train two epochs.
    let mut control = pipelined_trainer(2);
    control.restore(&ck).expect("restore control");
    let control_reports = control.train(2).expect("control");
    let control_weights = control.state().gpu(0).weights.clone();

    let mut killed = 0usize;
    for seed in seeds() {
        let plan = FaultPlan::seeded(seed, Scenario::StaleEpochKill { gpus: 2, ops_per_epoch });
        let mut victim = pipelined_trainer(2);
        victim.restore(&ck).expect("restore victim");
        let sched = victim.pipelined_schedule(2);
        victim.state().reset_scratch();
        let start = Instant::now();
        match execute_chaos(sched, victim.state(), &Injector::new(plan)) {
            Ok(_) => {}
            Err(err) => {
                killed += 1;
                assert!(
                    err.message.contains("injected worker death"),
                    "seed {seed}: untagged error: {err}"
                );
            }
        }
        assert!(start.elapsed() < BOUND, "seed {seed}: peers hung on the dead worker");

        // Clean restart over the (possibly mid-epoch-corrupt) state:
        // restore the checkpoint and retrain — bit-identical to the
        // never-faulted control, resuming at the checkpointed epoch.
        victim.restore(&ck).expect("restore after crash");
        let reports = victim.train(2).expect("recovery");
        for (r, c) in reports.iter().zip(&control_reports) {
            assert_eq!(r.epoch, c.epoch, "seed {seed}: epochs must resume at ck.epoch");
            assert!(
                r.loss == c.loss,
                "seed {seed}: recovery epoch {} loss {} != control {} — the crash left residue",
                r.epoch,
                r.loss,
                c.loss
            );
        }
        for (l, (x, y)) in victim.state().gpu(0).weights.iter().zip(&control_weights).enumerate() {
            assert_eq!(x.as_slice(), y.as_slice(), "seed {seed}: layer {l} weights differ");
        }
    }
    assert!(killed > 0, "no seed's kill fired inside the stale-broadcast window");
}
