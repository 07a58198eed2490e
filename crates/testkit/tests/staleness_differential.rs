//! Bounded-staleness conformance suite (ISSUE 9 / DESIGN §15).
//!
//! Three claims pin the `--staleness k` pipeline to the existing stack:
//!
//! * **k = 0 is the old trainer, bit for bit** — the option's default
//!   path never enters the fused multi-epoch builder, so the committed
//!   schedule goldens and every loss/weight trajectory are unchanged.
//! * **k ≥ 1 is deterministic and backend-invariant** — the fused
//!   schedule replays identically on the threaded backend, fused
//!   `train(N)` equals N sequential `train_epoch()` calls (snapshot
//!   cadence is keyed on absolute epoch, and SF persists on the
//!   trainer), and P = 1 staleness is a numeric no-op (there are no
//!   remote tiles to read stale).
//! * **k ≥ 1 still converges** — planted-partition replicas trained at
//!   k ∈ {0, 1, 2} track the f64 oracle's loss trajectory and land in
//!   its accuracy band, while genuinely computing *different* numbers
//!   from k = 0 whenever remote tiles exist (staleness must not be a
//!   silent no-op at P ≥ 2).

use mggcn_core::config::{GcnConfig, Partition, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_dense::Dense;
use mggcn_exec::Backend;
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_graph::Graph;
use mggcn_testkit::oracle::ReferenceGcn;
use mggcn_testkit::{check_golden, rel_diff};

const EPOCHS: usize = 3;

/// Max relative loss gap between a bounded-staleness run and the fresh
/// f64 oracle, per epoch. Stale remote tiles steer Adam down a genuinely
/// different trajectory, and the relative gap widens as the loss shrinks;
/// the observed worst case on the planted partitions is 2.73e-1 (k=2,
/// P=4, epoch 6), pinned here with ~30% headroom. The accuracy band
/// below is the actual convergence criterion — this bound only keeps the
/// trajectory tethered to the oracle's.
const STALE_LOSS_TOL: f64 = 0.35;

/// Max absolute test-accuracy gap vs. the oracle after convergence
/// (observed worst case 0.0192, at k=2).
const STALE_ACC_TOL: f64 = 0.05;

fn ensure_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if std::env::var("MGGCN_THREADS").is_err() {
            std::env::set_var("MGGCN_THREADS", "4");
        }
    });
}

fn graph(seed: u64) -> Graph {
    sbm::generate(&SbmConfig::community_benchmark(96, 3), seed)
}

/// Train `epochs` epochs, return (losses, final weights, test accuracy).
fn run_n(
    g: &Graph,
    cfg: &GcnConfig,
    opts: TrainOptions,
    epochs: usize,
) -> (Vec<f64>, Vec<Dense>, f64) {
    let problem = Problem::from_graph(g, cfg, &opts);
    let mut t = Trainer::new(problem, cfg.clone(), opts).expect("fits");
    let reports = t.train(epochs).expect("train");
    let losses = reports.iter().map(|r| r.loss).collect();
    let acc = reports.last().expect("epochs").test_acc;
    let weights = t.state().gpu(0).weights.clone();
    (losses, weights, acc)
}

fn run(g: &Graph, cfg: &GcnConfig, opts: TrainOptions) -> (Vec<f64>, Vec<Dense>, f64) {
    run_n(g, cfg, opts, EPOCHS)
}

fn assert_bit_identical(
    label: &str,
    (la, wa, aa): &(Vec<f64>, Vec<Dense>, f64),
    (lb, wb, ab): &(Vec<f64>, Vec<Dense>, f64),
) {
    assert_eq!(la.len(), lb.len(), "{label}: epoch counts differ");
    for e in 0..la.len() {
        assert!(
            la[e] == lb[e],
            "{label}: epoch {e} loss {} != {} (must be bit-identical)",
            la[e],
            lb[e]
        );
    }
    assert!(aa == ab, "{label}: test accuracy diverged");
    for (l, (x, y)) in wa.iter().zip(wb).enumerate() {
        assert_eq!(x.as_slice(), y.as_slice(), "{label}: layer {l} weights differ");
    }
}

/// `--staleness 0` must leave the schedule builder untouched: explicit
/// k = 0 reproduces the committed goldens byte for byte.
#[test]
fn staleness_zero_schedules_match_committed_goldens() {
    let g = sbm::generate(&SbmConfig::community_benchmark(60, 3), 5);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);

    let dump = |gpus: usize| {
        let mut opts = TrainOptions::quick(gpus);
        opts.permute = false;
        opts.staleness = 0; // explicit, not just the default
        let problem = Problem::from_graph(&g, &cfg, &opts);
        Trainer::new(problem, cfg.clone(), opts).expect("fits").epoch_schedule().dump_ops()
    };
    check_golden("schedule_p1.txt", &dump(1));
    check_golden("schedule_p3_overlap.txt", &dump(3));
}

/// Explicit k = 0 trains bit-identically to the default options across
/// GPU counts, both partitionings, and both backends.
#[test]
fn staleness_zero_training_is_bit_identical_to_default() {
    ensure_pool();
    let g = graph(5);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    for partition in [Partition::OneD, Partition::OneFiveD] {
        for gpus in [1usize, 2, 4, 8] {
            if partition == Partition::OneFiveD && gpus < 2 {
                continue;
            }
            for backend in [Backend::Simulated, Backend::Threaded] {
                let mut opts = TrainOptions::quick(gpus);
                opts.permute = false;
                opts.partition = partition;
                opts.backend = backend;
                let baseline = run(&g, &cfg, opts.clone());
                opts.staleness = 0;
                let explicit = run(&g, &cfg, opts);
                assert_bit_identical(
                    &format!("P={gpus} {} {backend:?}", partition.name()),
                    &baseline,
                    &explicit,
                );
            }
        }
    }
}

/// P = 1 has no remote tiles, so every read is the fresh local path:
/// k ∈ {1, 2} must be numerically indistinguishable from k = 0 even
/// though the fused builder emits snapshot ops for timing.
#[test]
fn single_gpu_staleness_is_a_numeric_noop() {
    ensure_pool();
    let g = graph(7);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(1);
    opts.permute = false;
    let fresh = run(&g, &cfg, opts.clone());
    for k in [1usize, 2] {
        opts.staleness = k;
        let stale = run(&g, &cfg, opts.clone());
        assert_bit_identical(&format!("P=1 k={k}"), &fresh, &stale);
    }
}

/// Fused `train(N)` must equal N sequential `train_epoch()` calls: the
/// snapshot cadence keys on absolute epoch and SF persists on the
/// trainer, so slicing the pipeline at epoch boundaries is invisible.
#[test]
fn fused_train_matches_sequential_epochs() {
    ensure_pool();
    let g = graph(5);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    for (k, partition) in
        [(1usize, Partition::OneD), (2, Partition::OneD), (1, Partition::OneFiveD)]
    {
        let mut opts = TrainOptions::quick(4);
        opts.permute = false;
        opts.partition = partition;
        opts.staleness = k;
        let fused = run_n(&g, &cfg, opts.clone(), 4);

        let problem = Problem::from_graph(&g, &cfg, &opts);
        let mut t = Trainer::new(problem, cfg.clone(), opts).expect("fits");
        let mut losses = Vec::new();
        let mut acc = 0.0;
        for _ in 0..4 {
            let r = t.train_epoch().expect("epoch");
            losses.push(r.loss);
            acc = r.test_acc;
        }
        let weights = t.state().gpu(0).weights.clone();
        assert_bit_identical(
            &format!("k={k} {} fused vs sequential", partition.name()),
            &fused,
            &(losses, weights, acc),
        );
    }
}

/// At P ≥ 2, k ≥ 1 must actually change the numbers: epoch 0 trains
/// fully fresh (it seeds the snapshot), so its loss is bit-equal to the
/// fresh run, while later epochs consume stale remote tiles and diverge.
#[test]
fn staleness_changes_numerics_exactly_from_epoch_one() {
    ensure_pool();
    let g = graph(5);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(4);
    opts.permute = false;
    let (fresh, ..) = run(&g, &cfg, opts.clone());
    opts.staleness = 1;
    let (stale, ..) = run(&g, &cfg, opts);
    assert!(fresh[0] == stale[0], "epoch 0 is fully fresh: {} != {}", fresh[0], stale[0]);
    assert!(
        fresh[1..] != stale[1..],
        "k=1 at P=4 must consume stale tiles from epoch 1 on; \
         identical trajectories mean the prefetch path is dead code"
    );
}

/// The threaded backend replays the fused multi-epoch schedule
/// bit-identically to the simulator at k ∈ {1, 2}.
#[test]
fn threaded_matches_simulated_under_staleness() {
    ensure_pool();
    let g = graph(5);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    for partition in [Partition::OneD, Partition::OneFiveD] {
        for k in [1usize, 2] {
            let mut opts = TrainOptions::quick(4);
            opts.permute = false;
            opts.partition = partition;
            opts.staleness = k;
            let baseline = run(&g, &cfg, opts.clone());
            for threads in [1usize, 4] {
                let prev = mggcn_exec::set_active_threads(threads);
                opts.backend = Backend::Threaded;
                let threaded = run(&g, &cfg, opts.clone());
                mggcn_exec::set_active_threads(prev);
                opts.backend = Backend::Simulated;
                assert_bit_identical(
                    &format!("{} k={k} threads={threads}", partition.name()),
                    &baseline,
                    &threaded,
                );
            }
        }
    }
}

/// Convergence: planted-partition replicas trained at k ∈ {0, 1, 2}
/// track the fresh f64 oracle's loss trajectory epoch by epoch and land
/// in its test-accuracy band. Replay any failure with the seed in the
/// assertion message.
#[test]
fn stale_replicas_reach_the_oracle_band() {
    ensure_pool();
    const SEED: u64 = 5;
    const CONV_EPOCHS: usize = 8;
    let g = graph(SEED);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);

    let mut oracle = ReferenceGcn::new(&g, &cfg);
    let ref_epochs = oracle.train(CONV_EPOCHS);

    for partition in [Partition::OneD, Partition::OneFiveD] {
        for gpus in [2usize, 4] {
            for k in [0usize, 1, 2] {
                let mut opts = TrainOptions::quick(gpus);
                opts.permute = false;
                opts.partition = partition;
                opts.staleness = k;
                let (losses, _, acc) = run_n(&g, &cfg, opts, CONV_EPOCHS);
                for (e, (l, r)) in losses.iter().zip(&ref_epochs).enumerate() {
                    assert!(
                        rel_diff(*l, r.loss) < STALE_LOSS_TOL,
                        "seed={SEED} {} P={gpus} k={k} epoch {e}: loss {l} vs oracle {} \
                         (rel {:.3e} > {STALE_LOSS_TOL:.0e})",
                        partition.name(),
                        r.loss,
                        rel_diff(*l, r.loss)
                    );
                }
                let ref_acc = ref_epochs.last().expect("epochs").test_acc;
                assert!(
                    (acc - ref_acc).abs() < STALE_ACC_TOL,
                    "seed={SEED} {} P={gpus} k={k}: test acc {acc} vs oracle {ref_acc}",
                    partition.name()
                );
            }
        }
    }
}
