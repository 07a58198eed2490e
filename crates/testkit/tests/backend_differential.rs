//! Backend differential suite: the threaded executor must be
//! **bit-identical** to the simulated backend, not merely close.
//!
//! Both backends replay the same deterministic linearization of the op
//! schedule (the threaded workers enforce the simulator's dependency
//! order with barriers and fences), and every parallel kernel in the
//! pool folds with a length-only chunk geometry, so there is no
//! legitimate source of divergence. Any difference — a single ULP in a
//! single weight — is a synchronization or partitioning bug, which is
//! why these tests compare with `==` rather than tolerances, across
//! GPU counts, kernel-pool widths, both §4.4 op orders, and §4.3
//! overlap on/off, plus the whole fuzz corpus.

use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_dense::Dense;
use mggcn_exec::Backend;
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_graph::Graph;

const EPOCHS: usize = 3;

/// Pin the kernel pool wide enough to sweep `--threads ∈ {1,2,4}` even
/// on a 1-core CI box. Must run before the first parallel kernel; every
/// test calls it first.
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

/// Train EPOCHS epochs and return (losses, final weights, test accuracy).
fn run(g: &Graph, cfg: &GcnConfig, opts: TrainOptions) -> (Vec<f64>, Vec<Dense>, f64) {
    let problem = Problem::from_graph(g, cfg, &opts);
    let mut t = Trainer::new(problem, cfg.clone(), opts).expect("fits");
    let reports = t.train(EPOCHS).expect("train");
    let losses = reports.iter().map(|r| r.loss).collect();
    let acc = reports.last().expect("epochs").test_acc;
    let weights = t.state().gpu(0).weights.clone();
    (losses, weights, acc)
}

fn assert_bit_identical(
    label: &str,
    (la, wa, aa): &(Vec<f64>, Vec<Dense>, f64),
    (lb, wb, ab): &(Vec<f64>, Vec<Dense>, f64),
) {
    for e in 0..EPOCHS {
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

#[test]
fn threaded_matches_simulated_across_gpu_counts_and_pool_widths() {
    ensure_pool();
    let g = graph(5);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    for gpus in [1usize, 2, 4, 8] {
        let mut opts = TrainOptions::quick(gpus);
        opts.permute = false;
        let baseline = run(&g, &cfg, opts.clone());
        for threads in [1usize, 2, 4] {
            let prev = mggcn_exec::set_active_threads(threads);
            opts.backend = Backend::Threaded;
            let threaded = run(&g, &cfg, opts.clone());
            mggcn_exec::set_active_threads(prev);
            assert_bit_identical(&format!("P={gpus}, threads={threads}"), &baseline, &threaded);
        }
    }
}

#[test]
fn threaded_matches_simulated_under_op_order_and_overlap() {
    ensure_pool();
    // hidden 64 > d(0)=32 triggers the §4.4 SpMM-first order when the
    // flag is on, so both order variants genuinely differ in schedule.
    let g = graph(11);
    let cfg = GcnConfig::new(g.features.cols(), &[64], g.classes);
    for op_order_opt in [false, true] {
        for overlap in [false, true] {
            let mut opts = TrainOptions::quick(4);
            opts.permute = false;
            opts.op_order_opt = op_order_opt;
            opts.overlap = overlap;
            let baseline = run(&g, &cfg, opts.clone());
            for threads in [1usize, 4] {
                let prev = mggcn_exec::set_active_threads(threads);
                opts.backend = Backend::Threaded;
                let threaded = run(&g, &cfg, opts.clone());
                mggcn_exec::set_active_threads(prev);
                assert_bit_identical(
                    &format!("op_order={op_order_opt}, overlap={overlap}, threads={threads}"),
                    &baseline,
                    &threaded,
                );
            }
        }
    }
}

#[test]
fn threaded_epochs_report_wall_clock_measurements() {
    ensure_pool();
    let g = graph(23);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(2);
    opts.backend = Backend::Threaded;
    let problem = Problem::from_graph(&g, &cfg, &opts);
    let mut t = Trainer::new(problem, cfg.clone(), opts).expect("fits");
    let r = t.train_epoch().expect("train");
    let m = r.measured.expect("threaded backend must measure wall time");
    assert!(m.wall_seconds > 0.0, "zero wall time");
    assert!(m.bodies_run > 0, "no bodies executed");
    assert!(!m.category_seconds.is_empty(), "per-category wall breakdown missing");
    // The simulated backend reports no measurement.
    let mut opts = TrainOptions::quick(2);
    opts.backend = Backend::Simulated;
    let problem = Problem::from_graph(&g, &cfg, &opts);
    let mut t = Trainer::new(problem, cfg, opts).expect("fits");
    assert!(t.train_epoch().expect("train").measured.is_none());
}

#[test]
fn fuzz_corpus_passes_on_the_threaded_backend() {
    ensure_pool();
    let count = std::env::var("MGGCN_FUZZ_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(25);
    let failures = mggcn_testkit::corpus::run_corpus_with(count, Backend::Threaded);
    if !failures.is_empty() {
        eprintln!("{} of {count} threaded fuzz seeds failed:", failures.len());
        for (seed, msg) in &failures {
            eprintln!("  seed {seed}: {msg}");
        }
        panic!("{} threaded fuzz failures (seeds above)", failures.len());
    }
}
