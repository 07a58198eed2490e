//! Tracing must be **observation-only**: attaching a tracer cannot change
//! a single bit of what the system computes.
//!
//! Both integration points make this claim by construction — the trainer
//! and server ingest spans strictly *after* a schedule has run, and a
//! `None` tracer records nothing — so this suite verifies it the hard
//! way: every fuzz-corpus seed is trained twice (tracer on / tracer off)
//! on **both** backends, and losses, final weights, and served logits are
//! compared with `==`. One ULP of divergence is a bug in the trace
//! integration, not noise.

use mggcn_core::checkpoint::Checkpoint;
use mggcn_dense::Dense;
use mggcn_exec::Backend;
use mggcn_serve::{BatchPolicy, ServeConfig, Server, ServingModel};
use mggcn_testkit::corpus::FuzzCase;
use mggcn_trace::Tracer;
use std::sync::Arc;

fn ensure_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if std::env::var("MGGCN_THREADS").is_err() {
            std::env::set_var("MGGCN_THREADS", "4");
        }
    });
}

struct Outcome {
    losses: Vec<f64>,
    weights: Vec<Dense>,
    served: Dense,
}

/// Train a fuzz case end-to-end and serve a few vertices, optionally with
/// a tracer attached to both the trainer and the server.
fn run(case: &FuzzCase, traced: bool) -> Outcome {
    let mut trainer = case.trainer().expect("toy problem fits");
    let tracer = traced.then(|| Arc::new(Tracer::new()));
    if let Some(t) = &tracer {
        trainer.set_tracer(t.clone());
    }
    let mut losses = Vec::new();
    for e in 0..case.epochs {
        losses.push(
            trainer
                .train_epoch()
                .unwrap_or_else(|err| panic!("epoch {e} failed [{}]: {err}", case.describe()))
                .loss,
        );
    }
    let weights = trainer.state().gpu(0).weights.clone();

    let ck = Checkpoint::from_trainer(&trainer);
    let model = ServingModel::from_checkpoint(&ck, &case.graph).expect("serving model");
    let cfg = ServeConfig::new(
        mggcn_gpusim::MachineSpec::dgx_a100(),
        BatchPolicy::new(1e-3, 16),
        1 << 20,
    );
    let mut server = Server::new(model, cfg);
    if let Some(t) = &tracer {
        server.set_tracer(t.clone());
    }
    let n = case.graph.n() as u32;
    let ids: Vec<u32> = [0, n / 2, n - 1].into_iter().filter(|&v| v < n).collect();
    let served = server.query(&ids);

    if let Some(t) = &tracer {
        // The tracer really observed the run — this differential would be
        // vacuous if the traced arm silently recorded nothing.
        assert!(t.counter("sim.timelines") > 0, "tracer saw no timelines");
        assert!(!t.chrome_trace(false).is_empty(), "tracer produced an empty export");
    }
    Outcome { losses, weights, served }
}

fn assert_identical(label: &str, on: &Outcome, off: &Outcome) {
    assert_eq!(on.losses, off.losses, "{label}: losses changed under tracing");
    assert_eq!(on.weights.len(), off.weights.len(), "{label}: layer count");
    for (l, (a, b)) in on.weights.iter().zip(&off.weights).enumerate() {
        assert_eq!(a.as_slice(), b.as_slice(), "{label}: layer {l} weights changed under tracing");
    }
    assert_eq!(
        on.served.as_slice(),
        off.served.as_slice(),
        "{label}: served logits changed under tracing"
    );
}

#[test]
fn tracing_is_observation_only_on_the_fuzz_corpus() {
    ensure_pool();
    let count: u64 =
        std::env::var("MGGCN_FUZZ_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(12);
    for backend in [Backend::Simulated, Backend::Threaded] {
        for seed in 0..count {
            let case = FuzzCase::from_seed(seed).with_backend(backend);
            if case.epochs == 0 || case.graph.n() == 0 {
                continue;
            }
            let on = run(&case, true);
            let off = run(&case, false);
            assert_identical(&format!("backend={} {}", backend.name(), case.describe()), &on, &off);
        }
    }
}

#[test]
fn tracing_is_observation_only_across_pool_widths() {
    // The threaded backend's wait instrumentation (Barrier spans) must
    // not perturb numerics at any kernel-pool width.
    ensure_pool();
    let case = FuzzCase::from_seed(3).with_backend(Backend::Threaded);
    for threads in [1usize, 4] {
        let prev = mggcn_exec::set_active_threads(threads);
        let on = run(&case, true);
        let off = run(&case, false);
        mggcn_exec::set_active_threads(prev);
        assert_identical(&format!("threads={threads}"), &on, &off);
    }
}
