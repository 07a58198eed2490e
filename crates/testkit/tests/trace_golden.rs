//! Golden-snapshot tests for the sim-clock Chrome-trace export and the
//! tracer's registry dump.
//!
//! The simulated clock is pure f64 discrete-event arithmetic, so the
//! `include_wall = false` export must be **byte-identical** run-to-run,
//! across kernel-pool widths, and across execution backends (both
//! backends run the same `simulate()`), which is what makes it safe to
//! pin as a golden. The registry dump of a `Simulated` run ingests no wall
//! span either, so every field of it — the §5.1 byte counters, the §4.2
//! watermarks and `mem_bound_ok`, the Fig 8 overlap block — is pinned the
//! same way. Wall-clock spans are real measurements and are excluded here
//! (they get schema validation instead).
//!
//! Regenerate after an intentional schedule or export change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p mggcn-testkit --test trace_golden
//! ```

use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_exec::Backend;
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_trace::Tracer;
use std::sync::Arc;

const EPOCHS: usize = 2;

/// Pin the kernel pool wide enough to sweep widths even on a 1-core CI
/// box. Must run before the first parallel kernel.
fn ensure_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if std::env::var("MGGCN_THREADS").is_err() {
            std::env::set_var("MGGCN_THREADS", "4");
        }
    });
}

/// The pinned scenario: seeded graph, 2-layer model, P = 2, 2 epochs.
fn traced_run(backend: Backend) -> Arc<Tracer> {
    let g = sbm::generate(&SbmConfig::community_benchmark(60, 3), 5);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(2);
    opts.permute = false;
    opts.backend = backend;
    let problem = Problem::from_graph(&g, &cfg, &opts);
    let mut t = Trainer::new(problem, cfg.clone(), opts).expect("fits");
    let tracer = Arc::new(Tracer::new());
    t.set_tracer(tracer.clone());
    for _ in 0..EPOCHS {
        t.train_epoch().expect("train");
    }
    tracer
}

#[test]
fn sim_clock_chrome_trace_matches_golden_and_reruns_byte_identical() {
    ensure_pool();
    let out = traced_run(Backend::Simulated).chrome_trace(false);
    mggcn_testkit::check_golden("trace_p2_sim_chrome.json", &out);
    let again = traced_run(Backend::Simulated).chrome_trace(false);
    assert_eq!(out, again, "same seeded run must export byte-identically");
}

#[test]
fn sim_clock_registry_dump_matches_golden() {
    ensure_pool();
    let out = traced_run(Backend::Simulated).bench_json();
    assert!(out.contains("\"mem_bound_ok\":true"), "L + 3 bound violated:\n{out}");
    mggcn_testkit::check_golden("trace_p2_sim_registry.json", &out);
}

#[test]
fn sim_clock_export_is_invariant_across_backends_and_pool_widths() {
    ensure_pool();
    let reference = traced_run(Backend::Simulated).chrome_trace(false);
    for threads in [1usize, 4] {
        let prev = mggcn_exec::set_active_threads(threads);
        let got = traced_run(Backend::Threaded).chrome_trace(false);
        mggcn_exec::set_active_threads(prev);
        assert_eq!(
            reference, got,
            "sim-clock chrome export diverged on the threaded backend at {threads} thread(s)"
        );
    }
}

#[test]
fn full_export_with_wall_spans_is_schema_valid() {
    ensure_pool();
    let prev = mggcn_exec::set_active_threads(2);
    let tracer = traced_run(Backend::Threaded);
    mggcn_exec::set_active_threads(prev);
    let text = tracer.chrome_trace(true);
    let summary =
        mggcn_trace::chrome::validate_chrome_trace(&text).expect("schema-valid chrome trace");
    // Wall spans double the process space (pid 1000+gpu), so the full
    // export has strictly more metadata records than the sim-only one.
    let sim_only = mggcn_trace::chrome::validate_chrome_trace(&tracer.chrome_trace(false))
        .expect("sim-only export valid");
    assert!(summary.events > sim_only.events, "wall spans missing from full export");
    assert!(summary.metas > sim_only.metas, "wall process metadata missing");
    mggcn_trace::json::parse(&tracer.bench_json()).expect("registry dump parses back");
}
