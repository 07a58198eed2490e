//! Metric names and units (a unit test holds them against
//! `BENCHMARK.json`), and the one record every run writes.

use crate::workloads::{Kind, Workload};
use mg_gcn::exec::Backend;
use mg_gcn::trace::json::{self, JsonWriter, Value};
use std::collections::BTreeMap;

pub const SCHEMA: &str = "mggcn-benchmark-v1";

/// The workloads on whose path a layer is, which is where its metrics are
/// measured. Elsewhere a traced result carries them as 0.
#[derive(Clone, Copy, PartialEq)]
pub enum Path {
    All,
    /// Full-batch training on either backend.
    Train,
    /// Training on the threaded runtime.
    Threaded,
    /// A kernel pool wider than one thread.
    Pool,
    Serve,
}

impl Path {
    fn holds(self, w: &Workload) -> bool {
        match (self, &w.kind) {
            (Path::All, _) | (Path::Train, Kind::Train(_)) | (Path::Serve, Kind::Serve(_)) => true,
            (Path::Threaded, Kind::Train(s)) => s.backend == Backend::Threaded,
            (Path::Pool, _) => w.pool_width > 1,
            _ => false,
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub path: Path,
    /// A count made by the program: it must repeat exactly for a seed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, path: Path) -> MetricDef {
    MetricDef { name, unit, path, exact: false }
}

const fn count(name: &'static str, unit: &'static str, path: Path) -> MetricDef {
    MetricDef { name, unit, path, exact: true }
}

/// What a user of the system sees; measured with tracing off. Directions
/// and bounds are `BENCHMARK.json`'s.
pub const END_TO_END: [MetricDef; 5] = [
    timing("setup_s", "s", Path::All),
    timing("step_floor_ms", "ms", Path::All),
    timing("items_per_s", "1/s", Path::All),
    timing("step_cpu_floor_ms", "ms", Path::All),
    timing("peak_rss_mib", "MiB", Path::All),
];

/// Single layers; measured by the traced run.
pub const PER_LAYER: [MetricDef; 57] = [
    timing("graph.generate_ms", "ms", Path::All),
    timing("graph.khop_us", "us", Path::Serve),
    count("graph.khop_touched", "count", Path::Serve),
    timing("sparse.spmm_ms", "ms", Path::Train),
    timing("sparse.spmm_share", "ratio", Path::Train),
    count("sparse.spmm_flops", "count", Path::Train),
    count("sparse.spmm_bytes_computed", "count", Path::Train),
    timing("sparse.spmm_gflops", "GFLOP/s", Path::Train),
    timing("sparse.spmm_rows_us", "us", Path::Serve),
    timing("dense.gemm_ms", "ms", Path::Train),
    timing("dense.gemm_share", "ratio", Path::Train),
    count("dense.gemm_flops", "count", Path::Train),
    timing("dense.gemm_gflops", "GFLOP/s", Path::Train),
    timing("dense.activation_ms", "ms", Path::Train),
    timing("comm.collective_ms", "ms", Path::Train),
    count("comm.bytes_per_epoch", "count", Path::Train),
    count("comm.calls_per_epoch", "count", Path::Train),
    timing("comm.copy_gbs", "GB/s", Path::Train),
    count("rayon.pool_width", "count", Path::Pool),
    timing("rayon.fork_join_us", "us", Path::Pool),
    timing("rayon.lane_speedup", "ratio", Path::Pool),
    timing("core.schedule_build_ms", "ms", Path::Train),
    count("core.ops_per_epoch", "count", Path::Train),
    count("core.wait_edges_per_epoch", "count", Path::Train),
    timing("core.loss_adam_ms", "ms", Path::Train),
    timing("core.problem_build_ms", "ms", Path::Train),
    count("core.big_buffer_mib", "MiB", Path::Train),
    count("core.plan_buffers", "count", Path::Train),
    timing("analyze.preflight_ms", "ms", Path::Train),
    timing("gpusim.simulate_ms", "ms", Path::Train),
    count("gpusim.sim_epoch_ms", "ms", Path::Train),
    timing("exec.execute_ms", "ms", Path::Threaded),
    timing("exec.barrier_ms", "ms", Path::Threaded),
    timing("exec.barrier_share", "ratio", Path::Threaded),
    timing("exec.overhead_share", "ratio", Path::Threaded),
    count("exec.bodies_run", "count", Path::Threaded),
    timing("exec.second_core_speedup", "ratio", Path::Threaded),
    timing("serve.read_ms", "ms", Path::Serve),
    timing("serve.delta_ms", "ms", Path::Serve),
    timing("serve.write_share", "ratio", Path::Serve),
    timing("serve.form_batches_us", "us", Path::Serve),
    count("serve.batches_per_step", "count", Path::Serve),
    count("serve.cache_hit_rate", "ratio", Path::Serve),
    count("serve.cache_insertions", "count", Path::Serve),
    count("serve.cache_evictions", "count", Path::Serve),
    count("serve.cache_invalidations", "count", Path::Serve),
    timing("serve.run_batch_p50_us", "us", Path::Serve),
    timing("serve.run_batch_p90_us", "us", Path::Serve),
    count("serve.sim_p99_ms", "ms", Path::Serve),
    timing("cluster.serve_trace_ms", "ms", Path::Serve),
    timing("cluster.route_ns", "ns", Path::Serve),
    count("cluster.shed", "count", Path::Serve),
    timing("trace.overhead_pct", "%", Path::All),
    timing("run.steps", "count", Path::All),
    timing("run.step_p50_ms", "ms", Path::All),
    timing("run.step_p90_ms", "ms", Path::All),
    timing("run.span_coverage", "ratio", Path::All),
];

pub type Metrics = BTreeMap<&'static str, f64>;

/// Everything one run reports: the envelope shared by every output, the
/// correctness checks by name, ungated diagnostics, and the metrics.
pub struct Record {
    pub workload: &'static Workload,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub steps: usize,
    pub failed: usize,
    /// Vertices and stored nonzeros of the generated graph.
    pub vertices: usize,
    pub nnz: u64,
    pub checks: BTreeMap<&'static str, bool>,
    /// Values two runs of one seed must agree on, as bit patterns.
    pub fingerprint: BTreeMap<&'static str, u64>,
    pub diagnostics: Metrics,
    pub metrics: Metrics,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.checks.values().all(|&ok| ok)
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The driver's contract: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, every value with all its digits.
    pub fn result_json(&self) -> Result<String, String> {
        let mut metrics = JsonWriter::new();
        let mut measured = 0;
        for def in self.defs() {
            let value = match (def.path.holds(self.workload), self.metrics.get(def.name)) {
                (true, Some(&value)) if value.is_finite() => value,
                (true, Some(value)) => {
                    return Err(format!("metric {} is not a number: {value}", def.name))
                }
                (true, None) => return Err(format!("metric {} was not measured", def.name)),
                (false, None) => 0.0,
                (false, Some(_)) => {
                    return Err(format!("metric {} was measured off its path", def.name))
                }
            };
            measured += usize::from(def.path.holds(self.workload));
            let body = JsonWriter::new().raw("value", &value.to_string()).str("unit", def.unit);
            metrics = metrics.raw(def.name, &body.finish());
        }
        if self.metrics.len() != measured {
            return Err("a metric outside the declared list was measured".into());
        }
        Ok(JsonWriter::new()
            .bool("correct", self.correct())
            .usize("attempted", self.steps)
            .usize("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish())
    }

    /// The envelope (ROADMAP item 1(d)) in front of the result.
    pub fn envelope(&self) -> JsonWriter {
        let (backend, gpus, feat, hidden, classes) = match &self.workload.kind {
            Kind::Train(s) => (s.backend.name(), s.gpus, s.feat, s.hidden, s.classes),
            Kind::Serve(s) => ("simulated", s.gpus, s.feat, s.hidden, s.classes),
        };
        let hidden: Vec<String> = hidden.iter().map(|h| h.to_string()).collect();
        let dims = JsonWriter::new()
            .usize("vertices", self.vertices)
            .u64("nnz", self.nnz)
            .usize("feat", feat)
            .arr("hidden", &hidden)
            .usize("classes", classes);
        JsonWriter::new()
            .str("schema", SCHEMA)
            .str("git_rev", &git_rev())
            .usize("nproc", crate::clock::nproc())
            .str("workload", self.workload.name)
            .bool("traced", self.traced)
            .usize("cpus_allowed", crate::clock::allowed_cpu_count())
            .usize("pool_width", if self.traced { self.workload.pool_width } else { 1 })
            .str("backend", backend)
            .usize("gpus", gpus)
            .raw("dims", &dims.finish())
            .u64("seed", self.seed)
            .raw("seconds", &self.seconds.to_string())
            .usize("steps", self.steps)
            .usize("warmup_steps", self.workload.warmup_steps)
    }

    /// One line: envelope, checks, fingerprint, diagnostics, result.
    pub fn record_json(&self) -> Result<String, String> {
        let mut checks = JsonWriter::new();
        for (name, ok) in &self.checks {
            checks = checks.bool(name, *ok);
        }
        let mut fingerprint = JsonWriter::new();
        for (name, bits) in &self.fingerprint {
            fingerprint = fingerprint.str(name, &format!("{bits:016x}"));
        }
        let mut diagnostics = JsonWriter::new();
        for (name, v) in &self.diagnostics {
            diagnostics = diagnostics.f64(name, *v, 6);
        }
        Ok(self
            .envelope()
            .raw("checks", &checks.finish())
            .raw("fingerprint", &fingerprint.finish())
            .raw("diagnostics", &diagnostics.finish())
            .raw("result", &self.result_json()?)
            .finish())
    }
}

/// The commit measured, or `unknown` outside a git checkout.
fn git_rev() -> String {
    static REV: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    REV.get_or_init(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    })
    .clone()
}

/// Direction and regression bound of an end-to-end metric.
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` section of `BENCHMARK.json`: what `compare` applies.
pub fn bounds(manifest: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(manifest)?;
    let listed = doc.get("end_to_end").and_then(Value::as_arr).ok_or("no end_to_end section")?;
    listed
        .iter()
        .map(|m| {
            let text =
                |k: &str| m.get(k).and_then(Value::as_str).ok_or(format!("a metric lacks {k}"));
            let name = text("name")?.to_string();
            let bound =
                m.get("bound").and_then(Value::as_num).ok_or(format!("{name} lacks bound"))?;
            Ok(Bound { name, higher_is_better: text("better")? == "higher", bound })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one place where the harness's lists meet the manifest's.
    #[test]
    fn manifest_lists_the_harness_workloads_and_metrics() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let listed = |section: &str, key: &str| -> Vec<String> {
            let items = doc.get(section).and_then(Value::as_arr).expect("a section");
            items
                .iter()
                .map(|m| m.get(key).and_then(Value::as_str).expect(key).to_string())
                .collect()
        };
        let workloads: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed("workloads", "name"), workloads);
        for (section, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            assert_eq!(listed(section, "name"), defs.iter().map(|d| d.name).collect::<Vec<_>>());
            assert_eq!(listed(section, "unit"), defs.iter().map(|d| d.unit).collect::<Vec<_>>());
        }
        let bounds = bounds(include_str!("../../BENCHMARK.json")).expect("bounds");
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
