//! The overload study: what `mggcn cluster-bench` prints and
//! `tests/overload.rs` asserts.
//!
//! Partition the model's graph cache-aware (scored against the random
//! baseline as cross-shard k-hop fan-out bytes, §5.1 pricing), calibrate
//! the cluster's saturation capacity, then drive it at a multiple of that
//! capacity under bounded admission. Four verdicts say whether overload was
//! the designed-for state the crate docs promise: the admitted p99 met the
//! SLO, the degraded rate stayed bounded, shedding really engaged, and
//! every request was answered.

use crate::admission::AdmissionPolicy;
use crate::cluster::{Cluster, ClusterConfig, ClusterOutcome};
use crate::partition::PartitionPlan;
use crate::report::BENCH_CLUSTER_SCHEMA;
use mggcn_serve::{generate_load, LoadGenConfig, ServingModel};
use mggcn_trace::json::JsonWriter;
use mggcn_trace::Tracer;
use std::sync::Arc;

/// What to offer the cluster and what to hold it to.
#[derive(Clone, Copy, Debug)]
pub struct OverloadSpec {
    /// Offered load as a multiple of the measured saturation capacity.
    pub qps_mult: f64,
    pub requests: usize,
    pub seed: u64,
    /// Admitted-request p99 SLO, milliseconds.
    pub slo_ms: f64,
    /// Largest tolerated degraded-answer rate.
    pub max_degraded: f64,
}

/// The four pass/fail gates of the study.
#[derive(Clone, Copy, Debug)]
pub struct OverloadVerdicts {
    pub p99_ok: bool,
    pub degraded_bounded: bool,
    /// Under genuine overload the cluster must shed *something* — a zero
    /// degraded rate would mean admission control never engaged.
    pub degraded_nonzero: bool,
    pub all_answered: bool,
}

/// Everything the study measured.
pub struct OverloadStudy {
    pub cfg: ClusterConfig,
    pub spec: OverloadSpec,
    /// The cache-aware plan the cluster routed by.
    pub plan: PartitionPlan,
    /// Cross-shard fan-out bytes of the cache-aware plan…
    pub aware_bytes: u64,
    /// …and of the random baseline.
    pub random_bytes: u64,
    /// Saturation throughput, requests/second (warm caches, full batches).
    pub capacity_rps: f64,
    /// The bound the overload run was admitted under.
    pub admission: AdmissionPolicy,
    pub outcome: ClusterOutcome,
    pub verdicts: OverloadVerdicts,
}

impl OverloadStudy {
    /// Offered load of the overload run, requests/second.
    pub fn qps(&self) -> f64 {
        self.capacity_rps * self.spec.qps_mult
    }

    /// Fraction of the random plan's fan-out bytes the cache-aware plan
    /// avoids.
    pub fn reduction(&self) -> f64 {
        if self.random_bytes > 0 {
            1.0 - self.aware_bytes as f64 / self.random_bytes as f64
        } else {
            0.0
        }
    }

    /// Every gate holds; shedding is only demanded of a real overload.
    pub fn ok(&self) -> bool {
        let v = &self.verdicts;
        v.p99_ok
            && v.degraded_bounded
            && v.all_answered
            && (self.spec.qps_mult <= 1.0 || v.degraded_nonzero)
    }

    pub fn to_json(&self) -> String {
        let partition = JsonWriter::new()
            .str("strategy", self.plan.strategy)
            .u64("cross_shard_fanout_bytes", self.aware_bytes)
            .u64("random_fanout_bytes", self.random_bytes)
            .f64("reduction", self.reduction(), 4)
            .finish();
        let slo = JsonWriter::new()
            .f64("p99_ms", self.spec.slo_ms, 3)
            .f64("max_degraded_rate", self.spec.max_degraded, 4)
            .finish();
        let verdict = JsonWriter::new()
            .bool("p99_ok", self.verdicts.p99_ok)
            .bool("degraded_bounded", self.verdicts.degraded_bounded)
            .bool("degraded_nonzero", self.verdicts.degraded_nonzero)
            .bool("all_answered", self.verdicts.all_answered)
            .finish();
        JsonWriter::new()
            .str("bench", "cluster")
            .str("schema", BENCH_CLUSTER_SCHEMA)
            .usize("shards", self.cfg.shards)
            .usize("gpus_per_shard", self.cfg.gpus_per_shard)
            .f64("capacity_rps", self.capacity_rps, 1)
            .f64("qps", self.qps(), 1)
            .f64("qps_multiplier", self.spec.qps_mult, 2)
            .raw("partition", &partition)
            .raw("slo", &slo)
            .raw("result", &self.outcome.report.to_json())
            .raw("verdict", &verdict)
            .finish()
    }
}

/// Run the study on `model` with the topology, batching and cache of
/// `cfg` (its admission policy is replaced: calibration runs unbounded,
/// the overload run under a bound derived from the SLO).
pub fn overload_study(
    model: &ServingModel,
    cfg: ClusterConfig,
    spec: OverloadSpec,
    tracer: Option<Arc<Tracer>>,
) -> OverloadStudy {
    let n = model.vertices();
    let (hops, d) = (model.layers(), model.feat_dim());
    let random = PartitionPlan::random(n, cfg.shards, spec.seed);
    let adj = model.adj();
    let plan = PartitionPlan::cache_aware(&adj, cfg.shards, spec.seed);
    let (_, random_bytes) = random.fanout_bytes(&adj, hops, d);
    let (_, aware_bytes) = plan.fanout_bytes(&adj, hops, d);

    let mut cluster = Cluster::new(model, cfg.clone(), Some(&plan));
    if let Some(t) = tracer {
        cluster.set_tracer(t);
    }

    // Calibrate in two passes: a moderate pass to warm the per-shard
    // caches, then a saturating pass (arrivals far above service rate, so
    // every batch fills) whose measurement is the real steady-state
    // capacity — warm caches and full batches amortize so much that a
    // cold-cache estimate would understate capacity several-fold and the
    // "overload" run would not actually overload.
    let load = |qps: f64, requests: usize, seed: u64| {
        generate_load(&LoadGenConfig::skewed(qps, requests, n, seed))
    };
    cluster.measure_capacity(&load(10_000.0, 600, spec.seed));
    let capacity_rps = cluster.measure_capacity(&load(2.0e7, 800, spec.seed));

    // The admitted-latency bound is structural: window + max_queue_delay +
    // one batch's service.
    let max_queue_delay = (spec.slo_ms * 1e-3 * 0.5).max(cfg.policy.window);
    let admission = AdmissionPolicy::new(max_queue_delay, 4 * cfg.gpus_per_shard);
    cluster.set_admission(admission);
    let trace = load(capacity_rps * spec.qps_mult, spec.requests, spec.seed + 1);
    let outcome = cluster.serve_trace("overload", &trace);

    let verdicts = OverloadVerdicts {
        p99_ok: outcome.report.admitted_p99_ms <= spec.slo_ms,
        degraded_bounded: outcome.report.degraded_rate <= spec.max_degraded,
        degraded_nonzero: outcome.report.degraded > 0,
        all_answered: outcome.answers.len() == trace.len(),
    };
    OverloadStudy {
        cfg,
        spec,
        plan,
        aware_bytes,
        random_bytes,
        capacity_rps,
        admission,
        outcome,
        verdicts,
    }
}
