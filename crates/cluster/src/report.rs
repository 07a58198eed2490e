//! Cluster serving reports.
//!
//! [`ClusterReport`] aggregates one [`serve_trace`](crate::Cluster::serve_trace)
//! run: per-shard admission/shed/latency accounting plus cluster-wide
//! quantiles computed over the *union* of per-shard samples (merged via
//! `LatencyStats::merge`, never averaged — averaging quantiles is wrong).
//! Everything is emitted through `trace`'s shared [`JsonWriter`].

use mggcn_trace::json::JsonWriter;

/// Schema tag stamped into the `cluster-bench` document; bump on breaking
/// changes.
pub const BENCH_CLUSTER_SCHEMA: &str = "mggcn-cluster-v1";

/// One shard's share of a serving run.
#[derive(Clone, Debug)]
pub struct ShardReport {
    pub shard: u32,
    pub requests: usize,
    pub admitted: usize,
    pub degraded: usize,
    pub batches: usize,
    pub shed_batches: usize,
    /// Admitted-request latency quantiles, milliseconds.
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Simulated GPU-busy seconds on this shard's replicas.
    pub compute_seconds: f64,
    pub cache_hit_rate: f64,
}

impl ShardReport {
    pub fn to_json(&self) -> String {
        JsonWriter::new()
            .u64("shard", self.shard as u64)
            .usize("requests", self.requests)
            .usize("admitted", self.admitted)
            .usize("degraded", self.degraded)
            .usize("batches", self.batches)
            .usize("shed_batches", self.shed_batches)
            .f64("p50_ms", self.p50_ms, 4)
            .f64("p99_ms", self.p99_ms, 4)
            .f64("max_ms", self.max_ms, 4)
            .f64("compute_s", self.compute_seconds, 6)
            .f64("cache_hit_rate", self.cache_hit_rate, 4)
            .finish()
    }
}

/// Aggregate outcome of serving one trace across all shards.
#[derive(Clone, Debug, Default)]
pub struct ClusterReport {
    pub label: String,
    pub requests: usize,
    /// Requests answered exactly (admitted batches).
    pub admitted: usize,
    /// Requests answered degraded (shed batches). Every request is one or
    /// the other — the cluster never times out.
    pub degraded: usize,
    pub degraded_rate: f64,
    /// Last answer time minus first arrival, seconds.
    pub duration: f64,
    pub throughput_rps: f64,
    /// Admitted-request latency, milliseconds.
    pub admitted_mean_ms: f64,
    pub admitted_p50_ms: f64,
    pub admitted_p95_ms: f64,
    pub admitted_p99_ms: f64,
    pub admitted_max_ms: f64,
    /// Degraded-answer latency (bounded by window + degraded cost).
    pub degraded_p99_ms: f64,
    pub degraded_max_ms: f64,
    pub compute_seconds: f64,
    /// Shed batch counts by tripped bound.
    pub shed_queue_delay: usize,
    pub shed_inflight: usize,
    /// Batches forced degraded by an injected shard/cache-node fault
    /// (always 0 outside chaos runs).
    pub shed_fault: usize,
    pub shards: Vec<ShardReport>,
}

impl ClusterReport {
    /// The all-zero report an empty trace produces.
    pub fn zero(label: &str) -> Self {
        Self { label: label.to_string(), ..Default::default() }
    }

    pub fn to_json(&self) -> String {
        let admitted_ms = JsonWriter::new()
            .f64("mean", self.admitted_mean_ms, 4)
            .f64("p50", self.admitted_p50_ms, 4)
            .f64("p95", self.admitted_p95_ms, 4)
            .f64("p99", self.admitted_p99_ms, 4)
            .f64("max", self.admitted_max_ms, 4)
            .finish();
        let degraded_ms = JsonWriter::new()
            .f64("p99", self.degraded_p99_ms, 4)
            .f64("max", self.degraded_max_ms, 4)
            .finish();
        let shed = JsonWriter::new()
            .usize("queue_delay", self.shed_queue_delay)
            .usize("inflight", self.shed_inflight)
            .usize("fault", self.shed_fault)
            .finish();
        let shards: Vec<String> = self.shards.iter().map(ShardReport::to_json).collect();
        JsonWriter::new()
            .str("label", &self.label)
            .usize("requests", self.requests)
            .usize("admitted", self.admitted)
            .usize("degraded", self.degraded)
            .f64("degraded_rate", self.degraded_rate, 4)
            .f64("duration_s", self.duration, 6)
            .f64("throughput_rps", self.throughput_rps, 1)
            .raw("admitted_latency_ms", &admitted_ms)
            .raw("degraded_latency_ms", &degraded_ms)
            .f64("compute_s", self.compute_seconds, 6)
            .raw("shed_batches", &shed)
            .arr("shards", &shards)
            .finish()
    }

    pub fn render(&self) -> String {
        format!(
            "{:<18} {:>6} req ({} exact, {} degraded = {:>5.1}%) | {:>9.0} rps | \
             admitted p50 {:>7.3}ms p99 {:>7.3}ms max {:>7.3}ms | degraded p99 {:>6.3}ms | \
             shed {}q+{}i",
            self.label,
            self.requests,
            self.admitted,
            self.degraded,
            self.degraded_rate * 100.0,
            self.throughput_rps,
            self.admitted_p50_ms,
            self.admitted_p99_ms,
            self.admitted_max_ms,
            self.degraded_p99_ms,
            self.shed_queue_delay,
            self.shed_inflight,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_trace::json;

    #[test]
    fn zero_report_json_parses_back() {
        let r = ClusterReport::zero("empty");
        let v = json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("label").and_then(json::Value::as_str), Some("empty"));
        assert_eq!(v.get("requests").unwrap().as_num(), Some(0.0));
    }
}
