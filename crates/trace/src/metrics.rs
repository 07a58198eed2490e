//! Counters, gauges, and histograms with deterministic JSON export.
//!
//! Keys are flat dotted strings (`sim.bcast.bytes.stage.00001`); storage
//! is `BTreeMap` so serialization order — and therefore the exported
//! registry dump — is stable across runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default histogram buckets for latencies in seconds: decades from 1µs
/// to 1s (plus the implicit overflow bucket).
pub const LATENCY_BOUNDS: [f64; 7] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

/// A fixed-bucket histogram. `counts` has one slot per bound plus an
/// overflow slot.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    max: f64,
}

impl Histogram {
    pub fn new(bounds: &[f64]) -> Self {
        Self { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0, max: 0.0 }
    }

    pub fn record(&mut self, v: f64) {
        let slot = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Deterministic f64 → JSON number (shortest round-trip form; non-finite
/// values cannot occur in exported metrics, but degrade to 0 defensively).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The registry: three flat, independently-keyed metric families.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters whose key starts with `prefix`, in key order.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Accumulating gauge (busy-seconds style).
    pub fn gauge_add(&mut self, name: &str, delta: f64) {
        *self.gauges.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// High-watermark gauge: keeps the maximum ever observed.
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        let slot = self.gauges.entry(name.to_string()).or_insert(f64::NEG_INFINITY);
        *slot = slot.max(v);
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn gauges_with_prefix(&self, prefix: &str) -> Vec<(String, f64)> {
        self.gauges
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    pub fn histogram_record(&mut self, name: &str, v: f64, bounds: &[f64]) {
        self.histograms.entry(name.to_string()).or_insert_with(|| Histogram::new(bounds)).record(v);
    }

    /// Serialize the whole registry as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{k}\":{v}").expect("write to string");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{k}\":{}", json_f64(*v)).expect("write to string");
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let bounds: Vec<String> = h.bounds().iter().map(|b| json_f64(*b)).collect();
            let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
            write!(
                out,
                "\"{k}\":{{\"bounds\":[{}],\"counts\":[{}],\"count\":{},\"sum\":{},\"max\":{}}}",
                bounds.join(","),
                counts.join(","),
                h.count(),
                json_f64(h.sum()),
                json_f64(h.max())
            )
            .expect("write to string");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a.b", 3);
        m.counter_add("a.b", 4);
        m.counter_add("a.c", 1);
        assert_eq!(m.counter("a.b"), 7);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(
            m.counters_with_prefix("a."),
            vec![("a.b".to_string(), 7), ("a.c".to_string(), 1)]
        );
    }

    #[test]
    fn gauge_semantics() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("x", 2.0);
        m.gauge_set("x", 1.0);
        assert_eq!(m.gauge("x"), Some(1.0));
        m.gauge_max("hw", 5.0);
        m.gauge_max("hw", 3.0);
        assert_eq!(m.gauge("hw"), Some(5.0));
        m.gauge_add("busy", 0.25);
        m.gauge_add("busy", 0.25);
        assert_eq!(m.gauge("busy"), Some(0.5));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5);
        h.record(5.0);
        h.record(50.0);
        assert_eq!(h.counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 55.5 / 3.0).abs() < 1e-12);
        assert_eq!(h.max(), 50.0);
    }

    #[test]
    fn json_is_deterministic_and_parseable() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z", 1);
        m.counter_add("a", 2);
        m.gauge_set("g", 0.5);
        m.histogram_record("h", 2e-5, &LATENCY_BOUNDS);
        let a = m.to_json();
        let b = m.to_json();
        assert_eq!(a, b);
        let v = crate::json::parse(&a).expect("valid json");
        assert_eq!(v.get("counters").unwrap().get("a").unwrap().as_num(), Some(2.0));
        assert_eq!(v.get("gauges").unwrap().get("g").unwrap().as_num(), Some(0.5));
        let h = v.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_num(), Some(1.0));
    }
}
