//! mggcn-trace — structured tracing and metrics for the MG-GCN repro.
//!
//! The paper's headline claims are *observable* properties: the `L + 3`
//! big-buffer bound (§4.2, Fig 12), per-stage broadcast volume (§5.1) and
//! the comm/comp overlap timeline (Fig 8). This crate collects the
//! evidence in one place:
//!
//! * **Typed spans** over two clock domains — the DES's simulated clock
//!   ([`Clock::Sim`], from `gpusim` timelines) and the threaded backend's
//!   measured wall clock ([`Clock::Wall`], from `mggcn-exec` spans,
//!   including `Barrier` rendezvous waits) — exported together as Chrome
//!   `chrome://tracing` JSON ([`chrome::chrome_trace`]).
//! * **A metrics registry** (counters / gauges / histograms,
//!   [`metrics::MetricsRegistry`]) serialized by [`Tracer::bench_json`]
//!   (`mggcn trace --out`).
//! * **Derived metrics**: per-GPU memory high-watermark checked against
//!   `memplan`'s `L + 3` bound, per-stage broadcast bytes checked against
//!   `comm::analysis` closed forms, and the Fig 8 overlap-efficiency
//!   ratio ([`derive::Overlap`]).
//!
//! Tracing is **observation-only and zero-cost when disabled**: span sources
//! hold an `Option<Arc<Tracer>>` and ingest *after* a schedule has run,
//! reading completed timelines — never touching schedule construction,
//! numerics, or op ordering. With `None` there is no tracer call at all.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod derive;
pub mod json;
pub mod metrics;

use derive::Overlap;
use metrics::{json_f64, MetricsRegistry, LATENCY_BOUNDS};
use mggcn_exec::WallSpan;
use mggcn_gpusim::{Category, MachineSpec, Timeline};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Schema tag stamped into [`Tracer::bench_json`]'s document.
pub const BENCH_TRACE_SCHEMA: &str = "mggcn-trace-v1";

/// Which clock a span was measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Clock {
    /// The DES's simulated time (deterministic, machine-model seconds).
    Sim,
    /// Real wall-clock offsets measured by the threaded backend.
    Wall,
}

/// One recorded span, in either clock domain. Times are seconds from the
/// tracer's epoch; successive ingests concatenate end-to-end so a multi-
/// epoch training run renders as one continuous timeline.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpan {
    pub clock: Clock,
    pub gpu: usize,
    pub stream: usize,
    pub category: Category,
    pub stage: Option<usize>,
    pub label: &'static str,
    pub start: f64,
    pub end: f64,
    /// Bytes moved (collective payloads, kernel memory traffic); 0 when
    /// unknown or not applicable.
    pub bytes: f64,
    /// Count of logical buffers the op declared reading; 0 when
    /// unannotated (and for measured wall spans, which carry no effects).
    pub reads: u32,
    /// Count of logical buffers the op declared writing; 0 when
    /// unannotated.
    pub writes: u32,
}

#[derive(Debug, Default)]
struct Inner {
    sim_spans: Vec<TraceSpan>,
    wall_spans: Vec<TraceSpan>,
    metrics: MetricsRegistry,
    overlap: Overlap,
    /// Clock cursors: where the next ingested timeline/run starts.
    sim_cursor: f64,
    wall_cursor: f64,
}

/// The collector. Shared as `Arc<Tracer>`; all methods take `&self`
/// (interior mutability), so one tracer can observe a trainer and a
/// server at once.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ingest one completed simulated timeline (one schedule run) of a
    /// schedule on `machine`. Spans are shifted onto the tracer's
    /// continuous sim clock; byte counters are deduplicated by op id
    /// (collectives span every lane but move their payload once) and split
    /// into `sim.comm.bytes.intra_node` / `sim.comm.bytes.inter_node` by
    /// whether each op's participant GPUs span a node boundary of
    /// `machine`.
    pub fn ingest_sim_timeline(&self, tl: &Timeline, makespan: f64, machine: &MachineSpec) {
        // Collectives span one lane per participant; gather each comm op's
        // GPU set first so node-crossing is judged on the full group.
        let mut op_gpus: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for s in &tl.spans {
            if s.category == Category::Comm {
                let gpus = op_gpus.entry(s.op).or_default();
                if !gpus.contains(&s.gpu) {
                    gpus.push(s.gpu);
                }
            }
        }
        let mut inner = self.lock();
        let at = inner.sim_cursor;
        let mut seen_ops: BTreeSet<usize> = BTreeSet::new();
        for s in &tl.spans {
            inner.sim_spans.push(TraceSpan {
                clock: Clock::Sim,
                gpu: s.gpu,
                stream: s.stream,
                category: s.category,
                stage: s.stage,
                label: s.label,
                start: at + s.start,
                end: at + s.end,
                bytes: s.bytes,
                reads: s.reads,
                writes: s.writes,
            });
            inner
                .metrics
                .gauge_add(&format!("sim.busy_seconds.{}", s.category.name()), s.duration());
            if s.category == Category::Comm && seen_ops.insert(s.op) {
                let bytes = s.bytes.round() as u64;
                inner.metrics.counter_add("sim.comm.bytes.total", bytes);
                let key = if machine.crosses_nodes(&op_gpus[&s.op]) {
                    "sim.comm.bytes.inter_node"
                } else {
                    "sim.comm.bytes.intra_node"
                };
                inner.metrics.counter_add(key, bytes);
                if let Some(stage) = s.stage {
                    inner.metrics.counter_add(&format!("sim.bcast.bytes.stage.{stage:05}"), bytes);
                    inner.metrics.counter_add("sim.bcast.bytes.total", bytes);
                }
            }
        }
        let overlap = derive::overlap_of_timeline(tl);
        inner.overlap.accumulate(overlap);
        inner.metrics.gauge_add("sim.overlap.comm_seconds", overlap.comm_seconds);
        inner.metrics.gauge_add("sim.overlap.hidden_seconds", overlap.hidden_seconds);
        // Fused bounded-staleness timelines (epoch-tagged spans, DESIGN
        // §15) additionally report broadcast-hidden time per epoch, plus
        // the NIC (node-crossing) slice. Untagged
        // timelines write none of these, so every pre-staleness trace
        // artifact is byte-identical.
        let epochs: BTreeSet<usize> = tl.spans.iter().filter_map(|s| s.epoch).collect();
        if !epochs.is_empty() {
            let nic_ops: BTreeSet<usize> = op_gpus
                .iter()
                .filter(|(_, gpus)| machine.crosses_nodes(gpus))
                .map(|(&op, _)| op)
                .collect();
            for &e in &epochs {
                let o = derive::overlap_of_epoch_comm(tl, e, None);
                inner
                    .metrics
                    .gauge_add(&format!("sim.overlap.epoch{e:05}.comm_seconds"), o.comm_seconds);
                inner.metrics.gauge_add(
                    &format!("sim.overlap.epoch{e:05}.hidden_seconds"),
                    o.hidden_seconds,
                );
                let n = derive::overlap_of_epoch_comm(tl, e, Some(&nic_ops));
                inner.metrics.gauge_add(
                    &format!("sim.overlap.epoch{e:05}.nic_comm_seconds"),
                    n.comm_seconds,
                );
                inner.metrics.gauge_add(
                    &format!("sim.overlap.epoch{e:05}.nic_hidden_seconds"),
                    n.hidden_seconds,
                );
            }
        }
        inner.metrics.counter_add("sim.timelines", 1);
        inner.sim_cursor += makespan;
    }

    /// Ingest the threaded backend's measured spans for one run (body
    /// spans plus `Barrier` waits).
    pub fn ingest_wall_spans(&self, spans: &[WallSpan], wall_seconds: f64) {
        let mut inner = self.lock();
        let at = inner.wall_cursor;
        for s in spans {
            inner.wall_spans.push(TraceSpan {
                clock: Clock::Wall,
                gpu: s.gpu,
                stream: s.stream,
                category: s.category,
                stage: None,
                label: s.label,
                start: at + s.start,
                end: at + s.end(),
                bytes: 0.0,
                reads: 0,
                writes: 0,
            });
            inner.metrics.gauge_add(&format!("wall.busy_seconds.{}", s.category.name()), s.seconds);
        }
        inner.metrics.counter_add("wall.runs", 1);
        inner.wall_cursor += wall_seconds;
    }

    /// Record one GPU's big-buffer allocation size; the gauge keeps the
    /// high-watermark (checked against memplan's `L + 3` bound).
    pub fn record_memory(&self, gpu: usize, bytes: u64) {
        self.lock()
            .metrics
            .gauge_max(&format!("mem.high_watermark_bytes.gpu{gpu:03}"), bytes as f64);
    }

    /// Record the planned per-GPU big-buffer budget (`(L + 3)·n_p·d·4`).
    pub fn set_memory_bound(&self, bytes: u64) {
        self.lock().metrics.gauge_set("mem.plan.big_buffers_bytes", bytes as f64);
    }

    pub fn counter_add(&self, name: &str, delta: u64) {
        self.lock().metrics.counter_add(name, delta);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.lock().metrics.counter(name)
    }

    pub fn gauge_set(&self, name: &str, v: f64) {
        self.lock().metrics.gauge_set(name, v);
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().metrics.gauge(name)
    }

    /// Record a latency observation (seconds) into a decade-bucket
    /// histogram.
    pub fn latency_record(&self, name: &str, seconds: f64) {
        self.lock().metrics.histogram_record(name, seconds, &LATENCY_BOUNDS);
    }

    /// Accumulated per-stage broadcast bytes (`sim.bcast.bytes.stage.*`),
    /// indexed by stage. Missing stages read as 0.
    pub fn broadcast_stage_bytes(&self) -> Vec<u64> {
        let inner = self.lock();
        let entries = inner.metrics.counters_with_prefix("sim.bcast.bytes.stage.");
        let mut out = Vec::new();
        for (key, v) in entries {
            let idx: usize = key
                .rsplit('.')
                .next()
                .and_then(|t| t.parse().ok())
                .expect("stage counter key ends in an index");
            if idx >= out.len() {
                out.resize(idx + 1, 0);
            }
            out[idx] += v;
        }
        out
    }

    /// Per-GPU memory high-watermarks recorded so far.
    pub fn memory_high_watermarks(&self) -> Vec<(usize, u64)> {
        let inner = self.lock();
        inner
            .metrics
            .gauges_with_prefix("mem.high_watermark_bytes.gpu")
            .into_iter()
            .map(|(key, v)| {
                let idx: usize = key
                    .rsplit("gpu")
                    .next()
                    .and_then(|t| t.parse().ok())
                    .expect("watermark key ends in a gpu index");
                (idx, v.round() as u64)
            })
            .collect()
    }

    /// Does every recorded high-watermark fit the planned budget?
    /// `None` until both sides have been recorded.
    pub fn memory_bound_ok(&self) -> Option<bool> {
        let bound = self.gauge("mem.plan.big_buffers_bytes")?;
        let marks = self.memory_high_watermarks();
        if marks.is_empty() {
            return None;
        }
        Some(marks.iter().all(|&(_, bytes)| bytes as f64 <= bound))
    }

    /// Accumulated comm/compute overlap across every ingested timeline.
    pub fn overlap(&self) -> Overlap {
        self.lock().overlap
    }

    /// Render the Chrome trace. `include_wall = false` gives the
    /// simulated-clock-only export, which is byte-identical across kernel
    /// pool widths and backends (the golden-test form).
    pub fn chrome_trace(&self, include_wall: bool) -> String {
        let inner = self.lock();
        let wall: &[TraceSpan] = if include_wall { &inner.wall_spans } else { &[] };
        chrome::chrome_trace(&inner.sim_spans, wall)
    }

    /// Serialize the registry plus derived metrics as one JSON document
    /// (schema [`BENCH_TRACE_SCHEMA`]). Deterministic as long as no wall
    /// span was ingested: the simulated-clock form is pinned as a golden.
    pub fn bench_json(&self) -> String {
        let overlap = self.overlap();
        let bound_ok = self.memory_bound_ok();
        let inner = self.lock();
        let mut out = String::from("{\"bench\":\"trace\",");
        write!(out, "\"schema\":\"{BENCH_TRACE_SCHEMA}\",").expect("write to string");
        write!(out, "\"metrics\":{},", inner.metrics.to_json()).expect("write to string");
        write!(
            out,
            "\"derived\":{{\"overlap_efficiency\":{},\"comm_seconds\":{},\
             \"hidden_comm_seconds\":{},\"mem_bound_ok\":{},\
             \"sim_seconds\":{},\"wall_seconds\":{}}}}}",
            json_f64(overlap.efficiency()),
            json_f64(overlap.comm_seconds),
            json_f64(overlap.hidden_seconds),
            match bound_ok {
                Some(ok) => ok.to_string(),
                None => "null".into(),
            },
            json_f64(inner.sim_cursor),
            json_f64(inner.wall_cursor),
        )
        .expect("write to string");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_gpusim::Span;

    fn tl() -> Timeline {
        Timeline {
            spans: vec![
                Span {
                    gpu: 0,
                    stream: 0,
                    category: Category::SpMM,
                    stage: Some(0),
                    label: "spmm",
                    start: 0.0,
                    end: 2.0,
                    op: 1,
                    bytes: 0.0,
                    reads: 0,
                    writes: 0,
                    epoch: None,
                },
                // One collective on two lanes: bytes must count once.
                Span {
                    gpu: 0,
                    stream: 1,
                    category: Category::Comm,
                    stage: Some(0),
                    label: "bcast-H",
                    start: 0.0,
                    end: 1.0,
                    op: 2,
                    bytes: 400.0,
                    reads: 0,
                    writes: 0,
                    epoch: None,
                },
                Span {
                    gpu: 1,
                    stream: 1,
                    category: Category::Comm,
                    stage: Some(0),
                    label: "bcast-H",
                    start: 0.0,
                    end: 1.0,
                    op: 2,
                    bytes: 400.0,
                    reads: 0,
                    writes: 0,
                    epoch: None,
                },
                Span {
                    gpu: 1,
                    stream: 1,
                    category: Category::Comm,
                    stage: Some(1),
                    label: "bcast-H",
                    start: 1.0,
                    end: 1.5,
                    op: 3,
                    bytes: 120.0,
                    reads: 0,
                    writes: 0,
                    epoch: None,
                },
            ],
        }
    }

    #[test]
    fn collective_bytes_count_once_per_op() {
        let t = Tracer::new();
        t.ingest_sim_timeline(&tl(), 2.0, &MachineSpec::dgx_a100());
        assert_eq!(t.broadcast_stage_bytes(), vec![400, 120]);
        assert_eq!(t.counter("sim.bcast.bytes.total"), 520);
        assert_eq!(t.counter("sim.comm.bytes.total"), 520);
    }

    #[test]
    fn node_aware_ingest_splits_intra_and_inter_bytes() {
        use mggcn_gpusim::GpuSpec;
        // 2 nodes × 2 GPUs: op 2 spans GPUs {0,1} (node 0, intra) and op 3
        // runs on GPU 1 alone (intra by definition).
        let m = MachineSpec::hier_cluster("2x2", GpuSpec::a100(), 2, 2, 12, 25.0e9, 12.5e9);
        let t = Tracer::new();
        t.ingest_sim_timeline(&tl(), 2.0, &m);
        assert_eq!(t.counter("sim.comm.bytes.intra_node"), 520);
        assert_eq!(t.counter("sim.comm.bytes.inter_node"), 0);
        // The split leaves the totals as they are.
        assert_eq!(t.counter("sim.comm.bytes.total"), 520);
        assert_eq!(t.broadcast_stage_bytes(), vec![400, 120]);

        // Move op 2's second lane to GPU 2 (node 1): its 400 bytes become
        // inter-node; op 3's 120 stay intra.
        let mut cross = tl();
        cross.spans[2].gpu = 2;
        let t2 = Tracer::new();
        t2.ingest_sim_timeline(&cross, 2.0, &m);
        assert_eq!(t2.counter("sim.comm.bytes.inter_node"), 400);
        assert_eq!(t2.counter("sim.comm.bytes.intra_node"), 120);
        assert_eq!(t2.counter("sim.comm.bytes.total"), 520);
    }

    #[test]
    fn epochs_concatenate_on_the_sim_clock() {
        let t = Tracer::new();
        t.ingest_sim_timeline(&tl(), 2.0, &MachineSpec::dgx_a100());
        t.ingest_sim_timeline(&tl(), 2.0, &MachineSpec::dgx_a100());
        assert_eq!(t.counter("sim.timelines"), 2);
        // Second epoch's stage-0 bytes accumulate.
        assert_eq!(t.broadcast_stage_bytes(), vec![800, 240]);
        let trace = t.chrome_trace(false);
        // Second epoch's spmm starts at sim cursor 2.0 -> ts 2e6 us.
        assert!(trace.contains("\"ts\":2000000.000"), "{trace}");
        chrome::validate_chrome_trace(&trace).expect("schema-valid");
    }

    #[test]
    fn memory_watermark_and_bound() {
        let t = Tracer::new();
        assert_eq!(t.memory_bound_ok(), None);
        t.set_memory_bound(1000);
        assert_eq!(t.memory_bound_ok(), None);
        t.record_memory(0, 900);
        t.record_memory(1, 800);
        t.record_memory(1, 700); // watermark keeps 800
        assert_eq!(t.memory_high_watermarks(), vec![(0, 900), (1, 800)]);
        assert_eq!(t.memory_bound_ok(), Some(true));
        t.record_memory(2, 1001);
        assert_eq!(t.memory_bound_ok(), Some(false));
    }

    #[test]
    fn bench_json_parses_back_with_its_derived_block() {
        let t = Tracer::new();
        t.ingest_sim_timeline(&tl(), 2.0, &MachineSpec::dgx_a100());
        t.set_memory_bound(1000);
        t.record_memory(0, 500);
        t.latency_record("serve.latency_seconds", 3e-4);
        let v = json::parse(&t.bench_json()).expect("valid JSON");
        assert_eq!(v.get("schema").and_then(json::Value::as_str), Some(BENCH_TRACE_SCHEMA));
        assert!(v.get("metrics").and_then(|m| m.get("histograms")).is_some());
        assert_eq!(v.get("derived").unwrap().get("mem_bound_ok"), Some(&json::Value::Bool(true)));
    }

    #[test]
    fn wall_spans_ingest_under_their_own_clock() {
        let t = Tracer::new();
        let spans = [
            WallSpan {
                gpu: 0,
                stream: 0,
                category: Category::GeMM,
                label: "gemm",
                start: 0.0,
                seconds: 0.25,
            },
            WallSpan {
                gpu: 1,
                stream: 0,
                category: Category::Barrier,
                label: "gemm",
                start: 0.0,
                seconds: 0.25,
            },
        ];
        t.ingest_wall_spans(&spans, 0.3);
        assert_eq!(t.counter("wall.runs"), 1);
        assert_eq!(t.gauge("wall.busy_seconds.Barrier"), Some(0.25));
        let trace = t.chrome_trace(true);
        assert!(trace.contains("GPU 0 (wall)"));
        // Sim-only export omits them.
        assert!(!t.chrome_trace(false).contains("(wall)"));
    }

    #[test]
    fn overlap_accumulates_across_timelines() {
        let t = Tracer::new();
        t.ingest_sim_timeline(&tl(), 2.0, &MachineSpec::dgx_a100());
        let o = t.overlap();
        // GPU0 comm [0,1] hidden under spmm [0,2]; GPU1 comm [0,1.5] exposed.
        assert!((o.comm_seconds - 2.5).abs() < 1e-12);
        assert!((o.hidden_seconds - 1.0).abs() < 1e-12);
    }
}
