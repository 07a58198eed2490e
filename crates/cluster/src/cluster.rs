//! The sharded serving front end: routing, per-shard batching + admission,
//! load shedding, and cluster-wide latency accounting.
//!
//! A [`Cluster`] is `P` shards, each a full [`serve::Server`] replica set
//! (model weights and graph are `Arc`-shared, so replication is cheap).
//! The [`Router`] homes every vertex on one shard — by cache-aware
//! [`PartitionPlan`] when one is installed, by consistent-hash ring
//! otherwise (and for any vertex outside the plan, e.g. after growth) —
//! so each shard's propagation cache only ever holds rows for its own
//! residents and the hot set it actually serves.
//!
//! [`Cluster::serve_trace`] runs an arrival-ordered request trace to
//! completion on the simulated clock: per shard, requests micro-batch
//! under the shared [`BatchPolicy`], each closed batch passes the
//! [`AdmissionPolicy`] (bounded queue delay, bounded inflight), admitted
//! batches execute on the earliest-free replica GPU via
//! [`Server::run_batch`] (bit-identical to the single-replica oracle),
//! and shed batches get immediate **degraded** answers from
//! [`Server::degraded_answer`] — tagged, deterministic, fixed cost, never
//! a timeout. Every request is answered exactly once; the latency of an
//! admitted request is bounded by `window + max_queue_delay + batch
//! service`, which is what makes the p99 SLO a construction property
//! rather than a tuning accident.

use crate::admission::{AdmissionPolicy, ShedReason, Verdict};
use crate::partition::PartitionPlan;
use crate::report::{ClusterReport, ShardReport};
use crate::ring::HashRing;
use mggcn_exec::Backend;
use mggcn_gpusim::{GpuSpec, LatencyStats, MachineSpec};
use mggcn_sched::{Action, Component, DispatchSite, EventQueue, Injector, Scheduler};
use mggcn_serve::{form_batches, Batch, BatchPolicy, Request, ServeConfig, Server, ServingModel};
use mggcn_trace::Tracer;
use std::sync::Arc;

/// Cluster-wide configuration: topology, batching, admission, fallback.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    pub shards: usize,
    pub gpus_per_shard: usize,
    pub policy: BatchPolicy,
    /// Per-shard propagation-cache budget, bytes.
    pub cache_bytes: usize,
    pub admission: AdmissionPolicy,
    pub backend: Backend,
    /// Virtual nodes per shard on the routing ring.
    pub vnodes: usize,
    /// Fixed host-side cost of one degraded answer, seconds.
    pub degraded_cost: f64,
}

impl ClusterConfig {
    pub fn new(shards: usize, gpus_per_shard: usize, policy: BatchPolicy) -> Self {
        assert!(shards >= 1, "cluster needs at least one shard");
        assert!(gpus_per_shard >= 1, "each shard needs at least one replica GPU");
        Self {
            shards,
            gpus_per_shard,
            policy,
            cache_bytes: 1 << 20,
            admission: AdmissionPolicy::unbounded(),
            backend: Backend::Simulated,
            vnodes: 64,
            degraded_cost: 20.0e-6,
        }
    }

    /// The per-shard machine: `gpus_per_shard` A100s behind NVSwitch.
    pub fn shard_machine(&self) -> MachineSpec {
        MachineSpec::uniform("shard", GpuSpec::a100(), self.gpus_per_shard, 12, 25.0e9)
    }
}

/// Routes a vertex to its home shard: partition plan first, hash ring for
/// anything the plan does not cover (or when no plan is installed).
#[derive(Clone, Debug)]
pub struct Router {
    ring: HashRing,
    assignment: Option<Vec<u32>>,
}

impl Router {
    /// Pure consistent-hash routing.
    pub fn hash_only(shards: usize, vnodes: usize) -> Self {
        Self { ring: HashRing::new(shards, vnodes), assignment: None }
    }

    /// Plan-backed routing with the ring as fallback for out-of-plan keys.
    pub fn with_plan(plan: &PartitionPlan, vnodes: usize) -> Self {
        Self { ring: HashRing::new(plan.shards, vnodes), assignment: Some(plan.assignment.clone()) }
    }

    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The home shard of `vertex`.
    pub fn route(&self, vertex: u32) -> u32 {
        if let Some(a) = &self.assignment {
            if let Some(&shard) = a.get(vertex as usize) {
                return shard;
            }
        }
        self.ring.shard_of(vertex as u64)
    }
}

/// One answered request. Exactly one answer exists per request id;
/// `degraded` distinguishes the exact batched path from the shed
/// fallback, and `from_cache` says whether a degraded answer used the
/// cached layer-0 aggregation row (vs. the raw feature row).
#[derive(Clone, Debug)]
pub struct Answer {
    pub id: u64,
    pub vertex: u32,
    pub shard: u32,
    pub row: Vec<f32>,
    pub degraded: bool,
    pub from_cache: bool,
    /// Answer time minus arrival, seconds on the simulated clock.
    pub latency: f64,
}

/// The full outcome of one trace: every answer plus the aggregate report.
pub struct ClusterOutcome {
    pub answers: Vec<Answer>,
    pub report: ClusterReport,
}

/// A sharded multi-replica serving cluster.
pub struct Cluster {
    shards: Vec<Server>,
    router: Router,
    cfg: ClusterConfig,
    tracer: Option<Arc<Tracer>>,
}

impl Cluster {
    /// Build a cluster of full replicas of `model`. With a partition plan
    /// the router homes vertices cache-aware; without one it hashes.
    pub fn new(model: &ServingModel, cfg: ClusterConfig, plan: Option<&PartitionPlan>) -> Self {
        if let Some(p) = plan {
            assert_eq!(p.shards, cfg.shards, "plan shard count must match the cluster");
        }
        let router = match plan {
            Some(p) => Router::with_plan(p, cfg.vnodes),
            None => Router::hash_only(cfg.shards, cfg.vnodes),
        };
        let shards = (0..cfg.shards)
            .map(|_| {
                let mut sc = ServeConfig::new(cfg.shard_machine(), cfg.policy, cfg.cache_bytes);
                sc.backend = cfg.backend;
                Server::new(model.clone(), sc)
            })
            .collect();
        Self { shards, router, cfg, tracer: None }
    }

    pub fn router(&self) -> &Router {
        &self.router
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn shard(&self, id: usize) -> &Server {
        &self.shards[id]
    }

    /// Override the admission policy (capacity calibration runs unbounded,
    /// the overload run bounded).
    pub fn set_admission(&mut self, policy: AdmissionPolicy) {
        self.cfg.admission = policy;
    }

    /// Attach a tracer: cluster routing/shed counters and latency
    /// histograms, plus every shard's batch timelines.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        for s in &mut self.shards {
            s.set_tracer(tracer.clone());
        }
        self.tracer = Some(tracer);
    }

    /// Serve an arrival-ordered trace to completion. Every request gets
    /// exactly one answer — exact (admitted) or degraded (shed) — and the
    /// returned answers are sorted by request id.
    pub fn serve_trace(&mut self, label: &str, requests: &[Request]) -> ClusterOutcome {
        self.serve_trace_chaos(label, requests, &Injector::none())
    }

    /// [`serve_trace`](Self::serve_trace) under fault injection. Each
    /// shard's batch loop is a scheduler [`Component`] ([`ShardSweep`]),
    /// run shard-major so the fault-free path stays bit-identical to the
    /// legacy sequential sweep. The injector can defer batches
    /// (preemption) or take a shard down — shard loss forces tagged
    /// degraded answers with a fixed host-side cost (never a timeout) and
    /// drops the dead shard's propagation cache (cache-node loss).
    pub fn serve_trace_chaos(
        &mut self,
        label: &str,
        requests: &[Request],
        inj: &Injector,
    ) -> ClusterOutcome {
        if requests.is_empty() {
            return ClusterOutcome { answers: Vec::new(), report: ClusterReport::zero(label) };
        }
        for w in requests.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "requests must be arrival-sorted");
        }

        // Route: per-shard sub-traces keep global arrival order.
        let mut per_shard: Vec<Vec<Request>> = vec![Vec::new(); self.cfg.shards];
        for r in requests {
            let shard = self.router.route(r.vertex);
            per_shard[shard as usize].push(*r);
        }

        let mut answers: Vec<Answer> = Vec::with_capacity(requests.len());
        let mut shard_reports: Vec<ShardReport> = Vec::with_capacity(self.cfg.shards);
        let mut cluster_admitted = LatencyStats::new();
        let mut cluster_degraded = LatencyStats::new();
        let mut compute_seconds = 0.0f64;
        let mut shed_queue_delay = 0usize;
        let mut shed_inflight = 0usize;
        let mut shed_fault = 0usize;
        let mut last_answer = 0.0f64;

        for (sid, shard_reqs) in per_shard.iter().enumerate() {
            if let Some(t) = &self.tracer {
                t.counter_add(&format!("cluster.routed.shard{sid}"), shard_reqs.len() as u64);
            }
            let server = &mut self.shards[sid];
            let stats_before = *server.cache().stats();
            let batches = form_batches(shard_reqs, &self.cfg.policy);
            let n_batches = batches.len();
            // Batches enter the event queue at their ready times; ready
            // times are nondecreasing (see `form_batches`) and ties pop
            // FIFO, so dispatch order equals formation order.
            let mut queue = EventQueue::new();
            for b in batches {
                queue.push(b.ready_at, b);
            }
            let mut sweep = ShardSweep {
                sid,
                server,
                admission: self.cfg.admission,
                degraded_cost: self.cfg.degraded_cost,
                tracer: self.tracer.clone(),
                queue,
                seq: 0,
                free_at: vec![0.0f64; self.cfg.gpus_per_shard],
                completions: Vec::new(),
                lost: None,
                admitted_lat: LatencyStats::new(),
                shard_admitted: 0,
                shard_degraded: 0,
                shard_shed: 0,
                shard_compute: 0.0,
                answers: &mut answers,
                cluster_degraded: &mut cluster_degraded,
                last_answer: &mut last_answer,
                shed_queue_delay: &mut shed_queue_delay,
                shed_inflight: &mut shed_inflight,
                shed_fault: &mut shed_fault,
            };
            Scheduler::new()
                .run(&mut [&mut sweep], inj)
                .expect("shard sweep cannot stall: every queued batch has a finite ready time");

            let s = sweep.server.cache().stats();
            let (h, m) = (s.hits - stats_before.hits, s.misses - stats_before.misses);
            let hit_rate = if h + m > 0 { h as f64 / (h + m) as f64 } else { 0.0 };
            shard_reports.push(ShardReport {
                shard: sid as u32,
                requests: shard_reqs.len(),
                admitted: sweep.shard_admitted,
                degraded: sweep.shard_degraded,
                batches: n_batches,
                shed_batches: sweep.shard_shed,
                p50_ms: sweep.admitted_lat.p50() * 1e3,
                p99_ms: sweep.admitted_lat.p99() * 1e3,
                max_ms: sweep.admitted_lat.max() * 1e3,
                compute_seconds: sweep.shard_compute,
                cache_hit_rate: hit_rate,
            });
            compute_seconds += sweep.shard_compute;
            cluster_admitted.merge(&sweep.admitted_lat);
        }

        if let Some(t) = &self.tracer {
            t.counter_add("cluster.requests", requests.len() as u64);
            t.counter_add("cluster.admitted", cluster_admitted.count() as u64);
            t.counter_add("cluster.degraded", cluster_degraded.count() as u64);
        }

        answers.sort_by_key(|a| a.id);
        debug_assert_eq!(answers.len(), requests.len(), "every request answered exactly once");

        let admitted = cluster_admitted.count();
        let degraded = cluster_degraded.count();
        let duration = (last_answer - requests[0].arrival).max(f64::MIN_POSITIVE);
        let report = ClusterReport {
            label: label.to_string(),
            requests: requests.len(),
            admitted,
            degraded,
            degraded_rate: degraded as f64 / requests.len() as f64,
            duration,
            throughput_rps: requests.len() as f64 / duration,
            admitted_mean_ms: cluster_admitted.mean() * 1e3,
            admitted_p50_ms: cluster_admitted.p50() * 1e3,
            admitted_p95_ms: cluster_admitted.p95() * 1e3,
            admitted_p99_ms: cluster_admitted.p99() * 1e3,
            admitted_max_ms: cluster_admitted.max() * 1e3,
            degraded_p99_ms: cluster_degraded.p99() * 1e3,
            degraded_max_ms: cluster_degraded.max() * 1e3,
            compute_seconds,
            shed_queue_delay,
            shed_inflight,
            shed_fault,
            shards: shard_reports,
        };
        ClusterOutcome { answers, report }
    }

    /// Estimate the cluster's saturation throughput (requests/second) by
    /// serving `sample` with admission disabled and amortizing the
    /// measured GPU-busy seconds over the full replica pool:
    /// `capacity = requests · total_gpus / compute_seconds`. The sample
    /// also warms the propagation caches, so a subsequent overload run
    /// measures steady-state behaviour.
    pub fn measure_capacity(&mut self, sample: &[Request]) -> f64 {
        let saved = self.cfg.admission;
        self.cfg.admission = AdmissionPolicy::unbounded();
        let outcome = self.serve_trace("calibrate", sample);
        self.cfg.admission = saved;
        if outcome.report.compute_seconds <= 0.0 {
            return f64::INFINITY;
        }
        let total_gpus = (self.cfg.shards * self.cfg.gpus_per_shard) as f64;
        sample.len() as f64 * total_gpus / outcome.report.compute_seconds
    }
}

/// One shard's batch loop as a scheduler [`Component`]. The event queue
/// holds formed batches keyed by ready time; each dispatch replays the
/// legacy admit-or-shed step for one batch. Injection hooks sit at the
/// dispatch point: a pause defers the batch (preemption), a kill or a
/// planned [`ShardLoss`](mggcn_sched::ShardLoss) takes the shard down —
/// from the loss instant on, every batch is forced degraded with
/// [`ShedReason::Fault`] and the propagation cache is dropped once
/// (cache-node loss), so surviving shards stay bit-identical while the
/// dead shard degrades gracefully instead of timing out.
struct ShardSweep<'a> {
    sid: usize,
    server: &'a mut Server,
    admission: AdmissionPolicy,
    degraded_cost: f64,
    tracer: Option<Arc<Tracer>>,
    queue: EventQueue<Batch>,
    /// Per-shard dispatch counter — the structural coordinate faults
    /// match on (deterministic, independent of wall clock).
    seq: usize,
    free_at: Vec<f64>,
    /// Completion times of admitted-but-unfinished batches, pruned
    /// against each batch's ready time (ready times are nondecreasing).
    completions: Vec<f64>,
    /// Simulated time the shard went down (cache already dropped).
    lost: Option<f64>,
    admitted_lat: LatencyStats,
    shard_admitted: usize,
    shard_degraded: usize,
    shard_shed: usize,
    shard_compute: f64,
    answers: &'a mut Vec<Answer>,
    cluster_degraded: &'a mut LatencyStats,
    last_answer: &'a mut f64,
    shed_queue_delay: &'a mut usize,
    shed_inflight: &'a mut usize,
    shed_fault: &'a mut usize,
}

impl ShardSweep<'_> {
    fn mark_lost(&mut self, at: f64) {
        if self.lost.is_none() {
            self.lost = Some(at);
            // Cache-node loss rides along with shard loss: the resident
            // rows are gone, so degraded answers fall back to raw
            // feature rows (still deterministic, still tagged).
            self.server.drop_cache();
            if let Some(t) = &self.tracer {
                t.counter_add(&format!("cluster.shard{}.lost", self.sid), 1);
            }
        }
    }

    /// Serve every request of `b` a degraded answer completing at `done`.
    fn degrade(&mut self, b: &Batch, done: f64) {
        self.shard_degraded += b.len();
        *self.last_answer = self.last_answer.max(done);
        for r in &b.requests {
            let (row, from_cache) = self.server.degraded_answer(r.vertex);
            let latency = done - r.arrival;
            self.cluster_degraded.record(latency);
            self.answers.push(Answer {
                id: r.id,
                vertex: r.vertex,
                shard: self.sid as u32,
                row,
                degraded: true,
                from_cache,
                latency,
            });
            if let Some(t) = &self.tracer {
                t.latency_record("cluster.degraded_latency_seconds", latency);
            }
        }
    }
}

impl Component for ShardSweep<'_> {
    fn label(&self) -> String {
        format!("cluster shard {}", self.sid)
    }

    fn dispatch(&mut self, now: f64, inj: &Injector) -> bool {
        let mut progressed = false;
        while let Some(t) = self.queue.peek_time() {
            if t > now {
                break;
            }
            let (_, b) = self.queue.pop().expect("peeked");
            let seq = self.seq;
            self.seq += 1;
            progressed = true;
            match inj.at(DispatchSite::BatchDispatch { shard: self.sid, seq }) {
                Action::Pause { seconds } => {
                    // Preemption: the batch is deferred, not lost — it
                    // re-dispatches (under a fresh seq) after the pause.
                    self.queue.push(now + seconds, b);
                    continue;
                }
                Action::Kill => self.mark_lost(now),
                Action::None => {}
            }
            if self.lost.is_some() || inj.shard_down(self.sid, now).is_some() {
                self.mark_lost(now);
                // The dead shard never queues a batch: forced degraded
                // answers at a fixed host-side cost, never a timeout.
                self.shard_shed += 1;
                *self.shed_fault += 1;
                if let Some(t) = &self.tracer {
                    t.counter_add("cluster.shed.fault", 1);
                }
                let done = now.max(b.ready_at) + self.degraded_cost;
                self.degrade(&b, done);
                continue;
            }
            self.completions.retain(|&c| c > b.ready_at);
            let gpu = (0..self.free_at.len())
                .min_by(|&x, &y| self.free_at[x].total_cmp(&self.free_at[y]))
                .expect("shard has GPUs");
            let start = now.max(b.ready_at).max(self.free_at[gpu]);
            let queue_delay = start - b.ready_at;
            match self.admission.admit(queue_delay, self.completions.len()) {
                Verdict::Admit => {
                    let (out, service) = self.server.run_batch(&b.vertices(), gpu);
                    let done = start + service;
                    self.free_at[gpu] = done;
                    self.completions.push(done);
                    self.shard_compute += service;
                    self.shard_admitted += b.len();
                    *self.last_answer = self.last_answer.max(done);
                    for (i, r) in b.requests.iter().enumerate() {
                        let latency = done - r.arrival;
                        self.admitted_lat.record(latency);
                        self.answers.push(Answer {
                            id: r.id,
                            vertex: r.vertex,
                            shard: self.sid as u32,
                            row: out.row(i).to_vec(),
                            degraded: false,
                            from_cache: false,
                            latency,
                        });
                        if let Some(t) = &self.tracer {
                            t.latency_record("cluster.admitted_latency_seconds", latency);
                        }
                    }
                }
                Verdict::Shed(reason) => {
                    self.shard_shed += 1;
                    match reason {
                        ShedReason::QueueDelay => *self.shed_queue_delay += 1,
                        ShedReason::Inflight => *self.shed_inflight += 1,
                        ShedReason::Fault => unreachable!("admit() never returns Fault"),
                    }
                    if let Some(t) = &self.tracer {
                        let name = match reason {
                            ShedReason::QueueDelay => "cluster.shed.queue_delay",
                            ShedReason::Inflight => "cluster.shed.inflight",
                            ShedReason::Fault => "cluster.shed.fault",
                        };
                        t.counter_add(name, 1);
                    }
                    // Degraded answers are served host-side at the
                    // batch's ready time — no GPU queueing, fixed cost.
                    let done = b.ready_at + self.degraded_cost;
                    self.degrade(&b, done);
                }
            }
        }
        progressed
    }

    fn next_event(&mut self, _now: f64) -> Option<f64> {
        self.queue.peek_time()
    }

    fn advance(&mut self, _next: f64, _inj: &Injector) -> bool {
        false
    }

    fn is_done(&self) -> bool {
        self.queue.is_empty()
    }

    fn stuck(&self) -> Vec<String> {
        vec![format!("shard {} holds {} undispatched batches", self.sid, self.queue.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_dense::Dense;
    use mggcn_graph::generators::chung_lu;
    use mggcn_serve::LoadGenConfig;

    fn tiny_model(n: usize) -> ServingModel {
        let adj = chung_lu::generate(&vec![4u32; n], 9);
        let feats = Dense::from_fn(n, 6, |r, c| ((r + 2 * c) as f32).sin());
        let w0 = Dense::from_fn(6, 5, |r, c| ((r * 2 + c) as f32).cos() * 0.3);
        let w1 = Dense::from_fn(5, 3, |r, c| ((r + 3 * c) as f32).sin() * 0.3);
        ServingModel::from_parts(vec![w0, w1], adj, feats).expect("valid model")
    }

    fn trace(n_req: usize, vertices: usize, qps: f64) -> Vec<Request> {
        mggcn_serve::generate_load(&LoadGenConfig::uniform(qps, n_req, vertices, 11))
    }

    #[test]
    fn empty_trace_yields_zero_report() {
        let model = tiny_model(32);
        let mut cluster =
            Cluster::new(&model, ClusterConfig::new(2, 1, BatchPolicy::new(1e-3, 8)), None);
        let out = cluster.serve_trace("empty", &[]);
        assert!(out.answers.is_empty());
        assert_eq!(out.report.requests, 0);
    }

    #[test]
    fn unbounded_cluster_answers_everything_exactly_and_matches_oracle() {
        let model = tiny_model(64);
        let reference = model.forward_full();
        let cfg = ClusterConfig::new(2, 2, BatchPolicy::new(1e-3, 8));
        let plan = PartitionPlan::random(64, 2, 5);
        let mut cluster = Cluster::new(&model, cfg, Some(&plan));
        let reqs = trace(120, 64, 5000.0);
        let out = cluster.serve_trace("exact", &reqs);
        assert_eq!(out.answers.len(), reqs.len());
        assert_eq!(out.report.degraded, 0);
        for (a, r) in out.answers.iter().zip(&reqs) {
            assert_eq!(a.id, r.id, "answers sorted by request id");
            assert!(!a.degraded);
            assert_eq!(a.shard, plan.shard_of(a.vertex), "plan governs routing");
            assert_eq!(a.row, reference.row(a.vertex as usize), "bit-identical to oracle");
            assert!(a.latency > 0.0 && a.latency.is_finite());
        }
    }

    #[test]
    fn tight_admission_sheds_but_answers_every_request() {
        let model = tiny_model(64);
        let reference = model.forward_full();
        let mut cfg = ClusterConfig::new(2, 1, BatchPolicy::new(1e-4, 4));
        cfg.admission = AdmissionPolicy::new(0.0, 1);
        let mut cluster = Cluster::new(&model, cfg, None);
        // Far beyond one GPU per shard: shedding must kick in.
        let reqs = trace(400, 64, 2.0e6);
        let out = cluster.serve_trace("overload", &reqs);
        assert_eq!(out.answers.len(), reqs.len(), "no request is dropped");
        assert!(out.report.degraded > 0, "overload must shed");
        assert!(out.report.admitted > 0, "shedding must not starve the exact path");
        for a in &out.answers {
            if !a.degraded {
                assert_eq!(a.row, reference.row(a.vertex as usize));
            }
            assert!(a.latency.is_finite() && a.latency >= 0.0);
        }
        // Degraded latency is bounded by window + degraded cost.
        let bound = 1e-4 + cluster.config().degraded_cost + 1e-12;
        assert!(out.answers.iter().filter(|a| a.degraded).all(|a| a.latency <= bound));
    }

    #[test]
    fn capacity_estimate_is_finite_and_positive() {
        let model = tiny_model(48);
        let mut cluster =
            Cluster::new(&model, ClusterConfig::new(2, 2, BatchPolicy::new(1e-3, 8)), None);
        let cap = cluster.measure_capacity(&trace(100, 48, 1000.0));
        assert!(cap.is_finite() && cap > 0.0, "capacity {cap}");
    }

    #[test]
    fn router_prefers_plan_and_falls_back_to_ring() {
        let plan = PartitionPlan { shards: 3, assignment: vec![2, 0, 1], strategy: "cache-aware" };
        let router = Router::with_plan(&plan, 16);
        assert_eq!(router.route(0), 2);
        assert_eq!(router.route(2), 1);
        // Vertex 99 is outside the plan: the ring answers, in range.
        assert!(router.route(99) < 3);
    }
}
