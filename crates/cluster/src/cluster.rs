//! The sharded serving front end: routing, per-shard batching + admission,
//! load shedding, and cluster-wide latency accounting.
//!
//! A [`Cluster`] is `P` shards, each a full [`Server`] replica set
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
use mggcn_gpusim::{GpuSpec, LatencyStats, MachineSpec};
use mggcn_sched::{Action, DispatchSite, EventQueue, Injector};
use mggcn_serve::{form_batches, Batch, BatchPolicy, Request, ServeConfig, Server, ServingModel};
use mggcn_trace::Tracer;
use std::sync::Arc;

/// Fixed host-side cost of one degraded answer, seconds.
pub const DEGRADED_COST: f64 = 20.0e-6;

/// Virtual nodes per shard on the routing ring.
const VNODES: usize = 64;

/// Cluster-wide configuration: topology, batching, admission.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    pub shards: usize,
    pub gpus_per_shard: usize,
    pub policy: BatchPolicy,
    /// Per-shard propagation-cache budget, bytes.
    pub cache_bytes: usize,
    pub admission: AdmissionPolicy,
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
    /// Plan-backed routing over `shards`, or pure consistent hashing
    /// without a plan.
    fn new(shards: usize, plan: Option<&PartitionPlan>) -> Self {
        Self { ring: HashRing::new(shards, VNODES), assignment: plan.map(|p| p.assignment.clone()) }
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
/// cached layer-0 row (vs. its row of layer 0's operand).
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

/// What one shard contributed to a trace ([`Cluster::run_shard`]): its
/// answers in dispatch order and the totals the cluster report sums.
#[derive(Default)]
struct ShardRun {
    answers: Vec<Answer>,
    /// Simulated GPU-busy seconds of the admitted batches.
    compute_seconds: f64,
    last_answer: f64,
    /// Shed batch counts by tripped bound.
    shed_queue_delay: usize,
    shed_inflight: usize,
    shed_fault: usize,
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
        let router = Router::new(cfg.shards, plan);
        let sc = ServeConfig::new(cfg.shard_machine(), cfg.policy, cfg.cache_bytes);
        let shards = (0..cfg.shards).map(|_| Server::new(model.clone(), sc.clone())).collect();
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

    /// [`serve_trace`](Self::serve_trace) under fault injection. Shards
    /// run one after another (`Cluster::run_shard`), so a fault on one
    /// leaves every other shard's answers bit-identical. The injector can
    /// defer batches (preemption) or take a shard down — shard loss forces
    /// tagged degraded answers with a fixed host-side cost (never a
    /// timeout) and drops the dead shard's propagation cache (cache-node
    /// loss).
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
            let stats_before = *self.shards[sid].cache().stats();
            let batches = form_batches(shard_reqs, &self.cfg.policy);
            let n_batches = batches.len();
            let run = self.run_shard(sid, batches, inj);

            let s = self.shards[sid].cache().stats();
            let (h, m) = (s.hits - stats_before.hits, s.misses - stats_before.misses);
            let hit_rate = if h + m > 0 { h as f64 / (h + m) as f64 } else { 0.0 };
            let mut admitted_lat = LatencyStats::new();
            for a in &run.answers {
                if a.degraded {
                    cluster_degraded.record(a.latency);
                } else {
                    admitted_lat.record(a.latency);
                }
            }
            shard_reports.push(ShardReport {
                shard: sid as u32,
                requests: shard_reqs.len(),
                admitted: admitted_lat.count(),
                degraded: run.answers.len() - admitted_lat.count(),
                batches: n_batches,
                shed_batches: run.shed_queue_delay + run.shed_inflight + run.shed_fault,
                p50_ms: admitted_lat.p50() * 1e3,
                p99_ms: admitted_lat.p99() * 1e3,
                max_ms: admitted_lat.max() * 1e3,
                compute_seconds: run.compute_seconds,
                cache_hit_rate: hit_rate,
            });
            cluster_admitted.merge(&admitted_lat);
            compute_seconds += run.compute_seconds;
            shed_queue_delay += run.shed_queue_delay;
            shed_inflight += run.shed_inflight;
            shed_fault += run.shed_fault;
            last_answer = last_answer.max(run.last_answer);
            answers.extend(run.answers);
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

    /// One shard's batch loop: admit or shed each formed batch in ready
    /// order. Injection hooks sit at the dispatch point: a pause defers
    /// the batch (preemption), a kill or a planned
    /// [`ShardLoss`](mggcn_sched::ShardLoss) takes the shard down — from
    /// the loss instant on, every batch is forced degraded with
    /// [`ShedReason::Fault`] and the propagation cache is dropped once
    /// (cache-node loss), so surviving shards stay bit-identical while the
    /// dead shard degrades gracefully instead of timing out.
    fn run_shard(&mut self, sid: usize, batches: Vec<Batch>, inj: &Injector) -> ShardRun {
        let server = &mut self.shards[sid];
        let tracer = self.tracer.as_deref();
        let mut run = ShardRun::default();
        // Ready times are nondecreasing (see `form_batches`) and ties pop
        // FIFO, so fault-free dispatch order equals formation order.
        let mut queue = EventQueue::new();
        for b in batches {
            queue.push(b.ready_at, b);
        }
        let mut free_at = vec![0.0f64; self.cfg.gpus_per_shard];
        // Completion times of admitted-but-unfinished batches, pruned at
        // each dispatch (dispatch instants are nondecreasing).
        let mut completions: Vec<f64> = Vec::new();
        let mut lost = false;
        // Per-shard dispatch counter — the structural coordinate faults
        // match on (deterministic, independent of wall clock).
        let mut seq = 0;
        while let Some((now, b)) = queue.pop() {
            let action = inj.at(DispatchSite::BatchDispatch { shard: sid, seq });
            seq += 1;
            if let Action::Pause { seconds } = action {
                // Preemption: the batch is deferred, not lost — it
                // re-dispatches (under a fresh seq) after the pause.
                queue.push(now + seconds, b);
                continue;
            }
            // `now` is the dispatch instant: the batch's ready time, or
            // later if a pause deferred it.
            let gpu = (0..free_at.len())
                .min_by(|&x, &y| free_at[x].total_cmp(&free_at[y]))
                .expect("shard has GPUs");
            let start = now.max(free_at[gpu]);
            let verdict = if lost || action == Action::Kill || inj.shard_down(sid, now).is_some() {
                if !lost {
                    lost = true;
                    // Cache-node loss rides along with shard loss: the
                    // resident rows are gone, so degraded answers fall
                    // back to rows of layer 0's operand (still
                    // deterministic, still tagged).
                    server.drop_cache();
                    if let Some(t) = tracer {
                        t.counter_add(&format!("cluster.shard{sid}.lost"), 1);
                    }
                }
                // The dead shard never queues a batch.
                Verdict::Shed(ShedReason::Fault)
            } else {
                completions.retain(|&c| c > now);
                self.cfg.admission.admit(start - b.ready_at, completions.len())
            };
            let (out, done) = match verdict {
                Verdict::Admit => {
                    let (out, service) = server.run_batch(&b.vertices(), gpu);
                    let done = start + service;
                    free_at[gpu] = done;
                    completions.push(done);
                    run.compute_seconds += service;
                    (Some(out), done)
                }
                Verdict::Shed(reason) => {
                    let (count, name) = match reason {
                        ShedReason::QueueDelay => {
                            (&mut run.shed_queue_delay, "cluster.shed.queue_delay")
                        }
                        ShedReason::Inflight => (&mut run.shed_inflight, "cluster.shed.inflight"),
                        ShedReason::Fault => (&mut run.shed_fault, "cluster.shed.fault"),
                    };
                    *count += 1;
                    if let Some(t) = tracer {
                        t.counter_add(name, 1);
                    }
                    // Degraded answers are served host-side at the
                    // dispatch instant — no GPU queueing, fixed cost,
                    // never a timeout.
                    (None, now + DEGRADED_COST)
                }
            };
            run.last_answer = run.last_answer.max(done);
            let degraded = out.is_none();
            for (i, r) in b.requests.iter().enumerate() {
                let (row, from_cache) = match &out {
                    Some(out) => (out.row(i).to_vec(), false),
                    None => server.degraded_answer(r.vertex),
                };
                let latency = done - r.arrival;
                run.answers.push(Answer {
                    id: r.id,
                    vertex: r.vertex,
                    shard: sid as u32,
                    row,
                    degraded,
                    from_cache,
                    latency,
                });
                if let Some(t) = tracer {
                    let name = if degraded {
                        "cluster.degraded_latency_seconds"
                    } else {
                        "cluster.admitted_latency_seconds"
                    };
                    t.latency_record(name, latency);
                }
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_dense::Dense;
    use mggcn_graph::generators::chung_lu;
    use mggcn_sched::{FaultPlan, PauseAt};
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
        let bound = 1e-4 + DEGRADED_COST + 1e-12;
        assert!(out.answers.iter().filter(|a| a.degraded).all(|a| a.latency <= bound));
    }

    fn pause_shard0_first_dispatch(seconds: f64) -> Injector {
        Injector::new(FaultPlan {
            pauses: vec![PauseAt { gpu: 0, seq: 0, seconds }],
            ..FaultPlan::none()
        })
    }

    #[test]
    fn a_paused_batch_is_judged_at_the_instant_it_is_dispatched() {
        let model = tiny_model(32);
        let reference = model.forward_full();
        let mut cfg = ClusterConfig::new(1, 1, BatchPolicy::unbatched());
        cfg.admission = AdmissionPolicy::new(1.0, 1);
        let mut cluster = Cluster::new(&model, cfg, None);
        let reqs = [
            Request { id: 0, vertex: 3, arrival: 0.0 },
            Request { id: 1, vertex: 9, arrival: 1e-3 },
        ];
        // Request 0 is deferred past request 1, whose batch has long
        // completed by then: the shard is idle, so request 0 is admitted —
        // and cannot be answered before it is dispatched.
        let pause = 10e-3;
        let inj = pause_shard0_first_dispatch(pause);
        let out = cluster.serve_trace_chaos("paused", &reqs, &inj);
        assert_eq!(out.answers.len(), 2);
        let first = &out.answers[0];
        assert_eq!(first.id, 0);
        assert!(!first.degraded, "an idle shard must admit the deferred batch");
        assert_eq!(first.row, reference.row(3));
        assert!(first.latency >= pause, "answered after {}s, paused {pause}s", first.latency);
        assert_eq!(out.report.shed_inflight, 0);
        assert_eq!(out.report.degraded, 0);
    }

    #[test]
    fn pausing_one_shard_leaves_the_other_bit_identical() {
        let model = tiny_model(64);
        let plan = PartitionPlan::random(64, 2, 5);
        let reqs = trace(200, 64, 50_000.0);
        let run = |inj: &Injector| {
            let mut cfg = ClusterConfig::new(2, 1, BatchPolicy::new(2e-4, 4));
            cfg.admission = AdmissionPolicy::new(1e-3, 2);
            Cluster::new(&model, cfg, Some(&plan)).serve_trace_chaos("pause", &reqs, inj)
        };
        let clean = run(&Injector::none());
        let inj = pause_shard0_first_dispatch(5e-3);
        let paused = run(&inj);
        assert_eq!(inj.fired().len(), 1, "the pause must fire: {:?}", inj.fired());
        assert!(inj.fired()[0].starts_with("pause 0.005s at BatchDispatch"));
        let ids: Vec<u64> = paused.answers.iter().map(|a| a.id).collect();
        assert_eq!(ids, reqs.iter().map(|r| r.id).collect::<Vec<_>>(), "one answer per request");
        assert!(paused.answers.iter().any(|a| a.shard == 1), "the trace must reach shard 1");
        for (p, c) in paused.answers.iter().zip(&clean.answers) {
            if p.shard == 1 {
                assert_eq!((p.degraded, &p.row), (c.degraded, &c.row), "request {}", p.id);
                assert_eq!(p.latency.to_bits(), c.latency.to_bits(), "request {}", p.id);
            }
        }
        let delayed =
            paused.answers.iter().zip(&clean.answers).filter(|(p, c)| p.latency > c.latency);
        assert!(delayed.count() > 0, "the pause must delay something on shard 0");
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
        let router = Router::new(3, Some(&plan));
        assert_eq!(router.route(0), 2);
        assert_eq!(router.route(2), 1);
        // Vertex 99 is outside the plan: the ring answers, in range.
        assert!(router.route(99) < 3);
    }
}
