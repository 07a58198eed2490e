//! Serving steps: a chunk of reads, then a graph delta, on one server and
//! one cache — opaque for the end-to-end metrics, taken apart for the
//! traced run.

use crate::spans::Recorder;
use crate::workloads::{self, ServeSpec};
use mg_gcn::cluster::{AdmissionPolicy, Cluster, ClusterConfig};
use mg_gcn::gpusim::{GpuSpec, LatencyStats, MachineSpec};
use mg_gcn::graph::sampling::khop_induced;
use mg_gcn::serve::{
    form_batches, BatchPolicy, CacheStats, Request, ServeConfig, Server, ServingModel,
};

/// Answers compared bit for bit against the full forward pass.
const CHECKED_ANSWERS: usize = 64;

pub struct ServeRig {
    pub server: Server,
    spec: ServeSpec,
    seed: u64,
    next_step: u64,
}

/// One chunk of reads and the delta applied after it.
pub struct Round {
    pub chunk: Vec<Request>,
    pub edges: Vec<(u32, u32)>,
}

/// A step is `ServeSpec::rounds` rounds.
pub struct StepInput {
    pub rounds: Vec<Round>,
}

impl ServeRig {
    pub fn build(model: ServingModel, spec: &ServeSpec, seed: u64) -> Self {
        let machine = MachineSpec::uniform("replica", GpuSpec::a100(), spec.gpus, 12, 25.0e9);
        let cache_bytes = spec.cache_rows * model.feat_dim() * std::mem::size_of::<f32>();
        let cfg = ServeConfig::new(machine, policy(spec), cache_bytes);
        Self { server: Server::new(model, cfg), spec: *spec, seed, next_step: 0 }
    }

    pub fn requests_per_step(&self) -> usize {
        self.spec.chunk * self.spec.rounds
    }

    pub fn requests_per_chunk(&self) -> usize {
        self.spec.chunk
    }

    /// The next step's inputs, made outside the timed region.
    pub fn next_input(&mut self) -> StepInput {
        let n = self.server.model().vertices();
        let first = self.next_step * self.spec.rounds as u64;
        self.next_step += 1;
        let rounds = (first..first + self.spec.rounds as u64)
            .map(|round| Round {
                chunk: workloads::request_chunk(&self.spec, n, self.seed, round),
                edges: workloads::delta_edges(&self.spec, n, self.seed, round),
            })
            .collect();
        StepInput { rounds }
    }

    /// One opaque step, as a user would take it: round after round, serve
    /// the chunk, then apply the delta. Fails if any request went unanswered
    /// or any latency is not a number.
    pub fn step(&mut self, input: &StepInput) -> Result<(), String> {
        for round in &input.rounds {
            let report = self.server.serve("chunk", &round.chunk);
            self.server.apply_delta(&round.edges);
            if report.requests != round.chunk.len() || !report.max_ms.is_finite() {
                return Err(format!(
                    "served {} of {} requests, max latency {} ms",
                    report.requests,
                    round.chunk.len(),
                    report.max_ms
                ));
            }
        }
        Ok(())
    }

    /// Sampled answers must equal the rows of the full forward pass over
    /// the graph as it is now, bit for bit. Returns the answers' bits.
    pub fn check_answers(&mut self) -> Result<Vec<u32>, String> {
        let n = self.server.model().vertices();
        let sample = workloads::sample_vertices(n, CHECKED_ANSWERS, self.seed);
        let answers = self.server.query(&sample);
        let reference = self.server.model().forward_full();
        for (i, &v) in sample.iter().enumerate() {
            let (got, want) = (answers.row(i), reference.row(v as usize));
            if got.iter().map(|x| x.to_bits()).ne(want.iter().map(|x| x.to_bits())) {
                return Err(format!("answer for vertex {v} differs from forward_full"));
            }
        }
        Ok(answers.as_slice().iter().map(|x| x.to_bits()).collect())
    }
}

fn policy(spec: &ServeSpec) -> BatchPolicy {
    BatchPolicy::new(spec.batch_window, spec.max_batch)
}

pub fn cache_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
    }
}

/// The traced counterpart of [`ServeRig::step`], plus the replays and the
/// cluster probe that run between steps.
pub struct ServeTrace {
    /// The two-shard probe; alive only while the count window lasts.
    cluster: Option<Cluster>,
    /// Simulated request latencies, as `Server::serve` accounts them.
    pub sim_latency: LatencyStats,
    pub batches: u64,
    pub khop_touched: u64,
    pub cluster_shed: u64,
}

impl ServeTrace {
    pub fn new(rig: &ServeRig) -> Self {
        let mut cfg = ClusterConfig::new(2, 1, policy(&rig.spec));
        cfg.cache_bytes = rig.server.cache().capacity_rows()
            * rig.server.model().feat_dim()
            * std::mem::size_of::<f32>()
            / 2;
        // A batch may wait one batch window for a replica, two may be in
        // flight per shard. A chunk of this size stays under both, so
        // `cluster.shed` is 0 until the cluster or the load changes.
        cfg.admission = AdmissionPolicy::new(rig.spec.batch_window, 2);
        Self {
            cluster: Some(Cluster::new(rig.server.model(), cfg, None)),
            sim_latency: LatencyStats::new(),
            batches: 0,
            khop_touched: 0,
            cluster_shed: 0,
        }
    }

    /// One step as its public constituents, each under a span. Leaves the
    /// server in the state [`ServeRig::step`] would.
    pub fn step(
        &mut self,
        rig: &mut ServeRig,
        input: &StepInput,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let root = rec.begin_step();
        let policy = policy(&rig.spec);
        let (mut answered, mut asked) = (0, 0);
        for round in &input.rounds {
            let batches = rec.scope("serve.form_batches", || form_batches(&round.chunk, &policy));
            // Replica choice and latency accounting as in `Server::serve`:
            // earliest-free replica, clocks reset per call.
            let mut free_at = vec![0.0f64; rig.spec.gpus];
            for b in &batches {
                let vertices = b.vertices();
                let gpu = (0..free_at.len())
                    .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                    .expect("replica machine has GPUs");
                let (out, service) =
                    rec.scope("serve.run_batch", || rig.server.run_batch(&vertices, gpu));
                answered += out.rows();
                let done = b.ready_at.max(free_at[gpu]) + service;
                free_at[gpu] = done;
                for r in &b.requests {
                    self.sim_latency.record(done - r.arrival);
                }
            }
            self.batches += batches.len() as u64;
            asked += round.chunk.len();
            rec.scope("serve.apply_delta", || rig.server.apply_delta(&round.edges));
        }
        if answered != asked {
            rec.abandon_step(root);
            return Err(format!("answered {answered} of {asked} requests"));
        }
        rec.end_step(root);
        Ok(())
    }

    pub fn drop_cluster(&mut self) {
        self.cluster = None;
    }

    /// Between steps: what `run_batch` spends inside (k-hop extraction and
    /// the row-sliced aggregation, replayed on the first batch of the step's
    /// first chunk) and, while the probe cluster lives, that chunk through
    /// its two shards.
    pub fn replay(&mut self, rig: &ServeRig, input: &StepInput, rec: &mut Recorder) {
        let model = rig.server.model();
        let chunk = &input.rounds[0].chunk;
        let first = form_batches(chunk, &policy(&rig.spec)).remove(0).vertices();
        let block = rec
            .scope("replay.khop_induced", || khop_induced(model.a_hat_t(), &first, model.layers()));
        self.khop_touched += block.vertices.len() as u64;
        let rows: Vec<u32> =
            block.locals_within(1).iter().map(|&l| block.vertices[l as usize]).collect();
        rec.scope("replay.spmm_rows", || std::hint::black_box(model.aggregation_rows(&rows)));
        let Some(cluster) = self.cluster.as_mut() else { return };
        let outcome = rec.scope("replay.cluster_serve", || cluster.serve_trace("chunk", chunk));
        self.cluster_shed += outcome.report.degraded as u64;
        let router = cluster.router();
        rec.scope("replay.route", || {
            for r in chunk {
                std::hint::black_box(router.route(std::hint::black_box(r.vertex)));
            }
        });
    }
}
