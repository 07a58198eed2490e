//! The serving engine: batches → tagged op schedules on the simulated
//! machine → bit-exact outputs + latency accounting.
//!
//! A batch reads the global `Âᵀ` and layer 0's frozen operand
//! ([`ServingModel::layer0_operand`]: `H⁰·W⁰` when layer 0 does not widen,
//! else `H⁰`) directly, one layer at a time: layer `l` produces only the
//! rows `R_l`, the vertices within `L−1−l` hops of the seeds
//! (`graph::sampling::khop_layers`), and no buffer is as tall as the
//! batch's L-hop induced block. Layer 0 follows §4.4's order, so a layer
//! 0 that does not widen is one SpMM at `d_out(0)` with no GeMM; every
//! layer above it aggregates first, because multiplying first would run
//! the GeMM over all of `R_{l−1}` instead of the smaller `R_l`. Each batch
//! becomes one [`Schedule`] on a replica GPU's stream 0. The ops declare
//! their buffer effects and the schedule infers the dependencies (on one
//! lane, FIFO order already covers all of them):
//!
//! * `serve-extract` — the walk and the shells, paid **once per batch** —
//!   the quantity micro-batching amortizes. It costs
//!   `EXTRACT_FIXED + EXTRACT_PER_ENTRY · Σ_l nnz(shell_l)`: the entries
//!   the batch copies out of `Âᵀ`, which include every row the walk read
//!   (the first shell's rows, `R_1`); a 1-layer batch has no shell and
//!   pays `EXTRACT_FIXED`;
//! * `serve-gather` — layer 0's rows into device buffers at the operand's
//!   width `d0`, costed as `elementwise(|R_0| · d0)` whether a row hits or
//!   misses (costed only: the cache hits are written into the compact
//!   layer-0 output when the cache is probed, and the operand is read in
//!   place);
//! * `serve-spmm` — per layer: at layer 0 only the **cache-miss** rows of
//!   `R_0`, straight from `Âᵀ` and the operand, so a warm propagation cache
//!   shrinks the dominant kernel (`miss_nnz` entries over
//!   `min(miss_nnz, n)` operand rows, the most the misses can reference;
//!   no op when every row hits); at layer `l ≥ 1` the shell — rows `R_l`
//!   of `Âᵀ`, columns renumbered into positions of `R_{l−1}`, so
//!   `|R_{l−1}|` columns;
//! * `serve-gemm` / `serve-relu` — the dense tail of each layer, on
//!   `|R_l|`-row matrices; a layer 0 that multiplied first has no GeMM;
//! * `serve-output` — each request's row of `R_{L−1}`, by binary search.
//!
//! The engine runs a compute op for the longest of its launch overhead
//! (`Schedule::launch_overhead`, 5 µs), its flops over the flop rate and
//! its bytes over the byte rate. A small model's miss SpMM stays under
//! that floor, so its simulated time does not move with the misses; its
//! declared bytes and flops do.
//!
//! Op bodies execute the real numerics against a [`BatchCtx`], so the
//! same schedule that is timed also produces the answers, and those
//! answers are bit-identical to [`ServingModel::forward_full`] rows: a
//! miss row is `spmm_rows` over the full operator and the same frozen
//! operand, the row kernel `forward_full`'s `spmm` runs; a cached row
//! holds those bits; a shell row lists the same entries in the same order
//! with every column pointing at the row its vertex holds in the previous
//! layer, so it folds the same products in the same order; and GeMM and
//! ReLU act row by row.
//!
//! A batch costs what it touches. The [`Server`] keeps what one batch
//! writes on the host for the next: the walk's vertex-sized state (each
//! walk resets only what it reached), the row lists and shells, the miss
//! lists, the layer buffers and the query list. Past warm-up a batch
//! allocates only where it outgrows every earlier one, and nothing it
//! allocates or resets grows with the vertex count. The bodies reshape
//! the layer buffers instead of zeroing fresh ones, since every element
//! is written: by an `Overwrite` kernel, or for layer 0's rows by a cache
//! hit or a miss copy. Only the answer matrix is new per batch; the caller
//! keeps it. The model's `Arc`s are cloned into each batch's context and
//! dropped with it, never kept, so between batches `apply_delta` patches
//! `Âᵀ` in place instead of deep-copying it.
//!
//! Replica scheduling is earliest-free: batches are executed in arrival
//! order on the least-loaded GPU, and a request's latency is its batch's
//! completion time minus its own arrival.

use crate::batcher::{form_batches, BatchPolicy, Request};
use crate::cache::{CacheStats, PropagationCache};
use crate::model::ServingModel;
use mggcn_dense::{gemm, relu_inplace, Accumulate, Dense};
use mggcn_gpusim::engine::OpDesc;
use mggcn_gpusim::{
    BufId, Category, CostModel, Effects, LatencyStats, MachineSpec, Schedule, Work,
};
use mggcn_graph::sampling::{khop_layers_into, KhopLayers, KhopScratch};
use mggcn_sparse::{spmm, spmm_rows, Csr};
use mggcn_trace::json::JsonWriter;
use std::sync::{Arc, Mutex};

/// Fixed host-side cost of one k-hop extraction, seconds.
pub const EXTRACT_FIXED: f64 = 40.0e-6;
/// Extraction cost per operator entry a batch copies, seconds.
pub const EXTRACT_PER_ENTRY: f64 = 1.0e-9;

/// Serving configuration: hardware, batching and cache knobs. Op costs
/// come from [`CostModel::default`] and the two extraction constants.
/// Every batch runs its schedule through the DES on the calling thread,
/// so outputs and latency accounting are deterministic.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub machine: MachineSpec,
    pub policy: BatchPolicy,
    /// Propagation-cache budget in bytes (0 disables caching).
    pub cache_bytes: usize,
}

impl ServeConfig {
    pub fn new(machine: MachineSpec, policy: BatchPolicy, cache_bytes: usize) -> Self {
        Self { machine, policy, cache_bytes }
    }
}

/// Per-batch execution context the op bodies compute over. Public so a
/// batch schedule ([`Server::batch_schedule`]) is a nameable type for
/// static analysis; the fields stay internal to the serving engine.
pub struct BatchCtx {
    a_hat_t: Arc<Csr>,
    /// Layer 0's SpMM operand ([`ServingModel::layer0_operand`]).
    operand: Arc<Dense>,
    weights: Arc<Vec<Dense>>,
    /// The server's kept buffers, lent for the batch.
    bufs: BatchBufs,
    /// Per-request output rows, handed to the caller.
    out: Dense,
}

/// What a batch writes on the host that the next batch can write again:
/// the [`Server`] keeps it between batches, so a batch allocates only
/// where it outgrows every earlier one. It holds no part of the model.
#[derive(Default)]
struct BatchBufs {
    /// The k-hop walk's vertex-sized state.
    scratch: KhopScratch,
    /// The rows each layer produces and the shells between layers.
    khop: KhopLayers,
    /// Layer-0 cache misses (global ids, ascending) and their positions
    /// in `khop.rows[0]`.
    misses: Vec<u32>,
    miss_at: Vec<u32>,
    /// Current layer aggregation, one row per `khop.rows[l]`.
    agg: Dense,
    /// Current layer output, same rows. Layer 0's rows — its aggregation,
    /// or its pre-activation when it multiplied first — start in `agg` or
    /// `h` respectively, cache hits written in when the batch is built.
    h: Dense,
    /// Computed miss rows, saved for post-run cache insertion.
    miss_agg: Dense,
    /// The queried vertices, request order.
    queries: Vec<u32>,
}

/// Outcome of serving one trace: throughput, latency quantiles, compute
/// and cache behaviour — the JSON payload of `mggcn serve-bench`.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    pub label: String,
    pub requests: usize,
    pub batches: usize,
    pub mean_batch: f64,
    /// Last batch completion minus first arrival, seconds.
    pub duration: f64,
    pub throughput_rps: f64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Total simulated GPU-busy seconds across all batches.
    pub compute_seconds: f64,
    pub compute_per_request_us: f64,
    pub cache: CacheStats,
    pub cache_hit_rate: f64,
}

impl ServeReport {
    /// The all-zero report an empty trace produces.
    pub fn zero(label: &str) -> Self {
        Self { label: label.to_string(), ..Default::default() }
    }

    pub fn to_json(&self) -> String {
        let latency = JsonWriter::new()
            .f64("mean", self.mean_ms, 4)
            .f64("p50", self.p50_ms, 4)
            .f64("p95", self.p95_ms, 4)
            .f64("p99", self.p99_ms, 4)
            .f64("max", self.max_ms, 4)
            .finish();
        let cache = JsonWriter::new()
            .u64("hits", self.cache.hits)
            .u64("misses", self.cache.misses)
            .u64("evictions", self.cache.evictions)
            .u64("invalidations", self.cache.invalidations)
            .f64("hit_rate", self.cache_hit_rate, 4)
            .finish();
        JsonWriter::new()
            .str("label", &self.label)
            .usize("requests", self.requests)
            .usize("batches", self.batches)
            .f64("mean_batch", self.mean_batch, 3)
            .f64("duration_s", self.duration, 6)
            .f64("throughput_rps", self.throughput_rps, 1)
            .raw("latency_ms", &latency)
            .f64("compute_s", self.compute_seconds, 6)
            .f64("compute_per_request_us", self.compute_per_request_us, 3)
            .raw("cache", &cache)
            .finish()
    }

    pub fn render(&self) -> String {
        format!(
            "{:<24} {:>6} req {:>5} batches (mean {:>5.1}) | {:>9.0} rps | \
             p50 {:>7.3}ms p95 {:>7.3}ms p99 {:>7.3}ms | {:>7.1}us compute/req | hit rate {:>5.1}%",
            self.label,
            self.requests,
            self.batches,
            self.mean_batch,
            self.throughput_rps,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.compute_per_request_us,
            self.cache_hit_rate * 100.0,
        )
    }
}

/// An online inference server over a frozen [`ServingModel`].
pub struct Server {
    model: ServingModel,
    cache: PropagationCache,
    cfg: ServeConfig,
    /// Observation-only tracer (batch timelines, cache hit/miss counters,
    /// latency histograms); `None` records nothing.
    tracer: Option<Arc<mggcn_trace::Tracer>>,
    /// The last batch's buffers, lent to the next.
    bufs: BatchBufs,
}

impl Server {
    pub fn new(model: ServingModel, cfg: ServeConfig) -> Self {
        let cache = PropagationCache::new(cfg.cache_bytes, model.layer0_operand().cols());
        Self { model, cache, cfg, tracer: None, bufs: BatchBufs::default() }
    }

    /// Attach a tracer; every subsequent batch ingests its timeline and
    /// cache/latency metrics. Ingestion happens after each schedule has
    /// run, so served outputs are unaffected.
    pub fn set_tracer(&mut self, tracer: Arc<mggcn_trace::Tracer>) {
        self.tracer = Some(tracer);
    }

    pub fn model(&self) -> &ServingModel {
        &self.model
    }

    pub fn cache(&self) -> &PropagationCache {
        &self.cache
    }

    /// Model a cache-node loss: evict every resident row. Counters
    /// survive (the eviction shows up as invalidations), so report
    /// deltas computed across a fault stay monotone.
    pub fn drop_cache(&mut self) {
        self.cache.clear();
    }

    /// Answer one batch of vertex queries immediately (no batching delay,
    /// replica 0). Returns one output row per queried vertex, bit-identical
    /// to the corresponding [`ServingModel::forward_full`] rows; an empty
    /// query is a `0 × classes` matrix.
    pub fn query(&mut self, vertices: &[u32]) -> Dense {
        if vertices.is_empty() {
            return Dense::zeros(0, self.model.out_dim());
        }
        self.run_batch(vertices, 0).0
    }

    /// Answer one vertex **without touching the GPU queue**: the overload
    /// fallback. Returns (output row, whether the layer-0 row came from the
    /// propagation cache).
    ///
    /// The degraded forward pass uses the cached layer-0 row when resident
    /// (layer 0's exact SpMM output — the expensive kernel the cache exists
    /// to skip) and the vertex's own row of the layer-0 operand otherwise
    /// (`(H⁰W⁰)[v]` or `H⁰[v]`), then applies the dense tail with
    /// **identity propagation** for layers ≥ 1 (no neighbor rows are
    /// available without the k-hop extraction this path exists to avoid).
    /// The answer is approximate and must be tagged degraded by the caller;
    /// it is deterministic, finite, and costs O(Σ dᵢ·dᵢ₊₁) host work with
    /// no queueing.
    pub fn degraded_answer(&mut self, vertex: u32) -> (Vec<f32>, bool) {
        assert!((vertex as usize) < self.model.vertices(), "vertex out of range");
        let (mut h, cached) = match self.cache.get(vertex) {
            Some(row) => (row.to_vec(), true),
            None => (self.model.layer0_operand().row(vertex as usize).to_vec(), false),
        };
        let gemm_first = self.model.layer0_gemm_first();
        let weights = self.model.weights().clone();
        for (l, w) in weights.iter().enumerate() {
            // A layer 0 that multiplied first already holds `·W⁰`.
            if l > 0 || !gemm_first {
                let mut z = vec![0.0f32; w.cols()];
                for (i, &x) in h.iter().enumerate() {
                    let wrow = w.row(i);
                    for (j, zj) in z.iter_mut().enumerate() {
                        *zj += x * wrow[j];
                    }
                }
                h = z;
            }
            if l + 1 < weights.len() {
                relu_inplace(&mut h);
            }
        }
        (h, cached)
    }

    /// Apply a graph delta and invalidate the affected cache rows.
    /// Returns (vertices whose aggregation changed, rows actually evicted).
    ///
    /// Terminology: these are cache-*invalidated* vertices — rows whose
    /// cached propagation no longer matches the mutated graph and must be
    /// recomputed on next touch. This is unrelated to training-time
    /// bounded staleness (`--staleness`, DESIGN §15), where reads of
    /// k-epoch-old snapshots are *declared, intentional* state.
    pub fn apply_delta(&mut self, edges: &[(u32, u32)]) -> (Vec<u32>, usize) {
        let invalidated = self.model.apply_delta(edges);
        let evicted = self.cache.invalidate_many(&invalidated);
        (invalidated, evicted)
    }

    /// Serve a full arrival-ordered trace under the configured batching
    /// policy and machine, returning the aggregate report. The propagation
    /// cache persists across calls (serve the same trace twice to measure
    /// warm-cache behaviour); replica clocks reset per call.
    pub fn serve(&mut self, label: &str, requests: &[Request]) -> ServeReport {
        if requests.is_empty() {
            // An empty trace is a valid (if dull) workload — zero-request
            // summary, not a panic.
            return ServeReport::zero(label);
        }
        let stats_before = *self.cache.stats();
        // Ready times are nondecreasing (see `form_batches`), so formation
        // order is dispatch order.
        let batches = form_batches(requests, &self.cfg.policy);
        let mut free_at = vec![0.0f64; self.cfg.machine.gpu_count()];
        let mut latency = LatencyStats::new();
        let (mut compute_seconds, mut last_done) = (0.0f64, 0.0f64);
        for b in &batches {
            let gpu = (0..free_at.len())
                .min_by(|&x, &y| free_at[x].total_cmp(&free_at[y]))
                .expect("machine has GPUs");
            let (_, service) = self.run_batch(&b.vertices(), gpu);
            let done = b.ready_at.max(free_at[gpu]) + service;
            free_at[gpu] = done;
            last_done = last_done.max(done);
            compute_seconds += service;
            for r in &b.requests {
                let seconds = done - r.arrival;
                latency.record(seconds);
                if let Some(tracer) = &self.tracer {
                    tracer.latency_record("serve.latency_seconds", seconds);
                }
            }
        }
        if let Some(tracer) = &self.tracer {
            tracer.counter_add("serve.requests", requests.len() as u64);
        }
        let first_arrival = requests[0].arrival;
        let duration = (last_done - first_arrival).max(f64::MIN_POSITIVE);
        let s = self.cache.stats();
        let cache = CacheStats {
            hits: s.hits - stats_before.hits,
            misses: s.misses - stats_before.misses,
            insertions: s.insertions - stats_before.insertions,
            evictions: s.evictions - stats_before.evictions,
            invalidations: s.invalidations - stats_before.invalidations,
        };
        ServeReport {
            label: label.to_string(),
            requests: requests.len(),
            batches: batches.len(),
            mean_batch: requests.len() as f64 / batches.len() as f64,
            duration,
            throughput_rps: requests.len() as f64 / duration,
            mean_ms: latency.mean() * 1e3,
            p50_ms: latency.p50() * 1e3,
            p95_ms: latency.p95() * 1e3,
            p99_ms: latency.p99() * 1e3,
            max_ms: latency.max() * 1e3,
            compute_seconds,
            compute_per_request_us: compute_seconds / requests.len() as f64 * 1e6,
            cache,
            cache_hit_rate: cache.hit_rate(),
        }
    }

    /// Build (but do not run) the tagged op schedule one batch of vertex
    /// queries would execute on `gpu` — the input `mggcn analyze` verifies
    /// for the serving path. Probes the propagation cache exactly as
    /// execution would (the op costs depend on the miss count), so cache
    /// hit/miss statistics advance; nothing is inserted because no body
    /// runs.
    pub fn batch_schedule(&mut self, vertices: &[u32], gpu: usize) -> Schedule<Mutex<BatchCtx>> {
        self.build_batch(vertices, gpu).0
    }

    /// Build one batch's schedule plus the context its bodies compute
    /// over. Returns (schedule, context, cache hits, cache misses). Panics
    /// on an empty batch, or naming the first out-of-range vertex before
    /// the cache is probed.
    fn build_batch(
        &mut self,
        vertices: &[u32],
        gpu: usize,
    ) -> (Schedule<Mutex<BatchCtx>>, Mutex<BatchCtx>, u64, u64) {
        assert!(!vertices.is_empty(), "empty batch");
        let n = self.model.vertices();
        if let Some(v) = vertices.iter().find(|&&v| v as usize >= n) {
            panic!("query vertex {v} out of range for {n} vertices");
        }
        let layers = self.model.layers();
        let gemm_first = self.model.layer0_gemm_first();
        let operand = self.model.layer0_operand().clone();
        let d0 = operand.cols();
        let a_hat_t = self.model.a_hat_t().clone();
        // Taken, not borrowed: a batch that panics leaves fresh buffers.
        let mut bufs = std::mem::take(&mut self.bufs);
        let BatchBufs { scratch, khop, misses, miss_at, agg, h, queries, .. } = &mut bufs;
        khop_layers_into(&a_hat_t, vertices, layers, scratch, khop);
        queries.clear();
        queries.extend_from_slice(vertices);

        // Probe the cache for layer-0 rows in ascending global order
        // (host-side: the schedule's costs depend on the miss count). Every
        // row of `rows0` is written, by a hit here or by layer 0's SpMM.
        let rows0 = if gemm_first { h } else { agg };
        rows0.resize(khop.rows[0].len(), d0);
        misses.clear();
        miss_at.clear();
        for (i, &g) in khop.rows[0].iter().enumerate() {
            match self.cache.get(g) {
                Some(row) => rows0.row_mut(i).copy_from_slice(row),
                None => {
                    misses.push(g);
                    miss_at.push(i as u32);
                }
            }
        }
        let hits = khop.rows[0].len() - misses.len();
        let miss_nnz: usize = misses.iter().map(|&g| a_hat_t.row_nnz(g as usize)).sum();

        let spec = self.cfg.machine.gpus[gpu];
        let cost = CostModel::default();
        let mut sched: Schedule<Mutex<BatchCtx>> = Schedule::new(self.cfg.machine.clone());
        let stream = 0;

        // Extraction: per-batch fixed cost (the batching lever) plus the
        // entries the shells copy.
        let copied: usize = khop.shells.iter().map(Csr::nnz).sum();
        sched.record(
            gpu,
            stream,
            Work::Fixed { seconds: EXTRACT_FIXED + EXTRACT_PER_ENTRY * copied as f64 },
            OpDesc::new(Category::Other, "serve-extract"),
            Effects::none(),
            None,
        );

        // Gather layer 0's rows, hit or miss: costed only, the hits are
        // already in `rows0` and the operand is read in place. Layer 0
        // writes where its consumer reads: the aggregation the GeMM takes,
        // or, when it multiplied first, the output the ReLU takes.
        let (src0, dst0) = if gemm_first { ("SRV_HW", "SRV_H") } else { ("SRV_H", "SRV_AGG") };
        sched.record(
            gpu,
            stream,
            cost.elementwise((khop.rows[0].len() * d0) as u64, 1.0),
            OpDesc::new(Category::Other, "serve-gather"),
            Effects::none().writes([BufId::new(gpu, src0), BufId::new(gpu, dst0)]),
            None,
        );

        for l in 0..layers {
            let w = &self.model.weights()[l];
            let (d_in, d_out) = (w.rows(), w.cols());
            let n_rows = khop.rows[l].len();
            if l == 0 {
                // Layer 0: row-sliced SpMM over cache misses only.
                if !misses.is_empty() {
                    sched.record(
                        gpu,
                        stream,
                        cost.spmm(
                            &spec,
                            misses.len() as u64,
                            miss_nnz.min(n) as u64,
                            miss_nnz as u64,
                            d0 as u64,
                            false,
                        ),
                        OpDesc::new(Category::SpMM, "serve-spmm"),
                        // Only the miss rows of layer 0's output are
                        // overwritten — the cache hits survive (RMW).
                        Effects::none()
                            .reads([BufId::new(gpu, src0)])
                            .rw(BufId::new(gpu, dst0))
                            .writes([BufId::new(gpu, "SRV_MISS")]),
                        Some(Box::new(move |ctx: &Mutex<BatchCtx>| {
                            let BatchCtx {
                                a_hat_t,
                                operand,
                                bufs: BatchBufs { misses, miss_at, agg, h, miss_agg, .. },
                                ..
                            } = &mut *lock_ctx(ctx);
                            let rows0 = if gemm_first { h } else { agg };
                            miss_agg.resize(misses.len(), operand.cols());
                            spmm_rows(a_hat_t, misses, operand, miss_agg, Accumulate::Overwrite);
                            for (i, &at) in miss_at.iter().enumerate() {
                                rows0.row_mut(at as usize).copy_from_slice(miss_agg.row(i));
                            }
                        })),
                    );
                }
            } else {
                let shell = &khop.shells[l - 1];
                let (cols, nnz) = (shell.cols() as u64, shell.nnz() as u64);
                sched.record(
                    gpu,
                    stream,
                    cost.spmm(&spec, n_rows as u64, cols, nnz, d_in as u64, false),
                    OpDesc::new(Category::SpMM, "serve-spmm"),
                    Effects::none()
                        .reads([BufId::new(gpu, "SRV_H")])
                        .writes([BufId::new(gpu, "SRV_AGG")]),
                    Some(Box::new(move |ctx: &Mutex<BatchCtx>| {
                        let BatchBufs { khop, h, agg, .. } = &mut lock_ctx(ctx).bufs;
                        let shell = &khop.shells[l - 1];
                        agg.resize(shell.rows(), h.cols());
                        spmm(shell, h, agg, Accumulate::Overwrite);
                    })),
                );
            }

            // A layer 0 that multiplied first has its `·W⁰` in the operand.
            if l > 0 || !gemm_first {
                sched.record(
                    gpu,
                    stream,
                    cost.gemm(&spec, n_rows as u64, d_in as u64, d_out as u64),
                    OpDesc::new(Category::GeMM, "serve-gemm"),
                    Effects::none()
                        .reads([BufId::new(gpu, "SRV_AGG")])
                        .writes([BufId::new(gpu, "SRV_H")]),
                    Some(Box::new(move |ctx: &Mutex<BatchCtx>| {
                        let BatchCtx { weights, bufs: BatchBufs { h, agg, .. }, .. } =
                            &mut *lock_ctx(ctx);
                        let w = &weights[l];
                        h.resize(agg.rows(), w.cols());
                        gemm(agg, w, h, Accumulate::Overwrite);
                    })),
                );
            }

            if l + 1 < layers {
                sched.record(
                    gpu,
                    stream,
                    cost.elementwise((n_rows * d_out) as u64, 2.0),
                    OpDesc::new(Category::Activation, "serve-relu"),
                    Effects::none().rw(BufId::new(gpu, "SRV_H")),
                    Some(Box::new(|ctx: &Mutex<BatchCtx>| {
                        relu_inplace(lock_ctx(ctx).bufs.h.as_mut_slice());
                    })),
                );
            }
        }

        let classes = self.model.out_dim();
        sched.record(
            gpu,
            stream,
            cost.elementwise((vertices.len() * classes) as u64, 2.0),
            OpDesc::new(Category::Other, "serve-output"),
            Effects::none().reads([BufId::new(gpu, "SRV_H")]).writes([BufId::new(gpu, "SRV_OUT")]),
            Some(Box::new(|ctx: &Mutex<BatchCtx>| {
                let BatchCtx { bufs: BatchBufs { khop, queries, h, .. }, out, .. } =
                    &mut *lock_ctx(ctx);
                let seeds = khop.rows.last().expect("a model has layers");
                *out = Dense::zeros(queries.len(), h.cols());
                for (i, v) in queries.iter().enumerate() {
                    let at = seeds.binary_search(v).expect("every query is a seed");
                    out.row_mut(i).copy_from_slice(h.row(at));
                }
            })),
        );

        let miss_count = misses.len() as u64;
        let ctx = Mutex::new(BatchCtx {
            a_hat_t,
            operand,
            weights: self.model.weights().clone(),
            bufs,
            out: Dense::zeros(0, 0),
        });
        (sched, ctx, hits as u64, miss_count)
    }

    /// Execute one batch of vertex queries on a specific replica GPU:
    /// build the tagged op schedule, run it (bodies compute the numerics),
    /// feed newly computed layer-0 rows back into the cache. Returns
    /// (per-request output rows, simulated service seconds) — the building
    /// block a multi-shard front end schedules around. Outputs are
    /// bit-identical to [`ServingModel::forward_full`] rows.
    pub fn run_batch(&mut self, vertices: &[u32], gpu: usize) -> (Dense, f64) {
        let (sched, ctx, hit_count, miss_count) = self.build_batch(vertices, gpu);
        let r = sched.run(&ctx);
        if let Some(tracer) = &self.tracer {
            tracer.ingest_sim_timeline(&r.timeline, r.makespan, &self.cfg.machine);
            tracer.counter_add("serve.batches", 1);
            tracer.counter_add("serve.cache.hits", hit_count);
            tracer.counter_add("serve.cache.misses", miss_count);
            tracer.latency_record("serve.batch_service_seconds", r.makespan);
        }
        let BatchCtx { bufs, out, .. } = ctx.into_inner().unwrap_or_else(|e| e.into_inner());

        // Feed freshly computed layer-0 rows back into the cache, and keep
        // the buffers — without the model's `Arc`s, which the context drops
        // here, so `apply_delta` can patch `Âᵀ` in place.
        for (i, &g) in bufs.misses.iter().enumerate() {
            self.cache.insert(g, bufs.miss_agg.row(i));
        }
        self.bufs = bufs;
        (out, r.makespan)
    }
}

/// Lock a batch context, recovering from poisoning (a panicked body has
/// already been reported by the executor).
fn lock_ctx(ctx: &Mutex<BatchCtx>) -> std::sync::MutexGuard<'_, BatchCtx> {
    ctx.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use mggcn_gpusim::MachineSpec;
    use mggcn_graph::generators::chung_lu;
    use mggcn_trace::json;

    fn tiny_server(cache_bytes: usize) -> (Server, Dense) {
        let n = 48;
        let adj = chung_lu::generate(&vec![4u32; n], 5);
        let feats = Dense::from_fn(n, 6, |r, c| ((r + 2 * c) as f32).sin());
        let w0 = Dense::from_fn(6, 5, |r, c| ((r * 2 + c) as f32).cos() * 0.3);
        let w1 = Dense::from_fn(5, 3, |r, c| ((r + 3 * c) as f32).sin() * 0.3);
        let model = ServingModel::from_parts(vec![w0, w1], adj, feats).expect("valid model");
        let reference = model.forward_full();
        let cfg = ServeConfig::new(MachineSpec::dgx_a100(), BatchPolicy::new(1e-3, 8), cache_bytes);
        (Server::new(model, cfg), reference)
    }

    #[test]
    fn empty_trace_yields_zero_report_not_panic() {
        let (mut server, _) = tiny_server(1 << 16);
        let r = server.serve("empty", &[]);
        assert_eq!(r.requests, 0);
        assert_eq!(r.batches, 0);
        assert_eq!(r.p99_ms, 0.0);
        assert_eq!(r.throughput_rps, 0.0);
        json::parse(&r.to_json()).expect("and its JSON still parses");
    }

    #[test]
    fn report_json_parses_back() {
        let (mut server, _) = tiny_server(1 << 16);
        let reqs: Vec<Request> = (0..20)
            .map(|i| Request { id: i, vertex: (i % 13) as u32, arrival: i as f64 * 1e-4 })
            .collect();
        let r = server.serve("smoke", &reqs);
        let v = json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("label").and_then(json::Value::as_str), Some("smoke"));
        assert_eq!(v.get("requests").unwrap().as_num(), Some(20.0));
        assert!(v.get("latency_ms").and_then(|l| l.get("p99")).is_some());
        assert!(v.get("cache").and_then(|c| c.get("hit_rate")).is_some());
    }

    #[test]
    fn run_batch_matches_the_full_forward_oracle() {
        let (mut server, reference) = tiny_server(1 << 16);
        let batch = vec![1u32, 7, 30, 7];
        let (out, service) = server.run_batch(&batch, 0);
        assert!(service > 0.0);
        for (i, &v) in batch.iter().enumerate() {
            assert_eq!(out.row(i), reference.row(v as usize), "row {v} differs");
        }
    }

    #[test]
    fn degraded_answer_is_deterministic_finite_and_tagged() {
        let (mut server, _) = tiny_server(1 << 16);
        // Cold: no cached aggregation → uncached tag.
        let (cold, cached) = server.degraded_answer(3);
        assert!(!cached);
        assert!(cold.iter().all(|v| v.is_finite()));
        // Warm the cache via the exact path, then the degraded answer uses
        // the exact layer-0 row.
        server.query(&[3]);
        let (warm, cached) = server.degraded_answer(3);
        assert!(cached, "row must be resident after an exact query");
        assert!(warm.iter().all(|v| v.is_finite()));
        let (warm2, _) = server.degraded_answer(3);
        assert_eq!(warm, warm2, "degraded path must be deterministic");
        assert_eq!(warm.len(), server.model().out_dim());
    }
}
