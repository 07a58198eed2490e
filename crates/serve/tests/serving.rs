//! End-to-end serving guarantees:
//!
//! 1. the batched, cached serving path returns outputs **bit-identical**
//!    to the reference full-graph forward pass — cold, warm, and after a
//!    graph-delta invalidation;
//! 2. micro-batching sustains ≥2× the throughput of batch-size-1 serving
//!    on the same simulated hardware;
//! 3. a warm propagation cache reduces mean per-request compute vs cold;
//! 4. a query outside the graph is refused before it touches the cache;
//! 5. layer 0 runs in §4.4's order: a layer 0 that does not widen is one
//!    SpMM over the frozen `H⁰·W⁰` at `d_out(0)` with no GeMM, a widening
//!    one aggregates `H⁰` first exactly as before.
//! 6. layer 0's miss SpMM is priced on the misses: its bytes rise with them.

use mggcn_dense::Dense;
use mggcn_dense::{gemm, relu_inplace, Accumulate};
use mggcn_gpusim::{CostModel, GpuSpec, MachineSpec, Work};
use mggcn_graph::generators::chung_lu;
use mggcn_graph::sampling::khop_layers;
use mggcn_serve::{
    generate_load, BatchPolicy, LoadGenConfig, ServeConfig, Server, ServingModel, EXTRACT_FIXED,
    EXTRACT_PER_ENTRY,
};
use mggcn_sparse::{spmm, Coo};
use std::sync::Arc;

fn model(n: usize, d0: usize, hidden: usize, classes: usize, seed: u64) -> ServingModel {
    let adj = chung_lu::generate(&vec![6u32; n], seed);
    let feats = Dense::from_fn(n, d0, |r, c| ((r * d0 + c) as f32 * 0.37).sin());
    let w0 = Dense::from_fn(d0, hidden, |r, c| ((r + 5 * c) as f32 * 0.61).cos() * 0.4);
    let w1 = Dense::from_fn(hidden, classes, |r, c| ((3 * r + c) as f32 * 0.53).sin() * 0.4);
    ServingModel::from_parts(vec![w0, w1], adj, feats).expect("valid model")
}

fn config(policy: BatchPolicy, cache_bytes: usize) -> ServeConfig {
    ServeConfig::new(MachineSpec::dgx_a100(), policy, cache_bytes)
}

#[test]
fn served_outputs_bit_identical_to_full_forward() {
    let m = model(200, 16, 12, 5, 11);
    let reference = m.forward_full();
    let mut server = Server::new(m, config(BatchPolicy::new(1e-3, 16), 1 << 20));

    // Cold pass: every aggregation row computed from the global operator.
    let queries: Vec<u32> = vec![0, 7, 42, 199, 7, 63];
    let out = server.query(&queries);
    for (i, &v) in queries.iter().enumerate() {
        assert_eq!(out.row(i), reference.row(v as usize), "cold row {v}");
    }
    assert!(server.cache().stats().insertions > 0, "cold pass must populate the cache");

    // Warm pass: same queries again, now served from cached rows.
    let hits_before = server.cache().stats().hits;
    let out2 = server.query(&queries);
    assert!(server.cache().stats().hits > hits_before, "warm pass must hit the cache");
    for (i, &v) in queries.iter().enumerate() {
        assert_eq!(out2.row(i), reference.row(v as usize), "warm row {v}");
    }
}

#[test]
fn outputs_stay_bit_identical_after_graph_delta() {
    let m = model(150, 12, 10, 4, 13);
    let mut server = Server::new(m, config(BatchPolicy::new(1e-3, 16), 1 << 20));

    // Warm the cache over a broad query set.
    let all: Vec<u32> = (0..150).collect();
    server.query(&all);
    assert!(server.cache().stats().insertions > 0);

    // Mutate the graph; affected cached rows must be invalidated.
    let (invalidated, evicted) = server.apply_delta(&[(3, 77), (10, 140)]);
    assert!(!invalidated.is_empty());
    assert!(evicted > 0, "warm cache must lose the affected rows");

    // Every output — served through the surviving cache entries plus
    // recomputation — matches the post-delta reference bit-for-bit.
    let reference = server.model().forward_full();
    let out = server.query(&all);
    for v in 0..150usize {
        assert_eq!(out.row(v), reference.row(v), "post-delta row {v}");
    }
}

#[test]
fn micro_batching_doubles_sustained_throughput() {
    // Identical trace and hardware; only the batching policy differs.
    // Caching is disabled on both sides to isolate the batching effect,
    // and the single-GPU machine is driven past its unbatched capacity so
    // sustained throughput reflects service rate, not the arrival rate.
    let trace = generate_load(&LoadGenConfig::uniform(100_000.0, 400, 300, 21));
    let machine = || MachineSpec::uniform("1xA100", GpuSpec::a100(), 1, 12, 300.0e9);

    let mut unbatched = Server::new(
        model(300, 16, 12, 5, 17),
        ServeConfig::new(machine(), BatchPolicy::unbatched(), 0),
    );
    let single = unbatched.serve("unbatched", &trace);

    let mut batched = Server::new(
        model(300, 16, 12, 5, 17),
        ServeConfig::new(machine(), BatchPolicy::new(1e-3, 32), 0),
    );
    let micro = batched.serve("batched", &trace);

    assert!(micro.mean_batch > 1.5, "trace must actually coalesce");
    assert!(
        micro.throughput_rps >= 2.0 * single.throughput_rps,
        "batched {:.0} rps vs unbatched {:.0} rps",
        micro.throughput_rps,
        single.throughput_rps
    );
}

#[test]
fn warm_cache_reduces_mean_per_request_compute() {
    // Hot-skewed traffic over a cache big enough for the working set.
    let trace = generate_load(&LoadGenConfig::skewed(20_000.0, 300, 200, 29));
    let mut server =
        Server::new(model(200, 16, 12, 5, 19), config(BatchPolicy::new(1e-3, 16), 8 << 20));

    let cold = server.serve("cold", &trace);
    let warm = server.serve("warm", &trace);

    assert!(warm.cache_hit_rate > 0.9, "second pass must be warm, got {}", warm.cache_hit_rate);
    assert!(
        warm.compute_per_request_us < cold.compute_per_request_us,
        "warm {:.2}us/req must beat cold {:.2}us/req",
        warm.compute_per_request_us,
        cold.compute_per_request_us
    );
}

/// Pins `Server::apply_delta`'s contract: the first element is exactly the
/// delta's endpoints, ascending and deduplicated — the only rows of `Âᵀ` an
/// edge changes (the *invalidated* vertices — serve-side cache coherence,
/// nothing to do with training-time bounded staleness) — and the second
/// counts rows actually evicted, which is zero on a cold cache and bounded
/// by the invalidated set when warm.
#[test]
fn apply_delta_returns_invalidated_vertices_and_eviction_count() {
    let m = model(120, 10, 8, 4, 17);
    let mut server = Server::new(m, config(BatchPolicy::new(1e-3, 16), 1 << 20));

    // Cold cache: the invalidated set is purely structural, evictions 0.
    let (cold_invalidated, cold_evicted) = server.apply_delta(&[(60, 5)]);
    assert_eq!(cold_invalidated, vec![5, 60]);
    assert_eq!(cold_evicted, 0, "nothing cached, nothing to evict");

    // Warm the cache, re-apply the same delta: the set is identical (same
    // endpoints), and now the eviction count is positive but never exceeds
    // the invalidated set.
    let all: Vec<u32> = (0..120).collect();
    server.query(&all);
    let (warm_invalidated, warm_evicted) = server.apply_delta(&[(5, 60)]);
    assert_eq!(warm_invalidated, cold_invalidated, "structural set must not depend on cache state");
    assert!(warm_evicted > 0, "warm cache must evict the affected rows");
    assert!(warm_evicted <= warm_invalidated.len());

    // Served outputs still match a from-scratch forward bit-for-bit.
    let reference = server.model().forward_full();
    let out = server.query(&all);
    for v in 0..120usize {
        assert_eq!(out.row(v), reference.row(v), "post-delta row {v}");
    }
}

/// A `layers`-deep model over a directed graph in which vertex 0 has no
/// in-edges (an empty row of `Âᵀ`) and most edges have no reverse.
fn directed_model(n: usize, layers: usize) -> ServingModel {
    let mut coo = Coo::new(n, n);
    for u in 0..n as u32 {
        for k in 1..6u32 {
            let v = (u * 7 + k * 13) % n as u32;
            if v != 0 {
                coo.push(u, v, 1.0);
            }
        }
    }
    let dims = [5usize, 6, 4, 3][3 - layers..].to_vec();
    let weights = dims
        .windows(2)
        .enumerate()
        .map(|(l, d)| Dense::from_fn(d[0], d[1], |r, c| ((r * 5 + c + l) as f32 * 0.7).cos() * 0.5))
        .collect();
    let feats = Dense::from_fn(n, dims[0], |r, c| ((r * dims[0] + c) as f32 * 0.31).sin());
    ServingModel::from_parts(weights, coo.to_csr(), feats).expect("valid model")
}

fn bits(m: &Dense, r: usize) -> Vec<u32> {
    m.row(r).iter().map(|x| x.to_bits()).collect()
}

fn assert_answers(out: &Dense, batch: &[u32], reference: &Dense, when: &str) {
    assert_eq!(out.rows(), batch.len());
    for (i, &v) in batch.iter().enumerate() {
        assert_eq!(bits(out, i), bits(reference, v as usize), "{when}: vertex {v}");
    }
}

#[test]
fn one_two_and_three_layer_batches_equal_forward_full_on_both_backends() {
    let n = 90;
    for layers in 1..=3 {
        let when = |phase: &str| format!("{layers} layers, {phase}");
        let m = directed_model(n, layers);
        let reference = m.forward_full();
        assert_eq!(m.a_hat_t().row_nnz(0), 0, "vertex 0 has no in-edges");
        let cfg = config(BatchPolicy::new(1e-3, 16), 1 << 20);
        let batch = [0u32, 17, 17, 42, 5, 0, 89];

        // The prices: a 1-layer batch walks nothing and copies no shell, a
        // 3-layer one copies two.
        let (d0, gemm_first) = (m.layer0_operand().cols(), m.layer0_gemm_first());
        let want = cold_batch_ops(&m, &cfg, &batch, d0, !gemm_first);
        let shells = khop_layers(m.a_hat_t(), &batch, layers).shells.len();
        assert_eq!(shells, layers - 1, "{}", when("shells"));
        if layers == 1 {
            let fixed = Work::Fixed { seconds: EXTRACT_FIXED };
            assert_eq!(want[0], ("serve-extract", fixed), "{}", when("extract"));
        }
        let got = batch_ops(&mut Server::new(m.clone(), cfg.clone()), &batch);
        assert_eq!(got, want, "{}", when("cold ops"));
        let mut server = Server::new(m, cfg);

        // Cold: every layer-0 row misses.
        let before = *server.cache().stats();
        assert_answers(&server.query(&batch), &batch, &reference, &when("cold"));
        assert_eq!(server.cache().stats().hits, before.hits, "{}", when("cold hits"));

        // Warm: the same batch again, every layer-0 row hits.
        let before = *server.cache().stats();
        assert_answers(&server.query(&batch), &batch, &reference, &when("warm"));
        assert_eq!(server.cache().stats().misses, before.misses, "{}", when("warm misses"));

        // Warm prices: no layer-0 SpMM, and the gather still moves
        // `|R_0|·d0` — the cold list without its first SpMM.
        let mut warm = want.clone();
        warm.remove(warm.iter().position(|&(label, _)| label == "serve-spmm").expect("spmm"));
        let rows0 = khop_layers(server.model().a_hat_t(), &batch, layers).rows[0].len();
        let gather = CostModel::default().elementwise((rows0 * d0) as u64, 1.0);
        assert_eq!(warm[1], ("serve-gather", gather), "{}", when("warm gather"));
        assert_eq!(batch_ops(&mut server, &batch), warm, "{}", when("warm ops"));

        // The batch context let go of the operator, so a delta patches
        // it in place instead of deep-copying it.
        assert_eq!(Arc::strong_count(server.model().a_hat_t()), 1, "{}", when("refs"));
        let operator = Arc::as_ptr(server.model().a_hat_t());
        server.apply_delta(&[(0, 17), (42, 89)]);
        assert_eq!(Arc::as_ptr(server.model().a_hat_t()), operator, "{}", when("delta"));

        // After the delta: survivors hit, the endpoints recompute.
        let reference = server.model().forward_full();
        let mixed = [89u32, 3, 0, 42, 17, 61, 3];
        assert_answers(&server.query(&mixed), &mixed, &reference, &when("after delta"));
        assert_eq!(Arc::strong_count(server.model().a_hat_t()), 1, "{}", when("refs"));
    }
}

#[test]
fn out_of_range_queries_are_refused_before_the_cache_and_empty_ones_are_empty() {
    let m = model(60, 8, 6, 3, 23);
    let mut server = Server::new(m, config(BatchPolicy::new(1e-3, 16), 1 << 20));
    server.query(&[1, 2, 3]);
    let before = *server.cache().stats();
    let keys = server.cache().keys_mru_first();

    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        server.query(&[4, 60, 5]);
    }))
    .expect_err("vertex 60 is out of range");
    let msg = panic.downcast_ref::<String>().expect("formatted panic");
    assert!(msg.contains("query vertex 60 out of range for 60 vertices"), "got: {msg}");
    assert_eq!(*server.cache().stats(), before, "no lookup may happen");
    assert_eq!(server.cache().keys_mru_first(), keys, "LRU order untouched");

    let none = server.query(&[]);
    assert_eq!((none.rows(), none.cols()), (0, 3));
    assert_eq!(*server.cache().stats(), before);
}

#[test]
fn a_server_that_refused_a_query_still_answers_with_forward_full_bits() {
    let m = model(60, 8, 6, 3, 23);
    let reference = m.forward_full();
    let mut server = Server::new(m, config(BatchPolicy::new(1e-3, 16), 1 << 20));
    server.query(&[1, 2, 3]);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        server.query(&[4, 60, 5]);
    }))
    .expect_err("vertex 60 is out of range");
    // The kept batch buffers and walk state came through the refusal.
    let batch = [4u32, 59, 5, 2, 4];
    assert_answers(&server.query(&batch), &batch, &reference, "after the refusal");
    assert_answers(&server.query(&batch), &batch, &reference, "warm, after the refusal");
}

/// `(misses, bytes of layer 0's SpMM)` of `batch`'s schedule on `server`.
fn layer0_spmm(server: &mut Server, batch: &[u32]) -> (u64, f64) {
    let misses = server.cache().stats().misses;
    let ops = batch_ops(server, batch);
    let misses = server.cache().stats().misses - misses;
    match ops.iter().find(|&&(label, _)| label == "serve-spmm") {
        Some(&(_, Work::Compute { bytes, .. })) => (misses, bytes),
        other => panic!("layer 0's SpMM is a compute op, got {other:?}"),
    }
}

#[test]
fn layer_zero_spmm_bytes_rise_with_the_batch_misses() {
    // The engine prices an op at no less than its launch overhead, and on a
    // small model every miss SpMM fits under it, so simulated times cannot
    // show the misses; the op's declared bytes must.
    let m = model(200, 16, 12, 5, 11);
    let mut server = Server::new(m, config(BatchPolicy::new(1e-3, 16), 1 << 20));
    let batch = [3u32, 50, 77, 120, 181, 199];
    let mut priced = vec![layer0_spmm(&mut server, &batch)];
    // The same vertices, warmer each time: some of their layer-0 rows cached.
    for warm in [&batch[..1], &batch[..3]] {
        server.query(warm);
        priced.push(layer0_spmm(&mut server, &batch));
    }
    assert!(priced.windows(2).all(|w| w[0].0 > w[1].0), "misses fall: {priced:?}");
    assert!(priced.windows(2).all(|w| w[0].1 > w[1].1), "bytes fall with them: {priced:?}");
}

/// The `(label, work)` list a cold batch records, derived from the cost
/// model: extraction on the entries the shells copy, the gather on
/// `|R_0|·d0`, layer 0's SpMM over every row of `R_0` at width `d0` and
/// `min(nnz, n)` operand rows, its GeMM only when `layer0_gemm`, and every
/// layer above aggregating its shell first.
fn cold_batch_ops(
    m: &ServingModel,
    cfg: &ServeConfig,
    batch: &[u32],
    d0: usize,
    layer0_gemm: bool,
) -> Vec<(&'static str, Work)> {
    let (cost, spec) = (CostModel::default(), cfg.machine.gpus[0]);
    let khop = khop_layers(m.a_hat_t(), batch, m.layers());
    let copied: usize = khop.shells.iter().map(|s| s.nnz()).sum();
    let extract = EXTRACT_FIXED + EXTRACT_PER_ENTRY * copied as f64;
    let rows0 = khop.rows[0].len() as u64;
    let mut ops = vec![
        ("serve-extract", Work::Fixed { seconds: extract }),
        ("serve-gather", cost.elementwise(rows0 * d0 as u64, 1.0)),
    ];
    for (l, w) in m.weights().iter().enumerate() {
        let rows = khop.rows[l].len() as u64;
        let (cols, nnz, d) = if l == 0 {
            let nnz: usize = khop.rows[0].iter().map(|&g| m.a_hat_t().row_nnz(g as usize)).sum();
            (nnz.min(m.vertices()), nnz, d0)
        } else {
            (khop.rows[l - 1].len(), khop.shells[l - 1].nnz(), w.rows())
        };
        ops.push(("serve-spmm", cost.spmm(&spec, rows, cols as u64, nnz as u64, d as u64, false)));
        if l > 0 || layer0_gemm {
            ops.push(("serve-gemm", cost.gemm(&spec, rows, w.rows() as u64, w.cols() as u64)));
        }
        if l + 1 < m.layers() {
            ops.push(("serve-relu", cost.elementwise(rows * w.cols() as u64, 2.0)));
        }
    }
    ops.push(("serve-output", cost.elementwise((batch.len() * m.out_dim()) as u64, 2.0)));
    ops
}

/// The `(label, work)` list of the schedule `server` builds for `batch`.
fn batch_ops(server: &mut Server, batch: &[u32]) -> Vec<(&'static str, Work)> {
    server.batch_schedule(batch, 0).op_infos().iter().map(|o| (o.desc.label, o.work)).collect()
}

/// `Âᵀ·H·W` for every layer, in the order given for layer 0 and
/// aggregation first above it, with ReLU between layers.
fn forward_in_order(m: &ServingModel, gemm_first_at_0: bool) -> Dense {
    let n = m.vertices();
    let mut h = (**m.features()).clone();
    for (l, w) in m.weights().iter().enumerate() {
        let product = |a: &Dense| {
            let mut c = Dense::zeros(n, w.cols());
            gemm(a, w, &mut c, Accumulate::Overwrite);
            c
        };
        let aggregate = |a: &Dense| {
            let mut c = Dense::zeros(n, a.cols());
            spmm(m.a_hat_t(), a, &mut c, Accumulate::Overwrite);
            c
        };
        h = if l == 0 && gemm_first_at_0 {
            aggregate(&product(&h))
        } else {
            product(&aggregate(&h))
        };
        if l + 1 < m.layers() {
            relu_inplace(h.as_mut_slice());
        }
    }
    h
}

#[test]
fn layer_zero_follows_the_op_order_rule_and_serves_forward_full_bits() {
    let n = 90;
    let batch = [0u32, 17, 17, 42, 5, 0, 89];
    // (d_in(0), d_out(0)): narrowing, widening, and equal width, which
    // multiplies first like a narrowing layer.
    for (d_in, d_out, gemm_first) in [(8, 5, true), (5, 8, false), (6, 6, true)] {
        let m = model(n, d_in, d_out, 3, 29);
        let case = format!("{d_in} -> {d_out}");
        assert_eq!(m.layer0_gemm_first(), gemm_first, "{case}");
        let width = if gemm_first { d_out } else { d_in };
        assert_eq!(m.layer0_operand().cols(), width, "{case}: operand width");
        assert_eq!(m.feat_dim(), d_in, "{case}: feat_dim stays H⁰'s width");
        // forward_full is the order under test, bit for bit; a widening
        // layer 0 keeps the aggregation-first bits it always had.
        let reference = m.forward_full();
        assert_eq!(reference, forward_in_order(&m, gemm_first), "{case}: forward_full order");

        // A cold batch's ops and costs: no layer-0 GeMM when multiplying
        // first, and the layer-0 SpMM and gather at the operand's width.
        let cfg = config(BatchPolicy::new(1e-3, 16), 1 << 20);
        let want = cold_batch_ops(&m, &cfg, &batch, width, !gemm_first);
        let got = batch_ops(&mut Server::new(m.clone(), cfg.clone()), &batch);
        assert_eq!(got, want, "{case}: ops and costs");

        let when = |phase: &str| format!("{case}, {phase}");
        let mut server = Server::new(m, cfg);
        assert_eq!(server.cache().stride(), width, "{}", when("cache stride"));
        assert_answers(&server.query(&batch), &batch, &reference, &when("cold"));
        let before = *server.cache().stats();
        assert_answers(&server.query(&batch), &batch, &reference, &when("warm"));
        assert_eq!(server.cache().stats().misses, before.misses, "{}", when("warm misses"));
        server.apply_delta(&[(0, 17), (42, 89), (5, 5)]);
        let reference = server.model().forward_full();
        let mixed = [89u32, 3, 0, 42, 17, 61, 3, 5];
        assert_answers(&server.query(&mixed), &mixed, &reference, &when("after delta"));
    }
}
