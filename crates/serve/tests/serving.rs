//! End-to-end serving guarantees:
//!
//! 1. the batched, cached serving path returns outputs **bit-identical**
//!    to the reference full-graph forward pass — cold, warm, and after a
//!    graph-delta invalidation;
//! 2. micro-batching sustains ≥2× the throughput of batch-size-1 serving
//!    on the same simulated hardware;
//! 3. a warm propagation cache reduces mean per-request compute vs cold.

use mggcn_dense::Dense;
use mggcn_gpusim::{GpuSpec, MachineSpec};
use mggcn_graph::generators::chung_lu;
use mggcn_serve::{generate_load, BatchPolicy, LoadGenConfig, ServeConfig, Server, ServingModel};

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

    // Cold pass: every aggregation row computed via the induced block.
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
