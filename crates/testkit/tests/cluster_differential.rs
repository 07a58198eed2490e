//! Differential conformance for the sharded serving tier: a cluster of
//! any shard count must answer every
//! non-degraded request **bit-identically** to the single-replica
//! full-graph oracle ([`ServingModel::forward_full`]) — sharding, routing,
//! batching, replica scheduling and per-shard caches are all
//! latency/locality mechanisms, never numerics.
//!
//! Under tight admission the cluster must still answer *every* request:
//! shed ones come back tagged degraded with bounded latency, admitted
//! ones stay bit-exact.

use mggcn_cluster::{AdmissionPolicy, Cluster, ClusterConfig, PartitionPlan, DEGRADED_COST};
use mggcn_dense::Dense;
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_serve::{generate_load, BatchPolicy, LoadGenConfig, ServeConfig, Server, ServingModel};

fn model(n: usize, seed: u64) -> (ServingModel, Dense, mggcn_sparse::Csr) {
    let graph = sbm::generate(&SbmConfig::community_benchmark(n, 4), seed);
    let feats = Dense::from_fn(n, 8, |r, c| ((r * 3 + c) as f32).sin());
    let w0 = Dense::from_fn(8, 6, |r, c| ((r * 2 + c) as f32).cos() * 0.25);
    let w1 = Dense::from_fn(6, 4, |r, c| ((r + 3 * c) as f32).sin() * 0.25);
    let m = ServingModel::from_parts(vec![w0, w1], graph.adj.clone(), feats).expect("valid");
    let oracle = m.forward_full();
    (m, oracle, graph.adj)
}

#[test]
fn sharded_serving_matches_the_oracle_across_shard_counts_and_backends() {
    let (m, oracle, adj) = model(240, 7);
    let reqs = generate_load(&LoadGenConfig::skewed(50_000.0, 500, 240, 13));
    for shards in [1usize, 2, 4] {
        let plan = PartitionPlan::cache_aware(&adj, shards, 7);
        let mut cfg = ClusterConfig::new(shards, 2, BatchPolicy::new(5e-4, 16));
        // Unbounded admission: every answer must take the exact path.
        cfg.admission = AdmissionPolicy::unbounded();
        let mut cluster = Cluster::new(&m, cfg, Some(&plan));
        let out = cluster.serve_trace("diff", &reqs);
        assert_eq!(out.answers.len(), reqs.len());
        assert_eq!(out.report.degraded, 0, "unbounded admission never sheds");
        for a in &out.answers {
            assert!(!a.degraded);
            assert_eq!(
                a.row,
                oracle.row(a.vertex as usize),
                "vertex {} differs at P={shards}",
                a.vertex
            );
        }
    }
}

#[test]
fn shard_count_does_not_change_any_admitted_answer() {
    // Same trace through P=1 and P=4: the exact answers must agree bit-for-
    // bit with each other (both equal the oracle, checked independently
    // above — this asserts the cross-P property directly on ids).
    let (m, _, adj) = model(180, 11);
    let reqs = generate_load(&LoadGenConfig::uniform(40_000.0, 300, 180, 5));
    let run = |shards: usize| {
        let plan = PartitionPlan::cache_aware(&adj, shards, 3);
        let cfg = ClusterConfig::new(shards, 1, BatchPolicy::new(5e-4, 8));
        let mut cluster = Cluster::new(&m, cfg, Some(&plan));
        cluster.serve_trace("p", &reqs).answers
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.row, b.row, "request {} answered differently at P=1 vs P=4", a.id);
    }
}

#[test]
fn tight_admission_sheds_with_tagged_bounded_degraded_answers() {
    let (m, oracle, adj) = model(200, 3);
    let plan = PartitionPlan::cache_aware(&adj, 2, 3);
    let window = 2e-4;
    let mut cfg = ClusterConfig::new(2, 1, BatchPolicy::new(window, 8));
    cfg.admission = AdmissionPolicy::new(0.0, 1);
    let mut cluster = Cluster::new(&m, cfg, Some(&plan));
    // Way past one replica GPU per shard: shedding must engage.
    let reqs = generate_load(&LoadGenConfig::uniform(3.0e6, 600, 200, 17));
    let out = cluster.serve_trace("overload", &reqs);

    assert_eq!(out.answers.len(), reqs.len(), "overload never drops a request");
    assert!(out.report.degraded > 0, "overload must shed");
    assert!(out.report.admitted > 0, "admission must not starve");
    assert_eq!(out.report.admitted + out.report.degraded, out.report.requests);
    let bound = window + DEGRADED_COST + 1e-12;
    for a in &out.answers {
        if a.degraded {
            // Tagged, bounded, finite — never a timeout.
            assert!(a.latency <= bound, "degraded latency {} over bound {bound}", a.latency);
            assert!(a.row.iter().all(|v| v.is_finite()));
            assert_eq!(a.row.len(), m.out_dim());
        } else {
            // Admitted answers stay bit-exact even while shedding.
            assert_eq!(a.row, oracle.row(a.vertex as usize));
        }
    }
}

#[test]
fn degraded_answers_are_deterministic_across_identical_runs() {
    let (m, _, adj) = model(160, 19);
    let plan = PartitionPlan::cache_aware(&adj, 2, 9);
    let run = || {
        let mut cfg = ClusterConfig::new(2, 1, BatchPolicy::new(1e-4, 4));
        cfg.admission = AdmissionPolicy::new(0.0, 1);
        let mut cluster = Cluster::new(&m, cfg, Some(&plan));
        let reqs = generate_load(&LoadGenConfig::uniform(2.0e6, 400, 160, 23));
        cluster.serve_trace("det", &reqs)
    };
    let a = run();
    let b = run();
    assert!(a.report.degraded > 0);
    assert_eq!(a.report.degraded, b.report.degraded);
    for (x, y) in a.answers.iter().zip(&b.answers) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.degraded, y.degraded);
        assert_eq!(x.row, y.row, "request {} not reproducible", x.id);
        assert_eq!(x.latency, y.latency);
    }
}

/// `Server::serve` and `Cluster::run_shard` are separate loops on purpose
/// (admission, shedding and fault handling would make a shared one branch
/// on its caller). With those three switched off they must be the same
/// loop: same replica choice, same accounting, bit for bit.
#[test]
fn a_one_shard_unbounded_cluster_is_a_standalone_server_bit_for_bit() {
    let (m, _, _) = model(200, 29);
    let reqs = generate_load(&LoadGenConfig::skewed(60_000.0, 600, 200, 31));
    let mut cfg = ClusterConfig::new(1, 2, BatchPolicy::new(4e-4, 8));
    cfg.cache_bytes = 2 << 10; // small enough to evict
    cfg.admission = AdmissionPolicy::unbounded();
    let server_cfg = ServeConfig::new(cfg.shard_machine(), cfg.policy, cfg.cache_bytes);
    let mut server = Server::new(m.clone(), server_cfg);
    let mut cluster = Cluster::new(&m, cfg, None);

    let alone = server.serve("alone", &reqs);
    let sharded = cluster.serve_trace("sharded", &reqs);
    let c = &sharded.report;
    assert_eq!(c.degraded, 0);
    assert!(alone.cache.evictions > 0, "the cache budget must bind");
    // Answers come back in id order, which on one shard is the order the
    // server recorded them in, so their mean is the server's sum. (The
    // report's own `admitted_mean_ms` sums each shard's samples after its
    // quantiles sorted them and may differ in the last place.)
    let mean = sharded.answers.iter().map(|a| a.latency).sum::<f64>() / reqs.len() as f64;
    assert!((c.admitted_mean_ms - alone.mean_ms).abs() <= 1e-12 * alone.mean_ms);
    for (name, a, b) in [
        ("mean", alone.mean_ms, mean * 1e3),
        ("p50", alone.p50_ms, c.admitted_p50_ms),
        ("p95", alone.p95_ms, c.admitted_p95_ms),
        ("p99", alone.p99_ms, c.admitted_p99_ms),
        ("max", alone.max_ms, c.admitted_max_ms),
        ("duration", alone.duration, c.duration),
        ("compute seconds", alone.compute_seconds, c.compute_seconds),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: server {a} vs cluster {b}");
    }
    assert_eq!(alone.batches, c.shards[0].batches);
    // `serve` keeps no rows; the server's answer to each vertex is what a
    // query returns, whatever the cache holds by now.
    for a in &sharded.answers {
        assert_eq!(a.row, server.query(&[a.vertex]).row(0), "request {}", a.id);
    }
}
