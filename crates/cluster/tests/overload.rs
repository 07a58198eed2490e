//! The overload gate: a cluster driven at twice its measured capacity
//! under bounded admission must keep the admitted p99 inside the SLO, keep
//! the degraded rate bounded, really shed, and answer every request — at
//! both topologies and at the sizes `mggcn cluster-bench` is documented
//! with (1200 requests over a 1200-vertex graph, model trained 8 epochs).
//! Smaller runs may not generate enough load to trip the inflight bound.

use mggcn_cluster::{overload_study, ClusterConfig, OverloadSpec};
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_serve::{BatchPolicy, ServingModel};
use mggcn_trace::json;

#[test]
fn overloaded_cluster_meets_its_slo_and_sheds_at_2x2_and_4x1() {
    let seed = 42;
    let graph = sbm::generate(&SbmConfig::community_benchmark(1200, 5), seed);
    let model = ServingModel::train(&graph, 32, 8).expect("serving model trains");
    // `mggcn cluster-bench`'s defaults.
    let spec =
        OverloadSpec { qps_mult: 2.0, requests: 1200, seed, slo_ms: 50.0, max_degraded: 0.9 };
    for (shards, gpus_per_shard) in [(2, 2), (4, 1)] {
        let mut cfg = ClusterConfig::new(shards, gpus_per_shard, BatchPolicy::new(1.0e-3, 32));
        cfg.cache_bytes = 16 << 20;
        let study = overload_study(&model, cfg, spec, None);
        let at = format!("{shards}x{gpus_per_shard}: {}", study.outcome.report.render());
        let v = study.verdicts;
        assert!(v.p99_ok, "admitted p99 over the {} ms SLO at {at}", spec.slo_ms);
        assert!(v.degraded_bounded, "degraded rate over {} at {at}", spec.max_degraded);
        assert!(v.degraded_nonzero, "admission never engaged at {at}");
        assert!(v.all_answered, "a request went unanswered at {at}");
        assert!(study.ok());
        assert!(study.capacity_rps.is_finite() && study.capacity_rps > 0.0, "{at}");

        json::parse(&study.to_json()).expect("what cluster-bench prints is JSON");
    }
}
