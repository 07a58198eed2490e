//! Golden snapshot of the serving tier's simulated numbers.
//!
//! Every field of a `ServeReport` (served cold, warm, and after a graph
//! delta) and of a 2×2 `ClusterReport` on a fixed model and trace, printed
//! with `{:#?}` so every `f64` round-trips exactly. The batch path may
//! change how it computes; the costs it declares, the cache behaviour they
//! depend on and the latencies that follow may not move by one bit.
//!
//! Regenerate after an intentional cost-model change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p mggcn-testkit --test serve_golden
//! ```

use mggcn_cluster::{AdmissionPolicy, Cluster, ClusterConfig, PartitionPlan};
use mggcn_dense::Dense;
use mggcn_gpusim::{GpuSpec, MachineSpec};
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_serve::{generate_load, BatchPolicy, LoadGenConfig, ServeConfig, Server, ServingModel};
use mggcn_testkit::check_golden;

#[test]
fn serve_and_cluster_reports_match_golden() {
    let n = 240;
    let graph = sbm::generate(&SbmConfig::community_benchmark(n, 4), 7);
    let feats = Dense::from_fn(n, 8, |r, c| ((r * 3 + c) as f32).sin());
    let w0 = Dense::from_fn(8, 6, |r, c| ((r * 2 + c) as f32).cos() * 0.25);
    let w1 = Dense::from_fn(6, 4, |r, c| ((r + 3 * c) as f32).sin() * 0.25);
    let model = ServingModel::from_parts(vec![w0, w1], graph.adj.clone(), feats).expect("valid");
    let trace = generate_load(&LoadGenConfig::skewed(50_000.0, 500, n, 13));
    let policy = BatchPolicy::new(5e-4, 16);
    // 64 rows of 8 floats: small enough to evict.
    let cache_bytes = 64 * 8 * 4;

    let machine = MachineSpec::uniform("replica", GpuSpec::a100(), 2, 12, 25.0e9);
    let mut server = Server::new(model.clone(), ServeConfig::new(machine, policy, cache_bytes));
    let mut out = String::new();
    for label in ["cold", "warm"] {
        out += &format!("{:#?}\n", server.serve(label, &trace));
    }
    server.apply_delta(&[(3, 77), (10, 140), (200, 200)]);
    out += &format!("{:#?}\n", server.serve("after delta", &trace));

    let plan = PartitionPlan::cache_aware(&graph.adj, 2, 7);
    let mut cfg = ClusterConfig::new(2, 2, policy);
    cfg.cache_bytes = cache_bytes;
    cfg.admission = AdmissionPolicy::new(0.0, 1);
    let mut cluster = Cluster::new(&model, cfg, Some(&plan));
    // Past the shards' capacity, so admission sheds some batches.
    let overload = generate_load(&LoadGenConfig::uniform(2.0e6, 500, n, 17));
    out += &format!("{:#?}\n", cluster.serve_trace("2x2", &overload).report);

    check_golden("serve_sim_report.txt", &out);
}
