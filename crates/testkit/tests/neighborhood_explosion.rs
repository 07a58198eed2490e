//! §1's motivation for full-batch training, measured on materialized
//! dataset replicas: "starting from the mini-batch nodes, it is possible to
//! reach almost every single node in the graph in just a few hops … which
//! increases the work performed during a single epoch exponentially."
//!
//! Two verdicts: the exact 2-hop reach of a 32-vertex batch on a
//! Reddit-degree replica, and the per-epoch vertex work of a fanout-10
//! sampler against full-batch training, which touches each vertex once an
//! epoch. Which vertices the sampler touches depends on the graph, the
//! training split and the sampler's seed, not on the features, so the
//! sampled epoch trains on 8-wide features to keep the debug build fast.

use mggcn_baselines::minibatch::{MiniBatchConfig, MiniBatchTrainer};
use mggcn_core::config::GcnConfig;
use mggcn_dense::Dense;
use mggcn_graph::datasets;
use mggcn_graph::sampling::khop_neighborhood;

#[test]
fn a_32_vertex_batch_reaches_all_of_the_reddit_replica_in_two_hops() {
    let g = datasets::REDDIT.materialize(0.02, 99);
    let batch: Vec<u32> = (0..32).collect();
    let reach = khop_neighborhood(&g.adj, &batch, 2).len();
    assert_eq!(reach, g.n(), "2-hop reach {reach} of {} vertices", g.n());
}

#[test]
fn a_fanout_10_sampler_does_over_10x_the_full_batch_work_on_every_replica() {
    // The replicas at the scales EXPERIMENTS.md reports.
    for (card, scale) in
        [(datasets::ARXIV, 0.03), (datasets::PRODUCTS, 0.002), (datasets::REDDIT, 0.02)]
    {
        let mut g = card.materialize(scale, 99);
        g.features = Dense::zeros(g.n(), 8);
        let cfg = GcnConfig::new(8, &[16], g.classes);
        let mb = MiniBatchConfig { batch_size: 64, fanouts: vec![10; cfg.layers()], seed: 7 };
        let report = MiniBatchTrainer::new(&g, &cfg, mb).train_epoch();
        let ratio = report.work_touched as f64 / g.n() as f64;
        assert!(ratio > 10.0, "{}: sampler work {ratio:.1}x full batch", card.name);
    }
}
