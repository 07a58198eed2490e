//! Integration tests for the future-work extensions: multi-node machines,
//! checkpoint/fit workflows, tracing/profiles, and the mini-batch
//! comparison — all through the public facade.

use mg_gcn::baselines::minibatch::{MiniBatchConfig, MiniBatchTrainer};
use mg_gcn::core::checkpoint::Checkpoint;
use mg_gcn::core::fit::{fit, FitOptions, StopReason};
use mg_gcn::gpusim::Profile;
use mg_gcn::prelude::*;
use std::sync::Arc;

fn graph(n: usize, seed: u64) -> Graph {
    sbm::generate(&SbmConfig::community_benchmark(n, 4), seed)
}

#[test]
fn cluster_machine_hurts_cross_node_scaling() {
    // The §1 CAGNET observation must reproduce through the public API.
    let card = datasets::PRODUCTS;
    let cfg = GcnConfig::model_a(card.feat_dim, card.classes);
    let epoch = |gpus: usize| {
        let machine = MachineSpec::a100_cluster(2, 25.0e9);
        let opts = TrainOptions::full(machine, gpus);
        let problem = Problem::from_stats(&card, &opts);
        Trainer::new(problem, cfg.clone(), opts)
            .expect("fits")
            .train_epoch()
            .expect("train")
            .sim_seconds
    };
    let one_node = epoch(8);
    let two_nodes = epoch(16);
    assert!(
        two_nodes > one_node,
        "crossing the NIC should hurt: 8 GPUs {one_node}, 16 GPUs {two_nodes}"
    );
}

#[test]
fn fit_reaches_good_accuracy_with_early_stop() {
    let g = graph(500, 3);
    let cfg = GcnConfig::new(g.features.cols(), &[24], g.classes);
    let opts = TrainOptions::quick(3);
    let problem = Problem::from_graph(&g, &cfg, &opts);
    let mut trainer = Trainer::new(problem, cfg, opts).expect("fits");
    let result = fit(
        &mut trainer,
        &FitOptions { target_accuracy: 0.9, max_epochs: 150, ..Default::default() },
    )
    .expect("fit");
    assert_eq!(result.stopped, StopReason::TargetReached);
    assert!(result.best_accuracy >= 0.9);
    assert!(result.sim_time > 0.0);
    // Time-to-accuracy is part of the §6 workflow.
    assert!(result.epochs_to(0.5).is_some());
}

#[test]
fn checkpoint_roundtrips_through_facade() {
    let g = graph(200, 5);
    let cfg = GcnConfig::new(g.features.cols(), &[12], g.classes);
    let opts = TrainOptions::quick(2);
    let problem = Problem::from_graph(&g, &cfg, &opts);
    let mut trainer = Trainer::new(problem, cfg, opts).expect("fits");
    trainer.train(4).expect("train");
    let path = std::env::temp_dir().join(format!("mggcn_ext_{}.ckpt", std::process::id()));
    Checkpoint::from_trainer(&trainer).save(&path).expect("save");
    let back = Checkpoint::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(back.epoch, 4);
    back.restore_into(&mut trainer).expect("restore");
}

#[test]
fn profile_and_trace_from_a_real_epoch() {
    let card = datasets::ARXIV;
    let cfg = GcnConfig::model_a(card.feat_dim, card.classes);
    let opts = TrainOptions::full(MachineSpec::dgx_a100(), 4);
    let problem = Problem::from_stats(&card, &opts);
    let mut trainer = Trainer::new(problem, cfg, opts).expect("fits");
    let tracer = Arc::new(Tracer::new());
    trainer.set_tracer(tracer.clone());
    let report = trainer.train_epoch().expect("train");
    let profile = Profile::from_timeline(&report.timeline, report.sim_seconds);
    assert!(profile.kernels.iter().any(|k| k.label == "spmm"));
    assert!(profile.utilization() > 0.0 && profile.utilization() <= 1.0);
    let json = tracer.chrome_trace(false);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("bcast-H"));
}

#[test]
fn minibatch_and_fullbatch_both_learn_but_sampler_does_more_work() {
    let mut sbm_cfg = SbmConfig::community_benchmark(700, 3);
    sbm_cfg.intra_degree = 14.0;
    let g = sbm::generate(&sbm_cfg, 9);
    let cfg = GcnConfig::new(g.features.cols(), &[16], g.classes);

    let opts = TrainOptions::quick(2);
    let problem = Problem::from_graph(&g, &cfg, &opts);
    let mut full = Trainer::new(problem, cfg.clone(), opts).expect("fits");
    let full_acc = full.train(25).expect("train").pop().expect("trained").train_acc;

    let mb = MiniBatchConfig { batch_size: 32, fanouts: vec![10; cfg.layers()], seed: 1 };
    let mut mini = MiniBatchTrainer::new(&g, &cfg, mb);
    let mut last = mini.train_epoch();
    let mut touched = last.work_touched;
    for _ in 1..25 {
        last = mini.train_epoch();
        touched += last.work_touched;
    }
    assert!(full_acc > 0.7, "full-batch accuracy {full_acc}");
    assert!(last.train_acc > 0.6, "mini-batch accuracy {}", last.train_acc);
    assert!(
        touched / 25 > g.n(),
        "sampler work {} per epoch should exceed n {}",
        touched / 25,
        g.n()
    );
}
