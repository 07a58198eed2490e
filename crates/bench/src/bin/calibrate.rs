//! Scratch calibration: this host's ceilings (what `benches/kernels.rs`
//! divides by), then MG-GCN vs baseline simulated epoch times per dataset.
use mggcn_baselines::{cagnet, dgl};
use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_gpusim::MachineSpec;
use mggcn_graph::datasets;

fn mg(card: &mggcn_graph::DatasetCard, machine: MachineSpec, gpus: usize) -> Option<f64> {
    let opts = TrainOptions::full(machine, gpus);
    let cfg = GcnConfig::model_a(card.feat_dim, card.classes);
    let problem = Problem::from_stats(card, &opts);
    Trainer::new(problem, cfg, opts).ok().and_then(|mut t| Some(t.train_epoch().ok()?.sim_seconds))
}

fn main() {
    println!("=== this host, one core, the workspace's build settings ===");
    println!("STREAM triad            {:>7.1} GB/s", mggcn_bench::host::triad_gbs());
    println!("peak mul+add (no FMA)   {:>7.1} GFLOP/s", mggcn_bench::host::peak_mul_add_gflops());
    println!();
    let v100 = MachineSpec::dgx_v100;
    println!("=== DGX-V100, model A ===");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "dataset", "dgl1", "mg1", "mg2", "mg4", "mg8", "cag8", "dgl/mg1"
    );
    for card in
        [datasets::CORA, datasets::ARXIV, datasets::PRODUCTS, datasets::PROTEINS, datasets::REDDIT]
    {
        let d1 = {
            let cfg = GcnConfig::model_a(card.feat_dim, card.classes);
            let opts = dgl::options(v100(), &cfg);
            let problem = Problem::from_stats(&card, &opts);
            Trainer::new(problem, cfg, opts)
                .ok()
                .and_then(|mut t| Some(t.train_epoch().ok()?.sim_seconds))
        };
        let m1 = mg(&card, v100(), 1);
        let m2 = mg(&card, v100(), 2);
        let m4 = mg(&card, v100(), 4);
        let m8 = mg(&card, v100(), 8);
        let c8 = {
            let opts = cagnet::options(v100(), 8);
            let cfg = GcnConfig::model_a(card.feat_dim, card.classes);
            let problem = Problem::from_stats(&card, &opts);
            Trainer::new(problem, cfg, opts)
                .ok()
                .and_then(|mut t| Some(t.train_epoch().ok()?.sim_seconds))
        };
        let f = |x: Option<f64>| x.map(|v| format!("{v:.4}")).unwrap_or("OOM".into());
        let ratio = match (d1, m1) {
            (Some(a), Some(b)) => format!("{:.2}", a / b),
            _ => "-".into(),
        };
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            card.name,
            f(d1),
            f(m1),
            f(m2),
            f(m4),
            f(m8),
            f(c8),
            ratio
        );
    }
    println!();
    println!("=== DGX-A100, model A: DGL1 vs MG 1/2/4/8 ===");
    for card in
        [datasets::CORA, datasets::ARXIV, datasets::PRODUCTS, datasets::PROTEINS, datasets::REDDIT]
    {
        let a100 = MachineSpec::dgx_a100;
        let d1 = {
            let cfg = GcnConfig::model_a(card.feat_dim, card.classes);
            let opts = dgl::options(a100(), &cfg);
            let problem = Problem::from_stats(&card, &opts);
            Trainer::new(problem, cfg, opts)
                .ok()
                .and_then(|mut t| Some(t.train_epoch().ok()?.sim_seconds))
        };
        let m: Vec<Option<f64>> = [1, 2, 4, 8].iter().map(|&g| mg(&card, a100(), g)).collect();
        let f = |x: Option<f64>| x.map(|v| format!("{v:.4}")).unwrap_or("OOM".into());
        println!(
            "{:<10} dgl={:>9} mg={:>9} {:>9} {:>9} {:>9}",
            card.name,
            f(d1),
            f(m[0]),
            f(m[1]),
            f(m[2]),
            f(m[3])
        );
    }
    // Table 3 configs
    println!();
    println!("=== Table 3 (A100): Reddit h16, Products/Proteins h256x2, Papers h208x2 ===");
    for (card, cfg) in [
        (datasets::REDDIT, GcnConfig::model_b(602, 41)),
        (datasets::PRODUCTS, GcnConfig::model_c(104, 47)),
        (datasets::PROTEINS, GcnConfig::model_c(128, 256)),
        (datasets::PAPERS, GcnConfig::model_d(128, 172)),
    ] {
        let times: Vec<String> = [1usize, 2, 4, 8]
            .iter()
            .map(|&g| {
                let opts = TrainOptions::full(MachineSpec::dgx_a100(), g);
                let problem = Problem::from_stats(&card, &opts);
                Trainer::new(problem, cfg.clone(), opts)
                    .ok()
                    .map(|mut t| format!("{:.3}", t.train_epoch().expect("train").sim_seconds))
                    .unwrap_or("OOM".into())
            })
            .collect();
        println!("{:<10} {:?}", card.name, times);
    }
}
