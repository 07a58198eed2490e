//! Property tests for `core::checkpoint`: stopping and resuming training
//! is invisible. For any P, graph seed, and split point, save → disk →
//! load → restore → train must be *bit-identical* to training straight
//! through — restore copies exact f32 state and execution is
//! deterministic, so this one regime admits no tolerance at all. And a
//! damaged file is refused whole: no truncation and no flipped bit ever
//! reaches a trainer.

use mggcn_core::checkpoint::Checkpoint;
use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_graph::generators::sbm::{self, SbmConfig};
use proptest::prelude::*;

fn trainer(graph_seed: u64, gpus: usize) -> Trainer {
    let g = sbm::generate(&SbmConfig::community_benchmark(72, 3), graph_seed);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(gpus);
    opts.permute = false;
    let problem = Problem::from_graph(&g, &cfg, &opts);
    Trainer::new(problem, cfg, opts).expect("fits")
}

fn weights(t: &Trainer) -> Vec<Vec<f32>> {
    t.state().gpu(0).weights.iter().map(|w| w.as_slice().to_vec()).collect()
}

fn moments(t: &Trainer) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let g0 = t.state().gpu(0);
    (
        g0.adam_m.iter().map(|m| m.as_slice().to_vec()).collect(),
        g0.adam_v.iter().map(|m| m.as_slice().to_vec()).collect(),
    )
}

/// Exhaustive over one small checkpoint: cut the file at every offset,
/// flip every single bit, append a byte. Each is `InvalidData`, and the
/// trainer it was offered to stays bit-equal to what it was.
#[test]
fn every_truncation_and_bit_flip_is_refused_and_the_trainer_untouched() {
    let mut t = trainer(5, 2);
    t.train(2).expect("train");
    let before = Checkpoint::from_trainer(&t);
    let good = before.to_bytes();
    assert_eq!(Checkpoint::from_bytes(&good).expect("the undamaged file loads"), before);

    let mut offer = |bytes: &[u8], what: String| {
        let refused = Checkpoint::from_bytes(bytes).and_then(|ck| ck.restore_into(&mut t));
        let kind = refused.expect_err(&what).kind();
        assert_eq!(kind, std::io::ErrorKind::InvalidData, "{what}");
    };
    for cut in 0..good.len() {
        offer(&good[..cut], format!("accepted a file truncated to {cut} bytes"));
    }
    let mut bad = good.clone();
    for bit in 0..good.len() * 8 {
        bad[bit / 8] ^= 1 << (bit % 8);
        offer(&bad, format!("accepted a file with bit {bit} flipped"));
        bad[bit / 8] ^= 1 << (bit % 8);
    }
    bad.push(0);
    offer(&bad, "accepted a trailing byte".into());
    assert_eq!(Checkpoint::from_trainer(&t), before, "a refused file wrote trainer state");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn resume_is_bit_identical_to_uninterrupted(
        graph_seed in 0u64..1000,
        gpus in 1usize..=3,
        split_at in 1usize..4,
    ) {
        let total = split_at + 2;

        // Straight through.
        let mut straight = trainer(graph_seed, gpus);
        let full: Vec<f64> = straight.train(total).expect("train").into_iter().map(|r| r.loss).collect();

        // Interrupted: train, checkpoint through disk, restore into a
        // *fresh* trainer, finish.
        let mut before = trainer(graph_seed, gpus);
        before.train(split_at).expect("train");
        let path = std::env::temp_dir().join(format!(
            "mggcn_prop_{}_{graph_seed}_{gpus}_{split_at}.ckpt",
            std::process::id()
        ));
        Checkpoint::from_trainer(&before).save(&path).expect("save");
        let loaded = Checkpoint::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        let mut resumed = trainer(graph_seed, gpus);
        loaded.restore_into(&mut resumed).expect("restore");
        prop_assert_eq!(resumed.epochs_trained(), split_at, "epoch counter must restore");
        let tail: Vec<f64> = resumed.train(total - split_at).expect("train").into_iter().map(|r| r.loss).collect();

        // Losses bit-identical from the split point on…
        for (e, (a, b)) in full[split_at..].iter().zip(&tail).enumerate() {
            prop_assert_eq!(a, b, "epoch {} loss diverged after resume", split_at + e);
        }
        // …and the full optimizer state (weights + both Adam moments) too.
        prop_assert_eq!(weights(&straight), weights(&resumed));
        prop_assert_eq!(moments(&straight), moments(&resumed));
    }

    #[test]
    fn checkpoint_roundtrip_is_lossless(graph_seed in 0u64..1000, epochs in 1usize..4) {
        let mut t = trainer(graph_seed, 2);
        t.train(epochs).expect("train");
        let ck = Checkpoint::from_trainer(&t);
        let path = std::env::temp_dir().join(format!(
            "mggcn_prop_rt_{}_{graph_seed}_{epochs}.ckpt",
            std::process::id()
        ));
        ck.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(ck, back, "disk round-trip must preserve every bit");
    }

    #[test]
    fn restore_crosses_gpu_counts(graph_seed in 0u64..1000) {
        // Weights are replicated, so a checkpoint from P GPUs restores
        // into a P′-GPU trainer; subsequent training stays within f32
        // summation noise of the origin (exactness is per-P, §4.1).
        let mut src = trainer(graph_seed, 1);
        src.train(2).expect("train");
        let ck = Checkpoint::from_trainer(&src);
        let mut dst = trainer(graph_seed, 3);
        ck.restore_into(&mut dst).expect("restore across P");
        prop_assert_eq!(weights(&src), weights(&dst), "restored replicas must match bitwise");
        let r = dst.train(1);
        prop_assert!(r.expect("train")[0].loss.is_finite());
    }
}
