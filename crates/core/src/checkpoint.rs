//! Model checkpointing.
//!
//! Full-batch training on big graphs runs for hundreds of epochs (the
//! paper's Reddit run converges after 466); production trainers need to
//! stop and resume. The format is a small self-describing binary layout
//! (magic + epoch + per-layer shapes + little-endian f32 payloads for the
//! weights and both Adam moments), ended by an FNV-1a checksum of every
//! byte before it, so a truncated or bit-flipped file is refused instead
//! of half-restored. Written with plain `std::io`, so the checkpoint
//! carries no dependency risk.

use crate::config::GcnConfig;
use crate::state::fnv1a;
use crate::trainer::Trainer;
use mggcn_dense::Dense;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"MGGCNCK2";

/// A training checkpoint: replicated weights, Adam moments, epoch count.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    pub epoch: u64,
    pub weights: Vec<Dense>,
    pub adam_m: Vec<Dense>,
    pub adam_v: Vec<Dense>,
}

impl Checkpoint {
    /// Snapshot a trainer (GPU 0's replica; all replicas are identical).
    pub fn from_trainer(trainer: &Trainer) -> Self {
        let g0 = trainer.state().gpu(0);
        Self {
            epoch: trainer.epochs_trained() as u64,
            weights: g0.weights.clone(),
            adam_m: g0.adam_m.clone(),
            adam_v: g0.adam_v.clone(),
        }
    }

    /// The file format: header, layers, checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend(self.epoch.to_le_bytes());
        out.extend((self.weights.len() as u32).to_le_bytes());
        for l in 0..self.weights.len() {
            let m = &self.weights[l];
            out.extend((m.rows() as u32).to_le_bytes());
            out.extend((m.cols() as u32).to_le_bytes());
            for mat in [&self.weights[l], &self.adam_m[l], &self.adam_v[l]] {
                out.extend(mat.as_slice().iter().flat_map(|x| x.to_le_bytes()));
            }
        }
        let sum = fnv1a(&out);
        out.extend(sum.to_le_bytes());
        out
    }

    /// Parse [`Checkpoint::to_bytes`]'s format. Anything else — a wrong
    /// magic, a checksum that does not match, a shape the remaining bytes
    /// cannot hold, bytes after the last layer — is `InvalidData`; nothing
    /// is allocated on the word of an unchecked length.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let Some((body, sum)) =
            bytes.split_last_chunk::<8>().filter(|(body, _)| body.starts_with(MAGIC))
        else {
            return Err(bad("not an MG-GCN checkpoint"));
        };
        if fnv1a(body) != u64::from_le_bytes(*sum) {
            return Err(bad("checkpoint checksum mismatch: truncated or corrupted"));
        }
        let mut r = Reader(&body[MAGIC.len()..]);
        let epoch = u64::from_le_bytes(r.take()?);
        let layers = u32::from_le_bytes(r.take()?);
        let mut ck = Self { epoch, weights: Vec::new(), adam_m: Vec::new(), adam_v: Vec::new() };
        for _ in 0..layers {
            let rows = u32::from_le_bytes(r.take()?) as usize;
            let cols = u32::from_le_bytes(r.take()?) as usize;
            for part in [&mut ck.weights, &mut ck.adam_m, &mut ck.adam_v] {
                part.push(r.matrix(rows, cols)?);
            }
        }
        if !r.0.is_empty() {
            return Err(bad("bytes after the last checkpoint layer"));
        }
        Ok(ck)
    }

    /// Write to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read from `path`, validating checksum, header and shapes.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Whether weights and both Adam moments have `cfg`'s layer count and
    /// shapes — what [`Trainer::restore`] demands before it writes anything.
    pub fn check_shapes(&self, cfg: &GcnConfig) -> Result<(), String> {
        let parts =
            [("weights", &self.weights), ("adam_m", &self.adam_m), ("adam_v", &self.adam_v)];
        for (what, mats) in parts {
            if mats.len() != cfg.layers() {
                let (has, want) = (mats.len(), cfg.layers());
                return Err(format!("checkpoint has {has} {what} layers, model has {want}"));
            }
            for (l, m) in mats.iter().enumerate() {
                let (has, want) = ((m.rows(), m.cols()), (cfg.d_in(l), cfg.d_out(l)));
                if has != want {
                    return Err(format!("layer {l} {what}: checkpoint {has:?} vs model {want:?}"));
                }
            }
        }
        Ok(())
    }

    /// Restore this checkpoint into a trainer. Fails when the shapes do
    /// not match the trainer's model.
    pub fn restore_into(&self, trainer: &mut Trainer) -> io::Result<()> {
        trainer.restore(self).map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
    }
}

/// The unread rest of a checkpoint body; every read is bounded by it.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn bytes(&mut self, n: usize) -> io::Result<&[u8]> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "checkpoint ends early"))?;
        self.0 = rest;
        Ok(head)
    }

    fn take<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) is N long"))
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> io::Result<Dense> {
        let len = rows.checked_mul(cols).and_then(|n| n.checked_mul(4)).unwrap_or(usize::MAX);
        let data =
            self.bytes(len)?.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        Ok(Dense::from_vec(rows, cols, data.collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainOptions;
    use crate::problem::Problem;
    use mggcn_graph::generators::sbm::{self, SbmConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mggcn_ckpt_{}_{name}.bin", std::process::id()))
    }

    fn trainer() -> Trainer {
        let g = sbm::generate(&SbmConfig::community_benchmark(120, 3), 4);
        let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
        let opts = TrainOptions::quick(2);
        let problem = Problem::from_graph(&g, &cfg, &opts);
        Trainer::new(problem, cfg, opts).expect("fits")
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut t = trainer();
        t.train(3).expect("train");
        let ck = Checkpoint::from_trainer(&t);
        let path = tmp("roundtrip");
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ck, back);
        assert_eq!(back.epoch, 3);
    }

    #[test]
    fn resume_continues_identically() {
        // Train 6 epochs straight vs 3 + checkpoint/restore + 3.
        let mut straight = trainer();
        let full: Vec<f64> =
            straight.train(6).expect("train").into_iter().map(|r| r.loss).collect();

        let mut first = trainer();
        first.train(3).expect("train");
        let ck = Checkpoint::from_trainer(&first);
        let path = tmp("resume");
        ck.save(&path).unwrap();

        let mut resumed = trainer();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        loaded.restore_into(&mut resumed).unwrap();
        let tail: Vec<f64> = resumed.train(3).expect("train").into_iter().map(|r| r.loss).collect();
        for (a, b) in full[3..].iter().zip(&tail) {
            assert!((a - b).abs() < 1e-9, "resumed {b} vs straight {a}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTACKPTxxxxxxxxxxxx").unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_rejected() {
        let mut t = trainer();
        t.train(1).expect("train");
        let path = tmp("trunc");
        Checkpoint::from_trainer(&t).save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A checkpoint whose weights fit but whose Adam moments do not used
    /// to be accepted, and panicked later inside the Adam body.
    #[test]
    fn mismatched_moments_rejected_and_trainer_untouched() {
        let mut t = trainer();
        t.train(2).expect("train");
        let good = Checkpoint::from_trainer(&t);
        for spoil in 0..3 {
            let mut bad = good.clone();
            bad.epoch = 7;
            bad.weights[0].as_mut_slice()[0] += 1.0;
            match spoil {
                0 => bad.adam_m[0] = Dense::zeros(3, 3),
                1 => bad.adam_v[1] = bad.adam_v[1].transpose(),
                _ => drop(bad.adam_v.pop()),
            }
            let err = t.restore(&bad).expect_err("mismatched moments accepted");
            assert!(err.contains("adam_"), "error does not name the moments: {err}");
            assert_eq!(Checkpoint::from_trainer(&t), good, "a refused restore wrote state");
        }
        t.train_epoch().expect("the trainer still trains");
    }

    #[test]
    fn shape_mismatch_rejected_on_restore() {
        let mut small = trainer();
        small.train(1).expect("train");
        let ck = Checkpoint::from_trainer(&small);
        // A different architecture.
        let g = sbm::generate(&SbmConfig::community_benchmark(120, 3), 4);
        let cfg = GcnConfig::new(g.features.cols(), &[16], g.classes);
        let opts = TrainOptions::quick(2);
        let problem = Problem::from_graph(&g, &cfg, &opts);
        let mut other = Trainer::new(problem, cfg, opts).expect("fits");
        assert!(ck.restore_into(&mut other).is_err());
    }
}
