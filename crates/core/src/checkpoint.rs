//! Model checkpointing.
//!
//! Full-batch training on big graphs runs for hundreds of epochs (the
//! paper's Reddit run converges after 466); production trainers need to
//! stop and resume. The format is a small self-describing binary layout
//! (magic + version + per-layer shapes + little-endian f32 payloads for
//! the weights and both Adam moments), written with plain `std::io` so the
//! checkpoint carries no dependency risk.

use crate::config::GcnConfig;
use crate::trainer::Trainer;
use mggcn_dense::Dense;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"MGGCNCK1";

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

    /// Write to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(&self.epoch.to_le_bytes())?;
        w.write_all(&(self.weights.len() as u32).to_le_bytes())?;
        for l in 0..self.weights.len() {
            let m = &self.weights[l];
            w.write_all(&(m.rows() as u32).to_le_bytes())?;
            w.write_all(&(m.cols() as u32).to_le_bytes())?;
            for mat in [&self.weights[l], &self.adam_m[l], &self.adam_v[l]] {
                for &x in mat.as_slice() {
                    w.write_all(&x.to_le_bytes())?;
                }
            }
        }
        w.flush()
    }

    /// Read from `path`, validating the header and shapes.
    pub fn load(path: &Path) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not an MG-GCN checkpoint"));
        }
        let epoch = read_u64(&mut r)?;
        let layers = read_u32(&mut r)? as usize;
        if layers > 4096 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible layer count"));
        }
        let mut weights = Vec::with_capacity(layers);
        let mut adam_m = Vec::with_capacity(layers);
        let mut adam_v = Vec::with_capacity(layers);
        for _ in 0..layers {
            let rows = read_u32(&mut r)? as usize;
            let cols = read_u32(&mut r)? as usize;
            if rows.checked_mul(cols).is_none_or(|n| n > (1 << 30)) {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible shape"));
            }
            weights.push(read_matrix(&mut r, rows, cols)?);
            adam_m.push(read_matrix(&mut r, rows, cols)?);
            adam_v.push(read_matrix(&mut r, rows, cols)?);
        }
        Ok(Self { epoch, weights, adam_m, adam_v })
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

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_matrix(r: &mut impl Read, rows: usize, cols: usize) -> io::Result<Dense> {
    let mut bytes = vec![0u8; rows * cols * 4];
    r.read_exact(&mut bytes)?;
    let data =
        bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    Ok(Dense::from_vec(rows, cols, data))
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
