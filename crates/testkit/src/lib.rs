//! mggcn-testkit — the differential-testing and conformance harness.
//!
//! The production stack's core claim (paper §4.1) is that partitioning is
//! a *performance* decision, never a numerical one: training on P GPUs
//! must compute the same model as training on one. This crate checks that
//! claim from the outside:
//!
//! * [`oracle`] — a standalone f64 dense reference GCN sharing only its
//!   inputs (seeded weights, the f32 `Â`) with the trainer;
//! * [`dense64`] — the f64 matrix type and comparison helpers;
//! * [`corpus`] — a deterministic seeded fuzz corpus driving
//!   train → checkpoint → restore → serve on degenerate graphs;
//! * integration tests (under `tests/`) — finite-difference gradient
//!   checking, P-invariance over P ∈ {1,2,3,4,8}, golden gpusim schedules,
//!   memory-plan conformance, the fuzz driver, and the paper's evaluation
//!   (a golden per table of `mggcn_bench::paper`, a test per verdict).
//!
//! # Tolerance policy
//!
//! Three comparison regimes, from tightest to loosest:
//!
//! 1. **Bit-identical** — same arithmetic in the same order. Applies to:
//!    checkpoint resume vs. uninterrupted training (restore copies exact
//!    state, execution is deterministic), and forward activations across
//!    P (the SpMM accumulates each output row in CSR column order, which
//!    partitioning does not change).
//! 2. **f64 relative, ≤ [`FD_GRAD_TOL`]** — oracle analytic gradients vs.
//!    central finite differences on the oracle's own loss. Pure f64, so
//!    only the O(h²) truncation error separates the two.
//! 3. **f32-noise relative** — any comparison that crosses an f32
//!    summation-order boundary: trainer vs. oracle, and P vs. P′ *weight*
//!    state (the `W_G = HᵀG` reduction sums per-shard partials whose
//!    grouping depends on P). These cannot be bit-identical by
//!    construction; the bounds ([`P_LOSS_TOL`], [`P_WEIGHT_TOL`],
//!    [`TRAINER_VS_ORACLE_TOL`]) are set a comfortable margin above
//!    observed error yet well below anything a real defect produces.
//!
//! Relative error is always measured against the max-magnitude of the
//! reference side (with a floor), never elementwise — per-element relative
//! error is meaningless where a gradient passes through zero.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod dense64;
pub mod oracle;

/// Max allowed relative error between oracle analytic gradients and f64
/// central differences (acceptance bound; regime 2 above).
pub const FD_GRAD_TOL: f64 = 1e-6;

/// Max allowed relative error between the trainer's f32 gradients/logits
/// and the oracle's f64 ones (regime 3).
pub const TRAINER_VS_ORACLE_TOL: f64 = 5e-4;

/// Max allowed relative loss difference between runs at different P, or
/// between permuted/unpermuted and op-order-swapped runs (regime 3).
pub const P_LOSS_TOL: f64 = 1e-4;

/// Max allowed relative weight difference across P after training
/// (regime 3; drift compounds over epochs, so this is looser than the
/// per-epoch loss bound).
pub const P_WEIGHT_TOL: f64 = 5e-4;

/// Scale floor for relative comparisons: quantities smaller than this are
/// compared absolutely against it.
pub const REL_FLOOR: f64 = 1e-8;

/// Relative difference between two scalars, with [`REL_FLOOR`].
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(REL_FLOOR)
}

/// Compare `actual` against the checked-in snapshot `goldens/<name>`,
/// panicking with the first differing line on drift. Regenerate after an
/// intentional change with `UPDATE_GOLDENS=1 cargo test -p mggcn-testkit`.
pub fn check_golden(name: &str, actual: &str) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens").join(name);
    if std::env::var("UPDATE_GOLDENS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("goldens dir")).expect("mkdir goldens");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {name}; generate with \
             UPDATE_GOLDENS=1 cargo test -p mggcn-testkit"
        )
    });
    if want != actual {
        let diff = want
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b)
            .map(|i| {
                format!(
                    "first differing line {}:\n  golden: {}\n  actual: {}",
                    i + 1,
                    want.lines().nth(i).unwrap_or("<eof>"),
                    actual.lines().nth(i).unwrap_or("<eof>")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: golden {} vs actual {}",
                    want.lines().count(),
                    actual.lines().count()
                )
            });
        panic!(
            "output drifted from golden {name}; {diff}\n\
             If the change is intentional, regenerate with UPDATE_GOLDENS=1."
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_diff_basics() {
        assert_eq!(rel_diff(1.0, 1.0), 0.0);
        assert!((rel_diff(1.0, 1.1) - 0.1 / 1.1).abs() < 1e-12);
        // Tiny values fall back to the floor instead of blowing up.
        assert!(rel_diff(1e-300, -1e-300) < 1e-290);
    }
}
