//! General matrix-matrix multiplication kernels (the paper's cuBLAS calls).
//!
//! The GCN forward/backward pass needs three transpose combinations
//! (eqs. 5, 10, 11 of the paper):
//!
//! * `C = H · W`        — [`gemm`]
//! * `C = HW_G · Wᵀ`    — [`gemm_a_bt`]
//! * `C = HW_Gᵀ · H`    — [`gemm_at_b`] (weight gradient)
//!
//! All three, and the SpMM of `mggcn-sparse`, run one micro-kernel,
//! [`fold_row`]: an output row is the sum of rows of `B` scaled by the
//! nonzero entries of a row of `A`. The kernel holds a strip of the output
//! row in registers, adds the scaled `B` strips to it in the order the
//! entries are listed, and writes it once. The dense kernels first list the
//! nonzero entries of the `A` row (without a branch: activations after ReLU
//! are half zeros at unpredictable places) and leave the zero terms out of
//! the sum, as they always have. Every output element has one accumulator
//! and sees its products in `k` order, so results do not depend on the
//! strip widths, the row blocking or the thread count.

use crate::matrix::Dense;
use rayon::prelude::*;

/// Whether a GeMM overwrites its output (`beta = 0`) or accumulates into it
/// (`beta = 1`), mirroring the BLAS `beta` parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accumulate {
    /// `C = A · B`
    Overwrite,
    /// `C += A · B`
    Add,
}

/// Rows per parallel task. Small enough to load-balance, large enough to
/// amortize task overhead.
const ROW_BLOCK: usize = 64;

/// Rows of `A` and `B` a [`gemm_at_b`] piece walks per pass over the
/// output, so both stay in L1 while every output row reads them.
const K_BLOCK: usize = 64;

/// `c_row (+)= Σ_e vals[e] · B[idx[e], :]`, entries in the order given, for
/// a row-major `b` whose rows are as wide as `c_row`.
///
/// The row is produced in strips of a compile-time width — the widest that
/// still fits the remaining columns, down to a scalar tail — each loaded
/// (or zeroed) into registers once and stored once.
pub fn fold_row(idx: &[u32], vals: &[f32], b: &[f32], c_row: &mut [f32], acc: Accumulate) {
    debug_assert_eq!(idx.len(), vals.len(), "one value per index");
    let n = c_row.len();
    let mut j = 0;
    while n - j >= 32 {
        fold_strip::<32>(idx, vals, b, j, c_row, acc);
        j += 32;
    }
    if n - j >= 16 {
        fold_strip::<16>(idx, vals, b, j, c_row, acc);
        j += 16;
    }
    if n - j >= 8 {
        fold_strip::<8>(idx, vals, b, j, c_row, acc);
        j += 8;
    }
    if n - j >= 4 {
        fold_strip::<4>(idx, vals, b, j, c_row, acc);
        j += 4;
    }
    while j < n {
        fold_strip::<1>(idx, vals, b, j, c_row, acc);
        j += 1;
    }
}

/// Columns `j..j + W` of [`fold_row`]: one accumulator per element.
#[inline(always)]
fn fold_strip<const W: usize>(
    idx: &[u32],
    vals: &[f32],
    b: &[f32],
    j: usize,
    c_row: &mut [f32],
    acc: Accumulate,
) {
    let n = c_row.len();
    let c_strip: &mut [f32; W] = (&mut c_row[j..j + W]).try_into().expect("strip is W wide");
    let mut sum = match acc {
        Accumulate::Overwrite => [0.0; W],
        Accumulate::Add => *c_strip,
    };
    for (&i, &v) in idx.iter().zip(vals) {
        let at = i as usize * n + j;
        let b_strip: &[f32; W] = b[at..at + W].try_into().expect("strip is W wide");
        for (s, bj) in sum.iter_mut().zip(b_strip) {
            *s += v * bj;
        }
    }
    *c_strip = sum;
}

/// The nonzero entries of a row (or strided column) of `A`, in order, as
/// the index and value lists [`fold_row`] takes.
struct Nonzeros {
    idx: Vec<u32>,
    vals: Vec<f32>,
}

impl Nonzeros {
    /// Room for the nonzeros of `len` items.
    fn of_at_most(len: usize) -> Self {
        assert!(u32::try_from(len).is_ok(), "inner dimension {len} exceeds u32");
        Self { idx: vec![0; len], vals: vec![0.0; len] }
    }

    /// List the nonzeros of `xs` by position. Every item is written and the
    /// cursor moves on only past a nonzero, so there is no data-dependent
    /// branch to mispredict.
    fn list(&mut self, xs: impl Iterator<Item = f32>) -> (&[u32], &[f32]) {
        let mut len = 0;
        for (i, x) in xs.enumerate() {
            self.idx[len] = i as u32;
            self.vals[len] = x;
            len += usize::from(x != 0.0);
        }
        (&self.idx[..len], &self.vals[..len])
    }
}

/// `C = alpha_op(A · B)` with `A: m×k`, `B: k×n`, `C: m×n`.
///
/// Terms with `A[i, k] == 0.0` are left out of the sum.
pub fn gemm(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
    assert_eq!(a.cols(), b.rows(), "gemm inner dimension mismatch");
    assert_eq!(a.rows(), c.rows(), "gemm output rows mismatch");
    assert_eq!(b.cols(), c.cols(), "gemm output cols mismatch");
    let (k, n) = (a.cols(), b.cols());
    if n == 0 {
        return;
    }
    let b_data = b.as_slice();
    let a_data = a.as_slice();
    c.as_mut_slice().par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(blk, c_chunk)| {
        let mut nz = Nonzeros::of_at_most(k);
        for (i, c_row) in c_chunk.chunks_mut(n).enumerate() {
            let r = blk * ROW_BLOCK + i;
            let (idx, vals) = nz.list(a_data[r * k..(r + 1) * k].iter().copied());
            fold_row(idx, vals, b_data, c_row, acc);
        }
    });
}

/// `C = Aᵀ · B` with `A: k×m`, `B: k×n`, `C: m×n`.
///
/// Used for the weight gradient `W_G = HW_Gᵀ · H` (paper eq. 10). The output
/// is small (`d×d`), so we parallelize over the reduction dimension `k`: one
/// partial output per piece of `k` (the pieces `fold` would cut, a function
/// of `k` alone), summed left to right. Terms with `A[k, i] == 0.0` are left
/// out.
pub fn gemm_at_b(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
    assert_eq!(a.rows(), b.rows(), "gemm_at_b reduction dimension mismatch");
    assert_eq!(a.cols(), c.rows(), "gemm_at_b output rows mismatch");
    assert_eq!(b.cols(), c.cols(), "gemm_at_b output cols mismatch");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || n == 0 {
        return;
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();

    let partials: Vec<Vec<f32>> = rayon::fold_ranges(k)
        .into_par_iter()
        .map(|piece| {
            let mut partial = vec![0.0f32; m * n];
            let mut nz = Nonzeros::of_at_most(K_BLOCK);
            for k0 in piece.clone().step_by(K_BLOCK) {
                let ks = k0..piece.end.min(k0 + K_BLOCK);
                let b_block = &b_data[k0 * n..];
                for (i, c_row) in partial.chunks_mut(n).enumerate() {
                    let (idx, vals) = nz.list(ks.clone().map(|kk| a_data[kk * m + i]));
                    fold_row(idx, vals, b_block, c_row, Accumulate::Add);
                }
            }
            partial
        })
        .collect();
    let mut sum = vec![0.0f32; m * n];
    for partial in partials {
        for (s, p) in sum.iter_mut().zip(partial) {
            *s += p;
        }
    }

    let c_slice = c.as_mut_slice();
    match acc {
        Accumulate::Overwrite => c_slice.copy_from_slice(&sum),
        Accumulate::Add => {
            for (ci, si) in c_slice.iter_mut().zip(sum) {
                *ci += si;
            }
        }
    }
}

/// `C = A · Bᵀ` with `A: m×k`, `B: n×k`, `C: m×n`.
///
/// Used for the input gradient `H_G = HW_G · Wᵀ` (paper eq. 11). `B` (the
/// weight matrix) is small, so it is transposed once. Every `C[i, j]` is
/// the dot product of row `i` of `A` with row `j` of `B`: all `k` terms,
/// zero or not, summed in order from `-0.0` (the neutral element of
/// `Iterator::sum`), then stored or added.
pub fn gemm_a_bt(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
    assert_eq!(a.cols(), b.cols(), "gemm_a_bt inner dimension mismatch");
    assert_eq!(a.rows(), c.rows(), "gemm_a_bt output rows mismatch");
    assert_eq!(b.rows(), c.cols(), "gemm_a_bt output cols mismatch");
    let (k, n) = (a.cols(), b.rows());
    if n == 0 {
        return;
    }
    let a_data = a.as_slice();
    let bt = b.transpose();
    let bt_data = bt.as_slice();
    let every_k: Vec<u32> = (0..u32::try_from(k).expect("inner dimension fits u32")).collect();
    c.as_mut_slice().par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(blk, c_chunk)| {
        let mut dots = vec![0.0f32; n];
        for (i, c_row) in c_chunk.chunks_mut(n).enumerate() {
            let r = blk * ROW_BLOCK + i;
            dots.fill(-0.0);
            fold_row(&every_k, &a_data[r * k..(r + 1) * k], bt_data, &mut dots, Accumulate::Add);
            match acc {
                Accumulate::Overwrite => c_row.copy_from_slice(&dots),
                Accumulate::Add => {
                    for (cj, dot) in c_row.iter_mut().zip(&dots) {
                        *cj += dot;
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Dense, b: &Dense) -> Dense {
        let mut c = Dense::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for kk in 0..a.cols() {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn arange(rows: usize, cols: usize, scale: f32) -> Dense {
        Dense::from_fn(rows, cols, |r, c| ((r * cols + c) as f32).sin() * scale)
    }

    #[test]
    fn gemm_matches_naive() {
        let a = arange(7, 5, 1.0);
        let b = arange(5, 9, 0.5);
        let mut c = Dense::zeros(7, 9);
        gemm(&a, &b, &mut c, Accumulate::Overwrite);
        assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-4);
    }

    #[test]
    fn gemm_accumulate_adds() {
        let a = arange(4, 3, 1.0);
        let b = arange(3, 4, 1.0);
        let mut c = Dense::from_fn(4, 4, |_, _| 1.0);
        gemm(&a, &b, &mut c, Accumulate::Add);
        let mut expect = naive(&a, &b);
        for x in expect.as_mut_slice() {
            *x += 1.0;
        }
        assert!(c.max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn gemm_at_b_matches_naive_transpose() {
        let a = arange(6, 4, 1.0); // k=6, m=4
        let b = arange(6, 3, 1.0); // k=6, n=3
        let mut c = Dense::zeros(4, 3);
        gemm_at_b(&a, &b, &mut c, Accumulate::Overwrite);
        assert!(c.max_abs_diff(&naive(&a.transpose(), &b)) < 1e-4);
    }

    #[test]
    fn gemm_a_bt_matches_naive_transpose() {
        let a = arange(5, 4, 1.0); // m=5, k=4
        let b = arange(6, 4, 1.0); // n=6, k=4
        let mut c = Dense::zeros(5, 6);
        gemm_a_bt(&a, &b, &mut c, Accumulate::Overwrite);
        assert!(c.max_abs_diff(&naive(&a, &b.transpose())) < 1e-4);
    }

    #[test]
    fn gemm_large_parallel_path() {
        // Exceed ROW_BLOCK so multiple parallel chunks are exercised.
        let a = arange(200, 17, 1.0);
        let b = arange(17, 13, 1.0);
        let mut c = Dense::zeros(200, 13);
        gemm(&a, &b, &mut c, Accumulate::Overwrite);
        assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-3);
    }

    #[test]
    fn gemm_at_b_accumulates() {
        let a = arange(6, 2, 1.0);
        let b = arange(6, 2, 1.0);
        let mut c = Dense::from_fn(2, 2, |_, _| 2.0);
        gemm_at_b(&a, &b, &mut c, Accumulate::Add);
        let mut expect = naive(&a.transpose(), &b);
        for x in expect.as_mut_slice() {
            *x += 2.0;
        }
        assert!(c.max_abs_diff(&expect) < 1e-4);
    }
}
