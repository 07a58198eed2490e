//! Sparse-matrix × dense-matrix multiplication (the paper's dominant kernel,
//! 60–94% of GCN runtime per §6.1).
//!
//! `C = A · B` (or `C += A · B`) with `A` in CSR and `B`, `C` row-major
//! dense. Parallelism is over blocks of output rows, statically chunked by
//! the kernel pool. Each block is one call of [`fold_listed_rows`], the
//! driver and micro-kernel the dense GeMMs run too, with the CSR rows as
//! its lists: a strip of an output row is held in registers while every
//! nonzero of the CSR row adds its scaled `B` strip to it, in CSR order,
//! and is stored once — the gather of `B` rows is the only memory traffic
//! per nonzero. A `B` one strip wide (4, 8, 16 or 32: the narrow side a
//! GCN layer multiplies on) is read as the packed panel it already is.

use crate::csr::Csr;
use mggcn_dense::gemm::{fold_listed_rows, Accumulate};
use mggcn_dense::Dense;
use rayon::prelude::*;

/// Rows handled per parallel task. Row lengths are irregular and the pool
/// does not steal, so blocks are kept small enough that a piece averages
/// over many of them.
const ROW_BLOCK: usize = 32;

/// `C = A · B` / `C += A · B` with `A: r×c` CSR, `B: c×d`, `C: r×d`.
pub fn spmm(a: &Csr, b: &Dense, c: &mut Dense, acc: Accumulate) {
    assert_eq!(a.cols(), b.rows(), "spmm inner dimension mismatch");
    assert_eq!(a.rows(), c.rows(), "spmm output rows mismatch");
    assert_eq!(b.cols(), c.cols(), "spmm output cols mismatch");
    fold_rows(a, |i| i, b, c, acc);
}

/// Row-sliced SpMM: `C[i, :] (+)= A[rows[i], :] · B` for each requested
/// row, with `C: rows.len()×d`.
///
/// This is the serving-path kernel: an inference batch only needs the
/// aggregations of the vertices in its k-hop block, so it multiplies just
/// those rows instead of all of `A`. Both entry points run the same row
/// kernel, so for any requested row the result is **bit-identical** to the
/// corresponding row of the full product — the guarantee the propagation
/// cache relies on.
pub fn spmm_rows(a: &Csr, rows: &[u32], b: &Dense, c: &mut Dense, acc: Accumulate) {
    assert_eq!(a.cols(), b.rows(), "spmm_rows inner dimension mismatch");
    assert_eq!(rows.len(), c.rows(), "spmm_rows output rows mismatch");
    assert_eq!(b.cols(), c.cols(), "spmm_rows output cols mismatch");
    if let Some(&r) = rows.iter().find(|&&r| r as usize >= a.rows()) {
        panic!("spmm_rows row {r} out of bounds");
    }
    fold_rows(a, |i| rows[i] as usize, b, c, acc);
}

/// Output row `i` of `c` (+)= row `row_of(i)` of `a` times `b`.
fn fold_rows(
    a: &Csr,
    row_of: impl Fn(usize) -> usize + Sync,
    b: &Dense,
    c: &mut Dense,
    acc: Accumulate,
) {
    let d = b.cols();
    if d == 0 {
        return;
    }
    let b_data = b.as_slice();
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let values = a.values();
    c.as_mut_slice().par_chunks_mut(ROW_BLOCK * d).enumerate().for_each(|(blk, c_chunk)| {
        let csr_row = |i| {
            let r = row_of(blk * ROW_BLOCK + i);
            let nz = row_ptr[r]..row_ptr[r + 1];
            (&col_idx[nz.clone()], &values[nz])
        };
        fold_listed_rows(b_data, c_chunk, d, csr_row, acc);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Coo;
    use mggcn_dense::gemm;

    fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> Csr {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut coo = Coo::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    coo.push(r as u32, c as u32, rng.gen_range(-1.0..1.0));
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = random_sparse(17, 23, 0.2, 1);
        let b = Dense::from_fn(23, 9, |r, c| ((r * 9 + c) as f32).cos());
        let mut c_sparse = Dense::zeros(17, 9);
        spmm(&a, &b, &mut c_sparse, Accumulate::Overwrite);
        let mut c_dense = Dense::zeros(17, 9);
        gemm(&a.to_dense(), &b, &mut c_dense, Accumulate::Overwrite);
        assert!(c_sparse.max_abs_diff(&c_dense) < 1e-4);
    }

    #[test]
    fn spmm_accumulate_adds_partials() {
        // Staged execution: C = A0*B0 + A1*B1 must equal the one-shot product.
        let a = random_sparse(10, 10, 0.3, 2);
        let b = Dense::from_fn(10, 4, |r, c| (r + c) as f32 * 0.1);
        // One shot.
        let mut full = Dense::zeros(10, 4);
        spmm(&a, &b, &mut full, Accumulate::Overwrite);
        // Two column-stages.
        let grid = crate::partition::TileGrid::new(
            &a,
            crate::partition::PartitionVec::uniform(10, 1),
            crate::partition::PartitionVec::uniform(10, 2),
        );
        let mut staged = Dense::zeros(10, 4);
        for t in grid.tiles() {
            let b_tile = b.row_block(t.col_offset, t.csr.cols());
            spmm(&t.csr, &b_tile, &mut staged, Accumulate::Add);
        }
        assert!(staged.max_abs_diff(&full) < 1e-5);
    }

    #[test]
    fn spmm_empty_matrix_zeroes_output() {
        let a = Csr::empty(4, 4);
        let b = Dense::from_fn(4, 3, |_, _| 1.0);
        let mut c = Dense::from_fn(4, 3, |_, _| 9.0);
        spmm(&a, &b, &mut c, Accumulate::Overwrite);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn spmm_rows_bit_identical_to_full_rows() {
        let a = random_sparse(40, 30, 0.15, 7);
        let b = Dense::from_fn(30, 6, |r, c| ((r * 6 + c) as f32).sin());
        let mut full = Dense::zeros(40, 6);
        spmm(&a, &b, &mut full, Accumulate::Overwrite);
        let rows: Vec<u32> = vec![3, 0, 17, 39, 17, 8];
        let mut sliced = Dense::zeros(rows.len(), 6);
        spmm_rows(&a, &rows, &b, &mut sliced, Accumulate::Overwrite);
        for (i, &r) in rows.iter().enumerate() {
            assert_eq!(sliced.row(i), full.row(r as usize), "row {r} differs");
        }
    }

    #[test]
    fn spmm_rows_accumulates() {
        let a = random_sparse(12, 12, 0.3, 8);
        let b = Dense::from_fn(12, 3, |r, c| (r + c) as f32 * 0.2);
        let rows: Vec<u32> = (0..12).collect();
        let mut twice = Dense::zeros(12, 3);
        spmm_rows(&a, &rows, &b, &mut twice, Accumulate::Overwrite);
        spmm_rows(&a, &rows, &b, &mut twice, Accumulate::Add);
        let mut once = Dense::zeros(12, 3);
        spmm(&a, &b, &mut once, Accumulate::Overwrite);
        for (t, o) in twice.as_slice().iter().zip(once.as_slice()) {
            assert!((t - 2.0 * o).abs() < 1e-5);
        }
    }

    #[test]
    fn spmm_rows_empty_selection() {
        let a = random_sparse(5, 5, 0.4, 9);
        let b = Dense::from_fn(5, 2, |_, _| 1.0);
        let mut c = Dense::zeros(0, 2);
        spmm_rows(&a, &[], &b, &mut c, Accumulate::Overwrite);
        assert_eq!(c.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "spmm_rows row 5 out of bounds")]
    fn spmm_rows_rejects_a_row_past_the_matrix() {
        let a = random_sparse(5, 5, 0.4, 9);
        let b = Dense::from_fn(5, 2, |_, _| 1.0);
        let mut c = Dense::zeros(3, 2);
        spmm_rows(&a, &[0, 5, 7], &b, &mut c, Accumulate::Overwrite);
    }

    #[test]
    fn spmm_large_parallel_path() {
        let a = random_sparse(300, 150, 0.05, 3);
        let b = Dense::from_fn(150, 8, |r, c| ((r * 8 + c) as f32).sin());
        let mut c1 = Dense::zeros(300, 8);
        spmm(&a, &b, &mut c1, Accumulate::Overwrite);
        let mut c2 = Dense::zeros(300, 8);
        gemm(&a.to_dense(), &b, &mut c2, Accumulate::Overwrite);
        assert!(c1.max_abs_diff(&c2) < 1e-3);
    }
}
