//! Row-major dense matrix.

use std::fmt;

/// A row-major dense `rows × cols` matrix of `f32`.
///
/// Row-major layout matches the paper's cuBLAS usage ("Row Major format for
/// the dense matrices", §6) and makes SpMM's per-row accumulation contiguous.
#[derive(Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Dense {
    /// Create a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create from an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Bytes of backing storage actually allocated. `resize` re-views the
    /// buffer without shrinking the allocation, so this is the matrix's
    /// memory high-watermark — what a device allocator would hold.
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Reshape this matrix to `rows × cols`, reusing the allocation.
    ///
    /// This is how MG-GCN's shared buffers (`HW`, `BC1`, `BC2`) serve
    /// layers of different widths: one allocation sized for the widest use,
    /// re-viewed per kernel. Newly exposed elements are zeroed; contents are
    /// otherwise unspecified (callers overwrite before reading).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Out-of-place transpose.
    pub fn transpose(&self) -> Dense {
        let mut t = Dense::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Copy the rows `[start, start + n)` into a new matrix.
    pub fn row_block(&self, start: usize, n: usize) -> Dense {
        assert!(start + n <= self.rows);
        let data = self.data[start * self.cols..(start + n) * self.cols].to_vec();
        Dense { rows: n, cols: self.cols, data }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Max absolute entry — the scale a relative comparison divides by.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Max absolute elementwise difference against `other`.
    pub fn max_abs_diff(&self, other: &Dense) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }
}

impl Default for Dense {
    /// An empty `0 × 0` matrix — the placeholder `std::mem::take` leaves
    /// behind when a buffer is temporarily moved out for a split borrow.
    fn default() -> Self {
        Dense::zeros(0, 0)
    }
}

impl fmt::Debug for Dense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dense({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Dense::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_indexing() {
        let m = Dense::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 11.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Dense::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_values() {
        let m = Dense::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), m.get(1, 2));
    }

    #[test]
    fn row_block_copies_rows() {
        let m = Dense::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let b = m.row_block(1, 2);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.row(0), m.row(1));
        assert_eq!(b.row(1), m.row(2));
    }

    #[test]
    fn max_abs_picks_the_largest_magnitude() {
        let m = Dense::from_vec(2, 2, vec![1.0, -7.5, 3.0, 0.0]);
        assert_eq!(m.max_abs(), 7.5);
        assert_eq!(Dense::zeros(2, 3).max_abs(), 0.0);
    }

    #[test]
    fn frob_norm_simple() {
        let m = Dense::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frob_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_wrong_size_panics() {
        let _ = Dense::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn resize_reuses_allocation() {
        let mut m = Dense::zeros(10, 8);
        let cap_before = m.as_slice().len();
        m.resize(4, 5);
        assert_eq!((m.rows(), m.cols()), (4, 5));
        assert_eq!(m.len(), 20);
        m.resize(10, 8);
        assert_eq!(m.len(), cap_before);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn max_abs_diff_detects_change() {
        let a = Dense::zeros(2, 2);
        let mut b = Dense::zeros(2, 2);
        b.set(1, 1, 0.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
