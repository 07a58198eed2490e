//! COO and CSR sparse matrices.

/// Coordinate-format builder for sparse matrices.
///
/// Duplicate entries are summed on conversion to [`Csr`], matching the
/// behaviour graph loaders expect for multigraph edge lists.
#[derive(Clone, Debug)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f32)>,
}

impl Coo {
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols, entries: Vec::new() }
    }

    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        Self { rows, cols, entries: Vec::with_capacity(nnz) }
    }

    /// Add entry `(r, c) = v`. Panics on out-of-range coordinates.
    pub fn push(&mut self, r: u32, c: u32, v: f32) {
        debug_assert!((r as usize) < self.rows && (c as usize) < self.cols);
        self.entries.push((r, c, v));
    }

    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn entries(&self) -> &[(u32, u32, f32)] {
        &self.entries
    }

    /// Convert to CSR, summing duplicate `(r, c)` entries.
    pub fn to_csr(mut self) -> Csr {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f32> = Vec::with_capacity(self.entries.len());
        let mut last: Option<(u32, u32)> = None;
        for &(r, c, v) in &self.entries {
            if last == Some((r, c)) {
                *values.last_mut().expect("duplicate follows an emitted entry") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_ptr[r as usize + 1] += 1;
                last = Some((r, c));
            }
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

/// Compressed Sparse Row matrix with `f32` values and `u32` column indices
/// (the paper's storage format; §6: "cuSPARSE ... with the Compressed Sparse
/// Row format").
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Build directly from raw parts, validating the CSR invariants.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len(), "row_ptr terminal");
        assert_eq!(col_idx.len(), values.len(), "col/val length");
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr monotone");
        debug_assert!(col_idx.iter().all(|&c| (c as usize) < cols), "col index range");
        Self { rows, cols, row_ptr, col_idx, values }
    }

    /// The `row_ptr`, `col_idx` and `values` arrays [`Csr::from_parts`]
    /// took, handed back for refilling.
    pub fn into_parts(self) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        (self.row_ptr, self.col_idx, self.values)
    }

    /// Check every CSR structural invariant at runtime, naming the first
    /// violation. `from_parts` asserts the cheap subset and only
    /// debug-asserts the `O(nnz)` ones; the conformance harness calls
    /// this on matrices produced by transforms (transpose, column
    /// normalization, graph-delta application), where a structural break
    /// would otherwise surface only as silently wrong numerics.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.rows + 1 {
            return Err(format!(
                "row_ptr has {} entries for {} rows",
                self.row_ptr.len(),
                self.rows
            ));
        }
        if self.row_ptr[0] != 0 {
            return Err(format!("row_ptr[0] = {}, must be 0", self.row_ptr[0]));
        }
        if let Some(r) = self.row_ptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("row_ptr decreases at row {r}"));
        }
        if *self.row_ptr.last().expect("nonempty row_ptr") != self.col_idx.len() {
            return Err(format!(
                "row_ptr terminal {} != nnz {}",
                self.row_ptr[self.rows],
                self.col_idx.len()
            ));
        }
        if self.col_idx.len() != self.values.len() {
            return Err(format!(
                "{} column indices vs {} values",
                self.col_idx.len(),
                self.values.len()
            ));
        }
        if let Some(i) = self.col_idx.iter().position(|&c| (c as usize) >= self.cols) {
            return Err(format!(
                "column index {} at position {i} out of range for {} cols",
                self.col_idx[i], self.cols
            ));
        }
        if let Some(i) = self.values.iter().position(|v| !v.is_finite()) {
            return Err(format!("non-finite value {} at position {i}", self.values[i]));
        }
        Ok(())
    }

    /// An empty `rows × cols` matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterate the `(col, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        self.col_idx[range.clone()].iter().copied().zip(self.values[range].iter().copied())
    }

    /// The column indices of row `r` — its sparsity pattern, for a graph
    /// walk that never reads the values.
    pub fn row_cols(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Number of nonzeros in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Transpose via counting sort — `O(nnz + rows + cols)`.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let pos = cursor[c as usize];
                cursor[c as usize] += 1;
                col_idx[pos] = r as u32;
                values[pos] = v;
            }
        }
        // `row_ptr` kept from pre-scatter counts; terminal already == nnz.
        row_ptr[self.cols] = self.nnz();
        Csr { rows: self.cols, cols: self.rows, row_ptr, col_idx, values }
    }

    /// In-degree normalization (paper eq. 2): divide each entry `A(u, v)` by
    /// the total in-weight of `v` (its column sum), so every column of the
    /// result sums to 1 and `Âᵀ·H` averages each vertex's in-neighbors.
    pub fn normalize_columns(&self) -> Csr {
        let mut col_sums = vec![0.0f64; self.cols];
        for (c, v) in self.col_idx.iter().zip(&self.values) {
            col_sums[*c as usize] += *v as f64;
        }
        let values = self
            .col_idx
            .iter()
            .zip(&self.values)
            .map(|(&c, &v)| {
                let s = col_sums[c as usize];
                if s == 0.0 {
                    0.0
                } else {
                    (v as f64 / s) as f32
                }
            })
            .collect();
        Csr { values, ..self.clone() }
    }

    /// Row normalization: divide each entry by its row sum, so `Â·H`
    /// averages each row's neighbors (mean aggregation over out-lists —
    /// the form mini-batch blocks use, where edges already point from a
    /// vertex to its sampled neighbors).
    pub fn normalize_rows(&self) -> Csr {
        let mut out = self.clone();
        for r in 0..self.rows {
            out.normalize_row_from(r, self);
        }
        out
    }

    /// Overwrite row `r`'s values with `raw`'s row `r` divided by its sum —
    /// one row of [`normalize_rows`](Self::normalize_rows), same bits. Both
    /// matrices must store row `r` with the same column pattern.
    pub fn normalize_row_from(&mut self, r: usize, raw: &Csr) {
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        let raw_range = raw.row_ptr[r]..raw.row_ptr[r + 1];
        debug_assert_eq!(self.col_idx[range.clone()], raw.col_idx[raw_range.clone()]);
        let src = &raw.values[raw_range];
        let sum: f64 = src.iter().map(|&v| v as f64).sum();
        for (out, &v) in self.values[range].iter_mut().zip(src) {
            *out = if sum != 0.0 { (v as f64 / sum) as f32 } else { v };
        }
    }

    /// Add `v` to entry `(r, c)`, inserting it in column order if it is not
    /// stored yet; returns whether it was inserted. Row `r`'s columns must
    /// be ascending (binary search finds the slot); an insertion also
    /// shifts the entries after it and bumps the later row offsets.
    pub fn add_entry(&mut self, r: usize, c: u32, v: f32) -> bool {
        assert!(r < self.rows && (c as usize) < self.cols, "entry ({r}, {c}) out of range");
        let (start, end) = (self.row_ptr[r], self.row_ptr[r + 1]);
        let cols = &self.col_idx[start..end];
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} columns not ascending");
        match cols.binary_search(&c) {
            Ok(i) => {
                self.values[start + i] += v;
                false
            }
            Err(i) => {
                // A full Vec would double; grow by a bounded step instead so
                // a long-lived, rarely-growing matrix keeps its footprint.
                let step = self.col_idx.len() / 64 + 16;
                if self.col_idx.len() == self.col_idx.capacity() {
                    self.col_idx.reserve_exact(step);
                }
                if self.values.len() == self.values.capacity() {
                    self.values.reserve_exact(step);
                }
                self.col_idx.insert(start + i, c);
                self.values.insert(start + i, v);
                for p in &mut self.row_ptr[r + 1..] {
                    *p += 1;
                }
                true
            }
        }
    }

    /// Symmetric relabeling by a permutation: entry `(u, v)` moves to
    /// `(perm[u], perm[v])`. This is the paper's §5.2 random-permutation
    /// load-balancing step applied to the adjacency matrix.
    pub fn permute_symmetric(&self, perm: &[u32]) -> Csr {
        assert_eq!(self.rows, self.cols, "symmetric permutation needs a square matrix");
        assert_eq!(perm.len(), self.rows);
        let mut coo = Coo::with_capacity(self.rows, self.cols, self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                coo.push(perm[r], perm[c as usize], v);
            }
        }
        coo.to_csr()
    }

    /// Densify (tests / tiny examples only).
    pub fn to_dense(&self) -> mggcn_dense::Dense {
        let mut d = mggcn_dense::Dense::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                d.set(r, c as usize, d.get(r, c as usize) + v);
            }
        }
        d
    }

    /// Set every stored value to 1.0 — turns a weighted/multigraph adjacency
    /// into a binary one after duplicate-summing.
    pub fn binarize(&mut self) {
        self.values.fill(1.0);
    }

    /// Extract the listed rows (in the given order) into a new matrix with
    /// the same column space.
    ///
    /// ```
    /// use mggcn_sparse::{Coo, Csr};
    /// let mut coo = Coo::new(3, 3);
    /// coo.push(0, 1, 1.0);
    /// coo.push(2, 0, 2.0);
    /// let a = coo.to_csr();
    /// let picked = a.select_rows(&[2, 0]);
    /// assert_eq!(picked.rows(), 2);
    /// assert_eq!(picked.row(0).collect::<Vec<_>>(), vec![(0, 2.0)]);
    /// assert_eq!(picked.row(1).collect::<Vec<_>>(), vec![(1, 1.0)]);
    /// ```
    pub fn select_rows(&self, rows: &[u32]) -> Csr {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let nnz: usize = rows.iter().map(|&r| self.row_nnz(r as usize)).sum();
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &r in rows {
            for (c, v) in self.row(r as usize) {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr { rows: rows.len(), cols: self.cols, row_ptr, col_idx, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 3x4: [[1,0,2,0],[0,0,0,3],[4,5,0,0]]
        let mut coo = Coo::new(3, 4);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 3, 3.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 1, 5.0);
        coo.to_csr()
    }

    #[test]
    fn validate_accepts_well_formed_and_names_the_break() {
        assert_eq!(sample().validate(), Ok(()));
        assert_eq!(Csr::empty(0, 0).validate(), Ok(()));
        assert_eq!(sample().transpose().validate(), Ok(()));

        // Broken matrices can't come from `from_parts` (it debug-asserts),
        // so build them field-by-field — this module lives in the file.
        let m = sample();
        let mut bad = m.clone();
        bad.cols = 2; // stored indices 2 and 3 now out of range
        let err = bad.validate().expect_err("out-of-range column");
        assert!(err.contains("out of range"), "got: {err}");

        let mut nan = m.clone();
        nan.values[1] = f32::NAN;
        let err = nan.validate().expect_err("non-finite value");
        assert!(err.contains("non-finite"), "got: {err}");

        let mut dec = m;
        dec.row_ptr[1] = 3;
        dec.row_ptr[2] = 2;
        let err = dec.validate().expect_err("decreasing row_ptr");
        assert!(err.contains("decreases"), "got: {err}");
    }

    #[test]
    fn coo_to_csr_basic() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_ptr(), &[0, 2, 3, 5]);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn coo_duplicates_are_summed() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.5);
        coo.push(1, 0, 1.0);
        let m = coo.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(1, 3.5)]);
    }

    #[test]
    fn duplicates_do_not_merge_across_rows() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 1, 2.0); // same column, different row: must stay separate
        let m = coo.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row(1).collect::<Vec<_>>(), vec![(1, 2.0)]);
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        let td = m.transpose().to_dense();
        let d = m.to_dense().transpose();
        assert_eq!(td.max_abs_diff(&d), 0.0);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn normalize_columns_sums_to_one() {
        let m = sample().normalize_columns();
        let d = m.to_dense();
        for c in 0..4 {
            let s: f32 = (0..3).map(|r| d.get(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-6 || s == 0.0, "col {c} sums to {s}");
        }
    }

    #[test]
    fn normalize_rows_sums_to_one() {
        let m = sample().normalize_rows();
        let d = m.to_dense();
        for r in 0..3 {
            let s: f32 = (0..4).map(|c| d.get(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-6 || s == 0.0, "row {r} sums to {s}");
        }
    }

    #[test]
    fn add_entry_accumulates_or_inserts_in_column_order() {
        let mut m = sample();
        assert!(!m.add_entry(0, 2, 0.5), "(0, 2) is stored: accumulate");
        assert!(m.add_entry(1, 0, 7.0), "start of row 1");
        assert!(m.add_entry(2, 3, 6.0), "end of row 2");
        assert!(m.add_entry(0, 1, 8.0), "middle of row 0");
        assert_eq!(m.validate(), Ok(()));
        let mut coo = Coo::new(3, 4);
        let want = [
            (0, 0, 1.0),
            (0, 1, 8.0),
            (0, 2, 2.5),
            (1, 0, 7.0),
            (1, 3, 3.0),
            (2, 0, 4.0),
            (2, 1, 5.0),
            (2, 3, 6.0),
        ];
        for (r, c, v) in want {
            coo.push(r, c, v);
        }
        assert_eq!(m, coo.to_csr());

        let mut e = Csr::empty(3, 3);
        assert!(e.add_entry(1, 2, 1.0), "into an empty row");
        assert!(!e.add_entry(1, 2, 1.0));
        assert_eq!(e.validate(), Ok(()));
        assert_eq!(e.row_ptr(), &[0, 0, 1, 1]);
        assert_eq!(e.row(1).collect::<Vec<_>>(), vec![(2, 2.0)]);
    }

    #[test]
    fn add_entry_grows_capacity_by_a_bounded_step() {
        let mut m = sample();
        let len = m.nnz();
        m.col_idx.shrink_to_fit();
        m.values.shrink_to_fit();
        m.add_entry(1, 1, 1.0);
        let bound = len + len / 64 + 16;
        assert!(m.col_idx.capacity() <= bound && m.values.capacity() <= bound);
    }

    #[test]
    fn normalize_row_from_is_one_row_of_normalize_rows() {
        let raw = sample();
        let full = raw.normalize_rows();
        let mut patched = raw.clone();
        patched.normalize_row_from(2, &raw);
        assert_eq!(patched.row(2).collect::<Vec<_>>(), full.row(2).collect::<Vec<_>>());
        assert_eq!(patched.row(0).collect::<Vec<_>>(), raw.row(0).collect::<Vec<_>>());
    }

    #[test]
    fn permute_symmetric_relabels() {
        // 2x2 with single entry (0,1); perm swaps 0 and 1 -> entry at (1,0).
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 7.0);
        let m = coo.to_csr();
        let p = m.permute_symmetric(&[1, 0]);
        assert_eq!(p.row(1).collect::<Vec<_>>(), vec![(0, 7.0)]);
        assert_eq!(p.row_nnz(0), 0);
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::empty(5, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row_nnz(3), 0);
    }
}
