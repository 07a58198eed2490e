//! Bit-identity of the register-tiled kernels against the loops they
//! replaced.
//!
//! `sparse::{spmm, spmm_rows}` and `dense::{gemm, gemm_a_bt, gemm_at_b}`
//! keep one accumulator per output element and feed it the same products
//! in the same order as the plain loops kept below as references, so every
//! output must match in `to_bits()`, not within a tolerance — trained
//! weights, schedule goldens and the serving cache's row guarantee all
//! rest on it. The sweep crosses every strip-width boundary and tail,
//! empty rows, both accumulate modes, signed zeros (the `0.0` skip of the
//! dense kernels is visible only in the sign of a zero), the piece plan of
//! `gemm_at_b`, and kernel-pool widths 1 and 4.

use mg_gcn::dense::{gemm, gemm_a_bt, gemm_at_b, Accumulate, Dense};
use mg_gcn::exec::set_active_threads;
use mg_gcn::sparse::{spmm, spmm_rows, Coo, Csr};
use rayon::prelude::*;

/// Every width up to past the second widest-strip boundary, then the
/// benchmark's wide layers and one ragged width beyond them.
fn widths() -> impl Iterator<Item = usize> {
    (1..=70).chain([96, 128, 130])
}

const MODES: [Accumulate; 2] = [Accumulate::Overwrite, Accumulate::Add];

/// A pool four wide whatever the host has, so that `set_active_threads(4)`
/// is not clamped. Every test calls this before its first kernel.
fn four_lane_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| std::env::set_var("MGGCN_THREADS", "4"));
}

/// Run `f` under pool widths 1 and 4 and hand back each width with its
/// result.
fn at_widths<T>(f: impl Fn() -> T) -> [(usize, T); 2] {
    four_lane_pool();
    [1, 4].map(|w| {
        let prev = set_active_threads(w);
        let out = f();
        set_active_threads(prev);
        (w, out)
    })
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`, with `0.0` and `-0.0` one time in eight each.
    fn value(&mut self) -> f32 {
        match self.next() % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
        }
    }

    fn dense(&mut self, rows: usize, cols: usize) -> Dense {
        Dense::from_fn(rows, cols, |_, _| self.value())
    }

    /// About `fill` of the entries stored (signed zeros among them); every
    /// fifth row is empty.
    fn sparse(&mut self, rows: usize, cols: usize, fill: u64) -> Csr {
        let mut coo = Coo::new(rows, cols);
        for r in (0..rows).filter(|r| r % 5 != 3) {
            for c in 0..cols {
                if self.next() % 100 < fill {
                    coo.push(r as u32, c as u32, self.value());
                }
            }
        }
        coo.to_csr()
    }
}

fn assert_same_bits(got: &Dense, want: &Dense, what: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} is {g:e}, reference {w:e}");
    }
}

// ---------------------------------------------------------------------
// The loops as they were before the kernels were tiled.
// ---------------------------------------------------------------------

fn spmm_rows_reference(a: &Csr, rows: &[u32], b: &Dense, c: &mut Dense, acc: Accumulate) {
    let d = b.cols();
    let b_data = b.as_slice();
    for (i, &r) in rows.iter().enumerate() {
        let c_row = c.row_mut(i);
        if acc == Accumulate::Overwrite {
            c_row.fill(0.0);
        }
        for e in a.row_ptr()[r as usize]..a.row_ptr()[r as usize + 1] {
            let v = a.values()[e];
            let b_row = &b_data[a.col_idx()[e] as usize * d..(a.col_idx()[e] as usize + 1) * d];
            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                *cj += v * bj;
            }
        }
    }
}

fn spmm_reference(a: &Csr, b: &Dense, c: &mut Dense, acc: Accumulate) {
    let all: Vec<u32> = (0..a.rows() as u32).collect();
    spmm_rows_reference(a, &all, b, c, acc);
}

fn gemm_reference(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
    let n = b.cols();
    for i in 0..a.rows() {
        let c_row = c.row_mut(i);
        if acc == Accumulate::Overwrite {
            c_row.fill(0.0);
        }
        for (kk, &aik) in a.row(i).iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b.as_slice()[kk * n..(kk + 1) * n];
            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                *cj += aik * bj;
            }
        }
    }
}

fn gemm_at_b_reference(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let partial = (0..k)
        .into_par_iter()
        .fold(
            || vec![0.0f32; m * n],
            |mut acc_buf, kk| {
                let a_row = &a_data[kk * m..(kk + 1) * m];
                let b_row = &b_data[kk * n..(kk + 1) * n];
                for (i, &aki) in a_row.iter().enumerate() {
                    if aki == 0.0 {
                        continue;
                    }
                    let c_row = &mut acc_buf[i * n..(i + 1) * n];
                    for (cj, bj) in c_row.iter_mut().zip(b_row) {
                        *cj += aki * bj;
                    }
                }
                acc_buf
            },
        )
        .reduce(
            || vec![0.0f32; m * n],
            |mut x, y| {
                for (a, b) in x.iter_mut().zip(y) {
                    *a += b;
                }
                x
            },
        );
    match acc {
        Accumulate::Overwrite => c.as_mut_slice().copy_from_slice(&partial),
        Accumulate::Add => {
            for (ci, pi) in c.as_mut_slice().iter_mut().zip(partial) {
                *ci += pi;
            }
        }
    }
}

fn gemm_a_bt_reference(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let dot: f32 = a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum();
            match acc {
                Accumulate::Overwrite => c.set(i, j, dot),
                Accumulate::Add => c.set(i, j, c.get(i, j) + dot),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------

type DenseKernel = fn(&Dense, &Dense, &mut Dense, Accumulate);

/// `kernel` against `reference` on `a`, `b` and a prefilled `c0`, both
/// modes, both pool widths.
fn check_dense(
    what: &str,
    kernel: DenseKernel,
    reference: DenseKernel,
    a: &Dense,
    b: &Dense,
    c0: &Dense,
) {
    for acc in MODES {
        let mut want = c0.clone();
        reference(a, b, &mut want, acc);
        let run = || {
            let mut c = c0.clone();
            kernel(a, b, &mut c, acc);
            c
        };
        for (w, got) in at_widths(run) {
            assert_same_bits(&got, &want, &format!("{what} {acc:?} pool {w}"));
        }
    }
}

#[test]
fn spmm_and_spmm_rows_match_the_plain_loop_at_every_width() {
    let mut rng = Rng(1);
    // 75 rows: two full row blocks of the kernel and a ragged third.
    let a = rng.sparse(75, 41, 30);
    let picked: Vec<u32> = (0..90).map(|_| (rng.next() % 75) as u32).collect();
    for d in widths() {
        let b = rng.dense(41, d);
        let c0 = rng.dense(75, d);
        let c0_rows = rng.dense(picked.len(), d);
        for acc in MODES {
            let mut want = c0.clone();
            spmm_reference(&a, &b, &mut want, acc);
            let mut want_rows = c0_rows.clone();
            spmm_rows_reference(&a, &picked, &b, &mut want_rows, acc);
            let run = || {
                let (mut c, mut c_rows) = (c0.clone(), c0_rows.clone());
                spmm(&a, &b, &mut c, acc);
                spmm_rows(&a, &picked, &b, &mut c_rows, acc);
                (c, c_rows)
            };
            for (w, (got, got_rows)) in at_widths(run) {
                assert_same_bits(&got, &want, &format!("spmm d={d} {acc:?} pool {w}"));
                assert_same_bits(
                    &got_rows,
                    &want_rows,
                    &format!("spmm_rows d={d} {acc:?} pool {w}"),
                );
            }
        }
    }
}

#[test]
fn gemm_matches_the_plain_loop_at_every_width() {
    let mut rng = Rng(4);
    // 131 rows: two full row blocks and a ragged third with an odd row left
    // over after the two-row tiles.
    for n in widths() {
        let a = rng.dense(131, 19);
        let b = rng.dense(19, n);
        let c0 = rng.dense(131, n);
        check_dense(&format!("gemm n={n}"), gemm, gemm_reference, &a, &b, &c0);
    }
    for k in [0, 1, 2, 64, 65, 130] {
        let a = rng.dense(7, k);
        let b = rng.dense(k, 21);
        let c0 = rng.dense(7, 21);
        check_dense(&format!("gemm k={k}"), gemm, gemm_reference, &a, &b, &c0);
    }
}

#[test]
fn gemm_skips_zero_factors_and_so_keeps_a_negative_zero() {
    four_lane_pool();
    // (-0.0) + 0.0 · b is +0.0; leaving the term out keeps -0.0.
    let a = Dense::zeros(3, 5);
    let b = Rng(5).dense(5, 18);
    let c0 = Dense::from_fn(3, 18, |_, _| -0.0);
    let mut c = c0.clone();
    gemm(&a, &b, &mut c, Accumulate::Add);
    assert_same_bits(&c, &c0, "gemm Add of a zero A");
}

#[test]
fn gemm_a_bt_matches_the_dot_product_loop_at_every_width() {
    let mut rng = Rng(6);
    for n in widths() {
        let a = rng.dense(131, 19);
        let b = rng.dense(n, 19);
        let c0 = rng.dense(131, n);
        check_dense(&format!("gemm_a_bt n={n}"), gemm_a_bt, gemm_a_bt_reference, &a, &b, &c0);
    }
    // k = 0 leaves the empty sum, -0.0; k = 1 with zero factors leaves the
    // sign of a single product.
    for k in [0, 1, 2, 64, 65, 130] {
        let a = rng.dense(7, k);
        let b = rng.dense(21, k);
        let c0 = rng.dense(7, 21);
        check_dense(&format!("gemm_a_bt k={k}"), gemm_a_bt, gemm_a_bt_reference, &a, &b, &c0);
    }
}

#[test]
fn gemm_at_b_matches_the_fold_at_every_width_and_piece_count() {
    let mut rng = Rng(7);
    // One piece (k = 70 < FOLD_CHUNK = 1024): every output shape.
    for n in widths() {
        let m = 1 + n % 7;
        let a = rng.dense(70, m);
        let b = rng.dense(70, n);
        let c0 = rng.dense(m, n);
        check_dense(&format!("gemm_at_b {m}x{n}"), gemm_at_b, gemm_at_b_reference, &a, &b, &c0);
        let (a, b, c0) = (rng.dense(70, n), rng.dense(70, 3), rng.dense(n, 3));
        check_dense(&format!("gemm_at_b {n}x3"), gemm_at_b, gemm_at_b_reference, &a, &b, &c0);
    }
    // Around the one-piece / two-piece boundary, then three and four pieces
    // (3000 is the benchmark's; 3100 splits unevenly, 775 rows a piece is
    // not a multiple of the kernel's k block).
    for k in [0, 1, 1023, 1024, 1025, 2048, 2049, 3000, 3100] {
        for (m, n) in [(5, 17), (3, 33), (2, 4)] {
            let a = rng.dense(k, m);
            let b = rng.dense(k, n);
            let c0 = rng.dense(m, n);
            check_dense(
                &format!("gemm_at_b k={k} {m}x{n}"),
                gemm_at_b,
                gemm_at_b_reference,
                &a,
                &b,
                &c0,
            );
        }
    }
}

// ---------------------------------------------------------------------
// The panel path: `B` packed into strip-major panels, a block of rows
// folded through each, workspace kept per thread.
// ---------------------------------------------------------------------

/// Output widths with every kind of tail behind one or more full panels.
const PANEL_WIDTHS: [usize; 9] = [33, 48, 63, 64, 96, 100, 128, 130, 160];

/// Inner dimensions around the `K_BLOCK` of `gemm_at_b` and its halves.
const PANEL_DEPTHS: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 257];

/// Row counts on both sides of the list block (16) and the row block (64).
const PANEL_ROWS: [usize; 8] = [1, 15, 16, 17, 63, 64, 65, 81];

#[test]
fn the_three_gemms_match_their_loops_on_packed_panels_with_ragged_tails() {
    let mut rng = Rng(11);
    for (ni, n) in PANEL_WIDTHS.into_iter().enumerate() {
        for (ki, k) in PANEL_DEPTHS.into_iter().enumerate() {
            let m = PANEL_ROWS[(ni * PANEL_DEPTHS.len() + ki) % PANEL_ROWS.len()];
            let what = format!("{m}x{k}x{n}");
            let (a, b, c0) = (rng.dense(m, k), rng.dense(k, n), rng.dense(m, n));
            check_dense(&format!("gemm {what}"), gemm, gemm_reference, &a, &b, &c0);
            let bt = rng.dense(n, k);
            check_dense(&format!("gemm_a_bt {what}"), gemm_a_bt, gemm_a_bt_reference, &a, &bt, &c0);
            let at = rng.dense(k, m);
            check_dense(&format!("gemm_at_b {what}"), gemm_at_b, gemm_at_b_reference, &at, &b, &c0);
        }
    }
}

/// Equal bits, or both NaN: which NaN an addition of two returns is the
/// compiler's choice of operand order, not the kernel's.
fn assert_same_bits_or_both_nan(got: &Dense, want: &Dense, what: &str) {
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:e}, reference {w:e}"
        );
    }
}

#[test]
fn a_skipped_term_stays_skipped_whatever_it_would_have_multiplied() {
    four_lane_pool();
    const POISON: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    let mut rng = Rng(12);
    let (m, k, n) = (37, 70, 100);
    // Every fifth inner index: an exact zero of either sign in `A`, and in
    // `B` something a product with zero would not survive.
    let dead = |kk: usize| kk % 5 == 2;
    let zero = |i: usize| if i.is_multiple_of(2) { 0.0 } else { -0.0 };
    let nonzero = |x: f32| if x == 0.0 { 0.5 } else { x };
    let a = Dense::from_fn(m, k, |i, kk| if dead(kk) { zero(i) } else { nonzero(rng.value()) });
    let at = a.transpose();
    let b = Dense::from_fn(k, n, |kk, j| if dead(kk) { POISON[j % 4] } else { rng.value() });
    let c0 = rng.dense(m, n);
    for acc in MODES {
        for (what, kernel, reference, a) in [
            ("gemm", gemm as DenseKernel, gemm_reference as DenseKernel, &a),
            ("gemm_at_b", gemm_at_b, gemm_at_b_reference, &at),
        ] {
            let (mut got, mut want) = (c0.clone(), c0.clone());
            kernel(a, &b, &mut got, acc);
            reference(a, &b, &mut want, acc);
            assert_same_bits(&got, &want, &format!("{what} {acc:?} beside poisoned rows of B"));
            assert!(got.as_slice().iter().all(|x| x.is_finite()), "{what} {acc:?} let one through");
        }
        // `gemm_a_bt` leaves nothing out: a column of `C` opposite NaN or an
        // infinity is NaN, one opposite -0.0 is finite, as in the loop.
        let (mut got, mut want) = (c0.clone(), c0.clone());
        gemm_a_bt(&a, &b.transpose(), &mut got, acc);
        gemm_a_bt_reference(&a, &b.transpose(), &mut want, acc);
        assert_same_bits_or_both_nan(&got, &want, &format!("gemm_a_bt {acc:?} on poisoned B"));
        for j in 0..n {
            assert_eq!(got.get(0, j).is_nan(), j % 4 != 3, "gemm_a_bt {acc:?} column {j}");
        }
    }
}

#[test]
fn workspace_left_by_a_larger_call_does_not_reach_a_later_result() {
    let mut rng = Rng(13);
    // Large, small, large again: the small call finds panels, lists and
    // partials of the large one; the second large call those of the small.
    let shapes = [(81, 129, 160), (3, 2, 5), (81, 129, 160)];
    let inputs: Vec<[Dense; 5]> = shapes
        .iter()
        .map(|&(m, k, n)| {
            [rng.dense(m, k), rng.dense(k, n), rng.dense(n, k), rng.dense(k, m), rng.dense(m, n)]
        })
        .collect();
    let run = |[a, b, bt, at, c0]: &[Dense; 5]| {
        MODES.map(|acc| {
            let mut out = [c0.clone(), c0.clone(), c0.clone()];
            gemm(a, b, &mut out[0], acc);
            gemm_a_bt(a, bt, &mut out[1], acc);
            gemm_at_b(at, b, &mut out[2], acc);
            out
        })
    };
    let on_a_fresh_thread = |f: &(dyn Fn() -> Vec<[[Dense; 3]; 2]> + Sync)| {
        std::thread::scope(|s| s.spawn(f).join().expect("kernel thread"))
    };
    for (w, (together, apart)) in at_widths(|| {
        let together = on_a_fresh_thread(&|| inputs.iter().map(run).collect());
        let apart: Vec<_> =
            inputs.iter().flat_map(|call| on_a_fresh_thread(&|| vec![run(call)])).collect();
        (together, apart)
    }) {
        for (call, (got, want)) in together.iter().zip(&apart).enumerate() {
            for (got, want) in got.iter().flatten().zip(want.iter().flatten()) {
                assert_same_bits(got, want, &format!("call {call} pool {w}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Blocks whose rows share one list: `gemm_a_bt` always, `gemm` and
// `gemm_at_b` when no factor of the block is zero. The value generator
// above makes a zero-free 16-row block all but impossible, so these
// inputs are built zero-free, or with one planted zero.
// ---------------------------------------------------------------------

impl Rng {
    /// As `value`, never a zero of either sign.
    fn nonzero(&mut self) -> f32 {
        loop {
            let x = self.value();
            if x != 0.0 {
                return x;
            }
        }
    }

    fn dense_nonzero(&mut self, rows: usize, cols: usize) -> Dense {
        Dense::from_fn(rows, cols, |_, _| self.nonzero())
    }
}

/// Row counts around the row pairs, the list block (16) and two of them.
const SHARED_ROWS: [usize; 8] = [1, 2, 3, 15, 16, 17, 31, 33];

#[test]
fn zero_free_blocks_match_the_plain_loops_at_every_width_and_row_count() {
    let mut rng = Rng(14);
    for m in SHARED_ROWS {
        for n in widths() {
            let what = format!("{m}x19x{n}");
            let (a, b, c0) = (rng.dense_nonzero(m, 19), rng.dense(19, n), rng.dense(m, n));
            check_dense(&format!("gemm {what}"), gemm, gemm_reference, &a, &b, &c0);
            let at = rng.dense_nonzero(19, m);
            check_dense(&format!("gemm_at_b {what}"), gemm_at_b, gemm_at_b_reference, &at, &b, &c0);
        }
        // Depths around the `K_BLOCK` of `gemm_at_b`, whose last block is
        // shorter.
        for (k, n) in [(1, 36), (64, 16), (129, 128), (257, 33)] {
            let what = format!("{m}x{k}x{n}");
            let (a, b, c0) = (rng.dense_nonzero(m, k), rng.dense(k, n), rng.dense(m, n));
            check_dense(&format!("gemm {what}"), gemm, gemm_reference, &a, &b, &c0);
            let at = rng.dense_nonzero(k, m);
            check_dense(&format!("gemm_at_b {what}"), gemm_at_b, gemm_at_b_reference, &at, &b, &c0);
        }
    }
}

#[test]
fn one_zero_among_zero_free_rows_sends_its_block_back_to_the_lists() {
    const POISON: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let mut rng = Rng(15);
    let (m, k, n) = (33, 40, 48);
    // The zero's term would multiply a row of `B` that no product with zero
    // survives: folding the block by the shared list shows as a NaN.
    for zero in [0.0, -0.0] {
        for (zi, zk) in [(0, 0), (17, 39), (32, 7)] {
            let mut a = rng.dense_nonzero(m, k);
            a.set(zi, zk, zero);
            let b =
                Dense::from_fn(k, n, |kk, j| if kk == zk { POISON[j % 3] } else { rng.value() });
            let c0 = rng.dense(m, n);
            let what = format!("zero {zero:?} at ({zi}, {zk})");
            check_dense(&format!("gemm {what}"), gemm, gemm_reference, &a, &b, &c0);
            let at = a.transpose();
            check_dense(&format!("gemm_at_b {what}"), gemm_at_b, gemm_at_b_reference, &at, &b, &c0);
        }
    }
}

#[test]
fn spmm_add_leaves_an_empty_row_as_it_found_it() {
    let mut rng = Rng(16);
    // Every fifth row of `a` is empty; its output row holds signed zeros
    // and NaNs with payloads, whose bits an addition would not keep.
    let a = rng.sparse(40, 23, 30);
    let odd = [-0.0, f32::from_bits(0x7fc0_1234), f32::from_bits(0xffc0_0001)];
    for d in widths() {
        let b = rng.dense(23, d);
        let c0 =
            Dense::from_fn(
                40,
                d,
                |i, j| {
                    if a.row_nnz(i) == 0 {
                        odd[(i + j) % 3]
                    } else {
                        rng.value()
                    }
                },
            );
        let mut want = c0.clone();
        spmm_reference(&a, &b, &mut want, Accumulate::Add);
        let run = || {
            let mut c = c0.clone();
            spmm(&a, &b, &mut c, Accumulate::Add);
            c
        };
        for (w, got) in at_widths(run) {
            assert_same_bits(&got, &want, &format!("spmm d={d} Add pool {w}"));
        }
    }
}

// A product with no output columns used to panic ("chunk size must be
// positive"); with no output rows, or neither, it must do nothing as well.
const EMPTY_SHAPES: [(usize, usize); 3] = [(6, 0), (0, 3), (0, 0)];

#[test]
fn spmm_with_an_empty_output_is_a_no_op() {
    four_lane_pool();
    for (rows, cols) in EMPTY_SHAPES {
        let a = Rng(8).sparse(rows, 4, 50);
        for acc in MODES {
            spmm(&a, &Dense::zeros(4, cols), &mut Dense::zeros(rows, cols), acc);
        }
    }
}

#[test]
fn spmm_rows_with_an_empty_output_is_a_no_op() {
    four_lane_pool();
    let a = Rng(9).sparse(6, 4, 50);
    for (rows, cols) in EMPTY_SHAPES {
        let picked: Vec<u32> = (0..rows as u32).collect();
        for acc in MODES {
            spmm_rows(&a, &picked, &Dense::zeros(4, cols), &mut Dense::zeros(rows, cols), acc);
        }
    }
}

#[test]
fn gemm_with_an_empty_output_is_a_no_op() {
    four_lane_pool();
    for (rows, cols) in EMPTY_SHAPES {
        for acc in MODES {
            gemm(
                &Dense::zeros(rows, 4),
                &Dense::zeros(4, cols),
                &mut Dense::zeros(rows, cols),
                acc,
            );
        }
    }
}

#[test]
fn gemm_a_bt_with_an_empty_output_is_a_no_op() {
    four_lane_pool();
    for (rows, cols) in EMPTY_SHAPES {
        for acc in MODES {
            let (a, b) = (Dense::zeros(rows, 4), Dense::zeros(cols, 4));
            gemm_a_bt(&a, &b, &mut Dense::zeros(rows, cols), acc);
        }
    }
}

#[test]
fn gemm_at_b_with_an_empty_output_is_a_no_op() {
    four_lane_pool();
    for (rows, cols) in EMPTY_SHAPES {
        for acc in MODES {
            let (a, b) = (Dense::zeros(4, rows), Dense::zeros(4, cols));
            gemm_at_b(&a, &b, &mut Dense::zeros(rows, cols), acc);
        }
    }
}
