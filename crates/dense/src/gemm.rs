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
//! `fold_strip` (or its two-row form, below), under one driver, `fold_block`:
//! an output row is the sum of rows of `B` scaled by the listed entries of a
//! row of `A`. The kernel holds a strip of the output row in registers, adds
//! the scaled `B` strips to it in the order the entries are listed, and
//! writes it once. The driver walks `B` a panel — one strip wide, all of its
//! rows — at a time and folds that panel into every row of a small block of
//! output rows before it moves on, so the panel is read from L1. The dense
//! kernels first copy `B` into contiguous panels (`pack`): the strips of a
//! row-major `B` sit a whole row apart, which maps a strip of a 128-wide `W`
//! onto 16 of L1's 64 sets and streams `W` from L2 for every output row; and
//! a packed panel is a slice of whole strips, found by index alone, which
//! takes the address arithmetic and one of two bounds checks out of a loop
//! that is short of issue slots, not of arithmetic units. SpMM gathers rows
//! of a `B` too large to copy, so [`fold_listed_rows`] hands the driver `B`
//! as it lies: as one panel when it is one strip wide, which a row-major `B`
//! then already is, and otherwise row by row through its strips.
//!
//! The dense kernels list the nonzero entries of a block of `A` rows once
//! (without a branch: activations after ReLU are half zeros at unpredictable
//! places) and leave the zero terms out of the sum, as they always have.
//! Where the rows of a block share one list — always in [`gemm_a_bt`], which
//! keeps every term, and in [`gemm`] and [`gemm_at_b`] when the block has no
//! zero factor (dense features, the first layer's weight gradient) — the
//! driver folds them two at a time (`fold_strip_pair`): one load of a panel
//! row feeds both rows. "Shares one list" is a compile-time parameter of the
//! driver, so SpMM's instantiation carries no branch for it. The two rows'
//! accumulators must be indexed per row: zipping the two arrays kept all
//! eight ymm accumulators on the stack, a load and a store each per entry,
//! at less than half the speed. A 64-wide strip (eight ymm accumulators of
//! one row) was slower on `train-gemm`, likely for the same reason; it was
//! not re-measured, and the strips stay 32/16/8/4.
//!
//! Every output element has one accumulator and sees its products in `k`
//! order, so results do not depend on the strip widths, the panel layout,
//! the row blocking, the thread count or the vector width of the build.
//!
//! Panels, lists and partial sums live in a per-thread `Scratch` that grows
//! to the largest shape the thread has seen ([`scratch_bound_bytes`]) and is
//! reused: after its first call at a shape a kernel allocates nothing.

use crate::matrix::Dense;
use rayon::prelude::*;
use std::cell::RefCell;
use std::ops::Range;

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

/// Output rows that fold a panel before the driver moves to the next one.
/// Their lists (`8 B` an entry) and a 32-wide panel of as many rows of `B`
/// together stay inside L1 up to a 128-wide layer.
const LIST_BLOCK: usize = 16;

/// Rows of `A` and `B` a [`gemm_at_b`] piece walks per pass over the
/// output: as deep as the lists of a 128-wide [`gemm`], so a panel of them
/// and the lists that fold it stay in L1 together.
const K_BLOCK: usize = 128;

/// [`gemm_at_b`] partial outputs alive at once: the pieces of the reduction
/// run in waves of this many, so the workspace does not grow with `k`.
const PARTIALS_LIVE: usize = 8;

/// The strips an `n`-wide row is produced in, as `(first column, width)`:
/// the widest of 32/16/8/4 that still fits the remaining columns, down to a
/// scalar tail.
fn strips(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j = 0;
    std::iter::from_fn(move || {
        let w = match n - j {
            0 => return None,
            32.. => 32,
            16.. => 16,
            8.. => 8,
            4.. => 4,
            _ => 1,
        };
        j += w;
        Some((j - w, w))
    })
}

/// Where the strips of a `B` lie in its buffer.
#[derive(Clone, Copy)]
enum Layout {
    /// Row-major, `cols` wide: a strip's rows are a whole row apart.
    Rows { cols: usize },
    /// Strip-major panels of a matrix with `rows` rows: the strip at column
    /// `j` starts at `rows · j` and its rows follow each other.
    Panels { rows: usize },
}

/// Where a strip's accumulators start and how their sums land in the output.
#[derive(Clone, Copy)]
enum Strip {
    /// From this value; the sums replace the output.
    Store(f32),
    /// From the output, which the sums replace: `C += A · B` term by term.
    Extend,
    /// From `-0.0`; the sums are added to the output ([`gemm_a_bt`]'s
    /// `C += A · Bᵀ`, each dot product finished before it is added).
    AddDot,
}

impl Strip {
    /// The accumulators of the output strip `c`.
    #[inline(always)]
    fn init<const W: usize>(self, c: &[f32; W]) -> [f32; W] {
        match self {
            Strip::Store(seed) => [seed; W],
            Strip::Extend => *c,
            Strip::AddDot => [-0.0; W],
        }
    }

    /// Land the sums of the accumulators in the output strip `c`.
    #[inline(always)]
    fn land<const W: usize>(self, c: &mut [f32; W], sum: [f32; W]) {
        match self {
            Strip::AddDot => c.iter_mut().zip(sum).for_each(|(cj, dot)| *cj += dot),
            _ => *c = sum,
        }
    }
}

impl From<Accumulate> for Strip {
    fn from(acc: Accumulate) -> Self {
        match acc {
            Accumulate::Overwrite => Strip::Store(0.0),
            Accumulate::Add => Strip::Extend,
        }
    }
}

/// `init + Σ_e vals[e] · strip(idx[e])`, entries in the order given: one
/// accumulator per element, in registers throughout. The only loop that
/// multiplies.
#[inline(always)]
fn fold_strip<'b, const W: usize>(
    idx: impl Iterator<Item = u32>,
    vals: &[f32],
    strip: impl Fn(usize) -> &'b [f32; W],
    init: [f32; W],
) -> [f32; W] {
    let mut sum = init;
    for (i, &v) in idx.zip(vals) {
        for (s, bj) in sum.iter_mut().zip(strip(i as usize)) {
            *s += v * bj;
        }
    }
    sum
}

/// [`fold_strip`] for two output rows whose lists share one index sequence:
/// each panel row is loaded once and feeds both rows' accumulators, every
/// element still summed in list order. The accumulators are indexed per
/// row; zipping the two arrays together keeps them on the stack.
#[inline(always)]
fn fold_strip_pair<'b, const W: usize>(
    idx: impl Iterator<Item = u32>,
    (vals0, vals1): (&[f32], &[f32]),
    strip: impl Fn(usize) -> &'b [f32; W],
    (mut s0, mut s1): ([f32; W], [f32; W]),
) -> ([f32; W], [f32; W]) {
    debug_assert_eq!(vals0.len(), vals1.len(), "one list, two rows of factors");
    for ((r, &a0), &a1) in idx.zip(vals0).zip(vals1) {
        let b = strip(r as usize);
        for jj in 0..W {
            s0[jj] += a0 * b[jj];
        }
        for jj in 0..W {
            s1[jj] += a1 * b[jj];
        }
    }
    (s0, s1)
}

/// One `W`-wide panel of `B` (`strip(r)`: its row `r`) folded into the strip
/// at column `j` of rows `rows` of `c`, row `i` by the entries `list(i)`.
/// With `SHARED`, every row's list has the same indices (only the factors
/// differ), so the rows are folded two at a time.
#[inline(always)]
fn fold_panel<'a, 'b, const W: usize, const SHARED: bool, I: Iterator<Item = u32>>(
    strip: impl Fn(usize) -> &'b [f32; W],
    c: &mut [f32],
    (j, n): (usize, usize),
    mut rows: Range<usize>,
    list: &impl Fn(usize) -> (I, &'a [f32]),
    how: Strip,
) {
    if SHARED {
        let pairs = rows.start..rows.end - rows.len() % 2;
        rows.start = pairs.end;
        for i in pairs.step_by(2) {
            let (c0, c1) = c[j + i * n..].split_at_mut(n);
            let c0: &mut [f32; W] = (&mut c0[..W]).try_into().expect("strip is W wide");
            let c1: &mut [f32; W] = (&mut c1[..W]).try_into().expect("strip is W wide");
            let ((idx, vals0), (_, vals1)) = (list(i), list(i + 1));
            let sums = fold_strip_pair(idx, (vals0, vals1), &strip, (how.init(c0), how.init(c1)));
            how.land(c0, sums.0);
            how.land(c1, sums.1);
        }
    }
    for i in rows {
        let (idx, vals) = list(i);
        let c_strip: &mut [f32; W] =
            (&mut c[j + i * n..][..W]).try_into().expect("strip is W wide");
        let sum = fold_strip(idx, vals, &strip, how.init(c_strip));
        how.land(c_strip, sum);
    }
}

/// [`fold_panel`] on the panel of `b` at column `j`. A packed panel is read
/// as whole `W`-wide rows — one bounds check an entry and no multiplication
/// to find it, which is what the listed loop has issue slots for.
#[inline(always)]
fn fold_panel_at<'a, const W: usize, const SHARED: bool, I: Iterator<Item = u32>>(
    (b, b_layout): (&[f32], Layout),
    c: &mut [f32],
    (j, n): (usize, usize),
    rows: Range<usize>,
    list: &impl Fn(usize) -> (I, &'a [f32]),
    how: Strip,
) {
    match b_layout {
        Layout::Rows { cols } => {
            let strip = |r: usize| b[j + r * cols..][..W].try_into().expect("strip is W wide");
            fold_panel::<W, SHARED, I>(strip, c, (j, n), rows, list, how)
        }
        Layout::Panels { rows: k } => {
            let (panel, _) = b[k * j..][..k * W].as_chunks::<W>();
            fold_panel::<W, SHARED, I>(|r| &panel[r], c, (j, n), rows, list, how)
        }
    }
}

/// The driver: rows `rows` of the row-major, `n`-wide `c` `(+)=` their
/// listed entries (`list(i)`: row indices into `b`, and factors) times `b`.
/// Panel-outer, row-inner, so one panel of `b` serves every row of the block.
/// `SHARED`: every row's list has the same indices, as [`fold_panel`] needs.
#[inline(always)]
fn fold_block<'a, const SHARED: bool, I: Iterator<Item = u32>>(
    b: (&[f32], Layout),
    c: &mut [f32],
    n: usize,
    rows: Range<usize>,
    list: impl Fn(usize) -> (I, &'a [f32]),
    how: Strip,
) {
    for (j, w) in strips(n) {
        let rows = rows.clone();
        match w {
            32 => fold_panel_at::<32, SHARED, I>(b, c, (j, n), rows, &list, how),
            16 => fold_panel_at::<16, SHARED, I>(b, c, (j, n), rows, &list, how),
            8 => fold_panel_at::<8, SHARED, I>(b, c, (j, n), rows, &list, how),
            4 => fold_panel_at::<4, SHARED, I>(b, c, (j, n), rows, &list, how),
            _ => fold_panel_at::<1, SHARED, I>(b, c, (j, n), rows, &list, how),
        }
    }
}

/// Row `i` of the row-major, `n`-wide `c` `(+)= Σ_e vals[e] · B[idx[e], :]`
/// for `(idx, vals) = list(i)`, entries in the order given, where `b` is
/// row-major and `n` wide too (SpMM's entry point: a block of CSR rows a
/// call). A `b` one strip wide is already a packed panel, so the whole block
/// folds it as one, the width chosen once; a wider `b` is folded a row at a
/// time through all its strips, the row listed once.
pub fn fold_listed_rows<'a>(
    b: &[f32],
    c: &mut [f32],
    n: usize,
    list: impl Fn(usize) -> (&'a [u32], &'a [f32]),
    acc: Accumulate,
) {
    match n {
        0 => {}
        4 | 8 | 16 | 32 => {
            let b_panel = (b, Layout::Panels { rows: b.len() / n });
            fold_block::<false, _>(b_panel, c, n, 0..c.len() / n, |i| entries(list(i)), acc.into());
        }
        _ => fold_row_by_row(b, c, n, list, acc),
    }
}

/// [`fold_listed_rows`] for a `b` wider than one strip: a row at a time
/// through all its strips, the row listed once. An empty row under
/// [`Accumulate::Add`] is skipped: folding it would write back the bits it
/// read. Out of line, so that the one-panel loop of the caller keeps its
/// registers: inlined, this loop's live values pushed the panel loop's
/// output pointer onto the stack, and criterion's 16-wide SpMM ran 7 %
/// slower.
#[inline(never)]
fn fold_row_by_row<'a>(
    b: &[f32],
    c: &mut [f32],
    n: usize,
    list: impl Fn(usize) -> (&'a [u32], &'a [f32]),
    acc: Accumulate,
) {
    let b_rows = (b, Layout::Rows { cols: n });
    for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
        let row = list(i);
        if row.0.is_empty() && acc == Accumulate::Add {
            continue;
        }
        fold_block::<false, _>(b_rows, c_row, n, 0..1, |_| entries(row), acc.into());
    }
}

/// A CSR row's entries as the driver takes them.
#[inline(always)]
fn entries<'a>((idx, vals): (&'a [u32], &'a [f32])) -> (impl Iterator<Item = u32> + 'a, &'a [f32]) {
    debug_assert_eq!(idx.len(), vals.len(), "one value per index");
    (idx.iter().copied(), vals)
}

/// The first `len` items of a scratch buffer, grown if it is shorter — to
/// exactly `len`, so that a thread holds its largest request and not the
/// allocator's rounding of it. What the items hold is whatever was left.
fn grown<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Copy the row-major `rows × n` matrix `b` into strip-major panels, reading
/// it front to back.
fn pack(b: &[f32], n: usize, panels: &mut Vec<f32>) {
    let rows = b.len() / n;
    let panels = grown(panels, b.len());
    for (i, row) in b.chunks_exact(n).enumerate() {
        for (j, w) in strips(n) {
            panels[rows * j + i * w..][..w].copy_from_slice(&row[j..j + w]);
        }
    }
}

/// The panels of `Bᵀ` for a row-major `n × k` matrix `b`.
fn pack_transposed(b: &[f32], k: usize, n: usize, panels: &mut Vec<f32>) {
    let panels = grown(panels, b.len());
    for (j, w) in strips(n) {
        let panel = &mut panels[k * j..][..k * w];
        for (jj, b_row) in b[j * k..(j + w) * k].chunks_exact(k.max(1)).enumerate() {
            for (kk, &x) in b_row.iter().enumerate() {
                panel[kk * w + jj] = x;
            }
        }
    }
}

/// The nonzero entries of up to [`LIST_BLOCK`] rows (or strided columns) of
/// `A`, in order: row `i`'s at `i · cap ..`, `lens[i]` of them.
#[derive(Default)]
struct Lists {
    idx: Vec<u32>,
    vals: Vec<f32>,
    lens: [usize; LIST_BLOCK],
    cap: usize,
}

impl Lists {
    /// Make room for `cap` entries a row. The rows listed before are gone.
    fn room_for(&mut self, cap: usize) {
        assert!(u32::try_from(cap).is_ok(), "inner dimension {cap} exceeds u32");
        grown(&mut self.idx, LIST_BLOCK * cap);
        grown(&mut self.vals, LIST_BLOCK * cap);
        self.cap = cap;
    }

    /// List the nonzeros of `xs` by position as row `i`. Every item is
    /// written and the cursor moves on only past a nonzero, so there is no
    /// data-dependent branch to mispredict.
    fn list(&mut self, i: usize, xs: impl Iterator<Item = f32>) {
        let at = i * self.cap..(i + 1) * self.cap;
        let (idx, vals) = (&mut self.idx[at.clone()], &mut self.vals[at]);
        let mut len = 0;
        for (pos, x) in xs.enumerate() {
            idx[len] = pos as u32;
            vals[len] = x;
            len += usize::from(x != 0.0);
        }
        self.lens[i] = len;
    }

    fn row(&self, i: usize) -> (impl Iterator<Item = u32> + '_, &[f32]) {
        let at = i * self.cap..i * self.cap + self.lens[i];
        (self.idx[at.clone()].iter().copied(), &self.vals[at])
    }
}

/// Kernel workspace, grown to the largest shape its thread has seen and
/// never shrunk. Host memory of the CPU kernels, not a buffer of the
/// modelled GPU: `MemoryPlan` does not count it.
#[derive(Default)]
struct Scratch {
    /// `B` in panels: all of it in [`gemm`] / [`gemm_a_bt`], the current
    /// `K_BLOCK` of it in [`gemm_at_b`].
    panels: Vec<f32>,
    lists: Lists,
    /// One wave of [`gemm_at_b`] partial outputs, and the running sum of
    /// all of them so far.
    partials: Vec<f32>,
    sum: Vec<f32>,
}

thread_local! {
    /// What a kernel's calling thread holds for the length of the call and
    /// lends to the pieces of its parallel region.
    static CALL: RefCell<Scratch> = RefCell::new(Scratch::default());
    /// What one piece uses while it runs — on a pool lane or on the calling
    /// thread, which is why the two are apart.
    static LANE: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Bytes of kernel workspace the calling thread holds.
pub fn scratch_bytes() -> usize {
    let bytes = |s: &RefCell<Scratch>| {
        let s = s.borrow();
        let floats = s.panels.len() + s.lists.vals.len() + s.partials.len() + s.sum.len();
        4 * (floats + s.lists.idx.len())
    };
    CALL.with(bytes) + LANE.with(bytes)
}

/// What [`scratch_bytes`] can reach on a thread whose products have inner
/// and output dimensions up to `d` (for a GCN: its widest layer) and any
/// number of rows: a packed `d × d` operand, `PARTIALS_LIVE` partial
/// outputs and their sum for the call; a packed `K_BLOCK × d` operand and
/// the lists of `LIST_BLOCK` rows for the piece.
pub fn scratch_bound_bytes(d: usize) -> usize {
    4 * ((PARTIALS_LIVE + 2) * d * d + K_BLOCK * d + 2 * LIST_BLOCK * d.max(K_BLOCK))
}

/// `C (+)= A · B` for `B: k×n` in panels and row-major `a: m×k`, `c: m×n`:
/// [`ROW_BLOCK`] rows a parallel task, [`LIST_BLOCK`] rows at a time folded
/// through every panel — by all their entries if `keep_zero` or the block
/// has no zero, else by their nonzeros, listed once.
fn fold_rows(
    a: &[f32],
    k: usize,
    panels: &[f32],
    c: &mut [f32],
    n: usize,
    keep_zero: bool,
    how: Strip,
) {
    let b_panels = (panels, Layout::Panels { rows: k });
    let k32 = u32::try_from(k).expect("inner dimension fits u32");
    c.par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(blk, c_chunk)| {
        LANE.with(|lane| {
            let mut lane = lane.borrow_mut();
            let lists = &mut lane.lists;
            if !keep_zero {
                lists.room_for(k);
            }
            for (sub, c_block) in c_chunk.chunks_mut(LIST_BLOCK * n).enumerate() {
                let rows = c_block.len() / n;
                let a_rows = &a[(blk * ROW_BLOCK + sub * LIST_BLOCK) * k..][..rows * k];
                let a_row = |i: usize| &a_rows[i * k..(i + 1) * k];
                // `-0.0 == 0.0` too: a block with a zero of either sign goes
                // through the lists, which leave its terms out.
                if keep_zero || !a_rows.contains(&0.0) {
                    let all = |i: usize| (0..k32, a_row(i));
                    fold_block::<true, _>(b_panels, c_block, n, 0..rows, all, how);
                } else {
                    (0..rows).for_each(|i| lists.list(i, a_row(i).iter().copied()));
                    fold_block::<false, _>(b_panels, c_block, n, 0..rows, |i| lists.row(i), how);
                }
            }
        })
    });
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
    CALL.with(|call| {
        let mut call = call.borrow_mut();
        let panels = &mut call.panels;
        pack(b.as_slice(), n, panels);
        fold_rows(a.as_slice(), k, panels, c.as_mut_slice(), n, false, acc.into());
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
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    let pieces = rayon::fold_ranges(k);

    // One piece of `k` into its zeroed partial: a `K_BLOCK` of `B` packed,
    // then a block of `A`'s columns at a time listed (the block is one cache
    // line of each row of `A`, so the strided walk down a column stays in L1
    // after the first) and folded through every panel.
    let fold_piece = |piece: Range<usize>, partial: &mut [f32]| {
        LANE.with(|lane| {
            let Scratch { panels, lists, .. } = &mut *lane.borrow_mut();
            lists.room_for(K_BLOCK);
            for k0 in piece.clone().step_by(K_BLOCK) {
                let ks = k0..piece.end.min(k0 + K_BLOCK);
                pack(&b_data[ks.start * n..ks.end * n], n, panels);
                let b_panels = (&panels[..], Layout::Panels { rows: ks.len() });
                for i0 in (0..m).step_by(LIST_BLOCK) {
                    let cols = i0..m.min(i0 + LIST_BLOCK);
                    for i in cols.clone() {
                        lists.list(i - i0, ks.clone().map(|kk| a_data[kk * m + i]));
                    }
                    let row = |i: usize| lists.row(i - i0);
                    if lists.lens[..cols.len()].iter().all(|&len| len == ks.len()) {
                        let all = |i: usize| (0..ks.len() as u32, row(i).1);
                        fold_block::<true, _>(b_panels, partial, n, cols, all, Strip::Extend);
                    } else {
                        fold_block::<false, _>(b_panels, partial, n, cols, row, Strip::Extend);
                    }
                }
            }
        })
    };

    CALL.with(|call| {
        let Scratch { partials, sum, .. } = &mut *call.borrow_mut();
        let sum = grown(sum, m * n);
        sum.fill(0.0);
        // Room for a full wave whatever `k` is: the workspace is then a
        // function of the output shape alone.
        let partials = grown(partials, PARTIALS_LIVE * m * n);
        for wave in (0..pieces.len()).step_by(PARTIALS_LIVE) {
            let live = PARTIALS_LIVE.min(pieces.len() - wave);
            let partials = &mut partials[..live * m * n];
            partials.fill(0.0);
            partials.par_chunks_mut(m * n).enumerate().for_each(|(p, partial)| {
                fold_piece(pieces.clone().nth(wave + p).expect("a piece per partial"), partial);
            });
            // Left to right.
            for partial in partials.chunks(m * n) {
                sum.iter_mut().zip(partial).for_each(|(s, p)| *s += p);
            }
        }
        let c_slice = c.as_mut_slice();
        match acc {
            Accumulate::Overwrite => c_slice.copy_from_slice(sum),
            Accumulate::Add => c_slice.iter_mut().zip(sum).for_each(|(ci, si)| *ci += *si),
        }
    });
}

/// `C = A · Bᵀ` with `A: m×k`, `B: n×k`, `C: m×n`.
///
/// Used for the input gradient `H_G = HW_G · Wᵀ` (paper eq. 11). `B` (the
/// weight matrix) is small, so it is transposed once, into panels. Every
/// `C[i, j]` is the dot product of row `i` of `A` with row `j` of `B`: all
/// `k` terms, zero or not, summed in order from `-0.0` (the neutral element
/// of `Iterator::sum`), then stored or added.
pub fn gemm_a_bt(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
    assert_eq!(a.cols(), b.cols(), "gemm_a_bt inner dimension mismatch");
    assert_eq!(a.rows(), c.rows(), "gemm_a_bt output rows mismatch");
    assert_eq!(b.rows(), c.cols(), "gemm_a_bt output cols mismatch");
    let (k, n) = (a.cols(), b.rows());
    if n == 0 {
        return;
    }
    let how = match acc {
        Accumulate::Overwrite => Strip::Store(-0.0),
        Accumulate::Add => Strip::AddDot,
    };
    CALL.with(|call| {
        let mut call = call.borrow_mut();
        let panels = &mut call.panels;
        pack_transposed(b.as_slice(), k, n, panels);
        fold_rows(a.as_slice(), k, panels, c.as_mut_slice(), n, true, how);
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
