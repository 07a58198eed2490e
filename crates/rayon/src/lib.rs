//! In-tree, dependency-free stand-in for `rayon`, backed by a real
//! deterministic thread pool.
//!
//! The build environment resolves crates hermetically (no registry
//! access), so this crate provides the rayon 1.x API surface the
//! workspace uses — `par_iter`/`par_iter_mut`/`par_chunks_mut`/
//! `into_par_iter`, `map`/`zip`/`enumerate`/`for_each`/`collect`, the
//! two-closure `fold`/`reduce` pair, and `current_num_threads` —
//! executing on the fixed-size kernel pool in [`pool`] (size from
//! `MGGCN_THREADS`, default `available_parallelism`; work-stealing-free,
//! statically chunked).
//!
//! # Determinism contract
//!
//! Results are **bit-identical** for every thread count, including 1:
//!
//! * `for_each` pieces write disjoint items, so piece geometry cannot
//!   change any value;
//! * `map`+`collect` re-concatenates per-piece outputs in index order,
//!   reproducing the sequential element order exactly;
//! * `fold`/`reduce` — the only place accumulation *grouping* is
//!   observable in f32 — uses a piece count that is a pure function of
//!   the input length ([`pool::fold_pieces`]), never of the thread
//!   count, and combines partials left-to-right on the calling thread
//!   ([`fold_ranges`] hands the same pieces to a kernel that folds a
//!   whole piece at once).
//!
//! Every kernel in the workspace is deterministic given those rules, so
//! `MGGCN_THREADS=1` and `MGGCN_THREADS=64` train bit-identical models.

mod pool;

pub use pool::{effective_threads, pool_size, set_active_threads};

use std::ops::Range;
use std::sync::Mutex;

/// A splittable source of items: the engine behind every parallel
/// iterator here. A producer knows its length, can split itself at an
/// index, and can convert into a sequential iterator for draining one
/// piece on one thread.
pub trait Producer: Send + Sized {
    type Item: Send;
    type SeqIter: Iterator<Item = Self::Item>;

    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Split into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);
    fn into_seq(self) -> Self::SeqIter;
}

/// Piece `i` of `len` items cut `q` balanced ways: sizes differ by at most
/// one, the larger pieces first.
fn piece_range(len: usize, q: usize, i: usize) -> Range<usize> {
    let (base, rem) = (len / q, len % q);
    let start = i * base + i.min(rem);
    start..start + base + usize::from(i < rem)
}

/// Run `f` over every piece of `prod`, split `q` balanced ways, on the
/// pool. `f` receives `(piece_index, piece)`. Whoever claims a piece cuts
/// it off the front of what is left, so the region holds one producer and
/// allocates nothing.
fn drive<P, F>(prod: P, q: usize, f: F)
where
    P: Producer,
    F: Fn(usize, P) + Sync,
{
    debug_assert!(q >= 1);
    let len = prod.len();
    let rest = Mutex::new((0, Some(prod)));
    pool::run_pieces(q, |_| {
        let (i, piece) = {
            // A `split_at` that panics leaves `None` behind, which the next
            // claimant reports; the state is valid at every step.
            let mut rest = rest.lock().unwrap_or_else(|e| e.into_inner());
            let i = rest.0;
            let uncut = rest.1.take().expect("a producer left for every piece");
            let (piece, tail) = uncut.split_at(piece_range(len, q, i).len());
            *rest = (i + 1, Some(tail));
            (i, piece)
        };
        f(i, piece);
    });
}

/// Partial fold results, one per piece, in piece order. Produced by
/// [`ParallelIterator::fold`]; consumed by [`FoldResult::reduce`].
pub struct FoldResult<T> {
    partials: Vec<T>,
}

impl<T> FoldResult<T> {
    /// rayon-style reduce: combine the per-piece partials sequentially,
    /// left to right, starting from `identity()` — the grouping is fixed
    /// by the piece plan, not by scheduling.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T,
        OP: FnMut(T, T) -> T,
    {
        self.partials.into_iter().fold(identity(), op)
    }
}

/// The pieces [`ParallelIterator::fold`] cuts a `len`-item input into, as
/// index ranges in piece order. A kernel that wants each piece's items at
/// once (to tile over them) folds these ranges and combines the results
/// left to right, and keeps `fold`'s accumulation grouping exactly.
pub fn fold_ranges(len: usize) -> impl ExactSizeIterator<Item = Range<usize>> + Clone {
    let q = pool::fold_pieces(len);
    (0..q).map(move |i| piece_range(len, q, i))
}

/// The rayon-like parallel iterator API, implemented for every
/// [`Producer`].
pub trait ParallelIterator: Producer {
    /// Run `f` on every item, in parallel over disjoint pieces.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let n = self.len();
        if n == 0 {
            return;
        }
        drive(self, pool::pieces_for(n), |_, piece| piece.into_seq().for_each(&f));
    }

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send + Clone,
    {
        Map { base: self, f }
    }

    fn zip<B>(self, other: B) -> Zip<Self, B::Prod>
    where
        B: IntoParallelIterator,
    {
        Zip { a: self, b: other.into_par_iter() }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self, offset: 0 }
    }

    /// rayon-style fold: one accumulator per piece, each folded
    /// sequentially from `identity()`. Piece geometry is a pure function
    /// of `len` (see [`pool::fold_pieces`]), so the f32 accumulation
    /// grouping — hence the result — is independent of the thread count.
    fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> FoldResult<T>
    where
        T: Send,
        ID: Fn() -> T + Sync,
        F: Fn(T, Self::Item) -> T + Sync,
    {
        let n = self.len();
        let q = pool::fold_pieces(n);
        let slots: Vec<Mutex<Option<T>>> = (0..q).map(|_| Mutex::new(None)).collect();
        drive(self, q, |i, piece| {
            let acc = piece.into_seq().fold(identity(), &fold_op);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(acc);
        });
        let partials = slots
            .into_iter()
            .map(|s| {
                s.into_inner().unwrap_or_else(|e| e.into_inner()).expect("piece fold completed")
            })
            .collect();
        FoldResult { partials }
    }

    /// Collect into any `FromIterator` target. Per-piece outputs are
    /// concatenated in piece order, so element order matches the
    /// sequential iteration exactly (and `Result` collection
    /// short-circuits on the first error in that order).
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        let n = self.len();
        if n == 0 {
            return std::iter::empty().collect();
        }
        let q = pool::pieces_for(n);
        let slots: Vec<Mutex<Option<Vec<Self::Item>>>> = (0..q).map(|_| Mutex::new(None)).collect();
        drive(self, q, |i, piece| {
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(piece.into_seq().collect());
        });
        slots
            .into_iter()
            .flat_map(|s| {
                s.into_inner().unwrap_or_else(|e| e.into_inner()).expect("piece collected")
            })
            .collect()
    }
}

impl<P: Producer> ParallelIterator for P {}

/// Conversion into a parallel iterator (a [`Producer`]).
pub trait IntoParallelIterator {
    type Item: Send;
    type Prod: Producer<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Prod;
}

/// Producers are trivially their own parallel iterators.
macro_rules! identity_into_par_iter {
    ($ty:ty | $($g:tt)*) => {
        impl<$($g)*> IntoParallelIterator for $ty
        where
            $ty: Producer,
        {
            type Item = <Self as Producer>::Item;
            type Prod = Self;
            fn into_par_iter(self) -> Self {
                self
            }
        }
    };
}

// ---------------------------------------------------------------------
// Concrete `Producer` implementations.
// ---------------------------------------------------------------------

/// Shared slice items (`par_iter`).
pub struct SliceProducer<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type SeqIter = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(index);
        (Self { slice: a }, Self { slice: b })
    }
    fn into_seq(self) -> Self::SeqIter {
        self.slice.iter()
    }
}
identity_into_par_iter!(SliceProducer<'a, T> | 'a, T: Sync);

/// Mutable slice items (`par_iter_mut`).
pub struct SliceMutProducer<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    type SeqIter = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(index);
        (Self { slice: a }, Self { slice: b })
    }
    fn into_seq(self) -> Self::SeqIter {
        self.slice.iter_mut()
    }
}
identity_into_par_iter!(SliceMutProducer<'a, T> | 'a, T: Send);

/// Mutable chunks (`par_chunks_mut`) — the workhorse of every kernel.
pub struct ChunksMutProducer<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ChunksMutProducer<'a, T> {
    type Item = &'a mut [T];
    type SeqIter = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(mid);
        (Self { slice: a, size: self.size }, Self { slice: b, size: self.size })
    }
    fn into_seq(self) -> Self::SeqIter {
        self.slice.chunks_mut(self.size)
    }
}
identity_into_par_iter!(ChunksMutProducer<'a, T> | 'a, T: Send);

/// `(a..b).into_par_iter()` over `usize`.
pub struct RangeProducer {
    start: usize,
    end: usize,
}

impl Producer for RangeProducer {
    type Item = usize;
    type SeqIter = std::ops::Range<usize>;

    fn len(&self) -> usize {
        self.end - self.start
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = self.start + index;
        (Self { start: self.start, end: mid }, Self { start: mid, end: self.end })
    }
    fn into_seq(self) -> Self::SeqIter {
        self.start..self.end
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Prod = RangeProducer;
    fn into_par_iter(self) -> RangeProducer {
        RangeProducer { start: self.start, end: self.end.max(self.start) }
    }
}

/// Owned `Vec` items (`vec.into_par_iter()`).
pub struct VecProducer<T> {
    items: Vec<T>,
}

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type SeqIter = std::vec::IntoIter<T>;

    fn len(&self) -> usize {
        self.items.len()
    }
    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.items.split_off(index);
        (self, Self { items: tail })
    }
    fn into_seq(self) -> Self::SeqIter {
        self.items.into_iter()
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Prod = VecProducer<T>;
    fn into_par_iter(self) -> VecProducer<T> {
        VecProducer { items: self }
    }
}

/// Lock-step pairing; length is the shorter side.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type SeqIter = std::iter::Zip<A::SeqIter, B::SeqIter>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(index);
        let (b1, b2) = self.b.split_at(index);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }
    fn into_seq(self) -> Self::SeqIter {
        self.a.into_seq().zip(self.b.into_seq())
    }
}
identity_into_par_iter!(Zip<A, B> | A, B);

/// Global-index pairing; splits keep the base offset.
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for Enumerate<P> {
    type Item = (usize, P::Item);
    type SeqIter = std::iter::Zip<std::ops::Range<usize>, P::SeqIter>;

    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Enumerate { base: a, offset: self.offset },
            Enumerate { base: b, offset: self.offset + index },
        )
    }
    fn into_seq(self) -> Self::SeqIter {
        let n = self.base.len();
        (self.offset..self.offset + n).zip(self.base.into_seq())
    }
}
identity_into_par_iter!(Enumerate<P> | P);

/// Item transformation; the closure is cloned across splits.
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> Producer for Map<P, F>
where
    P: Producer,
    R: Send,
    F: Fn(P::Item) -> R + Sync + Send + Clone,
{
    type Item = R;
    type SeqIter = std::iter::Map<P::SeqIter, F>;

    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (Map { base: a, f: self.f.clone() }, Map { base: b, f: self.f })
    }
    fn into_seq(self) -> Self::SeqIter {
        self.base.into_seq().map(self.f)
    }
}
identity_into_par_iter!(Map<P, F> | P, F);

// ---------------------------------------------------------------------
// Slice entry points.
// ---------------------------------------------------------------------

/// `par_iter` on slices (and, via deref, `Vec`).
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> SliceProducer<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SliceProducer<'_, T> {
        SliceProducer { slice: self }
    }
}

/// `par_iter_mut`/`par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> SliceMutProducer<'_, T>;
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutProducer<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> SliceMutProducer<'_, T> {
        SliceMutProducer { slice: self }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutProducer<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ChunksMutProducer { slice: self, size: chunk_size }
    }
}

/// Number of threads that will cooperate on the next parallel region:
/// the actual pool size (from `MGGCN_THREADS`, default
/// `available_parallelism`), clamped by [`set_active_threads`]. Reports
/// 1 when the pool is effectively disabled.
pub fn current_num_threads() -> usize {
    effective_threads()
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_and_enumerate() {
        let mut buf = vec![0u32; 10];
        buf.par_chunks_mut(3).enumerate().for_each(|(blk, chunk)| {
            for c in chunk {
                *c = blk as u32;
            }
        });
        assert_eq!(buf, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn fold_reduce_pair() {
        let total = (0usize..10)
            .into_par_iter()
            .fold(|| 0usize, |acc, x| acc + x)
            .reduce(|| 0usize, |a, b| a + b);
        assert_eq!(total, 45);
    }

    #[test]
    fn collect_results() {
        let parsed: Result<Vec<u32>, ()> =
            vec!["1", "2", "3"].into_par_iter().map(|s| s.parse().map_err(|_| ())).collect();
        assert_eq!(parsed, Ok(vec![1, 2, 3]));
    }

    #[test]
    fn zip_with_plain_vec() {
        let keys = [1u32, 2, 3];
        let vals = vec!["a", "b", "c"];
        let pairs: Vec<(u32, &str)> = keys.par_iter().map(|&k| k).zip(vals).collect();
        assert_eq!(pairs, [(1, "a"), (2, "b"), (3, "c")]);
    }

    #[test]
    fn for_each_visits_every_item_once() {
        // Big enough to split across many pieces.
        let mut buf = vec![0u64; 100_000];
        buf.par_iter_mut().enumerate().for_each(|(i, x)| *x = i as u64 + 1);
        for (i, &x) in buf.iter().enumerate() {
            assert_eq!(x, i as u64 + 1);
        }
    }

    #[test]
    fn fold_grouping_is_thread_count_independent() {
        // The fold piece plan is a function of len only; throttling the
        // pool must not change the (f32-order-sensitive) result bits.
        let data: Vec<f32> =
            (0..50_000).map(|i| ((i * 2654435761u64 as usize) as f32).sin()).collect();
        let sum_with = |threads: usize| {
            let prev = crate::set_active_threads(threads);
            let s = (0..data.len())
                .into_par_iter()
                .fold(|| 0.0f32, |acc, i| acc + data[i])
                .reduce(|| 0.0f32, |a, b| a + b);
            crate::set_active_threads(prev);
            s
        };
        let s1 = sum_with(1);
        for t in [2usize, 3, 8] {
            assert_eq!(s1.to_bits(), sum_with(t).to_bits(), "threads={t}");
        }
    }

    #[test]
    fn fold_ranges_are_the_pieces_fold_uses() {
        for len in [0usize, 1, 1024, 1025, 3000, 5000, 100_000] {
            let seen = (0..len)
                .into_par_iter()
                .fold(
                    || vec![Vec::new()],
                    |mut piece: Vec<Vec<usize>>, i| {
                        piece[0].push(i);
                        piece
                    },
                )
                .reduce(Vec::new, |mut pieces, piece| {
                    pieces.extend(piece);
                    pieces
                });
            let ranges: Vec<Vec<usize>> = crate::fold_ranges(len).map(Iterator::collect).collect();
            assert_eq!(seen, ranges, "len={len}");
        }
    }

    #[test]
    fn collect_preserves_order_across_pieces() {
        let v: Vec<usize> = (0..10_000).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(v.len(), 10_000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 3);
        }
    }

    #[test]
    fn panic_in_piece_propagates_and_pool_survives() {
        for round in 0..3 {
            let hits = AtomicUsize::new(0);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (0..10_000usize).into_par_iter().for_each(|i| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    if i == 4321 {
                        panic!("piece blew up (round {round})");
                    }
                });
            }));
            assert!(r.is_err(), "panic must propagate to the caller");
        }
        // The pool still works after unwinding.
        let total =
            (0..1000usize).into_par_iter().fold(|| 0usize, |a, x| a + x).reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 499_500);
    }

    #[test]
    fn current_num_threads_reports_pool_not_machine() {
        let n = crate::current_num_threads();
        assert!(n >= 1);
        assert!(n <= crate::pool_size());
        let prev = crate::set_active_threads(1);
        assert_eq!(crate::current_num_threads(), 1);
        crate::set_active_threads(prev);
    }

    #[test]
    fn triple_zip_matches_sequential() {
        let a: Vec<f32> = (0..5000).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..5000).map(|i| (i * 7) as f32).collect();
        let mut out = vec![0.0f32; 5000];
        out.par_iter_mut().zip(a.par_iter()).zip(b.par_iter()).for_each(|((o, &x), &y)| *o = x + y);
        for i in 0..5000 {
            assert_eq!(out[i], a[i] + b[i]);
        }
    }
}
