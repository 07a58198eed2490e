//! The deterministic kernel pool: a fixed-size, work-stealing-free thread
//! pool executing statically chunked piece lists.
//!
//! Design constraints (DESIGN.md §9):
//!
//! * **Fixed size** — `MGGCN_THREADS` (else `available_parallelism`),
//!   resolved once at first use; workers are spawned lazily and persist
//!   for the process lifetime.
//! * **No work stealing** — a parallel region is a fixed list of
//!   `pieces` whose *contents* are a pure function of the input length
//!   (and, for order-insensitive regions, the active thread count).
//!   Threads claim piece *indices* from a shared counter; which thread
//!   runs a piece is scheduling noise, what each piece computes is not.
//! * **Panic propagation** — a panicking piece poisons the region
//!   (remaining pieces are skipped), and the payload is re-thrown on the
//!   calling thread once the region quiesces. The pool itself survives.
//! * **Runtime throttling** — [`set_active_threads`] bounds how many
//!   threads (including the caller) may participate in subsequent
//!   regions, so in-process scaling sweeps (`examples/exec_speedup.rs`,
//!   the benchmark's `rayon.lane_speedup`) can measure 1..N threads
//!   without re-spawning pools.
//! * **No allocation per region** — a thread keeps the [`Job`] of its last
//!   region and resets it for the next, so a kernel that runs every epoch
//!   allocates nothing here after its first call.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Runtime cap on participating threads; 0 means "use the whole pool".
static ACTIVE_LIMIT: AtomicUsize = AtomicUsize::new(0);

/// Bound the number of threads (caller included) that participate in
/// parallel regions from now on. `0` restores the full pool. Values above
/// the pool size are clamped. Returns the previous limit.
pub fn set_active_threads(n: usize) -> usize {
    ACTIVE_LIMIT.swap(n, Ordering::SeqCst)
}

/// Threads that will cooperate on the next parallel region: the pool size
/// clamped by [`set_active_threads`]. This is what
/// [`current_num_threads`](crate::current_num_threads) reports.
pub fn effective_threads() -> usize {
    let size = Pool::global().size;
    match ACTIVE_LIMIT.load(Ordering::SeqCst) {
        0 => size,
        n => n.min(size),
    }
}

/// Total threads in the pool (caller + persistent workers), fixed at
/// first use from `MGGCN_THREADS` / `available_parallelism`.
pub fn pool_size() -> usize {
    Pool::global().size
}

/// One parallel region: `pieces` indices executed exactly once each.
struct Job {
    /// Type-erased `&F` where `F: Fn(usize) + Sync`, valid until the
    /// submitting thread returns from [`run_pieces`].
    func: *const (),
    call: unsafe fn(*const (), usize),
    pieces: usize,
    /// Next unclaimed piece index.
    next: AtomicUsize,
    /// Participation slots taken (the caller holds slot 0).
    joiners: AtomicUsize,
    /// Max participants for this region (caller included).
    max_joiners: usize,
    /// Set once any piece panics; remaining pieces are skipped.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completed (ran or skipped) piece count, paired with `done_cv`.
    done: Mutex<usize>,
    done_cv: Condvar,
}

// SAFETY: `func` is only dereferenced through `call` for claimed piece
// indices `< pieces`; the referent (`F: Sync`) outlives every such call
// because the submitting thread blocks until `done == pieces`, and each
// piece marks itself done only after its call returns.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::SeqCst) >= self.pieces
    }

    /// Try to take a participation slot. Fails when the region already
    /// has `max_joiners` participants or nothing is left to claim.
    fn try_join(&self) -> bool {
        if self.exhausted() {
            return false;
        }
        if self.joiners.fetch_add(1, Ordering::SeqCst) >= self.max_joiners {
            self.joiners.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Claim and run pieces until none are left.
    fn run_claims(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.pieces {
                return;
            }
            if !self.poisoned.load(Ordering::SeqCst) {
                // SAFETY: i < pieces and the region is not finished, so
                // `func` is alive (see the Send/Sync justification).
                let r = catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.func, i) }));
                if let Err(payload) = r {
                    self.poisoned.store(true, Ordering::SeqCst);
                    let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            let mut d = self.done.lock().unwrap_or_else(|e| e.into_inner());
            *d += 1;
            if *d == self.pieces {
                self.done_cv.notify_all();
            }
        }
    }

    /// Block until every piece has run or been skipped.
    fn wait(&self) {
        let mut d = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while *d < self.pieces {
            d = self.done_cv.wait(d).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Threads expected to have a region in the queue at once (GPU workers,
/// test threads). More only means the queue reallocates once.
const MAX_CALLERS: usize = 64;

struct Pool {
    size: usize,
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let size = std::env::var("MGGCN_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
                });
            // Room for more concurrent regions than there will be callers:
            // a push never grows the queue, so it never allocates.
            let queue = Mutex::new(VecDeque::with_capacity(MAX_CALLERS));
            Pool { size, queue, wake: Condvar::new() }
        })
    }

    /// Spawn the persistent workers exactly once (pool size permitting).
    fn ensure_workers(&'static self) {
        static SPAWNED: OnceLock<()> = OnceLock::new();
        SPAWNED.get_or_init(|| {
            for w in 1..self.size {
                std::thread::Builder::new()
                    .name(format!("mggcn-pool-{w}"))
                    .spawn(move || self.worker_loop())
                    .expect("spawn pool worker");
            }
        });
    }

    fn worker_loop(&'static self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    while q.front().is_some_and(|j| j.exhausted()) {
                        q.pop_front();
                    }
                    if let Some(j) = q.iter().find(|j| j.try_join()) {
                        break j.clone();
                    }
                    q = self.wake.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            job.run_claims();
            job.joiners.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn inject(&self, job: Arc<Job>) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(job);
        drop(q);
        self.wake.notify_all();
    }

    fn remove(&self, job: &Arc<Job>) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.retain(|j| !Arc::ptr_eq(j, job));
        drop(q);
        // Workers parked on this job's account must re-examine the queue.
        self.wake.notify_all();
    }
}

thread_local! {
    /// The job of this thread's last region, finished and out of the queue:
    /// the next region resets it instead of allocating one. Its `func` is
    /// stale and never called — every piece index is claimed.
    static SPARE_JOB: RefCell<Option<Arc<Job>>> = const { RefCell::new(None) };
}

/// Execute `f(0), f(1), …, f(pieces-1)`, each exactly once, across the
/// active threads. Blocks until all pieces finish; re-throws the first
/// piece panic on this thread.
pub(crate) fn run_pieces<F>(pieces: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if pieces == 0 {
        return;
    }
    let pool = Pool::global();
    let threads = effective_threads();
    if pieces == 1 || threads <= 1 {
        for i in 0..pieces {
            f(i);
        }
        return;
    }
    pool.ensure_workers();
    unsafe fn call<F: Fn(usize) + Sync>(p: *const (), i: usize) {
        (*(p as *const F))(i)
    }
    let fresh = Job {
        func: &f as *const F as *const (),
        call: call::<F>,
        pieces,
        next: AtomicUsize::new(0),
        joiners: AtomicUsize::new(1), // the caller
        max_joiners: threads,
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        done: Mutex::new(0),
        done_cv: Condvar::new(),
    };
    let job = match SPARE_JOB.take() {
        Some(mut spare) => {
            // The queue dropped it when its region ended, so no new clone
            // can appear; a worker may still be between its last (empty)
            // claim and dropping its own. Let it run.
            loop {
                if let Some(last) = Arc::get_mut(&mut spare) {
                    *last = fresh;
                    break;
                }
                std::thread::yield_now();
            }
            spare
        }
        None => Arc::new(fresh),
    };
    pool.inject(job.clone());
    job.run_claims();
    job.wait();
    pool.remove(&job);
    let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    SPARE_JOB.set(Some(job));
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}

/// Piece count for **order-insensitive** regions (`for_each`, `map` +
/// `collect`): scales with the active thread count for load balance;
/// results are unaffected because pieces write disjoint outputs (or are
/// re-concatenated in index order).
pub(crate) fn pieces_for(len: usize) -> usize {
    len.min(effective_threads().saturating_mul(4)).max(1)
}

/// Piece count for **order-sensitive** regions (`fold`/`reduce`): a pure
/// function of `len`, never of the thread count, so f32 accumulation
/// grouping — and therefore every trained weight — is bit-identical for
/// any `MGGCN_THREADS`. Lengths ≤ [`FOLD_CHUNK`] collapse to one piece,
/// which reproduces plain sequential accumulation exactly.
pub(crate) fn fold_pieces(len: usize) -> usize {
    const MAX_PIECES: usize = 64;
    len.div_ceil(FOLD_CHUNK).clamp(1, MAX_PIECES)
}

/// Minimum items per fold piece (see [`fold_pieces`]).
pub(crate) const FOLD_CHUNK: usize = 1024;
