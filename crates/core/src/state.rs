//! Per-GPU device state implementing the §4.2 shared-buffer scheme.
//!
//! Each GPU holds exactly the buffers of paper Fig 1: one `AHW` result
//! buffer per layer plus the three shared buffers `HW` (GeMM↔SpMM
//! temporary), `BC1` and `BC2` (double-buffered broadcast targets) —
//! `L + 3` large buffers total — along with the replicated weights and
//! their Adam state. The shared buffers are *re-viewed* (`Dense::resize`)
//! at each use, never re-allocated, which is what keeps the footprint at
//! `L + 3`.

use crate::config::GcnConfig;
use crate::loss::LossStats;
use crate::problem::Problem;
use mggcn_dense::{init, Dense};
use mggcn_gpusim::shadow::EffectRecorder;
use mggcn_gpusim::BufId;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Which broadcast buffer a stage writes/reads (double buffering, §4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcSlot {
    Bc1,
    Bc2,
}

impl BcSlot {
    /// Stage `s` uses `BC1` when even, `BC2` when odd.
    pub fn for_stage(s: usize) -> Self {
        if s.is_multiple_of(2) {
            BcSlot::Bc1
        } else {
            BcSlot::Bc2
        }
    }

    /// The `BufId` family name of this slot (matches the declared effects).
    pub fn buf_name(self) -> &'static str {
        match self {
            BcSlot::Bc1 => "BC1",
            BcSlot::Bc2 => "BC2",
        }
    }
}

/// One virtual GPU's memory.
pub struct GpuState {
    /// Input feature shard `H⁰_i` (read-only during training).
    pub x: Dense,
    /// Per-layer result buffers (`AHW` in the paper), shapes `n_i × d(l+1)`.
    pub ahw: Vec<Dense>,
    /// Shared GeMM↔SpMM temporary, re-viewed per layer.
    pub hw: Dense,
    /// Broadcast buffers (double-buffered).
    pub bc1: Dense,
    pub bc2: Dense,
    /// 1.5D replicated-partial buffer: accumulates the SpMM result for the
    /// *mate* GPU's partition between the intra-group broadcasts and the
    /// cross-group reduction (§5.1's 2× memory replication). Allocated
    /// 0×0 under 1D — zero capacity, so the L+3 accounting is unchanged —
    /// and grown lazily by the first 1.5D SpMM body.
    pub rp: Dense,
    /// Bounded-staleness snapshot buffers (`SF.l`, DESIGN §15): a copy of
    /// layer `l`'s forward broadcast source, taken at the last snapshot
    /// epoch, that later epochs' remote broadcasts read instead of the live
    /// buffer. Empty (zero capacity) when `staleness == 0`, so the `L + 3`
    /// accounting is unchanged; grown lazily by the first snapshot body.
    pub sf: Vec<Dense>,
    /// Replicated weights, one per layer.
    pub weights: Vec<Dense>,
    /// Weight gradients.
    pub wgrad: Vec<Dense>,
    /// Adam first/second moments.
    pub adam_m: Vec<Dense>,
    pub adam_v: Vec<Dense>,
    /// Local labels and masks.
    pub labels: Vec<u32>,
    pub train_mask: Vec<bool>,
    pub test_mask: Vec<bool>,
    /// Scratch: local loss sum and correct-prediction counters, filled by
    /// the loss body each epoch.
    pub loss: LossStats,
    /// Per-epoch trail of one run: the loss body also pushes its stats
    /// here, so a fused multi-epoch (staleness) schedule yields one entry
    /// per epoch and a classic one a single entry.
    pub epoch_stats: Vec<LossStats>,
    /// This GPU's index within the [`DeviceState`] (buffer-access notes
    /// attribute to it).
    index: usize,
    /// Shadow effect recorder, attached only while the effect-soundness
    /// oracle observes a run ([`DeviceState::attach_recorder`]). `None` in
    /// ordinary training/serving, where every note is a no-op.
    recorder: Option<Arc<EffectRecorder>>,
}

impl GpuState {
    pub fn bc(&mut self, slot: BcSlot) -> &mut Dense {
        match slot {
            BcSlot::Bc1 => &mut self.bc1,
            BcSlot::Bc2 => &mut self.bc2,
        }
    }

    pub fn bc_ref(&self, slot: BcSlot) -> &Dense {
        self.note_read(BufId::new(self.index, slot.buf_name()));
        match slot {
            BcSlot::Bc1 => &self.bc1,
            BcSlot::Bc2 => &self.bc2,
        }
    }

    /// Borrow two distinct `AHW` buffers at once: `(read, write)` — the
    /// split the in-place ReLU backward needs (incoming gradient in
    /// `ahw[read]`, activation/output in `ahw[write]`). Both buffers are
    /// consumed by the caller, so both count as reads for the recorder.
    pub fn ahw_pair_mut(&mut self, read: usize, write: usize) -> (&Dense, &mut Dense) {
        assert_ne!(read, write, "ahw_pair_mut needs distinct buffers");
        self.note_read(BufId::indexed(self.index, "AHW", read));
        self.note_read(BufId::indexed(self.index, "AHW", write));
        if read < write {
            let (lo, hi) = self.ahw.split_at_mut(write);
            (&lo[read], &mut hi[0])
        } else {
            let (lo, hi) = self.ahw.split_at_mut(read);
            (&hi[0], &mut lo[write])
        }
    }

    /// This GPU's index within its [`DeviceState`].
    pub fn index(&self) -> usize {
        self.index
    }

    /// Tell the attached shadow recorder (if any) that the current op read
    /// `buf`. A no-op outside an observed run.
    pub fn note_read(&self, buf: BufId) {
        if let Some(rec) = &self.recorder {
            rec.read(buf);
        }
    }

    /// Tell the attached shadow recorder (if any) that the current op wrote
    /// `buf`. Used for writes the post-op fingerprint diff cannot see —
    /// collective copies that may land byte-identical payloads.
    pub fn note_write(&self, buf: BufId) {
        if let Some(rec) = &self.recorder {
            rec.write(buf);
        }
    }

    /// Layer-`l` weights, recorded as a read.
    pub fn w_ref(&self, l: usize) -> &Dense {
        self.note_read(BufId::indexed(self.index, "W", l));
        &self.weights[l]
    }

    /// Layer-`l` staleness snapshot, recorded as a read.
    pub fn sf_ref(&self, l: usize) -> &Dense {
        self.note_read(BufId::indexed(self.index, "SF", l));
        &self.sf[l]
    }
}

/// All device memory plus cross-GPU scratch. This is the `Ctx` the engine
/// threads through kernel bodies — on the threaded backend, through
/// worker threads, so each GPU's memory sits behind its own lock.
///
/// Lock discipline: a GPU-local kernel body locks only its own GPU (no
/// ordering concern); collective bodies run at rendezvous quiescence
/// (every participant is blocked in the barrier) and lock GPUs in
/// ascending index order.
pub struct DeviceState {
    gpus: Vec<Mutex<GpuState>>,
    /// Epochs trained so far. Compiled epoch plans are epoch-independent:
    /// the Adam bodies read their step and learning rate from here at run
    /// time. Written only by the trainer, between runs (`train`, `restore`).
    epoch: AtomicU64,
    /// Host staging buffers, each with room for the largest tile
    /// (`staging_len` floats): what [`DeviceState::stage`] hands a collective
    /// body and [`DeviceState::unstage`] takes back, so that after its first
    /// run the body allocates none. Host memory, outside the `L + 3` plan;
    /// empty unless a 1.5D reduction has run.
    staging: Mutex<Vec<Dense>>,
    staging_len: usize,
}

/// A locked GPU. Derefs to [`GpuState`]; in debug builds its construction
/// and drop maintain the per-thread held-lock stack behind the
/// ascending-order assertion in [`DeviceState::gpu`].
pub struct GpuGuard<'a> {
    inner: MutexGuard<'a, GpuState>,
    /// (owning `DeviceState` address, GPU index) — the lock-order
    /// discipline is per state instance: holding GPU 0 of one state
    /// while locking GPU 0 of an unrelated state is fine.
    key: (usize, usize),
}

impl Deref for GpuGuard<'_> {
    type Target = GpuState;
    fn deref(&self) -> &GpuState {
        &self.inner
    }
}

impl DerefMut for GpuGuard<'_> {
    fn deref_mut(&mut self) -> &mut GpuState {
        &mut self.inner
    }
}

impl Drop for GpuGuard<'_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        lock_order::release(self.key);
        #[cfg(not(debug_assertions))]
        let _ = self.key;
    }
}

/// Debug-build bookkeeping for the ascending lock-order assertion: a
/// per-thread stack of currently held GPU indices.
#[cfg(debug_assertions)]
mod lock_order {
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// `key` = (owning `DeviceState` address, GPU index). Only locks of
    /// the *same* state participate in the ascending-order requirement —
    /// distinct states have disjoint mutex sets, so no cross-state
    /// acquisition can deadlock.
    pub fn check_acquire(key: (usize, usize)) {
        HELD.with(|h| {
            let held = h.borrow();
            let same_state = || held.iter().filter(|&&(s, _)| s == key.0).map(|&(_, j)| j);
            assert!(
                same_state().all(|j| j < key.1),
                "GPU lock order violation: acquiring GPU {} while holding {:?} — \
                 collective bodies must lock GPUs in ascending index order",
                key.1,
                same_state().collect::<Vec<_>>()
            );
        });
    }

    pub fn push(key: (usize, usize)) {
        HELD.with(|h| h.borrow_mut().push(key));
    }

    pub fn release(key: (usize, usize)) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(at) = held.iter().rposition(|&k| k == key) {
                held.remove(at);
            }
        });
    }
}

impl DeviceState {
    /// Allocate real buffers for a materialized problem.
    pub fn for_problem(problem: &Problem, cfg: &GcnConfig) -> Self {
        let real = problem.real.as_ref().expect("DeviceState needs a materialized problem");
        let layers = cfg.layers();
        let max_d = cfg.max_dim();
        let max_rows = problem.max_rows();
        let gpus = (0..problem.parts)
            .map(|i| {
                let n_i = problem.rows_of(i);
                GpuState {
                    x: real.features[i].clone(),
                    // All big buffers are sized for the widest layer and
                    // re-viewed per use (paper: buffer sizes "on average
                    // n × d"); the backward pass stores a width-d(l) input
                    // gradient in a buffer that held a width-d(l+1) output.
                    ahw: (0..layers).map(|_| Dense::zeros(n_i, max_d)).collect(),
                    hw: Dense::zeros(n_i, max_d),
                    bc1: Dense::zeros(max_rows, max_d),
                    bc2: Dense::zeros(max_rows, max_d),
                    rp: Dense::zeros(0, 0),
                    sf: (0..layers).map(|_| Dense::zeros(0, 0)).collect(),
                    // All GPUs seed identically: replicated weights agree.
                    weights: (0..layers)
                        .map(|l| {
                            init::glorot_seeded(cfg.d_in(l), cfg.d_out(l), cfg.seed + l as u64)
                        })
                        .collect(),
                    wgrad: (0..layers).map(|l| Dense::zeros(cfg.d_in(l), cfg.d_out(l))).collect(),
                    adam_m: (0..layers).map(|l| Dense::zeros(cfg.d_in(l), cfg.d_out(l))).collect(),
                    adam_v: (0..layers).map(|l| Dense::zeros(cfg.d_in(l), cfg.d_out(l))).collect(),
                    labels: real.labels[i].clone(),
                    train_mask: real.train_mask[i].clone(),
                    test_mask: real.test_mask[i].clone(),
                    loss: LossStats::default(),
                    epoch_stats: Vec::new(),
                    index: i,
                    recorder: None,
                }
            })
            .map(Mutex::new)
            .collect();
        Self {
            gpus,
            epoch: AtomicU64::new(0),
            staging: Mutex::new(Vec::new()),
            staging_len: max_rows * max_d,
        }
    }

    /// Number of virtual GPUs.
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Epochs trained so far (the next Adam step is `epoch() + 1`).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    pub(crate) fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// Lock GPU `i`'s memory. Recovers from poisoning: after a worker
    /// panic the executor reports an error and the trainer restores from
    /// a checkpoint, so the (possibly half-written) state stays readable.
    ///
    /// Debug builds assert the documented lock discipline: a thread may
    /// acquire GPU `i` only while every GPU it already holds has a smaller
    /// index (collective bodies lock ascending; kernel bodies hold one).
    /// A descending acquisition is the deadlock-prone pattern the threaded
    /// backend must never reach, so it trips immediately rather than
    /// hanging intermittently under `mggcn-exec`.
    pub fn gpu(&self, i: usize) -> GpuGuard<'_> {
        let key = (self as *const Self as usize, i);
        #[cfg(debug_assertions)]
        lock_order::check_acquire(key);
        let inner = self.gpus[i].lock().unwrap_or_else(|e| e.into_inner());
        #[cfg(debug_assertions)]
        lock_order::push(key);
        GpuGuard { inner, key }
    }

    /// Attach a shadow effect recorder to every GPU: instrumented buffer
    /// accessors start reporting reads/writes to it. Observation-only —
    /// numerics are untouched.
    pub fn attach_recorder(&self, rec: &Arc<EffectRecorder>) {
        for i in 0..self.gpus.len() {
            self.gpu(i).recorder = Some(Arc::clone(rec));
        }
    }

    /// Detach the shadow recorder; accessor notes become no-ops again.
    pub fn detach_recorder(&self) {
        for i in 0..self.gpus.len() {
            self.gpu(i).recorder = None;
        }
    }

    /// An empty state for timing-only runs (bodies are never attached).
    pub fn empty() -> Self {
        Self {
            gpus: Vec::new(),
            epoch: AtomicU64::new(0),
            staging: Mutex::new(Vec::new()),
            staging_len: 0,
        }
    }

    /// A host copy of the first `rows × cols` of the buffer `read` selects on
    /// GPU `g`, made under `g`'s lock alone: how a collective body carries
    /// one GPU's data to another without holding both. Give it back with
    /// [`DeviceState::unstage`].
    pub fn stage(
        &self,
        g: usize,
        read: impl Fn(&GpuState) -> &Dense,
        rows: usize,
        cols: usize,
    ) -> Dense {
        // Every update leaves the list valid.
        let free = self.staging.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let mut copy = free.unwrap_or_else(|| Dense::zeros(1, self.staging_len));
        copy.resize(rows, cols);
        copy.as_mut_slice().copy_from_slice(&read(&self.gpu(g)).as_slice()[..rows * cols]);
        copy
    }

    /// Return a [`DeviceState::stage`] buffer for the next collective.
    pub fn unstage(&self, copy: Dense) {
        self.staging.lock().unwrap_or_else(|e| e.into_inner()).push(copy);
    }

    /// Broadcast `rows × cols` from `src`'s buffer selected by `read` into
    /// the `slot` broadcast buffer of every GPU in `members` (including the
    /// root's own — NCCL roots read their send buffer through the
    /// collective too). `members` is the whole machine under 1D and one
    /// replication group under 1.5D; GPUs outside it keep whatever their
    /// `slot` buffer held.
    pub fn broadcast_into_bc(
        &self,
        src: usize,
        read: impl Fn(&GpuState) -> &Dense,
        rows: usize,
        cols: usize,
        slot: BcSlot,
        members: &[usize],
    ) {
        debug_assert!(members.contains(&src), "broadcast root outside its group");
        // One GPU locked at a time: holding the root while locking a member
        // could deadlock against `all_reduce_wgrad`'s ascending sweep. The
        // root's own `slot` buffer is the send copy — filled under the
        // root's lock, carried unlocked to the other members (the broadcast
        // declares the write, so nothing else touches it meanwhile), then
        // put back. No buffer is allocated and the root's tile is copied once.
        let sent = {
            let mut g = self.gpu(src);
            let mut bc = std::mem::take(g.bc(slot));
            bc.resize(rows, cols);
            bc.as_mut_slice().copy_from_slice(&read(&g).as_slice()[..rows * cols]);
            bc
        };
        for &i in members {
            let mut g = self.gpu(i);
            // The copy may land byte-identical data (re-broadcast of an
            // unchanged source), invisible to the oracle's fingerprint
            // diff — note the write explicitly.
            g.note_write(BufId::new(i, slot.buf_name()));
            if i != src {
                let bc = g.bc(slot);
                bc.resize(rows, cols);
                bc.as_mut_slice().copy_from_slice(sent.as_slice());
            }
        }
        *self.gpu(src).bc(slot) = sent;
    }

    /// All-reduce (sum) the layer-`l` weight gradients across GPUs, fixed
    /// order for bit reproducibility.
    pub fn all_reduce_wgrad(&self, l: usize) {
        // All participants are quiescent (collective rendezvous), so all
        // guards can be held at once; ascending order fixes the reduce
        // order for bit reproducibility.
        let mut guards: Vec<GpuGuard<'_>> = (0..self.gpus.len()).map(|i| self.gpu(i)).collect();
        for (i, g) in guards.iter().enumerate() {
            // RMW: every participant's gradient is consumed and replaced;
            // at P=1 (or an all-zero sum) the bytes may not change, so the
            // fingerprint diff alone would miss the write.
            g.note_read(BufId::indexed(i, "WG", l));
            g.note_write(BufId::indexed(i, "WG", l));
        }
        // Summed into GPU 0's gradient, peer after peer, and copied back out.
        let mut grads: Vec<&mut [f32]> =
            guards.iter_mut().map(|g| g.wgrad[l].as_mut_slice()).collect();
        mggcn_comm::all_reduce_sum(&mut grads);
    }

    /// Allocated bytes of GPU `i`'s big buffers (the `AHW` set plus `HW`,
    /// `BC1`, `BC2`, and under 1.5D the `RP` replica), by backing-store
    /// capacity — the quantity memplan's `MemoryPlan::big_buffers` budgets
    /// with `(L+3)·n_p·d·4` (1D; `RP` has zero capacity then) or
    /// `(L+4)·n_p·d·4` (1.5D). Weights/optimizer state are excluded, as in
    /// the plan's own split.
    pub fn big_buffer_bytes(&self, i: usize) -> u64 {
        let g = self.gpu(i);
        let ahw: usize = g.ahw.iter().map(Dense::capacity_bytes).sum();
        let sf: usize = g.sf.iter().map(Dense::capacity_bytes).sum();
        (ahw + sf
            + g.hw.capacity_bytes()
            + g.bc1.capacity_bytes()
            + g.bc2.capacity_bytes()
            + g.rp.capacity_bytes()) as u64
    }

    /// Reset per-epoch scratch counters.
    pub fn reset_scratch(&self) {
        for i in 0..self.gpus.len() {
            let mut g = self.gpu(i);
            g.loss = LossStats::default();
            g.epoch_stats.clear();
        }
    }

    /// Aggregate loss across GPUs.
    pub fn total_loss(&self) -> f64 {
        (0..self.gpus.len()).map(|i| self.gpu(i).loss.loss_sum).sum()
    }

    /// Aggregate train/test accuracy across GPUs.
    pub fn accuracy(&self) -> (f64, f64) {
        let mut all = LossStats::default();
        (0..self.gpus.len()).for_each(|i| all.absorb(&self.gpu(i).loss));
        all.accuracy()
    }

    /// The `i`-th epoch of the last run, summed across GPUs (GPU order):
    /// what its loss bodies left in `epoch_stats`.
    pub fn epoch_totals(&self, i: usize) -> LossStats {
        let mut all = LossStats::default();
        for g in 0..self.gpus.len() {
            if let Some(stats) = self.gpu(g).epoch_stats.get(i) {
                all.absorb(stats);
            }
        }
        all
    }

    /// FNV-1a digest over every GPU's weight bits (shapes included) — the
    /// model checker's notion of "final model state". Bit-identical
    /// weights across linearizations ⟺ equal digests.
    pub fn weights_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut mix = |bytes: &[u8]| h = fnv1a_from(h, bytes);
        for i in 0..self.gpus.len() {
            let g = self.gpu(i);
            for w in &g.weights {
                mix(&(w.rows() as u64).to_le_bytes());
                mix(&(w.cols() as u64).to_le_bytes());
                for v in w.as_slice() {
                    mix(&v.to_bits().to_le_bytes());
                }
            }
        }
        h
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Continue an FNV-1a digest over `bytes`. Every step is a bijection of the
/// state, so two inputs of equal length that differ in one byte never
/// collide.
fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// FNV-1a digest of `bytes`.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainOptions;
    use mggcn_graph::generators::sbm::{self, SbmConfig};

    fn setup(gpus: usize) -> (Problem, GcnConfig) {
        let g = sbm::generate(&SbmConfig::community_benchmark(90, 3), 2);
        let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
        let opts = TrainOptions::quick(gpus);
        (Problem::from_graph(&g, &cfg, &opts), cfg)
    }

    #[test]
    fn buffer_count_is_l_plus_3() {
        let (p, cfg) = setup(2);
        let st = DeviceState::for_problem(&p, &cfg);
        // L AHW buffers + HW + BC1 + BC2 per GPU.
        assert_eq!(st.gpu(0).ahw.len(), cfg.layers());
        // The shared buffers exist exactly once each; together: L + 3.
    }

    #[test]
    fn weights_replicated_identically() {
        let (p, cfg) = setup(3);
        let st = DeviceState::for_problem(&p, &cfg);
        for l in 0..cfg.layers() {
            assert_eq!(st.gpu(0).weights[l], st.gpu(1).weights[l]);
            assert_eq!(st.gpu(1).weights[l], st.gpu(2).weights[l]);
        }
    }

    #[test]
    fn broadcast_into_bc_copies_prefix() {
        let (p, cfg) = setup(2);
        let st = DeviceState::for_problem(&p, &cfg);
        let rows = 5;
        let cols = st.gpu(1).x.cols();
        st.broadcast_into_bc(1, |g| &g.x, rows, cols, BcSlot::Bc1, &[0, 1]);
        let expect = st.gpu(1).x.as_slice()[..rows * cols].to_vec();
        for i in 0..st.gpu_count() {
            let g = st.gpu(i);
            assert_eq!(g.bc1.as_slice(), &expect[..]);
            assert_eq!((g.bc1.rows(), g.bc1.cols()), (rows, cols));
        }
    }

    #[test]
    fn all_reduce_wgrad_sums_and_replicates() {
        let (p, cfg) = setup(2);
        let st = DeviceState::for_problem(&p, &cfg);
        st.gpu(0).wgrad[0].as_mut_slice()[0] = 1.5;
        st.gpu(1).wgrad[0].as_mut_slice()[0] = 2.5;
        st.all_reduce_wgrad(0);
        assert_eq!(st.gpu(0).wgrad[0].as_slice()[0], 4.0);
        assert_eq!(st.gpu(1).wgrad[0].as_slice()[0], 4.0);
    }

    #[test]
    fn bc_slot_parity() {
        assert_eq!(BcSlot::for_stage(0), BcSlot::Bc1);
        assert_eq!(BcSlot::for_stage(1), BcSlot::Bc2);
        assert_eq!(BcSlot::for_stage(4), BcSlot::Bc1);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn descending_lock_acquisition_trips_the_debug_assertion() {
        let (p, cfg) = setup(2);
        let st = DeviceState::for_problem(&p, &cfg);
        // Ascending (and re-entrant-free) acquisition is fine...
        {
            let _a = st.gpu(0);
            let _b = st.gpu(1);
        }
        // ...but descending is the deadlock pattern and must assert. The
        // check fires before GPU 0's mutex is touched, so no lock is
        // poisoned by the unwind.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _hi = st.gpu(1);
            let _lo = st.gpu(0);
        }))
        .expect_err("descending acquisition must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("lock order violation"), "unexpected panic: {msg}");
        // The held-stack unwound cleanly: ordinary locking still works.
        let _ok = st.gpu(0);
        drop(_ok);
        // The discipline is per state instance: holding a GPU of one
        // state while locking the same (or a lower) index of an
        // unrelated state is not a deadlock pattern and must pass —
        // the differential harness compares two trainers exactly so.
        let other = DeviceState::for_problem(&p, &cfg);
        let _mine = st.gpu(1);
        let _theirs = other.gpu(0);
    }

    #[test]
    fn weights_digest_tracks_weight_bits() {
        let (p, cfg) = setup(2);
        let st = DeviceState::for_problem(&p, &cfg);
        let before = st.weights_digest();
        assert_eq!(before, DeviceState::for_problem(&p, &cfg).weights_digest());
        st.gpu(1).weights[0].as_mut_slice()[0] += 1.0;
        assert_ne!(before, st.weights_digest());
    }

    #[test]
    fn recorder_attaches_and_observes_collective_notes() {
        let (p, cfg) = setup(2);
        let st = DeviceState::for_problem(&p, &cfg);
        let rec = EffectRecorder::new(1);
        st.attach_recorder(&rec);
        rec.begin(0);
        st.all_reduce_wgrad(0);
        rec.end();
        st.detach_recorder();
        let log = rec.take_log();
        for g in 0..2 {
            assert!(log[0].writes.contains(&BufId::indexed(g, "WG", 0)));
            assert!(log[0].reads.contains(&BufId::indexed(g, "WG", 0)));
        }
        // Detached: notes no longer accumulate anywhere.
        st.all_reduce_wgrad(0);
    }
}
