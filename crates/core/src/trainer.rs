//! The MG-GCN trainer: schedule construction and the epoch loop.
//!
//! One training epoch is issued exactly as §4 describes:
//!
//! * **Forward, per layer** (eqs. 5–7): a local GeMM (`HW = H·W`), then the
//!   staged distributed SpMM — `P` rounds, round `s` broadcasting GPU `s`'s
//!   tile of the dense operand into the double-buffered `BC1`/`BC2` and
//!   every GPU `j` accumulating `A^{js}·BC` into its result — then ReLU in
//!   place. When `d(l) < d(l+1)` and the §4.4 flag is set, the SpMM runs
//!   first on the narrower operand.
//! * **Loss** (§6 Model): masked softmax cross-entropy, gradient written
//!   over the logits in the last `AHW` buffer.
//! * **Backward, per layer** (eqs. 8–11): ReLU backward merging the
//!   incoming gradient over the saved activation, a staged SpMM with `Â`,
//!   the weight-gradient GeMM, a gradient all-reduce, the input-gradient
//!   GeMM, and Adam. Layer 0's backward SpMM is skipped under the §4.4
//!   flag.
//!
//! The builder states each op's buffer effects and nothing else: every
//! wait edge is inferred from them at record time (`mggcn_gpusim::deps`).
//! With `overlap` on, broadcasts live on stream 1 and the paper's §4.3
//! dependency pattern falls out of the declarations — `spmm(s)` reads the
//! slot `bcast(s)` writes, and `bcast(s)` overwrites the slot `spmm(s-2)`
//! read on every GPU. 1D, 1.5D and the bounded-staleness prefetch are one
//! staged SpMM over a replication-group `Layout`.
//!
//! A classic epoch's schedule is a function of (config, options, problem) —
//! Adam's step is read from the device state at run time — so the trainer
//! compiles it into an [`EpochPlan`] once and runs that plan every epoch.

use crate::config::{GcnConfig, Partition, TrainOptions};
use crate::loss::{softmax_xent_inplace, LossStats};
use crate::memplan::MemoryPlan;
use crate::metrics::{EpochReport, MeasuredEpoch};
use crate::optimizer::{adam_step, AdamParams};
use crate::problem::{Problem, RealData};
use crate::state::{BcSlot, DeviceState, GpuState};
use mggcn_dense::{gemm, gemm_a_bt, gemm_at_b, relu_inplace, Accumulate, Dense};
use mggcn_exec::{Backend, ExecError, ExecReport};
use mggcn_gpusim::engine::{Body, EpochPlan, OpDesc};
use mggcn_gpusim::{
    spmm_first, BufId, Category, Effects, OomError, RunReport, Schedule, StaleRead, Work,
};
use mggcn_sparse::{spmm, Csr};
use std::sync::Arc;

/// Training failed at runtime (only possible on [`Backend::Threaded`],
/// where a worker's kernel body may panic; the simulated backend runs
/// bodies on the calling thread and propagates panics directly).
#[derive(Clone, Debug)]
pub enum TrainError {
    /// A worker thread panicked while executing an op body. The trainer's
    /// device state may be partially written; restore from a checkpoint
    /// before continuing.
    Exec(mggcn_exec::ExecError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Exec(e) => write!(f, "threaded execution failed: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Which logical buffer a schedule step reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Buf {
    /// The input feature shard.
    X,
    /// The shared GeMM↔SpMM temporary.
    Hw,
    /// Layer `l`'s result buffer.
    Ahw(usize),
    /// The 1.5D replicated-partial buffer.
    Rp,
}

fn read_buf(g: &GpuState, b: Buf) -> &Dense {
    g.note_read(buf_id(g.index(), b));
    match b {
        Buf::X => &g.x,
        Buf::Hw => &g.hw,
        Buf::Ahw(l) => &g.ahw[l],
        Buf::Rp => &g.rp,
    }
}

/// The buffer a kernel body writes (never the input features).
fn buf_mut(g: &mut GpuState, b: Buf) -> &mut Dense {
    match b {
        Buf::X => unreachable!("X is read-only during training"),
        Buf::Hw => &mut g.hw,
        Buf::Ahw(l) => &mut g.ahw[l],
        Buf::Rp => &mut g.rp,
    }
}

/// The logical-buffer id a [`Buf`] denotes on GPU `g`, for the declared
/// effect sets `mggcn-analyze` verifies. Names match §4.2's inventory.
fn buf_id(g: usize, b: Buf) -> BufId {
    match b {
        Buf::X => BufId::new(g, "X"),
        Buf::Hw => BufId::new(g, "HW"),
        Buf::Ahw(l) => BufId::indexed(g, "AHW", l),
        Buf::Rp => BufId::new(g, "RP"),
    }
}

/// The broadcast double buffer `slot` selects on GPU `g`.
fn bc_id(g: usize, slot: BcSlot) -> BufId {
    BufId::new(g, slot.buf_name())
}

/// Layer `l`'s bounded-staleness snapshot buffer on GPU `g` (DESIGN §15).
fn sf_id(g: usize, l: usize) -> BufId {
    BufId::indexed(g, "SF", l)
}

/// Layer `l`'s weights on GPU `g`.
fn w_id(g: usize, l: usize) -> BufId {
    BufId::indexed(g, "W", l)
}

/// Layer `l`'s weight-gradient buffer on GPU `g`.
fn wg_id(g: usize, l: usize) -> BufId {
    BufId::indexed(g, "WG", l)
}

/// Layer `l`'s Adam moment state on GPU `g`.
fn adam_id(g: usize, l: usize) -> BufId {
    BufId::indexed(g, "ADAM", l)
}

/// SpMM direction: forward uses `Âᵀ` tiles, backward `Â` tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Fwd,
    Bwd,
}

/// Adjacency tile `(row, s)` of the `p × p` grid in direction `dir`.
fn tile(rc: &RealData, dir: Dir, p: usize, row: usize, s: usize) -> &Csr {
    match dir {
        Dir::Fwd => &rc.fwd_tiles[row * p + s],
        Dir::Bwd => &rc.bwd_tiles[row * p + s],
    }
}

/// A bounded-staleness forward broadcast (DESIGN §15): instead of the live
/// layer input it sends `snapshot = (layer, age)` — that layer's `SF`
/// buffer, `age` epochs stale — or, with no snapshot, the constant input
/// features `X`, which are exact at any age. Reading nothing the current
/// epoch writes is exactly what lets the engine issue the broadcast during
/// the previous epoch's backward pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Prefetch {
    snapshot: Option<(usize, usize)>,
}

/// Number of per-GPU snapshot (`SF`) big buffers a bounded-staleness run
/// needs: one per layer whose broadcast source is not the constant input
/// features (layer 0 under the §4.4 spmm-first order broadcasts `X`
/// itself, which never goes stale). Zero when `staleness == 0` — the
/// memory plan and the `L + 3` liveness bound are untouched.
pub fn sf_buffer_count(cfg: &GcnConfig, opts: &TrainOptions) -> usize {
    if opts.staleness == 0 {
        return 0;
    }
    (0..cfg.layers()).filter(|&l| needs_sf(cfg, opts, l)).count()
}

/// Whether layer `l`'s forward broadcast needs an `SF` snapshot to go
/// stale (layer 0 under spmm-first broadcasts the constant `X`).
fn needs_sf(cfg: &GcnConfig, opts: &TrainOptions, l: usize) -> bool {
    !(l == 0 && opts.op_order_opt && spmm_first(cfg.d_in(0), cfg.d_out(0)))
}

/// The MG-GCN multi-GPU trainer.
pub struct Trainer {
    cfg: GcnConfig,
    opts: TrainOptions,
    problem: Problem,
    state: DeviceState,
    /// Epoch of the most recent `SF` snapshot, `None` until one exists
    /// (fresh trainer, or right after a checkpoint restore — snapshots are
    /// scratch, not checkpointed, so the first post-restore epoch trains
    /// fully fresh). Only meaningful when `opts.staleness >= 1`.
    sf_epoch: Option<usize>,
    plan: MemoryPlan,
    /// The classic training epoch, compiled on first use and run by every
    /// `train`/`train_epoch` since; `classic_compiles` counts the compiles.
    classic: Option<EpochPlan<DeviceState>>,
    classic_compiles: usize,
    /// Observation-only tracer; `None` (the default) records nothing and
    /// costs nothing. Ingestion happens strictly after a schedule has run,
    /// so enabling it cannot perturb numerics or op ordering.
    tracer: Option<Arc<mggcn_trace::Tracer>>,
}

impl Trainer {
    /// Validate memory, allocate device state (when the problem is
    /// materialized), and get ready to train.
    pub fn new(problem: Problem, cfg: GcnConfig, opts: TrainOptions) -> Result<Self, OomError> {
        let m_total: u64 = problem.fwd_nnz.iter().sum();
        let plan_for = match opts.partition {
            Partition::OneD => MemoryPlan::new,
            Partition::OneFiveD => {
                assert!(
                    opts.gpus >= 2 && opts.gpus.is_multiple_of(2),
                    "1.5D partitioning needs an even GPU count >= 2, got {}",
                    opts.gpus
                );
                MemoryPlan::new_15d
            }
        };
        let plan = plan_for(problem.n as u64, m_total, &cfg, opts.gpus as u64, opts.buffer_policy);
        let plan = if opts.staleness > 0 {
            let sf = sf_buffer_count(&cfg, &opts) as u64;
            plan.with_staleness(problem.n as u64, opts.gpus as u64, &cfg, sf)
        } else {
            plan
        };
        let capacity = opts.machine.gpus[0].mem_bytes;
        if !plan.fits(capacity) {
            return Err(OomError {
                gpu: 0,
                requested: plan.total(),
                in_use: 0,
                capacity,
                tag: format!("{} epoch working set", problem.name),
            });
        }
        let state = if problem.is_materialized() {
            DeviceState::for_problem(&problem, &cfg)
        } else {
            DeviceState::empty()
        };
        Ok(Self {
            cfg,
            opts,
            problem,
            state,
            sf_epoch: None,
            plan,
            classic: None,
            classic_compiles: 0,
            tracer: None,
        })
    }

    /// Attach a tracer. Every subsequent epoch/evaluation ingests its
    /// simulated timeline, measured wall spans (threaded backend), and
    /// per-GPU big-buffer high-watermarks into it.
    pub fn set_tracer(&mut self, tracer: Arc<mggcn_trace::Tracer>) {
        tracer.set_memory_bound(self.plan.big_buffers);
        self.tracer = Some(tracer);
    }

    /// Planned per-GPU memory (bytes) — the Fig 12 quantity.
    pub fn memory_per_gpu(&self) -> u64 {
        self.plan.total()
    }

    /// The analytic per-GPU memory plan this trainer was admitted under.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    pub fn options(&self) -> &TrainOptions {
        &self.opts
    }

    pub fn config(&self) -> &GcnConfig {
        &self.cfg
    }

    pub fn state(&self) -> &DeviceState {
        &self.state
    }

    /// Number of epochs trained so far.
    pub fn epochs_trained(&self) -> usize {
        self.state.epoch() as usize
    }

    /// How many times the classic epoch plan was compiled (at most once).
    #[doc(hidden)]
    pub fn classic_plan_compiles(&self) -> usize {
        self.classic_compiles
    }

    /// Restore weights, Adam moments and the epoch counter from a
    /// checkpoint. Every GPU replica receives the same state, preserving
    /// the lockstep invariant. Errors on shape mismatch, leaving the
    /// trainer untouched.
    pub fn restore(&mut self, ck: &crate::checkpoint::Checkpoint) -> Result<(), String> {
        ck.check_shapes(&self.cfg)?;
        for i in 0..self.state.gpu_count() {
            let g = &mut *self.state.gpu(i);
            let dst = g.weights.iter_mut().chain(&mut g.adam_m).chain(&mut g.adam_v);
            for (d, s) in dst.zip(ck.weights.iter().chain(&ck.adam_m).chain(&ck.adam_v)) {
                d.as_mut_slice().copy_from_slice(s.as_slice());
            }
        }
        self.state.set_epoch(ck.epoch);
        self.sf_epoch = None;
        Ok(())
    }

    /// One full-batch epoch: [`Trainer::train`]`(1)`. Under `--staleness` a
    /// one-epoch pipelined schedule, numerically identical to the fused build
    /// (ages and cadence follow the absolute epoch counter; `SF` persists).
    pub fn train_epoch(&mut self) -> Result<EpochReport, TrainError> {
        self.train(1).map(|mut v| v.pop().expect("one epoch"))
    }

    /// Run `plan` `runs` times on the configured backend — threaded, on one
    /// set of workers that stay parked in between, which verifies the plan
    /// before its first run. The per-epoch scratch is reset before each run;
    /// after it `each` gets the run's own copy of the simulated report, reads
    /// the results off the device state and may advance the epoch counter.
    fn run_plan<T>(
        &self,
        plan: &EpochPlan<DeviceState>,
        runs: usize,
        mut each: impl FnMut(RunReport, Option<MeasuredEpoch>) -> T,
    ) -> Result<Vec<T>, TrainError> {
        let mut drive = |run: &mut dyn FnMut() -> Result<Option<ExecReport>, ExecError>| {
            let mut out = Vec::with_capacity(runs);
            for _ in 0..runs {
                self.state.reset_scratch();
                let (sim, measured) = match run()? {
                    Some(r) => {
                        if let Some(tracer) = &self.tracer {
                            tracer.ingest_wall_spans(&r.spans, r.wall_seconds);
                        }
                        let measured = MeasuredEpoch::from(&r);
                        (r.sim, Some(measured))
                    }
                    None => (plan.sim().report.clone(), None),
                };
                if let Some(tracer) = &self.tracer {
                    tracer.ingest_sim_timeline_on(&sim.timeline, sim.makespan, &self.opts.machine);
                    for g in 0..self.state.gpu_count() {
                        tracer.record_memory(g, self.state.big_buffer_bytes(g));
                    }
                }
                out.push(each(sim, measured));
            }
            Ok(out)
        };
        let state = &self.state;
        match self.opts.backend {
            Backend::Simulated => drive(&mut || {
                plan.run(state);
                Ok(None)
            }),
            Backend::Threaded => {
                mggcn_exec::with_workers(plan, state, |run| drive(&mut || run().map(Some)))
                    .and_then(|reports| reports)
            }
        }
        .map_err(TrainError::Exec)
    }

    /// Train `epochs` epochs, returning every report. With
    /// `--staleness >= 1` all epochs are recorded into ONE fused,
    /// epoch-tagged schedule so epoch `e + 1`'s prefetch broadcasts really
    /// issue during epoch `e`'s backward pass (DESIGN §15).
    ///
    /// On [`Backend::Simulated`] this cannot fail. On
    /// [`Backend::Threaded`] the plan really executes on worker-per-GPU
    /// threads that live for the whole call; a panicking kernel body
    /// surfaces as [`TrainError::Exec`] (never a hang), and every report
    /// carries the measured wall-clock profile in [`EpochReport::measured`].
    pub fn train(&mut self, epochs: usize) -> Result<Vec<EpochReport>, TrainError> {
        if epochs == 0 {
            return Ok(Vec::new());
        }
        if self.opts.staleness > 0 {
            return self.train_pipelined(epochs);
        }
        if self.classic.is_none() {
            self.classic = Some(self.epoch_schedule().compile());
            self.classic_compiles += 1;
        }
        let plan = self.classic.as_ref().expect("compiled above");
        self.run_plan(plan, epochs, |run, measured| {
            let report = self.reports(run, measured, 1).pop().expect("one epoch");
            self.state.set_epoch(self.state.epoch() + 1);
            report
        })
    }

    /// Record `epochs` consecutive training epochs into one fused schedule
    /// (DESIGN §15): every op carries its epoch tag, remote forward
    /// broadcasts read the bounded-staleness `SF` snapshots, and prefetch
    /// broadcasts ride a dedicated stream past the comm lane. Returns the
    /// schedule plus the epoch of the last snapshot taken (the trainer's
    /// `sf_epoch` after a run).
    fn build_pipelined(&self, epochs: usize) -> (Schedule<DeviceState>, Option<usize>) {
        let k = self.opts.staleness;
        assert!(k >= 1, "pipelined schedules need staleness >= 1");
        assert!(epochs >= 1, "pipelined schedules need at least one epoch");
        let mut b = EpochBuilder::new(&self.cfg, &self.opts, &self.problem);
        let mut last_snap = self.sf_epoch;
        let base = self.epochs_trained();
        for e in base..base + epochs {
            // Snapshot cadence: refresh `SF` whenever the current snapshot
            // would otherwise exceed age `k`, so every stale read has age
            // in `1..=k`. The very first epoch (no snapshot yet) trains
            // fully fresh and seeds `SF`.
            let sf_age = last_snap.map(|s| e - s);
            let snap = last_snap.is_none_or(|s| e - s >= k);
            b.begin_epoch(e, e - base, sf_age, snap);
            b.forward();
            b.loss();
            b.backward(true);
            if snap {
                last_snap = Some(e);
            }
        }
        (b.sched, last_snap)
    }

    /// A fused `epochs`-epoch bounded-staleness schedule, recorded but not
    /// run — the epoch-tagged input `mggcn-analyze` verifies (every stale
    /// read declared with its true age) and the conformance suites mutate.
    /// Requires `staleness >= 1`.
    pub fn pipelined_schedule(&self, epochs: usize) -> Schedule<DeviceState> {
        self.build_pipelined(epochs).0
    }

    /// Run a fused bounded-staleness schedule of `epochs` epochs.
    fn train_pipelined(&mut self, epochs: usize) -> Result<Vec<EpochReport>, TrainError> {
        let (sched, sf_epoch) = self.build_pipelined(epochs);
        let reports = self.run_once(sched, |run, measured| self.reports(run, measured, epochs))?;
        self.sf_epoch = sf_epoch;
        self.state.set_epoch(self.state.epoch() + epochs as u64);
        Ok(reports)
    }

    /// Compile `sched` and run it once, uncached.
    fn run_once<T>(
        &self,
        sched: Schedule<DeviceState>,
        each: impl FnMut(RunReport, Option<MeasuredEpoch>) -> T,
    ) -> Result<T, TrainError> {
        Ok(self.run_plan(&sched.compile(), 1, each)?.pop().expect("one run"))
    }

    /// Reports of the run that just ended: the `epochs` epochs from the
    /// epoch counter on.
    fn reports(
        &self,
        run: RunReport,
        measured: Option<MeasuredEpoch>,
        epochs: usize,
    ) -> Vec<EpochReport> {
        let totals: Vec<LossStats> = (0..epochs).map(|i| self.state.epoch_totals(i)).collect();
        let overhead = self.opts.epoch_host_overhead;
        EpochReport::of_run(run, measured, self.epochs_trained(), &totals, overhead)
    }

    /// Forward pass + loss only — inference. Weights are untouched (the
    /// loss kernel overwrites the logits buffer with gradients, but no
    /// backward step consumes them). Reports loss/accuracy and the
    /// simulated inference time; does not advance the epoch counter.
    pub fn evaluate(&mut self) -> Result<EpochReport, TrainError> {
        let report = |run, measured| self.reports(run, measured, 1).pop();
        Ok(self.run_once(self.schedule(None), report)?.expect("one epoch"))
    }

    /// Run forward + loss + backward (all-reduce included, Adam excluded)
    /// and return the per-layer weight gradients from GPU 0's replica.
    /// Weights, Adam moments and the epoch counter are untouched, so this
    /// is the conformance hook for differential gradient checking: the
    /// result is exactly the global gradient `Σ_g X_gᵀ·HW_G` the next Adam
    /// step would consume. Panics on a timing-only (non-materialized)
    /// problem, and — on the threaded backend — if the gradient schedule
    /// fails verification or a worker fails. Nothing reaches the tracer: a
    /// gradient probe is not an epoch.
    pub fn compute_gradients(&mut self) -> Vec<Dense> {
        assert!(self.problem.is_materialized(), "compute_gradients needs a materialized problem");
        let tracer = self.tracer.take();
        let run = self.run_once(self.schedule(Some(false)), |_, _| ());
        self.tracer = tracer;
        run.expect("gradient schedule failed verification or a worker failed");
        self.state.gpu(0).wgrad.clone()
    }

    /// One training epoch's schedule, fully recorded but not run — the
    /// input `mggcn-analyze` verifies (hazards, deadlock-freedom, the
    /// `L + 3` liveness bound), the mutation harness perturbs, and (via
    /// `dump_ops`) the golden snapshots pin.
    pub fn epoch_schedule(&self) -> Schedule<DeviceState> {
        self.schedule(Some(true))
    }

    /// Record forward + loss and, with `backward: Some(with_adam)`, the
    /// backward pass.
    fn schedule(&self, backward: Option<bool>) -> Schedule<DeviceState> {
        let mut b = EpochBuilder::new(&self.cfg, &self.opts, &self.problem);
        b.forward();
        b.loss();
        if let Some(with_adam) = backward {
            b.backward(with_adam);
        }
        b.sched
    }

    /// Run `sched`'s bodies against a *fresh* device state under the
    /// shadow effect recorder and return what each op actually read and
    /// wrote (`crate::shadow`) — the effect-soundness oracle's input. The
    /// trainer's own state is untouched, so auditing is side-effect free.
    /// Panics on a timing-only (non-materialized) problem, whose schedules
    /// carry no bodies to observe.
    pub fn record_actual_effects(
        &self,
        sched: Schedule<DeviceState>,
    ) -> Vec<mggcn_gpusim::shadow::ActualEffects> {
        assert!(
            self.problem.is_materialized(),
            "effect audit needs a materialized problem (bodies to observe)"
        );
        crate::shadow::record_actual_effects(sched, &self.problem, &self.cfg)
    }

    /// Execute one epoch schedule's bodies in an explicit linearization
    /// `order` against a fresh, identically-seeded device state and digest
    /// the resulting weight bits — the DPOR model checker's execution
    /// oracle. `mutate` edits the rebuilt schedule first (the mutation
    /// harness deletes a wait edge through it); pass `|_| {}` for the
    /// as-declared schedule. The trainer's own state is untouched.
    pub fn linearization_digest(
        &self,
        mutate: impl FnOnce(&mut Schedule<DeviceState>),
        order: &[mggcn_gpusim::OpId],
    ) -> u64 {
        assert!(
            self.problem.is_materialized(),
            "model checking needs a materialized problem (bodies to execute)"
        );
        let mut sched = self.epoch_schedule();
        mutate(&mut sched);
        let fresh = DeviceState::for_problem(&self.problem, &self.cfg);
        fresh.set_epoch(self.state.epoch());
        sched.run_in_order(&fresh, order);
        fresh.weights_digest()
    }

    /// Closed-form per-stage broadcast bytes for **one** training epoch of
    /// this trainer's schedule — the §5.1 prediction a tracer's
    /// `sim.bcast.bytes.stage.*` counters must match exactly (× epochs).
    pub fn expected_broadcast_bytes(&self) -> Vec<u64> {
        let rows: Vec<usize> = (0..self.opts.gpus).map(|s| self.problem.rows_of(s)).collect();
        if self.opts.partition == Partition::OneFiveD && self.opts.gpus == 2 {
            // Singleton replication groups: every intra-group "broadcast" is
            // a one-lane collective, which the engine models as a zero-byte
            // fixed-latency hop — the traced stage counters see no bytes.
            // At P >= 4 each stage is still broadcast exactly once with the
            // same payload as under 1D, so the 1D closed form applies.
            return vec![0; self.opts.gpus];
        }
        mggcn_comm::analysis::epoch_broadcast_bytes(
            &rows,
            &self.cfg.dims,
            self.opts.op_order_opt,
            self.opts.skip_first_backward_spmm,
        )
    }
}

/// Which GPUs share each stage's broadcast in one staged SpMM — the only
/// thing that differs between the paper's §4.1 pipeline and its §5.1 1.5D
/// variant (and what a per-layer layout or schedule search would vary).
struct Layout {
    /// Replication groups. Each broadcasts its members' tiles inside
    /// itself only, one member per round, all groups concurrently.
    groups: Vec<Vec<usize>>,
}

impl Layout {
    fn of(partition: Partition, p: usize) -> Self {
        let groups = match partition {
            Partition::OneD => vec![(0..p).collect()],
            Partition::OneFiveD => vec![(0..p / 2).collect(), (p / 2..p).collect()],
        };
        Self { groups }
    }

    /// With more than one group every stage reaches only half the machine,
    /// so each GPU also folds its mate's partition (into `RP`) and a
    /// pairwise cross-group reduce completes the result.
    fn replicated(&self) -> bool {
        self.groups.len() > 1
    }
}

/// Per-epoch schedule builder. It declares what every op reads and writes
/// and never names a dependency: `Schedule::record` infers each wait edge
/// from the declarations (`mggcn_gpusim::deps`).
struct EpochBuilder<'a> {
    sched: Schedule<DeviceState>,
    cfg: &'a GcnConfig,
    opts: &'a TrainOptions,
    problem: &'a Problem,
    /// Epochs between the run's first epoch and the one being recorded
    /// (0 outside fused builds): its Adam step is the device state's epoch
    /// counter at run time, plus this, plus one.
    epoch_offset: u64,
    /// `Some(e)` while recording epoch `e` of a fused bounded-staleness
    /// schedule (DESIGN §15); `None` for classic single-epoch builds, which
    /// therefore dump, analyze and run bit-identically to every prior
    /// release.
    epoch_tag: Option<usize>,
    /// Age (epochs) of the `SF` snapshot this epoch's remote forward
    /// broadcasts read; `None` means train fully fresh.
    sf_age: Option<usize>,
    /// Whether this epoch refreshes the `SF` snapshots after its forward
    /// reads them.
    snap_this_epoch: bool,
}

impl<'a> EpochBuilder<'a> {
    fn new(cfg: &'a GcnConfig, opts: &'a TrainOptions, problem: &'a Problem) -> Self {
        let mut sched = Schedule::new(opts.machine.clone());
        sched.launch_overhead = opts.launch_overhead;
        Self {
            sched,
            cfg,
            opts,
            problem,
            epoch_offset: 0,
            epoch_tag: None,
            sf_age: None,
            snap_this_epoch: false,
        }
    }

    /// Start recording epoch `epoch` of a fused bounded-staleness schedule.
    /// The recorder's buffer state deliberately persists across epochs: it
    /// carries the cross-epoch ordering that makes every stale read
    /// *declared state* rather than a race.
    fn begin_epoch(&mut self, epoch: usize, offset: usize, sf_age: Option<usize>, snap: bool) {
        self.epoch_offset = offset as u64;
        self.epoch_tag = Some(epoch);
        self.sf_age = sf_age;
        self.snap_this_epoch = snap;
    }

    /// Epoch-tagged [`OpDesc`] (classic builds stay untagged).
    fn desc(&self, category: Category, label: &'static str, stage: Option<usize>) -> OpDesc {
        OpDesc { category, label, stage, epoch: self.epoch_tag }
    }

    /// Record a compute-stream kernel on GPU `g`; its body sees only that
    /// GPU's memory (the lock discipline of [`DeviceState`]). Timing-only
    /// problems carry no data, so their ops carry no bodies.
    fn kernel(
        &mut self,
        g: usize,
        work: Work,
        desc: OpDesc,
        fx: Effects,
        body: impl Fn(&mut GpuState) + Send + Sync + 'static,
    ) {
        let body =
            self.problem.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| body(&mut ctx.gpu(g))) as Body<DeviceState>
            });
        self.sched.record(g, 0, work, desc, fx, body);
    }

    /// Declare the epoch-carried read of `buf` (weights / Adam moments
    /// written by the previous epoch's optimizer) on fused schedules: that
    /// cross-epoch RAW is the intended age-1 pipeline dependency, not a
    /// hazard. Lane FIFO already orders it; the declaration tells
    /// `mggcn-analyze` it is deliberate.
    fn declare_epoch_carry(&self, fx: Effects, buf: BufId) -> Effects {
        if self.epoch_tag.is_some() {
            fx.stale([StaleRead { buf, age: 1 }])
        } else {
            fx
        }
    }

    fn p(&self) -> usize {
        self.opts.gpus
    }

    fn gpu_spec(&self, g: usize) -> &mggcn_gpusim::GpuSpec {
        &self.opts.machine.gpus[g]
    }

    /// Forward pass over all layers.
    fn forward(&mut self) {
        let layers = self.cfg.layers();
        for l in 0..layers {
            let d_in = self.cfg.d_in(l);
            let d_out = self.cfg.d_out(l);
            let input = if l == 0 { Buf::X } else { Buf::Ahw(l - 1) };
            // Bounded-staleness epochs prefetch every forward broadcast:
            // from the layer's SF snapshot when the source can go stale,
            // or straight from the constant X (exact) when it cannot.
            let prefetch = self.sf_age.map(|age| Prefetch {
                snapshot: needs_sf(self.cfg, self.opts, l).then_some((l, age)),
            });

            let (bcast_src, bcast_d) = if self.opts.op_order_opt && spmm_first(d_in, d_out) {
                // AH = Âᵀ·H (width d_in) into HW, then AHW = AH·W.
                self.staged_collective_spmm(Dir::Fwd, input, Buf::Hw, d_in, prefetch);
                self.local_gemm_xw(l, Buf::Hw, Buf::Ahw(l));
                (input, d_in)
            } else {
                // HW = H·W (width d_out) into HW, then AHW = Âᵀ·HW.
                self.local_gemm_xw(l, input, Buf::Hw);
                self.staged_collective_spmm(Dir::Fwd, Buf::Hw, Buf::Ahw(l), d_out, prefetch);
                (Buf::Hw, d_out)
            };
            self.snapshot_source(l, bcast_src, bcast_d);

            if l + 1 < layers {
                self.relu_forward(l);
            }
        }
    }

    /// Refresh layer `l`'s `SF` snapshot from this epoch's live broadcast
    /// source (DESIGN §15) — recorded right after the layer's staged SpMM,
    /// while the source buffer still holds this layer's operand.
    fn snapshot_source(&mut self, l: usize, src: Buf, d: usize) {
        if !(self.snap_this_epoch && needs_sf(self.cfg, self.opts, l)) {
            return;
        }
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            self.kernel(
                g,
                self.opts.cost.elementwise((n_g * d) as u64, 2.0),
                self.desc(Category::Other, "sf-snap", None),
                Effects::none().reads([buf_id(g, src)]).writes([sf_id(g, l)]),
                move |gs| {
                    // A snapshot of an unchanged source is byte-identical;
                    // the oracle's fingerprint diff needs the explicit note.
                    gs.note_write(sf_id(g, l));
                    let mut sf = std::mem::take(&mut gs.sf[l]);
                    sf.resize(n_g, d);
                    sf.as_mut_slice().copy_from_slice(&read_buf(gs, src).as_slice()[..n_g * d]);
                    gs.sf[l] = sf;
                },
            );
        }
    }

    /// Masked softmax cross-entropy over the final logits.
    fn loss(&mut self) {
        let last = self.cfg.layers() - 1;
        let classes = self.cfg.d_out(last);
        let train_count = self.problem.train_count.max(1);
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            self.kernel(
                g,
                self.opts.cost.loss(n_g as u64, classes as u64),
                self.desc(Category::LossLayer, "softmax-xent", None),
                Effects::none().rw(buf_id(g, Buf::Ahw(last))),
                move |gs| {
                    gs.note_read(buf_id(g, Buf::Ahw(last)));
                    let stats = softmax_xent_inplace(
                        &mut gs.ahw[last],
                        &gs.labels,
                        &gs.train_mask,
                        &gs.test_mask,
                        train_count,
                    );
                    gs.loss = stats;
                    // The per-epoch trail reports are read from: one GPU's
                    // loss ops share its compute lane, so push order is
                    // epoch order.
                    gs.epoch_stats.push(stats);
                },
            );
        }
    }

    /// Backward pass; `with_adam` gates the optimizer step so the
    /// conformance harness can read raw gradients without mutating weights.
    fn backward(&mut self, with_adam: bool) {
        let layers = self.cfg.layers();
        for l in (0..layers).rev() {
            // (eq. 8) ReLU backward for every layer but the last (the loss
            // already wrote the last layer's gradient into its AHW buffer).
            if l + 1 < layers {
                self.relu_backward(l);
            }

            // (eq. 9) HW_G = Â · AHW_G — skipped at layer 0 under §4.4.
            let skip_spmm = l == 0 && self.opts.skip_first_backward_spmm;
            let hwg_buf = if skip_spmm { Buf::Ahw(0) } else { Buf::Hw };
            if !skip_spmm {
                let d_out = self.cfg.d_out(l);
                self.staged_collective_spmm(Dir::Bwd, Buf::Ahw(l), Buf::Hw, d_out, None);
            }

            // (eq. 10) W_G = Hᵀ · HW_G, then all-reduce.
            let x_buf = if l == 0 { Buf::X } else { Buf::Ahw(l - 1) };
            self.weight_grad(l, x_buf, hwg_buf);
            self.all_reduce_wgrad(l);

            // (eq. 11) H_G = HW_G · Wᵀ — only needed above layer 0. Recorded
            // before Adam, which overwrites the W it reads.
            if l > 0 {
                self.input_grad(l);
            }
            if with_adam {
                self.adam(l);
            }
        }
    }

    /// The staged distributed SpMM (§4.1 solution 1, broadcast variant)
    /// over the partition's replication [`Layout`].
    ///
    /// `src` is the dense operand (each GPU owns one tile row of it), `dst`
    /// the accumulation target, `d` the operand width. In round `r` every
    /// group broadcasts its `r`-th member's tile into the double-buffered
    /// `BC1`/`BC2` of its members, and every member folds the matching
    /// adjacency tile into `dst`. `prefetch` (forward layers of a
    /// bounded-staleness epoch only) replaces the remote broadcast source
    /// with snapshot/constant state.
    ///
    /// 1D is one group of `P`: `P` rounds, nothing else. 1.5D (§5.1,
    /// replication factor 2) is two groups `{0..P/2}` and `{P/2..P}`; GPU
    /// `j`'s mate is `(j + P/2) % P`. Its `P/2` rounds fold each received
    /// tile twice — into the member's own partial and into the `RP` replica
    /// of its mate's (the §5.1 2× memory) — and `P/2` concurrent pairwise
    /// cross-group reductions finalize `dst` on both members of each pair.
    fn staged_collective_spmm(
        &mut self,
        dir: Dir,
        src: Buf,
        dst: Buf,
        d: usize,
        prefetch: Option<Prefetch>,
    ) {
        let p = self.p();
        let layout = Layout::of(self.opts.partition, p);
        // A single GPU broadcasts nothing and always consumes its own live
        // tile: staleness never changes P = 1 numerics.
        let prefetch = if p > 1 { prefetch } else { None };
        for r in 0..layout.groups[0].len() {
            for members in &layout.groups {
                self.broadcast_stage(members[r], members, src, d, prefetch);
            }
            for members in &layout.groups {
                let s = members[r];
                for &j in members {
                    // Under prefetch the diagonal tile (the stage's data
                    // lives on GPU s) reads the live source instead of the
                    // stale double buffer, preserving the exact local
                    // gradient path (DESIGN §15).
                    let operand = if prefetch.is_some() && j == s { Some(src) } else { None };
                    self.fold_tile(dir, operand, dst, "spmm", j, j, s, d, r > 0);
                    if layout.replicated() {
                        let mate = (j + p / 2) % p;
                        self.fold_tile(dir, operand, Buf::Rp, "spmm-rp", j, mate, s, d, r > 0);
                    }
                }
            }
        }
        if layout.replicated() {
            for a in 0..p / 2 {
                self.reduce_pair(dir, src, dst, d, a, a + p / 2);
            }
        }
    }

    /// Broadcast stage `s` — GPU `s`'s `src` tile — into the stage's
    /// broadcast slot on every one of `members`.
    fn broadcast_stage(
        &mut self,
        s: usize,
        members: &[usize],
        src: Buf,
        d: usize,
        prefetch: Option<Prefetch>,
    ) {
        let slot = BcSlot::for_stage(s);
        let rows = self.problem.rows_of(s);
        // Prefetched broadcasts ride a dedicated stream: on the comm lane
        // they would FIFO behind the previous epoch's gradient all-reduce,
        // which is exactly the serialization staleness exists to break.
        let stream =
            if prefetch.is_some() { self.opts.prefetch_stream() } else { self.opts.comm_stream() };
        let lanes: Vec<(usize, usize)> = members.iter().map(|&g| (g, stream)).collect();
        // The root sends its live tile (fresh, or the constant X) or its SF
        // snapshot (stale).
        let snapshot = prefetch.and_then(|p| p.snapshot);
        let fx = match snapshot {
            Some((layer, age)) => Effects::none().stale([StaleRead { buf: sf_id(s, layer), age }]),
            None => Effects::none().reads([buf_id(s, src)]),
        }
        .writes(members.iter().map(|&g| bc_id(g, slot)));
        let group = members.to_vec();
        let body = self.problem.real.as_ref().map(|_| {
            Box::new(move |ctx: &DeviceState| {
                ctx.broadcast_into_bc(
                    s,
                    |g| match snapshot {
                        Some((layer, _)) => g.sf_ref(layer),
                        None => read_buf(g, src),
                    },
                    rows,
                    d,
                    slot,
                    &group,
                )
            }) as Body<DeviceState>
        });
        self.sched.record_collective(
            &lanes,
            rows as f64 * d as f64 * 4.0,
            self.opts.machine.broadcast_bw(s, members),
            self.desc(Category::Comm, "bcast-H", Some(s)),
            fx,
            body,
        );
    }

    /// One SpMM stage on GPU `j`: fold adjacency tile `(row, s)` times the
    /// stage-`s` operand into `into` — the single body every layout shares.
    /// The operand is the stage's broadcast slot, or the live `local` buffer
    /// when the tile's data never left this GPU.
    #[allow(clippy::too_many_arguments)]
    fn fold_tile(
        &mut self,
        dir: Dir,
        local: Option<Buf>,
        into: Buf,
        label: &'static str,
        j: usize,
        row: usize,
        s: usize,
        d: usize,
        acc: bool,
    ) {
        let p = self.p();
        let slot = BcSlot::for_stage(s);
        let n_row = self.problem.rows_of(row);
        let nnz = match dir {
            Dir::Fwd => self.problem.fwd_tile_nnz(row, s),
            Dir::Bwd => self.problem.bwd_tile_nnz(row, s),
        };
        let work = self.opts.cost.spmm(
            self.gpu_spec(j),
            n_row as u64,
            self.problem.rows_of(s) as u64,
            nnz,
            d as u64,
            acc,
        );
        let operand = local.map_or(bc_id(j, slot), |b| buf_id(j, b));
        let mut fx = Effects::none().reads([operand]).writes([buf_id(j, into)]);
        if acc {
            // Accumulating stages read the running sum too.
            fx = fx.reads([buf_id(j, into)]);
        }
        let body = self.problem.real.clone().map(|rc| {
            Box::new(move |ctx: &DeviceState| {
                let g = &mut *ctx.gpu(j);
                if acc {
                    g.note_read(buf_id(j, into));
                }
                g.note_write(buf_id(j, into));
                // Move the destination out so the operand can be borrowed
                // from the same GpuState.
                let mut out = std::mem::take(buf_mut(g, into));
                if !acc {
                    out.resize(n_row, d);
                }
                let operand = match local {
                    Some(b) => read_buf(g, b),
                    None => g.bc_ref(slot),
                };
                let accumulate = if acc { Accumulate::Add } else { Accumulate::Overwrite };
                spmm(tile(&rc, dir, p, row, s), operand, &mut out, accumulate);
                *buf_mut(g, into) = out;
            }) as Body<DeviceState>
        });
        self.sched.record(j, 0, work, self.desc(Category::SpMM, label, Some(s)), fx, body);
    }

    /// The 1.5D cross-group reduction of mate pair `(a, b)`: exchange both
    /// partials over the a↔b link(s) and finalize `dst` on both members.
    ///
    /// Numerics: the classic body re-folds `dst` in the canonical 1D stage
    /// order `s = 0..P`, so 1.5D results are bit-identical to the 1D
    /// pipeline by construction; the declared bytes/bandwidth/op structure
    /// (what the DES times and the tracer counts) remain genuinely 1.5D.
    fn reduce_pair(&mut self, dir: Dir, src: Buf, dst: Buf, d: usize, a: usize, b: usize) {
        let p = self.p();
        let comm_stream = self.opts.comm_stream();
        let rows: Vec<usize> = (0..p).map(|s| self.problem.rows_of(s)).collect();
        let bytes = ((rows[a] + rows[b]) * d * 4) as f64;
        let (fx, body): (Effects, Option<Body<DeviceState>>);
        if self.epoch_tag.is_some() {
            // Fused bounded-staleness schedules use the genuine pairwise
            // exchange: each member's final result is its own partial plus
            // its mate's RP replica. The canonical refold below would
            // re-read every GPU's live src shard — an undeclared
            // cross-epoch RAW once stale broadcasts no longer order after
            // this epoch's source writers. The pairwise sum's f32
            // association differs from the 1D fold, so k >= 1 1.5D runs are
            // oracle-band-equal, not bit-equal, to 1D (DESIGN §15).
            fx = Effects::none()
                .reads([buf_id(a, Buf::Rp), buf_id(b, Buf::Rp), buf_id(a, dst), buf_id(b, dst)])
                .writes([buf_id(a, dst), buf_id(b, dst)]);
            body = self.problem.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| {
                    for (t, o) in [(a, b), (b, a)] {
                        let partial = ctx.stage(o, |g| read_buf(g, Buf::Rp), rows[t], d);
                        {
                            let gs = &mut *ctx.gpu(t);
                            gs.note_read(buf_id(t, dst));
                            gs.note_write(buf_id(t, dst));
                            let out = &mut buf_mut(gs, dst).as_mut_slice()[..rows[t] * d];
                            for (x, v) in out.iter_mut().zip(partial.as_slice()) {
                                *x += v;
                            }
                        }
                        ctx.unstage(partial);
                    }
                }) as Body<DeviceState>
            });
        } else {
            fx = Effects::none()
                .reads((0..p).map(|s| buf_id(s, src)))
                .reads([buf_id(a, Buf::Rp), buf_id(b, Buf::Rp)])
                .writes([buf_id(a, dst), buf_id(b, dst)]);
            body = self.problem.real.clone().map(|rc| {
                Box::new(move |ctx: &DeviceState| {
                    // Stage every GPU's src shard to the host, one lock at
                    // a time (collective bodies run at rendezvous
                    // quiescence; concurrent pair reductions only ever
                    // share read access to these shards).
                    let views: Vec<Dense> =
                        (0..p).map(|s| ctx.stage(s, |g| read_buf(g, src), rows[s], d)).collect();
                    for t in [a, b] {
                        let gs = &mut *ctx.gpu(t);
                        gs.note_write(buf_id(t, dst));
                        let mut out = std::mem::take(buf_mut(gs, dst));
                        out.resize(rows[t], d);
                        for (s, view) in views.iter().enumerate() {
                            let accumulate =
                                if s == 0 { Accumulate::Overwrite } else { Accumulate::Add };
                            spmm(tile(&rc, dir, p, t, s), view, &mut out, accumulate);
                        }
                        *buf_mut(gs, dst) = out;
                    }
                    views.into_iter().for_each(|view| ctx.unstage(view));
                }) as Body<DeviceState>
            });
        }
        self.sched.record_collective(
            &[(a, comm_stream), (b, comm_stream)],
            bytes,
            self.opts.machine.reduce_bw(a, &[a, b]),
            self.desc(Category::Comm, "reduce-AH", None),
            fx,
            body,
        );
    }

    /// Local GeMM `dst = src · W(l)` on every GPU (paper eq. 5).
    fn local_gemm_xw(&mut self, l: usize, src: Buf, dst: Buf) {
        let d_in = self.cfg.d_in(l);
        let d_out = self.cfg.d_out(l);
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            // On fused schedules W(l) was last written by the previous
            // epoch's Adam step — the intended age-1 epoch carry.
            let fx = self.declare_epoch_carry(
                Effects::none().reads([buf_id(g, src), w_id(g, l)]).writes([buf_id(g, dst)]),
                w_id(g, l),
            );
            self.kernel(
                g,
                self.opts.cost.gemm(self.gpu_spec(g), n_g as u64, d_in as u64, d_out as u64),
                self.desc(Category::GeMM, "gemm-HW", None),
                fx,
                move |gs| {
                    let mut out = std::mem::take(buf_mut(gs, dst));
                    out.resize(n_g, d_out);
                    gemm(read_buf(gs, src), gs.w_ref(l), &mut out, Accumulate::Overwrite);
                    *buf_mut(gs, dst) = out;
                },
            );
        }
    }

    /// In-place ReLU over `AHW(l)` (paper eq. 7).
    fn relu_forward(&mut self, l: usize) {
        let d_out = self.cfg.d_out(l);
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            self.kernel(
                g,
                self.opts.cost.elementwise((n_g * d_out) as u64, 2.0),
                self.desc(Category::Activation, "relu", None),
                Effects::none().rw(buf_id(g, Buf::Ahw(l))),
                move |gs| {
                    // In-place RMW: an all-nonnegative input leaves the
                    // bytes unchanged, so both sides are noted explicitly.
                    gs.note_read(buf_id(g, Buf::Ahw(l)));
                    gs.note_write(buf_id(g, Buf::Ahw(l)));
                    relu_inplace(gs.ahw[l].as_mut_slice());
                },
            );
        }
    }

    /// ReLU backward (paper eq. 8): merge the incoming gradient in
    /// `AHW(l+1)` over the saved activation in `AHW(l)`.
    fn relu_backward(&mut self, l: usize) {
        let d = self.cfg.d_out(l);
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            self.kernel(
                g,
                self.opts.cost.elementwise((n_g * d) as u64, 3.0),
                self.desc(Category::Activation, "relu-bwd", None),
                Effects::none().reads([buf_id(g, Buf::Ahw(l + 1))]).rw(buf_id(g, Buf::Ahw(l))),
                move |gs| {
                    let (grad, act) = gs.ahw_pair_mut(l + 1, l);
                    mggcn_dense::relu_backward_merge(grad.as_slice(), act.as_mut_slice());
                },
            );
        }
    }

    /// Weight gradient `W_G(l) = Xᵀ · HW_G` (paper eq. 10).
    fn weight_grad(&mut self, l: usize, x_buf: Buf, hwg_buf: Buf) {
        let d_in = self.cfg.d_in(l);
        let d_out = self.cfg.d_out(l);
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            self.kernel(
                g,
                self.opts.cost.gemm(self.gpu_spec(g), d_in as u64, n_g as u64, d_out as u64),
                self.desc(Category::GeMM, "gemm-WG", None),
                Effects::none().reads([buf_id(g, x_buf), buf_id(g, hwg_buf)]).writes([wg_id(g, l)]),
                move |gs| {
                    gs.note_write(wg_id(g, l));
                    let mut out = std::mem::take(&mut gs.wgrad[l]);
                    out.resize(d_in, d_out);
                    gemm_at_b(
                        read_buf(gs, x_buf),
                        read_buf(gs, hwg_buf),
                        &mut out,
                        Accumulate::Overwrite,
                    );
                    gs.wgrad[l] = out;
                },
            );
        }
    }

    /// All-reduce the layer's weight gradients (ring volume `2(P−1)/P`).
    fn all_reduce_wgrad(&mut self, l: usize) {
        let group = self.opts.gpu_ids();
        let comm_stream = self.opts.comm_stream();
        let lanes: Vec<(usize, usize)> = group.iter().map(|&g| (g, comm_stream)).collect();
        let param_bytes = (self.cfg.d_in(l) * self.cfg.d_out(l) * 4) as f64;
        let p = self.p() as f64;
        let body = self.problem.real.as_ref().map(|_| {
            Box::new(move |ctx: &DeviceState| ctx.all_reduce_wgrad(l)) as Body<DeviceState>
        });
        let fx = group.iter().fold(Effects::none(), |fx, &g| fx.rw(wg_id(g, l)));
        self.sched.record_collective(
            &lanes,
            2.0 * param_bytes * (p - 1.0) / p,
            self.opts.machine.allreduce_bw(&group),
            self.desc(Category::Comm, "allreduce-WG", None),
            fx,
            body,
        );
    }

    /// Input gradient `H_G = HW_G · Wᵀ` (paper eq. 11) into `AHW(l)`.
    fn input_grad(&mut self, l: usize) {
        let d_in = self.cfg.d_in(l);
        let d_out = self.cfg.d_out(l);
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            // W(l) here still carries the previous epoch's Adam write on
            // fused schedules (this epoch's Adam for layer l runs after).
            let fx = self.declare_epoch_carry(
                Effects::none()
                    .reads([buf_id(g, Buf::Hw), w_id(g, l)])
                    .writes([buf_id(g, Buf::Ahw(l))]),
                w_id(g, l),
            );
            self.kernel(
                g,
                self.opts.cost.gemm(self.gpu_spec(g), n_g as u64, d_out as u64, d_in as u64),
                self.desc(Category::GeMM, "gemm-HG", None),
                fx,
                move |gs| {
                    let mut out = std::mem::take(&mut gs.ahw[l]);
                    out.resize(n_g, d_in);
                    gemm_a_bt(read_buf(gs, Buf::Hw), gs.w_ref(l), &mut out, Accumulate::Overwrite);
                    gs.ahw[l] = out;
                },
            );
        }
    }

    /// Adam update of `W(l)` on every GPU (identical updates keep the
    /// replicas in lockstep).
    fn adam(&mut self, l: usize) {
        let (base_lr, lr_schedule, offset) = (self.cfg.lr, self.cfg.lr_schedule, self.epoch_offset);
        let count = (self.cfg.d_in(l) * self.cfg.d_out(l)) as u64;
        for g in 0..self.p() {
            // The Adam moments read here were last written by the previous
            // epoch's Adam step — the optimizer's own age-1 epoch carry.
            let fx = self.declare_epoch_carry(
                Effects::none().reads([wg_id(g, l)]).rw(adam_id(g, l)).writes([w_id(g, l)]),
                adam_id(g, l),
            );
            // The step is the one per-epoch input of an epoch's bodies: read
            // at run time, so one compiled plan serves every epoch.
            let body = self.problem.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| {
                    let epoch = ctx.epoch() + offset;
                    let lr = base_lr * lr_schedule.factor(epoch as usize);
                    let params = AdamParams { lr, ..AdamParams::default() };
                    let gs = &mut *ctx.gpu(g);
                    gs.note_read(wg_id(g, l));
                    gs.note_read(adam_id(g, l));
                    gs.note_write(adam_id(g, l));
                    gs.note_write(w_id(g, l));
                    let grad = std::mem::take(&mut gs.wgrad[l]);
                    adam_step(
                        &params,
                        epoch + 1,
                        gs.weights[l].as_mut_slice(),
                        grad.as_slice(),
                        gs.adam_m[l].as_mut_slice(),
                        gs.adam_v[l].as_mut_slice(),
                    );
                    gs.wgrad[l] = grad;
                }) as Body<DeviceState>
            });
            let desc = self.desc(Category::Adam, "adam", None);
            self.sched.record(g, 0, self.opts.cost.adam(count), desc, fx, body);
        }
    }
}
