//! Training steps: the opaque step the end-to-end metrics time, and the
//! same step taken apart into its public constituents for the traced run.

use crate::spans::{Open, Recorder};
use crate::workloads::TrainSpec;
use mg_gcn::analyze::preflight;
use mg_gcn::core::checkpoint::Checkpoint;
use mg_gcn::core::state::DeviceState;
use mg_gcn::core::{GcnConfig, Problem, TrainOptions, Trainer};
use mg_gcn::exec::{execute, Backend};
use mg_gcn::gpusim::{Category, Schedule, Work};
use mg_gcn::graph::Graph;
use std::cell::RefCell;
use std::time::Instant;

/// Steps of one block. A block starts from the post-warm-up state, so every
/// block does the same arithmetic and a run times the same work however
/// many steps it takes. Left to train on, a step of `train-exec` slows by
/// 10–15 % over the 10 000 epochs of a run (most likely denormal gradients,
/// as the model saturates on its few hundred vertices), and the floor comes
/// from the run's first steps only.
pub const BLOCK_STEPS: usize = 20;

/// A trainer ready to step, with what building it cost.
pub struct TrainRig {
    pub trainer: Trainer,
    pub epochs_per_step: usize,
    /// Nonzeros of `Â` one epoch aggregates (all forward tiles).
    pub nnz: u64,
    pub problem_build_s: f64,
    /// Bytes of one of the plan's big buffers: a GPU's rows at the widest
    /// layer.
    big_buffer_bytes: u64,
    /// Where every block starts: the state [`TrainRig::end_warmup`] saw.
    block_start: Option<Checkpoint>,
    steps_in_block: usize,
    /// Loss of the last step of every finished block.
    pub block_end_losses: Vec<f64>,
}

impl TrainRig {
    pub fn build(graph: &Graph, spec: &TrainSpec, seed: u64) -> Result<Self, String> {
        let mut cfg = GcnConfig::new(spec.feat, spec.hidden, spec.classes);
        cfg.seed = seed ^ 0x5eed;
        let mut opts = TrainOptions::quick(spec.gpus);
        opts.backend = spec.backend;
        opts.perm_seed = seed ^ 0xbabe;
        let t = Instant::now();
        let problem = Problem::from_graph(graph, &cfg, &opts);
        let problem_build_s = t.elapsed().as_secs_f64();
        let nnz = problem.fwd_nnz.iter().sum();
        let big_buffer_bytes = (graph.n().div_ceil(spec.gpus) * cfg.max_dim() * 4) as u64;
        let trainer = Trainer::new(problem, cfg, opts).map_err(|e| e.to_string())?;
        Ok(Self {
            trainer,
            epochs_per_step: spec.epochs_per_step,
            nnz,
            problem_build_s,
            big_buffer_bytes,
            block_start: None,
            steps_in_block: 0,
            block_end_losses: Vec::new(),
        })
    }

    /// The warm-up steps are done: blocks start from here.
    pub fn end_warmup(&mut self) {
        self.block_start = Some(Checkpoint::from_trainer(&self.trainer));
        self.steps_in_block = 0;
    }

    /// Before a step, outside the clocks: once a block is full, go back to
    /// where blocks start.
    pub fn begin_step(&mut self) {
        if self.steps_in_block == BLOCK_STEPS {
            let start = self.block_start.as_ref().expect("blocks start where warm-up ended");
            self.trainer.restore(start).expect("a trainer accepts its own checkpoint");
            self.steps_in_block = 0;
        }
    }

    /// Book a finished step, opaque or traced.
    fn end_step(&mut self, loss: f64) {
        self.steps_in_block += 1;
        if self.steps_in_block == BLOCK_STEPS {
            self.block_end_losses.push(loss);
        }
    }

    /// Big buffers per GPU in the memory plan the trainer was admitted
    /// under (the paper's `L + 3`).
    pub fn plan_buffers(&self) -> u64 {
        self.trainer.plan().big_buffers / self.big_buffer_bytes
    }

    /// The largest big-buffer allocation any GPU really holds, in bytes,
    /// and whether it fits the plan.
    pub fn big_buffers_held(&self) -> (u64, bool) {
        let state = self.trainer.state();
        let held = (0..state.gpu_count()).map(|g| state.big_buffer_bytes(g)).max().unwrap_or(0);
        (held, held <= self.trainer.plan().big_buffers)
    }

    pub fn backend(&self) -> Backend {
        self.trainer.options().backend
    }

    /// One opaque step, as a user would take it. Returns the last epoch's
    /// loss; an `Err` or a non-finite loss is a failed operation.
    pub fn step(&mut self) -> Result<f64, String> {
        let reports = self.trainer.train(self.epochs_per_step).map_err(|e| e.to_string())?;
        let loss = check_loss(reports.last().expect("at least one epoch per step").loss)?;
        self.end_step(loss);
        Ok(loss)
    }
}

fn check_loss(loss: f64) -> Result<f64, String> {
    if loss.is_finite() {
        Ok(loss)
    } else {
        Err(format!("non-finite loss {loss}"))
    }
}

fn op_name(c: Category) -> &'static str {
    match c {
        Category::SpMM => "op.spmm",
        Category::GeMM => "op.gemm",
        Category::Activation => "op.activation",
        Category::Adam => "op.adam",
        Category::LossLayer => "op.loss",
        Category::Comm => "op.comm",
        Category::Barrier => "op.barrier",
        Category::Other => "op.other",
    }
}

/// What one epoch's schedule holds, read off `op_infos()`. Every field
/// repeats exactly between runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochCounts {
    pub ops: u64,
    pub wait_edges: u64,
    pub comm_calls: u64,
    pub comm_bytes: u64,
    /// Bytes of the staged feature broadcasts alone.
    pub bcast_bytes: u64,
    pub spmm_flops: u64,
    /// DRAM traffic of the SpMM kernels as the cost model computes it.
    pub spmm_bytes: u64,
    pub gemm_flops: u64,
}

/// The traced counterpart of [`TrainRig::step`].
pub struct TrainTrace {
    /// Category of every op of one epoch's schedule, by op id. Schedules
    /// have the same shape every epoch; the length is re-checked.
    categories: Vec<Category>,
    pub counts: EpochCounts,
    /// Simulated seconds of the last traced epoch (host overhead included,
    /// as `EpochReport::sim_seconds`).
    pub sim_epoch_s: f64,
    /// Bodies the threaded runtime ran in the last traced epoch.
    pub bodies_run: u64,
}

impl TrainTrace {
    pub fn new(trainer: &Trainer) -> Self {
        let sched = trainer.epoch_schedule();
        let infos = sched.op_infos();
        let mut counts = EpochCounts {
            ops: infos.len() as u64,
            wait_edges: sched.wait_edges().len() as u64,
            ..EpochCounts::default()
        };
        for op in &infos {
            match (op.desc.category, op.work) {
                (Category::Comm, work) => {
                    counts.comm_calls += 1;
                    if let Work::Comm { bytes, .. } = work {
                        counts.comm_bytes += bytes as u64;
                        if op.desc.label == "bcast-H" {
                            counts.bcast_bytes += bytes as u64;
                        }
                    }
                }
                (Category::SpMM, Work::Compute { flops, bytes }) => {
                    counts.spmm_flops += flops as u64;
                    counts.spmm_bytes += bytes as u64;
                }
                (Category::GeMM, Work::Compute { flops, .. }) => counts.gemm_flops += flops as u64,
                _ => {}
            }
        }
        let categories = infos.iter().map(|o| o.desc.category).collect();
        Self { categories, counts, sim_epoch_s: 0.0, bodies_run: 0 }
    }

    /// One step as its public constituents, each under a span inside the
    /// step's root span. Numerically identical to [`TrainRig::step`].
    pub fn step(&mut self, rig: &mut TrainRig, rec: &mut Recorder) -> Result<f64, String> {
        let root = rec.begin_step();
        let mut loss = Ok(f64::NAN);
        for _ in 0..rig.epochs_per_step {
            loss = match rig.backend() {
                Backend::Simulated => Ok(self.epoch_simulated(&mut rig.trainer, rec)),
                Backend::Threaded => self.epoch_threaded(&mut rig.trainer, rec),
            };
            if loss.is_err() {
                break;
            }
            rec.scope("harness.advance", || advance_epoch(&mut rig.trainer));
        }
        match loss.and_then(check_loss) {
            Ok(loss) => {
                rec.end_step(root);
                rig.end_step(loss);
                Ok(loss)
            }
            Err(e) => {
                rec.abandon_step(root);
                Err(e)
            }
        }
    }

    fn epoch_simulated(&mut self, trainer: &mut Trainer, rec: &mut Recorder) -> f64 {
        let sched = begin_epoch(trainer, rec);
        assert_eq!(sched.op_count(), self.categories.len(), "epoch schedules changed shape");
        let run = rec.open("gpusim.run_observed");
        // `run_observed` simulates first, then runs the bodies: the time up
        // to the first body is the simulation.
        let simulate = rec.open("gpusim.simulate");
        let categories = &self.categories;
        let cell: RefCell<(&mut Recorder, Option<Open>)> = RefCell::new((rec, Some(simulate)));
        let report = sched.run_observed(
            trainer.state(),
            |id| {
                let mut guard = cell.borrow_mut();
                let (rec, open) = &mut *guard;
                if let Some(simulate) = open.take() {
                    rec.close(simulate);
                }
                *open = Some(rec.open(op_name(categories[id])));
            },
            |_| {
                let mut guard = cell.borrow_mut();
                let (rec, open) = &mut *guard;
                rec.close(open.take().expect("a body span is open"));
            },
        );
        let (rec, open) = cell.into_inner();
        if let Some(simulate) = open {
            rec.close(simulate);
        }
        rec.close(run);
        self.sim_epoch_s = report.makespan + trainer.options().epoch_host_overhead;
        end_epoch(trainer, rec)
    }

    fn epoch_threaded(&mut self, trainer: &mut Trainer, rec: &mut Recorder) -> Result<f64, String> {
        let sched = begin_epoch(trainer, rec);
        let exec = rec.open("exec.execute");
        let report = match execute(sched, trainer.state()) {
            Ok(report) => report,
            Err(e) => {
                rec.close(exec);
                return Err(e.to_string());
            }
        };
        // Worker spans are offsets from the moment the workers were
        // spawned, `wall_seconds` before `execute` returned.
        let base = rec.now() - report.wall_seconds;
        rec.add("exec.workers", None, base, base + report.wall_seconds);
        for s in &report.spans {
            rec.add(op_name(s.category), Some(s.gpu), base + s.start, base + s.end());
        }
        rec.close(exec);
        self.sim_epoch_s = report.sim.makespan + trainer.options().epoch_host_overhead;
        self.bodies_run = report.bodies_run as u64;
        Ok(end_epoch(trainer, rec))
    }

    /// Between steps: time the parts of a step that cannot be bracketed
    /// from outside on this backend, on a fresh copy of the schedule.
    pub fn replay(&self, trainer: &Trainer, rec: &mut Recorder) -> Result<(), String> {
        let sched = trainer.epoch_schedule();
        rec.scope("replay.preflight", || preflight(&sched))?;
        rec.scope("replay.simulate", || std::hint::black_box(sched.simulate()));
        Ok(())
    }
}

/// What `train_epoch` does before it runs the schedule.
fn begin_epoch(trainer: &Trainer, rec: &mut Recorder) -> Schedule<DeviceState> {
    let sched = rec.scope("core.schedule_build", || trainer.epoch_schedule());
    rec.scope("core.reset_scratch", || trainer.state().reset_scratch());
    sched
}

/// What `train_epoch` reads back after the schedule ran; returns the loss.
fn end_epoch(trainer: &Trainer, rec: &mut Recorder) -> f64 {
    rec.scope("core.report", || {
        std::hint::black_box(trainer.state().accuracy());
        trainer.state().total_loss()
    })
}

/// `Trainer::train_epoch` advances the epoch counter (the Adam step) as it
/// returns; the constituents do not, so the traced run advances it through
/// the checkpoint interface. Weights and moments are restored to the bits
/// they already hold.
fn advance_epoch(trainer: &mut Trainer) {
    let mut ck = Checkpoint::from_trainer(trainer);
    ck.epoch += 1;
    trainer.restore(&ck).expect("a trainer accepts its own checkpoint");
}
