//! The schedule sweep `mggcn analyze` verifies and tier-1 guards
//! (`tests/schedule_sweep.rs`): every trainer schedule shape — P ×
//! partition × overlap × op-order, plus the fused bounded-staleness
//! pipelines — and one serving batch schedule. One enumeration, so the
//! CLI gate and the test can never drift apart.

use crate::analyze::BudgetSpec;
use crate::core::checkpoint::Checkpoint;
use crate::core::state::DeviceState;
use crate::core::trainer::sf_buffer_count;
use crate::gpusim::{GpuSpec, OomError, Schedule};
use crate::prelude::*;
use crate::serve::BatchCtx;
use std::sync::Mutex;

/// The GPU counts the full sweep covers.
pub const SWEEP_GPUS: [usize; 4] = [1, 2, 4, 8];

/// Epochs fused into each bounded-staleness case.
const FUSED_EPOCHS: usize = 3;

/// One trainer schedule shape of the sweep.
pub struct TrainerCase {
    pub label: String,
    pub trainer: Trainer,
    /// The liveness budget the schedule must color within: §4.2 `L + 3`,
    /// `+RP` under 1.5D, `+SF` under staleness.
    pub budget: BudgetSpec,
}

impl TrainerCase {
    /// Record the case's schedule: one classic epoch, or the fused
    /// three-epoch pipeline of a bounded-staleness case.
    pub fn schedule(&self) -> Schedule<DeviceState> {
        if self.trainer.options().staleness > 0 {
            self.trainer.pipelined_schedule(FUSED_EPOCHS)
        } else {
            self.trainer.epoch_schedule()
        }
    }
}

/// Every trainer case over `gpu_list`: the classic schedules first, then
/// the fused pipelines (`P >= 2`: a single GPU has no remote tile to read
/// stale) at `k ∈ {1, 2}`. 1.5D needs an even GPU count.
pub fn trainer_cases(
    graph: &Graph,
    cfg: &GcnConfig,
    gpu_list: &[usize],
) -> Result<Vec<TrainerCase>, OomError> {
    let mut cases = Vec::new();
    let mut push = |label: String, opts: TrainOptions| -> Result<(), OomError> {
        let budget = match opts.partition {
            Partition::OneD => BudgetSpec::mg_gcn(cfg.layers()),
            Partition::OneFiveD => BudgetSpec::mg_gcn_15d(cfg.layers()),
        }
        .with_staleness(sf_buffer_count(cfg, &opts));
        let problem = Problem::from_graph(graph, cfg, &opts);
        let trainer = Trainer::new(problem, cfg.clone(), opts)?;
        cases.push(TrainerCase { label, trainer, budget });
        Ok(())
    };
    let partitions = |gpus: usize| {
        [Partition::OneD, Partition::OneFiveD]
            .into_iter()
            .filter(move |&p| p == Partition::OneD || gpus.is_multiple_of(2))
    };
    let on_off = |b: bool| if b { "on " } else { "off" };
    for &gpus in gpu_list {
        for partition in partitions(gpus) {
            for overlap in [false, true] {
                for op_order in [false, true] {
                    let mut opts = TrainOptions::quick(gpus);
                    opts.overlap = overlap;
                    opts.op_order_opt = op_order;
                    opts.partition = partition;
                    let label = format!(
                        "trainer P={gpus} {:<4} overlap={} op-order={}",
                        partition.name(),
                        on_off(overlap),
                        on_off(op_order),
                    );
                    push(label, opts)?;
                }
            }
        }
    }
    for &gpus in gpu_list.iter().filter(|&&g| g >= 2) {
        for partition in partitions(gpus) {
            for k in [1usize, 2] {
                let mut opts = TrainOptions::quick(gpus);
                opts.partition = partition;
                opts.staleness = k;
                let label = format!(
                    "stale   P={gpus} {:<4} k={k} ({FUSED_EPOCHS} epochs)   ",
                    partition.name()
                );
                push(label, opts)?;
            }
        }
    }
    Ok(cases)
}

/// The sweep's serving case: train briefly on `graph`, freeze the model,
/// and record (not run) one batch of four queries on a single replica.
pub fn serve_case(
    graph: &Graph,
    hidden: usize,
) -> Result<(String, Schedule<Mutex<BatchCtx>>), String> {
    let cfg = GcnConfig::new(graph.features.cols(), &[hidden], graph.classes);
    let opts = TrainOptions::quick(2);
    let problem = Problem::from_graph(graph, &cfg, &opts);
    let mut trainer = Trainer::new(problem, cfg, opts).map_err(|e| e.to_string())?;
    trainer.train(3).map_err(|e| e.to_string())?;
    let model = ServingModel::from_checkpoint(&Checkpoint::from_trainer(&trainer), graph)?;
    let machine = MachineSpec::uniform("A100-serve", GpuSpec::a100(), 1, 12, 300.0e9);
    let mut server =
        Server::new(model, ServeConfig::new(machine, BatchPolicy::new(1e-3, 16), 1 << 20));
    let batch: Vec<u32> = vec![3, 17, 42, 101];
    let label = format!("serve  batch of {} on 1 replica  ", batch.len());
    Ok((label, server.batch_schedule(&batch, 0)))
}
