//! Model and training configuration.

use crate::memplan::BufferPolicy;
use crate::optimizer::LrSchedule;
use mggcn_exec::Backend;
use mggcn_gpusim::{CostModel, MachineSpec};

/// GCN architecture: `dims = [d(0), hidden…, d(L)]` (paper eq. 3–4).
#[derive(Clone, Debug, PartialEq)]
pub struct GcnConfig {
    /// Layer widths, length `L + 1`.
    pub dims: Vec<usize>,
    /// Weight-initialization seed (identical on every GPU so the replicated
    /// weights agree bit-for-bit).
    pub seed: u64,
    /// Adam learning rate.
    pub lr: f32,
    /// Per-epoch multiplier on `lr` (constant in the paper's runs).
    pub lr_schedule: LrSchedule,
}

impl GcnConfig {
    /// Build from input dim, hidden widths and class count.
    pub fn new(feat_dim: usize, hidden: &[usize], classes: usize) -> Self {
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(feat_dim);
        dims.extend_from_slice(hidden);
        dims.push(classes);
        Self { dims, seed: 0x5eed, lr: 1e-2, lr_schedule: LrSchedule::Constant }
    }

    /// The paper's model A: 2 layers, hidden 512 (CAGNET/DGL comparisons).
    pub fn model_a(feat_dim: usize, classes: usize) -> Self {
        Self::new(feat_dim, &[512], classes)
    }

    /// Model B: 2 layers, hidden 16 (the Reddit DistGNN comparison).
    pub fn model_b(feat_dim: usize, classes: usize) -> Self {
        Self::new(feat_dim, &[16], classes)
    }

    /// Model C: 3 layers, hidden 256 (Products/Proteins/Papers vs DistGNN).
    pub fn model_c(feat_dim: usize, classes: usize) -> Self {
        Self::new(feat_dim, &[256, 256], classes)
    }

    /// Model D: 3 layers, hidden 208 (Papers on DGX-A100; the largest that
    /// fits).
    pub fn model_d(feat_dim: usize, classes: usize) -> Self {
        Self::new(feat_dim, &[208, 208], classes)
    }

    /// Number of layers `L`.
    pub fn layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// Width of layer `l`'s input.
    pub fn d_in(&self, l: usize) -> usize {
        self.dims[l]
    }

    /// Width of layer `l`'s output.
    pub fn d_out(&self, l: usize) -> usize {
        self.dims[l + 1]
    }

    /// Total weight parameters `Σ d(l)·d(l+1)`.
    pub fn param_count(&self) -> usize {
        (0..self.layers()).map(|l| self.d_in(l) * self.d_out(l)).sum()
    }

    /// Widest layer input/output (buffer sizing).
    pub fn max_dim(&self) -> usize {
        *self.dims.iter().max().expect("dims nonempty")
    }
}

/// How the adjacency/feature rows are partitioned across GPUs (§5.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Partition {
    /// The paper's shipped scheme: P row partitions, each stage broadcast
    /// to the full machine.
    #[default]
    OneD,
    /// 1.5D with replication factor c = 2: the machine splits into two
    /// replication groups; each stage broadcasts inside one group only and
    /// a cross-group pairwise reduction combines the partial SpMM results.
    /// Costs one extra big buffer per GPU (`RP`, the §5.1 2× memory
    /// figure's marginal cost here). Requires an even GPU count ≥ 2.
    OneFiveD,
}

impl Partition {
    /// CLI spelling (`--partition {1d,1.5d}`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "1d" => Some(Self::OneD),
            "1.5d" => Some(Self::OneFiveD),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Self::OneD => "1d",
            Self::OneFiveD => "1.5d",
        }
    }
}

/// Everything the trainer needs to know beyond the model: the machine, the
/// GPU count, and each paper optimization as an ablation flag.
#[derive(Clone, Debug)]
pub struct TrainOptions {
    pub machine: MachineSpec,
    /// Number of GPUs to use (≤ machine size).
    pub gpus: usize,
    /// §5.2: random vertex permutation for load balance.
    pub permute: bool,
    /// §4.3: overlap communication with computation (two streams,
    /// double-buffered broadcasts).
    pub overlap: bool,
    /// §4.4: choose SpMM-before-GeMM when `d(l) < d(l+1)`.
    pub op_order_opt: bool,
    /// §4.4: skip the first layer's backward SpMM when input-feature
    /// gradients are not needed.
    pub skip_first_backward_spmm: bool,
    pub cost: CostModel,
    /// Seed for the §5.2 permutation.
    pub perm_seed: u64,
    /// Per-kernel launch overhead (seconds). Framework baselines pay more
    /// than the paper's bare-CUDA implementation.
    pub launch_overhead: f64,
    /// Buffer accounting used for the OOM check: MG-GCN's `L + 3` scheme
    /// or a baseline's per-layer allocation (§4.2).
    pub buffer_policy: BufferPolicy,
    /// Host-side per-epoch cost (synchronization, loss readback, epoch
    /// bookkeeping). This is the floor that stops tiny models from scaling
    /// (the paper's Reddit h=16 plateaus at 0.012 s past 4 GPUs, §6.6).
    pub epoch_host_overhead: f64,
    /// How epochs execute: discrete-event simulation only, or really, on
    /// worker-per-GPU threads (`mggcn-exec`). Numerics are bit-identical.
    pub backend: Backend,
    /// §5.1 partitioning strategy. 1.5D is numerics-identical to 1D (the
    /// cross-group reduction re-folds in canonical stage order) but moves
    /// bytes on a different wire pattern and needs `L + 4` big buffers.
    pub partition: Partition,
    /// Bounded training staleness `k` (PipeGCN-style cross-epoch
    /// pipelining, DESIGN §15). `0` — the default — is the paper's fully
    /// synchronous pipeline, bit-identical to every prior behaviour.
    /// With `k >= 1`, epoch `e`'s *remote* feature broadcasts read a
    /// snapshot (`SF`) of the sources taken up to `k` epochs earlier, so
    /// they read nothing the current epoch writes and the engine issues
    /// them during the previous epoch's backward pass. The
    /// local (diagonal) tile always reads live state, so the local
    /// gradient path stays exact.
    pub staleness: usize,
}

impl TrainOptions {
    /// All paper optimizations on, on a DGX-A100.
    pub fn full(machine: MachineSpec, gpus: usize) -> Self {
        assert!(gpus >= 1 && gpus <= machine.gpu_count(), "gpu count out of range");
        Self {
            machine,
            gpus,
            permute: true,
            overlap: true,
            op_order_opt: true,
            skip_first_backward_spmm: true,
            cost: CostModel::default(),
            perm_seed: 0xbabe,
            launch_overhead: 5.0e-6,
            buffer_policy: BufferPolicy::MgGcn,
            epoch_host_overhead: 3.0e-3,
            backend: Backend::Simulated,
            partition: Partition::default(),
            staleness: 0,
        }
    }

    /// Small default for tests and examples: `gpus` virtual GPUs on a
    /// DGX-A100, every optimization on, but exact gradients (no §4.4
    /// first-layer skip) so results match the dense reference.
    pub fn quick(gpus: usize) -> Self {
        let mut o = Self::full(MachineSpec::dgx_a100(), gpus);
        o.skip_first_backward_spmm = false;
        o
    }

    /// The GPU indices in use.
    pub fn gpu_ids(&self) -> Vec<usize> {
        (0..self.gpus).collect()
    }

    /// Stream used for communication: 1 when overlapping, 0 (serialized
    /// with compute) otherwise.
    pub fn comm_stream(&self) -> usize {
        usize::from(self.overlap)
    }

    /// Stream used for the bounded-staleness prefetch broadcasts: a
    /// dedicated lane past the comm stream, so epoch `e+1`'s stale
    /// broadcasts are not FIFO-serialized behind epoch `e`'s gradient
    /// all-reduce on the comm lane.
    pub fn prefetch_stream(&self) -> usize {
        self.comm_stream() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_layout() {
        let c = GcnConfig::new(100, &[64, 32], 10);
        assert_eq!(c.dims, vec![100, 64, 32, 10]);
        assert_eq!(c.layers(), 3);
        assert_eq!(c.d_in(1), 64);
        assert_eq!(c.d_out(2), 10);
        assert_eq!(c.param_count(), 100 * 64 + 64 * 32 + 32 * 10);
    }

    #[test]
    fn paper_models() {
        assert_eq!(GcnConfig::model_a(602, 41).dims, vec![602, 512, 41]);
        assert_eq!(GcnConfig::model_b(602, 41).dims, vec![602, 16, 41]);
        assert_eq!(GcnConfig::model_c(128, 172).dims, vec![128, 256, 256, 172]);
        assert_eq!(GcnConfig::model_d(128, 172).dims, vec![128, 208, 208, 172]);
    }

    #[test]
    fn comm_stream_follows_overlap() {
        let mut o = TrainOptions::quick(2);
        assert_eq!(o.comm_stream(), 1);
        o.overlap = false;
        assert_eq!(o.comm_stream(), 0);
    }

    #[test]
    #[should_panic(expected = "gpu count out of range")]
    fn too_many_gpus_rejected() {
        let _ = TrainOptions::full(MachineSpec::dgx_a100(), 9);
    }

    #[test]
    fn partition_parses_and_defaults_to_1d() {
        assert_eq!(TrainOptions::quick(2).partition, Partition::OneD);
        assert_eq!(Partition::parse("1d"), Some(Partition::OneD));
        assert_eq!(Partition::parse("1.5d"), Some(Partition::OneFiveD));
        assert_eq!(Partition::parse("2d"), None);
        assert_eq!(Partition::OneFiveD.name(), "1.5d");
    }
}
