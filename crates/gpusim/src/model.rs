//! Roofline cost models for the GCN kernel zoo.
//!
//! The paper's performance story rests on three facts the model must
//! capture (§6.1, §6.3, §6.4):
//!
//! 1. **SpMM is memory-bandwidth bound** (60–94% of runtime on large
//!    graphs), with DRAM traffic dominated by re-reads of the dense operand
//!    `B`; how much of that re-read traffic hits L2 depends on the tile's
//!    working set — smaller per-GPU tiles fit better, which is the paper's
//!    explanation for the super-linear speedups of Fig 9 ("the blocking
//!    effect of partitioning and potentially better use of the cache").
//! 2. **GeMM is FLOP bound** at these sizes.
//! 3. Communication time depends only on matrix dimensions, while SpMM
//!    compute also scales with density — so compute overtakes comm as the
//!    average degree grows (§6.4 crossover).

use crate::engine::Work;
use crate::specs::GpuSpec;

/// The §4.4 op-order rule for one GCN layer `d_in → d_out`: run the SpMM
/// before the GeMM iff the layer widens (`d_in < d_out`), so the sparse
/// product always runs at the narrower of the two widths. A layer that
/// narrows or keeps its width multiplies by `W` first.
pub fn spmm_first(d_in: usize, d_out: usize) -> bool {
    d_in < d_out
}

/// Tunable efficiencies, shared by MG-GCN and the baselines (the baselines
/// differ in schedule and buffer behaviour, not in silicon).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fraction of peak FLOPs a well-tuned GeMM achieves.
    pub gemm_efficiency: f64,
    /// Fraction of peak DRAM bandwidth SpMM achieves (irregular access).
    pub spmm_efficiency: f64,
    /// Fraction of peak DRAM bandwidth elementwise kernels achieve.
    pub streaming_efficiency: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { gemm_efficiency: 0.65, spmm_efficiency: 0.55, streaming_efficiency: 0.85 }
    }
}

impl CostModel {
    /// SpMM `A(rows×cols, nnz) × B(cols×d) → C(rows×d)`.
    ///
    /// DRAM traffic:
    /// * CSR structure: `nnz · 8` (index + value) + `rows · 8` (row ptr);
    /// * `B` reads: each referenced row is loaded at least once
    ///   (`cols · d · 4` compulsory); the remaining `(nnz − cols) · d · 4`
    ///   re-reads miss L2 with probability `ws / (ws + l2)` where
    ///   `ws = cols · d · 4` is the tile working set — a smooth stand-in
    ///   for the reuse-distance distribution;
    /// * `C` writes: `rows · d · 4` (doubled when accumulating).
    pub fn spmm(
        &self,
        gpu: &GpuSpec,
        rows: u64,
        cols: u64,
        nnz: u64,
        d: u64,
        accumulate: bool,
    ) -> Work {
        let csr_bytes = nnz as f64 * 8.0 + rows as f64 * 8.0;
        let ws = cols as f64 * d as f64 * 4.0;
        let compulsory = ws;
        let rereads = ((nnz as f64 - cols as f64).max(0.0)) * d as f64 * 4.0;
        let miss = ws / (ws + gpu.l2_bytes as f64);
        let b_bytes = compulsory + rereads * miss;
        let c_factor = if accumulate { 2.0 } else { 1.0 };
        let c_bytes = rows as f64 * d as f64 * 4.0 * c_factor;
        let bytes = (csr_bytes + b_bytes + c_bytes) / self.spmm_efficiency;
        let flops = 2.0 * nnz as f64 * d as f64;
        Work::Compute { flops, bytes }
    }

    /// Dense GeMM `m × k × n`.
    pub fn gemm(&self, _gpu: &GpuSpec, m: u64, k: u64, n: u64) -> Work {
        let flops = 2.0 * m as f64 * k as f64 * n as f64 / self.gemm_efficiency;
        let bytes = 4.0 * (m * k + k * n + m * n) as f64 / self.streaming_efficiency;
        Work::Compute { flops, bytes }
    }

    /// Elementwise pass over `elems` floats, touching each `passes` times
    /// (ReLU forward = 2: read + write).
    pub fn elementwise(&self, elems: u64, passes: f64) -> Work {
        Work::Compute {
            flops: elems as f64,
            bytes: 4.0 * elems as f64 * passes / self.streaming_efficiency,
        }
    }

    /// Adam update of `params` parameters: read w, g, m, v; write w, m, v.
    pub fn adam(&self, params: u64) -> Work {
        Work::Compute {
            flops: 12.0 * params as f64,
            bytes: 4.0 * params as f64 * 7.0 / self.streaming_efficiency,
        }
    }

    /// Softmax cross-entropy over `rows × classes` plus gradient.
    pub fn loss(&self, rows: u64, classes: u64) -> Work {
        let elems = rows as f64 * classes as f64;
        Work::Compute { flops: 8.0 * elems, bytes: 4.0 * elems * 3.0 / self.streaming_efficiency }
    }

    /// Duration a [`Work`] would take on an otherwise idle GPU — used by
    /// planners and tests; the engine itself handles contention.
    pub fn solo_seconds(&self, gpu: &GpuSpec, work: Work) -> f64 {
        match work {
            Work::Compute { flops, bytes } => (flops / gpu.flops).max(bytes / gpu.mem_bw),
            Work::Comm { bytes, bw } => bytes / bw,
            Work::Fixed { seconds } => seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(w: Work) -> f64 {
        match w {
            Work::Compute { bytes, .. } => bytes,
            _ => panic!("expected compute"),
        }
    }

    fn flops_of(w: Work) -> f64 {
        match w {
            Work::Compute { flops, .. } => flops,
            _ => panic!("expected compute"),
        }
    }

    #[test]
    fn spmm_bytes_monotone_in_nnz() {
        let m = CostModel::default();
        let g = GpuSpec::v100();
        let lo = bytes_of(m.spmm(&g, 1000, 1000, 5_000, 64, false));
        let hi = bytes_of(m.spmm(&g, 1000, 1000, 50_000, 64, false));
        assert!(hi > lo);
    }

    #[test]
    fn spmm_smaller_tile_has_lower_traffic_per_nnz() {
        // The Fig 9 mechanism: same nnz, smaller dense working set => less
        // DRAM traffic because rereads hit cache.
        let m = CostModel::default();
        let g = GpuSpec::v100();
        let big_ws = bytes_of(m.spmm(&g, 100_000, 1_000_000, 10_000_000, 512, false));
        let small_ws = bytes_of(m.spmm(&g, 100_000, 10_000, 10_000_000, 512, false));
        assert!(small_ws < big_ws * 0.7, "small {small_ws} vs big {big_ws}");
    }

    #[test]
    fn spmm_is_membound_on_large_graphs() {
        // Reddit-like tile: B-traffic dwarfs FLOPs on a V100.
        let m = CostModel::default();
        let g = GpuSpec::v100();
        let w = m.spmm(&g, 233_000, 233_000, 115_000_000, 512, false);
        let t_bytes = bytes_of(w) / g.mem_bw;
        let t_flops = flops_of(w) / g.flops;
        assert!(t_bytes > t_flops, "bytes {t_bytes} flops {t_flops}");
    }

    #[test]
    fn gemm_is_flop_bound_at_gcn_sizes() {
        let m = CostModel::default();
        let g = GpuSpec::v100();
        let w = m.gemm(&g, 233_000, 602, 512);
        let t_bytes = bytes_of(w) / g.mem_bw;
        let t_flops = flops_of(w) / g.flops;
        assert!(t_flops > t_bytes);
    }

    #[test]
    fn accumulate_costs_more() {
        let m = CostModel::default();
        let g = GpuSpec::v100();
        let a = bytes_of(m.spmm(&g, 1000, 1000, 10_000, 64, false));
        let b = bytes_of(m.spmm(&g, 1000, 1000, 10_000, 64, true));
        assert!(b > a);
    }

    #[test]
    fn solo_seconds_roofline() {
        let m = CostModel::default();
        let g = GpuSpec::v100();
        let t = m.solo_seconds(&g, Work::Compute { flops: g.flops, bytes: 0.0 });
        assert!((t - 1.0).abs() < 1e-9);
        let t2 = m.solo_seconds(&g, Work::Comm { bytes: 25.0e9, bw: 25.0e9 });
        assert!((t2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reddit_epoch_scale_sanity() {
        // A 2-layer hidden-512 epoch on Reddit should land around a few
        // hundred milliseconds on one A100 (paper Fig 13's axis tops out at
        // 0.8 s with MG-GCN well under it), and the hidden-16 model around
        // tens of milliseconds (Table 3: 0.033 s). Sum the major kernels
        // coarsely and check the orders of magnitude.
        let m = CostModel::default();
        let g = GpuSpec::a100();
        let (n, nnz, d0, h) = (233_000u64, 115_000_000u64, 602u64, 512u64);
        let mut t = 0.0;
        // forward: gemm(n,d0,h) + spmm(h) + gemm(n,h,41) + spmm(41)
        t += m.solo_seconds(&g, m.gemm(&g, n, d0, h));
        t += m.solo_seconds(&g, m.spmm(&g, n, n, nnz, h, false));
        t += m.solo_seconds(&g, m.gemm(&g, n, h, 41));
        t += m.solo_seconds(&g, m.spmm(&g, n, n, nnz, 41, false));
        // backward: one spmm skipped (first layer), gemms roughly 2x forward
        t += m.solo_seconds(&g, m.spmm(&g, n, n, nnz, h, false));
        t += 2.0 * m.solo_seconds(&g, m.gemm(&g, n, d0, h));
        t += 2.0 * m.solo_seconds(&g, m.gemm(&g, n, h, 41));
        assert!(t > 0.05 && t < 0.8, "h=512 epoch estimate {t} s");

        // Hidden-16 model (the Table 3 configuration).
        let h16 = 16u64;
        let mut t16 = 0.0;
        t16 += m.solo_seconds(&g, m.gemm(&g, n, d0, h16));
        t16 += m.solo_seconds(&g, m.spmm(&g, n, n, nnz, h16, false));
        t16 += m.solo_seconds(&g, m.gemm(&g, n, h16, 41));
        t16 += m.solo_seconds(&g, m.spmm(&g, n, n, nnz, 41, false));
        t16 += m.solo_seconds(&g, m.spmm(&g, n, n, nnz, h16, false));
        t16 += 2.0 * m.solo_seconds(&g, m.gemm(&g, n, d0, h16));
        t16 += 2.0 * m.solo_seconds(&g, m.gemm(&g, n, h16, 41));
        assert!(t16 > 0.005 && t16 < 0.1, "h=16 epoch estimate {t16} s (paper: 0.033)");
    }
}
