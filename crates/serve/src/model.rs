//! The frozen serving model: checkpoint weights + graph, replicated on
//! every simulated GPU.
//!
//! Serving freezes a trained checkpoint into immutable state shared by all
//! replicas (`Arc`s, so per-batch execution contexts can hold it without
//! copying): the layer weights, the feature matrix `H⁰`, and the
//! column-normalized transposed adjacency `Âᵀ` the forward pass multiplies
//! by. Each layer is `H⁽ˡ⁺¹⁾ = σ(Âᵀ·H⁽ˡ⁾·Wˡ)`. Layer 0 follows §4.4's
//! order ([`spmm_first`]): a layer that narrows (or keeps its width)
//! multiplies by `W⁰` first, and since `H⁰` and `W⁰` are both frozen,
//! `H⁰·W⁰` is computed once, here, and layer 0 is one SpMM over it; a
//! widening layer 0 aggregates `H⁰` first. Either way layer 0's SpMM
//! operand ([`layer0_operand`](ServingModel::layer0_operand)) is frozen,
//! so its output rows `(Âᵀ·operand)[v]` — layer 0's pre-activation, or its
//! aggregation when it widens — are pure per-vertex functions of frozen
//! state: exactly what the propagation cache stores. Layers above 0
//! aggregate first, so a batch multiplies only the rows it keeps.
//!
//! Graph deltas are exact: an edge `(u, v)` changes only columns `u` and
//! `v` of the in-degree-normalized `Â` (rows `u`, `v` of `Âᵀ`), so a delta
//! patches the raw operator in place, re-normalizes its endpoints' rows
//! and invalidates exactly those; every other row keeps its bits.

use mggcn_core::checkpoint::Checkpoint;
use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_dense::{gemm, relu_inplace, Accumulate, Dense};
use mggcn_gpusim::spmm_first;
use mggcn_graph::sampling::{HubRows, Pattern};
use mggcn_graph::Graph;
use mggcn_sparse::{spmm, spmm_rows, Csr};
use std::sync::Arc;

/// A frozen GCN ready to answer queries.
#[derive(Clone, Debug)]
pub struct ServingModel {
    /// Raw adjacency, transposed (row `c` lists column `c` of `A`) so a
    /// delta patches it in place and `Âᵀ` is its row normalization.
    adj_t: Csr,
    a_hat_t: Arc<Csr>,
    /// Whether `Âᵀ`'s pattern is symmetric; a delta adds both directions,
    /// so it stays what the frozen graph made it.
    pattern: Pattern,
    /// `Âᵀ`'s long rows as vertex bitsets, for a batch's last hop; a delta
    /// sets the bit of each entry it adds.
    hubs: HubRows,
    features: Arc<Dense>,
    /// Layer 0's SpMM operand: `H⁰·W⁰` when layer 0 multiplies first, else
    /// `features` itself.
    layer0: Arc<Dense>,
    weights: Arc<Vec<Dense>>,
}

impl ServingModel {
    /// Freeze `checkpoint`'s weights over `graph`. Fails when the weight
    /// chain does not compose with the feature width.
    pub fn from_checkpoint(checkpoint: &Checkpoint, graph: &Graph) -> Result<Self, String> {
        Self::from_parts(checkpoint.weights.clone(), graph.adj.clone(), graph.features.clone())
    }

    /// Train a 2-layer GCN of width `hidden` on `graph` for `epochs` epochs
    /// (two simulated GPUs, [`TrainOptions::quick`]) and freeze it: the
    /// model the serving and cluster studies run on.
    pub fn train(graph: &Graph, hidden: usize, epochs: usize) -> Result<Self, String> {
        let cfg = GcnConfig::new(graph.features.cols(), &[hidden], graph.classes);
        let opts = TrainOptions::quick(2);
        let problem = Problem::from_graph(graph, &cfg, &opts);
        let mut trainer = Trainer::new(problem, cfg, opts).map_err(|e| e.to_string())?;
        trainer.train(epochs).map_err(|e| e.to_string())?;
        Self::from_checkpoint(&Checkpoint::from_trainer(&trainer), graph)
    }

    /// Freeze explicit weights over an adjacency + feature matrix.
    pub fn from_parts(weights: Vec<Dense>, adj: Csr, features: Dense) -> Result<Self, String> {
        if weights.is_empty() {
            return Err("serving model needs at least one layer".into());
        }
        if adj.rows() != adj.cols() {
            return Err(format!("adjacency must be square, got {}x{}", adj.rows(), adj.cols()));
        }
        if adj.rows() != features.rows() {
            return Err(format!("feature rows {} != vertex count {}", features.rows(), adj.rows()));
        }
        let mut d = features.cols();
        for (l, w) in weights.iter().enumerate() {
            if w.rows() != d {
                return Err(format!("layer {l} expects input width {}, got {d}", w.rows()));
            }
            d = w.cols();
        }
        // Same f64 sums in the same order as `adj.normalize_columns().transpose()`.
        let adj_t = adj.transpose();
        let pattern = if adj_t.row_ptr() == adj.row_ptr() && adj_t.col_idx() == adj.col_idx() {
            Pattern::Symmetric
        } else {
            Pattern::General
        };
        let hubs = HubRows::new(&adj_t);
        let features = Arc::new(features);
        let w0 = &weights[0];
        let layer0 = if spmm_first(w0.rows(), w0.cols()) {
            features.clone()
        } else {
            let mut hw = Dense::zeros(features.rows(), w0.cols());
            gemm(&features, w0, &mut hw, Accumulate::Overwrite);
            Arc::new(hw)
        };
        Ok(Self {
            a_hat_t: Arc::new(adj_t.normalize_rows()),
            adj_t,
            pattern,
            hubs,
            features,
            layer0,
            weights: Arc::new(weights),
        })
    }

    pub fn layers(&self) -> usize {
        self.weights.len()
    }

    pub fn vertices(&self) -> usize {
        self.adj_t.rows()
    }

    /// Input feature width (`H⁰` columns). The propagation cache's stride
    /// is layer 0's SpMM width, [`layer0_operand`](Self::layer0_operand)'s.
    pub fn feat_dim(&self) -> usize {
        self.features.cols()
    }

    /// Output width (class count).
    pub fn out_dim(&self) -> usize {
        self.weights.last().expect("nonempty").cols()
    }

    /// The raw (un-normalized) adjacency the propagation operator derives
    /// from — conformance tests rebuild a reference operator from it after
    /// [`apply_delta`](Self::apply_delta). Built on each call (`O(nnz)`).
    pub fn adj(&self) -> Csr {
        self.adj_t.transpose()
    }

    pub fn a_hat_t(&self) -> &Arc<Csr> {
        &self.a_hat_t
    }

    /// `Symmetric` when the frozen adjacency is undirected (its pattern
    /// equals its transpose's, columns ascending); a batch's block is then
    /// counted from the vertices it does not reach.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// The hub index of `Âᵀ` ([`HubRows`]) that
    /// [`khop_layers`](mggcn_graph::sampling::khop_layers) walks with.
    pub fn hubs(&self) -> &HubRows {
        &self.hubs
    }

    pub fn features(&self) -> &Arc<Dense> {
        &self.features
    }

    pub fn weights(&self) -> &Arc<Vec<Dense>> {
        &self.weights
    }

    /// Whether layer 0 multiplies by `W⁰` before it aggregates: §4.4's
    /// order for a layer that does not widen.
    pub fn layer0_gemm_first(&self) -> bool {
        let w0 = &self.weights[0];
        !spmm_first(w0.rows(), w0.cols())
    }

    /// What layer 0's SpMM multiplies: `H⁰·W⁰`, computed once when the
    /// model is frozen, if [`layer0_gemm_first`](Self::layer0_gemm_first),
    /// else `H⁰`. Its width is the propagation cache's stride.
    pub fn layer0_operand(&self) -> &Arc<Dense> {
        &self.layer0
    }

    /// Reference full-graph forward pass, `H⁽ˡ⁺¹⁾ = σ(Âᵀ·H⁽ˡ⁾·Wˡ)` with
    /// no activation on the last layer: layer 0 as `Âᵀ·(H⁰W⁰)` when it
    /// multiplies first, every other layer as `(Âᵀ·H⁽ˡ⁾)·Wˡ`. The
    /// batched/cached serving path must reproduce these rows bit-for-bit.
    pub fn forward_full(&self) -> Dense {
        let n = self.vertices();
        let mut h = Dense::zeros(0, 0);
        for (l, w) in self.weights.iter().enumerate() {
            let input = if l == 0 { &*self.layer0 } else { &h };
            let mut agg = Dense::zeros(n, input.cols());
            spmm(&self.a_hat_t, input, &mut agg, Accumulate::Overwrite);
            let mut z = if l == 0 && self.layer0_gemm_first() {
                agg
            } else {
                let mut z = Dense::zeros(n, w.cols());
                gemm(&agg, w, &mut z, Accumulate::Overwrite);
                z
            };
            if l + 1 < self.weights.len() {
                relu_inplace(z.as_mut_slice());
            }
            h = z;
        }
        h
    }

    /// Layer 0's SpMM rows `(Âᵀ·operand)[v]` for the given vertices
    /// ([`layer0_operand`](Self::layer0_operand)) — what the propagation
    /// cache stores, computed from scratch.
    pub fn aggregation_rows(&self, vertices: &[u32]) -> Dense {
        let mut out = Dense::zeros(vertices.len(), self.layer0.cols());
        spmm_rows(&self.a_hat_t, vertices, &self.layer0, &mut out, Accumulate::Overwrite);
        out
    }

    /// Apply a graph delta: add undirected edges (unit weight, both
    /// directions; a self edge adds 2), re-normalize the endpoints' rows of
    /// `Âᵀ`, and return those endpoints, ascending and deduplicated — the
    /// only vertices whose cached rows change. All-or-nothing:
    /// panics naming the first out-of-range edge before touching anything.
    pub fn apply_delta(&mut self, edges: &[(u32, u32)]) -> Vec<u32> {
        let n = self.vertices();
        if let Some((u, v)) = edges.iter().find(|&&(u, v)| u.max(v) as usize >= n) {
            panic!("delta edge ({u}, {v}) out of range for {n} vertices");
        }
        if edges.is_empty() {
            return Vec::new();
        }
        let a_hat_t = Arc::make_mut(&mut self.a_hat_t);
        let mut endpoints = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            for (r, c) in [(v, u), (u, v)] {
                if self.adj_t.add_entry(r as usize, c, 1.0) {
                    a_hat_t.add_entry(r as usize, c, 0.0);
                    self.hubs.insert(r as usize, c);
                }
                endpoints.push(r);
            }
        }
        endpoints.sort_unstable();
        endpoints.dedup();
        for &r in &endpoints {
            a_hat_t.normalize_row_from(r as usize, &self.adj_t);
        }
        endpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_graph::generators::chung_lu;
    use mggcn_graph::sampling::{khop_induced, khop_layers};

    fn tiny_model(n: usize, d0: usize, hidden: usize, classes: usize, seed: u64) -> ServingModel {
        let adj = chung_lu::generate(&vec![4u32; n], seed);
        let feats = Dense::from_fn(n, d0, |r, c| ((r * d0 + c) as f32).sin());
        let w0 = Dense::from_fn(d0, hidden, |r, c| ((r + 3 * c) as f32).cos() * 0.3);
        let w1 = Dense::from_fn(hidden, classes, |r, c| ((2 * r + c) as f32).sin() * 0.3);
        ServingModel::from_parts(vec![w0, w1], adj, feats).expect("valid model")
    }

    #[test]
    fn shape_validation_rejects_mismatches() {
        let adj = chung_lu::generate(&[3u32; 10], 1);
        let feats = Dense::zeros(10, 4);
        let bad_w = Dense::zeros(5, 2); // expects input width 4
        assert!(ServingModel::from_parts(vec![bad_w], adj.clone(), feats.clone()).is_err());
        let feats_short = Dense::zeros(9, 4);
        let w = Dense::zeros(4, 2);
        assert!(ServingModel::from_parts(vec![w], adj, feats_short).is_err());
    }

    #[test]
    fn forward_full_shapes_and_finiteness() {
        let m = tiny_model(30, 6, 5, 3, 2);
        let out = m.forward_full();
        assert_eq!(out.rows(), 30);
        assert_eq!(out.cols(), 3);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn aggregation_rows_match_full_spmm() {
        let m = tiny_model(25, 5, 4, 2, 3);
        let mut full = Dense::zeros(25, m.layer0_operand().cols());
        spmm(m.a_hat_t(), m.layer0_operand(), &mut full, Accumulate::Overwrite);
        let some = m.aggregation_rows(&[0, 7, 24]);
        assert_eq!(some.row(0), full.row(0));
        assert_eq!(some.row(1), full.row(7));
        assert_eq!(some.row(2), full.row(24));
    }

    #[test]
    fn delta_adds_edges_and_reports_its_endpoints() {
        let mut m = tiny_model(20, 4, 3, 2, 4);
        let before = m.adj_t.nnz();
        assert_eq!(m.apply_delta(&[(19, 0)]), vec![0, 19]);
        assert!(m.adj_t.nnz() >= before + 2);
        assert_eq!(m.a_hat_t().nnz(), m.adj_t.nnz());
        // Self edges and repeats are reported once.
        assert_eq!(m.apply_delta(&[(3, 3), (0, 3), (3, 0)]), vec![0, 3]);
    }

    #[test]
    fn an_undirected_graph_is_symmetric_and_its_deltas_keep_it_so() {
        let mut m = tiny_model(20, 4, 3, 2, 7);
        assert_eq!(m.pattern(), Pattern::Symmetric);
        m.apply_delta(&[(19, 0), (4, 4)]);
        let (adj, a_hat_t) = (m.adj(), m.a_hat_t());
        assert_eq!((adj.row_ptr(), adj.col_idx()), (a_hat_t.row_ptr(), a_hat_t.col_idx()));
        let mut coo = mggcn_sparse::Coo::new(3, 3);
        coo.push(0, 1, 1.0);
        let directed =
            ServingModel::from_parts(vec![Dense::zeros(2, 2)], coo.to_csr(), Dense::zeros(3, 2));
        assert_eq!(directed.expect("valid model").pattern(), Pattern::General);
    }

    #[test]
    fn a_delta_keeps_the_hub_index_exact() {
        // 200 vertices: a bitset has four words, so the degree-40 rows are
        // hubs and a row of at most 2 entries stays a CSR row after two more.
        let n = 200;
        let degrees: Vec<u32> = (0..n as u32).map(|v| if v % 25 == 0 { 40 } else { 1 }).collect();
        let adj = chung_lu::generate(&degrees, 3);
        let feats = Dense::from_fn(n, 4, |r, c| ((r + c) as f32).sin());
        let mut m =
            ServingModel::from_parts(vec![Dense::zeros(4, 3), Dense::zeros(3, 2)], adj, feats)
                .expect("valid model");
        let is_hub = |m: &ServingModel, v: u32| m.a_hat_t().row_nnz(v as usize) > 4;
        let new = |m: &ServingModel, u: u32, v: u32| !m.a_hat_t().row_cols(u as usize).contains(&v);
        let hubs: Vec<u32> = (0..n as u32).filter(|&v| is_hub(&m, v)).collect();
        let (hub, far) = hubs
            .iter()
            .flat_map(|&h| hubs.iter().map(move |&f| (h, f)))
            .find(|&(h, f)| h != f && new(&m, h, f) && new(&m, h, h))
            .expect("two hubs not yet adjacent");
        let short = |v: u32| m.a_hat_t().row_nnz(v as usize) <= 2 && new(&m, v, v);
        let leaf = (0..n as u32).find(|&v| short(v) && new(&m, hub, v)).expect("a short row");
        let other =
            (0..n as u32).find(|&v| v != leaf && short(v) && new(&m, leaf, v)).expect("another");
        m.apply_delta(&[(hub, far), (hub, hub), (hub, leaf), (leaf, other), (other, other)]);
        assert!(!is_hub(&m, leaf) && !is_hub(&m, other), "no row crossed the threshold");
        assert_eq!(*m.hubs(), HubRows::new(m.a_hat_t()));
        let batch = [hub, other, 7];
        let block = khop_induced(m.a_hat_t(), &batch, 2);
        let layers = khop_layers(m.a_hat_t(), m.hubs(), &batch, 2, m.pattern());
        assert_eq!(
            (layers.block_vertices, layers.block_edges),
            (block.vertices.len(), block.adj.nnz())
        );
    }

    #[test]
    fn an_out_of_range_delta_changes_nothing() {
        let mut m = tiny_model(20, 4, 3, 2, 6);
        let (adj, a_hat_t) = (m.adj(), (**m.a_hat_t()).clone());
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.apply_delta(&[(0, 19), (1, 20)]);
        }))
        .expect_err("vertex 20 is out of range");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("(1, 20)"), "panic names the edge: {msg}");
        assert_eq!(m.adj(), adj);
        assert_eq!(**m.a_hat_t(), a_hat_t);
    }

    #[test]
    fn delta_changes_forward_output() {
        let mut m = tiny_model(20, 4, 3, 2, 5);
        let before = m.forward_full();
        m.apply_delta(&[(0, 10)]);
        let after = m.forward_full();
        assert_ne!(before, after, "adding an edge must change some output");
    }
}
