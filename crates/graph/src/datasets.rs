//! Benchmark dataset stat cards (paper Table 1).
//!
//! | Dataset  | n     | m     | d(0) | d(L) | k   |
//! |----------|-------|-------|------|------|-----|
//! | Cora     | 3.3K  | 9.2K  | 3.7K | 6    | 3   |
//! | Arxiv    | 169K  | 1.16M | 128  | 40   | 7   |
//! | Papers   | 111M  | 1.61B | 128  | 172  | 15  |
//! | Products | 2.5M  | 126M  | 104  | 47   | 52  |
//! | Proteins | 8.74M | 1.3B  | 128  | 256  | 150 |
//! | Reddit   | 233K  | 115M  | 602  | 41   | 492 |
//!
//! The timing simulator consumes these cards directly; real training runs
//! use [`DatasetCard::materialize`] to build a degree-matched synthetic
//! replica at a chosen scale (1.0 = paper size).

use crate::generators::chung_lu;
use crate::generators::degree::{self, DegreeModel};
use crate::graph::Graph;

/// Statistics of one benchmark graph plus the knobs needed to synthesize a
/// structurally similar replica.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetCard {
    pub name: &'static str,
    /// Number of vertices.
    pub n: usize,
    /// Number of (directed) edges.
    pub m: usize,
    /// Input feature dimension d(0).
    pub feat_dim: usize,
    /// Number of classes d(L).
    pub classes: usize,
    /// Average degree k (as reported in Table 1).
    pub avg_degree: f64,
    /// Power-law exponent of the degree distribution used for replicas and
    /// tile statistics. Real social/co-purchase graphs fall in 1.8–2.8;
    /// denser biological graphs are flatter.
    pub degree_exponent: f64,
}

impl DatasetCard {
    pub const fn new(
        name: &'static str,
        n: usize,
        m: usize,
        feat_dim: usize,
        classes: usize,
        avg_degree: f64,
        degree_exponent: f64,
    ) -> Self {
        Self { name, n, m, feat_dim, classes, avg_degree, degree_exponent }
    }

    /// The degree model this card implies.
    pub fn degree_model(&self) -> DegreeModel {
        DegreeModel::power_law(self.avg_degree, self.degree_exponent, self.n)
    }

    /// Build a materialized synthetic replica at `scale` (fraction of the
    /// paper-size vertex count; 1.0 reproduces `n`). Edge count scales with
    /// the vertex count so the average degree is preserved — average degree,
    /// not raw size, is what drives the paper's kernel behaviour (§6.4).
    pub fn materialize(&self, scale: f64, seed: u64) -> Graph {
        let n = ((self.n as f64 * scale).round() as usize).max(16);
        let degrees = degree::sample_degrees(&self.degree_model(), n, seed);
        let adj = chung_lu::generate(&degrees, seed ^ 0x9e37_79b9);
        Graph::synthesize(adj, self.feat_dim, self.classes, seed ^ 0x85eb_ca6b)
    }

    /// Bytes of the input feature matrix at paper scale (fp32).
    pub fn feature_bytes(&self) -> u64 {
        self.n as u64 * self.feat_dim as u64 * 4
    }
}

/// Cora citation network.
pub const CORA: DatasetCard = DatasetCard::new("Cora", 3_300, 9_200, 3_700, 6, 3.0, 2.9);
/// OGBN-Arxiv citation network.
pub const ARXIV: DatasetCard = DatasetCard::new("Arxiv", 169_000, 1_160_000, 128, 40, 7.0, 2.6);
/// OGBN-Papers100M citation network (largest benchmark).
pub const PAPERS: DatasetCard =
    DatasetCard::new("Papers", 111_000_000, 1_610_000_000, 128, 172, 15.0, 2.4);
/// OGBN-Products co-purchase network.
pub const PRODUCTS: DatasetCard =
    DatasetCard::new("Products", 2_500_000, 126_000_000, 104, 47, 52.0, 2.2);
/// OGBN-Proteins biological association network.
pub const PROTEINS: DatasetCard =
    DatasetCard::new("Proteins", 8_740_000, 1_300_000_000, 128, 256, 150.0, 1.9);
/// Reddit post-to-post graph (September 2014).
pub const REDDIT: DatasetCard =
    DatasetCard::new("Reddit", 233_000, 115_000_000, 602, 41, 492.0, 1.8);

/// All Table 1 datasets, in the paper's row order.
pub const BENCHMARKS: [DatasetCard; 6] = [CORA, ARXIV, PAPERS, PRODUCTS, PROTEINS, REDDIT];

/// The five datasets used in the per-figure runtime comparisons (Papers is
/// only used in Table 3 / §6.6).
pub const FIGURE_DATASETS: [DatasetCard; 5] = [CORA, ARXIV, PRODUCTS, PROTEINS, REDDIT];

/// Look a card up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<DatasetCard> {
    BENCHMARKS.iter().find(|c| c.name.eq_ignore_ascii_case(name)).copied()
}

/// The BTER-scaled Arxiv family for Fig 9: `factor` ∈ {1, 2, …, 128}
/// multiplies the average degree; n is fixed; features are 512-d with 40
/// classes, per §6 "Datasets".
pub fn scaled_arxiv(factor: u32) -> DatasetCard {
    debug_assert!(factor.is_power_of_two() && factor <= 128);
    // Leak-free static names for the 8 known factors.
    const NAMES: [&str; 8] = ["1x", "2x", "4x", "8x", "16x", "32x", "64x", "128x"];
    let name = NAMES[factor.trailing_zeros() as usize];
    DatasetCard::new(
        name,
        ARXIV.n,
        ARXIV.m * factor as usize,
        512,
        40,
        ARXIV.avg_degree * factor as f64,
        ARXIV.degree_exponent,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        assert_eq!(REDDIT.n, 233_000);
        assert_eq!(REDDIT.feat_dim, 602);
        assert_eq!(REDDIT.classes, 41);
        assert_eq!(PAPERS.m, 1_610_000_000);
        assert_eq!(PROTEINS.classes, 256);
        assert_eq!(PRODUCTS.avg_degree, 52.0);
    }

    #[test]
    fn lookup_by_name_case_insensitive() {
        assert_eq!(by_name("reddit"), Some(REDDIT));
        assert_eq!(by_name("Products"), Some(PRODUCTS));
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn scaled_arxiv_scales_edges_not_vertices() {
        let s = scaled_arxiv(32);
        assert_eq!(s.n, ARXIV.n);
        assert_eq!(s.m, ARXIV.m * 32);
        assert_eq!(s.feat_dim, 512);
        assert_eq!(s.name, "32x");
    }

    #[test]
    fn materialize_small_replica() {
        let g = CORA.materialize(0.1, 7);
        assert!(g.n() > 100);
        assert_eq!(g.features.cols(), CORA.feat_dim);
        assert!(g.labels.iter().all(|&l| (l as usize) < CORA.classes));
        // Average degree should be in the right ballpark.
        let k = g.adj.nnz() as f64 / g.n() as f64;
        assert!(k > 1.0 && k < 10.0, "avg degree {k}");
    }

    #[test]
    fn byte_accounting() {
        // Reddit features: 233K x 602 x 4B ≈ 561 MB.
        let mb = REDDIT.feature_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mb - 535.0).abs() < 10.0, "reddit features {mb} MiB");
    }
}
