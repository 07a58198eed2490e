//! Graph datasets and generators for the MG-GCN reproduction.
//!
//! The paper evaluates on six benchmark graphs (Table 1) plus BTER-generated
//! synthetic graphs that scale the Arxiv degree distribution 1×…128× (§6,
//! Fig 9). The real datasets are not redistributable here, so this crate
//! provides:
//!
//! * [`datasets`] — *stat cards* with the exact Table 1 statistics, used by
//!   the timing simulator (which needs only `n`, `m`, dims, and per-tile nnz
//!   statistics, never the actual edges), and synthetic *replicas* that can
//!   be materialized at any scale for real end-to-end training;
//! * [`generators`] — Chung–Lu, BTER (the paper's generator), planted
//!   partition SBM (for accuracy experiments where ground truth is known),
//!   and power-law degree-sequence tools;
//! * [`permutation`] — the §5.2 random-permutation load balancer;
//! * [`tilestats`] — per-tile nnz estimation for paper-scale graphs in
//!   original vs permuted ordering, without materializing edges;
//! * [`io`] — a parallel edge-list/MatrixMarket-subset reader (the PIGO
//!   substitute);
//! * [`sampling`] — k-hop frontiers and GraphSAGE-style fanout sampling,
//!   the mini-batch machinery whose neighborhood explosion (§1) motivates
//!   the paper's full-batch approach;
//! * [`partition`] — vertex-to-shard assignment for the serving tier:
//!   seeded random baseline and balance-capped label propagation.

//! # Example
//!
//! ```
//! use mggcn_graph::datasets;
//! use mggcn_graph::metrics::degree_stats;
//! use mggcn_graph::random_permutation;
//!
//! // Materialize a small Arxiv-shaped replica and permute it (§5.2).
//! let graph = datasets::ARXIV.materialize(0.01, 42);
//! let stats = degree_stats(&graph.adj);
//! assert!(stats.mean > 1.0);
//! let perm = random_permutation(graph.n(), 7);
//! let balanced = graph.permute(&perm);
//! assert_eq!(balanced.adj.nnz(), graph.adj.nnz());
//! ```

#![forbid(unsafe_code)]

pub mod datasets;
pub mod generators;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod partition;
pub mod permutation;
pub mod sampling;
pub mod tilestats;

pub use datasets::{DatasetCard, BENCHMARKS};
pub use graph::{Graph, Split};
pub use permutation::random_permutation;
pub use tilestats::TileStats;
