//! Online GCN inference on the simulated multi-GPU machine.
//!
//! MG-GCN's training side ends with a checkpoint; this crate is the
//! serving side: it freezes that checkpoint into a [`ServingModel`]
//! replicated on every simulated GPU and answers per-vertex inference
//! queries online, with the three mechanisms real GNN serving systems
//! lean on:
//!
//! * a **propagation cache** ([`PropagationCache`]) of per-vertex rows of
//!   layer 0's SpMM, LRU-bounded and explicitly invalidated on graph
//!   deltas — the CaPGNN idea applied to this stack;
//! * **request micro-batching** ([`batcher`]): concurrent requests within
//!   a time/size window collapse into one batched forward pass over the
//!   global operator that computes, layer by layer, only the rows the
//!   batch's seeds depend on, amortizing the per-batch fixed costs that
//!   dominate small-query inference;
//! * **latency observability**: a seeded open-loop [`loadgen`], per-request
//!   latency quantiles (p50/p95/p99) through `gpusim`'s [`LatencyStats`](mggcn_gpusim::LatencyStats),
//!   and a JSON [`ServeReport`] surfaced by `mggcn serve-bench`.
//!
//! The batched, cached serving path is *bit-identical* to the reference
//! full-graph forward pass ([`ServingModel::forward_full`]): every row
//! folds in full-graph accumulation order, cached rows are exact
//! bit copies, and delta invalidation removes exactly the rows whose
//! aggregation changed (the delta's endpoints).
//!
//! # Example
//!
//! ```
//! use mggcn_serve::{BatchPolicy, ServeConfig, Server, ServingModel};
//! use mggcn_dense::Dense;
//! use mggcn_gpusim::MachineSpec;
//! use mggcn_graph::generators::chung_lu;
//!
//! let adj = chung_lu::generate(&vec![4u32; 64], 1);
//! let feats = Dense::from_fn(64, 8, |r, c| ((r + c) as f32).sin());
//! let w0 = Dense::from_fn(8, 6, |r, c| ((r * 2 + c) as f32).cos() * 0.2);
//! let w1 = Dense::from_fn(6, 3, |r, c| ((r + 3 * c) as f32).sin() * 0.2);
//! let model = ServingModel::from_parts(vec![w0, w1], adj, feats).unwrap();
//!
//! let reference = model.forward_full();
//! let cfg = ServeConfig::new(MachineSpec::dgx_a100(), BatchPolicy::new(1e-3, 16), 1 << 20);
//! let mut server = Server::new(model, cfg);
//! let out = server.query(&[3, 17, 42]);
//! assert_eq!(out.row(0), reference.row(3)); // bit-identical
//! ```

#![forbid(unsafe_code)]

pub mod batcher;
pub mod cache;
pub mod loadgen;
pub mod model;
pub mod server;

pub use batcher::{form_batches, Batch, BatchPolicy, Request};
pub use cache::{CacheStats, PropagationCache};
pub use loadgen::{generate as generate_load, summarize, LoadGenConfig, TraceSummary};
pub use model::ServingModel;
pub use server::{BatchCtx, ServeConfig, ServeReport, Server};
