//! # MG-GCN in Rust
//!
//! A full reproduction of *"MG-GCN: A Scalable multi-GPU GCN Training
//! Framework"* (Balın, Sancak, Çatalyürek — ICPP 2022) as a Rust workspace.
//!
//! The original system trains full-batch Graph Convolutional Networks
//! across the GPUs of a DGX node with three ingredients: a 1D-row
//! partitioned, broadcast-staged distributed SpMM; aggressive buffer reuse
//! (`L + 3` large buffers for an `L`-layer model); and communication/
//! computation overlap on two CUDA streams. This crate reproduces all of
//! it on a *virtual* multi-GPU machine: schedules are identical, kernels
//! compute real numerics on the CPU, and a calibrated discrete-event model
//! provides DGX-V100/DGX-A100 timing for the paper's every figure and
//! table.
//!
//! ## Crate map
//!
//! | module | re-export of | contents |
//! |---|---|---|
//! | [`dense`] | `mggcn-dense` | row-major matrices, parallel GeMM, elementwise kernels |
//! | [`sparse`] | `mggcn-sparse` | CSR/COO, normalization, 2D tiling, parallel SpMM |
//! | [`graph`] | `mggcn-graph` | dataset cards, BTER/Chung–Lu/SBM generators, permutation, IO |
//! | [`gpusim`] | `mggcn-gpusim` | machine specs, streams/events, DES engine, cost models |
//! | [`analyze`] | `mggcn-analyze` | static schedule verification: hazards, deadlock-freedom, liveness coloring |
//! | [`comm`] | `mggcn-comm` | NCCL-like collectives, §5.1 1D-vs-1.5D analysis |
//! | [`core`] | `mggcn-core` | the trainer: staged SpMM, buffer reuse, overlap, Adam, loss |
//! | [`baselines`] | `mggcn-baselines` | DGL-like, CAGNET-like, DistGNN model, MLP |
//! | [`serve`] | `mggcn-serve` | online inference: propagation cache, micro-batching, latency stats |
//! | [`cluster`] | `mggcn-cluster` | sharded serving tier: consistent-hash routing, cache-aware partitioning, admission control, load shedding |
//! | [`exec`] | `mggcn-exec` | real execution: worker-per-GPU runtime, deterministic kernel pool, wall-clock profiling |
//! | [`trace`] | `mggcn-trace` | observability: structured spans, metrics registry, Chrome-trace export, derived overlap/memory metrics |
//! | [`topo`] | `mggcn-topo` | hierarchical multi-node studies: §5.1 1D/1.5D crossover, NIC and staleness sweeps (the `ext_15d_*` paper tables) |
//!
//! ## Quick start
//!
//! ```
//! use mg_gcn::prelude::*;
//!
//! // A community graph with known ground truth, 4 virtual GPUs.
//! let graph = sbm::generate(&SbmConfig::community_benchmark(400, 4), 7);
//! let cfg = GcnConfig::new(graph.features.cols(), &[32], graph.classes);
//! let opts = TrainOptions::quick(4);
//! let problem = Problem::from_graph(&graph, &cfg, &opts);
//! let mut trainer = Trainer::new(problem, cfg, opts).unwrap();
//! for _ in 0..5 {
//!     let report = trainer.train_epoch().unwrap();
//!     assert!(report.loss.is_finite());
//! }
//! ```
//!
//! To really execute epochs on worker-per-GPU threads (bit-identical
//! numerics, measured wall-clock in `report.measured`), select the
//! threaded backend: `opts.backend = Backend::Threaded;`.

#![forbid(unsafe_code)]

pub use mggcn_analyze as analyze;
pub use mggcn_baselines as baselines;
pub use mggcn_cluster as cluster;
pub use mggcn_comm as comm;
pub use mggcn_core as core;
pub use mggcn_dense as dense;
pub use mggcn_exec as exec;
pub use mggcn_gpusim as gpusim;
pub use mggcn_graph as graph;
pub use mggcn_serve as serve;
pub use mggcn_sparse as sparse;
pub use mggcn_topo as topo;
pub use mggcn_trace as trace;

pub mod cpu;
pub mod sweep;

/// The names most programs need.
pub mod prelude {
    pub use mggcn_cluster::{AdmissionPolicy, Cluster, ClusterConfig, PartitionPlan};
    pub use mggcn_core::config::{GcnConfig, Partition, TrainOptions};
    pub use mggcn_core::memplan::{max_layers, BufferPolicy, MemoryPlan};
    pub use mggcn_core::metrics::EpochReport;
    pub use mggcn_core::problem::Problem;
    pub use mggcn_core::trainer::TrainError;
    pub use mggcn_core::trainer::Trainer;
    pub use mggcn_exec::Backend;
    pub use mggcn_gpusim::{Category, MachineSpec};
    pub use mggcn_graph::datasets;
    pub use mggcn_graph::generators::sbm::{self, SbmConfig};
    pub use mggcn_graph::Graph;
    pub use mggcn_serve::{BatchPolicy, LoadGenConfig, ServeConfig, Server, ServingModel};
    pub use mggcn_trace::Tracer;
}
