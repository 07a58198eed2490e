//! MG-GCN core: multi-GPU full-batch GCN training.
//!
//! This crate is the paper's primary contribution, rebuilt in Rust on the
//! virtual machine of [`mggcn_gpusim`]:
//!
//! * [`config`] — model and training-option types (every §4/§5 optimization
//!   is a flag, so the paper's ablations are first-class);
//! * [`problem`] — the 1D-row-partitioned distributed problem: 2D tiles of
//!   `Âᵀ`/`Â`, feature and label shards (§4.1), or descriptor-only tile
//!   statistics for paper-scale timing runs;
//! * [`state`] — per-GPU device buffers implementing the shared-buffer
//!   scheme of §4.2/Fig 1 (`L + 3` big buffers: one `AHW` per layer plus
//!   shared `HW`, `BC1`, `BC2`);
//! * [`memplan`] — the analytic per-GPU memory plan behind Fig 12 and every
//!   OOM cell;
//! * [`loss`] / [`optimizer`] — softmax cross-entropy and Adam (§6 "Model");
//! * [`trainer`] — schedule construction (staged broadcast SpMM, §4.3
//!   two-stream overlap with `BC1`/`BC2` double buffering, §4.4 op-order
//!   selection and first-layer backward-SpMM skip) and the epoch loop;
//! * [`metrics`] — epoch reports: simulated time, per-category breakdown,
//!   loss/accuracy;
//! * [`checkpoint`] — stop/resume support with bit-exact continuation;
//! * [`fit`] — convergence runs with early stopping and best-weights
//!   tracking (the §6 accuracy-workflow).
//!
//! # Quick start
//!
//! ```
//! use mggcn_core::config::{GcnConfig, TrainOptions};
//! use mggcn_core::problem::Problem;
//! use mggcn_core::trainer::Trainer;
//! use mggcn_graph::generators::sbm::{self, SbmConfig};
//!
//! let graph = sbm::generate(&SbmConfig::community_benchmark(200, 4), 7);
//! let cfg = GcnConfig::new(graph.features.cols(), &[32], graph.classes);
//! let opts = TrainOptions::quick(2); // 2 virtual GPUs
//! let problem = Problem::from_graph(&graph, &cfg, &opts);
//! let mut trainer = Trainer::new(problem, cfg, opts).unwrap();
//! let report = trainer.train_epoch().unwrap();
//! assert!(report.loss.is_finite());
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod fit;
pub mod loss;
pub mod memplan;
pub mod metrics;
pub mod optimizer;
pub mod problem;
pub mod shadow;
pub mod state;
pub mod trainer;

pub use config::{GcnConfig, Partition, TrainOptions};
pub use memplan::MemoryPlan;
pub use metrics::{EpochReport, MeasuredEpoch};
pub use mggcn_exec::Backend;
pub use problem::Problem;
pub use trainer::{TrainError, Trainer};
