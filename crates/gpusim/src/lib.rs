//! A virtual multi-GPU machine for the MG-GCN reproduction.
//!
//! The paper runs on NVIDIA DGX-1 (8× V100, hybrid-cube-mesh NVLink) and
//! DGX-A100 (8× A100, NVSwitch). This crate replaces that hardware with a
//! faithful *model* of it:
//!
//! * [`specs`] — GPU and machine descriptions, including the NVLink
//!   topologies whose link-count arithmetic drives the paper's §5.1
//!   1D-vs-1.5D analysis;
//! * [`memory`] — the out-of-memory error behind the "Out of Memory"
//!   cells of Figs 5, 7, 10, 13 and Table 3;
//! * [`engine`] — CUDA-like streams/events and a rate-based discrete-event
//!   simulator in which communication steals memory bandwidth from
//!   concurrent memory-bound kernels (the §6.3 overlap penalty);
//! * [`effects`] / [`deps`] — declared per-op buffer effects, and the rule
//!   that infers every wait edge from them at record time;
//! * [`model`] — roofline cost models for SpMM, GeMM, elementwise kernels,
//!   Adam, the loss layer, and collectives;
//! * [`timeline`] — per-op span recording and the per-category aggregations
//!   behind Figs 5, 6 and 8;
//! * [`report`] — nvprof-style profiles (the §4 bottleneck methodology).
//!
//! Kernels may carry *bodies* (closures over a user context) that execute in
//! simulated-completion order, so the same schedule that is timed can also
//! compute real numerics.

//! # Example
//!
//! ```
//! use mggcn_gpusim::engine::OpDesc;
//! use mggcn_gpusim::{BufId, Category, Effects, MachineSpec, Schedule, Work};
//!
//! // A kernel on GPU 0 overlapped with a broadcast to GPU 1. Bodies take
//! // the context by shared reference (they are `Send`, so the threaded
//! // backend can run them on workers); use interior mutability to write.
//! // Each op declares the buffers it touches; the broadcast reads what the
//! // kernel writes, so it is recorded waiting on the kernel.
//! use std::sync::Mutex;
//! let mut sched: Schedule<Mutex<Vec<&str>>> = Schedule::new(MachineSpec::dgx_a100());
//! let out = BufId::new(0, "AHW");
//! let k = sched.record(
//!     0, 0,
//!     Work::Compute { flops: 1.0e12, bytes: 1.0e9 },
//!     OpDesc::new(Category::SpMM, "spmm"),
//!     Effects::none().writes([out]),
//!     Some(Box::new(|log: &Mutex<Vec<&str>>| log.lock().unwrap().push("kernel ran"))),
//! );
//! let b = sched.record_collective(
//!     &[(0, 1), (1, 1)],
//!     1.0e8,
//!     300.0e9,
//!     OpDesc::new(Category::Comm, "bcast"),
//!     Effects::none().reads([out]).writes([BufId::new(1, "BC1")]),
//!     None,
//! );
//! assert_eq!(sched.wait_edges(), vec![(b, k)]);
//! let log = Mutex::new(Vec::new());
//! let report = sched.run(&log);
//! assert_eq!(*log.lock().unwrap(), vec!["kernel ran"]);
//! assert!(report.makespan > 0.0);
//! assert_eq!(report.timeline.spans.len(), 3); // kernel + 2 collective lanes
//! ```

#![forbid(unsafe_code)]

pub use mggcn_sched as sched;

pub mod deps;
pub mod effects;
pub mod engine;
pub mod memory;
pub mod model;
pub mod report;
pub mod shadow;
pub mod specs;
pub mod timeline;

pub use deps::infer_waits;
pub use effects::{BufId, Effects, StaleRead};
pub use engine::{EpochPlan, OpId, OpInfo, RunReport, Schedule, SimOutcome, Site, Work};
pub use memory::OomError;
pub use model::{spmm_first, CostModel};
pub use report::{LatencyStats, Profile};
pub use shadow::{ActualEffects, EffectRecorder};
pub use specs::{GpuSpec, Interconnect, MachineSpec};
pub use timeline::{Category, Span, Timeline};
