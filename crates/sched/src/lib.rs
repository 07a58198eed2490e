//! What the repo's event loops share: fault injection, the stall error and
//! a deterministic event queue.
//!
//! Each loop lives with its owner — the rate-based DES in
//! `gpusim::Schedule::simulate_with`, the dataflow workers in `exec`, the
//! per-shard admit-or-shed loop in `cluster::Cluster::serve_trace_chaos` —
//! and consults an [`inject::Injector`] at its dispatch point. The injector
//! resolves a seeded [`inject::FaultPlan`] into actions (kill / pause /
//! slow-link / shard-loss). The no-op injector is guaranteed side-effect
//! free (multiplies bandwidth by exactly `1.0`, adds `0.0` seconds), so
//! fault-free runs through the hooks stay bit-identical.

#![forbid(unsafe_code)]

pub mod inject;
pub mod queue;

pub use inject::{
    chaos_seed, chaos_seed_count, Action, DispatchSite, FaultPlan, Injector, Kill, PauseAt,
    Scenario, ShardLoss, SlowLink,
};
pub use queue::EventQueue;

/// An event loop could not make progress: nothing could be dispatched,
/// nothing in flight will complete, and work remains. Under injected worker
/// death this is an expected, bounded outcome; `gpusim::Schedule::simulate`
/// turns it into its historical deadlock panic.
#[derive(Debug, Clone, PartialEq)]
pub struct Stall {
    /// Simulated time, in seconds, at which progress stopped.
    pub at: f64,
    /// Descriptions of the blocked work.
    pub stuck: Vec<String>,
}

impl std::fmt::Display for Stall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scheduler stall at t={}: {:?}", self.at, self.stuck)
    }
}

impl std::error::Error for Stall {}
