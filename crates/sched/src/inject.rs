//! Fault/preemption injection.
//!
//! Every dispatch point (`gpusim` op promotion, `exec` worker op dispatch,
//! `cluster` shard batch dispatch) consults an [`Injector`] with a
//! [`DispatchSite`] describing where execution stands and receives an
//! [`Action`] back.  The injector resolves a [`FaultPlan`] — a plain,
//! inspectable list of faults, usually derived from a seed — so every chaos
//! run is replayable bit-for-bit from `MGGCN_CHAOS_SEED`.
//!
//! Determinism rules:
//! * Sites are matched by *structural position* (gpu × per-worker dispatch
//!   index, shard × batch index), never by wall-clock or global counters, so
//!   the same plan fires at the same logical instant regardless of thread
//!   interleaving or pool width.
//! * The no-op injector is exactly side-effect free: slowdown factors are
//!   `1.0` (IEEE-exact identity under multiplication and division) and no
//!   pauses or kills fire, so a fault-free run through the hooks is
//!   bit-identical to one without them.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Default seed when `MGGCN_CHAOS_SEED` is unset.
pub const DEFAULT_CHAOS_SEED: u64 = 0xC0FFEE;

/// Seed for chaos runs: `MGGCN_CHAOS_SEED` or [`DEFAULT_CHAOS_SEED`].
pub fn chaos_seed() -> u64 {
    std::env::var("MGGCN_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(DEFAULT_CHAOS_SEED)
}

/// Number of seeds chaos suites should sweep: `MGGCN_CHAOS_SEEDS` or
/// `default`.  Seeds are `chaos_seed() + i` for `i in 0..count`, so a budget
/// bump widens the sweep without invalidating earlier seeds.
pub fn chaos_seed_count(default: usize) -> usize {
    std::env::var("MGGCN_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// A structural position at which an event loop is about to dispatch work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchSite {
    /// The discrete-event engine is promoting op `seq` (its op id) to the
    /// running set; `(gpu, stream)` is the op's leader lane.
    SimStart { gpu: usize, stream: usize, seq: usize, collective: bool },
    /// The threaded runtime is dispatching, for participant `gpu`, the
    /// `seq`-th op (in issue order) occupying one of that GPU's lanes.
    ExecOp { gpu: usize, seq: usize, collective: bool },
    /// A cluster shard is dispatching its `seq`-th batch.
    BatchDispatch { shard: usize, seq: usize },
}

impl DispatchSite {
    /// The `(unit, seq)` coordinate faults are matched on.
    fn coord(&self) -> (usize, usize) {
        match *self {
            DispatchSite::SimStart { gpu, seq, .. } => (gpu, seq),
            DispatchSite::ExecOp { gpu, seq, .. } => (gpu, seq),
            DispatchSite::BatchDispatch { shard, seq } => (shard, seq),
        }
    }
}

/// What the dispatcher must do at a site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Proceed normally.
    None,
    /// The unit dies here: workers fail the run with a tagged error, the
    /// simulator never starts the op (downstream dependents stall into a
    /// bounded, labeled `Stall`).
    Kill,
    /// Preemption: the unit is descheduled for `seconds` before dispatching.
    Pause { seconds: f64 },
}

/// Kill the unit at dispatch coordinate `(gpu, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    pub gpu: usize,
    pub seq: usize,
}

/// Pause the unit for `seconds` at dispatch coordinate `(gpu, seq)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PauseAt {
    pub gpu: usize,
    pub seq: usize,
    pub seconds: f64,
}

/// Multiply effective link latency (divide bandwidth) for all comm involving
/// `gpu` by `factor` (>= 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowLink {
    pub gpu: usize,
    pub factor: f64,
}

/// Shard `shard` (and its cache node) is lost at time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLoss {
    pub shard: usize,
    pub at: f64,
}

/// A complete, inspectable description of the faults a chaos run injects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    pub kills: Vec<Kill>,
    pub pauses: Vec<PauseAt>,
    pub slow_links: Vec<SlowLink>,
    pub shard_loss: Vec<ShardLoss>,
}

/// Scenario classes the seeded generator knows how to produce.  Dimensions
/// describe the workload so plans land on real dispatch coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Kill one worker at a random dispatch index.
    WorkerDeath { gpus: usize, ops_per_gpu: usize },
    /// Slow the links of 1..=gpus/2+1 GPUs by 2-16x.
    SlowLink { gpus: usize },
    /// Pause 1..=3 dispatches for up to `max_pause` seconds each.
    Preemption { gpus: usize, ops_per_gpu: usize, max_pause: f64 },
    /// Lose one shard at a random time within `horizon` seconds.
    CacheLoss { shards: usize, horizon: f64 },
    /// Degrade one random node's NIC: every GPU on that node gets the same
    /// 2-16x link slowdown. Models an inter-node fabric fault on a
    /// hierarchical machine (GPU indices node-major: node `k` owns GPUs
    /// `k·gpus_per_node..(k+1)·gpus_per_node`).
    NicDegrade { nodes: usize, gpus_per_node: usize },
    /// Kill one worker while the *next* epoch's prefetch broadcasts are
    /// in flight: the dispatch index lands inside the second epoch of a
    /// fused bounded-staleness schedule (`ops_per_epoch` per GPU per
    /// epoch), where epoch e+1's stale broadcasts overlap epoch e's
    /// backward pass (DESIGN §15).
    StaleEpochKill { gpus: usize, ops_per_epoch: usize },
}

impl FaultPlan {
    /// The empty plan: injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
            && self.pauses.is_empty()
            && self.slow_links.is_empty()
            && self.shard_loss.is_empty()
    }

    /// Derive a plan for `scenario` from `seed`.  Same seed + scenario ⇒
    /// same plan, always.
    pub fn seeded(seed: u64, scenario: Scenario) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan { seed, ..FaultPlan::default() };
        match scenario {
            Scenario::WorkerDeath { gpus, ops_per_gpu } => {
                assert!(gpus > 0 && ops_per_gpu > 0);
                plan.kills
                    .push(Kill { gpu: rng.gen_range(0..gpus), seq: rng.gen_range(0..ops_per_gpu) });
            }
            Scenario::SlowLink { gpus } => {
                assert!(gpus > 0);
                let n = rng.gen_range(1..=gpus / 2 + 1);
                let mut hit = vec![false; gpus];
                for _ in 0..n {
                    let g = rng.gen_range(0..gpus);
                    if !hit[g] {
                        hit[g] = true;
                        plan.slow_links
                            .push(SlowLink { gpu: g, factor: rng.gen_range(2.0..=16.0) });
                    }
                }
            }
            Scenario::Preemption { gpus, ops_per_gpu, max_pause } => {
                assert!(gpus > 0 && ops_per_gpu > 0 && max_pause > 0.0);
                let n = rng.gen_range(1..=3usize);
                for _ in 0..n {
                    plan.pauses.push(PauseAt {
                        gpu: rng.gen_range(0..gpus),
                        seq: rng.gen_range(0..ops_per_gpu),
                        seconds: rng.gen_range(max_pause * 0.1..=max_pause),
                    });
                }
            }
            Scenario::NicDegrade { nodes, gpus_per_node } => {
                assert!(nodes > 0 && gpus_per_node > 0);
                let node = rng.gen_range(0..nodes);
                let factor = rng.gen_range(2.0..=16.0);
                for g in node * gpus_per_node..(node + 1) * gpus_per_node {
                    plan.slow_links.push(SlowLink { gpu: g, factor });
                }
            }
            Scenario::StaleEpochKill { gpus, ops_per_epoch } => {
                assert!(gpus > 0 && ops_per_epoch > 0);
                plan.kills.push(Kill {
                    gpu: rng.gen_range(0..gpus),
                    seq: ops_per_epoch + rng.gen_range(0..ops_per_epoch),
                });
            }
            Scenario::CacheLoss { shards, horizon } => {
                assert!(shards > 0 && horizon > 0.0);
                plan.shard_loss.push(ShardLoss {
                    shard: rng.gen_range(0..shards),
                    at: rng.gen_range(0.0..horizon),
                });
            }
        }
        plan
    }
}

/// Resolves a [`FaultPlan`] at dispatch sites.  Shared by reference across
/// worker threads (`Sync`); the fired log is behind a mutex.
#[derive(Debug)]
pub struct Injector {
    plan: FaultPlan,
    fired: Mutex<Vec<String>>,
}

impl Injector {
    /// The no-op injector: every hook is an exact identity.
    pub fn none() -> Self {
        Injector::new(FaultPlan::none())
    }

    pub fn new(plan: FaultPlan) -> Self {
        for s in &plan.slow_links {
            assert!(
                s.factor.is_finite() && s.factor >= 1.0,
                "slow-link factor must be >= 1, got {}",
                s.factor
            );
        }
        for p in &plan.pauses {
            assert!(
                p.seconds.is_finite() && p.seconds >= 0.0,
                "pause must be >= 0 seconds, got {}",
                p.seconds
            );
        }
        Injector { plan, fired: Mutex::new(Vec::new()) }
    }

    /// `true` if this injector can never fire anything.
    pub fn is_noop(&self) -> bool {
        self.plan.is_empty()
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Resolve the action at a dispatch site.  Kills shadow pauses at the
    /// same coordinate.
    pub fn at(&self, site: DispatchSite) -> Action {
        if self.is_noop() {
            return Action::None;
        }
        let (unit, seq) = site.coord();
        if self.plan.kills.iter().any(|k| k.gpu == unit && k.seq == seq) {
            self.log(format!("kill at {site:?}"));
            return Action::Kill;
        }
        let pause: f64 = self
            .plan
            .pauses
            .iter()
            .filter(|p| p.gpu == unit && p.seq == seq)
            .map(|p| p.seconds)
            .sum();
        if pause > 0.0 {
            self.log(format!("pause {pause}s at {site:?}"));
            return Action::Pause { seconds: pause };
        }
        Action::None
    }

    /// Combined slowdown factor for links touching `gpu` (>= 1; exactly
    /// `1.0` when nothing matches, so `bw / factor` is bit-exact).
    pub fn comm_slowdown(&self, gpu: usize) -> f64 {
        let mut factor = 1.0;
        for s in &self.plan.slow_links {
            if s.gpu == gpu {
                factor *= s.factor;
            }
        }
        factor
    }

    /// If shard `shard` is lost at or before `now`, the loss time.
    pub fn shard_down(&self, shard: usize, now: f64) -> Option<f64> {
        self.plan.shard_loss.iter().filter(|l| l.shard == shard && l.at <= now).map(|l| l.at).next()
    }

    /// Log of faults that actually fired, in firing order.
    pub fn fired(&self) -> Vec<String> {
        self.fired.lock().unwrap().clone()
    }

    fn log(&self, entry: String) {
        self.fired.lock().unwrap().push(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_injector_is_exact_identity() {
        let inj = Injector::none();
        assert!(inj.is_noop());
        let site = DispatchSite::ExecOp { gpu: 0, seq: 0, collective: false };
        assert_eq!(inj.at(site), Action::None);
        // Bit-exactness of the slowdown path hinges on the factor being 1.0.
        assert_eq!(inj.comm_slowdown(3).to_bits(), 1.0f64.to_bits());
        assert_eq!(inj.shard_down(0, f64::INFINITY), None);
        assert!(inj.fired().is_empty());
    }

    #[test]
    fn stale_epoch_kill_lands_in_the_second_epoch() {
        let sc = Scenario::StaleEpochKill { gpus: 4, ops_per_epoch: 32 };
        for seed in 0..32 {
            let plan = FaultPlan::seeded(seed, sc);
            assert_eq!(plan.kills.len(), 1);
            let k = plan.kills[0];
            assert!(k.gpu < 4);
            assert!(
                (32..64).contains(&k.seq),
                "seed {seed}: kill at seq {} must land inside epoch 1, where \
                 epoch 2's prefetch broadcasts are in flight",
                k.seq
            );
            assert_eq!(plan, FaultPlan::seeded(seed, sc), "plans must replay");
        }
    }

    #[test]
    fn seeded_plans_replay() {
        let sc = Scenario::Preemption { gpus: 4, ops_per_gpu: 32, max_pause: 0.01 };
        assert_eq!(FaultPlan::seeded(42, sc), FaultPlan::seeded(42, sc));
        let mut differs = false;
        for s in 0..8 {
            if FaultPlan::seeded(s, sc) != FaultPlan::seeded(s + 1, sc) {
                differs = true;
            }
        }
        assert!(differs, "seeds should produce distinct plans");
    }

    #[test]
    fn kill_matches_structural_coordinate_only() {
        let plan = FaultPlan { kills: vec![Kill { gpu: 1, seq: 3 }], ..FaultPlan::none() };
        let inj = Injector::new(plan);
        let hit = DispatchSite::ExecOp { gpu: 1, seq: 3, collective: true };
        let miss = DispatchSite::ExecOp { gpu: 1, seq: 4, collective: true };
        assert_eq!(inj.at(hit), Action::Kill);
        assert_eq!(inj.at(miss), Action::None);
        // Sim sites share the coordinate space on purpose: the same plan can
        // drive either backend.
        let sim = DispatchSite::SimStart { gpu: 1, stream: 0, seq: 3, collective: false };
        assert_eq!(inj.at(sim), Action::Kill);
        assert_eq!(inj.fired().len(), 2);
    }

    #[test]
    fn pauses_accumulate_and_kills_shadow() {
        let plan = FaultPlan {
            kills: vec![Kill { gpu: 0, seq: 0 }],
            pauses: vec![
                PauseAt { gpu: 0, seq: 0, seconds: 0.5 },
                PauseAt { gpu: 2, seq: 1, seconds: 0.25 },
                PauseAt { gpu: 2, seq: 1, seconds: 0.25 },
            ],
            ..FaultPlan::none()
        };
        let inj = Injector::new(plan);
        assert_eq!(
            inj.at(DispatchSite::ExecOp { gpu: 0, seq: 0, collective: false }),
            Action::Kill
        );
        assert_eq!(
            inj.at(DispatchSite::ExecOp { gpu: 2, seq: 1, collective: false }),
            Action::Pause { seconds: 0.5 }
        );
    }

    #[test]
    fn slow_links_compose_and_shard_loss_respects_time() {
        let plan = FaultPlan {
            slow_links: vec![SlowLink { gpu: 0, factor: 2.0 }, SlowLink { gpu: 0, factor: 3.0 }],
            shard_loss: vec![ShardLoss { shard: 1, at: 5.0 }],
            ..FaultPlan::none()
        };
        let inj = Injector::new(plan);
        assert_eq!(inj.comm_slowdown(0), 6.0);
        assert_eq!(inj.comm_slowdown(1), 1.0);
        assert_eq!(inj.shard_down(1, 4.9), None);
        assert_eq!(inj.shard_down(1, 5.0), Some(5.0));
        assert_eq!(inj.shard_down(0, 100.0), None);
    }

    #[test]
    fn nic_degrade_hits_exactly_one_whole_node() {
        for seed in 0..16 {
            let plan = FaultPlan::seeded(seed, Scenario::NicDegrade { nodes: 2, gpus_per_node: 4 });
            assert_eq!(plan.slow_links.len(), 4, "one full node of GPUs");
            let node = plan.slow_links[0].gpu / 4;
            for s in &plan.slow_links {
                assert_eq!(s.gpu / 4, node, "all slowed GPUs share a node");
                assert_eq!(s.factor, plan.slow_links[0].factor, "uniform NIC factor");
                assert!((2.0..=16.0).contains(&s.factor));
            }
            let gpus: Vec<usize> = plan.slow_links.iter().map(|s| s.gpu).collect();
            assert_eq!(gpus, (node * 4..(node + 1) * 4).collect::<Vec<_>>());
            assert!(plan.kills.is_empty() && plan.pauses.is_empty() && plan.shard_loss.is_empty());
        }
    }

    #[test]
    fn env_seed_helpers_have_defaults() {
        // Do not set the env vars here (tests run in one process); just check
        // the defaults are sane when unset.
        if std::env::var("MGGCN_CHAOS_SEED").is_err() {
            assert_eq!(chaos_seed(), DEFAULT_CHAOS_SEED);
        }
        if std::env::var("MGGCN_CHAOS_SEEDS").is_err() {
            assert_eq!(chaos_seed_count(3), 3);
        }
        assert!(chaos_seed_count(0) >= 1);
    }
}
