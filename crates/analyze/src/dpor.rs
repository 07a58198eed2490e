//! DPOR linearization model checking — execute every happens-before-
//! distinct linearization of a schedule and check that the result is
//! identical in all of them.
//!
//! The hazard pass proves *pairwise* conflicting accesses are ordered;
//! this pass proves the global claim the trainer actually relies on: the
//! declared dependency structure pins down the final weights, so any
//! execution order the simulator (or the threaded backend) happens to
//! pick produces bit-identical results. The checker enumerates
//! linear extensions of the HB partial order with **sleep-set partial-
//! order reduction**: two adjacent independent ops commute, so only one
//! representative per Mazurkiewicz trace needs executing. Sleep sets
//! prune the redundant representatives without ever pruning a trace
//! entirely, which keeps the search sound.
//!
//! Two ops are *dependent* when their declared footprints conflict (one
//! writes a buffer the other touches). Treating disjoint-footprint ops
//! as commuting is sound **conditional on the effect-soundness oracle**
//! (pass 1 of the stack): the audit proves each body touches exactly the
//! buffers its site declares, so swapping two adjacent ops with disjoint
//! footprints cannot change any buffer's final contents. Run the audit
//! before trusting the reduction. A hazard-free schedule then has
//! exactly one Mazurkiewicz trace — the single executed representative
//! *is* the proof that every linearization agrees. Setting
//! [`DporOptions::device_dependence`] additionally orders any two ops
//! occupying a shared GPU, exploring orders the footprint relation would
//! prune (a belt-and-braces mode that grows exponentially; pair it with
//! a cap).
//!
//! The caller supplies the execution oracle: a closure mapping a complete
//! linearization to a digest (in practice
//! `mggcn_core::Trainer::linearization_digest`, an FNV hash of every
//! GPU's final weight bits). The first divergent digest is returned as a
//! counterexample; exploration is capped so a pathological schedule
//! reports [`DporResult::truncated`] instead of running forever.

use crate::hb::Hb;
use mggcn_gpusim::{BufId, OpId, OpInfo};
use std::collections::BTreeSet;

/// Knobs for [`model_check`].
#[derive(Clone, Debug)]
pub struct DporOptions {
    /// Maximum complete linearizations to execute before giving up with
    /// `truncated = true`.
    pub max_executions: usize,
    /// Also treat any two ops occupying a shared GPU as dependent, not
    /// just footprint conflicts. Explores device-level interleavings the
    /// (audit-justified) footprint relation prunes; exponentially more
    /// representatives.
    pub device_dependence: bool,
}

impl Default for DporOptions {
    fn default() -> Self {
        Self { max_executions: 4096, device_dependence: false }
    }
}

/// A linearization whose digest differs from the first one executed.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The complete execution order that produced the divergent digest.
    pub order: Vec<OpId>,
    /// Its digest.
    pub digest: u64,
    /// The digest of the first linearization executed.
    pub baseline: u64,
}

/// Outcome of exploring a schedule's linearizations.
#[derive(Clone, Debug)]
pub struct DporResult {
    /// Complete linearizations executed (after sleep-set reduction).
    pub executions: usize,
    /// True when the execution cap stopped exploration early; the
    /// determinism verdict then only covers the executed prefix.
    pub truncated: bool,
    /// Digest of the first linearization, if any was executed.
    pub baseline: Option<u64>,
    /// First counterexample found, if any. Exploration stops at the
    /// first divergence.
    pub divergence: Option<Divergence>,
}

impl DporResult {
    /// Every explored linearization produced the same digest.
    pub fn deterministic(&self) -> bool {
        self.divergence.is_none()
    }
}

struct Search<'a> {
    n: usize,
    /// Direct HB predecessors (lane FIFO + waits + rendezvous edges).
    preds: Vec<Vec<OpId>>,
    /// Symmetric dependence matrix, `n × n` row-major.
    deps: Vec<bool>,
    run: &'a mut dyn FnMut(&[OpId]) -> u64,
    max_executions: usize,
    order: Vec<OpId>,
    done: Vec<bool>,
    result: DporResult,
}

impl Search<'_> {
    fn dependent(&self, a: OpId, b: OpId) -> bool {
        self.deps[a * self.n + b]
    }

    fn finished(&self) -> bool {
        self.result.truncated || self.result.divergence.is_some()
    }

    fn explore(&mut self, sleep: BTreeSet<OpId>) {
        if self.finished() {
            return;
        }
        if self.order.len() == self.n {
            if self.result.executions >= self.max_executions {
                self.result.truncated = true;
                return;
            }
            self.result.executions += 1;
            let digest = (self.run)(&self.order);
            match self.result.baseline {
                None => self.result.baseline = Some(digest),
                Some(baseline) if baseline != digest => {
                    self.result.divergence =
                        Some(Divergence { order: self.order.clone(), digest, baseline });
                }
                _ => {}
            }
            return;
        }
        let enabled: Vec<OpId> = (0..self.n)
            .filter(|&t| !self.done[t] && self.preds[t].iter().all(|&p| self.done[p]))
            .collect();
        // A sleeping transition's subtree is a redundant commutation of a
        // subtree already explored from this node; skipping it here (and
        // dead-ending when nothing else is enabled) is the reduction.
        let mut local_sleep = sleep;
        let candidates: Vec<OpId> =
            enabled.iter().copied().filter(|t| !local_sleep.contains(t)).collect();
        for t in candidates {
            let child_sleep: BTreeSet<OpId> =
                local_sleep.iter().copied().filter(|&s| !self.dependent(s, t)).collect();
            self.done[t] = true;
            self.order.push(t);
            self.explore(child_sleep);
            self.order.pop();
            self.done[t] = false;
            if self.finished() {
                return;
            }
            local_sleep.insert(t);
        }
    }
}

/// Footprint of one op for the dependence relation: buffers written,
/// buffers touched at all, and GPUs occupied.
struct Footprint {
    writes: BTreeSet<BufId>,
    touches: BTreeSet<BufId>,
    gpus: BTreeSet<usize>,
}

impl Footprint {
    fn of(op: &OpInfo<'_>) -> Self {
        let writes: BTreeSet<BufId> = op.effects.writes.iter().copied().collect();
        let touches: BTreeSet<BufId> = op
            .effects
            .reads
            .iter()
            .copied()
            .chain(op.effects.stale_reads.iter().map(|s| s.buf))
            .chain(writes.iter().copied())
            .collect();
        let gpus = op.lanes.iter().map(|&(g, _)| g).collect();
        Self { writes, touches, gpus }
    }

    fn conflicts(&self, other: &Self, device_dependence: bool) -> bool {
        if device_dependence && self.gpus.iter().any(|g| other.gpus.contains(g)) {
            return true;
        }
        self.writes.iter().any(|b| other.touches.contains(b))
            || other.writes.iter().any(|b| self.touches.contains(b))
    }
}

/// Explore every HB-distinct linearization of `ops` (one representative
/// per Mazurkiewicz trace), executing each through `run` and comparing
/// digests. The schedule must be deadlock-free (panics on an HB cycle —
/// run [`crate::analyze_ops`] first).
pub fn model_check(
    ops: &[OpInfo<'_>],
    opts: &DporOptions,
    run: &mut dyn FnMut(&[OpId]) -> u64,
) -> DporResult {
    let hb = Hb::of_ops(ops);
    assert!(hb.cycle.is_none(), "model_check requires a deadlock-free schedule");
    let n = ops.len();
    let mut preds: Vec<Vec<OpId>> = vec![Vec::new(); n];
    for &(from, to) in &hb.edges {
        preds[to].push(from);
    }
    let footprints: Vec<Footprint> = ops.iter().map(Footprint::of).collect();
    let mut deps = vec![false; n * n];
    for a in 0..n {
        for b in (a + 1)..n {
            if footprints[a].conflicts(&footprints[b], opts.device_dependence) {
                deps[a * n + b] = true;
                deps[b * n + a] = true;
            }
        }
    }
    let mut search = Search {
        n,
        preds,
        deps,
        run,
        max_executions: opts.max_executions,
        order: Vec::with_capacity(n),
        done: vec![false; n],
        result: DporResult { executions: 0, truncated: false, baseline: None, divergence: None },
    };
    search.explore(BTreeSet::new());
    search.result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_gpusim::engine::OpDesc;
    use mggcn_gpusim::{Category, Effects, GpuSpec, MachineSpec, Schedule, Work};

    fn machine(n: usize) -> MachineSpec {
        MachineSpec::uniform("test", GpuSpec::v100(), n, 6, 25.0e9)
    }

    fn fixed() -> Work {
        Work::Fixed { seconds: 0.1 }
    }

    fn desc(label: &'static str) -> OpDesc {
        OpDesc::new(Category::Other, label)
    }

    /// Order-sensitive digest: distinguishes any two distinct orders.
    fn order_digest(order: &[OpId]) -> u64 {
        order
            .iter()
            .fold(0xcbf29ce484222325u64, |h, &id| (h ^ id as u64).wrapping_mul(0x100000001b3))
    }

    #[test]
    fn fully_independent_ops_explore_one_representative() {
        // Three ops on three GPUs, disjoint buffers: 6 linearizations,
        // one Mazurkiewicz trace — sleep sets prune to a single run.
        let mut s: Schedule<()> = Schedule::new(machine(3));
        for g in 0..3 {
            s.record(g, 0, fixed(), desc("w"), Effects::none().writes([BufId::new(g, "HW")]), None);
        }
        let mut count = 0usize;
        let r = model_check(&s.op_infos(), &DporOptions::default(), &mut |_| {
            count += 1;
            42
        });
        assert_eq!(r.executions, 1);
        assert_eq!(count, 1);
        assert!(r.deterministic());
        assert!(!r.truncated);
        assert_eq!(r.baseline, Some(42));
    }

    #[test]
    fn dependent_unordered_ops_explore_both_orders_and_catch_divergence() {
        // Two ops writing the same buffer, no wait edge: dependent, so
        // both orders run — and an order-sensitive oracle reports the
        // divergence.
        let mut s: Schedule<()> = Schedule::new(machine(1));
        let shared = BufId::new(0, "HW");
        let a = s.record(0, 0, fixed(), desc("a"), Effects::none().writes([shared]), None);
        let b = s.record(0, 1, fixed(), desc("b"), Effects::none().writes([shared]), None);
        s.remove_wait(b, a);
        let r = model_check(&s.op_infos(), &DporOptions::default(), &mut order_digest);
        assert_eq!(r.executions, 2);
        let d = r.divergence.expect("order-sensitive digest must diverge");
        assert_ne!(d.digest, d.baseline);
        assert_eq!(d.order.len(), 2);
    }

    #[test]
    fn device_dependence_orders_disjoint_footprints_on_a_shared_gpu() {
        // Disjoint buffers on one GPU: independent under the default
        // relation (one representative), dependent in device mode (both
        // orders).
        let build = || {
            let mut s: Schedule<()> = Schedule::new(machine(1));
            s.record(0, 0, fixed(), desc("a"), Effects::none().writes([BufId::new(0, "HW")]), None);
            s.record(0, 1, fixed(), desc("b"), Effects::none().writes([BufId::new(0, "RP")]), None);
            s
        };
        let footprint =
            model_check(&build().op_infos(), &DporOptions::default(), &mut order_digest);
        assert_eq!(footprint.executions, 1);
        let device = model_check(
            &build().op_infos(),
            &DporOptions { device_dependence: true, ..DporOptions::default() },
            &mut order_digest,
        );
        assert_eq!(device.executions, 2);
        assert!(device.divergence.is_some());
    }

    #[test]
    fn wait_edges_leave_a_single_linearization() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        let (x, y) = (BufId::new(0, "X"), BufId::new(0, "Y"));
        let a = s.record(0, 0, fixed(), desc("a"), Effects::none().writes([x]), None);
        let b = s.record(0, 1, fixed(), desc("b"), Effects::none().reads([x]).writes([y]), None);
        let c = s.record(0, 0, fixed(), desc("c"), Effects::none().reads([y]), None);
        assert_eq!(s.wait_edges(), vec![(b, a), (c, b)]);
        let r = model_check(&s.op_infos(), &DporOptions::default(), &mut order_digest);
        assert_eq!(r.executions, 1);
        assert!(r.deterministic());
    }

    #[test]
    fn execution_cap_truncates() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("a"), Effects::none(), None);
        s.record(0, 1, fixed(), desc("b"), Effects::none(), None);
        let r = model_check(
            &s.op_infos(),
            &DporOptions { max_executions: 1, device_dependence: true },
            &mut |_| 7,
        );
        assert_eq!(r.executions, 1);
        assert!(r.truncated);
        assert!(r.deterministic(), "no divergence seen within the cap");
    }

    #[test]
    #[should_panic(expected = "deadlock-free")]
    fn cyclic_schedules_are_rejected() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 1, fixed(), desc("p"), Effects::none(), None);
        let x = s.record(0, 0, fixed(), desc("x"), Effects::none(), None);
        let y = s.record(0, 0, fixed(), desc("y"), Effects::none(), None);
        s.add_wait(x, y);
        let _ = model_check(&s.op_infos(), &DporOptions::default(), &mut |_| 0);
    }

    /// A conflicting-footprint pair on *different* GPUs is still
    /// dependent — buffer conflicts, not just device sharing.
    #[test]
    fn cross_gpu_footprint_conflict_is_dependent() {
        let mut s: Schedule<()> = Schedule::new(machine(2));
        let shared = BufId::new(0, "BC1");
        let w = s.record(0, 0, fixed(), desc("w"), Effects::none().writes([shared]), None);
        let r = s.record(1, 0, fixed(), desc("r"), Effects::none().reads([shared]), None);
        s.remove_wait(r, w);
        let r = model_check(&s.op_infos(), &DporOptions::default(), &mut order_digest);
        assert_eq!(r.executions, 2, "both orders of a dependent pair must run");
        assert!(r.divergence.is_some());
    }
}
