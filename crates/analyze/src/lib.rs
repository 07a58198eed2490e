//! mggcn-analyze — static verification of recorded schedules.
//!
//! The engine warns that "a schedule missing a double-buffer WAR
//! dependency will corrupt real data the same way real hardware would"
//! (`gpusim::engine`). This crate turns that class of bug into a static
//! finding: every op declares the logical buffers it reads and writes
//! ([`mggcn_gpusim::Effects`]), and the analyses run over the
//! happens-before relation induced by lane FIFOs, the recorded waits, and
//! collective rendezvous ([`hb::Hb`]). The production recorders infer
//! their waits from those same declarations (`mggcn_gpusim::deps`), so for
//! them pass 1 audits a property that holds by construction — with an
//! independent implementation (a full reachability closure, not the
//! recorder's vector clocks):
//!
//! 1. **Hazard detection** — every RAW/WAR/WAW pair on the same buffer
//!    must be HB-ordered ([`Finding::Hazard`] otherwise);
//! 2. **Deadlock-freedom** — the dependency digraph must be acyclic; a
//!    cycle is exactly a simulator deadlock and a threaded-backend hang
//!    ([`Finding::Deadlock`]);
//! 3. **Def-use dataflow** — every read of a scratch-family buffer must
//!    see a happens-before writer ([`Finding::UninitRead`]), and writes
//!    nothing ever consumes are advisory [`Warning::DeadWrite`]s;
//! 4. **Liveness coloring** — big-buffer live ranges must be colorable
//!    within `core::memplan`'s `L + 3` budget ([`Finding::OverBudget`];
//!    see [`liveness`]).
//!
//! Two further passes verify the *inputs* of the above rather than the
//! schedule itself:
//!
//! * [`audit::audit_effects`] — the effect-soundness oracle. It diffs the
//!   declared `Effects` against the [`mggcn_gpusim::ActualEffects`] a
//!   shadow-interpreted run observed, so a body touching an undeclared
//!   buffer (which would make every analysis above unsound) is a hard
//!   finding.
//! * [`dpor::model_check`] — a sleep-set DPOR model checker that executes
//!   every HB-distinct linearization of a small schedule and asserts the
//!   final weights are bit-identical, proving the declared dependency
//!   structure (not just the one simulated order) determines the result.
//!
//! Entry points: [`analyze`] (hazards + deadlock + def-use),
//! [`analyze_budget`] (adds the liveness bound), and [`preflight`] (the
//! cheap gate `mggcn-exec` runs before spawning workers). The CLI surface
//! is `mggcn analyze` (with `--audit-effects`, `--model-check`, `--json`).
//!
//! Findings and warnings are reported in a deterministic order (sorted by
//! class, anchor op ids, buffer, kind) so rendered reports and `--json`
//! output are byte-stable across runs.

#![forbid(unsafe_code)]

pub mod audit;
pub mod dpor;
pub mod hb;
pub mod liveness;

pub use audit::{audit_effects, EffectAudit};
pub use dpor::{model_check, Divergence, DporOptions, DporResult};
pub use hb::Hb;
pub use liveness::Liveness;

use mggcn_gpusim::{BufId, OpId, OpInfo, Schedule};
use std::collections::BTreeMap;
use std::fmt;

/// Data-race kind, named from the id-order of the unordered pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HazardKind {
    /// Read-after-write unordered.
    Raw,
    /// Write-after-read unordered (the dropped double-buffer edge class).
    War,
    /// Write-after-write unordered.
    Waw,
}

impl HazardKind {
    pub fn name(&self) -> &'static str {
        match self {
            HazardKind::Raw => "RAW",
            HazardKind::War => "WAR",
            HazardKind::Waw => "WAW",
        }
    }
}

/// One verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// Two conflicting accesses to `buf` with no happens-before order:
    /// the body outcome depends on simulated timing — real corruption.
    Hazard {
        kind: HazardKind,
        buf: BufId,
        first: OpId,
        first_label: &'static str,
        second: OpId,
        second_label: &'static str,
    },
    /// The dependency digraph has a cycle: the schedule deadlocks in the
    /// simulator and hangs the threaded backend.
    Deadlock { cycle: Vec<OpId> },
    /// A GPU's live ranges need more big buffers than the plan budgets.
    OverBudget { gpu: usize, needed: usize, budget: usize },
    /// An epoch-tagged op reads `buf` whose last happens-before writer ran
    /// `age` epochs earlier, without declaring a sufficient
    /// [`mggcn_gpusim::StaleRead`] bound. Cross-epoch consumption must be
    /// *explicit state*, never an accident: a bounded-staleness pipeline
    /// declares every such read (and is then clean); anything else is a
    /// latent ordering bug even though the pair is HB-ordered.
    StaleRead {
        buf: BufId,
        writer: OpId,
        writer_label: &'static str,
        reader: OpId,
        reader_label: &'static str,
        /// Actual epoch gap between writer and reader.
        age: usize,
        /// The bound the reader declared, if any (insufficient when `Some`).
        declared: Option<usize>,
    },
    /// An op reads a scratch-family buffer with no happens-before writer:
    /// the value consumed is whatever the allocator left there. Scratch
    /// buffers carry no cross-schedule state, so this is always a bug.
    UninitRead { op: OpId, label: &'static str, buf: BufId },
    /// The shadow interpreter observed the op's body reading `buf`, but
    /// the site never declared the read: the hazard analysis ran on an
    /// unsound footprint.
    UndeclaredRead { op: OpId, label: &'static str, buf: BufId },
    /// The shadow interpreter observed the op's body writing `buf`
    /// without a declaration — the worst class: every pass above assumed
    /// this op leaves `buf` alone.
    UndeclaredWrite { op: OpId, label: &'static str, buf: BufId },
    /// The shadow interpreter observed the op consuming `buf` at `age`
    /// epochs old, exceeding the declared [`mggcn_gpusim::StaleRead`]
    /// bound (or with none declared).
    UndeclaredStaleAge {
        op: OpId,
        label: &'static str,
        buf: BufId,
        /// Observed age: reader epoch minus last-writer epoch.
        age: usize,
        /// The declared bound, if any (insufficient when `Some`).
        declared: Option<usize>,
    },
}

impl Finding {
    /// Deterministic report order: class, anchor op ids, buffer, kind —
    /// independent of detection order, so `render()` and `--json` output
    /// are byte-stable.
    fn sort_key(&self) -> (u8, usize, usize, Option<BufId>, u8) {
        match self {
            Finding::Deadlock { .. } => (0, 0, 0, None, 0),
            Finding::Hazard { kind, buf, first, second, .. } => {
                let k = match kind {
                    HazardKind::Raw => 0,
                    HazardKind::War => 1,
                    HazardKind::Waw => 2,
                };
                (1, *first, *second, Some(*buf), k)
            }
            Finding::StaleRead { reader, writer, buf, .. } => (2, *reader, *writer, Some(*buf), 0),
            Finding::UninitRead { op, buf, .. } => (3, *op, 0, Some(*buf), 0),
            Finding::UndeclaredRead { op, buf, .. } => (4, *op, 0, Some(*buf), 0),
            Finding::UndeclaredWrite { op, buf, .. } => (4, *op, 0, Some(*buf), 1),
            Finding::UndeclaredStaleAge { op, buf, .. } => (4, *op, 0, Some(*buf), 2),
            Finding::OverBudget { gpu, .. } => (5, *gpu, 0, None, 0),
        }
    }
}

/// Sort findings into the canonical order and drop exact duplicates.
pub(crate) fn canonicalize(findings: &mut Vec<Finding>) {
    findings.sort_by_key(Finding::sort_key);
    findings.dedup();
}

/// An advisory observation: not a correctness failure, but a declaration
/// or schedule shape worth a second look. Warnings never fail
/// [`Report::clean`] or [`preflight`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Warning {
    /// The site declares a read the shadow-interpreted body never
    /// performed. Over-declaration only costs precision (extra hazard
    /// edges), never soundness. Expected on the classic 1.5D reduce,
    /// which declares its `RP` source but refolds from shards.
    OverDeclaredRead { op: OpId, label: &'static str, buf: BufId },
    /// The site declares a write the body never performed (and the
    /// buffer is not a declared-and-observed read — a read-modify-write
    /// site may legitimately leave the bytes unchanged).
    OverDeclaredWrite { op: OpId, label: &'static str, buf: BufId },
    /// A scratch-family write no happens-before-later op ever reads.
    /// Legitimate at partition boundaries (e.g. a singleton-group
    /// broadcast anchor), suspicious elsewhere.
    DeadWrite { op: OpId, label: &'static str, buf: BufId },
}

impl Warning {
    fn sort_key(&self) -> (u8, usize, BufId) {
        match self {
            Warning::OverDeclaredRead { op, buf, .. } => (0, *op, *buf),
            Warning::OverDeclaredWrite { op, buf, .. } => (1, *op, *buf),
            Warning::DeadWrite { op, buf, .. } => (2, *op, *buf),
        }
    }
}

/// Sort warnings into the canonical order and drop exact duplicates.
pub(crate) fn canonicalize_warnings(warnings: &mut Vec<Warning>) {
    warnings.sort_by_key(Warning::sort_key);
    warnings.dedup();
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Warning::OverDeclaredRead { op, label, buf } => write!(
                f,
                "over-declared read of {buf}: op {op} ({label}) declares it but the body \
                 never reads it"
            ),
            Warning::OverDeclaredWrite { op, label, buf } => write!(
                f,
                "over-declared write of {buf}: op {op} ({label}) declares it but the body \
                 never writes it"
            ),
            Warning::DeadWrite { op, label, buf } => write!(
                f,
                "dead write of {buf}: op {op} ({label}) writes it but no later op reads it"
            ),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::Hazard { kind, buf, first, first_label, second, second_label } => write!(
                f,
                "{} hazard on {buf}: op {first} ({first_label}) and op {second} \
                 ({second_label}) are not ordered",
                kind.name()
            ),
            Finding::Deadlock { cycle } => {
                let ids: Vec<String> = cycle.iter().map(|id| id.to_string()).collect();
                write!(f, "dependency cycle (deadlock): ops [{}]", ids.join(" -> "))
            }
            Finding::OverBudget { gpu, needed, budget } => {
                write!(f, "GPU {gpu} needs {needed} big buffers but the plan budgets {budget}")
            }
            Finding::StaleRead {
                buf,
                writer,
                writer_label,
                reader,
                reader_label,
                age,
                declared,
            } => match declared {
                None => write!(
                    f,
                    "undeclared stale read of {buf}: op {reader} ({reader_label}) consumes \
                         op {writer} ({writer_label}) from {age} epoch(s) earlier without a \
                         StaleRead declaration"
                ),
                Some(d) => write!(
                    f,
                    "under-declared stale read of {buf}: op {reader} ({reader_label}) \
                         declares age<={d} but consumes op {writer} ({writer_label}) from \
                         {age} epoch(s) earlier"
                ),
            },
            Finding::UninitRead { op, label, buf } => write!(
                f,
                "uninitialized read of {buf}: op {op} ({label}) has no happens-before writer"
            ),
            Finding::UndeclaredRead { op, label, buf } => write!(
                f,
                "undeclared read of {buf}: op {op} ({label}) actually reads it but the \
                 site declares no read"
            ),
            Finding::UndeclaredWrite { op, label, buf } => write!(
                f,
                "undeclared write of {buf}: op {op} ({label}) actually writes it but the \
                 site declares no write"
            ),
            Finding::UndeclaredStaleAge { op, label, buf, age, declared } => match declared {
                None => write!(
                    f,
                    "undeclared stale consumption of {buf}: op {op} ({label}) actually \
                     consumes a value {age} epoch(s) old with no StaleRead declaration"
                ),
                Some(d) => write!(
                    f,
                    "under-declared stale consumption of {buf}: op {op} ({label}) declares \
                     age<={d} but actually consumes a value {age} epoch(s) old"
                ),
            },
        }
    }
}

/// The big-buffer family names and budget the liveness analysis checks.
#[derive(Clone, Debug)]
pub struct BudgetSpec {
    /// Buffer family names counted as "big" (per-GPU `n/P × d` buffers).
    pub names: Vec<&'static str>,
    /// Maximum allocations the plan budgets per GPU.
    pub budget: usize,
}

impl BudgetSpec {
    /// The MG-GCN §4.2 plan: `L` activation buffers + `HW` + the two
    /// broadcast buffers, for a model with `layers` layers.
    pub fn mg_gcn(layers: usize) -> Self {
        Self { names: vec!["AHW", "HW", "BC1", "BC2"], budget: layers + 3 }
    }

    /// The 1.5D (c = 2) plan: everything in [`BudgetSpec::mg_gcn`] plus the
    /// replicated-partial buffer `RP` that accumulates the mate partition's
    /// SpMM result between the intra-group broadcasts and the cross-group
    /// reduction — the §5.1 memory-replication cost, L+4 per GPU.
    pub fn mg_gcn_15d(layers: usize) -> Self {
        Self { names: vec!["AHW", "HW", "BC1", "BC2", "RP"], budget: layers + 4 }
    }

    /// Extend a plan with the bounded-staleness snapshot family `SF`:
    /// `sf` extra per-GPU big buffers hold the previous epoch's broadcast
    /// sources (one per non-constant broadcast source; the 2-layer spmm-first
    /// model needs exactly one, hence the §15 L+4 → L+5 delta on 1.5D).
    pub fn with_staleness(mut self, sf: usize) -> Self {
        if sf > 0 {
            self.names.push("SF");
            self.budget += sf;
        }
        self
    }
}

/// Result of verifying one schedule.
#[derive(Clone, Debug)]
pub struct Report {
    /// Ops in the schedule.
    pub ops: usize,
    /// Deduplicated dependency edges (lane-FIFO adjacency + waits).
    pub edges: usize,
    /// All verification failures, in the canonical (class, op, buffer,
    /// kind) order.
    pub findings: Vec<Finding>,
    /// Advisory observations (never fail [`Report::clean`]), in the
    /// canonical order.
    pub warnings: Vec<Warning>,
    /// Liveness result; `None` when the schedule deadlocks or has
    /// hazards (ranges are ill-defined then), or when no op declares
    /// effects on the requested buffer families.
    pub liveness: Option<Liveness>,
    /// The budget the liveness result was checked against, if any.
    pub budget: Option<usize>,
}

impl Report {
    /// No findings of any class.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable summary (the non-`--dump` CLI output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} ops, {} dependency edges", self.ops, self.edges);
        if let Some(lv) = &self.liveness {
            let budget = self.budget.map(|b| format!(", budget {b}")).unwrap_or_default();
            let _ = writeln!(
                out,
                "liveness: {} big buffers named, {} needed{budget}",
                lv.buffers_bound, lv.buffers_needed
            );
            for &(gpu, named, needed) in &lv.per_gpu {
                let _ = writeln!(out, "  gpu {gpu}: {named} named, {needed} needed");
            }
        }
        if self.findings.is_empty() {
            let _ = writeln!(out, "no findings");
        } else {
            let _ = writeln!(out, "{} finding(s):", self.findings.len());
            for f in &self.findings {
                let _ = writeln!(out, "  {f}");
            }
        }
        if !self.warnings.is_empty() {
            let _ = writeln!(out, "{} warning(s):", self.warnings.len());
            for w in &self.warnings {
                let _ = writeln!(out, "  {w}");
            }
        }
        out
    }

    /// Absorb findings and warnings produced by an auxiliary pass (e.g.
    /// the effect audit) and re-establish the canonical order.
    pub fn absorb(&mut self, findings: Vec<Finding>, warnings: Vec<Warning>) {
        self.findings.extend(findings);
        self.warnings.extend(warnings);
        canonicalize(&mut self.findings);
        canonicalize_warnings(&mut self.warnings);
    }
}

/// Verify hazards + deadlock-freedom over recorded op metadata; with a
/// [`BudgetSpec`], also check the liveness coloring against the budget.
pub fn analyze_ops(ops: &[OpInfo<'_>], budget: Option<&BudgetSpec>) -> Report {
    let hb = Hb::of_ops(ops);
    let mut findings = Vec::new();

    if let Some(cycle) = &hb.cycle {
        findings.push(Finding::Deadlock { cycle: clone_cycle(cycle) });
        return Report {
            ops: ops.len(),
            edges: hb.edges.len(),
            findings,
            warnings: Vec::new(),
            liveness: None,
            budget: budget.map(|b| b.budget),
        };
    }

    // Hazards: merge each op's accesses per buffer first, then check every
    // conflicting op *pair* for HB order. Merging (rather than walking raw
    // access-list pairs) yields exactly one finding per unordered (pair,
    // buffer) with a canonical kind — both-write is WAW even when a side
    // also reads, writer-first is RAW, reader-first is WAR — so symmetric
    // duplicates cannot arise and the report is deterministic.
    let mut accesses: BTreeMap<BufId, BTreeMap<OpId, (bool, bool, &'static str)>> = BTreeMap::new();
    for op in ops {
        for &b in &op.effects.reads {
            accesses
                .entry(b)
                .or_default()
                .entry(op.id)
                .or_insert((false, false, op.desc.label))
                .0 = true;
        }
        for &b in &op.effects.writes {
            accesses
                .entry(b)
                .or_default()
                .entry(op.id)
                .or_insert((false, false, op.desc.label))
                .1 = true;
        }
    }
    for (&buf, by_op) in &accesses {
        let list: Vec<(OpId, bool, bool, &'static str)> =
            by_op.iter().map(|(&id, &(r, w, label))| (id, r, w, label)).collect();
        for (i, &(first, _, first_w, first_label)) in list.iter().enumerate() {
            for &(second, _, second_w, second_label) in &list[i + 1..] {
                if !first_w && !second_w {
                    continue; // read/read never conflicts
                }
                if hb.ordered(first, second) || hb.ordered(second, first) {
                    continue;
                }
                let kind = match (first_w, second_w) {
                    (true, true) => HazardKind::Waw,
                    (true, false) => HazardKind::Raw,
                    (false, true) => HazardKind::War,
                    (false, false) => unreachable!("read/read pairs are skipped"),
                };
                findings.push(Finding::Hazard {
                    kind,
                    buf,
                    first,
                    first_label,
                    second,
                    second_label,
                });
            }
        }
    }

    // Cross-epoch pass (fused bounded-staleness schedules only): a read
    // whose *last* happens-before writer belongs to an earlier epoch is a
    // stale consumption and must carry a sufficient StaleRead declaration.
    // Such pairs are HB-ordered — the plain hazard pass cannot see them —
    // but an undeclared one means the schedule silently trains on old
    // state. Classic one-epoch schedules carry no epoch tags and skip
    // this entirely.
    if ops.iter().any(|op| op.desc.epoch.is_some()) && hb.cycle.is_none() {
        type WriterRec = (OpId, Option<usize>, &'static str);
        let mut writers: BTreeMap<BufId, Vec<WriterRec>> = BTreeMap::new();
        for op in ops {
            for &b in &op.effects.writes {
                writers.entry(b).or_default().push((op.id, op.desc.epoch, op.desc.label));
            }
        }
        for op in ops {
            let Some(reader_epoch) = op.desc.epoch else { continue };
            for &b in &op.effects.reads {
                let Some(list) = writers.get(&b) else { continue };
                let mut last: Option<WriterRec> = None;
                for &(w, we, wl) in list {
                    if w == op.id || !hb.ordered(w, op.id) {
                        continue;
                    }
                    if last.is_none_or(|(l, _, _)| hb.topo_pos(l) < hb.topo_pos(w)) {
                        last = Some((w, we, wl));
                    }
                }
                let Some((writer, Some(writer_epoch), writer_label)) = last else { continue };
                let age = reader_epoch.saturating_sub(writer_epoch);
                if age == 0 {
                    continue;
                }
                let declared = op.effects.stale_age(b);
                if declared.is_some_and(|d| d >= age) {
                    continue;
                }
                let finding = Finding::StaleRead {
                    buf: b,
                    writer,
                    writer_label,
                    reader: op.id,
                    reader_label: op.desc.label,
                    age,
                    declared,
                };
                if !findings.contains(&finding) {
                    findings.push(finding);
                }
            }
        }
    }

    // Def-use dataflow (hazard-free schedules only — "before" needs an
    // unambiguous order): over the scratch families, which carry no
    // cross-schedule state, a read must see a happens-before writer or it
    // consumes whatever the allocator left behind. The dual — a write no
    // later op ever reads — is only advisory: partition boundaries
    // legitimately leave a few (e.g. a singleton-group broadcast anchor).
    let mut warnings = Vec::new();
    if findings.is_empty() {
        const SCRATCH: [&str; 6] = ["AHW", "HW", "BC1", "BC2", "RP", "WG"];
        let scratch = |b: BufId| SCRATCH.contains(&b.name);
        let mut writers: BTreeMap<BufId, Vec<OpId>> = BTreeMap::new();
        let mut readers: BTreeMap<BufId, Vec<OpId>> = BTreeMap::new();
        for op in ops {
            for &b in &op.effects.writes {
                writers.entry(b).or_default().push(op.id);
            }
            for &b in &op.effects.reads {
                readers.entry(b).or_default().push(op.id);
            }
            for s in &op.effects.stale_reads {
                readers.entry(s.buf).or_default().push(op.id);
            }
        }
        for op in ops {
            for &b in &op.effects.reads {
                if !scratch(b) {
                    continue;
                }
                let initialized = writers
                    .get(&b)
                    .is_some_and(|ws| ws.iter().any(|&w| w != op.id && hb.ordered(w, op.id)));
                if !initialized {
                    findings.push(Finding::UninitRead { op: op.id, label: op.desc.label, buf: b });
                }
            }
            for &b in &op.effects.writes {
                if !scratch(b) {
                    continue;
                }
                let consumed = readers
                    .get(&b)
                    .is_some_and(|rs| rs.iter().any(|&r| r != op.id && hb.ordered(op.id, r)));
                if !consumed {
                    warnings.push(Warning::DeadWrite { op: op.id, label: op.desc.label, buf: b });
                }
            }
        }
    }

    // Liveness only over hazard-free, fully-initialized schedules.
    let liveness = if findings.is_empty() {
        budget.and_then(|spec| {
            let lv = liveness::liveness(ops, &hb, &spec.names);
            if lv.buffers_bound == 0 {
                return None; // no effects declared on these families
            }
            for &(gpu, _, needed) in &lv.per_gpu {
                if needed > spec.budget {
                    findings.push(Finding::OverBudget { gpu, needed, budget: spec.budget });
                }
            }
            Some(lv)
        })
    } else {
        None
    };

    canonicalize(&mut findings);
    canonicalize_warnings(&mut warnings);
    Report {
        ops: ops.len(),
        edges: hb.edges.len(),
        findings,
        warnings,
        liveness,
        budget: budget.map(|b| b.budget),
    }
}

fn clone_cycle(cycle: &[OpId]) -> Vec<OpId> {
    cycle.to_vec()
}

/// Verify a recorded schedule: hazards + deadlock-freedom.
pub fn analyze<Ctx>(sched: &Schedule<Ctx>) -> Report {
    analyze_ops(&sched.op_infos(), None)
}

/// Verify a recorded schedule including the liveness budget check.
pub fn analyze_budget<Ctx>(sched: &Schedule<Ctx>, spec: &BudgetSpec) -> Report {
    analyze_ops(&sched.op_infos(), Some(spec))
}

/// Cheap pre-flight gate for executors: hazards + deadlock only. Returns
/// the first finding rendered, so a racy or deadlocking schedule is
/// rejected before any worker thread starts.
pub fn preflight<Ctx>(sched: &Schedule<Ctx>) -> Result<(), String> {
    let report = analyze(sched);
    match report.findings.first() {
        None => Ok(()),
        Some(f) => Err(format!(
            "schedule fails static verification ({} finding(s)); first: {f}",
            report.findings.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_gpusim::engine::OpDesc;
    use mggcn_gpusim::{Category, Effects, GpuSpec, MachineSpec, Work};

    fn machine(n: usize) -> MachineSpec {
        MachineSpec::uniform("test", GpuSpec::v100(), n, 6, 25.0e9)
    }

    fn fixed() -> Work {
        Work::Fixed { seconds: 0.1 }
    }

    fn desc(label: &'static str) -> OpDesc {
        OpDesc::new(Category::Other, label)
    }

    fn bc(gpu: usize, slot: usize) -> BufId {
        BufId::new(gpu, if slot == 0 { "BC1" } else { "BC2" })
    }

    /// Two ops on different streams touching one buffer, no edge.
    #[test]
    fn unordered_conflict_is_a_hazard() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        let w = s.record(0, 0, fixed(), desc("w"), Effects::none().writes([bc(0, 0)]), None);
        let rd = s.record(0, 1, fixed(), desc("r"), Effects::none().reads([bc(0, 0)]), None);
        s.remove_wait(rd, w);
        let r = analyze(&s);
        assert_eq!(r.findings.len(), 1);
        match &r.findings[0] {
            Finding::Hazard { kind, first, second, .. } => {
                assert_eq!(*kind, HazardKind::Raw);
                assert_eq!((*first, *second), (0, 1));
            }
            other => panic!("expected hazard, got {other}"),
        }
    }

    #[test]
    fn wait_edge_resolves_the_hazard() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        let w = s.record(0, 0, fixed(), desc("w"), Effects::none().writes([bc(0, 0)]), None);
        let r = s.record(0, 1, fixed(), desc("r"), Effects::none().reads([bc(0, 0)]), None);
        assert_eq!(s.wait_edges(), vec![(r, w)]);
        assert!(analyze(&s).clean());
    }

    #[test]
    fn lane_fifo_resolves_the_hazard() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("w"), Effects::none().writes([bc(0, 0)]), None);
        s.record(0, 0, fixed(), desc("r"), Effects::none().reads([bc(0, 0)]), None);
        assert!(analyze(&s).clean());
    }

    #[test]
    fn reads_never_conflict() {
        let mut s: Schedule<()> = Schedule::new(machine(2));
        let w = s.record(0, 0, fixed(), desc("init"), Effects::none().writes([bc(0, 0)]), None);
        s.record(0, 0, fixed(), desc("r1"), Effects::none().reads([bc(0, 0)]), None);
        let r2 = s.record(1, 0, fixed(), desc("r2"), Effects::none().reads([bc(0, 0)]), None);
        assert_eq!(s.wait_edges(), vec![(r2, w)], "readers never wait on each other");
        assert!(analyze(&s).clean());
    }

    #[test]
    fn uninitialized_scratch_read_is_a_finding() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("r"), Effects::none().reads([bc(0, 0)]), None);
        let r = analyze(&s);
        assert!(matches!(r.findings[..], [Finding::UninitRead { op: 0, .. }]));
        assert!(r.findings[0].to_string().contains("uninitialized read of BC1@g0"));
        assert!(preflight(&s).is_err(), "preflight must reject uninit reads");
    }

    #[test]
    fn non_scratch_families_skip_the_def_use_pass() {
        // X (input features) and W (persistent weights) hold state the
        // schedule legitimately never writes.
        let mut s: Schedule<()> = Schedule::new(machine(1));
        let x = BufId::new(0, "X");
        let w = BufId::indexed(0, "W", 0);
        s.record(0, 0, fixed(), desc("gemm"), Effects::none().reads([x, w]), None);
        assert!(analyze(&s).clean());
    }

    #[test]
    fn dead_scratch_write_is_a_warning_not_a_finding() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("w"), Effects::none().writes([bc(0, 0)]), None);
        let r = analyze(&s);
        assert!(r.clean(), "warnings must not fail clean()");
        assert!(matches!(r.warnings[..], [Warning::DeadWrite { op: 0, .. }]));
        assert!(r.render().contains("dead write of BC1@g0"));
        assert!(preflight(&s).is_ok());
    }

    #[test]
    fn rmw_own_read_does_not_initialize_or_consume() {
        // An op that RMWs an otherwise-untouched scratch buffer is both an
        // uninit read (its own write is not HB-before its read) — nothing
        // else initializes or consumes the buffer.
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("rmw"), Effects::none().rw(bc(0, 0)), None);
        let r = analyze(&s);
        assert!(matches!(r.findings[..], [Finding::UninitRead { op: 0, .. }]));
    }

    /// The merged hazard pass emits exactly one finding per unordered
    /// (pair, buffer), with both-write collapsing to WAW even when one
    /// side also reads — and two analyze runs render byte-identically.
    #[test]
    fn hazard_findings_are_deduped_and_deterministic() {
        let build = || {
            let mut s: Schedule<()> = Schedule::new(machine(1));
            // Op 0 RMWs, op 1 writes, unordered: the raw access pairs are
            // (r0,w1) and (w0,w1), but the canonical report is one WAW.
            s.record(0, 0, fixed(), desc("rmw"), Effects::none().rw(bc(0, 0)), None);
            s.record(0, 1, fixed(), desc("w"), Effects::none().writes([bc(0, 0)]), None);
            s.remove_wait(1, 0);
            s
        };
        let r = analyze(&build());
        assert_eq!(r.findings.len(), 1);
        assert!(matches!(
            r.findings[0],
            Finding::Hazard { kind: HazardKind::Waw, first: 0, second: 1, .. }
        ));
        assert_eq!(analyze(&build()).render(), r.render());
    }

    #[test]
    fn distinct_buffers_never_conflict() {
        let mut s: Schedule<()> = Schedule::new(machine(2));
        s.record(0, 0, fixed(), desc("w0"), Effects::none().writes([bc(0, 0)]), None);
        // Same name, different GPU: a different physical buffer.
        s.record(1, 0, fixed(), desc("w1"), Effects::none().writes([bc(1, 0)]), None);
        assert!(analyze(&s).clean());
    }

    #[test]
    fn war_kind_is_reported() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("r"), Effects::none().reads([bc(0, 0)]), None);
        s.record(0, 1, fixed(), desc("w"), Effects::none().writes([bc(0, 0)]), None);
        s.remove_wait(1, 0);
        let r = analyze(&s);
        match &r.findings[0] {
            Finding::Hazard { kind, .. } => assert_eq!(*kind, HazardKind::War),
            other => panic!("expected WAR, got {other}"),
        }
    }

    #[test]
    fn deadlock_preempts_other_analyses() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 1, fixed(), desc("p"), Effects::none(), None);
        let x = s.record(0, 0, fixed(), desc("x"), Effects::none(), None);
        let y = s.record(0, 0, fixed(), desc("y"), Effects::none(), None);
        s.add_wait(x, y);
        let r = analyze_budget(&s, &BudgetSpec::mg_gcn(2));
        assert_eq!(r.findings.len(), 1);
        assert!(matches!(r.findings[0], Finding::Deadlock { .. }));
        assert!(r.liveness.is_none());
        assert!(preflight(&s).is_err());
    }

    /// Double-buffered broadcast pipeline: serial analysis needs 1 BC
    /// buffer, overlapped needs 2, and an over-tight budget is flagged.
    #[test]
    fn liveness_counts_overlapping_bc_ranges() {
        let build = |overlapped: bool| {
            let mut s: Schedule<()> = Schedule::new(machine(1));
            let comm = usize::from(overlapped);
            for stage in 0..4 {
                let slot = stage % 2;
                // WAR: the slot's next broadcast waits on its last reader.
                s.record(
                    0,
                    comm,
                    fixed(),
                    desc("bcast"),
                    Effects::none().writes([bc(0, slot)]),
                    None,
                );
                s.record(0, 0, fixed(), desc("spmm"), Effects::none().reads([bc(0, slot)]), None);
            }
            s
        };
        let serial = analyze_budget(&build(false), &BudgetSpec::mg_gcn(0));
        assert!(serial.clean(), "{}", serial.render());
        assert_eq!(serial.liveness.as_ref().unwrap().buffers_needed, 1);

        let overlapped = analyze_budget(&build(true), &BudgetSpec::mg_gcn(0));
        assert!(overlapped.clean(), "{}", overlapped.render());
        let lv = overlapped.liveness.as_ref().unwrap();
        assert_eq!(lv.buffers_bound, 2);
        assert_eq!(lv.buffers_needed, 2);

        // Budget 1 (layers such that L+3 == 1 is impossible via mg_gcn;
        // hand-roll) must flag the overlapped pipeline.
        let spec = BudgetSpec { names: vec!["BC1", "BC2"], budget: 1 };
        let tight = analyze_budget(&build(true), &spec);
        assert!(matches!(
            tight.findings[..],
            [Finding::OverBudget { gpu: 0, needed: 2, budget: 1 }]
        ));
    }

    #[test]
    fn budget_15d_adds_the_rp_family() {
        let spec = BudgetSpec::mg_gcn_15d(2);
        assert_eq!(spec.budget, 6); // L+4
        assert!(spec.names.contains(&"RP"));
        // An op writing RP is counted by the 1.5D spec but invisible to the
        // 1D one — the generalized budget, not a relabeling.
        let mut s: Schedule<()> = Schedule::new(machine(1));
        let rp = BufId::new(0, "RP");
        s.record(0, 0, fixed(), desc("spmm-rp"), Effects::none().writes([rp]), None);
        s.record(0, 0, fixed(), desc("reduce"), Effects::none().reads([rp]), None);
        let r = analyze_budget(&s, &BudgetSpec::mg_gcn_15d(0));
        assert!(r.clean(), "{}", r.render());
        assert_eq!(r.liveness.as_ref().unwrap().buffers_needed, 1);
        assert!(analyze_budget(&s, &BudgetSpec::mg_gcn(0)).liveness.is_none());
    }

    #[test]
    fn rmw_extends_a_range_instead_of_splitting() {
        // write, rmw, read on one buffer = one range; a second buffer
        // defined strictly after it can share the allocation.
        let a = BufId::indexed(0, "AHW", 0);
        let b = BufId::new(0, "HW");
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("def-a"), Effects::none().writes([a]), None);
        s.record(0, 0, fixed(), desc("relu"), Effects::none().rw(a), None);
        s.record(0, 0, fixed(), desc("use-a"), Effects::none().reads([a]), None);
        s.record(0, 0, fixed(), desc("def-b"), Effects::none().writes([b]), None);
        s.record(0, 0, fixed(), desc("use-b"), Effects::none().reads([b]), None);
        let spec = BudgetSpec { names: vec!["AHW", "HW"], budget: 2 };
        let r = analyze_budget(&s, &spec);
        assert!(r.clean());
        let lv = r.liveness.unwrap();
        assert_eq!(lv.buffers_bound, 2);
        assert_eq!(lv.buffers_needed, 1, "disjoint ranges must share");
    }

    #[test]
    fn declared_stale_read_is_clean_undeclared_is_flagged() {
        use mggcn_gpusim::StaleRead;
        let sf = BufId::indexed(0, "SF", 0);
        // Writer in epoch 0, reader in epoch 1, ordered by the lane FIFO:
        // invisible to the hazard pass, caught by the cross-epoch pass.
        let build = |declared: Option<usize>| {
            let mut s: Schedule<()> = Schedule::new(machine(1));
            s.record(
                0,
                0,
                fixed(),
                desc("snapshot").in_epoch(0),
                Effects::none().writes([sf]),
                None,
            );
            let fx = match declared {
                Some(age) => Effects::none().stale([StaleRead { buf: sf, age }]),
                None => Effects::none().reads([sf]),
            };
            s.record(0, 0, fixed(), desc("bcast").in_epoch(1), fx, None);
            s
        };
        assert!(analyze(&build(Some(1))).clean());
        assert!(analyze(&build(Some(2))).clean(), "over-declared bound is fine");
        let r = analyze(&build(None));
        assert_eq!(r.findings.len(), 1);
        assert!(matches!(r.findings[0], Finding::StaleRead { age: 1, declared: None, .. }));
        assert!(r.findings[0].to_string().contains("undeclared stale read of SF.0@g0"));
    }

    #[test]
    fn under_declared_stale_read_is_flagged_with_bound() {
        use mggcn_gpusim::StaleRead;
        let sf = BufId::indexed(0, "SF", 0);
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("snapshot").in_epoch(0), Effects::none().writes([sf]), None);
        s.record(
            0,
            0,
            fixed(),
            desc("bcast").in_epoch(2),
            Effects::none().stale([StaleRead { buf: sf, age: 1 }]),
            None,
        );
        let r = analyze(&s);
        assert!(matches!(r.findings[..], [Finding::StaleRead { age: 2, declared: Some(1), .. }]));
    }

    #[test]
    fn same_epoch_refresh_resets_the_stale_clock() {
        let sf = BufId::indexed(0, "SF", 0);
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("snap0").in_epoch(0), Effects::none().writes([sf]), None);
        s.record(0, 0, fixed(), desc("snap1").in_epoch(1), Effects::none().writes([sf]), None);
        // Last HB-before writer is snap1 (same epoch): no staleness.
        s.record(0, 0, fixed(), desc("read").in_epoch(1), Effects::none().reads([sf]), None);
        assert!(analyze(&s).clean());
    }

    #[test]
    fn untagged_schedules_skip_the_cross_epoch_pass() {
        let sf = BufId::indexed(0, "SF", 0);
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("w"), Effects::none().writes([sf]), None);
        s.record(0, 0, fixed(), desc("r"), Effects::none().reads([sf]), None);
        assert!(analyze(&s).clean());
    }

    #[test]
    fn staleness_budget_adds_the_sf_family() {
        let spec = BudgetSpec::mg_gcn_15d(2).with_staleness(1);
        assert_eq!(spec.budget, 7); // L+5 for the 2-layer 1.5D plan
        assert!(spec.names.contains(&"SF"));
        let unchanged = BudgetSpec::mg_gcn(2).with_staleness(0);
        assert_eq!(unchanged.budget, 5);
        assert!(!unchanged.names.contains(&"SF"));
    }

    #[test]
    fn report_renders_findings_and_counts() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("w"), Effects::none().writes([bc(0, 0)]), None);
        s.record(0, 1, fixed(), desc("r"), Effects::none().reads([bc(0, 0)]), None);
        s.remove_wait(1, 0);
        let r = analyze(&s);
        let text = r.render();
        assert!(text.contains("2 ops"));
        assert!(text.contains("RAW hazard on BC1@g0"));
        assert!(!r.clean());
    }
}
