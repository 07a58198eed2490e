//! Effect-soundness oracle — diff declared [`mggcn_gpusim::Effects`]
//! against shadow-observed [`ActualEffects`].
//!
//! Every analysis in this crate trusts the hand-maintained declarations
//! at each `record`/`record_collective` site. This pass closes the loop:
//! `mggcn_core::shadow::record_actual_effects` executes the schedule's
//! bodies against a fresh device state with instrumented accessors and
//! per-op fingerprint diffing, and [`audit_effects`] compares what each
//! body *did* to what its site *declared*:
//!
//! * **Under-declaration is a hard [`Finding`]** — a read, write, or
//!   stale consumption the body performed but the site never declared
//!   means the hazard/HB analysis ran on an unsound footprint; anything
//!   it proved about the schedule is void.
//! * **Over-declaration is a [`Warning`]** — a declared access the body
//!   never exercised only costs precision (extra conservative ordering
//!   edges). A declared write that did not materialize is suppressed
//!   when the site also declares — and the body performed — a read of
//!   the same buffer: a read-modify-write may legitimately write back
//!   bytes identical to what it read, which state diffing cannot see.
//!
//! The observed stale age must be *covered* by the declaration: a
//! [`Finding::UndeclaredStaleAge`] fires iff `actual age > declared
//! bound` (no declaration counts as bound 0).

use crate::{canonicalize, canonicalize_warnings, Finding, Warning};
use mggcn_gpusim::shadow::ActualEffects;
use mggcn_gpusim::{BufId, OpInfo};
use std::collections::BTreeSet;
use std::fmt;

/// Result of auditing one schedule's declarations against one observed
/// run. `clean()` requires zero findings; warnings are advisory.
#[derive(Clone, Debug, Default)]
pub struct EffectAudit {
    pub findings: Vec<Finding>,
    pub warnings: Vec<Warning>,
}

impl EffectAudit {
    /// No under-declarations: the static analyses ran on a sound footprint.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable summary (the `--audit-effects` CLI output).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for EffectAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            writeln!(f, "effect audit: declarations cover every observed access")?;
        } else {
            writeln!(f, "effect audit: {} under-declaration(s):", self.findings.len())?;
            for finding in &self.findings {
                writeln!(f, "  {finding}")?;
            }
        }
        if !self.warnings.is_empty() {
            writeln!(f, "{} warning(s):", self.warnings.len())?;
            for w in &self.warnings {
                writeln!(f, "  {w}")?;
            }
        }
        Ok(())
    }
}

/// Diff each op's declared effects against the actual effects a shadow
/// run observed for it. `actual` must be indexed by op id, exactly as
/// `record_actual_effects` returns it.
pub fn audit_effects(ops: &[OpInfo<'_>], actual: &[ActualEffects]) -> EffectAudit {
    assert_eq!(ops.len(), actual.len(), "actual-effects log must cover every op of the schedule");
    let mut findings = Vec::new();
    let mut warnings = Vec::new();
    for (op, act) in ops.iter().zip(actual) {
        // A StaleRead declaration is a read declaration with an age bound.
        let declared_reads: BTreeSet<BufId> = op
            .effects
            .reads
            .iter()
            .copied()
            .chain(op.effects.stale_reads.iter().map(|s| s.buf))
            .collect();
        let declared_writes: BTreeSet<BufId> = op.effects.writes.iter().copied().collect();

        for &b in &act.reads {
            if !declared_reads.contains(&b) {
                findings.push(Finding::UndeclaredRead { op: op.id, label: op.desc.label, buf: b });
            }
        }
        for &b in &act.writes {
            if !declared_writes.contains(&b) {
                findings.push(Finding::UndeclaredWrite { op: op.id, label: op.desc.label, buf: b });
            }
        }
        for (&b, &age) in &act.stale {
            let declared = op.effects.stale_age(b);
            if declared.is_none_or(|d| d < age) {
                findings.push(Finding::UndeclaredStaleAge {
                    op: op.id,
                    label: op.desc.label,
                    buf: b,
                    age,
                    declared,
                });
            }
        }

        for &b in &declared_reads {
            if !act.reads.contains(&b) {
                warnings.push(Warning::OverDeclaredRead {
                    op: op.id,
                    label: op.desc.label,
                    buf: b,
                });
            }
        }
        for &b in &declared_writes {
            if act.writes.contains(&b) {
                continue;
            }
            // RMW suppression: the declared write may have landed bytes
            // identical to what the declared-and-performed read saw.
            if declared_reads.contains(&b) && act.reads.contains(&b) {
                continue;
            }
            warnings.push(Warning::OverDeclaredWrite { op: op.id, label: op.desc.label, buf: b });
        }
    }
    canonicalize(&mut findings);
    canonicalize_warnings(&mut warnings);
    EffectAudit { findings, warnings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_gpusim::engine::OpDesc;
    use mggcn_gpusim::{Category, Effects, GpuSpec, MachineSpec, Schedule, StaleRead, Work};

    fn sched_with(fx: Effects) -> Schedule<()> {
        let mut s: Schedule<()> =
            Schedule::new(MachineSpec::uniform("test", GpuSpec::v100(), 1, 6, 25.0e9));
        s.record(0, 0, Work::Fixed { seconds: 0.1 }, OpDesc::new(Category::Other, "op"), fx, None);
        s
    }

    fn hw() -> BufId {
        BufId::new(0, "HW")
    }

    fn act(reads: &[BufId], writes: &[BufId], stale: &[(BufId, usize)]) -> Vec<ActualEffects> {
        vec![ActualEffects {
            reads: reads.iter().copied().collect(),
            writes: writes.iter().copied().collect(),
            stale: stale.iter().copied().collect(),
        }]
    }

    #[test]
    fn exact_match_is_clean() {
        let s = sched_with(Effects::none().reads([hw()]).writes([BufId::new(0, "BC1")]));
        let audit = audit_effects(&s.op_infos(), &act(&[hw()], &[BufId::new(0, "BC1")], &[]));
        assert!(audit.clean());
        assert!(audit.warnings.is_empty());
        assert!(audit.render().contains("declarations cover every observed access"));
    }

    #[test]
    fn undeclared_read_and_write_are_findings() {
        let s = sched_with(Effects::none().reads([hw()]));
        let bc = BufId::new(0, "BC1");
        let audit = audit_effects(&s.op_infos(), &act(&[hw(), bc], &[bc], &[]));
        assert_eq!(audit.findings.len(), 2);
        assert!(matches!(audit.findings[0], Finding::UndeclaredRead { buf, .. } if buf == bc));
        assert!(matches!(audit.findings[1], Finding::UndeclaredWrite { buf, .. } if buf == bc));
        assert!(!audit.clean());
    }

    #[test]
    fn stale_declaration_counts_as_a_read() {
        let sf = BufId::indexed(0, "SF", 0);
        let s = sched_with(Effects::none().stale([StaleRead { buf: sf, age: 1 }]));
        assert!(audit_effects(&s.op_infos(), &act(&[sf], &[], &[(sf, 1)])).clean());
    }

    #[test]
    fn observed_age_beyond_declared_bound_is_a_finding() {
        let sf = BufId::indexed(0, "SF", 0);
        let s = sched_with(Effects::none().stale([StaleRead { buf: sf, age: 1 }]));
        let audit = audit_effects(&s.op_infos(), &act(&[sf], &[], &[(sf, 2)]));
        assert!(matches!(
            audit.findings[..],
            [Finding::UndeclaredStaleAge { age: 2, declared: Some(1), .. }]
        ));
        // And an undeclared stale consumption on a plain read:
        let plain = sched_with(Effects::none().reads([sf]));
        let audit = audit_effects(&plain.op_infos(), &act(&[sf], &[], &[(sf, 1)]));
        assert!(matches!(
            audit.findings[..],
            [Finding::UndeclaredStaleAge { age: 1, declared: None, .. }]
        ));
    }

    #[test]
    fn over_declarations_are_warnings_with_rmw_suppression() {
        // Declared RMW whose write landed identical bytes: read observed,
        // write not — suppressed. A pure over-declared read still warns.
        let bc = BufId::new(0, "BC1");
        let s = sched_with(Effects::none().rw(hw()).reads([bc]));
        let audit = audit_effects(&s.op_infos(), &act(&[hw()], &[], &[]));
        assert!(audit.clean());
        assert_eq!(audit.warnings.len(), 1);
        assert!(matches!(audit.warnings[0], Warning::OverDeclaredRead { buf, .. } if buf == bc));

        // Without the observed read, the unexercised write warns too.
        let s = sched_with(Effects::none().writes([hw()]));
        let audit = audit_effects(&s.op_infos(), &act(&[], &[], &[]));
        assert!(matches!(audit.warnings[..], [Warning::OverDeclaredWrite { .. }]));
    }

    #[test]
    #[should_panic(expected = "must cover every op")]
    fn mismatched_log_length_panics() {
        let s = sched_with(Effects::none());
        let _ = audit_effects(&s.op_infos(), &[]);
    }
}
