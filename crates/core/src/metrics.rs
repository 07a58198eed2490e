//! Epoch-level reports.

use crate::loss::LossStats;
use mggcn_exec::ExecReport;
use mggcn_gpusim::{Category, RunReport, Timeline};
use std::collections::BTreeMap;

/// Measured wall-clock profile of one epoch, produced only by the
/// threaded backend (`Backend::Threaded`): real seconds next to the
/// simulated timeline in the same report.
#[derive(Clone, Debug)]
pub struct MeasuredEpoch {
    /// End-to-end wall-clock seconds of the run (start → last op done).
    pub wall_seconds: f64,
    /// Total measured body seconds per category.
    pub category_seconds: BTreeMap<Category, f64>,
    /// Op bodies that actually executed.
    pub bodies_run: usize,
}

impl From<&ExecReport> for MeasuredEpoch {
    fn from(r: &ExecReport) -> Self {
        Self {
            wall_seconds: r.wall_seconds,
            category_seconds: r.category_wall_seconds(),
            bodies_run: r.bodies_run,
        }
    }
}

/// Everything one epoch produces: simulated wall time, the op timeline, and
/// (for materialized problems) learning metrics.
#[derive(Debug)]
pub struct EpochReport {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Simulated end-to-end epoch time on the virtual machine (seconds).
    pub sim_seconds: f64,
    /// Global training loss (0.0 for timing-only runs).
    pub loss: f64,
    /// Train / test accuracy on this epoch's forward pass (0.0 when
    /// timing-only).
    pub train_acc: f64,
    pub test_acc: f64,
    /// Per-op spans (Figs 6/8) and per-category totals (Fig 5).
    pub timeline: Timeline,
    /// Measured wall-clock profile; `Some` only on the threaded backend.
    pub measured: Option<MeasuredEpoch>,
}

impl EpochReport {
    /// Reports of one run that covered the epochs `base..base +
    /// totals.len()` (`totals`: each epoch's loss counters), told apart by
    /// the span epoch tags; an untagged classic run is one epoch. `measured`
    /// goes to the last.
    pub(crate) fn of_run(
        run: RunReport,
        mut measured: Option<MeasuredEpoch>,
        base: usize,
        totals: &[LossStats],
        host_overhead: f64,
    ) -> Vec<EpochReport> {
        let mut reports = Vec::with_capacity(totals.len());
        let mut prev_boundary = 0.0f64;
        let mut rest = run.timeline.spans;
        for (i, stats) in totals.iter().enumerate() {
            let e = base + i;
            let (own, later): (Vec<_>, Vec<_>) =
                rest.into_iter().partition(|s| s.epoch.is_none_or(|se| se == e));
            rest = later;
            // Epoch e ends when its last tagged span ends. Epoch e + 1's
            // prefetch spans are tagged e + 1, so time they overlap into
            // epoch e's backward is — correctly — not billed to epoch e.
            let boundary = own.iter().map(|s| s.end).fold(prev_boundary, f64::max);
            let (train_acc, test_acc) = stats.accuracy();
            reports.push(EpochReport {
                epoch: e,
                sim_seconds: boundary - prev_boundary + host_overhead,
                loss: stats.loss_sum,
                train_acc,
                test_acc,
                timeline: Timeline { spans: own },
                measured: if i + 1 == totals.len() { measured.take() } else { None },
            });
            prev_boundary = boundary;
        }
        reports
    }

    /// Per-category busy-time percentages, Fig 5 style. Communication is
    /// excluded when `exclude_comm` is set (the paper's Fig 5 decomposes
    /// kernel time; comm is hidden under SpMM's pipeline).
    pub fn breakdown(&self, exclude_comm: bool) -> Vec<(Category, f64)> {
        let mut totals: Vec<(Category, f64)> = self
            .timeline
            .category_totals()
            .into_iter()
            .filter(|(c, _)| !(exclude_comm && *c == Category::Comm))
            .collect();
        let sum: f64 = totals.iter().map(|(_, t)| t).sum();
        if sum > 0.0 {
            for (_, t) in &mut totals {
                *t = 100.0 * *t / sum;
            }
        }
        totals
    }

    /// Busy time of one category, seconds.
    pub fn category_seconds(&self, cat: Category) -> f64 {
        self.timeline
            .category_totals()
            .into_iter()
            .find(|(c, _)| *c == cat)
            .map(|(_, t)| t)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_gpusim::Span;

    fn report() -> EpochReport {
        let mut tl = Timeline::default();
        tl.spans.push(Span {
            gpu: 0,
            stream: 0,
            category: Category::SpMM,
            stage: None,
            label: "s",
            start: 0.0,
            end: 3.0,
            op: 0,
            bytes: 0.0,
            reads: 0,
            writes: 0,
            epoch: None,
        });
        tl.spans.push(Span {
            gpu: 0,
            stream: 1,
            category: Category::Comm,
            stage: None,
            label: "c",
            start: 0.0,
            end: 1.0,
            op: 1,
            bytes: 0.0,
            reads: 0,
            writes: 0,
            epoch: None,
        });
        EpochReport {
            epoch: 0,
            sim_seconds: 3.0,
            loss: 0.5,
            train_acc: 0.9,
            test_acc: 0.8,
            timeline: tl,
            measured: None,
        }
    }

    #[test]
    fn breakdown_excluding_comm() {
        let r = report();
        let b = r.breakdown(true);
        assert_eq!(b.len(), 1);
        assert!((b[0].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_including_comm() {
        let r = report();
        let b = r.breakdown(false);
        let total: f64 = b.iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn category_seconds_lookup() {
        let r = report();
        assert!((r.category_seconds(Category::SpMM) - 3.0).abs() < 1e-12);
        assert_eq!(r.category_seconds(Category::Adam), 0.0);
    }
}
