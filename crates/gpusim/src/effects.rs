//! Declared buffer effects for scheduled ops.
//!
//! Every op can declare the logical buffers its body reads and writes
//! ([`Effects`]). Buffers are named per GPU ([`BufId`]): the trainer's
//! `AHW.l@g`, `HW@g`, the §4.3 double buffers `BC1@g`/`BC2@g`, weights
//! `W.l@g`, gradients `WG.l@g`, and so on. The declarations are the *only*
//! dependency source: `Schedule::record`/`record_collective` infer every
//! wait edge from them ([`crate::deps`]), and the simulator and the
//! threaded executor see just the resulting `waits`. `mggcn-analyze`
//! independently proves hazard-freedom and the §4.2 `L + 3` liveness bound
//! over the same declarations, so a schedule mutant that drops a
//! double-buffer WAR edge is a static finding instead of silent data
//! corruption — and the effect audit (`analyze::audit_effects`) checks the
//! declarations themselves against what the bodies really touch.

use std::fmt;

/// One logical buffer on one GPU. Identity is `(gpu, name, index)`:
/// `BufId::indexed(1, "AHW", 0)` is layer 0's activation buffer on GPU 1,
/// distinct from the same buffer on any other GPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufId {
    pub gpu: usize,
    pub name: &'static str,
    /// Layer/slot index for buffer families (`AHW.l`, `W.l`); `None` for
    /// singletons (`HW`, `BC1`, `BC2`, `X`).
    pub index: Option<usize>,
}

impl BufId {
    pub fn new(gpu: usize, name: &'static str) -> Self {
        Self { gpu, name, index: None }
    }

    pub fn indexed(gpu: usize, name: &'static str, index: usize) -> Self {
        Self { gpu, name, index: Some(index) }
    }
}

impl fmt::Display for BufId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}.{}@g{}", self.name, i, self.gpu),
            None => write!(f, "{}@g{}", self.name, self.gpu),
        }
    }
}

/// A declared bounded-stale read: the op intentionally consumes `buf`
/// written up to `age` epochs earlier (PipeGCN-style cross-epoch
/// pipelining). The analyzer treats a cross-epoch RAW on `buf` as safe iff
/// the reader declares it here with a sufficient age; undeclared
/// cross-epoch reads stay hazards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StaleRead {
    pub buf: BufId,
    /// Maximum tolerated staleness in epochs (>= 1).
    pub age: usize,
}

impl fmt::Display for StaleRead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<={}", self.buf, self.age)
    }
}

/// The declared read/write footprint of one op. A read-modify-write
/// buffer (in-place ReLU, an accumulating SpMM) appears in both sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Effects {
    pub reads: Vec<BufId>,
    pub writes: Vec<BufId>,
    /// Reads in `reads` that are *declared* bounded-stale (cross-epoch).
    /// Empty for all single-epoch schedules, so rendering and equality are
    /// unchanged for legacy schedules.
    pub stale_reads: Vec<StaleRead>,
}

impl Effects {
    /// No declared effects: an op that touches no buffer (a pure timing op
    /// without a body) and so is ordered only by its lanes.
    pub fn none() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// Builder: add read buffers.
    pub fn reads(mut self, bufs: impl IntoIterator<Item = BufId>) -> Self {
        self.reads.extend(bufs);
        self
    }

    /// Builder: add write buffers.
    pub fn writes(mut self, bufs: impl IntoIterator<Item = BufId>) -> Self {
        self.writes.extend(bufs);
        self
    }

    /// Builder: add a read-modify-write buffer (both sets).
    pub fn rw(mut self, buf: BufId) -> Self {
        self.reads.push(buf);
        self.writes.push(buf);
        self
    }

    /// Builder: declare bounded-stale reads (the buffers are also added to
    /// `reads` so the plain hazard footprint stays complete).
    pub fn stale(mut self, decls: impl IntoIterator<Item = StaleRead>) -> Self {
        for d in decls {
            assert!(d.age >= 1, "stale read age must be >= 1 (got {} for {})", d.age, d.buf);
            if !self.reads.contains(&d.buf) {
                self.reads.push(d.buf);
            }
            self.stale_reads.push(d);
        }
        self
    }

    /// Declared staleness bound for `buf`, if any (max over declarations).
    pub fn stale_age(&self, buf: BufId) -> Option<usize> {
        self.stale_reads.iter().filter(|d| d.buf == buf).map(|d| d.age).max()
    }

    /// Compact textual form for dumps: ` R[a,b] W[c]`, empty sets omitted,
    /// entries sorted so the rendering is deterministic regardless of
    /// declaration order.
    pub fn render(&self) -> String {
        fn set(tag: &str, bufs: &[BufId]) -> String {
            if bufs.is_empty() {
                return String::new();
            }
            let mut sorted = bufs.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let items: Vec<String> = sorted.iter().map(|b| b.to_string()).collect();
            format!(" {tag}[{}]", items.join(","))
        }
        let stale = if self.stale_reads.is_empty() {
            String::new()
        } else {
            let mut sorted = self.stale_reads.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let items: Vec<String> = sorted.iter().map(|d| d.to_string()).collect();
            format!(" S[{}]", items.join(","))
        };
        format!("{}{}{}", set("R", &self.reads), set("W", &self.writes), stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(BufId::new(0, "HW").to_string(), "HW@g0");
        assert_eq!(BufId::indexed(3, "AHW", 1).to_string(), "AHW.1@g3");
    }

    #[test]
    fn builder_and_render() {
        let fx = Effects::none()
            .reads([BufId::new(1, "BC1"), BufId::new(0, "HW")])
            .writes([BufId::indexed(0, "AHW", 0)]);
        assert_eq!(fx.render(), " R[HW@g0,BC1@g1] W[AHW.0@g0]");
        assert!(!fx.is_empty());
        assert!(Effects::none().is_empty());
        assert_eq!(Effects::none().render(), "");
    }

    #[test]
    fn rw_lands_in_both_sets() {
        let fx = Effects::none().rw(BufId::new(0, "HW"));
        assert_eq!(fx.reads, fx.writes);
        assert_eq!(fx.render(), " R[HW@g0] W[HW@g0]");
    }

    #[test]
    fn stale_declaration_renders_and_reads() {
        let sf = BufId::indexed(1, "SF", 0);
        let fx = Effects::none().stale([StaleRead { buf: sf, age: 2 }]);
        assert_eq!(fx.reads, vec![sf], "stale buffers join the read set");
        assert_eq!(fx.render(), " R[SF.0@g1] S[SF.0@g1<=2]");
        assert_eq!(fx.stale_age(sf), Some(2));
        assert_eq!(fx.stale_age(BufId::new(0, "HW")), None);
        // Legacy schedules (no declarations) render exactly as before.
        assert_eq!(Effects::none().render(), "");
    }

    #[test]
    fn render_dedups_and_sorts() {
        let fx =
            Effects::none().reads([BufId::new(0, "HW"), BufId::new(0, "HW"), BufId::new(0, "BC1")]);
        assert_eq!(fx.render(), " R[BC1@g0,HW@g0]");
    }
}
