//! Live-range extraction and buffer coloring — the §4.2 `L + 3` bound as
//! a property of the schedule.
//!
//! `core::memplan` *budgets* `L + 3` big buffers per GPU (`AHW.0..L-1`,
//! `HW`, `BC1`, `BC2`); this module *proves* the schedule's big-buffer
//! traffic is colorable within that budget. Per GPU:
//!
//! 1. Split each physical buffer's accesses into **value ranges**: a pure
//!    write (write without read — `gemm` overwriting `HW`) starts a new
//!    value; read-modify-writes (in-place ReLU, accumulating SpMM) extend
//!    the current one. A range is live from its defining op to its last
//!    access.
//! 2. Two ranges on *different* physical buffers **interfere** unless one
//!    range's last access happens-before the other's definition — only
//!    then could a single allocation serve both.
//! 3. **Greedily color** ranges in definition order; the color count is
//!    the number of physical buffers the schedule actually needs.
//!
//! This distinguishes allocation from necessity: with `overlap` on, the
//! double-buffered broadcast makes `BC1`/`BC2` ranges genuinely
//! concurrent (need = `L + 3`); serialized schedules (`overlap` off, or
//! `P = 1` where only one stage exists) color with fewer — the analyzer
//! shows the second broadcast buffer is bought *for* the overlap.
//!
//! Runs only on hazard-free schedules: hazard-freedom makes every pair of
//! conflicting accesses HB-ordered, so per-buffer access sequences have a
//! well-defined order and range splitting is sound.

use crate::hb::Hb;
use mggcn_gpusim::{BufId, OpId, OpInfo};
use std::collections::BTreeMap;

/// Liveness result over the whole schedule (maxima across GPUs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Liveness {
    /// Distinct physical big buffers referenced (max over GPUs) — what the
    /// schedule *names*.
    pub buffers_bound: usize,
    /// Colors needed for the live ranges (max over GPUs) — what the
    /// schedule *needs*.
    pub buffers_needed: usize,
    /// Per-GPU `(gpu, named, needed)` rows, ascending by GPU.
    pub per_gpu: Vec<(usize, usize, usize)>,
}

/// One value range on one physical buffer.
struct Range {
    buf: BufId,
    def: OpId,
    last: OpId,
    def_pos: usize,
}

/// Compute liveness of the big-buffer families in `names` over a
/// hazard-free schedule.
pub fn liveness(ops: &[OpInfo<'_>], hb: &Hb, names: &[&str]) -> Liveness {
    // (gpu, buf) -> accesses (op, reads, writes) in topo order.
    let mut accesses: BTreeMap<BufId, Vec<(OpId, bool, bool)>> = BTreeMap::new();
    for op in ops {
        let mut per_op: BTreeMap<BufId, (bool, bool)> = BTreeMap::new();
        for &b in &op.effects.reads {
            if names.contains(&b.name) {
                per_op.entry(b).or_default().0 = true;
            }
        }
        for &b in &op.effects.writes {
            if names.contains(&b.name) {
                per_op.entry(b).or_default().1 = true;
            }
        }
        for (b, (r, w)) in per_op {
            accesses.entry(b).or_default().push((op.id, r, w));
        }
    }
    for list in accesses.values_mut() {
        list.sort_by_key(|&(op, _, _)| hb.topo_pos(op));
    }

    // Split into value ranges.
    let mut ranges_by_gpu: BTreeMap<usize, Vec<Range>> = BTreeMap::new();
    for (&buf, list) in &accesses {
        let ranges = ranges_by_gpu.entry(buf.gpu).or_default();
        let mut current: Option<Range> = None;
        for &(op, r, w) in list {
            let pure_write = w && !r;
            match &mut current {
                Some(range) if !pure_write => range.last = op,
                _ => {
                    // A pure write starts a new value; so does the first
                    // access (a read of a live-in value).
                    if let Some(done) = current.take() {
                        ranges.push(done);
                    }
                    current = Some(Range { buf, def: op, last: op, def_pos: hb.topo_pos(op) });
                }
            }
        }
        if let Some(done) = current.take() {
            ranges.push(done);
        }
    }

    let mut per_gpu: Vec<(usize, usize, usize)> = Vec::new();
    for (&gpu, ranges) in &mut ranges_by_gpu {
        // The coloring question is posed over *physical buffers* (each is
        // one allocation): two buffers can share an allocation iff no pair
        // of their value ranges interferes. Same-buffer ranges are
        // time-sliced by construction and never conflict.
        ranges.sort_by_key(|r| (r.def_pos, r.buf));
        let mut bufs: Vec<BufId> = Vec::new(); // unique, first-definition order
        for r in ranges.iter() {
            if !bufs.contains(&r.buf) {
                bufs.push(r.buf);
            }
        }
        let named = bufs.len();
        let ranges_of = |b: BufId| ranges.iter().filter(move |r| r.buf == b);
        let interferes = |a: BufId, b: BufId| -> bool {
            ranges_of(a).any(|ra| {
                ranges_of(b).any(|rb| !hb.ordered(ra.last, rb.def) && !hb.ordered(rb.last, ra.def))
            })
        };
        // Greedy coloring in first-definition order.
        let mut colors: Vec<usize> = Vec::with_capacity(named);
        let mut needed = 0usize;
        for (i, &b) in bufs.iter().enumerate() {
            let mut used = vec![false; needed + 1];
            for (j, &prev) in bufs[..i].iter().enumerate() {
                if interferes(prev, b) {
                    used[colors[j]] = true;
                }
            }
            let c = used.iter().position(|&u| !u).expect("a free color exists");
            colors.push(c);
            needed = needed.max(c + 1);
        }
        per_gpu.push((gpu, named, needed));
    }

    Liveness {
        buffers_bound: per_gpu.iter().map(|&(_, n, _)| n).max().unwrap_or(0),
        buffers_needed: per_gpu.iter().map(|&(_, _, c)| c).max().unwrap_or(0),
        per_gpu,
    }
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

    fn run(s: &Schedule<()>, names: &[&str]) -> Liveness {
        let infos = s.op_infos();
        let hb = Hb::of_ops(&infos);
        liveness(&infos, &hb, names)
    }

    #[test]
    fn empty_schedule_has_zero_everything() {
        let s: Schedule<()> = Schedule::new(machine(2));
        let lv = run(&s, &["AHW", "HW", "BC1", "BC2"]);
        assert_eq!(lv.buffers_bound, 0);
        assert_eq!(lv.buffers_needed, 0);
        assert!(lv.per_gpu.is_empty());
    }

    #[test]
    fn single_op_schedule_needs_exactly_one_buffer() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("w"), Effects::none().writes([BufId::new(0, "HW")]), None);
        let lv = run(&s, &["HW"]);
        assert_eq!(lv.buffers_bound, 1);
        assert_eq!(lv.buffers_needed, 1);
        assert_eq!(lv.per_gpu, vec![(0, 1, 1)]);
        // An op outside the requested families is invisible.
        assert_eq!(run(&s, &["BC1"]).buffers_bound, 0);
    }

    /// P=1 single-lane "collective" degenerate case: the broadcast family
    /// time-slices on the one lane, so one BC buffer suffices even though
    /// two are named — the §4.2 claim that BC2 is bought for the overlap.
    #[test]
    fn single_lane_collectives_at_p1_share_one_allocation() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        for slot in 0..2 {
            let name = if slot == 0 { "BC1" } else { "BC2" };
            let b = BufId::new(0, name);
            s.record_collective(
                &[(0, 0)],
                1.0e6,
                25.0e9,
                desc("bcast"),
                Effects::none().writes([b]),
                None,
            );
            s.record(0, 0, fixed(), desc("spmm"), Effects::none().reads([b]), None);
        }
        let lv = run(&s, &["BC1", "BC2"]);
        assert_eq!(lv.buffers_bound, 2, "both slots are named");
        assert_eq!(lv.buffers_needed, 1, "one lane time-slices them");
    }

    /// An RMW-only chain (accumulating SpMM shape: one defining write,
    /// then rw, rw, ...) is a single value range — and re-derives the
    /// §4.2 count: a second buffer defined strictly after the chain's
    /// last access shares its allocation.
    #[test]
    fn rmw_only_chain_is_one_range_and_frees_its_color() {
        let a = BufId::indexed(0, "AHW", 0);
        let b = BufId::new(0, "HW");
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.record(0, 0, fixed(), desc("def"), Effects::none().writes([a]), None);
        for _ in 0..3 {
            s.record(0, 0, fixed(), desc("acc"), Effects::none().rw(a), None);
        }
        s.record(0, 0, fixed(), desc("def-b"), Effects::none().writes([b]), None);
        s.record(0, 0, fixed(), desc("use-b"), Effects::none().reads([b]), None);
        let lv = run(&s, &["AHW", "HW"]);
        assert_eq!(lv.buffers_bound, 2);
        assert_eq!(lv.buffers_needed, 1, "the RMW chain must not split into ranges");

        // Contrast: pure writes split values, but same-buffer ranges
        // still time-slice — a fresh def of `a` mid-chain changes nothing
        // for the count.
        s.record(0, 0, fixed(), desc("redef"), Effects::none().writes([a]), None);
        s.record(0, 0, fixed(), desc("use-a"), Effects::none().reads([a]), None);
        let lv = run(&s, &["AHW", "HW"]);
        assert_eq!(lv.buffers_needed, 1);
    }
}
