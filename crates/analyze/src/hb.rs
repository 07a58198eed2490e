//! The happens-before relation of a recorded schedule.
//!
//! The DES's execution rules induce a partial order over ops:
//!
//! * **Lane FIFO** — a lane's head advances only past *completed* ops, so
//!   an op starts strictly after every earlier op on each of its lanes has
//!   completed. Adjacent lane pairs generate these edges; transitivity
//!   supplies the rest.
//! * **Explicit waits** — CUDA-event style `waits` entries.
//! * **Collective rendezvous** — a collective occupies one lane per
//!   participant, so its FIFO edges act as a cross-GPU barrier: everything
//!   before it on any participant lane happens before everything after it
//!   on any participant lane.
//!
//! A cycle in this edge set is *exactly* a simulator deadlock: the
//! topologically smallest unfinished op always has a free lane head and
//! satisfied waits (so an acyclic schedule always completes), while every
//! member of a cycle waits — directly or through its lane — on another
//! member (so a cyclic schedule can never finish them). [`Hb`] therefore
//! doubles as the deadlock-freedom certificate for the threaded backend.

use mggcn_gpusim::{OpId, OpInfo};
use std::collections::BTreeMap;

/// The happens-before closure of one schedule's op DAG.
pub struct Hb {
    n: usize,
    words: usize,
    /// `n × words` bit matrix; bit `b` of row `a` set ⇔ `a` strictly
    /// happens before `b`.
    reach: Vec<u64>,
    /// Deduplicated dependency edges `(from, to)`.
    pub edges: Vec<(OpId, OpId)>,
    /// Topological position per op (used to linearize per-buffer accesses).
    pos: Vec<usize>,
    /// One dependency cycle, when the graph has one.
    pub cycle: Option<Vec<OpId>>,
}

impl Hb {
    /// Build the relation from recorded op metadata (`Schedule::op_infos`).
    pub fn of_ops(ops: &[OpInfo<'_>]) -> Self {
        let n = ops.len();

        // Reconstruct the per-lane FIFO queues: ops land on their lanes in
        // issue (id) order, exactly as `Schedule::launch`/`collective` do.
        let mut queues: BTreeMap<(usize, usize), Vec<OpId>> = BTreeMap::new();
        for op in ops {
            for &lane in op.lanes {
                queues.entry(lane).or_default().push(op.id);
            }
        }

        let mut succs: Vec<Vec<OpId>> = vec![Vec::new(); n];
        let push_edge = |from: OpId, to: OpId, succs: &mut Vec<Vec<OpId>>| {
            if !succs[from].contains(&to) {
                succs[from].push(to);
            }
        };
        for q in queues.values() {
            for pair in q.windows(2) {
                push_edge(pair[0], pair[1], &mut succs);
            }
        }
        for op in ops {
            for &w in op.waits {
                push_edge(w, op.id, &mut succs);
            }
        }
        let edges: Vec<(OpId, OpId)> = succs
            .iter()
            .enumerate()
            .flat_map(|(from, tos)| tos.iter().map(move |&to| (from, to)))
            .collect();

        // Kahn's algorithm; leftover nodes form the cyclic core.
        let mut indeg = vec![0usize; n];
        for &(_, to) in &edges {
            indeg[to] += 1;
        }
        let mut ready: Vec<OpId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        ready.reverse(); // pop() takes the smallest id first — deterministic.
        let mut topo = Vec::with_capacity(n);
        let mut indeg_left = indeg;
        while let Some(op) = ready.pop() {
            topo.push(op);
            for &s in &succs[op] {
                indeg_left[s] -= 1;
                if indeg_left[s] == 0 {
                    // Insert keeping `ready` descending so pop() stays min.
                    let at = ready.partition_point(|&r| r > s);
                    ready.insert(at, s);
                }
            }
        }

        let cycle = if topo.len() == n {
            None
        } else {
            // Every node Kahn left behind has at least one *predecessor*
            // also left behind (that is why its indegree never reached 0),
            // so walking predecessors inside the remainder must repeat.
            let in_rem: Vec<bool> = {
                let mut v = vec![true; n];
                for &t in &topo {
                    v[t] = false;
                }
                v
            };
            let mut preds: Vec<Vec<OpId>> = vec![Vec::new(); n];
            for &(from, to) in &edges {
                if in_rem[from] && in_rem[to] {
                    preds[to].push(from);
                }
            }
            let start = (0..n).find(|&i| in_rem[i]).expect("cyclic remainder");
            let mut path = vec![start];
            let mut seen_at: BTreeMap<OpId, usize> = BTreeMap::from([(start, 0)]);
            let mut cycle = loop {
                let cur = *path.last().expect("non-empty path");
                let next = preds[cur][0];
                if let Some(&at) = seen_at.get(&next) {
                    break path[at..].to_vec();
                }
                seen_at.insert(next, path.len());
                path.push(next);
            };
            cycle.reverse(); // present in dependency (forward) direction
            Some(cycle)
        };

        let words = n.div_ceil(64).max(1);
        let mut reach = vec![0u64; n * words];
        let mut pos = vec![usize::MAX; n];
        if cycle.is_none() {
            for (i, &op) in topo.iter().enumerate() {
                pos[op] = i;
            }
            // Reverse topological order: successors are already closed.
            for &op in topo.iter().rev() {
                for &s in &succs[op] {
                    let (a, b) = split(&mut reach, op, s, words);
                    for (dst, src) in a.iter_mut().zip(b.iter()) {
                        *dst |= src;
                    }
                    reach[op * words + s / 64] |= 1u64 << (s % 64);
                }
            }
        }

        Self { n, words, reach, edges, pos, cycle }
    }

    /// Does `a` strictly happen before `b`?
    pub fn ordered(&self, a: OpId, b: OpId) -> bool {
        debug_assert!(a < self.n && b < self.n);
        self.reach[a * self.words + b / 64] & (1u64 << (b % 64)) != 0
    }

    /// A topological position for `a` (only meaningful when acyclic).
    pub fn topo_pos(&self, a: OpId) -> usize {
        self.pos[a]
    }
}

/// Borrow two distinct rows of the bit matrix mutably/immutably.
fn split(
    reach: &mut [u64],
    dst_row: usize,
    src_row: usize,
    words: usize,
) -> (&mut [u64], Vec<u64>) {
    // Rows never alias (an op is not its own successor in an acyclic
    // graph); copy the source row out to keep the borrow checker simple —
    // rows are a handful of words for realistic schedules.
    let src = reach[src_row * words..(src_row + 1) * words].to_vec();
    (&mut reach[dst_row * words..(dst_row + 1) * words], src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_gpusim::engine::OpDesc;
    use mggcn_gpusim::{Category, GpuSpec, MachineSpec, Schedule, Work};

    fn machine(n: usize) -> MachineSpec {
        MachineSpec::uniform("test", GpuSpec::v100(), n, 6, 25.0e9)
    }

    fn fixed() -> Work {
        Work::Fixed { seconds: 0.1 }
    }

    fn desc() -> OpDesc {
        OpDesc::new(Category::Other, "t")
    }

    #[test]
    fn lane_fifo_orders_transitively() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        for _ in 0..3 {
            s.launch(0, 0, fixed(), desc(), &[], None);
        }
        let infos = s.op_infos();
        let hb = Hb::of_ops(&infos);
        assert!(hb.cycle.is_none());
        assert!(hb.ordered(0, 1) && hb.ordered(1, 2) && hb.ordered(0, 2));
        assert!(!hb.ordered(2, 0) && !hb.ordered(1, 1));
    }

    #[test]
    fn collective_is_a_cross_gpu_barrier() {
        let mut s: Schedule<()> = Schedule::new(machine(2));
        let a = s.launch(0, 0, fixed(), desc(), &[], None); // before, GPU 0
        s.launch(1, 0, fixed(), desc(), &[], None); // before, GPU 1
        s.collective(&[(0, 0), (1, 0)], 1.0e9, 25.0e9, desc(), &[], None);
        let d = s.launch(1, 0, fixed(), desc(), &[], None); // after, GPU 1
        let infos = s.op_infos();
        let hb = Hb::of_ops(&infos);
        // GPU 0's pre-op is ordered before GPU 1's post-op through the
        // rendezvous, despite no shared lane or explicit wait.
        assert!(hb.ordered(a, d));
        assert!(!hb.ordered(d, a));
    }

    #[test]
    fn explicit_wait_crosses_streams() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        let a = s.launch(0, 0, fixed(), desc(), &[], None);
        let b = s.launch(0, 1, fixed(), desc(), &[a], None);
        let infos = s.op_infos();
        let hb = Hb::of_ops(&infos);
        assert!(hb.ordered(a, b));
        assert_eq!(hb.edges, vec![(a, b)]);
    }

    #[test]
    fn unrelated_streams_are_unordered() {
        let mut s: Schedule<()> = Schedule::new(machine(2));
        let a = s.launch(0, 0, fixed(), desc(), &[], None);
        let b = s.launch(1, 0, fixed(), desc(), &[], None);
        let infos = s.op_infos();
        let hb = Hb::of_ops(&infos);
        assert!(!hb.ordered(a, b) && !hb.ordered(b, a));
    }

    #[test]
    fn fifo_wait_cycle_is_detected() {
        // The engine's own deadlock test case: head op waits on an op
        // behind it in the same FIFO.
        let mut s: Schedule<()> = Schedule::new(machine(1));
        let placeholder = s.launch(0, 1, fixed(), desc(), &[], None);
        s.launch(0, 0, fixed(), desc(), &[placeholder + 2], None);
        s.launch(0, 0, fixed(), desc(), &[], None);
        let infos = s.op_infos();
        let hb = Hb::of_ops(&infos);
        let cycle = hb.cycle.expect("cycle found");
        assert!(cycle.contains(&1) && cycle.contains(&2));
    }

    #[test]
    fn mismatched_collective_order_is_a_cycle() {
        let mut s: Schedule<()> = Schedule::new(machine(2));
        s.launch(1, 1, fixed(), desc(), &[1], None);
        s.collective(&[(0, 1), (1, 1)], 1.0e9, 25.0e9, desc(), &[], None);
        let infos = s.op_infos();
        let hb = Hb::of_ops(&infos);
        assert!(hb.cycle.is_some());
    }
}
