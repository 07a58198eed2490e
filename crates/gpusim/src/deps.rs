//! The one dependency rule: wait edges inferred from declared effects.
//!
//! A recorder that declares what each op reads and writes never has to
//! name a dependency. The schedule keeps, per [`BufId`], the last writer
//! and the readers since that write; a new op's candidate dependencies are
//! the last writer of everything it reads (RAW — a `StaleRead` is a read
//! of its buffer) and the last writer plus the readers-since of everything
//! it writes (WAW, WAR). Candidates the op is already ordered after —
//! through its lanes' FIFOs, a collective rendezvous, or a candidate
//! already chosen — are dropped, so what remains is the transitive
//! reduction: every emitted edge is load-bearing, and deleting one leaves
//! a conflicting pair unordered.
//!
//! "Already ordered" is decided with a vector clock over lanes: op `a`
//! happens before `b` iff `b`'s clock has reached `a`'s position on one of
//! `a`'s lanes. A lane is a FIFO, so this is exact for the happens-before
//! relation `mggcn-analyze` rebuilds from the recorded `waits` — the
//! analyzer stays an independent auditor of a property that now holds by
//! construction.

use crate::effects::{BufId, Effects};
use crate::engine::{OpId, OpInfo};
use std::collections::BTreeMap;

/// Per-lane op counts an op is known to be ordered after (itself included).
type Clock = Vec<u32>;

/// Whether `clock` has reached the op sitting at `(lane, position)`.
fn covers(clock: &Clock, (lane, pos): (usize, u32)) -> bool {
    clock.get(lane).is_some_and(|&seen| seen >= pos)
}

fn merge(into: &mut Clock, from: &Clock) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, &b) in into.iter_mut().zip(from) {
        *a = (*a).max(b);
    }
}

#[derive(Default)]
struct BufState {
    writer: Option<OpId>,
    /// Readers since `writer` that no later reader was seen to follow.
    readers: Vec<OpId>,
}

/// Record-time dependency state of one schedule.
#[derive(Default)]
pub(crate) struct DepTracker {
    /// Dense index and most recent op of every lane seen so far.
    lanes: BTreeMap<(usize, usize), (usize, OpId)>,
    /// Per op: its clock, and one `(lane index, position)` it occupies.
    clocks: Vec<Clock>,
    at: Vec<(usize, u32)>,
    bufs: BTreeMap<BufId, BufState>,
}

impl DepTracker {
    /// Account for the next op (its id is the count so far) and return its
    /// waits: the transitive reduction of the RAW/WAR/WAW dependencies `fx`
    /// implies, ascending.
    pub(crate) fn admit(&mut self, lanes: &[(usize, usize)], fx: &Effects) -> Vec<OpId> {
        let id = self.clocks.len();
        // What lane FIFO and rendezvous order before the op, then the op's
        // own place at the tail of each of its lanes.
        let mut clock = Clock::new();
        for (i, lane) in lanes.iter().enumerate() {
            let fresh = self.lanes.len();
            let (ix, tail) = self.lanes.entry(*lane).or_insert((fresh, id));
            if *tail != id {
                merge(&mut clock, &self.clocks[*tail]);
                *tail = id;
            }
            if clock.len() <= *ix {
                clock.resize(*ix + 1, 0);
            }
            // The lane tail's clock counts every op on the lane so far.
            clock[*ix] += 1;
            if i == 0 {
                self.at.push((*ix, clock[*ix]));
            }
        }
        // One visit per declared buffer: collect the accesses this op
        // conflicts with and install it in their place.
        let mut candidates: Vec<OpId> = Vec::new();
        let reads = fx.reads.iter().chain(fx.stale_reads.iter().map(|s| &s.buf));
        for b in reads.filter(|b| !fx.writes.contains(b)) {
            let state = self.bufs.entry(*b).or_default();
            candidates.extend(state.writer);
            state.readers.retain(|&r| !covers(&clock, self.at[r]));
            state.readers.push(id);
        }
        for b in &fx.writes {
            let state = self.bufs.entry(*b).or_default();
            candidates.extend(state.writer.replace(id));
            candidates.append(&mut state.readers);
        }
        // Newest first: happens-before implies issue order, so a candidate
        // covered by a later one is met only after that one was chosen. (The
        // op itself, met again through a buffer declared twice, is covered
        // by its own clock.)
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        candidates.dedup();
        candidates.retain(|&c| {
            let needed = !covers(&clock, self.at[c]);
            if needed {
                merge(&mut clock, &self.clocks[c]);
            }
            needed
        });
        candidates.reverse();
        self.clocks.push(clock);
        candidates
    }
}

/// Re-run the inference rule over recorded op metadata, ignoring the
/// recorded `waits`: what [`crate::Schedule::record`] would emit for each
/// op in turn. A schedule no testing hook has edited reproduces its own
/// `waits` exactly.
pub fn infer_waits(ops: &[OpInfo<'_>]) -> Vec<Vec<OpId>> {
    let mut deps = DepTracker::default();
    ops.iter().map(|op| deps.admit(op.lanes, op.effects)).collect()
}
