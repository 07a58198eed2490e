//! Deterministic event queue.
//!
//! A thin min-heap keyed on `(time, seq)` where `seq` is the insertion index.
//! Ties on time therefore pop in insertion order, which the cluster's shard
//! loop relies on: batches with equal ready times are serviced in formation
//! order, and a batch a pause re-queues goes behind those already waiting.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for min-heap behavior.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of `(time, payload)`; equal times pop in insertion order.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    pub fn push(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        self.heap.push(Entry { time, seq: self.seq, payload });
        self.seq += 1;
    }

    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.push(1.0, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn rejects_nan_times() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }
}
