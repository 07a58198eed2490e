//! The propagation cache: a byte-bounded LRU over per-vertex rows of layer
//! 0's SpMM (`Âᵀ·H⁰W⁰`, or `Âᵀ·H⁰` when layer 0 widens), the CaPGNN idea
//! applied to this stack.
//!
//! The expensive part of serving a GCN query is the first layer's SpMM —
//! it reaches furthest into the graph. But its rows depend only on the
//! graph and frozen model state, unchanged between graph deltas, so
//! repeat queries can reuse them bit-for-bit. This cache stores those
//! rows; the narrower they are, the more of them a budget holds.
//!
//! The implementation is **drop-free**: all storage lives in flat `Vec`s
//! (one `f32` arena holding fixed-stride rows, plus intrusive prev/next
//! slot links for the LRU order), so there are no per-entry allocations,
//! no linked `Box` chains to drop recursively, and eviction is O(1).
//! Vertex ids are dense, so a row's slot is found through a table indexed
//! by vertex: four bytes a vertex, no hashing, and a fixed walk order.

const NIL: u32 = u32::MAX;

/// Hit/miss/eviction counters, cheap enough to always keep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl CacheStats {
    /// Hits over lookups, 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Size-bounded LRU cache of fixed-stride `f32` rows keyed by vertex id.
#[derive(Clone, Debug)]
pub struct PropagationCache {
    stride: usize,
    capacity_rows: usize,
    /// Row arena: slot `s` owns `data[s*stride .. (s+1)*stride]`.
    data: Vec<f32>,
    keys: Vec<u32>,
    /// Intrusive doubly-linked LRU list over slots (`head` = most recent).
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    free: Vec<u32>,
    /// `slot_of[v]`: the slot holding vertex `v`'s row, `NIL` when it is
    /// not resident; grown on insert to the largest vertex seen.
    slot_of: Vec<u32>,
    /// Resident rows.
    len: usize,
    stats: CacheStats,
}

impl PropagationCache {
    /// A cache bounded by `capacity_bytes`, holding rows of `stride`
    /// floats. A budget smaller than one row disables the cache (every
    /// lookup misses, inserts are dropped).
    pub fn new(capacity_bytes: usize, stride: usize) -> Self {
        let row_bytes = stride.max(1) * std::mem::size_of::<f32>();
        let capacity_rows = capacity_bytes / row_bytes;
        Self {
            stride,
            capacity_rows,
            data: Vec::new(),
            keys: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            slot_of: Vec::new(),
            len: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Maximum number of resident rows.
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Currently resident rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of row payload currently resident.
    pub fn bytes_used(&self) -> usize {
        self.len() * self.stride * std::mem::size_of::<f32>()
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Look up a vertex's row, promoting it to most-recently-used.
    pub fn get(&mut self, vertex: u32) -> Option<&[f32]> {
        match self.slot(vertex) {
            Some(slot) => {
                self.stats.hits += 1;
                self.unlink(slot);
                self.push_front(slot);
                let s = slot as usize;
                Some(&self.data[s * self.stride..(s + 1) * self.stride])
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Check residency without touching LRU order or hit/miss counters.
    pub fn contains(&self, vertex: u32) -> bool {
        self.slot(vertex).is_some()
    }

    /// Insert (or overwrite) a vertex's row, evicting the least-recently
    /// used row if the cache is full. Rows must match the stride.
    pub fn insert(&mut self, vertex: u32, row: &[f32]) {
        assert_eq!(row.len(), self.stride, "cache row stride mismatch");
        if self.capacity_rows == 0 {
            return;
        }
        if let Some(slot) = self.slot(vertex) {
            let s = slot as usize;
            self.data[s * self.stride..(s + 1) * self.stride].copy_from_slice(row);
            self.unlink(slot);
            self.push_front(slot);
            self.stats.insertions += 1;
            return;
        }
        let slot = if let Some(slot) = self.free.pop() {
            slot
        } else if self.keys.len() < self.capacity_rows {
            // Grow the slab by one slot.
            let slot = self.keys.len() as u32;
            self.data.resize(self.data.len() + self.stride, 0.0);
            self.keys.push(NIL);
            self.prev.push(NIL);
            self.next.push(NIL);
            slot
        } else {
            // Evict the LRU tail.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full cache must have a tail");
            self.unlink(victim);
            self.slot_of[self.keys[victim as usize] as usize] = NIL;
            self.len -= 1;
            self.stats.evictions += 1;
            victim
        };
        let s = slot as usize;
        self.data[s * self.stride..(s + 1) * self.stride].copy_from_slice(row);
        self.keys[s] = vertex;
        let v = vertex as usize;
        if v >= self.slot_of.len() {
            self.slot_of.resize(v + 1, NIL);
        }
        self.slot_of[v] = slot;
        self.len += 1;
        self.push_front(slot);
        self.stats.insertions += 1;
    }

    /// Remove one vertex's row. Returns whether it was resident.
    pub fn invalidate(&mut self, vertex: u32) -> bool {
        match self.slot(vertex) {
            Some(slot) => {
                self.slot_of[vertex as usize] = NIL;
                self.len -= 1;
                self.unlink(slot);
                self.keys[slot as usize] = NIL;
                self.free.push(slot);
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Remove a set of vertices; returns how many were resident.
    pub fn invalidate_many(&mut self, vertices: &[u32]) -> usize {
        vertices.iter().filter(|&&v| self.invalidate(v)).count()
    }

    /// Drop everything (counts as invalidations), in slot order.
    pub fn clear(&mut self) {
        let resident: Vec<u32> = self.keys.iter().copied().filter(|&k| k != NIL).collect();
        self.invalidate_many(&resident);
    }

    /// Resident keys in LRU order, most recent first (tests/debugging).
    pub fn keys_mru_first(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        let mut s = self.head;
        while s != NIL {
            out.push(self.keys[s as usize]);
            s = self.next[s as usize];
        }
        out
    }

    /// The slot holding `vertex`'s row, if it is resident.
    fn slot(&self, vertex: u32) -> Option<u32> {
        self.slot_of.get(vertex as usize).copied().filter(|&s| s != NIL)
    }

    fn unlink(&mut self, slot: u32) {
        let s = slot as usize;
        let (p, n) = (self.prev[s], self.next[s]);
        if p != NIL {
            self.next[p as usize] = n;
        } else if self.head == slot {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else if self.tail == slot {
            self.tail = p;
        }
        self.prev[s] = NIL;
        self.next[s] = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        let s = slot as usize;
        self.prev[s] = NIL;
        self.next[s] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: u32, stride: usize) -> Vec<f32> {
        (0..stride).map(|i| v as f32 + i as f32 * 0.5).collect()
    }

    #[test]
    fn hit_after_insert_returns_same_bits() {
        let mut c = PropagationCache::new(1024, 4);
        let r = row(7, 4);
        c.insert(7, &r);
        let got = c.get(7).expect("hit");
        assert_eq!(got, &r[..]);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn capacity_is_enforced_by_lru_eviction() {
        // 3 rows of 2 floats = 24 bytes.
        let mut c = PropagationCache::new(24, 2);
        assert_eq!(c.capacity_rows(), 3);
        for v in 0..5 {
            c.insert(v, &row(v, 2));
            assert!(c.len() <= 3);
        }
        // 0 and 1 were evicted, 2..5 resident.
        assert!(!c.contains(0) && !c.contains(1));
        assert!(c.contains(2) && c.contains(3) && c.contains(4));
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn get_promotes_to_mru() {
        let mut c = PropagationCache::new(24, 2);
        for v in 0..3 {
            c.insert(v, &row(v, 2));
        }
        c.get(0); // 0 is now MRU; 1 is LRU.
        c.insert(3, &row(3, 2));
        assert!(c.contains(0), "promoted entry must survive eviction");
        assert!(!c.contains(1), "LRU entry must be the victim");
        assert_eq!(c.keys_mru_first(), vec![3, 0, 2]);
    }

    #[test]
    fn invalidate_frees_a_slot() {
        let mut c = PropagationCache::new(16, 2);
        c.insert(1, &row(1, 2));
        c.insert(2, &row(2, 2));
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1), "double invalidate is a no-op");
        assert_eq!(c.len(), 1);
        c.insert(3, &row(3, 2));
        assert_eq!(c.stats().evictions, 0, "freed slot is reused, not evicted");
        assert!(c.get(1).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn zero_budget_disables_cache() {
        let mut c = PropagationCache::new(4, 8); // less than one row
        c.insert(1, &row(1, 8));
        assert_eq!(c.len(), 0);
        assert!(c.get(1).is_none());
    }

    #[test]
    fn overwrite_keeps_single_entry() {
        let mut c = PropagationCache::new(64, 2);
        c.insert(5, &[1.0, 2.0]);
        c.insert(5, &[3.0, 4.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(5).unwrap(), &[3.0, 4.0]);
    }
}
