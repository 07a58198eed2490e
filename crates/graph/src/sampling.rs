//! Neighborhood sampling — the mini-batch alternative the paper argues
//! against (§1).
//!
//! Mini-batch GNN training grows a computation graph backwards from the
//! batch vertices through `L` hops. On power-law graphs the frontier
//! explodes: "starting from the mini-batch nodes, it is possible to reach
//! almost every single node in the graph in just a few hops" (§1). This
//! module provides the machinery to *measure* that claim — exact k-hop
//! frontiers and GraphSAGE-style fanout-capped samplers — plus the
//! subgraph extraction a mini-batch trainer needs.
//!
//! A serving batch walks the global operator with [`khop_layers`]: a
//! breadth-first walk over only the hops its layers compute, so it never
//! reaches the last hop of the induced block, which no layer reads.

use mggcn_sparse::{Coo, Csr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The expanded computation graph of one mini-batch.
#[derive(Clone, Debug)]
pub struct SampledBlock {
    /// All vertices needed, batch first, then each deeper hop.
    pub vertices: Vec<u32>,
    /// Number of vertices per hop layer: `layer_sizes[0]` is the batch.
    pub layer_sizes: Vec<usize>,
    /// Edges of the sampled subgraph in *local* indices over `vertices`.
    pub adj: Csr,
}

impl SampledBlock {
    /// Total vertices touched by this batch.
    pub fn touched(&self) -> usize {
        self.vertices.len()
    }
}

/// Distance BFS from `seeds` out to `hops`: the reached vertices in
/// discovery order (seeds first, deduplicated; distances never decrease
/// along it) and every vertex's distance, `u32::MAX` when unreached.
///
/// Whether a neighbour is new is a coin toss on a power-law graph, so the
/// walk does not branch on it: every neighbour is written one past the
/// reached prefix of a vertex-sized buffer, and the prefix grows by one
/// only when the neighbour was new.
fn bfs(adj: &Csr, seeds: &[u32], hops: usize) -> (Vec<u32>, Vec<u32>) {
    let mut dist = vec![u32::MAX; adj.rows()];
    let mut order = vec![0; adj.rows() + 1];
    let mut len = 0;
    for &v in seeds {
        if dist[v as usize] == u32::MAX {
            dist[v as usize] = 0;
            order[len] = v;
            len += 1;
        }
    }
    let mut frontier = 0..len;
    for h in 1..=hops as u32 {
        for i in frontier.clone() {
            for &u in adj.row_cols(order[i] as usize) {
                let d = &mut dist[u as usize];
                let new = *d == u32::MAX;
                *d = if new { h } else { *d };
                order[len] = u;
                len += new as usize;
            }
        }
        frontier = frontier.end..len;
    }
    order.truncate(len);
    (order, dist)
}

/// Exact `hops`-hop in-neighborhood of `batch` (no fanout cap) — the
/// worst case a full-gradient mini-batch would need.
pub fn khop_neighborhood(adj: &Csr, batch: &[u32], hops: usize) -> Vec<u32> {
    bfs(adj, batch, hops).0
}

/// The induced k-hop computation block of one inference batch.
#[derive(Clone, Debug, PartialEq)]
pub struct InducedBlock {
    /// Global ids of the block's vertices, in **ascending** order.
    pub vertices: Vec<u32>,
    /// BFS hop distance from the seed set, indexed by local vertex id.
    pub dist: Vec<u32>,
    /// Induced subgraph in local indices, original edge values preserved.
    pub adj: Csr,
}

impl InducedBlock {
    /// Local indices of all vertices at distance ≤ `d` from the seeds.
    pub fn locals_within(&self, d: u32) -> Vec<u32> {
        (0..self.vertices.len() as u32).filter(|&l| self.dist[l as usize] <= d).collect()
    }

    /// Local index of a global vertex id, if it is in the block.
    pub fn local_of(&self, global: u32) -> Option<u32> {
        self.vertices.binary_search(&global).ok().map(|i| i as u32)
    }
}

/// Exact `hops`-hop induced subgraph around `seeds` — the computation
/// block a batched inference request needs.
///
/// Unlike [`khop_neighborhood`] this also extracts the edges (with their
/// values) among the reached vertices, relabeled to local indices. Local
/// ids are assigned in **ascending global order**, so every induced row's
/// columns appear in the same relative order as in the full graph; for a
/// vertex at distance < `hops` (whose neighborhood is entirely inside the
/// block) an SpMM over its induced row therefore accumulates in exactly
/// the full-graph order and is bit-identical to the full-graph result.
pub fn khop_induced(adj: &Csr, seeds: &[u32], hops: usize) -> InducedBlock {
    let (mut reached, dist_of) = bfs(adj, seeds, hops);
    reached.sort_unstable();
    let mut local_of = vec![u32::MAX; adj.rows()];
    for (l, &g) in reached.iter().enumerate() {
        local_of[g as usize] = l as u32;
    }

    let mut row_ptr = Vec::with_capacity(reached.len() + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0usize);
    for &g in &reached {
        for (u, v) in adj.row(g as usize) {
            let lu = local_of[u as usize];
            if lu != u32::MAX {
                col_idx.push(lu);
                values.push(v);
            }
        }
        row_ptr.push(col_idx.len());
    }
    let n_local = reached.len();
    let sub = Csr::from_parts(n_local, n_local, row_ptr, col_idx, values);
    let dist = reached.iter().map(|&g| dist_of[g as usize]).collect();
    InducedBlock { vertices: reached, dist, adj: sub }
}

/// What an `hops`-layer batch around some seeds computes, layer by layer,
/// over the global operator — see [`khop_layers`].
#[derive(Clone, Debug, PartialEq)]
pub struct KhopLayers {
    /// `rows[l]`: the global ids within `hops − 1 − l` hops of the seeds,
    /// ascending — the rows layer `l` produces (`rows[hops − 1]` is the
    /// deduplicated seeds).
    pub rows: Vec<Vec<u32>>,
    /// `shells[l − 1]` for layer `l ≥ 1`: rows `rows[l]` of the operator,
    /// each column renumbered to its position in `rows[l − 1]`, entries in
    /// the operator's order.
    pub shells: Vec<Csr>,
}

/// The rows each layer of an `hops`-layer batch around `seeds` produces
/// and the shells that feed each layer from the one before.
///
/// No layer computes the vertices `hops` hops out, so the walk stops a hop
/// short of the induced block. Every neighbour of a row of `rows[l]` is one
/// hop further out, so it is in `rows[l − 1]` and the shell can renumber
/// it; the shell keeps each row's entries in `adj`'s order, so an SpMM over
/// it folds every row in exactly the full-graph order.
pub fn khop_layers(adj: &Csr, seeds: &[u32], hops: usize) -> KhopLayers {
    let (order, mut dist) = bfs(adj, seeds, hops.saturating_sub(1));
    // The walked vertices, ascending: read back from a vertex bitset, which
    // is faster than sorting them.
    let mut bits = vec![0u64; adj.rows().div_ceil(64)];
    order.iter().for_each(|&v| bits[v as usize / 64] |= 1 << (v % 64));
    let mut computed = Vec::with_capacity(order.len());
    for (w, mut word) in bits.into_iter().enumerate() {
        while word != 0 {
            computed.push(w as u32 * 64 + word.trailing_zeros());
            word &= word - 1;
        }
    }
    let rows: Vec<Vec<u32>> = (0..hops as u32)
        .rev()
        .map(|d| computed.iter().copied().filter(|&v| dist[v as usize] <= d).collect())
        .collect();
    // The distances are spent: reuse the array as the position map.
    let pos = &mut dist;
    let shells = rows
        .windows(2)
        .map(|w| {
            let (prev, cur) = (&w[0], &w[1]);
            for (i, &v) in prev.iter().enumerate() {
                pos[v as usize] = i as u32;
            }
            let mut row_ptr = Vec::with_capacity(cur.len() + 1);
            row_ptr.push(0);
            let (mut col_idx, mut values) = (Vec::new(), Vec::new());
            for &v in cur {
                for (u, x) in adj.row(v as usize) {
                    col_idx.push(pos[u as usize]);
                    values.push(x);
                }
                row_ptr.push(col_idx.len());
            }
            Csr::from_parts(cur.len(), prev.len(), row_ptr, col_idx, values)
        })
        .collect();
    KhopLayers { rows, shells }
}

/// GraphSAGE-style sampling: at each hop keep at most `fanout` random
/// neighbors per frontier vertex. Returns the sampled block with its local
/// subgraph (edges from each layer's vertices to their sampled neighbors).
pub fn sample_block(adj: &Csr, batch: &[u32], fanouts: &[usize], seed: u64) -> SampledBlock {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut local_of = vec![u32::MAX; adj.rows()];
    let mut vertices: Vec<u32> = Vec::new();
    let mut layer_sizes = Vec::with_capacity(fanouts.len() + 1);
    let mut edges: Vec<(u32, u32)> = Vec::new();

    let intern = |v: u32, vertices: &mut Vec<u32>, local_of: &mut Vec<u32>| -> u32 {
        if local_of[v as usize] == u32::MAX {
            local_of[v as usize] = vertices.len() as u32;
            vertices.push(v);
        }
        local_of[v as usize]
    };

    let mut frontier: Vec<u32> = Vec::new();
    for &v in batch {
        let l = intern(v, &mut vertices, &mut local_of);
        if (l as usize) == vertices.len() - 1 {
            frontier.push(v);
        }
    }
    layer_sizes.push(vertices.len());

    for &fanout in fanouts {
        let mut next = Vec::new();
        let before = vertices.len();
        for &v in &frontier {
            let lv = local_of[v as usize];
            let neigh: Vec<u32> = adj.row(v as usize).map(|(u, _)| u).collect();
            let picks: Vec<u32> = if neigh.len() <= fanout {
                neigh
            } else {
                // Floyd's algorithm would avoid the clone; sampling without
                // replacement via partial shuffle is clear and fine here.
                let mut pool = neigh;
                for i in 0..fanout {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                pool.truncate(fanout);
                pool
            };
            for u in picks {
                let was_new = local_of[u as usize] == u32::MAX;
                let lu = intern(u, &mut vertices, &mut local_of);
                edges.push((lv, lu));
                if was_new {
                    next.push(u);
                }
            }
        }
        layer_sizes.push(vertices.len() - before);
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }

    let n_local = vertices.len();
    let mut coo = Coo::with_capacity(n_local, n_local, edges.len());
    for (a, b) in edges {
        coo.push(a, b, 1.0);
    }
    let mut sub = coo.to_csr();
    sub.binarize();
    SampledBlock { vertices, layer_sizes, adj: sub }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::chung_lu;

    fn star(n: usize) -> Csr {
        // Vertex 0 connected to everyone.
        let mut coo = Coo::new(n, n);
        for i in 1..n as u32 {
            coo.push(0, i, 1.0);
            coo.push(i, 0, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn khop_on_star_reaches_everything_in_two() {
        let g = star(50);
        let one = khop_neighborhood(&g, &[1], 1);
        assert_eq!(one.len(), 2); // itself + hub
        let two = khop_neighborhood(&g, &[1], 2);
        assert_eq!(two.len(), 50); // hub fans out to everyone
    }

    #[test]
    fn khop_zero_hops_is_the_batch() {
        let g = star(10);
        let zero = khop_neighborhood(&g, &[3, 7, 3], 0);
        assert_eq!(zero, vec![3, 7]);
        // No layer computes anything: no rows and no shells.
        assert_eq!(khop_layers(&g, &[3, 7, 3], 0), KhopLayers { rows: vec![], shells: vec![] });
    }

    #[test]
    fn induced_block_on_star_has_expected_shape() {
        let g = star(20);
        let block = khop_induced(&g, &[5], 1);
        // 5 and the hub, ascending.
        assert_eq!(block.vertices, vec![0, 5]);
        assert_eq!(block.dist, vec![1, 0]);
        // Induced edges: 0<->5 in both directions.
        assert_eq!(block.adj.nnz(), 2);
        assert_eq!(block.local_of(5), Some(1));
        assert_eq!(block.local_of(7), None);
        assert_eq!(block.locals_within(0), vec![1]);
    }

    #[test]
    fn induced_interior_rows_keep_full_degree() {
        let degrees = vec![6u32; 150];
        let g = chung_lu::generate(&degrees, 11);
        let block = khop_induced(&g, &[3, 40, 90], 2);
        for (l, &gid) in block.vertices.iter().enumerate() {
            if block.dist[l] < 2 {
                // Whole neighborhood is inside the block.
                assert_eq!(
                    block.adj.row_nnz(l),
                    g.row_nnz(gid as usize),
                    "vertex {gid} lost edges"
                );
            }
        }
    }

    #[test]
    fn induced_vertices_ascend_and_cover_khop() {
        let degrees = vec![5u32; 120];
        let g = chung_lu::generate(&degrees, 13);
        let block = khop_induced(&g, &[7, 7, 22], 2);
        assert!(block.vertices.windows(2).all(|w| w[0] < w[1]));
        let mut reach = khop_neighborhood(&g, &[7, 22], 2);
        reach.sort_unstable();
        assert_eq!(block.vertices, reach);
    }

    #[test]
    fn induced_rows_preserve_values_and_order() {
        let degrees = vec![6u32; 100];
        let g = chung_lu::generate(&degrees, 17);
        let block = khop_induced(&g, &[0, 50], 1);
        for (l, &gid) in block.vertices.iter().enumerate() {
            let induced: Vec<(u32, f32)> = block.adj.row(l).collect();
            let expect: Vec<(u32, f32)> = g
                .row(gid as usize)
                .filter_map(|(u, v)| block.local_of(u).map(|lu| (lu, v)))
                .collect();
            assert_eq!(induced, expect);
        }
    }

    #[test]
    fn sample_block_respects_fanout() {
        let g = star(100);
        let block = sample_block(&g, &[0], &[5], 1);
        // Batch vertex 0 has 99 neighbors but fanout 5.
        assert_eq!(block.layer_sizes[0], 1);
        assert!(block.layer_sizes[1] <= 5);
        assert_eq!(block.touched(), 1 + block.layer_sizes[1]);
    }

    #[test]
    fn sample_block_edges_are_local_and_valid() {
        let degrees = vec![6u32; 200];
        let g = chung_lu::generate(&degrees, 3);
        let block = sample_block(&g, &[1, 2, 3], &[4, 4], 7);
        assert_eq!(block.adj.rows(), block.touched());
        for r in 0..block.adj.rows() {
            for (c, _) in block.adj.row(r) {
                assert!((c as usize) < block.touched());
            }
        }
    }

    #[test]
    fn explosion_grows_with_hops_on_dense_graphs() {
        let degrees = vec![20u32; 2000];
        let g = chung_lu::generate(&degrees, 5);
        let batch: Vec<u32> = (0..10).collect();
        let h1 = khop_neighborhood(&g, &batch, 1).len();
        let h2 = khop_neighborhood(&g, &batch, 2).len();
        let h3 = khop_neighborhood(&g, &batch, 3).len();
        assert!(h2 > h1 * 3, "h1 {h1} h2 {h2}");
        assert!(h3 > 1000, "3 hops should reach most of the graph, got {h3}");
    }

    #[test]
    fn deterministic_sampling() {
        let degrees = vec![8u32; 100];
        let g = chung_lu::generate(&degrees, 9);
        let a = sample_block(&g, &[5, 6], &[3, 3], 42);
        let b = sample_block(&g, &[5, 6], &[3, 3], 42);
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.adj, b.adj);
    }
}
