//! Property tests for the propagation cache and its interaction with
//! graph deltas:
//!
//! * the size bound is an invariant under arbitrary operation sequences;
//! * a hit after an insert returns exactly the inserted bits;
//! * a graph delta invalidates exactly its endpoints: every other row of
//!   `Âᵀ` keeps its bits and every surviving cached row stays exact;
//! * patching `Âᵀ` delta by delta equals rebuilding it from scratch, bit
//!   for bit.

use mggcn_dense::Dense;
use mggcn_graph::generators::chung_lu;
use mggcn_serve::{PropagationCache, ServingModel};
use mggcn_sparse::Csr;
use proptest::prelude::*;

proptest! {
    #[test]
    fn capacity_is_never_exceeded(
        capacity_rows in 1usize..8,
        ops in proptest::collection::vec((0u32..32, 0u8..4), 1..200),
    ) {
        let stride = 3;
        let mut c = PropagationCache::new(capacity_rows * stride * 4, stride);
        prop_assert_eq!(c.capacity_rows(), capacity_rows);
        let row = |v: u32| vec![v as f32; stride];
        for (v, op) in ops {
            match op {
                0 | 1 => c.insert(v, &row(v)),
                2 => { c.get(v); }
                _ => { c.invalidate(v); }
            }
            prop_assert!(c.len() <= capacity_rows, "len {} > cap {}", c.len(), capacity_rows);
            prop_assert!(c.bytes_used() <= capacity_rows * stride * 4);
        }
    }

    #[test]
    fn hit_after_insert_returns_inserted_bits(
        vertex in 0u32..1000,
        payload in proptest::collection::vec(-1.0e6f32..1.0e6, 5),
        churn in proptest::collection::vec(0u32..1000, 0..20),
    ) {
        let mut c = PropagationCache::new(64 * 5 * 4, 5);
        // Churn first so `vertex` lands in an arbitrary slot.
        for v in churn {
            c.insert(v, &[v as f32; 5]);
        }
        c.insert(vertex, &payload);
        let got = c.get(vertex).expect("just inserted");
        prop_assert_eq!(got, &payload[..]);
    }

    #[test]
    fn delta_invalidates_exactly_the_rows_it_changes(
        seed in 0u64..50,
        edges in proptest::collection::vec((0u32..60, 0u32..60), 1..4),
    ) {
        let n = 60usize;
        let mut model = chung_lu_model(n, seed);

        // Cache every vertex's aggregation row, hold the pre-delta
        // operator (so the delta patches a shared `Arc`), apply one delta.
        let width = model.layer0_operand().cols();
        let mut cache = PropagationCache::new(n * width * 4, width);
        let all: Vec<u32> = (0..n as u32).collect();
        let rows = model.aggregation_rows(&all);
        for (i, &g) in all.iter().enumerate() {
            cache.insert(g, rows.row(i));
        }
        let before = model.a_hat_t().clone();
        let invalidated = model.apply_delta(&edges);
        cache.invalidate_many(&invalidated);

        // The set is the delta's endpoints, ascending, each once.
        let mut endpoints: Vec<u32> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        prop_assert_eq!(&invalidated, &endpoints);

        // Every `Âᵀ` row outside it kept its bits, and every cached row that
        // survived equals a fresh aggregation.
        let after = model.a_hat_t();
        for g in 0..n as u32 {
            if invalidated.binary_search(&g).is_ok() {
                prop_assert!(!cache.contains(g), "vertex {} still cached", g);
                continue;
            }
            prop_assert_eq!(row_bits(&before, g), row_bits(after, g), "row {} changed", g);
            let fresh = model.aggregation_rows(&[g]);
            prop_assert_eq!(cache.get(g).expect("survivor stays resident"), fresh.row(0));
        }
    }

    #[test]
    fn incremental_deltas_equal_a_from_scratch_rebuild_bit_for_bit(
        seed in 0u64..50,
        deltas in proptest::collection::vec(
            proptest::collection::vec((0u32..40, 0u32..40), 1..5),
            1..6,
        ),
    ) {
        let n = 40usize;
        let mut model = chung_lu_model(n, seed);
        // Every 7th vertex has zero in-degree until a delta reaches it.
        prop_assert_eq!(model.a_hat_t().row_nnz(ISOLATED as usize), 0);
        for (i, delta) in deltas.iter().enumerate() {
            // Force the awkward cases into every delta: the first edge twice,
            // a self edge, and (first delta) the isolated vertex as an endpoint.
            let (u, v) = delta[0];
            let mut edges = delta.clone();
            edges.extend([(u, v), (v, v)]);
            if i == 0 {
                edges.push((ISOLATED, u));
            }
            model.apply_delta(&edges);
            let adj = model.adj();
            prop_assert_eq!(adj.validate(), Ok(()));
            let rebuilt = ServingModel::from_parts(
                (**model.weights()).clone(),
                adj,
                (**model.features()).clone(),
            )
            .unwrap();
            for r in 0..n as u32 {
                prop_assert_eq!(
                    row_bits(model.a_hat_t(), r),
                    row_bits(rebuilt.a_hat_t(), r),
                    "row {} after delta {}", r, i
                );
            }
        }
    }
}

const ISOLATED: u32 = 7;

/// A 6-feature, 1-layer model over a Chung-Lu graph in which every 7th
/// vertex has degree 0.
fn chung_lu_model(n: usize, seed: u64) -> ServingModel {
    let degrees: Vec<u32> = (0..n).map(|i| if i % 7 == 0 { 0 } else { 4 }).collect();
    let adj = chung_lu::generate(&degrees, seed);
    let feats = Dense::from_fn(n, 6, |r, c| ((r + c) as f32).sin());
    let w = Dense::from_fn(6, 3, |r, c| ((r * 2 + c) as f32).cos());
    ServingModel::from_parts(vec![w], adj, feats).unwrap()
}

/// Row `r` of `m` as `(column, value bits)` pairs.
fn row_bits(m: &Csr, r: u32) -> Vec<(u32, u32)> {
    m.row(r as usize).map(|(c, v)| (c, v.to_bits())).collect()
}
