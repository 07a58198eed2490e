//! Property-based tests for graph generation, permutation, tile
//! statistics, and IO.

use mggcn_graph::generators::{chung_lu, degree, sbm};
use mggcn_graph::io;
use mggcn_graph::permutation::{invert, is_permutation, random_permutation};
use mggcn_graph::tilestats::{TileStats, VertexOrdering};
use mggcn_graph::{datasets, Graph, Split};
use proptest::prelude::*;

proptest! {
    #[test]
    fn random_permutation_is_always_a_bijection(n in 0usize..500, seed in 0u64..10_000) {
        let p = random_permutation(n, seed);
        prop_assert!(is_permutation(&p));
    }

    #[test]
    fn permutation_inverse_roundtrips(n in 1usize..300, seed in 0u64..10_000) {
        let p = random_permutation(n, seed);
        let inv = invert(&p);
        for (old, &new) in p.iter().enumerate() {
            prop_assert_eq!(inv[new as usize] as usize, old);
        }
        prop_assert!(is_permutation(&inv));
    }

    #[test]
    fn graph_permutation_preserves_degree_multiset(seed in 0u64..200, pseed in 0u64..200) {
        let degrees = degree::sample_degrees(
            &degree::DegreeModel::power_law(4.0, 2.5, 60),
            60,
            seed,
        );
        let adj = chung_lu::generate(&degrees, seed);
        let g = Graph::synthesize(adj, 4, 3, seed);
        let perm = random_permutation(g.n(), pseed);
        let pg = g.permute(&perm);
        let mut d1: Vec<usize> = (0..g.n()).map(|v| g.adj.row_nnz(v)).collect();
        let mut d2: Vec<usize> = (0..g.n()).map(|v| pg.adj.row_nnz(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
    }

    #[test]
    fn permutation_commutes_with_normalization(seed in 0u64..100) {
        // Â(P·G) == P·Â(G): normalize-then-permute equals permute-then-
        // normalize. This is what makes §5.2 a pure load-balance move.
        let degrees = vec![3u32; 40];
        let adj = chung_lu::generate(&degrees, seed);
        let g = Graph::synthesize(adj, 2, 2, seed);
        let perm = random_permutation(g.n(), seed ^ 7);
        let pg = g.permute(&perm);
        let (a1, _) = pg.normalized_adj();
        let (a0, _) = g.normalized_adj();
        let a0p = a0.permute_symmetric(&perm);
        prop_assert!(a1.to_dense().max_abs_diff(&a0p.to_dense()) < 1e-5);
    }

    #[test]
    fn degree_sampling_hits_target_mean(avg in 2.0f64..40.0, exp in 1.8f64..3.0, seed in 0u64..100) {
        let model = degree::DegreeModel::power_law(avg, exp, 5_000);
        let d = degree::sample_degrees(&model, 5_000, seed);
        let mean = degree::mean_degree(&d);
        prop_assert!((mean - avg).abs() / avg < 0.25, "mean {mean} target {avg}");
        prop_assert!(d.iter().all(|&x| x >= 1));
    }

    #[test]
    fn chung_lu_is_loop_free_symmetric(seed in 0u64..100, n in 10usize..80) {
        let degrees = vec![4u32; n];
        let g = chung_lu::generate(&degrees, seed);
        let d = g.to_dense();
        for i in 0..n {
            prop_assert_eq!(d.get(i, i), 0.0);
            for j in 0..n {
                prop_assert_eq!(d.get(i, j), d.get(j, i));
            }
        }
    }

    #[test]
    fn sbm_labels_and_masks_are_consistent(n in 50usize..200, k in 2usize..6, seed in 0u64..100) {
        let g = sbm::generate(&sbm::SbmConfig::community_benchmark(n, k), seed);
        prop_assert_eq!(g.n(), n);
        prop_assert!(g.labels.iter().all(|&l| (l as usize) < k));
        for v in 0..n {
            let memberships = [g.split.train[v], g.split.val[v], g.split.test[v]]
                .iter()
                .filter(|&&b| b)
                .count();
            prop_assert_eq!(memberships, 1);
        }
    }

    #[test]
    fn split_fractions_are_respected(n in 200usize..2000, tf in 0.1f64..0.7, seed in 0u64..50) {
        let s = Split::random(n, tf, 0.1, seed);
        let frac = s.train_count() as f64 / n as f64;
        prop_assert!((frac - tf).abs() < 0.1, "train frac {frac} target {tf}");
    }

    #[test]
    fn tilestats_conserves_mass(parts in 1usize..9, permuted in any::<bool>()) {
        let ordering = if permuted { VertexOrdering::Permuted } else { VertexOrdering::Original };
        let s = TileStats::model(&datasets::ARXIV, parts, ordering);
        let total = s.total_nnz() as f64;
        let target = datasets::ARXIV.m as f64;
        prop_assert!((total - target).abs() / target < 0.08, "total {total} vs {target}");
        let rows: usize = (0..parts).map(|i| s.rows_of(i)).sum();
        prop_assert_eq!(rows, datasets::ARXIV.n);
    }

    #[test]
    fn permuted_never_more_imbalanced_than_original(parts in 2usize..9) {
        for card in [datasets::ARXIV, datasets::PRODUCTS, datasets::REDDIT] {
            let orig = TileStats::model(&card, parts, VertexOrdering::Original);
            let perm = TileStats::model(&card, parts, VertexOrdering::Permuted);
            prop_assert!(perm.max_imbalance() <= orig.max_imbalance() + 1e-9);
        }
    }

    #[test]
    fn edge_list_roundtrip(entries in proptest::collection::vec((0u32..40, 0u32..40, 1u32..100), 1..80)) {
        let mut coo = mggcn_sparse::Coo::new(40, 40);
        for &(u, v, w) in &entries {
            coo.push(u, v, w as f32 * 0.5);
        }
        let orig = coo.to_csr();
        let mut text = String::new();
        for r in 0..orig.rows() {
            for (c, v) in orig.row(r) {
                text.push_str(&format!("{r} {c} {v}\n"));
            }
        }
        if orig.nnz() > 0 {
            let back = io::parse_edge_list(&text, Some(40)).unwrap();
            prop_assert_eq!(back, orig);
        }
    }
}

// Serving-path kernels: an induced k-hop block's SpMM must reproduce the
// full-graph SpMM rows it covers *exactly* (bit-identical), for any vertex
// permutation and any number of requested seeds. This is the invariant the
// propagation cache in `mggcn-serve` relies on.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn induced_spmm_bit_identical_to_full_rows(
        gseed in 0u64..500,
        pseed in 0u64..500,
        hops in 1usize..4,
        d in 1usize..6,
        seeds in proptest::collection::vec(0u32..120, 1..8),
    ) {
        use mggcn_dense::{Accumulate, Dense};
        use mggcn_graph::sampling::khop_induced;
        use mggcn_sparse::{spmm, spmm_rows};

        let degrees = vec![5u32; 120];
        // Normalized + transposed adjacency: non-trivial float values, and
        // the matrix the GCN forward pass actually multiplies by.
        let adj = chung_lu::generate(&degrees, gseed)
            .permute_symmetric(&random_permutation(120, pseed))
            .normalize_columns()
            .transpose();
        let b = Dense::from_fn(120, d, |r, c| ((r * d + c) as f32).sin());
        let mut full = Dense::zeros(120, d);
        spmm(&adj, &b, &mut full, Accumulate::Overwrite);

        let block = khop_induced(&adj, &seeds, hops);
        let bl = Dense::from_fn(block.vertices.len(), d, |r, c| {
            b.get(block.vertices[r] as usize, c)
        });
        // Vertices at distance < hops have their whole in-neighborhood
        // inside the block, so their induced rows are complete.
        let rows = block.locals_within(hops as u32 - 1);
        let mut out = Dense::zeros(rows.len(), d);
        spmm_rows(&block.adj, &rows, &bl, &mut out, Accumulate::Overwrite);
        for (i, &l) in rows.iter().enumerate() {
            let g = block.vertices[l as usize] as usize;
            prop_assert_eq!(out.row(i), full.row(g), "vertex {} differs", g);
        }
    }
}

// The accounting oracle for the serving batch path: `khop_layers` must
// compute exactly the rows the induced block's `locals_within` selects,
// and hand each layer the block's rows, renumbered, with every value's
// bits — on any CSR, directed or not.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn khop_layers_account_exactly_like_the_induced_block(
        entries in proptest::collection::vec((0u32..40, 0u32..40, 1u32..100), 0..120),
        undirected in 0u8..2,
        hops in 1usize..4,
        seeds in proptest::collection::vec(0u32..40, 1..6),
    ) {
        use mggcn_graph::sampling::{khop_induced, khop_layers};

        // Random directed entries: most rows stay empty, duplicates sum.
        // Half the cases mirror each one (a self edge then sums with itself).
        let mut coo = mggcn_sparse::Coo::new(40, 40);
        for &(u, v, w) in &entries {
            coo.push(u, v, w as f32 * 0.37);
            if undirected == 1 {
                coo.push(v, u, w as f32 * 0.37);
            }
        }
        let adj = coo.to_csr();
        let mut seeds = seeds;
        seeds.push(seeds[0]);

        let block = khop_induced(&adj, &seeds, hops);
        let layers = khop_layers(&adj, &seeds, hops);
        prop_assert_eq!(layers.rows.len(), hops);
        prop_assert_eq!(layers.shells.len(), hops - 1);
        let global = |locals: Vec<u32>| -> Vec<u32> {
            locals.iter().map(|&l| block.vertices[l as usize]).collect()
        };
        for (l, rows) in layers.rows.iter().enumerate() {
            prop_assert_eq!(rows, &global(block.locals_within((hops - 1 - l) as u32)), "layer {}", l);
        }
        for (l, shell) in (1..hops).zip(&layers.shells) {
            let (prev, cur) = (&layers.rows[l - 1], &layers.rows[l]);
            prop_assert_eq!((shell.rows(), shell.cols()), (cur.len(), prev.len()));
            for (i, &g) in cur.iter().enumerate() {
                let local = block.local_of(g).expect("computed rows are in the block") as usize;
                let want: Vec<(u32, u32)> = block
                    .adj
                    .row(local)
                    .map(|(c, x)| {
                        let at = prev.binary_search(&block.vertices[c as usize]);
                        (at.expect("neighbour is one layer out") as u32, x.to_bits())
                    })
                    .collect();
                let got: Vec<(u32, u32)> = shell.row(i).map(|(c, x)| (c, x.to_bits())).collect();
                prop_assert_eq!(got, want, "layer {} row {}", l, g);
            }
        }
    }
}

// A kept `KhopScratch` must leave no trace of an earlier walk: one scratch
// and one output, reused over a random run of batches on two graphs of
// different sizes taken in turn, give exactly what a fresh walk gives.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn a_reused_khop_scratch_walks_like_a_fresh_one(
        small in proptest::collection::vec((0u32..30, 0u32..30, 1u32..100), 0..90),
        large in proptest::collection::vec((0u32..200, 0u32..200, 1u32..100), 0..600),
        batches in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(0u32..200, 1..8)),
            1..12,
        ),
    ) {
        use mggcn_graph::sampling::{khop_layers, khop_layers_into, KhopLayers, KhopScratch};

        let csr = |n: u32, entries: &[(u32, u32, u32)]| {
            let mut coo = mggcn_sparse::Coo::new(n as usize, n as usize);
            for &(u, v, w) in entries {
                coo.push(u % n, v % n, w as f32 * 0.37);
            }
            coo.to_csr()
        };
        let graphs = [csr(30, &small), csr(200, &large)];
        let (mut scratch, mut out) = (KhopScratch::default(), KhopLayers::default());
        for (i, (hops, seeds)) in batches.iter().enumerate() {
            let adj = &graphs[i % 2];
            // Folded into range, then the first seed repeated.
            let mut seeds: Vec<u32> = seeds.iter().map(|&s| s % adj.rows() as u32).collect();
            seeds.push(seeds[0]);
            khop_layers_into(adj, &seeds, *hops, &mut scratch, &mut out);
            prop_assert_eq!(&out, &khop_layers(adj, &seeds, *hops), "batch {}", i);
        }
    }
}
