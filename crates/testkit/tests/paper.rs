//! The paper's evaluation, held two ways.
//!
//! Every table of `mggcn_bench::paper` is byte-equal to its golden
//! `goldens/paper_<id>.txt` — what `cargo bench -p mggcn-bench --bench
//! paper` prints — so no simulated number moves unnoticed. And each
//! "Match:" line of EXPERIMENTS.md is one verdict test below, asserting the
//! shape of the claim (who wins, by how much, where the crossover and the
//! OOM cells fall) with its band written out; a claim another test already
//! pins (Table 1, Fig 12, Table 2, §5.1, the OOM cells) is cited there, not
//! asserted twice. Each table is computed once per run of this binary.
//! A last test keeps result cards (`BENCH*.json`) other than the
//! benchmark's `BENCHMARK.json` out of the repo root.
//!
//! Regenerate the goldens after an intended cost-model change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p mggcn-testkit --test paper
//! ```

use std::sync::OnceLock;

use mggcn_bench::paper::{Cell, Table, TABLES};
use mggcn_testkit::check_golden;

/// Table `id`, computed on first use.
fn table(id: &str) -> &'static Table {
    static CACHE: [OnceLock<Table>; TABLES.len()] = [const { OnceLock::new() }; TABLES.len()];
    let i = TABLES.iter().position(|(t, _)| *t == id).unwrap_or_else(|| panic!("no table {id}"));
    CACHE[i].get_or_init(TABLES[i].1)
}

/// The cell in column `col` of the row whose leading cells read `key`.
fn cell<'a>(t: &'a Table, key: &[&str], col: &str) -> &'a Cell {
    let c = t.header.iter().position(|h| h == col).unwrap_or_else(|| panic!("no column {col}"));
    let row = t.rows.iter().find(|r| key.iter().zip(r.iter()).all(|(k, c)| c.text() == *k));
    &row.unwrap_or_else(|| panic!("no row {key:?} in {}", t.title))[c]
}

fn v(t: &Table, key: &[&str], col: &str) -> f64 {
    cell(t, key, col).value().unwrap_or_else(|| panic!("{key:?} {col} is not a number"))
}

const GPUS: [&str; 4] = ["1", "2", "4", "8"];

#[test]
fn every_table_matches_its_golden() {
    for (id, _) in TABLES {
        check_golden(&format!("paper_{id}.txt"), &table(id).render());
    }
}

/// Fig 5: SpMM is 60–95 % of kernel time on the three large graphs with
/// GeMM second; GeMM leads on Cora and, up to 4 GPUs, on Arxiv. Proteins'
/// OOM cells are `memplan::tests::proteins_oom_pattern_matches_paper`.
#[test]
fn fig05_spmm_dominates_large_graphs_and_gemm_small_ones() {
    let t = table("fig05");
    let others = ["Activation", "Adam", "Loss-Layer"];
    for ds in ["Products", "Proteins", "Reddit"] {
        for gpus in GPUS.iter().filter(|g| ds != "Proteins" || ["4", "8"].contains(g)) {
            let (spmm, gemm) = (v(t, &[ds, gpus], "SpMM"), v(t, &[ds, gpus], "GeMM"));
            assert!((60.0..=95.0).contains(&spmm), "{ds} {gpus}: SpMM {spmm} %");
            assert!((5.0..=27.0).contains(&gemm), "{ds} {gpus}: GeMM {gemm} %");
            for o in others {
                assert!(gemm > v(t, &[ds, gpus], o), "{ds} {gpus}: GeMM is second, not {o}");
            }
        }
    }
    for gpus in GPUS {
        let cora = v(t, &["Cora", gpus], "GeMM");
        assert!(cora >= 55.0 && cora > v(t, &["Cora", gpus], "SpMM"), "Cora {gpus}: {cora} %");
        let arxiv = v(t, &["Arxiv", gpus], "GeMM");
        assert!((35.0..=65.0).contains(&arxiv), "Arxiv {gpus}: GeMM {arxiv} %");
        if gpus != "8" {
            assert!(arxiv > v(t, &["Arxiv", gpus], "SpMM"), "Arxiv {gpus}: GeMM leads");
        }
    }
}

/// Fig 6: permutation balances the staged SpMM's stages and speeds it up
/// by at least 1.25× (paper 50 → 38 ms, 1.32×).
#[test]
fn fig06_permutation_balances_the_staged_spmm() {
    let t = table("fig06");
    let gain = v(t, &["permuted"], "speedup");
    assert!(gain >= 1.25, "permuted vs original {gain}x");
    for s in 0..4 {
        let stage = format!("stage {s}");
        assert!(v(t, &["original"], &stage) >= 1.3, "original stage {s} is imbalanced");
        assert!(v(t, &["permuted"], &stage) <= 1.05, "permuted stage {s} is balanced");
    }
}

/// Fig 7: on Products, Proteins and Reddit the permutation gain grows with
/// the GPU count to at least 1.3× at 8 GPUs and overlap adds to it at
/// every multi-GPU count; on Cora and Arxiv permutation does nothing.
#[test]
fn fig07_permutation_gain_grows_with_gpus_and_overlap_adds() {
    let t = table("fig07");
    for ds in ["Products", "Proteins", "Reddit"] {
        let ran: Vec<&str> =
            GPUS.into_iter().filter(|g| cell(t, &[ds, g], "Perm") != &Cell::Oom).collect();
        let perm: Vec<f64> = ran.iter().map(|g| v(t, &[ds, g], "Perm")).collect();
        assert!(perm.windows(2).all(|w| w[1] >= w[0]), "{ds}: gain grows with GPUs {perm:?}");
        assert!(perm[perm.len() - 1] >= 1.3, "{ds}: 8-GPU permutation gain {perm:?}");
        for g in ran.iter().filter(|g| **g != "1") {
            let (p, o) = (v(t, &[ds, g], "Perm"), v(t, &[ds, g], "Perm+Ovlp"));
            assert!(o > p, "{ds} {g}: overlap adds to permutation ({p} -> {o})");
        }
    }
    for ds in ["Cora", "Arxiv"] {
        for g in GPUS {
            let p = v(t, &[ds, g], "Perm");
            assert!((0.99..=1.02).contains(&p), "{ds} {g}: permutation {p}x");
        }
    }
}

/// Fig 8: overlapping the broadcasts with compute speeds the permuted
/// staged SpMM up by at least 1.15× (paper 38 → 30 ms, 1.27×).
#[test]
fn fig08_overlap_hides_the_broadcasts() {
    let gain = v(table("fig08"), &["overlapped"], "speedup");
    assert!(gain >= 1.15, "overlapped vs serial {gain}x");
}

/// Fig 9: speedup grows with density at every GPU count; 4 and 8 GPUs are
/// sublinear up to 16× and super-linear from 32×, 8 GPUs reach 10× at
/// 128×, and 2 GPUs level off at 2×.
#[test]
fn fig09_dense_graphs_scale_super_linearly() {
    let t = table("fig09");
    let scales = ["1x", "2x", "4x", "8x", "16x", "32x", "64x", "128x"];
    for gpus in ["2", "4", "8"] {
        let s: Vec<f64> = scales.iter().map(|sc| v(t, &[sc], gpus)).collect();
        assert!(s.windows(2).all(|w| w[1] > w[0]), "{gpus} GPUs: grows with density {s:?}");
    }
    for (gpus, p) in [("4", 4.0), ("8", 8.0)] {
        for (i, sc) in scales.iter().enumerate() {
            let s = v(t, &[sc], gpus);
            assert_eq!(s > p, i >= 5, "{gpus} GPUs at {sc}: {s}x");
        }
    }
    assert!(v(t, &["128x"], "8") >= 10.0, "8 GPUs peak");
    let two = v(t, &["128x"], "2");
    assert!((2.0..2.2).contains(&two), "2 GPUs level off at 2x: {two}");
}

/// Figs 10/11: MG-GCN beats single-GPU DGL by the paper's factors (bands
/// below) and CAGNET by ≥ 1.5× at every GPU count both fit, by ≥ 8× on
/// Products at 8 GPUs; neither system speeds Cora up 2×; DGL and CAGNET
/// cannot run Proteins (MG-GCN's own OOM cells are `memplan`'s).
#[test]
fn fig10_mggcn_beats_both_baselines_on_v100() {
    let t = table("fig10");
    for (ds, lo, hi) in
        [("Cora", 2.5, 3.5), ("Arxiv", 1.5, 2.5), ("Products", 1.3, 2.0), ("Reddit", 2.5, 3.5)]
    {
        let s = v(t, &[ds, "1"], "MG-GCN vs DGL");
        assert!((lo..=hi).contains(&s), "{ds}: {s}x over DGL");
        for g in GPUS {
            let s = v(t, &[ds, g], "MG-GCN vs CAGNET");
            assert!(s >= 1.5, "{ds} {g}: {s}x over CAGNET");
        }
    }
    assert!(v(t, &["Products", "8"], "MG-GCN vs CAGNET") >= 8.0, "paper 8.6x");
    for sys in ["CAGNET", "MG-GCN"] {
        let scaling = v(t, &["Cora", "1"], sys) / v(t, &["Cora", "8"], sys);
        assert!(scaling < 2.0, "{sys} speeds Cora up {scaling}x");
    }
    assert_eq!(cell(t, &["Proteins", "1"], "DGL"), &Cell::Oom);
    for g in GPUS {
        assert_eq!(cell(t, &["Proteins", g], "CAGNET"), &Cell::Oom);
    }
}

/// Figs 13/14: on DGX-A100 MG-GCN beats single-GPU DGL on every dataset
/// DGL can run, scales Products 6–9× and Reddit super-linearly at 8 GPUs,
/// and runs Proteins from 2 GPUs where DGL cannot run it at all.
#[test]
fn fig13_mggcn_beats_dgl_and_scales_on_a100() {
    let t = table("fig13");
    for (ds, lo, hi) in
        [("Cora", 2.5, 3.5), ("Arxiv", 1.5, 2.5), ("Products", 1.3, 2.0), ("Reddit", 2.5, 3.5)]
    {
        let s = v(t, &[ds, "1"], "MG-GCN vs DGL");
        assert!((lo..=hi).contains(&s), "{ds}: {s}x over DGL");
    }
    let products = v(t, &["Products", "8"], "vs own 1 GPU");
    assert!((6.0..=9.0).contains(&products), "Products 8-GPU scaling {products} (paper 8.5)");
    let reddit = v(t, &["Reddit", "8"], "vs own 1 GPU");
    assert!((8.0..=14.0).contains(&reddit), "Reddit 8-GPU scaling {reddit} (paper 8.3)");
    assert_eq!(cell(t, &["Proteins", "1"], "DGL"), &Cell::Oom);
    assert_eq!(cell(t, &["Proteins", "1"], "MG-GCN"), &Cell::Oom);
    assert!(cell(t, &["Proteins", "2"], "MG-GCN").value().is_some(), "Proteins fits 2 A100s");
}

/// Table 3: the dense-model rows track the paper — Products within 25 %
/// and Proteins within 50 % at every GPU count, Papers within 20 % at 8 —
/// and Reddit h16 flattens past 4 GPUs. Papers' OOM cells are
/// `memplan::tests::papers_needs_eight_a100s_with_model_d`; the §6.6
/// ratios are `tests/end_to_end.rs::distgnn_headline_ratios_hold`.
#[test]
fn table3_dense_rows_track_the_paper() {
    let t = table("table3");
    let paper = [
        ("Products", [0.355, 0.202, 0.110, 0.067], 0.25),
        ("Proteins", [4.221, 2.272, 1.191, 0.641], 0.50),
    ];
    for (ds, times, band) in paper {
        for (g, want) in GPUS.into_iter().zip(times) {
            let got = v(t, &[ds], g);
            assert!((got - want).abs() <= band * want, "{ds} {g}: {got} vs paper {want}");
        }
    }
    let papers = v(t, &["Papers"], "8");
    assert!((papers - 2.89).abs() <= 0.2 * 2.89, "Papers 8: {papers} vs paper 2.89");
    let reddit = GPUS.map(|g| v(t, &["Reddit"], g));
    assert!(reddit[0] / reddit[1] > 1.5 && reddit[2] / reddit[3] < 1.25, "Reddit {reddit:?}");
}

/// Ablation (§4.4): op-order is worth ~1.5× on Products and nothing on
/// Reddit; the first-layer skip is worth 1.7–1.8× on Products and Reddit
/// only; together they are worth 4× on Products at 8 GPUs.
#[test]
fn ablation_op_order_gains_where_the_paper_says() {
    let t = table("ablation_op_order");
    for g in ["1", "8"] {
        let band = |ds, col, lo, hi| {
            let s = v(t, &[ds, g], col);
            assert!((lo..=hi).contains(&s), "{ds} {g} {col}: {s}x");
        };
        band("Products", "+op-order", 1.4, 1.6);
        band("Reddit", "+op-order", 0.999, 1.001);
        band("Products", "+skip", 1.65, 1.9);
        band("Reddit", "+skip", 1.65, 1.9);
        band("Arxiv", "+skip", 1.25, 1.45);
        band("Cora", "+skip", 1.0, 1.05);
    }
    let proteins = v(t, &["Proteins", "8"], "+skip");
    assert!((1.4..=1.5).contains(&proteins), "Proteins 8 +skip: {proteins}x");
    assert!(v(t, &["Products", "8"], "both") >= 4.0, "both on Products");
}

/// Ablation (§5.1): as whole trainer epochs on 8 GPUs, 1D beats 1.5D on
/// both machines and both graphs, by under 25 %.
#[test]
fn ablation_15d_trainer_epochs_keep_1d_ahead() {
    let t = table("ablation_15d");
    for row in &t.rows {
        let key = [row[0].text(), row[1].text()];
        let ratio = v(t, &key, "1.5D/1D");
        assert!(ratio > 1.0 && ratio < 1.25, "{key:?}: 1.5D/1D {ratio}");
        assert_eq!(cell(t, &key, "winner").text(), "1D");
    }
}

/// Ablation (§6.3): overlap pays at every hidden width, and what it pays
/// varies by at most 10 % across widths.
#[test]
fn ablation_overlap_benefit_is_flat_in_the_hidden_width() {
    let t = table("ablation_overlap");
    for ds in ["Products", "Reddit"] {
        let b: Vec<f64> =
            ["8", "32", "128", "512", "1024"].iter().map(|h| v(t, &[ds, h], "benefit")).collect();
        let (lo, hi) = b.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        assert!(lo > 1.0 && hi / lo <= 1.1, "{ds}: overlap benefit {b:?}");
    }
}

/// Extension (§7): behind a 25 GB/s NIC a second node makes both graphs
/// slower than one node; a second node pays from a 50 GB/s NIC up, and
/// more with every faster NIC.
#[test]
fn ext_multinode_second_node_hurts_until_the_nic_is_fast() {
    let t = table("ext_multinode");
    for ds in ["Reddit", "Products"] {
        let one_node = v(t, &[ds, "8"], "speedup");
        for g in ["16", "32"] {
            assert!(v(t, &[ds, g], "speedup") < one_node, "{ds} {g} GPUs beat 1 node");
        }
    }
    let t = table("ext_multinode_nic");
    let sweep: Vec<f64> =
        t.rows.iter().map(|r| v(t, &[r[0].text()], "vs 8 GPUs (1 node)")).collect();
    assert!(sweep.windows(2).all(|w| w[1] >= w[0]), "faster NIC, faster epoch {sweep:?}");
    assert!(sweep[1] < 1.0 && sweep[2] > 1.0, "the second node pays from 50 GB/s {sweep:?}");
}

/// Extension (§5.1 past one node), the paper's two machines: 1.5D is 1.5×
/// slower on DGX-1 and 4/3× faster on DGX-A100, in closed form (within
/// 5e-10) and on the DES (within 2 %), at exactly twice 1D's memory.
#[test]
fn ext_15d_paper_machines_match_the_sec51_verdicts() {
    let t = table("ext_15d_comm");
    for (machine, want) in [("DGX-V100", 1.5), ("DGX-A100", 0.75)] {
        let closed = v(t, &[machine], "closed form");
        assert!((closed - want).abs() < 5e-10, "{machine}: closed form {closed}");
        let des = v(t, &[machine], "DES");
        assert!((des / want - 1.0).abs() <= 0.02, "{machine}: DES {des}");
        assert_eq!(v(t, &[machine], "mem x"), 2.0, "{machine}: 1.5D memory factor");
    }
}

/// Extension (§5.1 past one node): on DGX-1 split into two quad nodes the
/// DES slowdown never rises as the NIC shrinks, 1D wins at 200 GB/s, 1.5D
/// at 25 GB/s, and the interpolated crossover is within 2 GB/s of 100.
#[test]
fn ext_15d_split_quad_nic_sweep_crosses_at_100_gbps() {
    let t = table("ext_15d_comm");
    let sweep: Vec<f64> = t
        .rows
        .iter()
        .filter(|r| r[0].text() == "V100-quad-cluster")
        .map(|r| v(t, &["V100-quad-cluster", r[1].text()], "DES"))
        .collect();
    assert_eq!(sweep.len(), 6, "six NIC settings");
    assert!(sweep.windows(2).all(|w| w[1] <= w[0] + 1e-9), "non-increasing {sweep:?}");
    assert!(sweep[0] > 1.0 && sweep[5] < 1.0, "1D wins at 200, 1.5D at 25 GB/s {sweep:?}");
    let x = v(t, &["crossover"], "NIC (GB/s)");
    assert!((x - 100.0).abs() < 2.0, "crossover at {x} GB/s");
}

/// Extension (§5.1 past one node): whole papers100M epochs on 8 GPUs keep
/// 1D ahead behind a 400 GB/s NIC and put 1.5D ahead behind 12.5 GB/s.
#[test]
fn ext_15d_papers_1d_wins_at_high_nic_and_15d_at_low() {
    let t = table("ext_15d_papers");
    let high = v(t, &["400"], "1.5D/1D");
    assert!(high > 1.0, "1D wins at 400 GB/s: 1.5D/1D {high}");
    let low = v(t, &["12.5"], "1.5D/1D");
    assert!(low < 1.0, "1.5D wins at 12.5 GB/s: 1.5D/1D {low}");
}

/// Extension (§5.1 past one node): 1D sends nothing inside a node, 1.5D
/// moves its broadcasts there without adding a cross-node byte, and the
/// relocated bytes exist (1.5D's total exceeds 1D's).
#[test]
fn ext_15d_traffic_relocates_broadcasts_off_the_nic() {
    let t = table("ext_15d_traffic");
    let b = |p, col| v(t, &[p], col);
    assert_eq!(b("1D", "intra-node"), 0.0, "every 1D collective spans both nodes");
    assert!(b("1.5D", "intra-node") > 0.0, "1.5D group broadcasts are node-local");
    assert_eq!(b("1.5D", "inter-node"), b("1D", "inter-node"), "1.5D adds no NIC bytes");
    for p in ["1D", "1.5D"] {
        assert_eq!(b(p, "intra-node") + b(p, "inter-node"), b(p, "total"), "{p}");
    }
    assert!(b("1.5D", "total") > b("1D", "total"), "the relocated bytes exist on NVLink");
}

/// Extension (DESIGN §15): `k = 0` is exactly the fresh pipeline and one
/// epoch of staleness hides at least 0.5 % of the NIC-bound epoch (a
/// floor on the simulated clock, not a noise band).
#[test]
fn ext_15d_staleness_one_epoch_hides_nic_time_and_k0_is_the_baseline() {
    let t = table("ext_15d_staleness");
    let ks: Vec<&str> = t.rows.iter().map(|r| r[0].text()).collect();
    assert_eq!(ks, ["0", "1", "2"]);
    assert_eq!(v(t, &["0"], "vs k = 0"), 1.0, "k = 0 is the fresh pipeline");
    let one = v(t, &["1"], "vs k = 0");
    assert!(one >= 1.005, "k = 1 hides {one}x of the NIC-bound epoch");
}

/// A card nothing pins goes stale unnoticed: every result is a table
/// above, so the repo root holds the wall-clock benchmark's declaration
/// and no other `BENCH*.json`.
#[test]
fn every_bench_card_at_the_repo_root_is_pinned() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut cards: Vec<String> = std::fs::read_dir(root)
        .expect("repo root lists")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH") && n.ends_with(".json"))
        .collect();
    cards.sort();
    assert_eq!(cards, ["BENCHMARK.json"], "a card at the repo root that no table replaces");
}
