//! The paper's evaluation — Tables 1–3, Figs 5–14 and the §5.1 analysis —
//! plus the ablations and the multi-node extensions, one function per table.
//! The `ext_15d_*` tables present `mggcn-topo`'s studies of where §5.1's
//! 1D verdict flips once a node boundary and its NIC enter the machine.
//!
//! Every number comes from the simulated clock (stat cards on the virtual
//! machines of `mggcn-gpusim`), except Table 1's replica statistics, which
//! materialize small synthetic graphs; all of it is deterministic. The
//! `paper` bench target prints [`TABLES`] (`cargo bench -p mggcn-bench
//! --bench paper -- fig09` prints the tables whose id contains `fig09`), and
//! `mggcn-testkit`'s `paper` suite holds each rendering byte-equal to its
//! golden and asserts the verdicts EXPERIMENTS.md states.

use mggcn_baselines::distgnn::{best_published, modeled_epoch_time, published_epoch_time};
use mggcn_baselines::{cagnet, dgl, distgnn};
use mggcn_comm::analysis::analyze;
use mggcn_core::config::{GcnConfig, Partition, TrainOptions};
use mggcn_core::memplan::{max_layers, BufferPolicy, MemoryPlan};
use mggcn_gpusim::{Category, MachineSpec};
use mggcn_graph::datasets::{
    scaled_arxiv, ARXIV, BENCHMARKS, FIGURE_DATASETS, PAPERS, PRODUCTS, PROTEINS, REDDIT,
};
use mggcn_graph::tilestats::{TileStats, VertexOrdering};
use mggcn_graph::DatasetCard;
use mggcn_topo::{
    crossover_nic_gbps, e2e_sweep, nic_sweep, paper_51_verdicts, staleness_sweep, traffic_split,
    STALE_EPOCHS, STALE_NIC_GBPS,
};

use crate::{epoch, staged_spmm_timeline};

/// One table cell.
#[derive(Debug, PartialEq)]
pub enum Cell {
    /// A label, or `-` where a system does not run the configuration.
    Text(String),
    /// A number and its printed form.
    Num(f64, String),
    /// The configuration does not fit in GPU memory.
    Oom,
}

impl Cell {
    /// The number, if the cell holds one.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// What the cell prints.
    pub fn text(&self) -> &str {
        match self {
            Cell::Text(s) | Cell::Num(_, s) => s,
            Cell::Oom => "OOM",
        }
    }
}

/// One table of the evaluation: a title line, column names, rows (the
/// leading cells label the row) and a closing note.
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<Cell>>,
    pub note: String,
}

impl Table {
    /// Plain text: the title, the columns (each as wide as its widest cell;
    /// a column of labels left-aligned, any other right-aligned), then the
    /// note.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.text().chars().count());
            }
        }
        let labels: Vec<bool> = (0..widths.len())
            .map(|i| self.rows.iter().all(|row| matches!(row[i], Cell::Text(_))))
            .collect();
        let line = |cells: Vec<&str>| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .enumerate()
                .map(|(i, (c, &w))| if labels[i] { format!("{c:<w$}") } else { format!("{c:>w$}") })
                .collect();
            format!("{}\n", padded.join("  ").trim_end())
        };
        let mut out = format!("{}\n", self.title);
        out += &line(self.header.iter().map(String::as_str).collect());
        for row in &self.rows {
            out += &line(row.iter().map(Cell::text).collect());
        }
        if !self.note.is_empty() {
            out += &format!("\n{}\n", self.note);
        }
        out
    }
}

/// Computes one table.
pub type TableFn = fn() -> Table;

/// Every table, by id, in the paper's order.
pub const TABLES: [(&str, TableFn); 23] = [
    ("table1", table1),
    ("table1_replicas", table1_replicas),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig12a", fig12a),
    ("fig12b", fig12b),
    ("fig13", fig13),
    ("table2", table2),
    ("table3", table3),
    ("sec51", sec51),
    ("ablation_15d", ablation_15d),
    ("ablation_op_order", ablation_op_order),
    ("ablation_overlap", ablation_overlap),
    ("ext_multinode", ext_multinode),
    ("ext_multinode_nic", ext_multinode_nic),
    ("ext_15d_comm", ext_15d_comm),
    ("ext_15d_papers", ext_15d_papers),
    ("ext_15d_traffic", ext_15d_traffic),
    ("ext_15d_staleness", ext_15d_staleness),
];

const GPUS: [usize; 4] = [1, 2, 4, 8];

fn cols(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| n.to_string()).collect()
}

fn text(s: impl ToString) -> Cell {
    Cell::Text(s.to_string())
}

/// `v` with `prec` decimals and `unit` appended; `None` is OOM.
fn num(v: Option<f64>, prec: usize, unit: &str) -> Cell {
    v.map_or(Cell::Oom, |v| Cell::Num(v, format!("{v:.prec$}{unit}")))
}

fn int(v: usize) -> Cell {
    num(Some(v as f64), 0, "")
}

/// A NIC bandwidth in GB/s, printed as given.
fn gbps(nic: f64) -> Cell {
    Cell::Num(nic, nic.to_string())
}

/// Epoch seconds: three decimals from 0.1 s, four below.
fn secs(t: Option<f64>) -> Cell {
    num(t, if t.is_some_and(|t| t >= 0.1) { 3 } else { 4 }, "")
}

/// `a / b` as a speedup, OOM when either side is.
fn speedup(a: Option<f64>, b: Option<f64>) -> Cell {
    num(a.zip(b).map(|(a, b)| a / b), 2, "x")
}

/// Simulated epoch seconds; `None` on OOM.
fn seconds(card: &DatasetCard, cfg: &GcnConfig, opts: TrainOptions) -> Option<f64> {
    epoch(card, cfg, opts).map(|r| r.sim_seconds)
}

/// MG-GCN's full options with some of them changed (the ablations).
fn with(machine: MachineSpec, gpus: usize, f: impl FnOnce(&mut TrainOptions)) -> TrainOptions {
    let mut opts = TrainOptions::full(machine, gpus);
    f(&mut opts);
    opts
}

fn model_a(card: &DatasetCard) -> GcnConfig {
    GcnConfig::model_a(card.feat_dim, card.classes)
}

/// Table 1: the six stat cards (the paper's exact values), then the BTER
/// family Fig 9 sweeps.
fn table1() -> Table {
    let human = |x: usize| {
        let v = x as f64;
        let shown = if x >= 1_000_000_000 {
            format!("{:.2}B", v / 1e9)
        } else if x >= 1_000_000 {
            format!("{:.2}M", v / 1e6)
        } else if x >= 1_000 {
            format!("{:.1}K", v / 1e3)
        } else {
            x.to_string()
        };
        Cell::Num(v, shown)
    };
    let bter = (0..8).map(|e| scaled_arxiv(1 << e));
    Table {
        title: "Table 1: Benchmark Datasets, then the synthetic BTER family (Fig 9 input): \
                Arxiv degree profile, scaled average degree"
            .into(),
        header: cols(&["Dataset", "n", "m", "d(0)", "d(L)", "k"]),
        rows: BENCHMARKS
            .into_iter()
            .chain(bter)
            .map(|c| {
                let k = num(Some(c.avg_degree), 0, "");
                vec![text(c.name), human(c.n), human(c.m), int(c.feat_dim), int(c.classes), k]
            })
            .collect(),
        note: String::new(),
    }
}

/// Table 1, continued: degree statistics of the materialized replicas.
fn table1_replicas() -> Table {
    let rows = [(ARXIV, 0.03), (PRODUCTS, 0.002), (REDDIT, 0.02)].map(|(card, scale)| {
        let s = mggcn_graph::metrics::degree_stats(&card.materialize(scale, 42).adj);
        let f = |v: f64, prec| num(Some(v), prec, "");
        vec![
            text(card.name),
            int(s.n),
            int(s.m),
            f(s.mean, 1),
            int(s.max),
            f(s.cv, 2),
            f(s.gini, 2),
        ]
    });
    Table {
        title: "Table 1, realized replica statistics (materialized at small scale)".into(),
        header: cols(&["Replica", "n", "m", "k", "max", "CV", "Gini"]),
        rows: rows.into(),
        note: "(replicas preserve each card's average degree and heavy-tail shape;\n \
               CV and Gini quantify the skew the §5.2 permutation must balance)"
            .into(),
    }
}

/// Fig 5: share of kernel time per category, model A on DGX-V100.
fn fig05() -> Table {
    let cats =
        [Category::Activation, Category::Adam, Category::GeMM, Category::LossLayer, Category::SpMM];
    let mut rows = Vec::new();
    for card in FIGURE_DATASETS {
        for gpus in GPUS {
            let report =
                epoch(&card, &model_a(&card), TrainOptions::full(MachineSpec::dgx_v100(), gpus));
            let pct = report.map(|r| r.breakdown(true));
            let mut row = vec![text(card.name), int(gpus)];
            row.extend(cats.map(|c| {
                let share = |p: &Vec<(Category, f64)>| {
                    p.iter().find(|(k, _)| *k == c).map_or(0.0, |(_, v)| *v)
                };
                num(pct.as_ref().map(share), 1, "%")
            }));
            rows.push(row);
        }
    }
    let mut header = cols(&["Dataset", "#GPU"]);
    header.extend(cats.map(|c| c.name().to_string()));
    Table {
        title: "Fig 5: runtime breakdown (%), DGX-V100, 2-layer GCN h=512".into(),
        header,
        rows,
        note: String::new(),
    }
}

/// Fig 6: the staged SpMM on Products, 4 GPUs, original vs permuted.
fn fig06() -> Table {
    let mut note = String::new();
    let mut original = None;
    let rows = [(VertexOrdering::Original, "original"), (VertexOrdering::Permuted, "permuted")]
        .map(|(ordering, name)| {
            let stats = TileStats::model(&PRODUCTS, 4, ordering);
            let (tl, t) = staged_spmm_timeline(&stats, 512, MachineSpec::dgx_v100(), false);
            note += &format!("{name} ordering:\n{}\n", tl.ascii_gantt(72));
            let t0 = *original.get_or_insert(t);
            let mut row = vec![text(name), num(Some(t * 1e3), 1, ""), speedup(Some(t0), Some(t))];
            row.extend(
                (0..4).map(|g| num(Some(tl.gpu_category_time(g, Category::SpMM) * 1e3), 1, "")),
            );
            row.extend((0..4).map(|s| num(Some(stats.stage_imbalance(s)), 2, "")));
            row
        });
    let mut header = cols(&["Ordering", "SpMM (ms)", "speedup"]);
    header.extend((0..4).map(|g| format!("busy {g}")));
    header.extend((0..4).map(|s| format!("stage {s}")));
    Table {
        title: "Fig 6: staged SpMM, Products, 4 GPUs, DGX-V100, d=512 — busy g: GPU g's compute \
                busy time (ms); stage s: max/mean tile load of stage s"
            .into(),
        header,
        rows: rows.into(),
        note: note + "(digits are stage ids, compute stream per GPU; paper: 50 ms -> 38 ms)",
    }
}

/// Fig 7: permutation and permutation + overlap vs the original ordering
/// without overlap, model A on DGX-V100.
fn fig07() -> Table {
    let mut rows = Vec::new();
    for card in FIGURE_DATASETS {
        for gpus in GPUS {
            let t = |permute, overlap| {
                let opts = with(MachineSpec::dgx_v100(), gpus, |o| {
                    (o.permute, o.overlap) = (permute, overlap)
                });
                seconds(&card, &model_a(&card), opts)
            };
            let base = t(false, false);
            // One GPU has no broadcast to overlap: the paper shows the
            // permutation bar alone ("1-Perm").
            let both = if gpus == 1 { text("-") } else { speedup(base, t(true, true)) };
            rows.push(vec![text(card.name), int(gpus), speedup(base, t(true, false)), both]);
        }
    }
    Table {
        title: "Fig 7: speedup w.r.t. original ordering (no overlap), DGX-V100, model A".into(),
        header: cols(&["Dataset", "#GPU", "Perm", "Perm+Ovlp"]),
        rows,
        note: String::new(),
    }
}

/// Fig 8: the permuted staged SpMM of Fig 6 without and with §4.3 overlap.
fn fig08() -> Table {
    let stats = TileStats::model(&PRODUCTS, 4, VertexOrdering::Permuted);
    let (tl_serial, t_serial) = staged_spmm_timeline(&stats, 512, MachineSpec::dgx_v100(), false);
    let (tl_ovlp, t_ovlp) = staged_spmm_timeline(&stats, 512, MachineSpec::dgx_v100(), true);
    let row = |name: &str, t: f64| {
        vec![text(name), num(Some(t * 1e3), 1, ""), speedup(Some(t_serial), Some(t))]
    };
    Table {
        title: "Fig 8: staged SpMM with comm/comp overlap, Products, 4 GPUs, DGX-V100, d=512"
            .into(),
        header: cols(&["Schedule", "SpMM (ms)", "speedup"]),
        rows: vec![row("serial", t_serial), row("overlapped", t_ovlp)],
        note: format!(
            "without overlap, single stream per GPU:\n{}\nwith overlap, s0 = compute (digits: \
             stage), s1 = comm:\n{}\n(paper: 38 ms -> 30 ms, 1.27x)",
            tl_serial.ascii_gantt(72),
            tl_ovlp.ascii_gantt(72)
        ),
    }
}

/// Fig 9: speedup over one GPU as BTER-scaled Arxiv's degree grows.
fn fig09() -> Table {
    let rows = (0..8u32)
        .map(|e| {
            let card = scaled_arxiv(1 << e);
            let cfg = GcnConfig::new(card.feat_dim, &[512], card.classes);
            let t =
                GPUS.map(|g| seconds(&card, &cfg, TrainOptions::full(MachineSpec::dgx_v100(), g)));
            let mut row = vec![text(card.name), num(Some(t[0].expect("1-GPU run fits")), 4, "")];
            row.extend(t.map(|tg| speedup(t[0], tg)));
            row
        })
        .collect();
    Table {
        title: "Fig 9: speedup w.r.t. MG-GCN 1-GPU runtime, BTER-scaled Arxiv, DGX-V100".into(),
        header: cols(&["Scale", "t1 (s)", "1", "2", "4", "8"]),
        rows,
        note: "(super-linear entries — speedup above the GPU count — should appear\n \
               at 2 and 4 GPUs from ~32x density and at 8 GPUs from ~64x, per the paper)"
            .into(),
    }
}

/// Figs 10 and 11: CAGNET, DGL and MG-GCN on DGX-V100 — epoch seconds, then
/// speedups over single-GPU DGL and MG-GCN's over CAGNET.
fn fig10() -> Table {
    let v100 = MachineSpec::dgx_v100;
    let mut rows = Vec::new();
    for card in FIGURE_DATASETS {
        let cfg = model_a(&card);
        let dgl = seconds(&card, &cfg, dgl::options(v100(), &cfg));
        for gpus in GPUS {
            let cag = seconds(&card, &cfg, cagnet::options(v100(), gpus));
            let mg = seconds(&card, &cfg, TrainOptions::full(v100(), gpus));
            let dgl_cell = if gpus == 1 { secs(dgl) } else { text("-") };
            rows.push(vec![
                text(card.name),
                int(gpus),
                secs(cag),
                dgl_cell,
                secs(mg),
                speedup(dgl, cag),
                speedup(dgl, mg),
                speedup(cag, mg),
            ]);
        }
    }
    Table {
        title: "Fig 10/11: epoch runtime (s) and speedup w.r.t. DGL (1 GPU), DGX-V100, \
                model A (2 layers, h=512)"
            .into(),
        header: cols(&[
            "Dataset",
            "#GPU",
            "CAGNET",
            "DGL",
            "MG-GCN",
            "CAGNET vs DGL",
            "MG-GCN vs DGL",
            "MG-GCN vs CAGNET",
        ]),
        rows,
        note: "(DGL is single-GPU only; '-' marks configurations it does not support)".into(),
    }
}

/// Fig 12 at `gpus` GPUs: per-GPU GiB on Reddit (hidden 512) at each layer
/// count of `points`, and the most layers that fit in 30 GiB.
fn memory(
    panel: &str,
    gpus: u64,
    points: [usize; 8],
    systems: [(&str, BufferPolicy); 2],
    note: &str,
) -> Table {
    let (n, m) = (REDDIT.n as u64, REDDIT.m as u64);
    let rows = systems.map(|(name, policy)| {
        let mut row = vec![text(name)];
        row.extend(points.map(|l| {
            let cfg = GcnConfig::new(REDDIT.feat_dim, &vec![512; l - 1], REDDIT.classes);
            let bytes = MemoryPlan::new(n, m, &cfg, gpus, policy).total();
            num(Some(bytes as f64 / (1u64 << 30) as f64), 1, "")
        }));
        let most = max_layers(n, m, REDDIT.feat_dim, 512, REDDIT.classes, gpus, policy, 30 << 30);
        row.push(int(most));
        row
    });
    let mut header = vec!["System".to_string()];
    header.extend(points.map(|l| l.to_string()));
    header.push("max layers within 30 GiB".into());
    Table {
        title: format!(
            "Fig 12 {panel}: per-GPU memory (GiB) on Reddit, hidden 512, at each layer count"
        ),
        header,
        rows: rows.into(),
        note: note.into(),
    }
}

/// Fig 12a: one GPU, DGL vs MG-GCN.
fn fig12a() -> Table {
    memory(
        "(a) 1 GPU",
        1,
        [2, 5, 10, 20, 30, 40, 50, 60],
        [
            ("DGL (per-layer buffers)", BufferPolicy::PerLayer3),
            ("MG-GCN (L + 3 shared buffers)", BufferPolicy::MgGcn),
        ],
        "(paper: ~20 vs ~50 layers at 1 GPU)",
    )
}

/// Fig 12b: eight GPUs, CAGNET vs MG-GCN.
fn fig12b() -> Table {
    memory(
        "(b) 8 GPUs",
        8,
        [10, 50, 100, 150, 250, 350, 450, 550],
        [
            ("CAGNET (per-layer + full gather)", BufferPolicy::CagnetFullGather),
            ("MG-GCN (L + 3 shared buffers)", BufferPolicy::MgGcn),
        ],
        "(paper: ~150 vs ~450 at 8 GPUs)",
    )
}

/// Figs 13 and 14: DGL vs MG-GCN on DGX-A100 — epoch seconds, speedup
/// over single-GPU DGL, and MG-GCN's scaling over its own single GPU.
fn fig13() -> Table {
    let a100 = MachineSpec::dgx_a100;
    let mut rows = Vec::new();
    for card in FIGURE_DATASETS {
        let cfg = model_a(&card);
        let dgl = seconds(&card, &cfg, dgl::options(a100(), &cfg));
        let mg = GPUS.map(|g| seconds(&card, &cfg, TrainOptions::full(a100(), g)));
        for (gpus, t) in GPUS.into_iter().zip(mg) {
            let dgl_cell = if gpus == 1 { secs(dgl) } else { text("-") };
            rows.push(vec![
                text(card.name),
                int(gpus),
                dgl_cell,
                secs(t),
                speedup(dgl, t),
                speedup(mg[0], t),
            ]);
        }
    }
    Table {
        title: "Fig 13/14: epoch runtime (s) and speedup w.r.t. DGL (1 GPU), DGX-A100, \
                model A (2 layers, h=512)"
            .into(),
        header: cols(&["Dataset", "#GPU", "DGL", "MG-GCN", "MG-GCN vs DGL", "vs own 1 GPU"]),
        rows,
        note: String::new(),
    }
}

/// Table 2: DistGNN's published epoch seconds beside our CPU-cluster model.
fn table2() -> Table {
    let spec = distgnn::SocketSpec::default();
    let runs = [
        (REDDIT, GcnConfig::model_b(REDDIT.feat_dim, REDDIT.classes), 16),
        (PAPERS, GcnConfig::model_c(PAPERS.feat_dim, PAPERS.classes), 128),
        (PRODUCTS, GcnConfig::model_c(PRODUCTS.feat_dim, PRODUCTS.classes), 64),
        (PROTEINS, GcnConfig::model_c(PROTEINS.feat_dim, PROTEINS.classes), 64),
    ];
    let mut rows = Vec::new();
    for (card, cfg, most) in runs {
        for s in [1, most] {
            let published =
                published_epoch_time(card.name, s).map_or(text("-"), |t| num(Some(t), 2, ""));
            let modeled = num(Some(modeled_epoch_time(&card, &cfg, s, &spec)), 2, "");
            rows.push(vec![text(card.name), int(s), published, modeled]);
        }
    }
    Table {
        title: "Table 2: DistGNN epoch times (s) — published vs our CPU-cluster model".into(),
        header: cols(&["Dataset", "#Socket", "published", "modeled"]),
        rows,
        note: "(published values are Table 2 of the MG-GCN paper, quoted from DistGNN;\n \
               the model is calibrated within a small factor — see EXPERIMENTS.md)"
            .into(),
    }
}

/// Table 3: MG-GCN on DGX-A100 with the DistGNN comparison models, and
/// the §6.6 ratio over DistGNN's best published number.
fn table3() -> Table {
    let runs = [
        (REDDIT, GcnConfig::model_b(REDDIT.feat_dim, REDDIT.classes)),
        (PAPERS, GcnConfig::model_d(PAPERS.feat_dim, PAPERS.classes)),
        (PRODUCTS, GcnConfig::model_c(PRODUCTS.feat_dim, PRODUCTS.classes)),
        (PROTEINS, GcnConfig::model_c(PROTEINS.feat_dim, PROTEINS.classes)),
    ];
    let rows = runs.map(|(card, cfg)| {
        let t = GPUS.map(|g| seconds(&card, &cfg, TrainOptions::full(MachineSpec::dgx_a100(), g)));
        let (sockets, t_dist) = best_published(card.name).expect("DistGNN published a time");
        let mut row = vec![text(card.name)];
        row.extend(t.map(secs));
        row.extend([num(t[3].map(|t| t_dist / t), 1, "x"), int(sockets)]);
        row
    });
    Table {
        title: "Table 3: MG-GCN epoch times (s) on DGX-A100".into(),
        header: cols(&["Dataset", "1", "2", "4", "8", "vs DistGNN best @8", "sockets"]),
        rows: rows.into(),
        note: "(dashes in the paper are OOM; paper ratios vs DistGNN best: 40x Reddit,\n \
               12.6x Papers, 12.4x Products, 1.77x Proteins)"
            .into(),
    }
}

/// §5.1: 1D vs 1.5D communication in closed form, per SpMM and per epoch.
fn sec51() -> Table {
    let mut rows = Vec::new();
    for machine in [MachineSpec::dgx_v100(), MachineSpec::dgx_a100()] {
        for card in [REDDIT, PRODUCTS] {
            let a = analyze(&machine, card.n as f64 * 512.0 * 4.0);
            let (t1, t15) = cagnet::t_15d_epoch_comm(&machine, card.n, &model_a(&card), true);
            let ms = |t: f64| num(Some(t * 1e3), 2, "");
            rows.push(vec![
                text(&machine.name),
                text(card.name),
                ms(a.t_1d),
                ms(a.t_15d),
                num(Some(a.slowdown_15d()), 2, "x"),
                num(Some(a.mem_factor_15d), 1, ""),
                ms(t1),
                ms(t15),
                text(if t1 <= t15 { "1D" } else { "1.5D" }),
            ]);
        }
    }
    Table {
        title: "Section 5.1 analysis: 1D vs 1.5D communication, per SpMM (n x d fp32, d = 512) \
                and per model-A epoch (with first-layer skip)"
            .into(),
        header: cols(&[
            "Machine",
            "Dataset",
            "t_1D (ms)",
            "t_1.5D",
            "1.5D/1D",
            "mem x",
            "epoch 1D (ms)",
            "epoch 1.5D (ms)",
            "winner",
        ]),
        rows,
        note: "(paper: 1D wins by 3/2 on DGX-1; 1.5D wins by 4/3 on DGX-A100 but at 2x\n \
               memory, so MG-GCN ships 1D only)"
            .into(),
    }
}

/// Ablation: the §5.1 decision as whole trainer epochs (model A, 8 GPUs)
/// under `Partition::OneD` and `Partition::OneFiveD`.
fn ablation_15d() -> Table {
    let mut rows = Vec::new();
    for machine in [MachineSpec::dgx_v100(), MachineSpec::dgx_a100()] {
        for card in [REDDIT, PRODUCTS] {
            let t = |partition| {
                let opts = with(machine.clone(), 8, |o| o.partition = partition);
                seconds(&card, &model_a(&card), opts)
            };
            let (t1, t15) = (t(Partition::OneD), t(Partition::OneFiveD));
            let winner = t1.zip(t15).map_or("-", |(a, b)| if a <= b { "1D" } else { "1.5D" });
            let ratio = num(t15.zip(t1).map(|(b, a)| b / a), 3, "x");
            rows.push(vec![
                text(&machine.name),
                text(card.name),
                secs(t1),
                secs(t15),
                ratio,
                text(winner),
            ]);
        }
    }
    Table {
        title: "Ablation: 1D vs 1.5D trainer epochs (s), model A, 8 GPUs".into(),
        header: cols(&["Machine", "Dataset", "1D", "1.5D", "1.5D/1D", "winner"]),
        rows,
        note: "(1.5D also holds a second replica of the features — the memory cost\n \
               that decides it for memory-bound GNN training, paper §5.1)"
            .into(),
    }
}

/// Ablation: §4.4's op-order selection and first-layer backward-SpMM skip,
/// each alone and together, model A on DGX-V100.
fn ablation_op_order() -> Table {
    let mut rows = Vec::new();
    for card in FIGURE_DATASETS {
        for gpus in [1, 8] {
            let t = |order, skip| {
                let opts = with(MachineSpec::dgx_v100(), gpus, |o| {
                    (o.op_order_opt, o.skip_first_backward_spmm) = (order, skip)
                });
                seconds(&card, &model_a(&card), opts)
            };
            let base = t(false, false);
            rows.push(vec![
                text(card.name),
                int(gpus),
                num(base, 4, ""),
                speedup(base, t(true, false)),
                speedup(base, t(false, true)),
                speedup(base, t(true, true)),
            ]);
        }
    }
    Table {
        title: "Ablation: §4.4 op-order selection and first-layer backward-SpMM skip \
                (DGX-V100, model A, epoch seconds; speedups vs neither optimization)"
            .into(),
        header: cols(&["Dataset", "#GPU", "neither", "+op-order", "+skip", "both"]),
        rows,
        note: "(op-order pays off when d(0) < hidden — Arxiv 128, Products 104 — by\n \
               shrinking both the SpMM operand and the broadcast; the skip removes\n \
               one of the three SpMMs of a 2-layer epoch on every dataset)"
            .into(),
    }
}

/// Ablation: the §6.3 overlap benefit across hidden widths, 8 V100s.
fn ablation_overlap() -> Table {
    let mut rows = Vec::new();
    for card in [PRODUCTS, REDDIT] {
        for hidden in [8, 32, 128, 512, 1024] {
            let cfg = GcnConfig::new(card.feat_dim, &[hidden], card.classes);
            let t = |overlap| {
                seconds(&card, &cfg, with(MachineSpec::dgx_v100(), 8, |o| o.overlap = overlap))
            };
            let (serial, ovlp) = (t(false), t(true));
            rows.push(vec![
                text(card.name),
                int(hidden),
                num(serial, 4, ""),
                num(ovlp, 4, ""),
                speedup(serial, ovlp),
            ]);
        }
    }
    Table {
        title: "Ablation: overlap benefit vs hidden dimension (§6.3), DGX-V100, 8 GPUs".into(),
        header: cols(&["Dataset", "hidden", "serial (s)", "overlap (s)", "benefit"]),
        rows,
        note: "(the benefit column should be roughly constant above a small hidden\n \
               width — the §6.3 claim — since broadcast bytes and SpMM traffic both\n \
               scale linearly with the width)"
            .into(),
    }
}

/// Model-A epoch seconds on an A100 cluster of `nodes` nodes behind an
/// `nic_gbs` NIC each.
fn cluster_epoch(nodes: usize, nic_gbs: f64, gpus: usize, card: &DatasetCard) -> Option<f64> {
    let machine = MachineSpec::a100_cluster(nodes, nic_gbs * 1e9);
    seconds(card, &model_a(card), TrainOptions::full(machine, gpus))
}

/// Extension (§7): MG-GCN past one node of a four-node A100 cluster.
fn ext_multinode() -> Table {
    let mut rows = Vec::new();
    for card in [REDDIT, PRODUCTS] {
        let t1 = cluster_epoch(4, 25.0, 1, &card);
        for gpus in [1, 4, 8, 16, 32] {
            let t = cluster_epoch(4, 25.0, gpus, &card);
            let crosses = text(if gpus > 8 { "<- crosses nodes" } else { "" });
            rows.push(vec![text(card.name), int(gpus), num(t, 4, ""), speedup(t1, t), crosses]);
        }
    }
    Table {
        title: "Extension: MG-GCN on a multi-node A100 cluster (model A), HDR InfiniBand NIC \
                (25 GB/s per node)"
            .into(),
        header: cols(&["Dataset", "#GPU", "epoch (s)", "speedup", ""]),
        rows,
        note: String::new(),
    }
}

/// Extension (§7): how fast the NIC must be for a second node to pay.
fn ext_multinode_nic() -> Table {
    let t8 = cluster_epoch(2, 25.0, 8, &REDDIT);
    let rows = [12.5, 25.0, 50.0, 100.0, 200.0, 400.0]
        .map(|nic| {
            let t16 = cluster_epoch(2, nic, 16, &REDDIT);
            vec![gbps(nic), num(t16, 4, ""), speedup(t8, t16)]
        })
        .into();
    Table {
        title: "Extension: NIC bandwidth sweep at 16 GPUs (2 nodes), Reddit".into(),
        header: cols(&["NIC (GB/s)", "epoch (s)", "vs 8 GPUs (1 node)"]),
        rows,
        note: "(values < 1.0x mean adding the second node *hurts* — the CAGNET\n \
               cliff; scaling resumes once the NIC approaches NVLink bandwidth)"
            .into(),
    }
}

/// Feature bytes `n·d·4` each §5.1 communication comparison moves.
const ND_BYTES: f64 = 1.0e9;

/// A slowdown or simulated seconds, to six decimals.
fn six(v: f64) -> Cell {
    num(Some(v), 6, "")
}

/// Extension (§5.1 past one node): 1.5D/1D communication time in closed
/// form and on the DES on the paper's two machines, then on DGX-1 split
/// into two quad nodes behind a NIC, down to the NIC where 1.5D wins.
fn ext_15d_comm() -> Table {
    let (dgx1, a100) = paper_51_verdicts(ND_BYTES);
    let mut rows: Vec<Vec<Cell>> = [dgx1, a100]
        .map(|p| {
            let mem = num(Some(p.mem_factor_15d), 2, "");
            vec![text(p.machine), text("-"), six(p.slowdown_closed), six(p.slowdown_sim), mem]
        })
        .into();
    let sweep = nic_sweep(&[200.0, 150.0, 120.0, 80.0, 50.0, 25.0], ND_BYTES);
    for p in &sweep {
        let (closed, sim) = (six(p.slowdown_closed), six(p.slowdown_sim));
        rows.push(vec![text("V100-quad-cluster"), gbps(p.nic_gbps), closed, sim, text("-")]);
    }
    let crossover = crossover_nic_gbps(&sweep).map_or(text("none"), |x| num(Some(x), 3, ""));
    rows.push(vec![text("crossover"), crossover, text("-"), text("-"), text("-")]);
    Table {
        title: "Extension: 1.5D/1D communication time (n*d*4 = 1 GB, c = 2) in closed form and \
                on the DES, the paper's machines and DGX-1 split into two quad nodes"
            .into(),
        header: cols(&["Machine", "NIC (GB/s)", "closed form", "DES", "mem x"]),
        rows,
        note: "(above 1.0 1D wins; crossover: the NIC where the DES column crosses 1.0,\n \
               interpolated — analytically 100 GB/s, where the NIC caps 1D's 6-link\n \
               fan-out to 1.5D's rate)"
            .into(),
    }
}

/// Extension (§5.1 past one node): whole papers100M trainer epochs, P = 8
/// across two A100 quad nodes, under both partitionings at each NIC.
fn ext_15d_papers() -> Table {
    let rows = e2e_sweep(&[400.0, 200.0, 100.0, 50.0, 25.0, 12.5])
        .iter()
        .map(|p| {
            let winner = if p.slowdown_15d() < 1.0 { "1.5D" } else { "1D" };
            let (t1, t15) = (six(p.t_1d), six(p.t_15d));
            vec![gbps(p.nic_gbps), t1, t15, six(p.slowdown_15d()), text(winner)]
        })
        .collect();
    Table {
        title: "Extension: papers100M trainer epochs (s), 8 GPUs on two A100 quad nodes, \
                hidden 128, per NIC"
            .into(),
        header: cols(&["NIC (GB/s)", "1D", "1.5D", "1.5D/1D", "winner"]),
        rows,
        note: "(compute is the same under both; hidden 208, model D, does not fit the\n \
               1.5D L + 4 buffer budget on 8 x 80 GB)"
            .into(),
    }
}

/// Extension (§5.1 past one node): where one traced epoch's comm bytes
/// travel on a 2-node × 2-GPU machine.
fn ext_15d_traffic() -> Table {
    let rows = [(Partition::OneD, "1D"), (Partition::OneFiveD, "1.5D")].map(|(partition, name)| {
        let t = traffic_split(partition, 1);
        let bytes = |b: u64| num(Some(b as f64), 0, "");
        vec![text(name), bytes(t.intra_node), bytes(t.inter_node), bytes(t.total)]
    });
    Table {
        title: "Extension: traced comm bytes of one epoch by node locality, 4 GPUs on an A100 \
                2-node x 2-GPU machine (SBM n = 400, hidden 16)"
            .into(),
        header: cols(&["Partition", "intra-node", "inter-node", "total"]),
        rows: rows.into(),
        note: "(1.5D's group broadcasts stay inside a node; its cross-node bytes equal 1D's:\n \
               the pairwise reductions replace the broadcasts' NIC crossings exactly)"
            .into(),
    }
}

/// Extension (DESIGN §15): bounded staleness on a NIC-bound 2-node machine.
fn ext_15d_staleness() -> Table {
    let rows = staleness_sweep()
        .iter()
        .map(|p| {
            let four = |v, unit| num(Some(v), 4, unit);
            vec![int(p.staleness), four(p.epoch_ms, ""), four(p.speedup_vs_fresh, "x")]
        })
        .collect();
    Table {
        title: format!(
            "Extension: bounded staleness k, 4 GPUs on an A100 2-node x 2-GPU machine behind a \
             {STALE_NIC_GBPS} GB/s NIC, mean simulated epoch over {STALE_EPOCHS} fused epochs"
        ),
        header: cols(&["k", "epoch (ms)", "vs k = 0"]),
        rows,
        note: "(k > 0 prefetches epoch e + 1's broadcasts under epoch e's backward pass)".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_render_oom_and_precision() {
        assert_eq!(secs(None), Cell::Oom);
        assert_eq!(secs(Some(1.5)).text(), "1.500");
        assert_eq!(secs(Some(0.0123)).text(), "0.0123");
        assert_eq!(speedup(Some(3.0), None).text(), "OOM");
        assert_eq!(speedup(Some(3.0), Some(2.0)).value(), Some(1.5));
        let t = Table {
            title: "T".into(),
            header: cols(&["a", "bb"]),
            rows: vec![vec![text("xyz"), Cell::Oom], vec![text("w"), int(7)]],
            note: "n".into(),
        };
        assert_eq!(t.render(), "T\na     bb\nxyz  OOM\nw      7\n\nn\n");
    }
}
