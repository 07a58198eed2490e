//! Criterion micro-benchmarks for the kernel substrate: SpMM, a serving
//! batch's k-hop walk, GeMM, collectives, the BTER generator, permutation
//! application, and the discrete-event engine itself.
//!
//! These wall-clock numbers are about *this machine's CPU kernels*, not the
//! paper's GPUs. The SpMM and GeMM groups time the shapes the repository's
//! benchmark (`BENCHMARK.json`) runs, with FLOPs as the throughput element
//! (so `Gelem/s` reads as GFLOP/s) and, beside it, the share reached of the
//! shape's roofline bound on this host (`mggcn_bench::host`, measured in
//! the same build, `host::BUILD_TARGET`): the multiply-and-add peak for a
//! GeMM, the triad bandwidth times the shape's FLOPs per byte for an SpMM.
//! `cargo bench --bench kernels -- spmm` runs one group.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mggcn_bench::host;
use mggcn_dense::{gemm, gemm_a_bt, gemm_at_b, Accumulate, Dense};
use mggcn_graph::generators::bter::{self, ClusteringProfile};
use mggcn_graph::generators::{chung_lu, degree};
use mggcn_graph::random_permutation;
use mggcn_graph::sampling::khop_layers;
use mggcn_sparse::{spmm, spmm_rows, Csr, TileGrid};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A power-law graph of `n` vertices (exponent 2.2, no degree above n/8).
fn power_law(n: usize, avg_degree: f64) -> Csr {
    let model = degree::DegreeModel { avg_degree, exponent: 2.2, max_degree: n / 8 };
    chung_lu::generate(&degree::sample_degrees(&model, n, 0x2022), 42)
}

/// SpMM at every width the benchmark's workloads run it at. d ∈ {16, 32}
/// (`train-spmm`, one strip wide) and d = 128 (`train-gemm`, four strips):
/// the staged SpMM of one epoch pass, a 12 000-vertex graph of average
/// degree 136 (resp. 6 400 vertices, degree 4) in 4×4 tiles, every tile
/// folded into its row block; the 16 tiles of the first (13 MB of CSR) do
/// not fit L2, as in the workload. d = 32 (`serve-churn`'s layer-0 SpMM
/// width: its layer 0 narrows 64 → 32, so it runs over `H⁰·W⁰`, one strip
/// wide): `spmm_rows` on 512 random rows of a 6 000-vertex graph of degree
/// 16, about the first layer's rows of a 32-vertex batch. The bound counts
/// every byte the kernel asks for as if it came from memory — a value, a
/// column index and a row of `B` per nonzero; a row pointer, a read and a
/// write of the output row per row — so a share above 1 says how much of
/// `B` the caches served.
fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm");
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    let triad = host::triad_gbs() * 1e9;
    let mut time = |id: String, nnz: usize, rows: usize, d: usize, run: &mut dyn FnMut()| {
        let flops = 2 * nnz * d;
        let bytes = nnz * (8 + 4 * d) + rows * (8 + 8 * d);
        group.throughput(Throughput::Elements(flops as u64));
        group.ceiling(triad * flops as f64 / bytes as f64);
        group.bench_function(id, |bench| bench.iter(&mut *run));
    };
    for (n, avg_degree, widths) in [(12_000, 136.0, &[16usize, 32][..]), (6_400, 4.0, &[128])] {
        let a = power_law(n, avg_degree);
        let grid = TileGrid::symmetric_uniform(&a, 4);
        for &d in widths {
            let b = Dense::from_fn(n / 4, d, |r, cc| ((r * d + cc) as f32).sin());
            let mut out = Dense::zeros(n / 4, d);
            let id = format!("16x{}rows_nnz{}_d{d}", n / 4, a.nnz());
            time(id, a.nnz(), 4 * n, d, &mut || {
                for t in grid.tiles() {
                    spmm(black_box(&t.csr), black_box(&b), &mut out, Accumulate::Add);
                }
            });
        }
    }
    let (n, d) = (6_000, 32);
    let a = power_law(n, 16.0);
    let mut rng = SmallRng::seed_from_u64(11);
    let rows: Vec<u32> = (0..512).map(|_| rng.gen_range(0..n as u32)).collect();
    let nnz = rows.iter().map(|&r| a.row_nnz(r as usize)).sum();
    let b = Dense::from_fn(n, d, |r, cc| ((r * d + cc) as f32).sin());
    let mut out = Dense::zeros(rows.len(), d);
    time(format!("rows512_of_{n}_nnz{nnz}_d{d}"), nnz, rows.len(), d, &mut || {
        spmm_rows(black_box(&a), black_box(&rows), black_box(&b), &mut out, Accumulate::Overwrite)
    });
    group.finish();
}

/// `khop_layers` for 64 two-layer batches of 32 random seeds each on
/// `serve-churn`'s graph shape (6 000 vertices, degree 16): the walk, the
/// rows and the shell. The batches are drawn once, outside the timed loop;
/// one batch timed over and over would let the branch predictor learn its
/// walk and read 2–3× under the served cost.
fn bench_khop(c: &mut Criterion) {
    let mut group = c.benchmark_group("khop");
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    let a = power_law(6_000, 16.0);
    let mut rng = SmallRng::seed_from_u64(13);
    let batches: Vec<Vec<u32>> =
        (0..64).map(|_| (0..32).map(|_| rng.gen_range(0..6_000)).collect()).collect();
    group.bench_function(format!("layers2_64x32seeds_nnz{}", a.nnz()), |bench| {
        bench.iter(|| {
            for seeds in &batches {
                black_box(khop_layers(black_box(&a), black_box(seeds), 2));
            }
        })
    });
    group.finish();
}

/// The three GeMMs of a GCN layer at the benchmark's per-GPU sizes
/// (`train-spmm`: 3000 rows, 32 → 32 → 16; `train-gemm`: 1600 rows,
/// 128 → 128 → 16). The first layer's input is dense features; the second's
/// is post-ReLU, with half its entries exact zeros at random places (the
/// kernels leave those terms out). FLOPs are counted as if they did not.
fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(1));
    group.ceiling(host::peak_mul_add_gflops() * 1e9);
    let mut rng = SmallRng::seed_from_u64(7);
    for (rows, d_in, d_out, relu) in [
        (3000usize, 32usize, 32usize, false),
        (3000, 32, 16, true),
        (1600, 128, 128, false),
        (1600, 128, 16, true),
    ] {
        let floor = if relu { 0.0 } else { -1.0 };
        let h = Dense::from_fn(rows, d_in, |_, _| rng.gen_range(-1.0f32..1.0).max(floor));
        let w = Dense::from_fn(d_in, d_out, |_, _| rng.gen_range(-1.0..1.0));
        let g = Dense::from_fn(rows, d_out, |_, _| rng.gen_range(-1.0..1.0));
        let mut hw = Dense::zeros(rows, d_out);
        let mut hg = Dense::zeros(rows, d_in);
        let mut wg = Dense::zeros(d_in, d_out);
        let shape = format!("{rows}x{d_in}x{d_out}{}", if relu { "_relu" } else { "" });
        group.throughput(Throughput::Elements(2 * (rows * d_in * d_out) as u64));
        group.bench_function(format!("gemm/{shape}"), |bench| {
            bench.iter(|| gemm(black_box(&h), black_box(&w), &mut hw, Accumulate::Overwrite))
        });
        group.bench_function(format!("gemm_a_bt/{shape}"), |bench| {
            bench.iter(|| gemm_a_bt(black_box(&g), black_box(&w), &mut hg, Accumulate::Overwrite))
        });
        group.bench_function(format!("gemm_at_b/{shape}"), |bench| {
            bench.iter(|| gemm_at_b(black_box(&h), black_box(&g), &mut wg, Accumulate::Overwrite))
        });
    }
    group.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    let len = 1 << 20;
    let src: Vec<f32> = (0..len).map(|i| i as f32).collect();
    group.bench_function("broadcast_4x1M", |bench| {
        let mut d1 = vec![0.0f32; len];
        let mut d2 = vec![0.0f32; len];
        let mut d3 = vec![0.0f32; len];
        let mut d4 = vec![0.0f32; len];
        bench.iter(|| {
            mggcn_comm::broadcast(black_box(&src), &mut [&mut d1, &mut d2, &mut d3, &mut d4]);
        })
    });
    group.bench_function("all_reduce_4x1M", |bench| {
        let mut b1 = src.clone();
        let mut b2 = src.clone();
        let mut b3 = src.clone();
        let mut b4 = src.clone();
        bench.iter(|| {
            mggcn_comm::all_reduce_sum(&mut [&mut b1, &mut b2, &mut b3, &mut b4]);
        })
    });
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    let model = degree::DegreeModel::power_law(8.0, 2.4, 20_000);
    let degrees = degree::sample_degrees(&model, 20_000, 7);
    group.bench_function("chung_lu_20k", |bench| {
        bench.iter(|| chung_lu::generate(black_box(&degrees), 1))
    });
    group.bench_function("bter_20k", |bench| {
        bench.iter(|| bter::generate(black_box(&degrees), &ClusteringProfile::arxiv_like(), 1))
    });
    group.finish();
}

fn bench_permutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("permutation");
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    let degrees = vec![12u32; 30_000];
    let a = chung_lu::generate(&degrees, 3);
    let perm = random_permutation(30_000, 9);
    group.bench_function("permute_symmetric_30k", |bench| {
        bench.iter(|| black_box(&a).permute_symmetric(black_box(&perm)))
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    use mggcn_gpusim::engine::OpDesc;
    use mggcn_gpusim::{BufId, Category, Effects, MachineSpec, Schedule, Work};
    let mut group = c.benchmark_group("engine");
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("schedule_1k_ops", |bench| {
        bench.iter(|| {
            let mut s: Schedule<()> = Schedule::new(MachineSpec::dgx_a100());
            // Each op updates one buffer in place, so each waits on the
            // op before it, on another GPU.
            for i in 0..1000usize {
                s.record(
                    i % 8,
                    0,
                    Work::Compute { flops: 1.0e9, bytes: 1.0e6 },
                    OpDesc::new(Category::Other, "op"),
                    Effects::none().rw(BufId::new(0, "X")),
                    None,
                );
            }
            s.run(&())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_spmm,
    bench_khop,
    bench_gemm,
    bench_collectives,
    bench_generators,
    bench_permutation,
    bench_engine
);
criterion_main!(benches);
