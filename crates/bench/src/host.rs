//! What this host can do at most — the denominators of the kernel figures.
//!
//! Both are measured on one core with plain Rust loops built like the rest
//! of the workspace (the baseline ISA, no FMA contraction), so a kernel's
//! GFLOP/s or GB/s divided by them says how far the kernel is from the
//! machine, not from a data sheet.

use std::hint::black_box;
use std::time::Instant;

/// Sustained memory bandwidth in GB/s: the STREAM triad `a[i] = b[i] + s·c[i]`
/// over three 32 MiB arrays, 12 bytes an element (two reads, one write),
/// best of five passes.
pub fn triad_gbs() -> f64 {
    const N: usize = 8 << 20;
    let (b, c) = (vec![1.0f32; N], vec![2.0f32; N]);
    let mut a = vec![0.0f32; N];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + 3.0 * z;
        }
        black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    12.0 * N as f64 / best / 1e9
}

/// Peak single-core multiply-and-add rate in GFLOP/s: 56 independent
/// `x = x·m + a` chains, one multiply and one add each per step — fourteen
/// 4-wide accumulators beside the two constants fill the sixteen vector
/// registers of the baseline ISA, so nothing is loaded (more chains would
/// spill and measure the load ports), and they cover the latency of every
/// unit that can take a multiply or an add. The best of many runs of a
/// quarter of a millisecond: on a shared host a run of several milliseconds
/// rarely has the core to itself from start to end.
pub fn peak_mul_add_gflops() -> f64 {
    const CHAINS: usize = 56;
    const STEPS: usize = 100_000;
    let (m, a) = black_box((0.999_999f32, 1.0e-6f32));
    let mut best = f64::INFINITY;
    for _ in 0..200 {
        let mut x = [1.0f32; CHAINS];
        let start = Instant::now();
        for _ in 0..STEPS {
            for xj in &mut x {
                *xj = *xj * m + a;
            }
        }
        black_box(x);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (2 * CHAINS * STEPS) as f64 / best / 1e9
}
