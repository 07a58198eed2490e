//! This host's ceilings — what `benches/kernels.rs` divides by. The
//! simulated epoch times the cost model was calibrated against are the
//! `paper` bench target's tables (`cargo bench -p mggcn-bench --bench paper`).

fn main() {
    println!("=== this host, one core, the workspace's build settings ===");
    println!("STREAM triad            {:>7.1} GB/s", mggcn_bench::host::triad_gbs());
    println!("peak mul+add (no FMA)   {:>7.1} GFLOP/s", mggcn_bench::host::peak_mul_add_gflops());
}
