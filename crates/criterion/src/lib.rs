//! In-tree, dependency-free stand-in for `criterion`.
//!
//! The build environment resolves crates hermetically (no registry
//! access), so this crate provides the criterion 0.5 API subset the
//! workspace's benchmarks use: `Criterion`, `benchmark_group` with
//! `sample_size`/`measurement_time`/`throughput`, `bench_function`,
//! `Bencher::iter`, and the `criterion_group!` / `criterion_main!` macros,
//! plus one extension, [`BenchmarkGroup::ceiling`]. As with criterion, the
//! first free command-line argument (`cargo bench --bench kernels -- spmm`)
//! keeps only the benchmarks whose `group/id` contains it.
//!
//! Instead of criterion's statistical machinery it runs a short warmup,
//! then times `sample_size` batches and prints min/mean per-iteration
//! times (and the throughput at the min, when one is declared). Good
//! enough to eyeball regressions; not a statistics suite.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level harness handle, passed to every benchmark function.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    /// Takes the name filter from the command line (cargo's own `--bench`
    /// and other flags are skipped).
    fn default() -> Self {
        Self { filter: std::env::args().skip(1).find(|a| !a.starts_with('-')) }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            filter: self.filter.clone(),
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            throughput: None,
            ceiling: None,
        }
    }
}

/// Work done by one iteration, reported as a rate beside the time.
#[derive(Clone, Copy)]
pub enum Throughput {
    Elements(u64),
}

/// A named group of related benchmarks sharing sampling settings.
pub struct BenchmarkGroup {
    name: String,
    filter: Option<String>,
    sample_size: usize,
    measurement_time: Duration,
    throughput: Option<Throughput>,
    ceiling: Option<f64>,
}

impl BenchmarkGroup {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Applies to the benchmarks registered after it.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Not in criterion: the most elements per second the host could do of
    /// the work declared by [`BenchmarkGroup::throughput`] (a measured
    /// roofline bound). Benchmarks registered after it report the share of
    /// it they reach.
    pub fn ceiling(&mut self, elements_per_second: f64) -> &mut Self {
        self.ceiling = Some(elements_per_second);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.to_string();
        if self.filter.as_ref().is_some_and(|p| !format!("{}/{id}", self.name).contains(p)) {
            return self;
        }
        let mut b = Bencher::new(self.sample_size, self.measurement_time);
        f(&mut b);
        b.report(&self.name, &id, self.throughput, self.ceiling);
        self
    }

    pub fn finish(self) {}
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    samples: Vec<Duration>,
    iters_per_sample: u64,
}

impl Bencher {
    fn new(sample_size: usize, measurement_time: Duration) -> Self {
        Self { sample_size, measurement_time, samples: Vec::new(), iters_per_sample: 1 }
    }

    /// Time `routine`: calibrate iterations per sample against the
    /// measurement budget, then record `sample_size` timed samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warmup + calibration: one untimed call, then estimate cost.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let budget = self.measurement_time.max(Duration::from_millis(10));
        let per_sample = budget.as_nanos() / self.sample_size.max(1) as u128;
        self.iters_per_sample = (per_sample / once.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            self.samples.push(start.elapsed());
        }
    }

    fn report(&self, group: &str, id: &str, throughput: Option<Throughput>, ceiling: Option<f64>) {
        if self.samples.is_empty() {
            println!("{group}/{id}: no samples (bencher.iter never called)");
            return;
        }
        let per_iter: Vec<f64> =
            self.samples.iter().map(|d| d.as_secs_f64() / self.iters_per_sample as f64).collect();
        let min = per_iter.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let rate = match throughput {
            Some(Throughput::Elements(n)) => {
                let per_second = n as f64 / min;
                let share = ceiling.map_or(String::new(), |bound| {
                    format!(" = {:.2} of a {:.1} Gelem/s bound", per_second / bound, bound / 1e9)
                });
                format!(", {:.2} Gelem/s{share}", per_second / 1e9)
            }
            None => String::new(),
        };
        println!(
            "{group}/{id}: min {:.3} ms, mean {:.3} ms{rate} ({} samples x {} iters)",
            min * 1e3,
            mean * 1e3,
            self.samples.len(),
            self.iters_per_sample
        );
    }
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit `main` running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test` runs bench targets with --test; nothing to do.
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion { filter: None };
        let mut group = c.benchmark_group("demo");
        group.sample_size(3).measurement_time(Duration::from_millis(30));
        group.throughput(Throughput::Elements(1));
        let mut hits = 0u64;
        group.bench_function("count", |b| {
            b.iter(|| {
                hits += 1;
                black_box(hits)
            })
        });
        group.finish();
        assert!(hits > 0);
    }

    #[test]
    fn filter_keeps_only_matching_names() {
        let mut c = Criterion { filter: Some("demo/keep".into()) };
        let mut group = c.benchmark_group("demo");
        group.sample_size(1).measurement_time(Duration::from_millis(10));
        let (mut kept, mut dropped) = (0u64, 0u64);
        group.bench_function("keep_this", |b| b.iter(|| kept += 1));
        group.bench_function("other", |b| b.iter(|| dropped += 1));
        assert!(kept > 0 && dropped == 0);
    }
}
