//! The four workloads and the inputs they make from a seed. The program
//! under test never sees the seed, only what is generated here.

use mg_gcn::dense::Dense;
use mg_gcn::exec::Backend;
use mg_gcn::graph::generators::{chung_lu, degree};
use mg_gcn::graph::Graph;
use mg_gcn::serve::{generate_load, LoadGenConfig, Request};
use mg_gcn::sparse::Csr;

/// A full-batch training workload: one step is `epochs_per_step` epochs.
#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    pub vertices: usize,
    pub avg_degree: f64,
    pub feat: usize,
    pub hidden: &'static [usize],
    pub classes: usize,
    pub gpus: usize,
    pub backend: Backend,
    pub epochs_per_step: usize,
}

/// A serving workload: one step is `rounds` rounds, each serving `chunk`
/// requests, then applying a delta of `delta_edges` new edges.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub vertices: usize,
    pub avg_degree: f64,
    pub feat: usize,
    pub hidden: &'static [usize],
    pub classes: usize,
    pub gpus: usize,
    pub rounds: usize,
    pub chunk: usize,
    pub delta_edges: usize,
    pub qps: f64,
    pub batch_window: f64,
    pub max_batch: usize,
    /// Propagation-cache budget in rows of `feat` floats.
    pub cache_rows: usize,
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Train(TrainSpec),
    Serve(ServeSpec),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Kernel-pool width (`MGGCN_THREADS`: caller plus `pool_width - 1`
    /// lanes) of the traced run's all-CPUs phase. The untraced run and
    /// every other phase keep to one CPU and one pool thread.
    pub pool_width: usize,
    /// Steps run (untimed) at the end of set-up.
    pub warmup_steps: usize,
    pub kind: Kind,
}

/// Power-law exponent of every generated degree sequence.
const EXPONENT: f64 = 2.2;

const SERVE_CHURN: ServeSpec = ServeSpec {
    vertices: 6_000,
    avg_degree: 16.0,
    feat: 64,
    hidden: &[32],
    classes: 16,
    gpus: 2,
    rounds: 5,
    chunk: 160,
    delta_edges: 2,
    qps: 100_000.0,
    batch_window: 1e-3,
    max_batch: 32,
    cache_rows: 1_500,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train-spmm",
        pool_width: 1,
        warmup_steps: 4,
        kind: Kind::Train(TrainSpec {
            vertices: 12_000,
            avg_degree: 136.0,
            feat: 32,
            hidden: &[32],
            classes: 16,
            gpus: 4,
            backend: Backend::Simulated,
            epochs_per_step: 1,
        }),
    },
    Workload {
        name: "train-gemm",
        pool_width: 2,
        warmup_steps: 4,
        kind: Kind::Train(TrainSpec {
            vertices: 6_400,
            avg_degree: 4.0,
            feat: 128,
            hidden: &[128],
            classes: 16,
            gpus: 4,
            backend: Backend::Simulated,
            epochs_per_step: 1,
        }),
    },
    Workload {
        name: "train-exec",
        pool_width: 1,
        warmup_steps: 4,
        kind: Kind::Train(TrainSpec {
            vertices: 600,
            avg_degree: 8.0,
            feat: 32,
            hidden: &[32, 32],
            classes: 16,
            gpus: 2,
            backend: Backend::Threaded,
            epochs_per_step: 24,
        }),
    },
    Workload {
        name: "serve-churn",
        pool_width: 1,
        warmup_steps: 8,
        kind: Kind::Serve(SERVE_CHURN),
    },
];

impl Workload {
    /// Whether the program would spread over a second core if it had one:
    /// through kernel-pool lanes, or through the threaded runtime's workers.
    pub fn uses_second_core(&self) -> bool {
        self.pool_width > 1
            || matches!(&self.kind, Kind::Train(s) if s.backend == Backend::Threaded)
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the harness's own generator, so inputs depend on nothing
/// but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-scale, scale)`.
    pub fn symmetric(&mut self, scale: f32) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale
    }
}

/// Derive an independent seed for one input stream.
fn stream(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// Largest degree of the unscaled power law such that, once the sequence
/// is rescaled to `avg_degree`, no expected degree exceeds an eighth of
/// the vertices. An untruncated exponent-2.2 tail at these sizes asks for
/// hubs wider than the graph; Chung–Lu then drops the duplicate edges and
/// the realised average degree falls to a third of the target.
fn tail_cap(vertices: usize, avg_degree: f64) -> usize {
    let (mut num, mut den, mut cap) = (0.0f64, 0.0f64, 1usize);
    loop {
        let d = cap as f64;
        let w = d.powf(-EXPONENT);
        num += d * w;
        den += w;
        let scaled_max = d * avg_degree / (num / den);
        if cap >= 2 && scaled_max > vertices as f64 / 8.0 {
            return cap - 1;
        }
        cap += 1;
    }
}

/// A Chung–Lu graph over a truncated power-law degree sequence. The degree
/// sequence is the workload's profile and does not change with the seed
/// (the paper's §6 does the same: profile a degree distribution, then
/// generate from it); the wiring and everything attached to the graph do.
/// With the sequence drawn per seed, a step's work moved by several percent
/// between seeds on the small graphs, and that is not the program's doing.
pub fn power_law_adjacency(vertices: usize, avg_degree: f64, seed: u64) -> Csr {
    const PROFILE_SEED: u64 = 0x2022;
    let model = degree::DegreeModel {
        avg_degree,
        exponent: EXPONENT,
        max_degree: tail_cap(vertices, avg_degree).max(2),
    };
    let degrees = degree::sample_degrees(&model, vertices, PROFILE_SEED);
    chung_lu::generate(&degrees, stream(seed, 2))
}

/// The workload's graph with random features, labels and split attached.
pub fn graph(kind: &Kind, seed: u64) -> Graph {
    let (vertices, avg_degree, feat, classes) = match kind {
        Kind::Train(s) => (s.vertices, s.avg_degree, s.feat, s.classes),
        Kind::Serve(s) => (s.vertices, s.avg_degree, s.feat, s.classes),
    };
    let adj = power_law_adjacency(vertices, avg_degree, seed);
    Graph::synthesize(adj, feat, classes, stream(seed, 3))
}

/// Serving weights `feat → hidden… → classes`, Glorot-scaled.
pub fn serve_weights(spec: &ServeSpec, seed: u64) -> Vec<Dense> {
    let mut rng = Rng::new(stream(seed, 4));
    let mut dims = vec![spec.feat];
    dims.extend_from_slice(spec.hidden);
    dims.push(spec.classes);
    dims.windows(2)
        .map(|d| {
            let scale = (6.0 / (d[0] + d[1]) as f32).sqrt();
            Dense::from_fn(d[0], d[1], |_, _| rng.symmetric(scale))
        })
        .collect()
}

/// The read half of round `step`: a skewed open-loop arrival chunk.
pub fn request_chunk(spec: &ServeSpec, vertices: usize, seed: u64, step: u64) -> Vec<Request> {
    generate_load(&LoadGenConfig::skewed(
        spec.qps,
        spec.chunk,
        vertices,
        stream(seed, 0x100 + step),
    ))
}

/// Rounds after which the deltas come round again. The warm-up steps of a
/// serving workload cover them all once (`inputs_are_a_function_of_the_seed`
/// holds it to that), so a timed step never adds a nonzero: it re-asserts an
/// edge that is there, which `ServingModel::apply_delta` answers with the
/// same rebuild, re-normalisation and invalidation as for a new one. With
/// fresh edges every round, a run adds 4 500 to this graph's 90 000
/// nonzeros, every neighbourhood widens, and the floor of the second half of
/// a run was 1–4 % above that of the first: the floor then came from the
/// run's first steps and moved with the number of steps in the run.
pub const DELTA_CYCLE_ROUNDS: u64 = 40;

/// The write half of round `round`: undirected edges.
pub fn delta_edges(spec: &ServeSpec, vertices: usize, seed: u64, round: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(stream(seed, 0x8000_0000 + round % DELTA_CYCLE_ROUNDS));
    (0..spec.delta_edges)
        .map(|_| {
            let u = rng.below(vertices);
            let v = (u + 1 + rng.below(vertices - 1)) % vertices;
            (u as u32, v as u32)
        })
        .collect()
}

/// `count` distinct-ish vertices whose served answers are checked.
pub fn sample_vertices(vertices: usize, count: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(stream(seed, 5));
    (0..count).map(|_| rng.below(vertices) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let spec = SERVE_CHURN;
        assert_eq!(request_chunk(&spec, 500, 9, 3), request_chunk(&spec, 500, 9, 3));
        assert_ne!(request_chunk(&spec, 500, 9, 3), request_chunk(&spec, 500, 9, 4));
        assert_ne!(request_chunk(&spec, 500, 9, 3), request_chunk(&spec, 500, 10, 3));
        let edges = delta_edges(&spec, 500, 9, 0);
        assert_eq!(edges, delta_edges(&spec, 500, 9, DELTA_CYCLE_ROUNDS));
        assert_ne!(edges, delta_edges(&spec, 500, 9, 1));
        for w in &WORKLOADS {
            if let Kind::Serve(s) = &w.kind {
                assert!((w.warmup_steps * s.rounds) as u64 >= DELTA_CYCLE_ROUNDS);
            }
        }
        assert!(edges.iter().all(|&(u, v)| u != v && (u as usize) < 500 && (v as usize) < 500));
        let a = power_law_adjacency(300, 6.0, 1);
        assert_eq!(a.nnz(), power_law_adjacency(300, 6.0, 1).nnz());
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }
}
