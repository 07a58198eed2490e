//! One run of one workload: untraced for the end-to-end metrics, traced
//! for the per-layer ones.

use crate::clock::{self, peak_rss_mib, process_cpu_seconds, CpuSet};
use crate::report::{Metrics, Record};
use crate::serve::{cache_delta, ServeRig, ServeTrace};
use crate::spans::{Recorder, StepTable};
use crate::stats::{floor, floor_of, median, percentile, SETUP_FLOOR_SHARE};
use crate::train::{TrainRig, TrainTrace};
use crate::workloads::{self, Kind, Workload};
use mg_gcn::exec::{pool_size, set_active_threads, Backend};
use mg_gcn::serve::{CacheStats, ServingModel};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

/// How much a run does at least, however short `--seconds` is: set-ups per
/// round (an untraced run has one round before its steps and one after, and
/// `setup_s` is the mean of the fastest quarter of them all), and timed
/// steps, of whose fastest twentieth the floor is the mean. A round also
/// goes on for `setup_seconds`, so a workload that is quick to set up
/// (`train-exec`: 0.2 s) gives more samples.
struct Size {
    setups: usize,
    setup_seconds: f64,
    steps: usize,
}

const FULL: Size = Size { setups: 4, setup_seconds: 2.0, steps: 400 };
/// `--seconds 0`, which is how `--smoke` runs a workload.
const SMOKE: Size = Size { setups: 1, setup_seconds: 0.0, steps: 20 };
/// Traced steps over which counts are taken and the traced run is compared
/// step by step with an untraced reference. Fixed, so counts do not depend
/// on how many steps fit into the run.
pub const COUNT_WINDOW: usize = 8;
/// Past the count window, replays follow every so many steps only: they
/// leave the processor's caches cold for the step that comes next.
const REPLAY_EVERY: usize = 8;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// The CPUs the process could use before it was pinned to one.
    pub all_cpus: CpuSet,
}

impl Args {
    fn size(&self) -> &'static Size {
        if self.seconds > 0.0 {
            &FULL
        } else {
            &SMOKE
        }
    }
}

enum Rig {
    Train(TrainRig),
    Serve(ServeRig),
}

/// A rig built from the seed and warmed up, with what that cost.
struct Setup {
    rig: Rig,
    vertices: usize,
    nnz: u64,
    generate_s: f64,
    /// Loss after the last warm-up step (training workloads).
    warm_loss: Option<f64>,
    /// What two set-ups from one seed must agree on, bit for bit.
    fingerprint: BTreeMap<&'static str, u64>,
}

fn stats_fingerprint(s: &CacheStats) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        ("cache_hits", s.hits),
        ("cache_misses", s.misses),
        ("cache_insertions", s.insertions),
        ("cache_evictions", s.evictions),
        ("cache_invalidations", s.invalidations),
    ])
}

fn setup(w: &Workload, seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let graph = workloads::graph(&w.kind, seed);
    let generate_s = t.elapsed().as_secs_f64();
    let (vertices, nnz) = (graph.n(), graph.adj.nnz() as u64);
    match &w.kind {
        Kind::Train(spec) => {
            let mut rig = TrainRig::build(&graph, spec, seed)?;
            let mut warm_loss = f64::NAN;
            for _ in 0..w.warmup_steps {
                warm_loss = rig.step()?;
            }
            rig.end_warmup();
            let fingerprint = BTreeMap::from([
                ("warm_loss", warm_loss.to_bits()),
                ("warm_weights", rig.trainer.state().weights_digest()),
            ]);
            Ok(Setup {
                rig: Rig::Train(rig),
                vertices,
                nnz,
                generate_s,
                warm_loss: Some(warm_loss),
                fingerprint,
            })
        }
        Kind::Serve(spec) => {
            let model = ServingModel::from_parts(
                workloads::serve_weights(spec, seed),
                graph.adj,
                graph.features,
            )?;
            let mut rig = ServeRig::build(model, spec, seed);
            for _ in 0..w.warmup_steps {
                let input = rig.next_input();
                rig.step(&input)?;
            }
            let fingerprint = stats_fingerprint(rig.server.cache().stats());
            Ok(Setup {
                rig: Rig::Serve(rig),
                vertices,
                nnz,
                generate_s,
                warm_loss: None,
                fingerprint,
            })
        }
    }
}

/// The core clock as the run met it: one probe before every set-up and
/// every step, outside their clocks. The host moves the clock between
/// roughly 2.9 and 3.3 GHz with its own load, for minutes at a time, and
/// the floor of a step moves with it; every reported time is therefore
/// scaled from the clock it was measured at to [`clock::REFERENCE_GHZ`].
#[derive(Default)]
struct Clock {
    probes: Vec<f64>,
}

impl Clock {
    fn probe(&mut self) {
        self.probes.push(clock::clock_probe_seconds());
    }

    /// The clock of the run's fastest stretches, which is where the floors
    /// come from too.
    fn ghz(&self) -> f64 {
        clock::probe_ghz(floor(&self.probes))
    }

    /// What a measured time is multiplied by to read at the reference clock.
    fn scale(&self) -> f64 {
        self.ghz() / clock::REFERENCE_GHZ
    }
}

/// Timed opaque steps. A failed step is counted and its times dropped: it
/// may have stopped early, and the floor is made of the fastest steps.
#[derive(Default)]
struct Steps {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    failed: usize,
    last_loss: Option<f64>,
}

impl Steps {
    fn attempted(&self) -> usize {
        self.wall.len() + self.failed
    }

    fn clocked(&mut self, step: impl FnOnce() -> Result<Option<f64>, String>) {
        let (c0, t0) = (process_cpu_seconds(), Instant::now());
        let outcome = step();
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), process_cpu_seconds() - c0);
        match outcome {
            Ok(loss) => {
                self.wall.push(wall);
                self.cpu.push(cpu);
                self.last_loss = loss.or(self.last_loss);
            }
            Err(e) => {
                eprintln!("step {} failed: {e}", self.attempted());
                self.failed += 1;
            }
        }
    }
}

impl Rig {
    fn items_per_step(&self) -> f64 {
        match self {
            Rig::Train(r) => (r.nnz * r.epochs_per_step as u64) as f64,
            Rig::Serve(r) => r.requests_per_step() as f64,
        }
    }

    /// One opaque step under the wall and CPU clocks. Inputs are made, a
    /// full block of training steps rewound and the core clock probed
    /// before the clocks start.
    fn timed_step(&mut self, into: &mut Steps, clock: &mut Clock) {
        clock.probe();
        match self {
            Rig::Train(r) => {
                r.begin_step();
                into.clocked(|| r.step().map(Some));
            }
            Rig::Serve(r) => {
                let input = r.next_input();
                into.clocked(|| r.step(&input).map(|()| None));
            }
        }
    }

    /// Steps for `seconds`, and `min_steps` of them at least.
    fn run_steps(
        &mut self,
        seconds: f64,
        min_steps: usize,
        clock: &mut Clock,
    ) -> Result<Steps, String> {
        let mut steps = Steps::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds || steps.attempted() < min_steps {
            self.timed_step(&mut steps, clock);
        }
        if steps.wall.is_empty() {
            return Err(format!("all {} steps failed", steps.failed));
        }
        Ok(steps)
    }
}

/// The checks a rig must pass after its last step, whatever kind of run
/// it was in.
fn final_checks(
    rig: &mut Rig,
    warm_loss: Option<f64>,
    last_loss: Option<f64>,
    checks: &mut BTreeMap<&'static str, bool>,
) {
    match rig {
        Rig::Train(r) => {
            let warm = warm_loss.unwrap_or(f64::NAN);
            let ends = &r.block_end_losses;
            checks.insert("loss_finite", last_loss.is_some_and(f64::is_finite));
            checks.insert(
                "loss_below_post_warmup",
                !ends.is_empty() && ends.iter().all(|&end| end < warm),
            );
            checks
                .insert("blocks_repeat", ends.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
        }
        Rig::Serve(r) => {
            let answers = r.check_answers();
            if let Err(e) = &answers {
                eprintln!("check failed: {e}");
            }
            checks.insert("answers_equal_forward_full", answers.is_ok());
        }
    }
}

/// The set-ups of an untraced run, one after another under the clock.
#[derive(Default)]
struct Setups {
    seconds: Vec<f64>,
    /// What the latest set-up left for the one after it to agree with.
    fingerprint: Option<BTreeMap<&'static str, u64>>,
    repeat: bool,
}

impl Setups {
    /// One round: `size.setups` set-ups and `size.setup_seconds` at least.
    /// `held` is dropped before the first, so no two rigs are alive at once
    /// and the peak memory is one set-up's. Returns the last rig built.
    fn round(&mut self, a: &Args, clock: &mut Clock, held: Option<Setup>) -> Result<Setup, String> {
        let size = a.size();
        let mut current = held;
        let (start, before) = (Instant::now(), self.seconds.len());
        while self.seconds.len() - before < size.setups
            || start.elapsed().as_secs_f64() < size.setup_seconds
        {
            drop(current.take());
            clock.probe();
            let t = Instant::now();
            let s = setup(a.workload, a.seed)?;
            self.seconds.push(t.elapsed().as_secs_f64());
            self.repeat &= self.fingerprint.as_ref().is_none_or(|p| *p == s.fingerprint);
            self.fingerprint = Some(s.fingerprint.clone());
            current = Some(s);
        }
        Ok(current.expect("a round has at least one set-up"))
    }
}

/// The untraced run: a round of set-ups, opaque steps for `seconds`, a
/// second round of set-ups. The two rounds lie half a minute apart, so a
/// busy spell of the host seldom covers both.
pub fn run_plain(a: &Args) -> Result<Record, String> {
    let size = a.size();
    let mut clock = Clock::default();
    let mut setups = Setups { repeat: true, ..Setups::default() };
    let mut s = setups.round(a, &mut clock, None)?;
    let steps = s.rig.run_steps(a.seconds, size.steps, &mut clock)?;
    let mut checks = BTreeMap::from([("enough_timed_steps", steps.wall.len() >= size.steps)]);
    final_checks(&mut s.rig, s.warm_loss, steps.last_loss, &mut checks);
    let items_per_step = s.rig.items_per_step();
    let s = setups.round(a, &mut clock, Some(s))?;
    checks.insert("setups_repeat", setups.repeat);
    let setup_s = setups.seconds;

    // Times at the reference clock; the diagnostics are as measured.
    let scale = clock.scale();
    let step_floor = floor(&steps.wall) * scale;
    let metrics = Metrics::from([
        ("setup_s", floor_of(&setup_s, SETUP_FLOOR_SHARE) * scale),
        ("step_floor_ms", step_floor * 1e3),
        ("items_per_s", items_per_step / step_floor),
        ("step_cpu_floor_ms", floor(&steps.cpu) * scale * 1e3),
        ("peak_rss_mib", peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?),
    ]);
    let diagnostics = Metrics::from([
        ("run.clock_ghz", clock.ghz()),
        ("run.step_floor_measured_ms", floor(&steps.wall) * 1e3),
        // A step that costs the same all through the run has the same floor
        // in both halves of it.
        ("run.step_floor_first_half_ms", floor(&steps.wall[..steps.wall.len().div_ceil(2)]) * 1e3),
        ("run.step_floor_second_half_ms", floor(&steps.wall[steps.wall.len() / 2..]) * 1e3),
        ("run.step_min_ms", percentile(&steps.wall, 0.0) * 1e3),
        ("run.step_p50_ms", median(&steps.wall) * 1e3),
        ("run.step_p90_ms", percentile(&steps.wall, 0.9) * 1e3),
        ("run.step_cpu_p50_ms", median(&steps.cpu) * 1e3),
        ("run.setup_p50_s", median(&setup_s)),
        ("run.setup_min_s", setup_s.iter().copied().fold(f64::INFINITY, f64::min)),
        ("run.setup_max_s", setup_s.iter().copied().fold(0.0, f64::max)),
        ("run.generate_s", s.generate_s),
        ("run.setups", setup_s.len() as f64),
    ]);
    Ok(Record {
        workload: a.workload,
        traced: false,
        seed: a.seed,
        seconds: a.seconds,
        steps: steps.attempted(),
        failed: steps.failed,
        vertices: s.vertices,
        nnz: s.nnz,
        checks,
        fingerprint: s.fingerprint,
        diagnostics,
        metrics,
    })
}

/// Traced steps of a training rig, with replays between them.
struct TrainPhase {
    trace: TrainTrace,
    rec: Recorder,
    epochs_per_step: usize,
    gpus: usize,
    backend: Backend,
    failed: usize,
    last_loss: Option<f64>,
    /// Every traced step of the count window left the loss and the weights
    /// bit-identical to the untraced reference's.
    identical: bool,
    big_buffer_mib: f64,
    /// The buffers really held fit the plan of `plan_buffers` big buffers.
    within_plan: bool,
    plan_buffers: u64,
}

fn trace_train(
    rig: &mut TrainRig,
    reference: TrainRig,
    seconds: f64,
    min_steps: usize,
    clock: &mut Clock,
) -> Result<TrainPhase, String> {
    let mut trace = TrainTrace::new(&rig.trainer);
    let mut rec = Recorder::new();
    let (mut failed, mut last_loss, mut identical) = (0, None, true);
    // Past the window nothing but the rig under test stays alive.
    let mut reference = Some(reference);
    let start = Instant::now();
    let mut step = 0;
    while start.elapsed().as_secs_f64() < seconds || step < min_steps.max(COUNT_WINDOW) {
        rig.begin_step();
        clock.probe();
        let loss = trace.step(rig, &mut rec);
        match &loss {
            Ok(loss) => last_loss = Some(*loss),
            Err(e) => {
                failed += 1;
                eprintln!("traced step {step} failed: {e}");
            }
        }
        if let Some(r) = reference.as_mut() {
            r.begin_step();
            identical &= r.step().ok().map(f64::to_bits) == loss.ok().map(f64::to_bits)
                && r.trainer.state().weights_digest() == rig.trainer.state().weights_digest();
        }
        if step < COUNT_WINDOW || step.is_multiple_of(REPLAY_EVERY) {
            trace.replay(&rig.trainer, &mut rec)?;
        }
        step += 1;
        if step == COUNT_WINDOW {
            reference = None;
        }
    }
    let (held, within_plan) = rig.big_buffers_held();
    Ok(TrainPhase {
        trace,
        rec,
        epochs_per_step: rig.epochs_per_step,
        gpus: rig.trainer.options().gpus,
        backend: rig.backend(),
        failed,
        last_loss,
        identical,
        big_buffer_mib: held as f64 / (1u64 << 20) as f64,
        within_plan,
        plan_buffers: rig.plan_buffers(),
    })
}

/// Traced steps of a serving rig, with replays and the cluster probe
/// between them.
struct ServePhase {
    rec: Recorder,
    failed: usize,
    identical: bool,
    /// Counts over the count window.
    cache: CacheStats,
    sim_p99_ms: f64,
    batches: u64,
    khop_touched: u64,
    cluster_shed: u64,
    requests_per_chunk: usize,
}

fn trace_serve(
    rig: &mut ServeRig,
    reference: ServeRig,
    seconds: f64,
    min_steps: usize,
    clock: &mut Clock,
) -> Result<ServePhase, String> {
    let mut trace = ServeTrace::new(rig);
    let mut rec = Recorder::new();
    let (mut failed, mut identical) = (0, true);
    let cache_before = *rig.server.cache().stats();
    let mut reference = Some(reference);
    let mut counts = None;
    let start = Instant::now();
    let mut step = 0;
    while start.elapsed().as_secs_f64() < seconds || step < min_steps.max(COUNT_WINDOW) {
        let input = rig.next_input();
        clock.probe();
        if let Err(e) = trace.step(rig, &input, &mut rec) {
            failed += 1;
            eprintln!("traced step {step} failed: {e}");
        }
        if let Some(r) = reference.as_mut() {
            let input = r.next_input();
            identical &=
                r.step(&input).is_ok() && r.server.cache().stats() == rig.server.cache().stats();
        }
        if step < COUNT_WINDOW || step.is_multiple_of(REPLAY_EVERY) {
            trace.replay(rig, &input, &mut rec);
        }
        step += 1;
        if step == COUNT_WINDOW {
            counts = Some((
                cache_delta(rig.server.cache().stats(), &cache_before),
                trace.sim_latency.p99() * 1e3,
                trace.batches,
                trace.khop_touched,
                trace.cluster_shed,
            ));
            if let Some(mut r) = reference.take() {
                identical &= r.check_answers().ok() == rig.check_answers().ok();
            }
            // Past the window nothing but the rig under test stays alive.
            trace.drop_cluster();
        }
    }
    let (cache, sim_p99_ms, batches, khop_touched, cluster_shed) =
        counts.expect("the window is at most the steps taken");
    Ok(ServePhase {
        rec,
        failed,
        identical,
        cache,
        sim_p99_ms,
        batches,
        khop_touched,
        cluster_shed,
        requests_per_chunk: rig.requests_per_chunk(),
    })
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `sparse`, `dense`, `comm`, `core`, `analyze`, `gpusim`: from traced
/// training epochs on either backend. Times are per epoch.
fn train_metrics(p: &TrainPhase, table: &StepTable, m: &mut Metrics) {
    let k = p.epochs_per_step as f64;
    let threaded = p.backend == Backend::Threaded;
    // Simulated: bodies run one after another on this thread, each under a
    // span. Threaded: workers measure them; sum the lanes.
    let op = |name: &str| (table.floor_self(name) + table.floor_lanes(name)) / k;
    let lanes = if threaded { p.gpus as f64 } else { 1.0 };
    let lane_seconds = lanes * table.floor_wall() / k;
    let c = &p.trace.counts;
    let (spmm, gemm, comm) = (op("op.spmm"), op("op.gemm"), op("op.comm"));
    m.insert("sparse.spmm_ms", ms(spmm));
    m.insert("sparse.spmm_share", ratio(spmm, lane_seconds));
    m.insert("sparse.spmm_flops", c.spmm_flops as f64);
    m.insert("sparse.spmm_bytes_computed", c.spmm_bytes as f64);
    m.insert("sparse.spmm_gflops", ratio(c.spmm_flops as f64, spmm) / 1e9);
    m.insert("dense.gemm_ms", ms(gemm));
    m.insert("dense.gemm_share", ratio(gemm, lane_seconds));
    m.insert("dense.gemm_flops", c.gemm_flops as f64);
    m.insert("dense.gemm_gflops", ratio(c.gemm_flops as f64, gemm) / 1e9);
    m.insert("dense.activation_ms", ms(op("op.activation")));
    m.insert("comm.collective_ms", ms(comm));
    m.insert("comm.bytes_per_epoch", c.comm_bytes as f64);
    m.insert("comm.calls_per_epoch", c.comm_calls as f64);
    m.insert("comm.copy_gbs", ratio(c.comm_bytes as f64, comm) / 1e9);
    m.insert("core.schedule_build_ms", ms(table.floor_self("core.schedule_build") / k));
    m.insert("core.ops_per_epoch", c.ops as f64);
    m.insert("core.wait_edges_per_epoch", c.wait_edges as f64);
    m.insert("core.loss_adam_ms", ms(op("op.loss") + op("op.adam")));
    m.insert("core.big_buffer_mib", p.big_buffer_mib);
    m.insert("core.plan_buffers", p.plan_buffers as f64);
    m.insert("analyze.preflight_ms", ms(table.replay_floor("replay.preflight")));
    let simulate = if threaded {
        table.replay_floor("replay.simulate")
    } else {
        table.floor_self("gpusim.simulate") / k
    };
    m.insert("gpusim.simulate_ms", ms(simulate));
    m.insert("gpusim.sim_epoch_ms", ms(p.trace.sim_epoch_s));
}

/// `exec`: from traced epochs on the threaded backend, the workers taking
/// turns on one CPU, and from the same steps with both CPUs allowed.
fn exec_metrics(
    p: &TrainPhase,
    table: &StepTable,
    one_cpu_floor: f64,
    all_cpus_floor: f64,
    m: &mut Metrics,
) {
    let k = p.epochs_per_step as f64;
    // `exec.execute` is the call; `exec.workers` the part of it between
    // spawning and joining the workers.
    let execute = table.floor_self("exec.execute") + table.floor_self("exec.workers");
    let barrier = table.floor_lanes("op.barrier");
    m.insert("exec.execute_ms", ms(execute / k));
    m.insert("exec.barrier_ms", ms(barrier / k));
    m.insert("exec.barrier_share", ratio(barrier, p.gpus as f64 * execute));
    m.insert("exec.overhead_share", 1.0 - ratio(table.floor_busiest_lane("op.barrier"), execute));
    m.insert("exec.bodies_run", p.trace.bodies_run as f64);
    m.insert("exec.second_core_speedup", ratio(one_cpu_floor, all_cpus_floor));
}

/// `serve`, `cluster`, and the `graph`/`sparse` replays of what a batch
/// spends inside.
fn serve_metrics(p: &ServePhase, t: &StepTable, scale: f64, m: &mut Metrics) {
    let form = t.floor_self("serve.form_batches");
    let read = form + t.floor_self("serve.run_batch");
    let delta = t.floor_self("serve.apply_delta");
    let batch_seconds: Vec<f64> = p
        .rec
        .spans()
        .iter()
        .filter(|s| s.name == "serve.run_batch" && s.step.is_some())
        .map(|s| s.seconds() * scale)
        .collect();
    m.insert("graph.khop_us", us(t.replay_floor("replay.khop_induced")));
    m.insert("graph.khop_touched", p.khop_touched as f64);
    m.insert("sparse.spmm_rows_us", us(t.replay_floor("replay.spmm_rows")));
    m.insert("serve.read_ms", ms(read));
    m.insert("serve.delta_ms", ms(delta));
    m.insert("serve.write_share", ratio(delta, t.floor_wall()));
    m.insert("serve.form_batches_us", us(form));
    m.insert("serve.batches_per_step", p.batches as f64 / COUNT_WINDOW as f64);
    m.insert("serve.cache_hit_rate", p.cache.hit_rate());
    m.insert("serve.cache_insertions", p.cache.insertions as f64);
    m.insert("serve.cache_evictions", p.cache.evictions as f64);
    m.insert("serve.cache_invalidations", p.cache.invalidations as f64);
    m.insert("serve.run_batch_p50_us", us(median(&batch_seconds)));
    m.insert("serve.run_batch_p90_us", us(percentile(&batch_seconds, 0.9)));
    m.insert("serve.sim_p99_ms", p.sim_p99_ms);
    m.insert("cluster.serve_trace_ms", ms(t.replay_floor("replay.cluster_serve")));
    let route = t.replay_floor("replay.route") / p.requests_per_chunk as f64;
    m.insert("cluster.route_ns", route * 1e9);
    m.insert("cluster.shed", p.cluster_shed as f64);
}

/// Seconds of an empty parallel region with as many pieces as a kernel's
/// `for_each` would make, time after time: what every fork-join costs
/// before any work is done, at the width the pool has now.
fn fork_join_seconds() -> Vec<f64> {
    let pieces = pool_size() * 4;
    (0..2000)
        .map(|_| {
            let t = Instant::now();
            (0..pieces).into_par_iter().for_each(|i| {
                std::hint::black_box(i);
            });
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// What a traced run recorded, of either kind.
enum Phase {
    Train(TrainPhase),
    Serve(ServePhase),
}

/// The traced run, on one CPU and one kernel-pool thread like the untraced
/// one. Half of `seconds` goes to traced steps, compared step by step with
/// an untraced reference over the count window; a quarter to untraced steps
/// (tracing overhead); and, on the workloads that can use a second core, a
/// quarter to untraced steps with every CPU allowed and the pool at full
/// width. Only the layers on the workload's path are measured. Times are
/// scaled to the reference clock, like the untraced run's.
pub fn run_traced(a: &Args) -> Result<(Record, String), String> {
    let w = a.workload;
    let second_core = w.uses_second_core();
    set_active_threads(1);
    let mut clock = Clock::default();
    let mut main = setup(w, a.seed)?;
    let reference = setup(w, a.seed)?;
    let mut checks = BTreeMap::from([("setups_repeat", main.fingerprint == reference.fingerprint)]);

    let (traced_seconds, traced_steps) = (a.seconds * 0.5, a.size().steps / 2);
    let phase = match (&mut main.rig, reference.rig) {
        (Rig::Train(rig), Rig::Train(refr)) => {
            let phase = trace_train(rig, refr, traced_seconds, traced_steps, &mut clock)?;
            checks.insert("traced_equals_untraced", phase.identical);
            checks.insert(
                "broadcast_bytes_equal_closed_form",
                phase.trace.counts.bcast_bytes
                    == rig.trainer.expected_broadcast_bytes().iter().sum::<u64>(),
            );
            checks.insert(
                "buffers_within_layers_plus_three_plan",
                phase.within_plan && phase.plan_buffers == rig.trainer.config().layers() as u64 + 3,
            );
            Phase::Train(phase)
        }
        (Rig::Serve(rig), Rig::Serve(refr)) => {
            let phase = trace_serve(rig, refr, traced_seconds, traced_steps, &mut clock)?;
            checks.insert("traced_equals_untraced", phase.identical);
            checks.insert(
                "cache_evicts_and_invalidates",
                phase.cache.evictions > 0 && phase.cache.invalidations > 0,
            );
            Phase::Serve(phase)
        }
        _ => unreachable!("two set-ups of one workload are of one kind"),
    };

    // Untraced steps in this same process: the tracing overhead is the
    // traced floor against theirs; what a second core buys is theirs
    // against the same steps with every CPU allowed and the pool at full
    // width.
    let phase_steps = a.size().steps / 4;
    let (share, plain_steps) =
        if second_core { (0.25, phase_steps) } else { (0.5, 2 * phase_steps) };
    let plain = main.rig.run_steps(a.seconds * share, plain_steps, &mut clock)?;
    let mut fork_join = Vec::new();
    let spread = if second_core {
        clock::allow_cpus(&a.all_cpus);
        set_active_threads(0);
        let steps = main.rig.run_steps(a.seconds * 0.25, phase_steps, &mut clock);
        fork_join = fork_join_seconds();
        set_active_threads(1);
        clock::pin_to_current_cpu();
        Some(steps?)
    } else {
        None
    };

    let scale = clock.scale();
    let plain_floor = floor(&plain.wall) * scale;
    let spread_floor = spread.as_ref().map(|s| floor(&s.wall) * scale);
    let mut m = Metrics::new();
    m.insert("graph.generate_ms", ms(main.generate_s.min(reference.generate_s) * scale));
    let (rec, traced_failed, traced_loss) = match &phase {
        Phase::Train(p) => (&p.rec, p.failed, p.last_loss),
        Phase::Serve(p) => (&p.rec, p.failed, None),
    };
    let table = StepTable::new(rec, scale)?;
    match (&phase, &main.rig) {
        (Phase::Train(p), Rig::Train(rig)) => {
            m.insert("core.problem_build_ms", ms(rig.problem_build_s * scale));
            train_metrics(p, &table, &mut m);
            if p.backend == Backend::Threaded {
                let all_cpus = spread_floor.expect("the threaded runtime can use a second core");
                exec_metrics(p, &table, plain_floor, all_cpus, &mut m);
            }
        }
        (Phase::Serve(p), _) => serve_metrics(p, &table, scale, &mut m),
        _ => unreachable!("the phase is of the rig's kind"),
    }
    if w.pool_width > 1 {
        let full = spread_floor.expect("a pool wider than one can use a second core");
        m.insert("rayon.pool_width", pool_size() as f64);
        m.insert("rayon.fork_join_us", us(floor(&fork_join) * scale));
        m.insert("rayon.lane_speedup", ratio(plain_floor, full));
    }

    let spread_steps = spread.as_ref().map_or(0, |s| s.wall.len());
    let steps = table.walls.len() + plain.wall.len() + spread_steps;
    checks.insert("enough_timed_steps", steps >= a.size().steps);
    let spread_loss = spread.as_ref().and_then(|s| s.last_loss);
    let last_loss = spread_loss.or(plain.last_loss).or(traced_loss);
    final_checks(&mut main.rig, main.warm_loss, last_loss, &mut checks);

    m.insert("trace.overhead_pct", (table.floor_wall() / plain_floor - 1.0) * 100.0);
    m.insert("run.steps", table.walls.len() as f64);
    m.insert("run.step_p50_ms", ms(median(&table.walls)));
    m.insert("run.step_p90_ms", ms(percentile(&table.walls, 0.9)));
    m.insert("run.span_coverage", 1.0 - ratio(table.floor_self("step"), table.floor_wall()));

    let mut diagnostics = Metrics::from([
        ("run.clock_ghz", clock.ghz()),
        ("traced_step_floor_ms", ms(table.floor_wall())),
        ("untraced_step_floor_ms", ms(plain_floor)),
    ]);
    if let Some(floor) = spread_floor {
        diagnostics.insert("all_cpus_step_floor_ms", ms(floor));
    }
    let failed = traced_failed + plain.failed + spread.as_ref().map_or(0, |s| s.failed);
    let record = Record {
        workload: w,
        traced: true,
        seed: a.seed,
        seconds: a.seconds,
        steps: steps + failed,
        failed,
        vertices: main.vertices,
        nnz: main.nnz,
        checks,
        fingerprint: main.fingerprint,
        diagnostics,
        metrics: m,
    };
    let trace_file = trace_json(&record, &table, rec, scale);
    Ok((record, trace_file))
}

/// The trace file: envelope, the floor steps' self time by span name (at
/// the reference clock), and the spans of the count window as measured;
/// `clock_scale` takes the one to the other.
fn trace_json(record: &Record, table: &StepTable, rec: &Recorder, scale: f64) -> String {
    use mg_gcn::trace::json::JsonWriter;
    let mut selfs = JsonWriter::new();
    for (name, seconds) in table.floor_selfs() {
        selfs = selfs.f64(name, ms(seconds), 6);
    }
    // Spans are appended as time passes: the window ends where the first
    // step after it begins.
    let spans: Vec<String> = rec
        .spans()
        .iter()
        .take_while(|s| s.step.is_none_or(|id| (id as usize) < COUNT_WINDOW))
        .enumerate()
        .map(|(i, s)| {
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |x| x.to_string());
            JsonWriter::new()
                .usize("id", i)
                .str("name", s.name)
                .f64("start_us", us(s.start), 3)
                .f64("end_us", us(s.end), 3)
                .raw("parent", &opt(s.parent))
                .raw("step", &opt(s.step))
                .raw("lane", &opt(s.lane))
                .finish()
        })
        .collect();
    record
        .envelope()
        .f64("clock_scale", scale, 6)
        .raw("floor_step_self_ms", &selfs.finish())
        .usize("spans_recorded", rec.spans().len())
        .arr("spans", &spans)
        .finish()
}
