//! `mggcn` — command-line front end for the MG-GCN reproduction: flag
//! reading, one library call per subcommand, printing. Run it without
//! arguments for the usage text; README.md describes each subcommand.
//!
//! Exit codes: 0 success, 1 the run failed, a verdict did not hold or the
//! CPU lacks a feature this build needs (`mg_gcn::cpu`), 2 a usage error
//! (unknown subcommand or flag, unparsable, non-finite or out-of-range
//! value).

use mg_gcn::cluster::{overload_study, OverloadSpec};
use mg_gcn::core::checkpoint::Checkpoint;
use mg_gcn::gpusim::{GpuSpec, Profile};
use mg_gcn::prelude::*;
use mg_gcn::sweep::{self, AnalyzedSchedule, Passes, SweepReport};
use mg_gcn::trace::json::JsonWriter;
use std::collections::HashMap;
use std::fmt::Display;
use std::path::Path;
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;

const USAGE: &str = "usage:
  mggcn train    [--gpus N] [--epochs E] [--hidden H] [--vertices V]
                 [--no-overlap] [--no-permute] [--checkpoint PATH] [--resume PATH]
                 [--backend simulated|threaded] [--threads T] [--trace PATH]
                 [--partition 1d|1.5d] [--nodes N] [--nic GBPS] [--staleness K]
  mggcn simulate --dataset NAME [--machine v100|a100] [--gpus N] [--model a|b|c|d]
                 [--profile] [--trace PATH]
  mggcn memory   --dataset NAME [--hidden H] [--layers L]
  mggcn datasets
  mggcn serve-bench [--qps Q] [--batch-window S] [--max-batch B] [--cache-mb MB]
                    [--requests N] [--vertices V] [--gpus N] [--epochs E] [--seed S]
                    [--trace PATH]
  mggcn cluster-bench [--shards P] [--gpus-per-shard G] [--qps-mult M] [--requests N]
                      [--vertices V] [--epochs E] [--seed S] [--slo-ms MS]
                      [--max-degraded R] [--batch-window S] [--max-batch B] [--cache-mb MB]
                      [--threads T] [--out PATH] [--trace PATH]
  mggcn trace    [--gpus N] [--vertices V] [--hidden H] [--epochs E]
                 [--backend simulated|threaded] [--threads T] [--out PATH] [--chrome PATH]
  mggcn analyze  [--gpus N] [--vertices V] [--hidden H] [--dump]
                 [--audit-effects] [--model-check] [--json] [--out PATH]
  mggcn analyze  --dataset NAME [--machine v100|a100] [--gpus N] [--model a|b|c|d]
                 [--partition 1d|1.5d] [--dump] [--json] [--out PATH]";

/// A usage error: say what is wrong and exit 2.
fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    exit(2)
}

/// A failed run: say what went wrong and exit 1.
fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    exit(1)
}

/// The flags of one invocation. Everything user-typed is checked here: a
/// flag the subcommand does not know, a value that does not parse and a
/// value out of range are usage errors naming the flag — never a silent
/// default, never an assertion deep inside a library.
struct Flags(HashMap<String, String>);

/// Flags that take no value: a word after one is a usage error, not its
/// value.
const SWITCHES: [&str; 7] =
    ["no-overlap", "no-permute", "profile", "dump", "audit-effects", "model-check", "json"];

impl Flags {
    /// Read `--name [value]` pairs, rejecting anything but the `known`
    /// (space-separated) flags of subcommand `cmd`.
    fn parse(cmd: &str, args: &[String], known: &str) -> Self {
        let mut flags = HashMap::new();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                usage_error(format!(
                    "`{cmd}` takes flags only, got {arg:?} (run `mggcn` for usage)"
                ))
            };
            if !known.split(' ').any(|k| k == name) {
                usage_error(format!("`{cmd}` has no flag --{name} (run `mggcn` for usage)"));
            }
            let value = args.next_if(|v| !v.starts_with("--"));
            if let Some(v) = value.filter(|_| SWITCHES.contains(&name)) {
                usage_error(format!("--{name} is a switch and takes no value, got {v:?}"));
            }
            flags.insert(name.to_string(), value.cloned().unwrap_or_default());
        }
        Self(flags)
    }

    /// Was the switch given?
    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The flag's value as typed (a path, a dataset name).
    fn text(&self, name: &str) -> Option<&str> {
        let v = self.0.get(name)?;
        if v.is_empty() {
            usage_error(format!("--{name} expects a value"));
        }
        Some(v)
    }

    /// The flag's value as a finite number of at least `min`, if it was
    /// given (`inf` and `NaN` parse as `f64` but are no setting).
    fn opt<T: FromStr + PartialOrd + Display>(&self, name: &str, min: T) -> Option<T> {
        let v = self.0.get(name)?;
        match v.parse::<T>() {
            Ok(x) if x >= min && v.parse::<f64>().is_ok_and(f64::is_finite) => Some(x),
            _ => usage_error(format!(
                "--{name} expects a finite number of at least {min}, got {v:?}"
            )),
        }
    }

    /// [`Flags::opt`] with a default.
    fn num<T: FromStr + PartialOrd + Display>(&self, name: &str, default: T, min: T) -> T {
        self.opt(name, min).unwrap_or(default)
    }

    /// A positive, finite real (rates, bandwidths, bounds in seconds).
    fn positive(&self, name: &str, default: f64) -> f64 {
        match self.opt(name, 0.0f64) {
            None => default,
            Some(x) if x > 0.0 => x,
            Some(x) => usage_error(format!("--{name} expects a positive number, got {x}")),
        }
    }

    /// One of a closed set of spellings, the first being the default.
    fn choice<T>(&self, name: &str, spellings: &str, parse: impl Fn(&str) -> Option<T>) -> T {
        let default = spellings.split('|').next().expect("a default spelling");
        let v = self.text(name).unwrap_or(default);
        parse(v)
            .unwrap_or_else(|| usage_error(format!("unknown {name} {v:?} (expected {spellings})")))
    }

    fn partition(&self) -> Partition {
        self.choice("partition", "1d|1.5d", Partition::parse)
    }

    fn machine(&self) -> MachineSpec {
        self.choice("machine", "a100|v100", |m| match m {
            "v100" => Some(MachineSpec::dgx_v100()),
            "a100" => Some(MachineSpec::dgx_a100()),
            _ => None,
        })
    }

    /// `--dataset`'s Table 1 card.
    fn dataset(&self) -> Option<datasets::DatasetCard> {
        let name = self.text("dataset")?;
        let card = datasets::by_name(name);
        Some(
            card.unwrap_or_else(|| fail(format!("unknown dataset {name:?}; try `mggcn datasets`"))),
        )
    }

    /// `--model`: one of the paper's four configurations for `card`.
    fn model(&self, card: &datasets::DatasetCard) -> GcnConfig {
        self.choice("model", "a|b|c|d", |m| match m {
            "a" => Some(GcnConfig::model_a(card.feat_dim, card.classes)),
            "b" => Some(GcnConfig::model_b(card.feat_dim, card.classes)),
            "c" => Some(GcnConfig::model_c(card.feat_dim, card.classes)),
            "d" => Some(GcnConfig::model_d(card.feat_dim, card.classes)),
            _ => None,
        })
    }

    /// `--gpus`: an integer in `1..=max`, even under 1.5D partitioning
    /// (two replication groups).
    fn gpus(&self, default: usize, max: usize, partition: Partition) -> usize {
        let gpus = self.num("gpus", default, 1);
        if gpus > max {
            usage_error(format!("--gpus expects an integer in 1..={max}, got {gpus}"));
        }
        if partition == Partition::OneFiveD && !gpus.is_multiple_of(2) {
            usage_error(format!(
                "--partition 1.5d needs an even --gpus (two replication groups), got {gpus}"
            ));
        }
        gpus
    }

    /// `--threads`: pin the kernel-pool size (before any parallel kernel).
    fn pin_threads(&self) {
        let Some(n) = self.opt("threads", 1usize) else { return };
        std::env::set_var("MGGCN_THREADS", n.to_string());
        if mg_gcn::exec::pool_size() != n {
            eprintln!(
                "note: kernel pool was already initialized with {} thread(s); \
                 capping the active count at {n} instead",
                mg_gcn::exec::pool_size()
            );
        }
        mg_gcn::exec::set_active_threads(n);
    }

    /// `--trace`/`--chrome`: write the tracer's Chrome trace where asked.
    fn write_chrome(&self, name: &str, tracer: &Tracer, include_wall: bool) {
        if let Some(path) = self.text(name) {
            write_file(path, &tracer.chrome_trace(include_wall));
            eprintln!("chrome trace written to {path} (open in chrome://tracing)");
        }
    }
}

fn write_file(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        fail(format!("cannot write {path}: {e}"));
    }
}

fn main() {
    if let Err(missing) = mg_gcn::cpu::preflight(mg_gcn::cpu::host_has) {
        fail(missing)
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { usage_error(USAGE) };
    // Each subcommand with the flags it knows.
    let flags = |known: &str| Flags::parse(cmd, rest, known);
    match cmd.as_str() {
        "train" => cmd_train(&flags(
            "gpus epochs hidden vertices no-overlap no-permute checkpoint resume backend threads \
             trace partition nodes nic staleness",
        )),
        "simulate" => cmd_simulate(&flags("dataset machine gpus model profile trace")),
        "memory" => cmd_memory(&flags("dataset hidden layers")),
        "datasets" => cmd_datasets(&flags("")),
        "serve-bench" => cmd_serve_bench(&flags(
            "qps batch-window max-batch cache-mb requests vertices gpus epochs seed trace",
        )),
        "cluster-bench" => cmd_cluster_bench(&flags(
            "shards gpus-per-shard qps-mult requests vertices epochs seed slo-ms max-degraded \
             batch-window max-batch cache-mb threads out trace",
        )),
        "trace" => cmd_trace(&flags("gpus vertices hidden epochs backend threads out chrome")),
        "analyze" => cmd_analyze(&flags(
            "gpus vertices hidden dump audit-effects model-check json out dataset machine model \
             partition",
        )),
        _ => usage_error(USAGE),
    }
}

/// The community graph `train`, `trace`, `analyze` and the serving
/// studies generate. The generator needs a few vertices per community.
fn community_graph(f: &Flags, default_vertices: usize, min_vertices: usize, seed: u64) -> Graph {
    let vertices = f.num("vertices", default_vertices, min_vertices);
    sbm::generate(&SbmConfig::community_benchmark(vertices, 5), seed)
}

/// What `train` and `trace` share: a trainer on a generated community
/// graph, built from the flags (a subcommand's unknown flags read as their
/// defaults), with `tracer` attached.
fn community_trainer(
    f: &Flags,
    (gpus, vertices, hidden): (usize, usize, usize),
    backends: &str,
    tracer: Option<Arc<Tracer>>,
) -> Trainer {
    let backend = f.choice("backend", backends, Backend::parse);
    f.pin_threads();
    let partition = f.partition();
    let nodes = f.num("nodes", 1usize, 1);
    // A DGX-A100 node holds 8 GPUs.
    let gpus = f.gpus(gpus, 8 * nodes, partition);
    let hidden = f.num("hidden", hidden, 1usize);
    let graph = community_graph(f, vertices, 10, 42);
    let cfg = GcnConfig::new(graph.features.cols(), &[hidden], graph.classes);
    let mut opts = if nodes > 1 {
        // A hierarchical cluster of A100 nodes: gpus must split evenly
        // across nodes so the 1.5D replication groups stay node-aligned.
        if !gpus.is_multiple_of(nodes) {
            usage_error(format!("--gpus ({gpus}) must be a multiple of --nodes ({nodes})"));
        }
        let per_node = gpus / nodes;
        let name = format!("A100-{nodes}x{per_node}");
        let nic = f.positive("nic", 50.0) * 1e9;
        let machine =
            MachineSpec::hier_cluster(&name, GpuSpec::a100(), nodes, per_node, 12, 25.0e9, nic);
        let mut o = TrainOptions::full(machine, gpus);
        // Exact gradients, matching `quick`'s single-node defaults.
        o.skip_first_backward_spmm = false;
        o
    } else {
        TrainOptions::quick(gpus)
    };
    opts.partition = partition;
    opts.overlap = !f.has("no-overlap");
    opts.permute = !f.has("no-permute");
    opts.backend = backend;
    // Bounded-staleness pipelining (DESIGN §15): epoch e+1's broadcasts
    // prefetch k-epoch-old snapshots during epoch e's backward pass.
    opts.staleness = f.num("staleness", 0usize, 0);
    let stale_note = match opts.staleness {
        0 => String::new(),
        k => format!(", staleness {k} (fused cross-epoch pipeline)"),
    };
    println!(
        "training: {} vertices, {} edges, {gpus} GPUs on {}, {} partition, hidden {hidden}, \
         backend {}{stale_note}",
        graph.n(),
        graph.adj.nnz(),
        opts.machine.name,
        partition.name(),
        backend.name(),
    );
    let problem = Problem::from_graph(&graph, &cfg, &opts);
    let mut trainer =
        Trainer::new(problem, cfg, opts).unwrap_or_else(|e| fail(format!("error: {e}")));
    if let Some(t) = tracer {
        trainer.set_tracer(t);
    }
    trainer
}

/// Print the two trace verdicts — traced broadcast bytes vs the §5.1
/// closed form, and per-GPU high-watermark vs the §4.2 `L + 3` plan —
/// and return whether both hold.
fn trace_verdicts(tracer: &Tracer, trainer: &Trainer, epochs: usize) -> bool {
    let expected: Vec<u64> =
        trainer.expected_broadcast_bytes().iter().map(|&b| b * epochs as u64).collect();
    let traced = tracer.broadcast_stage_bytes();
    let bytes_ok = traced == expected;
    if bytes_ok {
        let total: u64 = traced.iter().sum();
        println!(
            "trace: broadcast bytes match closed form exactly \
             ({} stages, {total} bytes over {epochs} epoch(s))",
            traced.len()
        );
    } else {
        eprintln!("trace: broadcast byte MISMATCH: traced {traced:?} vs closed form {expected:?}");
    }
    let marks = tracer.memory_high_watermarks();
    let bound = tracer.gauge("mem.plan.big_buffers_bytes");
    let mem_ok = tracer.memory_bound_ok();
    match mem_ok {
        Some(true) => println!(
            "trace: per-GPU high-watermark {:.2} MiB within L+3 plan {:.2} MiB",
            marks.iter().map(|&(_, b)| b).max().unwrap_or(0) as f64 / (1 << 20) as f64,
            bound.unwrap_or(0.0) / (1 << 20) as f64
        ),
        Some(false) => eprintln!(
            "trace: memory high-watermark EXCEEDS the L+3 plan: {marks:?} vs bound {bound:?}"
        ),
        None => println!("trace: no memory watermarks recorded"),
    }
    bytes_ok && mem_ok != Some(false)
}

fn cmd_train(f: &Flags) {
    let epochs = f.num("epochs", 40usize, 0);
    let tracer = f.has("trace").then(|| Arc::new(Tracer::new()));
    let mut trainer = community_trainer(f, (4, 2000, 32), "simulated|threaded", tracer.clone());
    if let Some(path) = f.text("resume") {
        match Checkpoint::load(Path::new(path))
            .and_then(|ck| ck.restore_into(&mut trainer).map(|()| ck.epoch))
        {
            Ok(epoch) => println!("resumed from {path} at epoch {epoch}"),
            Err(e) => fail(format!("resume failed: {e}")),
        }
    }
    // One call: under `--staleness` the whole run is one fused schedule, so
    // epoch e+1's prefetch broadcasts really overlap epoch e.
    let reports = trainer.train(epochs).unwrap_or_else(|e| fail(format!("training failed: {e}")));
    for (_, r) in reports.iter().enumerate().filter(|(i, _)| i % 10 == 0 || i + 1 == epochs) {
        let wall = r.measured.as_ref().map(|m| format!(", {:.2} wall ms", m.wall_seconds * 1e3));
        println!(
            "epoch {:>4}  loss {:>9.4}  train {:>5.1}%  test {:>5.1}%  ({:.2} sim ms{})",
            r.epoch,
            r.loss,
            r.train_acc * 100.0,
            r.test_acc * 100.0,
            r.sim_seconds * 1e3,
            wall.unwrap_or_default()
        );
    }
    if let Some(path) = f.text("checkpoint") {
        match Checkpoint::from_trainer(&trainer).save(Path::new(path)) {
            Ok(()) => println!("checkpoint written to {path}"),
            Err(e) => fail(format!("checkpoint failed: {e}")),
        }
    }
    if let Some(tracer) = &tracer {
        trace_verdicts(tracer, &trainer, epochs);
        f.write_chrome("trace", tracer, true);
    }
    if let Some(r) = reports.last() {
        println!("final test accuracy: {:.1}%", r.test_acc * 100.0);
    }
}

/// `trace`: run a small traced training job and hold its recorded metrics
/// to the paper's closed forms; exits 1 if a verdict fails.
fn cmd_trace(f: &Flags) {
    let epochs = f.num("epochs", 3usize, 0);
    let tracer = Arc::new(Tracer::new());
    let mut trainer =
        community_trainer(f, (2, 1500, 32), "threaded|simulated", Some(tracer.clone()));
    trainer.train(epochs).unwrap_or_else(|e| fail(format!("training failed: {e}")));
    let ok = trace_verdicts(&tracer, &trainer, epochs);
    if let Some(out) = f.text("out") {
        write_file(out, &tracer.bench_json());
        println!("wrote {out} (schema {})", mg_gcn::trace::BENCH_TRACE_SCHEMA);
    }
    f.write_chrome("chrome", &tracer, true);
    if !ok {
        exit(1);
    }
}

fn cmd_simulate(f: &Flags) {
    let card = f.dataset().unwrap_or_else(|| usage_error(USAGE));
    let machine = f.machine();
    let gpus = f.gpus(8, machine.gpu_count(), Partition::OneD);
    let cfg = f.model(&card);
    let opts = TrainOptions::full(machine.clone(), gpus);
    let problem = Problem::from_stats(&card, &opts);
    let mut trainer = match Trainer::new(problem, cfg, opts) {
        Ok(t) => t,
        Err(e) => {
            // Out of memory is a result (the paper's OOM cells), not a failure.
            println!("{}: {e}", card.name);
            return;
        }
    };
    let tracer = Arc::new(Tracer::new());
    trainer.set_tracer(tracer.clone());
    let report = trainer.train_epoch().expect("simulated backend cannot fail");
    println!(
        "{} on {} x{gpus}: epoch {:.4} s  ({:.1} MiB/GPU planned)",
        card.name,
        machine.name,
        report.sim_seconds,
        trainer.memory_per_gpu() as f64 / (1 << 20) as f64
    );
    println!("breakdown (kernel %):");
    for (cat, pct) in report.breakdown(true) {
        println!("  {:<12} {:>5.1}%", cat.name(), pct);
    }
    if f.has("profile") {
        println!("\nprofile:");
        print!("{}", Profile::from_timeline(&report.timeline, report.sim_seconds).render());
    }
    f.write_chrome("trace", &tracer, false);
}

fn cmd_memory(f: &Flags) {
    let card = f.dataset().unwrap_or_else(|| usage_error(USAGE));
    let hidden = f.num("hidden", 512usize, 1);
    let layers = f.num("layers", 2usize, 1);
    let cfg = GcnConfig::new(card.feat_dim, &vec![hidden; layers - 1], card.classes);
    println!("{}: {layers}-layer, hidden {hidden}", card.name);
    for gpus in [1u64, 2, 4, 8] {
        let plan = MemoryPlan::new(card.n as u64, card.m as u64, &cfg, gpus, BufferPolicy::MgGcn);
        let gib = plan.total() as f64 / (1u64 << 30) as f64;
        let v100 = if plan.fits(32 << 30) { "fits" } else { "OOM" };
        let a100 = if plan.fits(80 << 30) { "fits" } else { "OOM" };
        println!("  {gpus} GPU(s): {gib:>7.1} GiB   V100: {v100:<5} A100: {a100}");
    }
}

fn cmd_datasets(_: &Flags) {
    println!(
        "{:<10} {:>12} {:>14} {:>6} {:>6} {:>5}",
        "name", "vertices", "edges", "d(0)", "cls", "k"
    );
    for card in datasets::BENCHMARKS {
        println!(
            "{:<10} {:>12} {:>14} {:>6} {:>6} {:>5.0}",
            card.name, card.n, card.m, card.feat_dim, card.classes, card.avg_degree
        );
    }
}

/// The front half of `serve-bench` and `cluster-bench`: train a small
/// community-graph model and freeze it for serving.
fn serving_model(f: &Flags, vertices: usize, epochs: usize, seed: u64) -> (Graph, ServingModel) {
    let graph = community_graph(f, vertices, 10, seed);
    let epochs = f.num("epochs", epochs, 0);
    let model =
        ServingModel::train(&graph, 32, epochs).unwrap_or_else(|e| fail(format!("error: {e}")));
    (graph, model)
}

/// `--batch-window` and `--max-batch`.
fn batch_policy(f: &Flags) -> BatchPolicy {
    BatchPolicy::new(f.num("batch-window", 1.0e-3, 0.0), f.num("max-batch", 32usize, 1))
}

/// `serve-bench`: replay one seeded open-loop trace against an unbatched
/// server, then a micro-batched one cold and warm. Human lines go to
/// stderr, one JSON object to stdout.
fn cmd_serve_bench(f: &Flags) {
    let qps = f.positive("qps", 100_000.0);
    let policy = batch_policy(f);
    let cache_mb = f.num("cache-mb", 64usize, 0);
    let requests = f.num("requests", 2000usize, 1);
    let gpus = f.num("gpus", 1usize, 1);
    let seed = f.num("seed", 42u64, 0);
    let (graph, model) = serving_model(f, 2000, 15, seed);
    eprintln!(
        "serving {} vertices, {} edges, {}-layer model on {gpus} simulated A100(s)",
        graph.n(),
        graph.adj.nnz(),
        model.layers(),
    );
    let machine = || MachineSpec::uniform("A100-serve", GpuSpec::a100(), gpus, 12, 300.0e9);
    let trace =
        mg_gcn::serve::generate_load(&LoadGenConfig::skewed(qps, requests, graph.n(), seed));

    // Batch-size-1 baseline on identical hardware, no cache.
    let mut unbatched =
        Server::new(model.clone(), ServeConfig::new(machine(), BatchPolicy::unbatched(), 0));
    let base = unbatched.serve("unbatched", &trace);

    // Micro-batched with the propagation cache: cold pass, then warm.
    // Only the batched server is traced so the cache-hit/miss counters and
    // latency histograms describe one configuration, not a mixture.
    let mut server = Server::new(model, ServeConfig::new(machine(), policy, cache_mb << 20));
    let tracer = f.has("trace").then(|| Arc::new(Tracer::new()));
    if let Some(t) = &tracer {
        server.set_tracer(t.clone());
    }
    let cold = server.serve("batched-cold", &trace);
    let warm = server.serve("batched-warm", &trace);

    for r in [&base, &cold, &warm] {
        eprintln!("{}", r.render());
    }
    let batching_speedup = cold.throughput_rps / base.throughput_rps;
    let warm_compute_reduction = 1.0 - warm.compute_per_request_us / cold.compute_per_request_us;
    eprintln!(
        "batching speedup {batching_speedup:.2}x, warm-cache compute reduction {:.1}%",
        warm_compute_reduction * 100.0
    );
    let mut doc = JsonWriter::new()
        .f64("qps", qps, 1)
        .f64("batch_window_s", policy.window, 6)
        .usize("max_batch", policy.max_batch)
        .usize("cache_mb", cache_mb)
        .usize("gpus", gpus)
        .arr("configs", &[base.to_json(), cold.to_json(), warm.to_json()])
        .f64("batching_speedup", batching_speedup, 3)
        .f64("warm_compute_reduction", warm_compute_reduction, 4);
    if let Some(t) = &tracer {
        doc = doc.raw("trace", &t.bench_json());
        f.write_chrome("trace", t, true);
    }
    println!("{}", doc.finish());
}

/// `cluster-bench`: the sharded tier's overload study
/// (`cluster::overload_study`). Human lines go to stderr, the JSON document
/// to stdout (and `--out`); exits 1 unless every verdict holds.
fn cmd_cluster_bench(f: &Flags) {
    let mut cfg = ClusterConfig::new(
        f.num("shards", 2usize, 1),
        f.num("gpus-per-shard", 2usize, 1),
        batch_policy(f),
    );
    cfg.cache_bytes = f.num("cache-mb", 16usize, 0) << 20;
    f.pin_threads();
    let spec = OverloadSpec {
        qps_mult: f.positive("qps-mult", 2.0),
        requests: f.num("requests", 2000usize, 1),
        seed: f.num("seed", 42u64, 0),
        slo_ms: f.positive("slo-ms", 50.0),
        max_degraded: f.num("max-degraded", 0.9, 0.0),
    };
    let (graph, model) = serving_model(f, 1500, 10, spec.seed);
    eprintln!(
        "cluster: {} vertices, {} edges, {}-layer model, {} shard(s) x {} GPU(s)",
        graph.n(),
        graph.adj.nnz(),
        model.layers(),
        cfg.shards,
        cfg.gpus_per_shard,
    );
    let tracer = f.has("trace").then(|| Arc::new(Tracer::new()));
    let study = overload_study(&model, cfg, spec, tracer.clone());

    eprintln!(
        "partition: cache-aware {} B cross-shard {}-hop fan-out vs random {} B \
         ({:.1}% reduction), shard sizes {:?}",
        study.aware_bytes,
        model.layers(),
        study.random_bytes,
        study.reduction() * 100.0,
        study.plan.sizes()
    );
    eprintln!(
        "capacity {:.0} rps -> overload at {:.0} rps ({}x), \
         admission: queue delay <= {:.1} ms, inflight <= {}",
        study.capacity_rps,
        study.qps(),
        spec.qps_mult,
        study.admission.max_queue_delay * 1e3,
        study.admission.max_inflight
    );
    let report = &study.outcome.report;
    eprintln!("{}", report.render());
    for s in &report.shards {
        eprintln!(
            "  shard {}: {} req ({} exact, {} degraded), {} batches ({} shed), \
             p99 {:.3} ms, hit rate {:.1}%",
            s.shard,
            s.requests,
            s.admitted,
            s.degraded,
            s.batches,
            s.shed_batches,
            s.p99_ms,
            s.cache_hit_rate * 100.0
        );
    }
    let json = study.to_json();
    if let Some(out) = f.text("out") {
        write_file(out, &format!("{json}\n"));
        eprintln!("wrote {out} (schema {})", mg_gcn::cluster::BENCH_CLUSTER_SCHEMA);
    }
    println!("{json}");
    if let Some(t) = &tracer {
        f.write_chrome("trace", t, false);
    }
    if !study.ok() {
        fail(format!("cluster-bench FAILED: {:?}", study.verdicts));
    }
}

/// `analyze`: statically verify recorded schedules (`mg_gcn::sweep`) —
/// the P × partition × op-order × overlap × staleness sweep plus a serving
/// batch, or one paper-scale schedule with `--dataset` — and exit 1 on any
/// finding.
fn cmd_analyze(f: &Flags) {
    let dump = f.has("dump");
    let passes = Passes { audit: f.has("audit-effects"), model_check: f.has("model-check"), dump };
    if let Some(card) = f.dataset() {
        let machine = f.machine();
        let partition = f.partition();
        let gpus = f.gpus(4, machine.gpu_count(), partition);
        let row = sweep::analyze_dataset(&card, &f.model(&card), machine, gpus, partition, dump)
            .unwrap_or_else(|e| fail(format!("{}: cannot build schedule: {e}", card.name)));
        if let Some(ops) = &row.ops {
            print!("{ops}");
        }
        println!("{}:", row.label);
        print!("{}", row.report.render());
        if passes.audit {
            println!("effect audit skipped: descriptor-only dataset schedules have no op bodies");
        }
        return report_and_gate(f, &SweepReport { rows: vec![row], checks: Vec::new() });
    }
    // 1.5D cases are simply skipped at an odd count, so no parity check.
    // The serving case queries vertices up to 101.
    let gpu_list = match f.opt("gpus", 1usize) {
        Some(_) => vec![f.gpus(1, 8, Partition::OneD)],
        None => sweep::SWEEP_GPUS.to_vec(),
    };
    let hidden = f.num("hidden", 16usize, 1);
    let graph = community_graph(f, 600, 102, 42);
    let cfg = GcnConfig::new(graph.features.cols(), &[hidden], graph.classes);
    let cases = sweep::trainer_cases(&graph, &cfg, &gpu_list)
        .unwrap_or_else(|e| fail(format!("error: {e}")));
    let sweep = sweep::analyze_sweep(&cases, &graph, hidden, passes)
        .unwrap_or_else(|e| fail(format!("error: {e}")));
    sweep.rows.iter().for_each(print_schedule_report);
    if passes.audit {
        println!("  effect audit skipped: serving schedules use a frozen inference context");
    }
    for m in &sweep.checks {
        let verdict = if m.clean() {
            format!(
                "deterministic ({} trace, {} device-level interleavings agree)",
                m.exhaustive.executions, m.device.executions
            )
        } else if let Some(d) = m.exhaustive.divergence.as_ref().or(m.device.divergence.as_ref()) {
            format!("DIVERGENT: digest {:#018x} != baseline {:#018x}", d.digest, d.baseline)
        } else {
            "TRUNCATED before the exploration finished".to_string()
        };
        println!("{:<42} {verdict}", m.label);
    }
    report_and_gate(f, &sweep);
    let extra = match (passes.audit, passes.model_check) {
        (true, true) => ", effect-sound, linearization-deterministic",
        (true, false) => ", effect-sound",
        (false, true) => ", linearization-deterministic",
        (false, false) => "",
    };
    let total = sweep.total();
    println!("all {total} schedules verified: hazard-free, deadlock-free, within budget{extra}");
}

/// `--json`/`--out`: emit the machine-readable report; then exit 1 if any
/// schedule failed verification.
fn report_and_gate(f: &Flags, sweep: &SweepReport) {
    if f.has("json") || f.has("out") {
        match f.text("out") {
            Some(path) => {
                write_file(path, &format!("{}\n", sweep.to_json()));
                println!("wrote {path} (schema {})", sweep::ANALYZE_SCHEMA);
            }
            None => println!("{}", sweep.to_json()),
        }
    }
    if sweep.dirty() > 0 {
        fail(format!("{} of {} schedules FAILED verification", sweep.dirty(), sweep.total()));
    }
}

/// Print one swept schedule's verification result: a one-line verdict (and
/// the audit's, under `--audit-effects`), or the full annotated op stream +
/// report under `--dump`.
fn print_schedule_report(row: &AnalyzedSchedule) {
    let (label, report) = (&row.label, &row.report);
    if let Some(ops) = &row.ops {
        println!("--- {} ---", label.trim_end());
        print!("{ops}");
        print!("{}", report.render());
    } else if report.clean() {
        let buffers = match (&report.liveness, report.budget) {
            (Some(lv), Some(b)) => format!(", buffers {}/{}", lv.buffers_needed, b),
            (Some(lv), None) => format!(", buffers {}", lv.buffers_needed),
            _ => String::new(),
        };
        println!("{label}: clean ({} ops, {} edges{buffers})", report.ops, report.edges);
    } else {
        println!("{label}: {} finding(s)", report.findings.len());
        for finding in &report.findings {
            println!("    {finding}");
        }
    }
    match &row.audit {
        Some(a) if !a.clean() => print!("{}", a.render()),
        Some(a) if a.warnings.is_empty() => {
            println!("  effect audit: declarations match observed accesses")
        }
        Some(a) => {
            println!("  effect audit: sound ({} over-declaration warning(s))", a.warnings.len())
        }
        None => {}
    }
}
