//! `mggcn` — command-line front end for the MG-GCN reproduction.
//!
//! ```text
//! mggcn train    [--gpus N] [--epochs E] [--hidden H] [--vertices V]
//!                [--no-overlap] [--no-permute] [--checkpoint PATH]
//!                [--resume PATH] [--backend simulated|threaded] [--threads T]
//!                [--partition 1d|1.5d] [--nodes N] [--nic GBPS]
//!                [--trace PATH.json]
//! mggcn simulate --dataset NAME [--machine v100|a100] [--gpus N]
//!                [--model a|b|c|d] [--profile] [--trace PATH.json]
//! mggcn memory   --dataset NAME [--hidden H] [--layers L]
//! mggcn datasets
//! mggcn serve-bench [--qps Q] [--batch-window S] [--max-batch B] [--cache-mb MB]
//!                   [--requests N] [--vertices V] [--gpus N] [--epochs E] [--seed S]
//!                   [--trace PATH.json]
//! mggcn serve-bench --check PATH.json
//! mggcn cluster-bench [--shards P] [--gpus-per-shard G] [--qps-mult M]
//!                     [--requests N] [--vertices V] [--epochs E] [--seed S]
//!                     [--slo-ms MS] [--max-degraded R] [--batch-window S]
//!                     [--max-batch B] [--cache-mb MB]
//!                     [--backend simulated|threaded] [--threads T]
//!                     [--out BENCH_cluster.json] [--trace PATH.json]
//! mggcn cluster-bench --check PATH.json
//! mggcn bench-exec  [--gpus P] [--vertices V] [--hidden H] [--epochs E]
//!                   [--threads LIST] [--out PATH]
//! mggcn trace    [--gpus N] [--vertices V] [--hidden H] [--epochs E]
//!                [--backend simulated|threaded] [--threads T]
//!                [--out BENCH_trace.json] [--chrome PATH.json]
//! mggcn trace    --check PATH.json
//! mggcn analyze  [--gpus N] [--vertices V] [--hidden H] [--dump]
//!                [--audit-effects] [--model-check] [--json] [--out PATH]
//! mggcn analyze  --dataset NAME [--machine v100|a100] [--gpus N] [--model a|b|c|d]
//!                [--partition 1d|1.5d] [--dump] [--json] [--out PATH]
//! mggcn topo-bench [--out BENCH_topo.json]
//! mggcn topo-bench --check PATH.json
//! ```
//!
//! `train` runs real full-batch training on a generated community graph;
//! `simulate` runs the paper-scale timing model on a Table 1 dataset card;
//! `serve-bench` trains a small model, freezes it into a serving replica
//! set, and replays a seeded open-loop trace under three configurations
//! (unbatched, micro-batched cold-cache, micro-batched warm-cache),
//! printing a JSON report with p50/p95/p99 latency for each.
//! `bench-exec` really executes epochs on the threaded backend at each
//! kernel-pool width in `--threads` and writes measured wall-clock epoch
//! times and speedups to `BENCH_exec.json`.
//! `cluster-bench` shards that serving replica set `--shards` ways behind a
//! cache-aware partitioner and a consistent-hash router, calibrates the
//! cluster's saturation throughput, then drives it at `--qps-mult` times
//! capacity with bounded admission: admitted requests must meet the
//! `--slo-ms` p99 and shed requests get tagged degraded answers whose rate
//! must stay under `--max-degraded`. It writes + schema-validates
//! `BENCH_cluster.json` and exits nonzero on any violated bound, making it
//! a CI gate; `--check PATH` validates an existing artifact offline.
//! `trace` runs a small traced training job, checks the recorded broadcast
//! byte counters against the §5.1 closed form and the per-GPU memory
//! high-watermark against the §4.2 `L + 3` plan, then writes + validates
//! `BENCH_trace.json` (and optionally a Chrome trace); it exits nonzero
//! if a check fails, making it a CI gate. `--check PATH` validates an
//! existing trace artifact (either kind, auto-detected) without running.
//! `analyze` statically verifies recorded schedules — data-hazard freedom,
//! deadlock freedom, and the partition's liveness budget (§4.2 `L + 3`
//! for 1D, `L + 4` for 1.5D) — across a P ∈ {1,2,4,8} × partition ×
//! op-order × overlap sweep plus a serving batch schedule (or one
//! paper-scale dataset schedule with `--dataset`); it exits nonzero on
//! any finding, and `--dump` prints the annotated op stream.
//! `--audit-effects` shadow-executes each materialized schedule's op
//! bodies and fails on any access the declarations miss;
//! `--model-check` DPOR-explores every HB-distinct linearization of
//! small P ∈ {1,2,3} schedules and requires bit-identical final
//! weights; `--json` (with optional `--out PATH`) emits the byte-stable
//! `mggcn-analyze-v1` machine-readable report.
//! `topo-bench` runs the §5.1 hierarchical-machine study — closed-form
//! and DES 1D-vs-1.5D verdicts on DGX-1 and DGX-A100, a split-quad NIC
//! sweep pinning the crossover bandwidth, a papers100M-scale end-to-end
//! epoch sweep on two A100 quads, a traced intra-/inter-node byte split
//! on a 2-node machine, and an analyze preflight over every generated
//! schedule — then writes + schema-validates `BENCH_topo.json`, exiting
//! nonzero if any verdict fails. `--check PATH` validates an existing
//! artifact offline.

use mg_gcn::core::checkpoint::Checkpoint;
use mg_gcn::gpusim::Profile;
use mg_gcn::prelude::*;
use std::collections::HashMap;
use std::process::exit;
use std::time::Instant;

fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let takes_value = i + 1 < args.len() && !args[i + 1].starts_with("--");
            if takes_value {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (positional, flags)
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    flags.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `--gpus` for `train` and `analyze`: an integer in `1..=max`, even under
/// 1.5D partitioning (two replication groups). Anything else is a usage
/// error here, not an assertion deep inside `TrainOptions`/`Trainer`.
fn gpus_flag(
    flags: &HashMap<String, String>,
    default: usize,
    max: usize,
    partition: Partition,
) -> usize {
    let gpus = flags.get("gpus").map_or(Some(default), |v| v.parse().ok());
    let Some(gpus) = gpus.filter(|g| (1..=max).contains(g)) else {
        eprintln!("--gpus expects an integer in 1..={max}, got {:?}", flags["gpus"]);
        exit(2)
    };
    if partition == Partition::OneFiveD && !gpus.is_multiple_of(2) {
        eprintln!("--partition 1.5d needs an even --gpus (two replication groups), got {gpus}");
        exit(2)
    }
    gpus
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  mggcn train    [--gpus N] [--epochs E] [--hidden H] [--vertices V]\n                 [--no-overlap] [--no-permute] [--checkpoint PATH] [--resume PATH]\n                 [--backend simulated|threaded] [--threads T] [--trace PATH]\n                 [--partition 1d|1.5d] [--nodes N] [--nic GBPS] [--staleness K]\n  mggcn simulate --dataset NAME [--machine v100|a100] [--gpus N] [--model a|b|c|d] [--profile] [--trace PATH]\n  mggcn memory   --dataset NAME [--hidden H] [--layers L]\n  mggcn datasets\n  mggcn serve-bench [--qps Q] [--batch-window S] [--max-batch B] [--cache-mb MB]\n                    [--requests N] [--vertices V] [--gpus N] [--epochs E] [--seed S] [--trace PATH]\n  mggcn serve-bench --check PATH\n  mggcn cluster-bench [--shards P] [--gpus-per-shard G] [--qps-mult M] [--requests N]\n                      [--vertices V] [--epochs E] [--seed S] [--slo-ms MS] [--max-degraded R]\n                      [--batch-window S] [--max-batch B] [--cache-mb MB]\n                      [--backend simulated|threaded] [--threads T] [--out PATH] [--trace PATH]\n  mggcn cluster-bench --check PATH\n  mggcn bench-exec  [--gpus P] [--vertices V] [--hidden H] [--epochs E] [--threads LIST]\n                    [--staleness LIST] [--nic GBPS] [--out PATH]\n  mggcn bench-exec  --check PATH\n  mggcn trace    [--gpus N] [--vertices V] [--hidden H] [--epochs E]\n                 [--backend simulated|threaded] [--threads T] [--out PATH] [--chrome PATH]\n  mggcn trace    --check PATH\n  mggcn analyze  [--gpus N] [--vertices V] [--hidden H] [--dump]\n                 [--audit-effects] [--model-check] [--json] [--out PATH]\n  mggcn analyze  --dataset NAME [--machine v100|a100] [--gpus N] [--model a|b|c|d]\n                 [--partition 1d|1.5d] [--dump] [--json] [--out PATH]\n  mggcn topo-bench [--out BENCH_topo.json]\n  mggcn topo-bench --check PATH"
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let (_, flags) = parse_flags(&args[1..]);
    match cmd.as_str() {
        "train" => cmd_train(&flags),
        "simulate" => cmd_simulate(&flags),
        "memory" => cmd_memory(&flags),
        "datasets" => cmd_datasets(),
        "serve-bench" => cmd_serve_bench(&flags),
        "cluster-bench" => cmd_cluster_bench(&flags),
        "bench-exec" => cmd_bench_exec(&flags),
        "trace" => cmd_trace(&flags),
        "analyze" => cmd_analyze(&flags),
        "topo-bench" => cmd_topo_bench(&flags),
        _ => usage(),
    }
}

/// Pin the kernel-pool size (must run before any parallel kernel).
fn set_pool_threads(n: usize) {
    if mg_gcn::exec::pool_size() != n {
        eprintln!(
            "note: kernel pool was already initialized with {} thread(s); \
             capping the active count at {n} instead",
            mg_gcn::exec::pool_size()
        );
    }
    mg_gcn::exec::set_active_threads(n);
}

fn cmd_train(flags: &HashMap<String, String>) {
    let epochs: usize = get(flags, "epochs", 40);
    let hidden: usize = get(flags, "hidden", 32);
    let vertices: usize = get(flags, "vertices", 2000);
    let backend = match flags.get("backend").map(String::as_str) {
        None => Backend::Simulated,
        Some(name) => Backend::parse(name).unwrap_or_else(|| {
            eprintln!("unknown backend {name:?} (expected simulated or threaded)");
            exit(2)
        }),
    };
    if let Some(t) = flags.get("threads") {
        let Ok(t) = t.parse::<usize>() else {
            eprintln!("--threads expects a positive integer");
            exit(2)
        };
        std::env::set_var("MGGCN_THREADS", t.to_string());
        set_pool_threads(t);
    }
    let partition = match flags.get("partition").map(String::as_str) {
        None => Partition::OneD,
        Some(s) => Partition::parse(s).unwrap_or_else(|| {
            eprintln!("unknown partition {s:?} (expected 1d or 1.5d)");
            exit(2)
        }),
    };
    let nodes: usize = get(flags, "nodes", 1);
    // A DGX-A100 node holds 8 GPUs.
    let gpus = gpus_flag(flags, 4, 8 * nodes.max(1), partition);
    let graph = sbm::generate(&SbmConfig::community_benchmark(vertices, 5), 42);
    let cfg = GcnConfig::new(graph.features.cols(), &[hidden], graph.classes);
    let mut opts = if nodes > 1 {
        // A hierarchical cluster of A100 nodes: gpus must split evenly
        // across nodes so the 1.5D replication groups stay node-aligned.
        if !gpus.is_multiple_of(nodes) {
            eprintln!("--gpus ({gpus}) must be a multiple of --nodes ({nodes})");
            exit(2)
        }
        let nic_gbps: f64 = get(flags, "nic", 50.0);
        let machine = mg_gcn::gpusim::MachineSpec::hier_cluster(
            &format!("A100-{nodes}x{}", gpus / nodes),
            mg_gcn::gpusim::GpuSpec::a100(),
            nodes,
            gpus / nodes,
            12,
            25.0e9,
            nic_gbps * 1e9,
        );
        let mut o = TrainOptions::full(machine, gpus);
        // Exact gradients, matching `quick`'s single-node defaults.
        o.skip_first_backward_spmm = false;
        o
    } else {
        TrainOptions::quick(gpus)
    };
    opts.partition = partition;
    opts.overlap = !flags.contains_key("no-overlap");
    opts.permute = !flags.contains_key("no-permute");
    opts.backend = backend;
    // Bounded-staleness pipelining (DESIGN §15): epoch e+1's broadcasts
    // prefetch k-epoch-old snapshots during epoch e's backward pass.
    opts.staleness = get(flags, "staleness", 0);
    let staleness = opts.staleness;
    let opts_machine_name = opts.machine.name.clone();
    let problem = Problem::from_graph(&graph, &cfg, &opts);
    let mut trainer = match Trainer::new(problem, cfg, opts) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    if let Some(path) = flags.get("resume") {
        match Checkpoint::load(std::path::Path::new(path))
            .and_then(|ck| ck.restore_into(&mut trainer).map(|()| ck.epoch))
        {
            Ok(epoch) => println!("resumed from {path} at epoch {epoch}"),
            Err(e) => {
                eprintln!("resume failed: {e}");
                exit(1);
            }
        }
    }
    let tracer = flags.get("trace").map(|_| std::sync::Arc::new(mg_gcn::trace::Tracer::new()));
    if let Some(t) = &tracer {
        trainer.set_tracer(t.clone());
    }
    let stale_note = if staleness > 0 {
        format!(", staleness {staleness} (fused cross-epoch pipeline)")
    } else {
        String::new()
    };
    println!(
        "training: {} vertices, {} edges, {} GPUs on {}, {} partition, hidden {}, backend {}{}",
        graph.n(),
        graph.adj.nnz(),
        gpus,
        opts_machine_name,
        partition.name(),
        hidden,
        backend.name(),
        stale_note
    );
    let mut last_report = None;
    if staleness > 0 {
        // Fused multi-epoch dispatch: the whole run is one schedule, so
        // epoch e+1's prefetch broadcasts really overlap epoch e.
        let reports = match trainer.train(epochs) {
            Ok(rs) => rs,
            Err(err) => {
                eprintln!("pipelined training failed: {err}");
                exit(1);
            }
        };
        for r in reports {
            if r.epoch % 10 == 0 || r.epoch + 1 == epochs {
                print_train_epoch(&r);
            }
            last_report = Some(r);
        }
    } else {
        for e in 0..epochs {
            let r = match trainer.train_epoch() {
                Ok(r) => r,
                Err(err) => {
                    eprintln!("epoch {e} failed: {err}");
                    exit(1);
                }
            };
            if e % 10 == 0 || e + 1 == epochs {
                print_train_epoch(&r);
            }
            last_report = Some(r);
        }
    }
    if let Some(path) = flags.get("checkpoint") {
        let ck = Checkpoint::from_trainer(&trainer);
        match ck.save(std::path::Path::new(path)) {
            Ok(()) => println!("checkpoint written to {path}"),
            Err(e) => eprintln!("checkpoint failed: {e}"),
        }
    }
    if let (Some(path), Some(tracer)) = (flags.get("trace"), &tracer) {
        trace_verdicts(tracer, &trainer.expected_broadcast_bytes(), epochs);
        match tracer.write_chrome_trace(std::path::Path::new(path), true) {
            Ok(()) => println!("chrome trace written to {path} (open in chrome://tracing)"),
            Err(e) => eprintln!("trace failed: {e}"),
        }
    }
    if let Some(r) = last_report {
        println!("final test accuracy: {:.1}%", r.test_acc * 100.0);
    }
}

fn print_train_epoch(r: &mg_gcn::core::metrics::EpochReport) {
    let wall = r
        .measured
        .as_ref()
        .map(|m| format!(", {:.2} wall ms", m.wall_seconds * 1e3))
        .unwrap_or_default();
    println!(
        "epoch {:>4}  loss {:>9.4}  train {:>5.1}%  test {:>5.1}%  ({:.2} sim ms{wall})",
        r.epoch,
        r.loss,
        r.train_acc * 100.0,
        r.test_acc * 100.0,
        r.sim_seconds * 1e3
    );
}

/// Print the two trace verdicts — traced broadcast bytes vs the §5.1
/// closed form, and per-GPU high-watermark vs the §4.2 `L + 3` plan —
/// and return whether both hold.
fn trace_verdicts(
    tracer: &mg_gcn::trace::Tracer,
    expected_per_epoch: &[u64],
    epochs: usize,
) -> bool {
    let expected: Vec<u64> = expected_per_epoch.iter().map(|&b| b * epochs as u64).collect();
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
    let mem_ok = tracer.memory_bound_ok();
    match mem_ok {
        Some(true) => {
            let peak =
                tracer.memory_high_watermarks().into_iter().map(|(_, b)| b).max().unwrap_or(0);
            let bound = tracer.gauge("mem.plan.big_buffers_bytes").unwrap_or(0.0);
            println!(
                "trace: per-GPU high-watermark {:.2} MiB within L+3 plan {:.2} MiB",
                peak as f64 / (1 << 20) as f64,
                bound / (1 << 20) as f64
            );
        }
        Some(false) => eprintln!(
            "trace: memory high-watermark EXCEEDS the L+3 plan: {:?} vs bound {:?}",
            tracer.memory_high_watermarks(),
            tracer.gauge("mem.plan.big_buffers_bytes")
        ),
        None => println!("trace: no memory watermarks recorded"),
    }
    bytes_ok && mem_ok != Some(false)
}

fn model_for(name: &str, card: &datasets::DatasetCard) -> GcnConfig {
    match name {
        "a" => GcnConfig::model_a(card.feat_dim, card.classes),
        "b" => GcnConfig::model_b(card.feat_dim, card.classes),
        "c" => GcnConfig::model_c(card.feat_dim, card.classes),
        "d" => GcnConfig::model_d(card.feat_dim, card.classes),
        other => {
            eprintln!("unknown model {other:?} (expected a, b, c or d)");
            exit(2)
        }
    }
}

fn cmd_simulate(flags: &HashMap<String, String>) {
    let name = flags.get("dataset").cloned().unwrap_or_else(|| usage());
    let Some(card) = datasets::by_name(&name) else {
        eprintln!("unknown dataset {name:?}; try `mggcn datasets`");
        exit(1)
    };
    let machine = match flags.get("machine").map(String::as_str).unwrap_or("a100") {
        "v100" => MachineSpec::dgx_v100(),
        "a100" => MachineSpec::dgx_a100(),
        other => {
            eprintln!("unknown machine {other:?} (expected v100 or a100)");
            exit(2)
        }
    };
    let gpus: usize = get(flags, "gpus", 8);
    let cfg = model_for(flags.get("model").map(String::as_str).unwrap_or("a"), &card);
    let opts = TrainOptions::full(machine.clone(), gpus);
    let problem = Problem::from_stats(&card, &opts);
    let mut trainer = match Trainer::new(problem, cfg, opts) {
        Ok(t) => t,
        Err(e) => {
            println!("{}: {e}", card.name);
            exit(0)
        }
    };
    let report = trainer.train_epoch().expect("simulated backend cannot fail");
    println!(
        "{} on {} x{}: epoch {:.4} s  ({:.1} MiB/GPU planned)",
        card.name,
        machine.name,
        gpus,
        report.sim_seconds,
        trainer.memory_per_gpu() as f64 / (1 << 20) as f64
    );
    println!("breakdown (kernel %):");
    for (cat, pct) in report.breakdown(true) {
        println!("  {:<12} {:>5.1}%", cat.name(), pct);
    }
    if flags.contains_key("profile") {
        println!("\nprofile:");
        let profile = Profile::from_timeline(&report.timeline, report.sim_seconds);
        print!("{}", profile.render());
    }
    if let Some(path) = flags.get("trace") {
        match mg_gcn::gpusim::trace::write_chrome_trace(
            &report.timeline,
            std::path::Path::new(path),
        ) {
            Ok(()) => println!("chrome trace written to {path} (open in chrome://tracing)"),
            Err(e) => eprintln!("trace failed: {e}"),
        }
    }
}

fn cmd_memory(flags: &HashMap<String, String>) {
    let name = flags.get("dataset").cloned().unwrap_or_else(|| usage());
    let Some(card) = datasets::by_name(&name) else {
        eprintln!("unknown dataset {name:?}");
        exit(1)
    };
    let hidden: usize = get(flags, "hidden", 512);
    let layers: usize = get(flags, "layers", 2);
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

/// Train a small community-graph model and freeze it for serving — the
/// shared front half of `serve-bench` and `cluster-bench`.
fn train_serving_model(vertices: usize, epochs: usize, seed: u64) -> (Graph, ServingModel) {
    let graph = sbm::generate(&SbmConfig::community_benchmark(vertices, 5), seed);
    let cfg = GcnConfig::new(graph.features.cols(), &[32], graph.classes);
    let opts = TrainOptions::quick(2);
    let problem = Problem::from_graph(&graph, &cfg, &opts);
    let mut trainer = match Trainer::new(problem, cfg, opts) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    for _ in 0..epochs {
        trainer.train_epoch().expect("simulated backend cannot fail");
    }
    let ck = Checkpoint::from_trainer(&trainer);
    match ServingModel::from_checkpoint(&ck, &graph) {
        Ok(m) => (graph, m),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}

fn cmd_serve_bench(flags: &HashMap<String, String>) {
    if let Some(path) = flags.get("check") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        });
        match mg_gcn::serve::validate_serve_bench(&text) {
            Ok(()) => println!("{path}: valid serve-bench report"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                exit(1);
            }
        }
        return;
    }

    let qps: f64 = get(flags, "qps", 100_000.0);
    let window: f64 = get(flags, "batch-window", 1.0e-3);
    let max_batch: usize = get(flags, "max-batch", 32);
    let cache_mb: usize = get(flags, "cache-mb", 64);
    let requests: usize = get(flags, "requests", 2000);
    let vertices: usize = get(flags, "vertices", 2000);
    let gpus: usize = get(flags, "gpus", 1);
    let epochs: usize = get(flags, "epochs", 15);
    let seed: u64 = get(flags, "seed", 42);

    // Train a small model and freeze its checkpoint into a serving model.
    let (graph, model) = train_serving_model(vertices, epochs, seed);
    eprintln!(
        "serving {} vertices, {} edges, {}-layer model on {} simulated A100(s)",
        graph.n(),
        graph.adj.nnz(),
        model.layers(),
        gpus
    );

    let machine = || {
        mg_gcn::gpusim::MachineSpec::uniform(
            "A100-serve",
            mg_gcn::gpusim::GpuSpec::a100(),
            gpus,
            12,
            300.0e9,
        )
    };
    let trace = mg_gcn::serve::generate_load(&LoadGenConfig::skewed(qps, requests, vertices, seed));
    let tracer = flags.get("trace").map(|_| std::sync::Arc::new(mg_gcn::trace::Tracer::new()));

    // Batch-size-1 baseline on identical hardware, no cache.
    let mut unbatched =
        Server::new(model.clone(), ServeConfig::new(machine(), BatchPolicy::unbatched(), 0));
    let base = unbatched.serve("unbatched", &trace);

    // Micro-batched with the propagation cache: cold pass, then warm.
    // Only the batched server is traced so the cache-hit/miss counters and
    // latency histograms describe one configuration, not a mixture.
    let policy = BatchPolicy::new(window, max_batch);
    let mut server = Server::new(model, ServeConfig::new(machine(), policy, cache_mb << 20));
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
    // Emit through the shared writer and self-validate against the same
    // schema contract CI enforces on the committed artifact.
    let mut doc = mg_gcn::trace::json::JsonWriter::new()
        .f64("qps", qps, 1)
        .f64("batch_window_s", window, 6)
        .usize("max_batch", max_batch)
        .usize("cache_mb", cache_mb)
        .usize("gpus", gpus)
        .arr("configs", &[base.to_json(), cold.to_json(), warm.to_json()])
        .f64("batching_speedup", batching_speedup, 3)
        .f64("warm_compute_reduction", warm_compute_reduction, 4);
    if let Some(t) = &tracer {
        doc = doc.raw("trace", &t.bench_json());
    }
    let json = doc.finish();
    if let Err(e) = mg_gcn::serve::validate_serve_bench(&json) {
        eprintln!("serve-bench emitted a schema-INVALID report: {e}");
        exit(1);
    }
    println!("{json}");
    if let (Some(path), Some(t)) = (flags.get("trace"), &tracer) {
        match t.write_chrome_trace(std::path::Path::new(path), true) {
            Ok(()) => eprintln!("chrome trace written to {path} (open in chrome://tracing)"),
            Err(e) => eprintln!("trace failed: {e}"),
        }
    }
}

/// `cluster-bench`: shard the serving replica set, calibrate saturation
/// throughput, then overload the cluster and gate on the admitted-request
/// p99 SLO and the degraded-answer-rate bound. Writes + schema-validates
/// `BENCH_cluster.json`; exits nonzero on any violated bound.
fn cmd_cluster_bench(flags: &HashMap<String, String>) {
    use mg_gcn::cluster::{validate_cluster_bench, BENCH_CLUSTER_SCHEMA};
    use mg_gcn::trace::json::JsonWriter;

    if let Some(path) = flags.get("check") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        });
        match validate_cluster_bench(&text) {
            Ok(()) => println!("{path}: valid cluster-bench report"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                exit(1);
            }
        }
        return;
    }

    let shards: usize = get(flags, "shards", 2);
    let gpus_per_shard: usize = get(flags, "gpus-per-shard", 2);
    let qps_mult: f64 = get(flags, "qps-mult", 2.0);
    let requests: usize = get(flags, "requests", 2000);
    let vertices: usize = get(flags, "vertices", 1500);
    let epochs: usize = get(flags, "epochs", 10);
    let seed: u64 = get(flags, "seed", 42);
    let slo_ms: f64 = get(flags, "slo-ms", 50.0);
    let max_degraded: f64 = get(flags, "max-degraded", 0.9);
    let window: f64 = get(flags, "batch-window", 1.0e-3);
    let max_batch: usize = get(flags, "max-batch", 32);
    let cache_mb: usize = get(flags, "cache-mb", 16);
    let out = flags.get("out").cloned().unwrap_or_else(|| "BENCH_cluster.json".to_string());
    let backend = match flags.get("backend").map(String::as_str) {
        None => Backend::Simulated,
        Some(name) => Backend::parse(name).unwrap_or_else(|| {
            eprintln!("unknown backend {name:?} (expected simulated or threaded)");
            exit(2)
        }),
    };
    if let Some(t) = flags.get("threads") {
        let Ok(t) = t.parse::<usize>() else {
            eprintln!("--threads expects a positive integer");
            exit(2)
        };
        std::env::set_var("MGGCN_THREADS", t.to_string());
        set_pool_threads(t);
    }

    let (graph, model) = train_serving_model(vertices, epochs, seed);
    eprintln!(
        "cluster: {} vertices, {} edges, {}-layer model, {} shard(s) x {} GPU(s), backend {}",
        graph.n(),
        graph.adj.nnz(),
        model.layers(),
        shards,
        gpus_per_shard,
        backend.name()
    );

    // Partition comparison: cache-aware label propagation vs the random
    // baseline, scored as cross-shard k-hop fan-out bytes (§5.1 pricing).
    let hops = model.layers();
    let d = model.feat_dim();
    let random = PartitionPlan::random(graph.n(), shards, seed);
    let aware = PartitionPlan::cache_aware(&graph.adj, shards, seed);
    let (_, random_bytes) = random.fanout_bytes(&graph.adj, hops, d);
    let (_, aware_bytes) = aware.fanout_bytes(&graph.adj, hops, d);
    let reduction =
        if random_bytes > 0 { 1.0 - aware_bytes as f64 / random_bytes as f64 } else { 0.0 };
    eprintln!(
        "partition: cache-aware {aware_bytes} B cross-shard {hops}-hop fan-out vs \
         random {random_bytes} B ({:.1}% reduction), shard sizes {:?}",
        reduction * 100.0,
        aware.sizes()
    );

    let mut cfg = ClusterConfig::new(shards, gpus_per_shard, BatchPolicy::new(window, max_batch));
    cfg.cache_bytes = cache_mb << 20;
    cfg.backend = backend;
    let mut cluster = Cluster::new(&model, cfg, Some(&aware));
    let tracer = std::sync::Arc::new(mg_gcn::trace::Tracer::new());
    cluster.set_tracer(tracer.clone());

    // Calibrate in two passes: a moderate pass to warm the per-shard
    // caches, then a saturating pass (arrivals far above service rate, so
    // every batch fills) whose measurement is the real steady-state
    // capacity — warm caches and full batches amortize so much that a
    // cold-cache estimate would understate capacity several-fold and the
    // "overload" run would not actually overload. Then drive at
    // qps-mult x capacity with bounded admission; the admitted-latency
    // bound is structural: window + max_queue_delay + one batch's service.
    let warmup =
        mg_gcn::serve::generate_load(&LoadGenConfig::skewed(10_000.0, 600, graph.n(), seed));
    cluster.measure_capacity(&warmup);
    let saturating =
        mg_gcn::serve::generate_load(&LoadGenConfig::skewed(2.0e7, 800, graph.n(), seed));
    let capacity = cluster.measure_capacity(&saturating);
    let qps = capacity * qps_mult;
    let max_queue_delay = (slo_ms * 1e-3 * 0.5).max(window);
    cluster.set_admission(AdmissionPolicy::new(max_queue_delay, 4 * gpus_per_shard));
    eprintln!(
        "capacity {capacity:.0} rps -> overload at {qps:.0} rps ({qps_mult}x), \
         admission: queue delay <= {:.1} ms, inflight <= {}",
        max_queue_delay * 1e3,
        4 * gpus_per_shard
    );
    let trace =
        mg_gcn::serve::generate_load(&LoadGenConfig::skewed(qps, requests, graph.n(), seed + 1));
    let outcome = cluster.serve_trace("overload", &trace);
    let report = &outcome.report;
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

    let p99_ok = report.admitted_p99_ms <= slo_ms;
    let degraded_bounded = report.degraded_rate <= max_degraded;
    let degraded_nonzero = report.degraded > 0;
    let all_answered = outcome.answers.len() == trace.len();
    // Under genuine overload the cluster must shed *something* — a zero
    // degraded rate would mean admission control never engaged.
    let need_shedding = qps_mult > 1.0;
    let ok = p99_ok && degraded_bounded && all_answered && (!need_shedding || degraded_nonzero);

    let partition = JsonWriter::new()
        .str("strategy", aware.strategy)
        .u64("cross_shard_fanout_bytes", aware_bytes)
        .u64("random_fanout_bytes", random_bytes)
        .f64("reduction", reduction, 4)
        .finish();
    let slo = JsonWriter::new()
        .f64("p99_ms", slo_ms, 3)
        .f64("max_degraded_rate", max_degraded, 4)
        .finish();
    let verdict = JsonWriter::new()
        .bool("p99_ok", p99_ok)
        .bool("degraded_bounded", degraded_bounded)
        .bool("degraded_nonzero", degraded_nonzero)
        .bool("all_answered", all_answered)
        .finish();
    let json = JsonWriter::new()
        .str("bench", "cluster")
        .str("schema", BENCH_CLUSTER_SCHEMA)
        .usize("shards", shards)
        .usize("gpus_per_shard", gpus_per_shard)
        .f64("capacity_rps", capacity, 1)
        .f64("qps", qps, 1)
        .f64("qps_multiplier", qps_mult, 2)
        .raw("partition", &partition)
        .raw("slo", &slo)
        .raw("result", &report.to_json())
        .raw("verdict", &verdict)
        .finish();
    // The file on disk is what CI consumes: write, re-read, validate.
    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("failed to write {out}: {e}");
        exit(1);
    }
    let text = std::fs::read_to_string(&out).expect("just wrote it");
    if let Err(e) = validate_cluster_bench(&text) {
        eprintln!("{out}: INVALID: {e}");
        exit(1);
    }
    eprintln!("wrote {out} (schema {BENCH_CLUSTER_SCHEMA})");
    println!("{json}");
    if let Some(path) = flags.get("trace") {
        match tracer.write_chrome_trace(std::path::Path::new(path), backend == Backend::Threaded) {
            Ok(()) => eprintln!("chrome trace written to {path} (open in chrome://tracing)"),
            Err(e) => eprintln!("trace failed: {e}"),
        }
    }
    if !ok {
        eprintln!(
            "cluster-bench FAILED: p99_ok={p99_ok} degraded_bounded={degraded_bounded} \
             degraded_nonzero={degraded_nonzero} all_answered={all_answered}"
        );
        exit(1);
    }
}

/// `bench-exec`: measure real epoch wall-clock on the threaded backend at
/// each kernel-pool width, against the same model/graph, and report the
/// speedup over 1 thread; then sweep `--staleness` on a NIC-bound 2×2
/// hierarchical cluster in the simulator, reporting speedup-vs-k
/// (DESIGN §15). Writes `BENCH_exec.json`; `--check PATH` validates an
/// existing artifact (schema + the k=1 improvement gate) for CI.
fn cmd_bench_exec(flags: &HashMap<String, String>) {
    if let Some(path) = flags.get("check") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        });
        match validate_exec_bench(&text) {
            Ok(msg) => {
                println!("{path}: {msg}");
                return;
            }
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                exit(1)
            }
        }
    }
    let gpus: usize = get(flags, "gpus", 2);
    let vertices: usize = get(flags, "vertices", 3000);
    let hidden: usize = get(flags, "hidden", 128);
    let epochs: usize = get(flags, "epochs", 5);
    let out = flags.get("out").cloned().unwrap_or_else(|| "BENCH_exec.json".to_string());
    let threads: Vec<usize> = flags
        .get("threads")
        .map(String::as_str)
        .unwrap_or("1,2,4")
        .split(',')
        .map(|t| {
            t.trim().parse::<usize>().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                eprintln!("--threads expects a comma-separated list of positive integers");
                exit(2)
            })
        })
        .collect();
    let max_threads = *threads.iter().max().expect("nonempty thread list");
    // Size the pool once, before first use, at the widest sweep point;
    // narrower points are swept with set_active_threads.
    if std::env::var("MGGCN_THREADS").is_err() {
        std::env::set_var("MGGCN_THREADS", max_threads.to_string());
    }
    eprintln!(
        "bench-exec: {gpus} GPUs, {vertices} vertices, hidden {hidden}, \
         {epochs} epochs/point, pool size {}",
        mg_gcn::exec::pool_size()
    );

    let graph = sbm::generate(&SbmConfig::community_benchmark(vertices, 5), 42);
    let cfg = GcnConfig::new(graph.features.cols(), &[hidden], graph.classes);
    let make_trainer = || {
        let opts = {
            let mut o = TrainOptions::quick(gpus);
            o.backend = Backend::Threaded;
            o
        };
        let problem = Problem::from_graph(&graph, &cfg, &opts);
        Trainer::new(problem, cfg.clone(), opts).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1)
        })
    };

    let mut results: Vec<String> = Vec::new();
    let mut baseline_p50 = None;
    for &t in &threads {
        mg_gcn::exec::set_active_threads(t);
        let mut trainer = make_trainer();
        // Warm-up epoch: first-touch allocation, pool spawn.
        trainer.train_epoch().unwrap_or_else(|e| {
            eprintln!("epoch failed: {e}");
            exit(1)
        });
        let mut epoch_ms: Vec<f64> = Vec::with_capacity(epochs);
        let mut categories: std::collections::BTreeMap<String, f64> = Default::default();
        for _ in 0..epochs {
            let start = Instant::now();
            let r = trainer.train_epoch().unwrap_or_else(|e| {
                eprintln!("epoch failed: {e}");
                exit(1)
            });
            let m = r.measured.expect("threaded backend measures");
            // Whole-epoch wall (scheduling included), not just body time.
            let _ = start;
            epoch_ms.push(m.wall_seconds * 1e3);
            for (cat, secs) in &m.category_seconds {
                *categories.entry(cat.name().to_string()).or_insert(0.0) += secs * 1e3;
            }
        }
        epoch_ms.sort_by(f64::total_cmp);
        let p50 = epoch_ms[epoch_ms.len() / 2];
        let baseline = *baseline_p50.get_or_insert(p50);
        let speedup = baseline / p50;
        for v in categories.values_mut() {
            *v /= epochs as f64;
        }
        let cats_json: Vec<String> =
            categories.iter().map(|(k, v)| format!("\"{k}\":{v:.4}")).collect();
        eprintln!(
            "  threads {t}: epoch p50 {p50:.2} ms, speedup {speedup:.2}x vs {} thread(s)",
            threads[0]
        );
        results.push(format!(
            "{{\"threads\":{t},\"epoch_ms_p50\":{p50:.4},\"speedup\":{speedup:.4},\
             \"category_ms\":{{{}}}}}",
            cats_json.join(",")
        ));
    }
    mg_gcn::exec::set_active_threads(0);

    // Bounded-staleness sweep (DESIGN §15): deterministic simulated epoch
    // time at each k on a NIC-bound 2-node × 2-GPU hierarchical cluster,
    // where epoch e+1's prefetch broadcasts can hide under epoch e's
    // backward pass. Reported as speedup over k=0 (the fresh pipeline).
    let stale_list: Vec<usize> = flags
        .get("staleness")
        .map(String::as_str)
        .unwrap_or("0,1,2")
        .split(',')
        .map(|k| {
            k.trim().parse::<usize>().unwrap_or_else(|_| {
                eprintln!("--staleness expects a comma-separated list of non-negative integers");
                exit(2)
            })
        })
        .collect();
    // 1 GB/s default keeps the card NIC-bound: slow enough that cross-node
    // broadcasts dominate what prefetch can hide, fast enough that the NIC
    // is not saturated (a saturated NIC bounds the epoch by total bytes and
    // no amount of pipelining helps).
    let nic_gbps: f64 = get(flags, "nic", 1.0);
    let sim_epochs = epochs.max(3);
    let machine = mg_gcn::gpusim::MachineSpec::hier_cluster(
        "bench-2x2",
        mg_gcn::gpusim::GpuSpec::a100(),
        2,
        2,
        12,
        25.0e9,
        nic_gbps * 1e9,
    );
    eprintln!(
        "bench-exec staleness sweep: 4 GPUs on {}, NIC {nic_gbps} GB/s, \
         {sim_epochs} simulated epochs/point",
        machine.name
    );
    let mut stale_results: Vec<String> = Vec::new();
    let mut fresh_ms = None;
    for &k in &stale_list {
        let mut o = TrainOptions::full(machine.clone(), 4);
        o.skip_first_backward_spmm = false;
        o.permute = false;
        o.staleness = k;
        let problem = Problem::from_graph(&graph, &cfg, &o);
        let mut trainer = Trainer::new(problem, cfg.clone(), o).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1)
        });
        let reports = trainer.train(sim_epochs).unwrap_or_else(|e| {
            eprintln!("staleness {k} failed: {e}");
            exit(1)
        });
        let total_s: f64 = reports.iter().map(|r| r.sim_seconds).sum();
        let epoch_ms = total_s / sim_epochs as f64 * 1e3;
        let baseline = *fresh_ms.get_or_insert(epoch_ms);
        let speedup = baseline / epoch_ms;
        eprintln!("  staleness {k}: epoch {epoch_ms:.3} sim ms, speedup {speedup:.3}x vs k=0");
        stale_results.push(format!(
            "{{\"staleness\":{k},\"epoch_ms_sim\":{epoch_ms:.4},\"speedup_vs_fresh\":{speedup:.4}}}"
        ));
    }

    let json = format!(
        "{{\"bench\":\"exec\",\"backend\":\"threaded\",\"pool_size\":{},\
         \"gpus\":{gpus},\"vertices\":{vertices},\"hidden\":{hidden},\
         \"epochs_per_point\":{epochs},\"results\":[{}],\
         \"staleness_sim\":{{\"machine\":\"{}\",\"gpus\":4,\"nic_gbps\":{nic_gbps},\
         \"epochs_per_point\":{sim_epochs},\"results\":[{}]}}}}",
        mg_gcn::exec::pool_size(),
        results.join(","),
        machine.name,
        stale_results.join(",")
    );
    match std::fs::write(&out, format!("{json}\n")) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            exit(1);
        }
    }
    println!("{json}");
}

/// Schema + bounds validator for `BENCH_exec.json` (the `--check` CI
/// gate): the threaded thread-sweep must be present and well-formed, and
/// the §15 staleness sweep must show k=0 as the 1.0x baseline and a
/// measurable simulated epoch-time improvement at k=1 on the NIC-bound
/// multi-node card.
fn validate_exec_bench(text: &str) -> Result<String, String> {
    use mg_gcn::trace::json::{self, Value};
    let v = json::parse(text)?;
    match v.get("bench").and_then(Value::as_str) {
        Some("exec") => {}
        other => return Err(format!("bench must be \"exec\", got {other:?}")),
    }
    for key in ["pool_size", "gpus", "vertices", "hidden", "epochs_per_point"] {
        v.get(key).and_then(Value::as_num).ok_or(format!("missing number `{key}`"))?;
    }
    let results = v.get("results").and_then(Value::as_arr).ok_or("missing array `results`")?;
    if results.is_empty() {
        return Err("empty thread sweep".into());
    }
    for r in results {
        for key in ["threads", "epoch_ms_p50", "speedup"] {
            let x = r.get(key).and_then(Value::as_num).ok_or(format!("result missing `{key}`"))?;
            if !(x.is_finite() && x > 0.0) {
                return Err(format!("result `{key}` must be finite and positive, got {x}"));
            }
        }
        r.get("category_ms").and_then(Value::as_obj).ok_or("result missing `category_ms`")?;
    }
    let sim = v.get("staleness_sim").ok_or("missing `staleness_sim` (DESIGN §15 sweep)")?;
    sim.get("machine").and_then(Value::as_str).ok_or("staleness_sim missing `machine`")?;
    let srs = sim.get("results").and_then(Value::as_arr).ok_or("staleness_sim missing results")?;
    let mut k0 = None;
    let mut k1 = None;
    for r in srs {
        let k = r.get("staleness").and_then(Value::as_num).ok_or("entry missing `staleness`")?;
        let ms = r.get("epoch_ms_sim").and_then(Value::as_num).ok_or("missing `epoch_ms_sim`")?;
        let sp = r
            .get("speedup_vs_fresh")
            .and_then(Value::as_num)
            .ok_or("missing `speedup_vs_fresh`")?;
        if !(ms.is_finite() && ms > 0.0 && sp.is_finite() && sp > 0.0) {
            return Err(format!("staleness {k}: non-positive epoch time or speedup"));
        }
        if k == 0.0 {
            k0 = Some(sp);
        }
        if k == 1.0 {
            k1 = Some(sp);
        }
    }
    let k0 = k0.ok_or("staleness sweep must include k=0 (the fresh baseline)")?;
    if (k0 - 1.0).abs() > 1e-9 {
        return Err(format!("k=0 must be the 1.0x baseline, got {k0}"));
    }
    let k1 = k1.ok_or("staleness sweep must include k=1")?;
    // The simulator is deterministic, so the gate is a real floor, not a
    // noise band: prefetch must hide at least half a percent of epoch time
    // on the NIC-bound card (measured 1.3% at the committed settings).
    if k1 < 1.005 {
        return Err(format!(
            "k=1 must show a measurable epoch-time improvement on the NIC-bound card \
             (speedup_vs_fresh >= 1.005), got {k1}"
        ));
    }
    Ok(format!("valid exec bench (staleness k=1 speedup {k1:.3}x)"))
}

/// `trace`: run a small traced training job and verify its recorded
/// metrics against the paper's closed forms, or (`--check PATH`) validate
/// an existing trace artifact. Exits nonzero on any failed check, so CI
/// can gate on it.
fn cmd_trace(flags: &HashMap<String, String>) {
    if let Some(path) = flags.get("check") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        });
        // Auto-detect the artifact kind: a Chrome trace has `traceEvents`,
        // a metrics dump has `bench: "trace"`.
        let verdict = if text.contains("\"traceEvents\"") {
            mg_gcn::trace::chrome::validate_chrome_trace(&text).map(|s| {
                format!("valid chrome trace: {} events, {} metadata records", s.events, s.metas)
            })
        } else {
            mg_gcn::trace::chrome::validate_bench_trace(&text)
                .map(|()| "valid BENCH_trace metrics dump".to_string())
        };
        match verdict {
            Ok(msg) => println!("{path}: {msg}"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                exit(1);
            }
        }
        return;
    }

    let gpus: usize = get(flags, "gpus", 2);
    let vertices: usize = get(flags, "vertices", 1500);
    let hidden: usize = get(flags, "hidden", 32);
    let epochs: usize = get(flags, "epochs", 3);
    let out = flags.get("out").cloned().unwrap_or_else(|| "BENCH_trace.json".to_string());
    let backend = match flags.get("backend").map(String::as_str) {
        None => Backend::Threaded,
        Some(name) => Backend::parse(name).unwrap_or_else(|| {
            eprintln!("unknown backend {name:?} (expected simulated or threaded)");
            exit(2)
        }),
    };
    if let Some(t) = flags.get("threads") {
        let Ok(t) = t.parse::<usize>() else {
            eprintln!("--threads expects a positive integer");
            exit(2)
        };
        std::env::set_var("MGGCN_THREADS", t.to_string());
        set_pool_threads(t);
    }

    let graph = sbm::generate(&SbmConfig::community_benchmark(vertices, 5), 42);
    let cfg = GcnConfig::new(graph.features.cols(), &[hidden], graph.classes);
    let mut opts = TrainOptions::quick(gpus);
    opts.backend = backend;
    let problem = Problem::from_graph(&graph, &cfg, &opts);
    let mut trainer = match Trainer::new(problem, cfg, opts) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    let tracer = std::sync::Arc::new(mg_gcn::trace::Tracer::new());
    trainer.set_tracer(tracer.clone());
    eprintln!(
        "trace: {} vertices, {gpus} GPUs, hidden {hidden}, {epochs} epoch(s), backend {}",
        graph.n(),
        backend.name()
    );
    for e in 0..epochs {
        if let Err(err) = trainer.train_epoch() {
            eprintln!("epoch {e} failed: {err}");
            exit(1);
        }
    }

    let ok = trace_verdicts(&tracer, &trainer.expected_broadcast_bytes(), epochs);

    // Write both artifacts, then re-read and schema-validate them — the
    // files on disk are what CI consumes, so they are what gets checked.
    if let Err(e) = tracer.write_bench_json(std::path::Path::new(&out)) {
        eprintln!("failed to write {out}: {e}");
        exit(1);
    }
    let text = std::fs::read_to_string(&out).expect("just wrote it");
    if let Err(e) = mg_gcn::trace::chrome::validate_bench_trace(&text) {
        eprintln!("{out}: INVALID: {e}");
        exit(1);
    }
    println!("wrote {out} (schema {})", mg_gcn::trace::BENCH_TRACE_SCHEMA);
    if let Some(path) = flags.get("chrome") {
        if let Err(e) = tracer.write_chrome_trace(std::path::Path::new(path), true) {
            eprintln!("failed to write {path}: {e}");
            exit(1);
        }
        let text = std::fs::read_to_string(path).expect("just wrote it");
        match mg_gcn::trace::chrome::validate_chrome_trace(&text) {
            Ok(s) => println!(
                "wrote {path}: {} events, {} metadata records (open in chrome://tracing)",
                s.events, s.metas
            ),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                exit(1);
            }
        }
    }
    if !ok {
        exit(1);
    }
}

/// One verified schedule in the analyze report: its static verification
/// result plus (under `--audit-effects`) the effect-soundness audit.
struct AnalyzedSchedule {
    label: String,
    report: mg_gcn::analyze::Report,
    audit: Option<mg_gcn::analyze::EffectAudit>,
}

impl AnalyzedSchedule {
    fn clean(&self) -> bool {
        self.report.clean() && self.audit.as_ref().is_none_or(|a| a.clean())
    }
}

/// One model-checked schedule: exhaustive footprint-reduced exploration
/// plus a capped device-level cross-check.
struct ModelChecked {
    label: String,
    exhaustive: mg_gcn::analyze::DporResult,
    device: mg_gcn::analyze::DporResult,
}

impl ModelChecked {
    fn clean(&self) -> bool {
        self.exhaustive.deterministic() && !self.exhaustive.truncated && self.device.deterministic()
    }
}

const ANALYZE_SCHEMA: &str = "mggcn-analyze-v1";

/// Render the machine-readable analyze report. Deterministic: findings
/// and warnings are canonically sorted by the analyzer, labels are fixed
/// by the sweep order, so the output is byte-stable across runs.
fn analyze_json(rows: &[AnalyzedSchedule], mc: &[ModelChecked]) -> String {
    use mg_gcn::trace::json::{escape, JsonWriter};
    // `arr` takes pre-rendered JSON values, so quote + escape each line.
    let render = |xs: &[String]| -> Vec<String> {
        xs.iter().map(|s| format!("\"{}\"", escape(s))).collect()
    };
    let schedules: Vec<String> = rows
        .iter()
        .map(|r| {
            let findings: Vec<String> = r.report.findings.iter().map(|f| f.to_string()).collect();
            let warnings: Vec<String> = r.report.warnings.iter().map(|w| w.to_string()).collect();
            let mut w = JsonWriter::new()
                .str("label", r.label.trim_end())
                .usize("ops", r.report.ops)
                .usize("edges", r.report.edges)
                .bool("clean", r.clean())
                .arr("findings", &render(&findings))
                .arr("warnings", &render(&warnings));
            if let Some(lv) = &r.report.liveness {
                w = w.usize("buffers_needed", lv.buffers_needed);
            }
            if let Some(b) = r.report.budget {
                w = w.usize("budget", b);
            }
            if let Some(a) = &r.audit {
                let af: Vec<String> = a.findings.iter().map(|f| f.to_string()).collect();
                let aw: Vec<String> = a.warnings.iter().map(|x| x.to_string()).collect();
                w = w.raw(
                    "audit",
                    &JsonWriter::new()
                        .bool("clean", a.clean())
                        .arr("findings", &render(&af))
                        .arr("warnings", &render(&aw))
                        .finish(),
                );
            }
            w.finish()
        })
        .collect();
    let checks: Vec<String> = mc
        .iter()
        .map(|m| {
            JsonWriter::new()
                .str("label", &m.label)
                .bool("clean", m.clean())
                .usize("executions", m.exhaustive.executions)
                .bool("truncated", m.exhaustive.truncated)
                .bool("deterministic", m.exhaustive.deterministic())
                .usize("device_executions", m.device.executions)
                .bool("device_deterministic", m.device.deterministic())
                .finish()
        })
        .collect();
    let dirty =
        rows.iter().filter(|r| !r.clean()).count() + mc.iter().filter(|m| !m.clean()).count();
    let mut w = JsonWriter::new()
        .str("schema", ANALYZE_SCHEMA)
        .usize("schedules", rows.len())
        .usize("dirty", dirty)
        .raw("reports", &format!("[{}]", schedules.join(",")));
    if !mc.is_empty() {
        w = w.raw("model_check", &format!("[{}]", checks.join(",")));
    }
    w.finish()
}

/// Validate an analyze JSON document against the `mggcn-analyze-v1`
/// schema using the in-tree parser.
fn validate_analyze_json(text: &str) -> Result<(), String> {
    use mg_gcn::trace::json::parse;
    let doc = parse(text)?;
    let schema = doc.get("schema").and_then(|v| v.as_str()).ok_or("missing schema")?;
    if schema != ANALYZE_SCHEMA {
        return Err(format!("schema {schema:?}, expected {ANALYZE_SCHEMA:?}"));
    }
    let n = doc.get("schedules").and_then(|v| v.as_num()).ok_or("missing schedules count")?;
    doc.get("dirty").and_then(|v| v.as_num()).ok_or("missing dirty count")?;
    let reports = doc.get("reports").and_then(|v| v.as_arr()).ok_or("missing reports array")?;
    if reports.len() != n as usize {
        return Err(format!("reports array has {} entries, header says {n}", reports.len()));
    }
    for (i, r) in reports.iter().enumerate() {
        for key in ["label", "ops", "edges", "clean", "findings", "warnings"] {
            if r.get(key).is_none() {
                return Err(format!("reports[{i}] missing {key:?}"));
            }
        }
    }
    if let Some(mc) = doc.get("model_check") {
        let arr = mc.as_arr().ok_or("model_check is not an array")?;
        for (i, m) in arr.iter().enumerate() {
            for key in ["label", "clean", "executions", "deterministic"] {
                if m.get(key).is_none() {
                    return Err(format!("model_check[{i}] missing {key:?}"));
                }
            }
        }
    }
    Ok(())
}

/// Emit the analyze JSON (stdout, or `--out PATH` with re-read
/// validation — the file on disk is what CI consumes, so it is what gets
/// checked).
fn emit_analyze_json(
    rows: &[AnalyzedSchedule],
    mc: &[ModelChecked],
    flags: &HashMap<String, String>,
) {
    let text = analyze_json(rows, mc);
    if let Err(e) = validate_analyze_json(&text) {
        eprintln!("internal error: emitted JSON fails its own schema: {e}");
        exit(1);
    }
    match flags.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{text}\n")) {
                eprintln!("failed to write {path}: {e}");
                exit(1);
            }
            let back = std::fs::read_to_string(path).expect("just wrote it");
            if let Err(e) = validate_analyze_json(&back) {
                eprintln!("{path}: INVALID: {e}");
                exit(1);
            }
            println!("wrote {path} (schema {ANALYZE_SCHEMA})");
        }
        None => println!("{text}"),
    }
}

/// `analyze`: statically verify recorded schedules. Without `--dataset`,
/// sweeps trainer schedules over P ∈ {1,2,4,8} (or just `--gpus`) ×
/// op-order × overlap on a generated community graph, plus one serving
/// batch schedule; with `--dataset`, verifies a single paper-scale epoch
/// schedule. Exits nonzero if any schedule has a finding, so CI can gate
/// on it. `--dump` prints each op stream annotated with buffer effects.
///
/// `--audit-effects` additionally shadow-executes every materialized
/// schedule's bodies and diffs observed reads/writes/stale ages against
/// the declarations (under-declaration fails the run). `--model-check`
/// exhaustively executes every HB-distinct linearization of small
/// schedules at P ∈ {1,2,3} and requires bit-identical final weights.
/// `--json` (optionally with `--out PATH`) emits the byte-stable
/// `mggcn-analyze-v1` machine-readable report.
fn cmd_analyze(flags: &HashMap<String, String>) {
    use mg_gcn::analyze::{analyze, analyze_budget, audit_effects, BudgetSpec};
    let dump = flags.contains_key("dump");
    let audit = flags.contains_key("audit-effects");
    let want_json = flags.contains_key("json") || flags.contains_key("out");
    let mut rows: Vec<AnalyzedSchedule> = Vec::new();

    // Dataset path: one paper-scale schedule (the CI smoke target).
    if let Some(name) = flags.get("dataset") {
        let Some(card) = datasets::by_name(name) else {
            eprintln!("unknown dataset {name:?}; try `mggcn datasets`");
            exit(1)
        };
        let machine = match flags.get("machine").map(String::as_str).unwrap_or("a100") {
            "v100" => MachineSpec::dgx_v100(),
            "a100" => MachineSpec::dgx_a100(),
            other => {
                eprintln!("unknown machine {other:?} (expected v100 or a100)");
                exit(2)
            }
        };
        let partition = match flags.get("partition").map(String::as_str) {
            None => Partition::OneD,
            Some(s) => Partition::parse(s).unwrap_or_else(|| {
                eprintln!("unknown partition {s:?} (expected 1d or 1.5d)");
                exit(2)
            }),
        };
        let gpus = gpus_flag(flags, 4, machine.gpu_count(), partition);
        let cfg = model_for(flags.get("model").map(String::as_str).unwrap_or("a"), &card);
        let mut opts = TrainOptions::full(machine.clone(), gpus);
        opts.partition = partition;
        let problem = Problem::from_stats(&card, &opts);
        let trainer = match Trainer::new(problem, cfg.clone(), opts) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: cannot build schedule: {e}", card.name);
                exit(1)
            }
        };
        let sched = trainer.epoch_schedule();
        let budget = match partition {
            Partition::OneD => BudgetSpec::mg_gcn(cfg.layers()),
            Partition::OneFiveD => BudgetSpec::mg_gcn_15d(cfg.layers()),
        };
        let report = analyze_budget(&sched, &budget);
        if dump {
            print!("{}", sched.dump_ops());
        }
        println!("{} on {} x{} ({}):", card.name, machine.name, gpus, partition.name());
        print!("{}", report.render());
        if audit {
            // Descriptor-backed problems carry shapes, not tensors: the
            // ops have no bodies, so there is nothing to shadow-execute.
            println!("effect audit skipped: descriptor-only dataset schedules have no op bodies");
        }
        let row = AnalyzedSchedule {
            label: format!("{} on {} x{} ({})", card.name, machine.name, gpus, partition.name()),
            report,
            audit: None,
        };
        let ok = row.clean();
        if want_json {
            emit_analyze_json(&[row], &[], flags);
        }
        exit(if ok { 0 } else { 1 });
    }

    // Sweep path: every trainer schedule shape on a generated graph.
    let vertices: usize = get(flags, "vertices", 600);
    let hidden: usize = get(flags, "hidden", 16);
    let graph = sbm::generate(&SbmConfig::community_benchmark(vertices, 5), 42);
    let cfg = GcnConfig::new(graph.features.cols(), &[hidden], graph.classes);
    // 1.5D cases are simply skipped at an odd count, so no parity check.
    let gpu_list: Vec<usize> = if flags.contains_key("gpus") {
        vec![gpus_flag(flags, 1, 8, Partition::OneD)]
    } else {
        mg_gcn::sweep::SWEEP_GPUS.to_vec()
    };
    let cases = mg_gcn::sweep::trainer_cases(&graph, &cfg, &gpu_list).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    for case in cases {
        let sched = case.schedule();
        let report = analyze_budget(&sched, &case.budget);
        print_schedule_report(&case.label, dump.then(|| sched.dump_ops()), &report);
        let fx = audit.then(|| {
            let actual = case.trainer.record_actual_effects(case.schedule());
            let a = audit_effects(&sched.op_infos(), &actual);
            print_effect_audit(&a);
            a
        });
        rows.push(AnalyzedSchedule { label: case.label, report, audit: fx });
    }

    let (label, sched) = mg_gcn::sweep::serve_case(&graph, hidden).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    let report = analyze(&sched);
    print_schedule_report(&label, dump.then(|| sched.dump_ops()), &report);
    if audit {
        // The serving context is a frozen inference state, not the
        // trainer's device state; its bodies run under a different ctx
        // type, so the training-side shadow interpreter does not apply.
        println!("  effect audit skipped: serving schedules use a frozen inference context");
    }
    rows.push(AnalyzedSchedule { label, report, audit: None });

    // DPOR linearization model checking: exhaustively execute every
    // HB-distinct linearization of small schedules and require
    // bit-identical final weights. Footprint dependence (sound given the
    // effect audit) must reduce a clean schedule to one trace; the capped
    // device-dependence pass cross-checks the reduction empirically.
    let mut checks: Vec<ModelChecked> = Vec::new();
    if flags.contains_key("model-check") {
        use mg_gcn::analyze::{model_check, DporOptions};
        let small = sbm::generate(&SbmConfig::community_benchmark(24, 2), 11);
        let small_cfg = GcnConfig::new(small.features.cols(), &[4], small.classes);
        for gpus in [1usize, 2, 3] {
            let mut opts = TrainOptions::quick(gpus);
            opts.permute = false;
            opts.overlap = true;
            let problem = Problem::from_graph(&small, &small_cfg, &opts);
            let trainer = Trainer::new(problem, small_cfg.clone(), opts).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1)
            });
            let sched = trainer.epoch_schedule();
            let infos = sched.op_infos();
            let exhaustive = model_check(&infos, &DporOptions::default(), &mut |order| {
                trainer.linearization_digest(|_| {}, order)
            });
            let device_opts = DporOptions { max_executions: 128, device_dependence: true };
            let device = model_check(&infos, &device_opts, &mut |order| {
                trainer.linearization_digest(|_| {}, order)
            });
            let mc = ModelChecked {
                label: format!("model-check P={gpus} ({} ops)", sched.op_count()),
                exhaustive,
                device,
            };
            let verdict = if mc.clean() {
                format!(
                    "deterministic ({} trace, {} device-level interleavings agree)",
                    mc.exhaustive.executions, mc.device.executions
                )
            } else if let Some(d) =
                mc.exhaustive.divergence.as_ref().or(mc.device.divergence.as_ref())
            {
                format!("DIVERGENT: digest {:#018x} != baseline {:#018x}", d.digest, d.baseline)
            } else {
                "TRUNCATED before the exploration finished".to_string()
            };
            println!("{:<42} {verdict}", mc.label);
            checks.push(mc);
        }
    }

    if want_json {
        emit_analyze_json(&rows, &checks, flags);
    }
    let total = rows.len() + checks.len();
    let dirty =
        rows.iter().filter(|r| !r.clean()).count() + checks.iter().filter(|m| !m.clean()).count();
    if dirty > 0 {
        eprintln!("{dirty} of {total} schedules FAILED verification");
        exit(1);
    }
    let extra = match (audit, checks.is_empty()) {
        (true, false) => ", effect-sound, linearization-deterministic",
        (true, true) => ", effect-sound",
        (false, false) => ", linearization-deterministic",
        (false, true) => "",
    };
    println!("all {total} schedules verified: hazard-free, deadlock-free, within budget{extra}");
}

/// One-line audit verdict printed under each swept schedule when
/// `--audit-effects` is on (full detail comes from `render()` on
/// failure).
fn print_effect_audit(a: &mg_gcn::analyze::EffectAudit) {
    if a.clean() {
        let warn = a.warnings.len();
        if warn == 0 {
            println!("  effect audit: declarations match observed accesses");
        } else {
            println!("  effect audit: sound ({warn} over-declaration warning(s))");
        }
    } else {
        print!("{}", a.render());
    }
}

/// Print one schedule's verification result: a one-line verdict in sweep
/// mode, or the full annotated op stream + report under `--dump`.
fn print_schedule_report(label: &str, dump: Option<String>, report: &mg_gcn::analyze::Report) {
    if let Some(ops) = dump {
        println!("--- {} ---", label.trim_end());
        print!("{ops}");
        print!("{}", report.render());
        return;
    }
    let buffers = match (&report.liveness, report.budget) {
        (Some(lv), Some(b)) => format!(", buffers {}/{}", lv.buffers_needed, b),
        (Some(lv), None) => format!(", buffers {}", lv.buffers_needed),
        _ => String::new(),
    };
    if report.clean() {
        println!("{label}: clean ({} ops, {} edges{buffers})", report.ops, report.edges);
    } else {
        println!("{label}: {} finding(s)", report.findings.len());
        for f in &report.findings {
            println!("    {f}");
        }
    }
}

/// `topo-bench`: the §5.1 hierarchical-machine study. Runs the closed-form
/// and DES 1D-vs-1.5D verdicts on DGX-1/DGX-A100, the split-quad NIC sweep
/// (crossover ≈ 100 GB/s), a papers100M-scale end-to-end epoch sweep on
/// two A100 quads, the traced intra-/inter-node byte split on a 2-node
/// machine, and an analyze preflight over every generated 1D and 1.5D
/// schedule; writes + schema-validates `BENCH_topo.json` and exits
/// nonzero if any verdict fails (a CI gate). `--check PATH` validates an
/// existing artifact without running anything.
fn cmd_topo_bench(flags: &HashMap<String, String>) {
    use mg_gcn::topo::{self, TopoBenchOptions};
    if let Some(path) = flags.get("check") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        });
        match topo::validate_topo_bench(&text) {
            Ok(()) => {
                println!("{path}: valid {} stat card, all verdicts pass", topo::BENCH_TOPO_SCHEMA);
                return;
            }
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                exit(1)
            }
        }
    }
    let out = flags.get("out").cloned().unwrap_or_else(|| "BENCH_topo.json".to_string());
    let start = Instant::now();
    let bench = topo::run_topo_bench(&TopoBenchOptions::default());
    println!("§5.1 verdicts (t_15d / t_1d; above 1 means 1D wins):");
    for v in [&bench.paper_dgx1, &bench.paper_a100] {
        println!(
            "  {:<12} closed {:.4}  sim {:.4}  (1.5D memory ×{:.0})",
            v.machine, v.slowdown_closed, v.slowdown_sim, v.mem_factor_15d
        );
    }
    match bench.crossover_gbps {
        Some(x) => println!("split-quad NIC sweep: 1.5D overtakes 1D below {x:.1} GB/s"),
        None => println!("split-quad NIC sweep: no crossover found"),
    }
    println!("papers100M end-to-end epochs (P=8, two A100 quads):");
    for p in &bench.e2e {
        println!(
            "  NIC {:>6.1} GB/s: 1D {:>7.3} s   1.5D {:>7.3} s   ratio {:.3}  ({} wins)",
            p.nic_gbps,
            p.t_1d,
            p.t_15d,
            p.slowdown_15d(),
            if p.slowdown_15d() < 1.0 { "1.5D" } else { "1D" }
        );
    }
    println!(
        "2-node traced bytes: 1D intra {} / inter {}; 1.5D intra {} / inter {}",
        bench.traffic_1d.intra_node,
        bench.traffic_1d.inter_node,
        bench.traffic_15d.intra_node,
        bench.traffic_15d.inter_node
    );
    println!(
        "analyze preflight: {}/{} schedules clean",
        bench.preflight.clean, bench.preflight.schedules
    );
    let json = bench.to_json();
    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    }
    let written = std::fs::read_to_string(&out).unwrap_or_default();
    let ok = match topo::validate_topo_bench(&written) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("{out}: verdicts FAILED validation: {e}");
            false
        }
    };
    println!("wrote {out} in {:.1}s", start.elapsed().as_secs_f64());
    if !ok {
        exit(1);
    }
}

fn cmd_datasets() {
    println!(
        "{:<10} {:>12} {:>14} {:>6} {:>6} {:>5}",
        "name", "vertices", "edges", "d(0)", "cls", "k"
    );
    for card in mg_gcn::graph::datasets::BENCHMARKS {
        println!(
            "{:<10} {:>12} {:>14} {:>6} {:>6} {:>5.0}",
            card.name, card.n, card.m, card.feat_dim, card.classes, card.avg_degree
        );
    }
}
