//! Smoke tests for the `mggcn` CLI binary — the interface most downstream
//! users touch first.

use std::process::Command;

fn mggcn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mggcn"))
}

#[test]
fn datasets_lists_table1() {
    let out = mggcn().arg("datasets").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["Cora", "Arxiv", "Papers", "Products", "Proteins", "Reddit"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn simulate_reports_epoch_and_breakdown() {
    let out = mggcn()
        .args(["simulate", "--dataset", "Arxiv", "--machine", "v100", "--gpus", "4"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Arxiv on DGX-V100 x4"), "{text}");
    assert!(text.contains("SpMM"), "{text}");
}

#[test]
fn simulate_profile_and_trace() {
    let trace = std::env::temp_dir().join(format!("mggcn_cli_{}.json", std::process::id()));
    let out = mggcn()
        .args([
            "simulate",
            "--dataset",
            "Reddit",
            "--gpus",
            "8",
            "--profile",
            "--trace",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("utilization"), "{text}");
    let json = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&trace).ok();
    assert!(json.contains("traceEvents"));
}

#[test]
fn simulate_reports_oom_gracefully() {
    let out = mggcn()
        .args(["simulate", "--dataset", "Papers", "--machine", "v100", "--gpus", "2"])
        .output()
        .expect("run");
    assert!(out.status.success(), "OOM is a report, not a crash");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("out of memory"), "{text}");
}

#[test]
fn train_and_checkpoint() {
    let ckpt = std::env::temp_dir().join(format!("mggcn_cli_{}.ckpt", std::process::id()));
    let out = mggcn()
        .args([
            "train",
            "--vertices",
            "300",
            "--gpus",
            "2",
            "--epochs",
            "8",
            "--checkpoint",
            ckpt.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final test accuracy"), "{text}");
    assert!(ckpt.exists(), "checkpoint file written");
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn memory_shows_fit_matrix() {
    let out = mggcn()
        .args(["memory", "--dataset", "Proteins", "--hidden", "512", "--layers", "2"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GiB"), "{text}");
    assert!(text.contains("OOM"), "Proteins at 1 GPU should be OOM:\n{text}");
}

#[test]
fn train_on_the_threaded_backend_reports_wall_time() {
    let out = mggcn()
        .args(["train", "--vertices", "250", "--gpus", "2", "--epochs", "3"])
        .args(["--backend", "threaded", "--threads", "2"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("backend threaded"), "{text}");
    assert!(text.contains("wall ms"), "threaded epochs must report wall time:\n{text}");
}

#[test]
fn train_rejects_unknown_backend() {
    let out =
        mggcn().args(["train", "--vertices", "200", "--backend", "quantum"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown backend"), "{err}");
}

/// A value the machine, the partitioning or the subcommand cannot take —
/// out of range, unparsable, or for a flag it does not have — is a usage
/// error in flag handling (message naming the flag, exit 2): never a
/// default, never a panic from an assertion inside a library.
#[test]
fn train_and_analyze_reject_impossible_gpu_counts_with_exit_2() {
    for (args, flag) in [
        (&["train", "--partition", "1.5d", "--gpus", "3"][..], "--gpus"),
        (&["train", "--partition", "1.5d", "--gpus", "1"], "--gpus"),
        (&["train", "--gpus", "0"], "--gpus"),
        (&["train", "--gpus", "9"], "--gpus"),
        (&["analyze", "--gpus", "0"], "--gpus"),
        (&["analyze", "--dataset", "reddit", "--gpus", "0"], "--gpus"),
        (&["analyze", "--dataset", "reddit", "--partition", "1.5d", "--gpus", "3"], "--gpus"),
        (&["simulate", "--dataset", "reddit", "--gpus", "0"], "--gpus"),
        (&["simulate", "--dataset", "reddit", "--gpus", "9"], "--gpus"),
        (&["serve-bench", "--gpus", "0"], "--gpus"),
        (&["memory", "--dataset", "reddit", "--layers", "0"], "--layers"),
        (&["cluster-bench", "--shards", "0"], "--shards"),
        (&["cluster-bench", "--gpus-per-shard", "0"], "--gpus-per-shard"),
        (&["serve-bench", "--batch-window", "-1"], "--batch-window"),
        (&["serve-bench", "--qps", "garbage"], "--qps"),
        (&["train", "--epochs", "abc"], "--epochs"),
        (&["train", "--epochs"], "--epochs"),
        (&["train", "--epoch", "1"], "--epoch"),
        (&["serve-bench", "--batch-window", "inf"], "--batch-window"),
        (&["cluster-bench", "--batch-window", "inf"], "--batch-window"),
        (&["simulate", "--dataset", "reddit", "--profile", "nonsense"], "--profile"),
        (&["train", "--epochs", "1", "--vertices", "200", "--no-overlap", "7"], "--no-overlap"),
        (&["train", "--epochs", "1", "--vertices", "200", "--no-permute", "1"], "--no-permute"),
        (&["analyze", "--gpus", "2", "--dump", "yes"], "--dump"),
        (&["analyze", "--gpus", "2", "--audit-effects", "on"], "--audit-effects"),
        (&["analyze", "--gpus", "2", "--model-check", "1"], "--model-check"),
        (&["analyze", "--gpus", "2", "--json", "out.json"], "--json"),
        (&["cluster-bench", "--backend", "threaded"], "--backend"),
        (&["serve-bench", "--requests", "0"], "--requests"),
        (&["cluster-bench", "--requests", "0"], "--requests"),
    ] {
        let out = mggcn().args(args).output().expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2, stderr:\n{err}");
        assert!(err.contains(flag), "{args:?} must name the flag:\n{err}");
        assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
    }
}

/// The loss column of a `train` run: what must not depend on backend,
/// partitioning or pool width.
fn losses(args: &[&str]) -> Vec<String> {
    let out = mggcn().arg("train").args(args).output().expect("run");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let col: Vec<String> = text
        .lines()
        .filter(|l| l.starts_with("epoch"))
        .map(|l| l.split_whitespace().nth(3).expect("loss column").to_string())
        .collect();
    assert!(!col.is_empty(), "{args:?} printed no epochs:\n{text}");
    col
}

/// A 2-node × 2-GPU hierarchical machine through the CLI: 1.5D trains to
/// the same losses as 1D, and the fused bounded-staleness pipeline runs on
/// the threaded backend with the losses of the simulated one (k = 0 being
/// the classic trainer).
#[test]
fn train_on_two_nodes_under_both_partitionings_and_staleness() {
    let base = ["--gpus", "4", "--nodes", "2", "--vertices", "400", "--hidden", "16"];
    let run = |extra: &[&str]| losses(&[&base[..], &["--epochs", "3"], extra].concat());
    let one_d = run(&["--partition", "1d"]);
    assert_eq!(one_d, run(&["--partition", "1.5d"]), "partitioning is not a numerical decision");
    for k in ["0", "1"] {
        let simulated = run(&["--nic", "1", "--staleness", k]);
        let threaded = run(&["--nic", "1", "--staleness", k, "--backend", "threaded"]);
        assert_eq!(simulated, threaded, "staleness {k}: threaded must match simulated");
        if k == "0" {
            assert_eq!(simulated, one_d, "k = 0 is the classic trainer");
        }
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = mggcn().arg("bogus").output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn train_resume_roundtrip() {
    let ckpt = std::env::temp_dir().join(format!("mggcn_cli_resume_{}.ckpt", std::process::id()));
    let args_base = ["train", "--vertices", "250", "--gpus", "2", "--epochs", "5"];
    let out = mggcn()
        .args(args_base)
        .args(["--checkpoint", ckpt.to_str().expect("utf8 path")])
        .output()
        .expect("run");
    assert!(out.status.success());
    // Resume from the checkpoint and train further.
    let out = mggcn()
        .args(args_base)
        .args(["--resume", ckpt.to_str().expect("utf8 path")])
        .output()
        .expect("run");
    std::fs::remove_file(&ckpt).ok();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("resumed from"), "{text}");
}

#[test]
fn train_resume_from_garbage_fails_cleanly() {
    let bad = std::env::temp_dir().join(format!("mggcn_cli_bad_{}.ckpt", std::process::id()));
    std::fs::write(&bad, b"definitely not a checkpoint").expect("write");
    let out = mggcn()
        .args(["train", "--vertices", "200", "--gpus", "2", "--epochs", "2"])
        .args(["--resume", bad.to_str().expect("utf8 path")])
        .output()
        .expect("run");
    std::fs::remove_file(&bad).ok();
    assert!(!out.status.success(), "bad checkpoint must be an error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("resume failed"), "{err}");
}

#[test]
fn analyze_dump_prints_the_annotated_op_stream() {
    let out = mggcn()
        .args(["analyze", "--gpus", "1", "--vertices", "300", "--hidden", "8", "--dump"])
        .output()
        .expect("run");
    assert!(out.status.success(), "clean schedules must exit 0");
    let text = String::from_utf8_lossy(&out.stdout);

    // The dump is the effect-annotated op stream `mggcn-analyze` verifies:
    // one line per op with kind, category, lane placement, wait edges and
    // declared read/write sets.
    assert!(text.contains("op   0 "), "ops are numbered from 0:\n{text}");
    let op_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("op ")).collect();
    assert!(op_lines.len() >= 10, "a 2-layer epoch dumps many ops:\n{text}");
    for l in &op_lines {
        assert!(l.contains("lanes=[g"), "op line lost lane placement: {l}");
    }
    // Trainer ops declare their effect sets (serving extraction ops may
    // not); the bulk of the stream must carry them.
    let annotated = op_lines.iter().filter(|l| l.contains("R[") && l.contains("W[")).count();
    assert!(annotated >= 10, "only {annotated} op lines carry R[..] W[..] sets:\n{text}");
    // Dependency edges and both work kinds appear somewhere in the stream.
    assert!(op_lines.iter().any(|l| l.contains("waits=[")), "no wait edges:\n{text}");
    assert!(op_lines.iter().any(|l| l.contains(" compute ")), "no compute ops:\n{text}");
    assert!(op_lines.iter().any(|l| l.contains(" Comm ")), "no comm ops:\n{text}");
}
