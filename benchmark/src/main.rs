//! The repo's benchmark. See `README.md` beside this crate and
//! `BENCHMARK.json` at the root of the repository.
//!
//! ```text
//! mggcn-benchmark --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! mggcn-benchmark --smoke
//! mggcn-benchmark compare A.jsonl B.jsonl
//! ```

mod clock;
mod compare;
mod report;
mod run;
mod serve;
mod spans;
mod stats;
mod train;
mod workloads;

use mg_gcn::trace::json::{self, Value};
use report::{Record, END_TO_END, PER_LAYER};
use std::io::Write;
use std::process::{Command, ExitCode};

const MANIFEST: &str = "BENCHMARK.json";
const TRACE_DIR: &str = "benchmark/out";
const USAGE: &str =
    "usage: mggcn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--out <file>] | --smoke | compare <A> <B>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => std::fs::read_to_string(MANIFEST)
            .map_err(|e| e.to_string())
            .and_then(|text| report::bounds(&text))
            .map_err(|e| format!("{MANIFEST}: {e}"))
            .and_then(|bounds| compare::compare(&bounds, &args[1], &args[2])),
        Some("--smoke") if args.len() == 1 => smoke(),
        Some(_) => run_one(&args).map(|()| true),
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mggcn-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{name} needs a value")),
    }
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let text = flag(args, name)?.ok_or(format!("{name} is required\n{USAGE}"))?;
    text.parse().map_err(|_| format!("{name}: cannot read {text:?}"))
}

/// One run of one workload, as the driver calls it. The last line of
/// standard output is the result; the line before it, and `--out`, carry
/// the same result inside its envelope.
fn run_one(args: &[String]) -> Result<(), String> {
    if let Some(unknown) = args
        .iter()
        .step_by(2)
        .find(|a| !["--workload", "--seed", "--seconds", "--trace", "--out"].contains(&a.as_str()))
    {
        return Err(format!("unknown argument {unknown:?}\n{USAGE}"));
    }
    let name: String = required(args, "--workload")?;
    let workload = workloads::find(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seconds: f64 = required(args, "--seconds")?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let traced = match required::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    // The kernel pool reads its width once, at first use; nothing has
    // touched it yet and no other thread exists. Only the traced run's
    // all-CPUs phase uses more than one pool thread.
    let pool_width = if traced { workload.pool_width } else { 1 };
    std::env::set_var("MGGCN_THREADS", pool_width.to_string());
    // From here on this thread and every thread the program spawns share
    // one CPU, and freed memory stays with the process.
    clock::nproc();
    let all_cpus = clock::pin_to_current_cpu();
    clock::keep_freed_memory();
    let a = run::Args { workload, seed: required(args, "--seed")?, seconds, all_cpus };

    let record = if traced {
        let (record, trace) = run::run_traced(&a)?;
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/trace-{}-{}.json", workload.name, a.seed);
        std::fs::write(&path, trace).map_err(|e| format!("{path}: {e}"))?;
        record
    } else {
        run::run_plain(&a)?
    };
    describe(&record);
    let (line, result) = (record.record_json()?, record.result_json()?);
    if let Some(path) = flag(args, "--out")? {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    println!("{result}");
    Ok(())
}

/// The run for a person, on standard error.
fn describe(r: &Record) {
    eprintln!(
        "{} seed {} {}: {} steps, {} failed, correct {}",
        r.workload.name,
        r.seed,
        if r.traced { "traced" } else { "untraced" },
        r.steps,
        r.failed,
        r.correct()
    );
    for (name, ok) in &r.checks {
        eprintln!("  check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    let defs = if r.traced { &PER_LAYER[..] } else { &END_TO_END[..] };
    for d in defs {
        if let Some(v) = r.metrics.get(d.name) {
            eprintln!("  {:<28} {v:>16.4} {}", d.name, d.unit);
        }
    }
    for (name, v) in &r.diagnostics {
        eprintln!("  ({name:<26} {v:>16.4})");
    }
}

/// Run this program again on one workload, for as few steps as a run takes
/// (`--seconds 0`), and parse the result line. Each workload needs a process
/// of its own: the pool width is fixed at first use and the peak memory is
/// the process's.
fn child(workload: &str, seed: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: exit {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let last = text.lines().last().ok_or(format!("{workload}: printed nothing"))?;
    json::parse(last).map_err(|e| format!("{workload}: {e}"))
}

/// Every workload for a few steps, untraced once and traced twice: the
/// result has exactly the contract's keys and a number for every listed
/// metric, every check passes, no step fails, and the counts of the two
/// traced runs are identical.
fn smoke() -> Result<bool, String> {
    let mut ok = true;
    let mut complain = |what: String| {
        println!("FAIL {what}");
        ok = false;
    };
    for w in &workloads::WORKLOADS {
        let plain = child(w.name, 1, false)?;
        let traced = [child(w.name, 1, true)?, child(w.name, 1, true)?];
        let value = |r: &Value, name: &str| {
            r.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_num)
        };
        for (result, defs) in
            [(&plain, &END_TO_END[..]), (&traced[0], &PER_LAYER[..]), (&traced[1], &PER_LAYER[..])]
        {
            let keys: Vec<&str> = result
                .as_obj()
                .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
                .unwrap_or_default();
            if keys != ["correct", "attempted", "failed", "metrics"] {
                complain(format!("{}: result keys are {keys:?}", w.name));
            }
            if result.get("correct").and_then(Value::as_bool) != Some(true) {
                complain(format!("{}: a correctness check failed", w.name));
            }
            if result.get("failed").and_then(Value::as_num) != Some(0.0) {
                complain(format!("{}: steps failed", w.name));
            }
            if let Some(d) = defs.iter().find(|d| value(result, d.name).is_none()) {
                complain(format!("{}: no number for {}", w.name, d.name));
            }
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let (x, y) = (value(&traced[0], d.name), value(&traced[1], d.name));
            if x.map(f64::to_bits) != y.map(f64::to_bits) {
                complain(format!(
                    "{}: count {} differs between two runs: {x:?} vs {y:?}",
                    w.name, d.name
                ));
            }
        }
        println!("smoke {:<12} untraced + 2 traced runs checked", w.name);
    }
    Ok(ok)
}
