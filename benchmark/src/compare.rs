//! `compare A B`: apply the bounds of `BENCHMARK.json` to two result sets
//! (files of one record per line, as `--out` appends them).

use crate::report::{Bound, PER_LAYER, SCHEMA};
use crate::stats::{median, quartile_spread};
use crate::workloads::WORKLOADS;
use mg_gcn::trace::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Per workload: untraced values by metric, and traced records by seed.
#[derive(Default)]
struct ResultSet {
    end_to_end: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    traced: BTreeMap<(String, u64), BTreeMap<String, f64>>,
    incorrect: usize,
    failed: u64,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet::default();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = || format!("{path}:{}", n + 1);
        let rec = json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        if rec.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("{}: not a {SCHEMA} record", at()));
        }
        let field = |k: &str| rec.get(k).ok_or(format!("{}: no {k}", at()));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_num().unwrap_or(0.0) as u64;
        let traced = field("traced")?.as_bool().unwrap_or(false);
        let result = field("result")?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            set.incorrect += 1;
        }
        set.failed += result.get("failed").and_then(Value::as_num).unwrap_or(0.0) as u64;
        let metrics =
            result.get("metrics").and_then(Value::as_obj).ok_or(format!("{}: no metrics", at()))?;
        for (name, m) in metrics {
            let value =
                m.get("value").and_then(Value::as_num).ok_or(format!("{}: {name}", at()))?;
            if traced {
                set.traced.entry((workload.clone(), seed)).or_default().insert(name.clone(), value);
            } else {
                set.end_to_end
                    .entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// Print one row per workload × end-to-end metric; `Ok(true)` if B is
/// within every bound of A, both sets are steady, and counts agree.
pub fn compare(bounds: &[Bound], path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound"
    );
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let values = |set: &ResultSet, name: &str| {
            set.end_to_end.get(workload).and_then(|w| w.get(name)).cloned().unwrap_or_default()
        };
        for m in bounds {
            let (va, vb) = (values(&a, &m.name), values(&b, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<12} {:<18} missing from a result set", m.name);
                ok = false;
                continue;
            }
            let bound = m.bound;
            let (ma, mb) = (median(&va), median(&vb));
            // Positive when B is worse than A.
            let worse = if m.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
            let spread = |v: &[f64]| if v.len() >= 2 { quartile_spread(v) } else { 0.0 };
            let (sa, sb) = (spread(&va), spread(&vb));
            // Set-up time is exempt from the spread rule, not from the bound.
            let steady = m.name == "setup_s" || (sa <= bound && sb <= bound);
            let verdict = match (worse <= bound, steady) {
                (true, true) => "ok",
                (false, _) => "REGRESSION",
                (true, false) => "UNSTEADY",
            };
            ok &= verdict == "ok";
            println!(
                "{workload:<12} {:<18} {ma:>14.4} {mb:>14.4} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                m.name,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0
            );
        }
    }
    // Counts are compared between traced runs of one workload and seed; a
    // run without its counterpart leaves them unchecked, which is a failure.
    let traced: BTreeSet<&(String, u64)> = a.traced.keys().chain(b.traced.keys()).collect();
    if traced.is_empty() {
        println!("neither set has a traced run: no count was compared");
        ok = false;
    }
    for key in traced {
        let (workload, seed) = key;
        let (Some(ma), Some(mb)) = (a.traced.get(key), b.traced.get(key)) else {
            println!("{workload:<12} seed {seed}: traced run missing from one result set");
            ok = false;
            continue;
        };
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let (x, y) = (ma.get(def.name), mb.get(def.name));
            if x.map(|v| v.to_bits()) != y.map(|v| v.to_bits()) {
                println!("{workload:<12} seed {seed}: count {} differs: {x:?} vs {y:?}", def.name);
                ok = false;
            }
        }
    }
    for (label, set) in [("A", &a), ("B", &b)] {
        if set.incorrect > 0 || set.failed > 0 {
            println!(
                "set {label}: {} incorrect runs, {} failed operations",
                set.incorrect, set.failed
            );
            ok = false;
        }
    }
    Ok(ok)
}
