//! Chrome Trace Event Format export over both clock domains.
//!
//! Simulated spans become processes `pid = gpu` ("GPU g (sim)"); measured
//! wall-clock spans from the threaded backend become processes
//! `pid = WALL_PID_BASE + gpu` ("GPU g (wall)") so chrome://tracing shows
//! the DES prediction and the real execution stacked in one view. Streams
//! map to threads. All timestamps are microseconds with fixed `%.3f`
//! formatting, so equal span sets serialize byte-identically.

use crate::{Clock, TraceSpan};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Wall-clock processes live at `gpu + WALL_PID_BASE` to keep the two
/// domains visually separate in the viewer.
pub const WALL_PID_BASE: usize = 1000;

fn pid(span: &TraceSpan) -> usize {
    match span.clock {
        Clock::Sim => span.gpu,
        Clock::Wall => WALL_PID_BASE + span.gpu,
    }
}

/// Render spans as a Trace Event Format JSON string. Pass wall spans as an
/// empty slice for a simulated-clock-only export (the golden-test form:
/// byte-identical across kernel-pool widths and backends).
pub fn chrome_trace(sim: &[TraceSpan], wall: &[TraceSpan]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;

    // Process / thread name metadata, sorted for determinism.
    let mut procs: BTreeSet<(usize, usize, Clock)> = BTreeSet::new();
    let mut lanes: BTreeSet<(usize, usize)> = BTreeSet::new();
    for s in sim.iter().chain(wall) {
        procs.insert((pid(s), s.gpu, s.clock));
        lanes.insert((pid(s), s.stream));
    }
    for &(pid, gpu, clock) in &procs {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let domain = match clock {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
        };
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"GPU {gpu} ({domain})\"}}}}"
        )
        .expect("write to string");
    }
    for &(pid, stream) in &lanes {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let kind = if stream == 0 { "compute" } else { "comm" };
        write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{stream},\
             \"args\":{{\"name\":\"stream {stream} ({kind})\"}}}}"
        )
        .expect("write to string");
    }

    for s in sim.iter().chain(wall) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ts = s.start * 1e6;
        let dur = (s.end - s.start) * 1e6;
        let stage = s.stage.map(|x| x as i64).unwrap_or(-1);
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"stage\":{stage},\"bytes\":{:.0},\
             \"reads\":{},\"writes\":{}}}}}",
            s.label,
            s.category.name(),
            pid(s),
            s.stream,
            s.bytes,
            s.reads,
            s.writes,
        )
        .expect("write to string");
    }
    out.push_str("\n]}\n");
    out
}

/// Summary returned by a successful schema validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Complete (`"X"`) events.
    pub events: usize,
    /// Metadata (`"M"`) events.
    pub metas: usize,
}

/// Validate Chrome-trace JSON structurally: a `traceEvents` array whose
/// members are `"X"` events with finite non-negative `ts`/`dur` and
/// integer `pid`/`tid`, or `"M"` metadata with an `args.name`.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeSummary, String> {
    let root = crate::json::parse(text)?;
    let events =
        root.get("traceEvents").and_then(|v| v.as_arr()).ok_or("missing traceEvents array")?;
    let mut summary = ChromeSummary { events: 0, metas: 0 };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        ev.get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?;
        match ph {
            "X" => {
                for key in ["ts", "dur", "pid", "tid"] {
                    let num = ev
                        .get(key)
                        .and_then(|v| v.as_num())
                        .ok_or_else(|| format!("event {i}: missing {key}"))?;
                    if !num.is_finite() || num < 0.0 {
                        return Err(format!("event {i}: bad {key} {num}"));
                    }
                }
                summary.events += 1;
            }
            "M" => {
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("event {i}: metadata without args.name"))?;
                summary.metas += 1;
            }
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_gpusim::Category;

    fn sim_span(gpu: usize, label: &'static str, start: f64, end: f64) -> TraceSpan {
        TraceSpan {
            clock: Clock::Sim,
            gpu,
            stream: 0,
            category: Category::SpMM,
            stage: Some(1),
            label,
            start,
            end,
            bytes: 128.0,
            reads: 2,
            writes: 1,
        }
    }

    #[test]
    fn export_is_schema_valid_and_deterministic() {
        let sim = vec![sim_span(0, "spmm", 0.0, 1e-3), sim_span(1, "spmm", 0.0, 2e-3)];
        let wall = vec![TraceSpan {
            clock: Clock::Wall,
            gpu: 0,
            stream: 0,
            category: Category::Barrier,
            stage: None,
            label: "wait",
            start: 0.0,
            end: 5e-4,
            bytes: 0.0,
            reads: 0,
            writes: 0,
        }];
        let a = chrome_trace(&sim, &wall);
        let b = chrome_trace(&sim, &wall);
        assert_eq!(a, b);
        let summary = validate_chrome_trace(&a).expect("valid");
        assert_eq!(summary.events, 3);
        assert!(a.contains("GPU 0 (sim)"));
        assert!(a.contains("GPU 0 (wall)"));
        assert!(a.contains(&format!("\"pid\":{}", WALL_PID_BASE)));
        assert!(a.contains("\"bytes\":128"));
        assert!(a.contains("\"reads\":2,\"writes\":1"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = chrome_trace(&[], &[]);
        let summary = validate_chrome_trace(&text).expect("valid");
        assert_eq!(summary, ChromeSummary { events: 0, metas: 0 });
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Q\"}]}").is_err());
        let neg = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":-1,\
                   \"dur\":0,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(neg).is_err());
    }
}
