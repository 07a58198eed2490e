//! Outside-in tracing: spans recorded by the harness around its calls into
//! each layer, kept in memory and written when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The step this span belongs to; `None` for replays between steps.
    pub step: Option<u32>,
    /// `Some(gpu)` for spans a worker thread measured (`ExecReport.spans`).
    /// Lanes run side by side, so they explain their parent without being
    /// subtracted from it.
    pub lane: Option<u32>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// The step being recorded, if any, and how many have begun.
    step: Option<u32>,
    steps_begun: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            step: None,
            steps_begun: 0,
        }
    }

    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open the root span of the next step (steps are numbered from 0);
    /// spans recorded until [`Recorder::end_step`] belong to it, spans
    /// recorded between steps to none.
    pub fn begin_step(&mut self) -> Open {
        assert!(self.stack.is_empty(), "a step begins outside every span");
        self.step = Some(self.steps_begun);
        self.steps_begun += 1;
        self.open("step")
    }

    pub fn end_step(&mut self, root: Open) {
        self.close(root);
        assert!(self.stack.is_empty(), "a step ends with its root span");
        self.step = None;
    }

    /// Forget the step that began with `root`: a failed step may have
    /// stopped early, and its times explain nothing.
    pub fn abandon_step(&mut self, root: Open) {
        self.spans.truncate(root.0 as usize);
        self.stack.clear();
        self.step = None;
        self.steps_begun -= 1;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        let t = self.now();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent: self.stack.last().copied(),
            step: self.step,
            lane: None,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close the innermost open span, which must be `open`.
    pub fn close(&mut self, open: Open) {
        assert_eq!(self.stack.pop(), Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end = self.now();
    }

    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let o = self.open(name);
        let r = f();
        self.close(o);
        r
    }

    /// Record a span measured elsewhere (a worker thread's, with its
    /// `lane`) as a child of the innermost open span.
    pub fn add(&mut self, name: &'static str, lane: Option<usize>, start: f64, end: f64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.stack.last().copied(),
            step: self.step,
            lane: lane.map(|g| g as u32),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A finished recording, tabulated per step. Layer times are means over
/// the *floor steps* — the fastest 5 % of steps by wall time — so the
/// layers of a workload add up to the floor of its step. Every duration is
/// multiplied by `scale` on the way in (the run's clock against the
/// reference clock).
pub struct StepTable {
    /// Wall seconds of each step's root span, in step order.
    pub walls: Vec<f64>,
    /// Per step: self seconds by span name (a span's self time is its
    /// duration minus its children's, lanes excepted).
    selfs: Vec<BTreeMap<&'static str, f64>>,
    /// Per step: lane seconds by `(name, gpu)`.
    lanes: Vec<BTreeMap<(&'static str, u32), f64>>,
    /// Durations of the spans recorded between steps, by name.
    replays: BTreeMap<&'static str, Vec<f64>>,
    floor_steps: Vec<usize>,
}

impl StepTable {
    /// Fails if no step was recorded.
    pub fn new(rec: &Recorder, scale: f64) -> Result<Self, String> {
        let spans = rec.spans();
        let seconds: Vec<f64> = spans.iter().map(|s| s.seconds() * scale).collect();
        let mut child_seconds = vec![0.0f64; spans.len()];
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.lane.is_none()) {
            if let Some(p) = s.parent {
                child_seconds[p as usize] += seconds[i];
            }
        }
        let (mut walls, mut selfs, mut lanes) = (Vec::new(), Vec::new(), Vec::new());
        let mut replays: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let Some(step) = s.step else {
                if s.parent.is_none() {
                    replays.entry(s.name).or_default().push(seconds[i]);
                }
                continue;
            };
            // Steps are numbered from 0 and recorded one after another.
            let at = step as usize;
            if at == walls.len() {
                walls.push(0.0);
                selfs.push(BTreeMap::new());
                lanes.push(BTreeMap::new());
            }
            match s.lane {
                Some(gpu) => *lanes[at].entry((s.name, gpu)).or_insert(0.0) += seconds[i],
                None => {
                    *selfs[at].entry(s.name).or_insert(0.0) += seconds[i] - child_seconds[i];
                    if s.parent.is_none() {
                        walls[at] += seconds[i];
                    }
                }
            }
        }
        if walls.is_empty() {
            return Err("no traced step succeeded".into());
        }
        let floor_steps = crate::stats::floor_indices(&walls);
        Ok(Self { walls, selfs, lanes, replays, floor_steps })
    }

    fn floor_mean(&self, of_step: impl Fn(usize) -> f64) -> f64 {
        self.floor_steps.iter().map(|&i| of_step(i)).sum::<f64>() / self.floor_steps.len() as f64
    }

    /// The floor of the traced step's wall seconds.
    pub fn floor_wall(&self) -> f64 {
        self.floor_mean(|i| self.walls[i])
    }

    /// Self seconds of the spans named `name`, per floor step.
    pub fn floor_self(&self, name: &str) -> f64 {
        self.floor_mean(|i| self.selfs[i].get(name).copied().unwrap_or(0.0))
    }

    /// Lane seconds named `name`, summed over GPUs, per floor step.
    pub fn floor_lanes(&self, name: &str) -> f64 {
        self.floor_mean(|i| {
            self.lanes[i].iter().filter(|((n, _), _)| *n == name).map(|(_, s)| s).sum()
        })
    }

    /// Seconds of the busiest GPU's lanes other than `except`, per floor
    /// step.
    pub fn floor_busiest_lane(&self, except: &str) -> f64 {
        self.floor_mean(|i| {
            let mut per_gpu: BTreeMap<u32, f64> = BTreeMap::new();
            for ((name, gpu), s) in &self.lanes[i] {
                if *name != except {
                    *per_gpu.entry(*gpu).or_insert(0.0) += s;
                }
            }
            per_gpu.values().copied().fold(0.0, f64::max)
        })
    }

    /// The floor of a between-steps span's seconds; 0 if never recorded.
    pub fn replay_floor(&self, name: &str) -> f64 {
        self.replays.get(name).map_or(0.0, |v| crate::stats::floor(v))
    }

    /// Self seconds by name per floor step, for the trace file.
    pub fn floor_selfs(&self) -> BTreeMap<&'static str, f64> {
        let names: std::collections::BTreeSet<&'static str> =
            self.selfs.iter().flat_map(|m| m.keys().copied()).collect();
        names.into_iter().map(|n| (n, self.floor_self(n))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_adds_up() {
        let mut r = Recorder::new();
        let step = r.begin_step();
        let a = r.open("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let leaf = r.open("leaf");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(leaf);
        r.add("lane", Some(1), 0.0, 5.0);
        r.close(a);
        r.end_step(step);
        let wall = r.spans()[0].seconds();

        let failed = r.begin_step();
        r.scope("leaf", || ());
        r.abandon_step(failed);
        r.scope("replay", || ());

        let t = StepTable::new(&r, 1.0).expect("one step");
        assert_eq!(t.walls.len(), 1, "replays and the abandoned step belong to no step");
        assert!(t.floor_self("leaf") >= 0.002 && t.floor_self("a") >= 0.002);
        assert!(t.floor_self("step") >= 0.0 && t.floor_self("step") < 0.002);
        assert_eq!(t.floor_self("lane"), 0.0, "lanes are not subtracted or summed");
        let total: f64 = t.floor_selfs().values().sum();
        assert!((total - wall).abs() < 1e-9, "self times add up to the root: {total} vs {wall}");
        assert!((t.floor_wall() - wall).abs() < 1e-12);
        assert_eq!(t.floor_lanes("lane"), 5.0);
        assert_eq!(t.floor_busiest_lane("lane"), 0.0);
        assert_eq!(t.floor_busiest_lane("other"), 5.0);
        assert!(t.replay_floor("replay") >= 0.0 && t.replay_floor("missing") == 0.0);
        let doubled = StepTable::new(&r, 2.0).expect("one step");
        assert!((doubled.floor_wall() - 2.0 * wall).abs() < 1e-12);
        assert_eq!(doubled.floor_lanes("lane"), 10.0);
        assert_eq!(r.spans()[2].parent, Some(1));
    }
}
