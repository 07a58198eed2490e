//! CUDA-like scheduling and a rate-based discrete-event simulator.
//!
//! A [`Schedule`] is built the way an MG-GCN epoch is issued on real
//! hardware: kernels are launched onto per-GPU *streams* (stream 0 compute,
//! stream 1 communication, per §4.3), collectives rendezvous across GPUs,
//! and cross-stream dependencies are expressed by waiting on a previous
//! op's completion (CUDA events) — named explicitly (`launch`/`collective`
//! and their `_fx` forms) or inferred from declared buffer effects
//! ([`Schedule::record`], [`crate::deps`]). [`Schedule::run`] then plays
//! the whole DAG forward in simulated time; the event loop is
//! [`Schedule::simulate_with`], over the run state in `RateCore`.
//!
//! The simulator is *rate-based*: every running op drains work dimensions
//! (seconds, FLOPs, bytes) at rates set by its GPU, and those rates are
//! recomputed whenever anything starts or finishes. Crucially, an active
//! collective drains its link bandwidth **out of its GPUs' memory
//! bandwidth**, so a memory-bound SpMM overlapped with a broadcast slows
//! down — the effect the paper measures in §6.3 ("communication ... takes
//! up some of the global memory bandwidth").
//!
//! Ops may carry a *body*: a closure over a caller-supplied context that
//! executes when the op completes in simulated time. Completion order is a
//! topological order of the dependency DAG, so bodies compute real numerics
//! under exactly the schedule being timed — and a schedule missing a
//! double-buffer WAR dependency will corrupt real data the same way real
//! hardware would.

use crate::deps::DepTracker;
use crate::effects::Effects;
use crate::specs::MachineSpec;
use crate::timeline::{Category, Span, Timeline};
use mggcn_sched::{Action, DispatchSite, Injector, Stall};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Identifier of a launched op; also usable as a dependency handle.
pub type OpId = usize;

/// The work an op represents.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Work {
    /// A kernel with a FLOP count and a DRAM traffic estimate; its duration
    /// is `max(flops / flop_rate, bytes / available_mem_bw)` (roofline).
    Compute { flops: f64, bytes: f64 },
    /// A data transfer at a fixed link bandwidth (bytes/second).
    Comm { bytes: f64, bw: f64 },
    /// A fixed-duration op (host-side work, latency stubs).
    Fixed { seconds: f64 },
}

/// Descriptive metadata recorded into the timeline.
#[derive(Clone, Copy, Debug)]
pub struct OpDesc {
    pub category: Category,
    pub label: &'static str,
    pub stage: Option<usize>,
    /// Training epoch for fused multi-epoch (bounded staleness) schedules.
    /// `None` for the classic one-epoch schedules; the analyzer's
    /// cross-epoch pass and per-epoch trace accounting key off this.
    pub epoch: Option<usize>,
}

impl OpDesc {
    pub fn new(category: Category, label: &'static str) -> Self {
        Self { category, label, stage: None, epoch: None }
    }

    pub fn staged(category: Category, label: &'static str, stage: usize) -> Self {
        Self { category, label, stage: Some(stage), epoch: None }
    }

    /// Builder: tag this op with the training epoch it belongs to.
    pub fn in_epoch(mut self, epoch: usize) -> Self {
        self.epoch = Some(epoch);
        self
    }
}

/// An op's real-execution payload. Bodies take the context by shared
/// reference (interior mutability inside `Ctx` scopes writes to the GPU
/// being computed) and are re-runnable and `Send + Sync`: a compiled
/// [`EpochPlan`] runs the same body every epoch, on whichever worker
/// thread of the threaded executor (`mggcn-exec`) dispatches it; the
/// simulated path runs them on the calling thread in completion order.
/// Whatever changes between runs is read from `Ctx` at run time.
pub type Body<Ctx> = Box<dyn Fn(&Ctx) + Send + Sync>;

struct Op<Ctx> {
    desc: OpDesc,
    work: Work,
    /// `(gpu, stream)` lanes this op occupies — one for kernels, all
    /// participants for collectives.
    lanes: Vec<(usize, usize)>,
    waits: Vec<OpId>,
    /// Declared buffer footprint (see [`crate::effects`]).
    effects: Effects,
    body: Option<Body<Ctx>>,
}

/// Borrowed view of one recorded op's metadata — everything a static
/// analysis needs (`mggcn-analyze` consumes these), without the body.
pub struct OpInfo<'a> {
    pub id: OpId,
    pub desc: OpDesc,
    pub work: Work,
    pub lanes: &'a [(usize, usize)],
    pub waits: &'a [OpId],
    pub effects: &'a Effects,
}

/// Result of timing a schedule without running bodies: the run report
/// plus the deterministic completion order of all ops — a topological
/// linearization of the dependency DAG that respects every lane FIFO,
/// which is the order the simulated backend runs bodies in.
pub struct SimOutcome {
    pub report: RunReport,
    pub completion_order: Vec<OpId>,
}

/// Result of running a schedule.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Simulated end-to-end time in seconds.
    pub makespan: f64,
    pub timeline: Timeline,
    pub ops_executed: usize,
}

/// A recorded multi-GPU schedule, generic over the real-execution context.
pub struct Schedule<Ctx> {
    machine: MachineSpec,
    ops: Vec<Op<Ctx>>,
    queues: BTreeMap<(usize, usize), Vec<OpId>>,
    /// Last writer / readers-since-write per buffer and per-lane vector
    /// clocks — what [`Schedule::record`] infers wait edges from.
    deps: DepTracker,
    /// Fixed per-op launch overhead in seconds (kernel-launch cost; larger
    /// for framework baselines).
    pub launch_overhead: f64,
}

impl<Ctx> Schedule<Ctx> {
    pub fn new(machine: MachineSpec) -> Self {
        Self {
            machine,
            ops: Vec::new(),
            queues: BTreeMap::new(),
            deps: DepTracker::default(),
            launch_overhead: 5.0e-6,
        }
    }

    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Launch a kernel on `(gpu, stream)` after `waits` complete (in
    /// addition to the implicit in-order dependency on the same stream).
    pub fn launch(
        &mut self,
        gpu: usize,
        stream: usize,
        work: Work,
        desc: OpDesc,
        waits: &[OpId],
        body: Option<Body<Ctx>>,
    ) -> OpId {
        self.launch_fx(gpu, stream, work, desc, waits, Effects::none(), body)
    }

    /// [`Schedule::launch`] with a declared buffer footprint.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_fx(
        &mut self,
        gpu: usize,
        stream: usize,
        work: Work,
        desc: OpDesc,
        waits: &[OpId],
        effects: Effects,
        body: Option<Body<Ctx>>,
    ) -> OpId {
        self.push(desc, work, vec![(gpu, stream)], Some(waits), effects, body)
    }

    /// Launch a kernel whose dependencies are *inferred*: the op waits on
    /// exactly the earlier ops its declared `effects` conflict with (RAW,
    /// WAR, WAW) and is not already ordered after — see [`crate::deps`].
    pub fn record(
        &mut self,
        gpu: usize,
        stream: usize,
        work: Work,
        desc: OpDesc,
        effects: Effects,
        body: Option<Body<Ctx>>,
    ) -> OpId {
        self.push(desc, work, vec![(gpu, stream)], None, effects, body)
    }

    /// Launch a collective occupying one lane on every participant. It
    /// starts only when it is at the head of *all* participant lanes (NCCL
    /// rendezvous semantics) and its `waits` are satisfied.
    pub fn collective(
        &mut self,
        lanes: &[(usize, usize)],
        bytes: f64,
        bw: f64,
        desc: OpDesc,
        waits: &[OpId],
        body: Option<Body<Ctx>>,
    ) -> OpId {
        self.collective_fx(lanes, bytes, bw, desc, waits, Effects::none(), body)
    }

    /// [`Schedule::collective`] with a declared buffer footprint.
    #[allow(clippy::too_many_arguments)]
    pub fn collective_fx(
        &mut self,
        lanes: &[(usize, usize)],
        bytes: f64,
        bw: f64,
        desc: OpDesc,
        waits: &[OpId],
        effects: Effects,
        body: Option<Body<Ctx>>,
    ) -> OpId {
        self.push(desc, comm_work(bytes, bw), lanes.to_vec(), Some(waits), effects, body)
    }

    /// Launch a collective whose dependencies are inferred from its
    /// declared `effects`, like [`Schedule::record`].
    pub fn record_collective(
        &mut self,
        lanes: &[(usize, usize)],
        bytes: f64,
        bw: f64,
        desc: OpDesc,
        effects: Effects,
        body: Option<Body<Ctx>>,
    ) -> OpId {
        self.push(desc, comm_work(bytes, bw), lanes.to_vec(), None, effects, body)
    }

    /// Append one op; `waits: None` asks for them to be inferred.
    fn push(
        &mut self,
        desc: OpDesc,
        work: Work,
        lanes: Vec<(usize, usize)>,
        waits: Option<&[OpId]>,
        effects: Effects,
        body: Option<Body<Ctx>>,
    ) -> OpId {
        assert!(!lanes.is_empty(), "collective needs participants");
        let id = self.ops.len();
        for (i, lane) in lanes.iter().enumerate() {
            assert!(lane.0 < self.machine.gpu_count(), "gpu index out of range");
            assert!(
                !lanes[..i].contains(lane),
                "collective {id} ({}) lists lane (gpu {}, stream {}) twice — \
                 one op cannot rendezvous with itself on one lane",
                desc.label,
                lane.0,
                lane.1
            );
            self.queues.entry(*lane).or_default().push(id);
        }
        let waits = self.deps.admit(&lanes, &effects, waits);
        assert!(
            !waits.contains(&id),
            "op {id} ({}) waits on itself — it could never start",
            desc.label
        );
        self.ops.push(Op { desc, work, lanes, waits, effects, body });
        id
    }

    /// Number of recorded ops.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Borrowed metadata of every recorded op, in issue order (op id ==
    /// slice index) — the static-analysis view of the schedule.
    pub fn op_infos(&self) -> Vec<OpInfo<'_>> {
        self.ops
            .iter()
            .enumerate()
            .map(|(id, op)| OpInfo {
                id,
                desc: op.desc,
                work: op.work,
                lanes: &op.lanes,
                waits: &op.waits,
                effects: &op.effects,
            })
            .collect()
    }

    /// All explicit dependency edges as `(op, wait)` pairs, in issue order.
    /// The mutation-testing enumeration hook: each pair can be removed with
    /// [`Schedule::remove_wait`] to produce one schedule mutant.
    pub fn wait_edges(&self) -> Vec<(OpId, OpId)> {
        self.ops
            .iter()
            .enumerate()
            .flat_map(|(id, op)| op.waits.iter().map(move |&w| (id, w)))
            .collect()
    }

    /// Delete one explicit dependency edge (testing hook: build a schedule
    /// mutant with a dropped WAR/RAW edge). Panics if the edge is absent.
    pub fn remove_wait(&mut self, op: OpId, wait: OpId) {
        let waits = &mut self.ops[op].waits;
        let before = waits.len();
        waits.retain(|&w| w != wait);
        assert!(waits.len() < before, "op {op} has no wait on {wait}");
    }

    /// Mutable access to an op's declared effects (testing hook: build a
    /// schedule mutant with a mislabeled buffer, e.g. `BC1`↔`BC2`).
    pub fn effects_mut(&mut self, op: OpId) -> &mut Effects {
        &mut self.ops[op].effects
    }

    /// Replace every body by `wrap(id, body)` (testing hook: observe each
    /// body on whichever thread the backend runs it, where
    /// [`Schedule::run_observed`] sees only the calling thread).
    pub fn wrap_bodies(&mut self, wrap: impl Fn(OpId, Body<Ctx>) -> Body<Ctx>) {
        for (id, op) in self.ops.iter_mut().enumerate() {
            op.body = op.body.take().map(|body| wrap(id, body));
        }
    }

    /// Deterministic textual dump of the recorded op stream, one line per
    /// op: id, work kind, category/label(/stage), lanes, explicit waits,
    /// and declared buffer effects. Work *magnitudes* are deliberately
    /// omitted so the dump pins the schedule's structure (op order, lane
    /// placement, dependency edges, buffer footprints — the §4.2/§4.3
    /// invariants) without becoming a golden file over the cost model's
    /// floating-point outputs.
    pub fn dump_ops(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (id, op) in self.ops.iter().enumerate() {
            let kind = match op.work {
                Work::Compute { .. } => "compute",
                Work::Comm { .. } => "comm",
                Work::Fixed { .. } => "fixed",
            };
            let mut line =
                format!("op {id:3} {kind:7} {:10} {}", op.desc.category.name(), op.desc.label);
            if let Some(s) = op.desc.stage {
                let _ = write!(line, "@{s}");
            }
            if let Some(e) = op.desc.epoch {
                let _ = write!(line, " e{e}");
            }
            let lanes: Vec<String> = op.lanes.iter().map(|(g, st)| format!("g{g}s{st}")).collect();
            let _ = write!(line, " lanes=[{}]", lanes.join(","));
            if !op.waits.is_empty() {
                let waits: Vec<String> = op.waits.iter().map(|w| w.to_string()).collect();
                let _ = write!(line, " waits=[{}]", waits.join(","));
            }
            line.push_str(&op.effects.render());
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Play the schedule forward. Bodies run against `ctx` in completion
    /// order. Panics on deadlock (a schedule bug: circular waits or
    /// mismatched collective enqueue order).
    pub fn run(self, ctx: &Ctx) -> RunReport {
        self.run_observed(ctx, |_| {}, |_| {})
    }

    /// [`Schedule::run`] with observation hooks: `before(id)`/`after(id)`
    /// bracket each body that executes (ops without bodies are skipped).
    /// The effect-soundness oracle uses this to attribute recorded buffer
    /// accesses ([`crate::shadow::EffectRecorder`]) and to fingerprint
    /// buffer state between bodies.
    pub fn run_observed(
        self,
        ctx: &Ctx,
        mut before: impl FnMut(OpId),
        mut after: impl FnMut(OpId),
    ) -> RunReport {
        let SimOutcome { report, completion_order } = self.simulate();
        for id in completion_order {
            if let Some(body) = &self.ops[id].body {
                before(id);
                body(ctx);
                after(id);
            }
        }
        report
    }

    /// Execute bodies in an explicit caller-chosen order, skipping the
    /// simulator entirely — the DPOR model checker's execution primitive.
    /// `order` must be a permutation of all op ids; each op's body (when
    /// present) runs exactly once. The caller is responsible for `order`
    /// being a linearization of the dependency DAG; this method does not
    /// check it, because the model checker's whole point is to execute
    /// orders the DES would never pick on its own.
    pub fn run_in_order(self, ctx: &Ctx, order: &[OpId]) {
        assert_eq!(order.len(), self.ops.len(), "order must cover every op");
        for &id in order {
            if let Some(body) = &self.ops[id].body {
                body(ctx);
            }
        }
    }

    /// Compile the recorded schedule into an immutable [`EpochPlan`] that
    /// can be run any number of times.
    pub fn compile(self) -> EpochPlan<Ctx> {
        EpochPlan::new(self)
    }

    /// Run the rate-based DES over op metadata only: no bodies execute.
    /// Returns the timing report and the completion order (ties broken by
    /// ascending op id — deterministic). Panics on deadlock with the
    /// historical message; the non-panicking form is [`Schedule::simulate_with`].
    pub fn simulate(&self) -> SimOutcome {
        match self.simulate_with(&Injector::none()) {
            Ok(out) => out,
            Err(stall) => panic!("schedule deadlock at t={}: {:?}", stall.at, stall.stuck),
        }
    }

    /// Run the DES under a fault injector: promote every ready lane head,
    /// jump to the earliest completion under the current rates, drain, and
    /// repeat until every op has completed.
    ///
    /// With the no-op injector this is [`Schedule::simulate`] bit for bit:
    /// no hook fires, and every slowdown factor is exactly `1.0`.
    ///
    /// Injection semantics:
    /// * [`Action::Pause`] at an op's promotion adds the pause to its
    ///   fixed-work dimension (the op is descheduled before it starts);
    /// * [`Action::Kill`] marks the op dead: it never starts, its lanes
    ///   block, and the run ends in a bounded, labeled `Err(Stall)` naming
    ///   the stuck lane heads;
    /// * slow links divide a collective's effective bandwidth by the
    ///   largest [`Injector::comm_slowdown`] factor among its lanes (which
    ///   also shrinks its memory-bandwidth draw on those GPUs).
    ///
    /// Deadlocks surface as `Err(Stall)` instead of a panic, because under
    /// injected worker death a stall is an expected, bounded outcome rather
    /// than a schedule bug.
    pub fn simulate_with(&self, inj: &Injector) -> Result<SimOutcome, Stall> {
        let mut core = RateCore::new(self, inj);
        loop {
            core.promote(inj);
            if core.completed.iter().all(|&c| c) {
                return Ok(core.finish());
            }
            // Nothing running and work left: a lane head waits on an op
            // that will never complete.
            let Some(dt) = core.earliest_completion() else {
                return Err(core.stall());
            };
            let before = core.now;
            let retired = core.drain(dt);
            // Zero-duration ops make a round that does not move the clock
            // legal, but only if something retired; otherwise we are
            // livelocked.
            if core.now <= before && !retired {
                return Err(core.stall());
            }
        }
    }
}

/// Where one op is dispatched on one participating GPU: the coordinates of
/// its fault-injection site ([`DispatchSite::ExecOp`]) and of the wall span
/// a worker records for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Site {
    pub gpu: usize,
    /// The op's lowest-numbered stream on `gpu`.
    pub stream: usize,
    /// Index of the op among the ops occupying a lane of `gpu`, in issue
    /// order — a function of the plan alone, so seeded fault plans replay
    /// whatever order the workers happen to dispatch in.
    pub seq: usize,
}

/// A schedule compiled once and run every epoch: the recorded ops with
/// their re-runnable bodies, the dataflow form of the happens-before graph
/// a dispatcher counts down (`mggcn-exec`), and — computed on first use and
/// kept — the DES outcome and a static-verification verdict. A full-batch
/// epoch's op list, inferred waits and simulated timeline depend only on
/// (config, partition, options), so a trainer compiles its epoch once.
pub struct EpochPlan<Ctx> {
    sched: Schedule<Ctx>,
    /// Ops that must wait for each op: those naming it in `waits`, its FIFO
    /// successor on every lane it occupies (a collective sits in all its
    /// participants' lanes, so the rendezvous needs no edge of its own) and,
    /// around a body without declared effects, its GPUs' neighbouring ops.
    succs: Vec<Vec<OpId>>,
    /// Distinct predecessors of each op under `succs`.
    pending: Vec<u32>,
    /// Participating GPUs of each op, ascending (one entry for a kernel).
    sites: Vec<Vec<Site>>,
    sim: OnceLock<SimOutcome>,
    verdict: OnceLock<Result<(), String>>,
}

impl<Ctx> EpochPlan<Ctx> {
    fn new(sched: Schedule<Ctx>) -> Self {
        let n = sched.ops.len();
        let mut next_seq = vec![0usize; sched.machine.gpu_count()];
        let sites: Vec<Vec<Site>> = sched
            .ops
            .iter()
            .map(|op| {
                let mut lanes = op.lanes.clone();
                lanes.sort_unstable();
                lanes.dedup_by_key(|l| l.0);
                lanes
                    .into_iter()
                    .map(|(gpu, stream)| {
                        next_seq[gpu] += 1;
                        Site { gpu, stream, seq: next_seq[gpu] - 1 }
                    })
                    .collect()
            })
            .collect();
        let mut preds: Vec<Vec<OpId>> = sched.ops.iter().map(|op| op.waits.clone()).collect();
        for queue in sched.queues.values() {
            for pair in queue.windows(2) {
                preds[pair[1]].push(pair[0]);
            }
        }
        // A body that declares no effects may touch anything, so nothing
        // licenses moving it against the other streams of its GPUs: it is a
        // device-wide fence there (as CUDA's legacy default stream is), at
        // its place in the simulated completion order — the order
        // [`EpochPlan::run`] uses, so both backends agree on it. A schedule
        // that stalls gets no fences; verification rejects it before a run.
        let sim = OnceLock::new();
        let opaque = |op: &Op<Ctx>| op.body.is_some() && op.effects.is_empty();
        let timed = if sched.ops.iter().any(opaque) {
            sched.simulate_with(&Injector::none()).ok()
        } else {
            None
        };
        if let Some(out) = timed {
            let mut fence = vec![None; next_seq.len()];
            let mut since = vec![Vec::new(); next_seq.len()];
            for &id in &out.completion_order {
                for site in &sites[id] {
                    preds[id].extend(fence[site.gpu]);
                    if opaque(&sched.ops[id]) {
                        preds[id].append(&mut since[site.gpu]);
                        fence[site.gpu] = Some(id);
                    } else {
                        since[site.gpu].push(id);
                    }
                }
            }
            let _ = sim.set(out);
        }
        let mut succs = vec![Vec::new(); n];
        let mut pending = vec![0u32; n];
        for (id, p) in preds.iter_mut().enumerate() {
            p.sort_unstable();
            p.dedup();
            pending[id] = p.len() as u32;
            for &w in p.iter() {
                succs[w].push(id);
            }
        }
        Self { sched, succs, pending, sites, sim, verdict: OnceLock::new() }
    }

    /// The compiled schedule: op metadata for analysis and reporting.
    pub fn schedule(&self) -> &Schedule<Ctx> {
        &self.sched
    }

    pub fn op_count(&self) -> usize {
        self.sched.ops.len()
    }

    pub fn desc(&self, id: OpId) -> OpDesc {
        self.sched.ops[id].desc
    }

    pub fn body(&self, id: OpId) -> Option<&Body<Ctx>> {
        self.sched.ops[id].body.as_ref()
    }

    /// Ops that count `id` among their pending dependencies.
    pub fn successors(&self, id: OpId) -> &[OpId] {
        &self.succs[id]
    }

    /// Initial pending-dependency count of every op (zero: ready at once).
    pub fn pending(&self) -> &[u32] {
        &self.pending
    }

    /// Participating GPUs of `id`, ascending; never empty.
    pub fn sites(&self, id: OpId) -> &[Site] {
        &self.sites[id]
    }

    /// The DES outcome — report, timeline, completion order — simulated on
    /// first use. Panics on deadlock like [`Schedule::simulate`].
    pub fn sim(&self) -> &SimOutcome {
        self.sim.get_or_init(|| self.sched.simulate())
    }

    /// The plan's one verification slot: the verdict of the first `check`
    /// ever passed, kept — later calls return it without running theirs.
    /// Its caller is `mggcn-exec`, which passes `mggcn_analyze::preflight`
    /// before a plan's first threaded run.
    pub fn verdict(
        &self,
        check: impl FnOnce(&Schedule<Ctx>) -> Result<(), String>,
    ) -> &Result<(), String> {
        self.verdict.get_or_init(|| check(&self.sched))
    }

    /// Run every body once against `ctx`, serially in the simulated
    /// completion order — the simulated backend's epoch.
    pub fn run(&self, ctx: &Ctx) -> &RunReport {
        let sim = self.sim();
        for &id in &sim.completion_order {
            if let Some(body) = self.body(id) {
                body(ctx);
            }
        }
        &sim.report
    }
}

/// State of one [`Schedule::simulate_with`] run. One `RateCore` models the
/// whole machine (not one per GPU), so the completion order — running-vec
/// promotion order with ties by promotion — is a function of the schedule
/// alone.
struct RateCore<'a, Ctx> {
    machine: &'a MachineSpec,
    ops: &'a [Op<Ctx>],
    queues: &'a BTreeMap<(usize, usize), Vec<OpId>>,
    heads: BTreeMap<(usize, usize), usize>,
    completed: Vec<bool>,
    /// Ops the injector killed at promotion: never start, block their lanes.
    killed: Vec<bool>,
    running: Vec<OpId>,
    remaining: Vec<Rem>,
    started_at: Vec<f64>,
    now: f64,
    timeline: Timeline,
    executed: usize,
    completion_order: Vec<OpId>,
    /// Per-GPU comm slowdown factors (exactly 1.0 under the no-op injector,
    /// so `bw / factor` is a bit-exact identity).
    slow: Vec<f64>,
    /// Shared-resource draws of the running set, refreshed by
    /// `earliest_completion` and reused by the `drain` that follows it (the
    /// running set cannot change in between).
    comm_draw: Vec<f64>,
    compute_count: Vec<usize>,
}

impl<'a, Ctx> RateCore<'a, Ctx> {
    fn new(sched: &'a Schedule<Ctx>, inj: &Injector) -> Self {
        let n_ops = sched.ops.len();
        let gpu_count = sched.machine.gpu_count();
        RateCore {
            machine: &sched.machine,
            ops: &sched.ops,
            queues: &sched.queues,
            heads: sched.queues.keys().map(|&k| (k, 0usize)).collect(),
            completed: vec![false; n_ops],
            killed: vec![false; n_ops],
            running: Vec::new(),
            remaining: sched
                .ops
                .iter()
                .map(|op| {
                    Rem::from_work(op.work, sched.launch_overhead, sched.machine.comm_latency)
                })
                .collect(),
            started_at: vec![0.0f64; n_ops],
            now: 0.0,
            timeline: Timeline::default(),
            executed: 0,
            completion_order: Vec::with_capacity(n_ops),
            slow: (0..gpu_count).map(|g| inj.comm_slowdown(g)).collect(),
            comm_draw: vec![0.0; gpu_count],
            compute_count: vec![0; gpu_count],
        }
    }

    /// Effective link bandwidth of a comm op under injected slow links:
    /// the op moves at the pace of its slowest participant.
    fn effective_bw(&self, id: OpId) -> f64 {
        match self.ops[id].work {
            Work::Comm { bw, .. } => {
                let factor =
                    self.ops[id].lanes.iter().map(|&(g, _)| self.slow[g]).fold(1.0, f64::max);
                bw / factor
            }
            _ => unreachable!("effective_bw on non-comm op"),
        }
    }

    /// Recompute the shared-resource draws for the current running set.
    /// Communication drains link bandwidth from each participant GPU's
    /// memory system; concurrent compute kernels on one GPU share the rest.
    fn refresh_rates(&mut self) {
        self.comm_draw.iter_mut().for_each(|d| *d = 0.0);
        self.compute_count.iter_mut().for_each(|c| *c = 0);
        for &id in &self.running {
            match self.ops[id].work {
                Work::Comm { .. } => {
                    let bw = self.effective_bw(id);
                    for &(g, _) in &self.ops[id].lanes {
                        self.comm_draw[g] += bw;
                    }
                }
                Work::Compute { .. } => {
                    self.compute_count[self.ops[id].lanes[0].0] += 1;
                }
                Work::Fixed { .. } => {}
            }
        }
    }

    fn rate_of(&self, id: OpId) -> Rates {
        match self.ops[id].work {
            Work::Comm { .. } => Rates { byte: self.effective_bw(id), flop: f64::INFINITY },
            Work::Compute { .. } => {
                let g = self.ops[id].lanes[0].0;
                let spec = &self.machine.gpus[g];
                let share = self.compute_count[g].max(1) as f64;
                // Floor at 10% so a saturating comm storm cannot starve
                // compute entirely (hardware arbiters don't).
                let bw = ((spec.mem_bw - self.comm_draw[g]).max(0.1 * spec.mem_bw)) / share;
                Rates { byte: bw, flop: spec.flops / share }
            }
            Work::Fixed { .. } => Rates { byte: f64::INFINITY, flop: f64::INFINITY },
        }
    }

    fn finish(self) -> SimOutcome {
        SimOutcome {
            report: RunReport {
                makespan: self.now,
                timeline: self.timeline,
                ops_executed: self.executed,
            },
            completion_order: self.completion_order,
        }
    }

    /// Promote every ready head op to the running set. A collective is
    /// ready when at the head of each of its lanes; repeat until fixpoint
    /// since one promotion can expose another lane's head.
    fn promote(&mut self, inj: &Injector) {
        let mut promoted = true;
        while promoted {
            promoted = false;
            let candidates: Vec<OpId> = self
                .heads
                .iter()
                .filter_map(|(&lane, &h)| self.queues[&lane].get(h).copied())
                .collect();
            for id in candidates {
                if self.completed[id] || self.killed[id] || self.running.contains(&id) {
                    continue;
                }
                let op = &self.ops[id];
                let at_all_heads = op
                    .lanes
                    .iter()
                    .all(|lane| self.queues[lane].get(self.heads[lane]) == Some(&id));
                let deps_done = op.waits.iter().all(|&w| self.completed[w]);
                if at_all_heads && deps_done {
                    if !inj.is_noop() {
                        let site = DispatchSite::SimStart {
                            gpu: op.lanes[0].0,
                            stream: op.lanes[0].1,
                            seq: id,
                            collective: op.lanes.len() > 1,
                        };
                        match inj.at(site) {
                            Action::Kill => {
                                // The op dies at launch: it never runs and
                                // its lanes block, surfacing as a stall.
                                self.killed[id] = true;
                                continue;
                            }
                            Action::Pause { seconds } => {
                                // Preemption before start: extend the op's
                                // fixed-work dimension by the pause.
                                self.remaining[id].seconds += seconds;
                            }
                            Action::None => {}
                        }
                    }
                    self.running.push(id);
                    self.started_at[id] = self.now;
                    promoted = true;
                }
            }
        }
    }

    /// Seconds until the first running op completes at the current rates;
    /// `None` when nothing is running.
    fn earliest_completion(&mut self) -> Option<f64> {
        if self.running.is_empty() {
            return None;
        }
        self.refresh_rates();
        let mut dt = f64::INFINITY;
        for &id in &self.running {
            dt = dt.min(self.remaining[id].eta(self.rate_of(id)));
        }
        debug_assert!(dt.is_finite(), "running op with infinite ETA");
        Some(dt)
    }

    /// Drain `dt` seconds of work from every running op at the rates
    /// `earliest_completion` just refreshed, move the clock, and retire
    /// whatever finished. Returns `true` if any op retired.
    fn drain(&mut self, dt: f64) -> bool {
        let mut finished: Vec<OpId> = Vec::new();
        for &id in &self.running {
            let rates = self.rate_of(id);
            self.remaining[id].advance(dt, rates);
            if self.remaining[id].done() {
                finished.push(id);
            }
        }
        self.now += dt;
        let retired = !finished.is_empty();
        for id in finished {
            self.running.retain(|&r| r != id);
            self.completed[id] = true;
            self.executed += 1;
            self.completion_order.push(id);
            let op = &self.ops[id];
            let bytes = match op.work {
                Work::Compute { bytes, .. } | Work::Comm { bytes, .. } => bytes,
                Work::Fixed { .. } => 0.0,
            };
            for &(gpu, stream) in &op.lanes {
                self.timeline.spans.push(Span {
                    gpu,
                    stream,
                    category: op.desc.category,
                    stage: op.desc.stage,
                    label: op.desc.label,
                    start: self.started_at[id],
                    end: self.now,
                    op: id,
                    bytes,
                    reads: op.effects.reads.len() as u32,
                    writes: op.effects.writes.len() as u32,
                    epoch: op.desc.epoch,
                });
            }
            for lane in &op.lanes {
                // Advance each lane head past this op.
                let h = self.heads.get_mut(lane).expect("lane exists");
                while self.queues[lane].get(*h).is_some_and(|&q| self.completed[q]) {
                    *h += 1;
                }
            }
        }
        retired
    }

    /// The error of a run that cannot progress: the lane heads, none of
    /// which will ever start.
    fn stall(&self) -> Stall {
        let stuck = self
            .heads
            .iter()
            .filter_map(|(&lane, &h)| {
                self.queues[&lane].get(h).map(|&id| {
                    format!("lane {:?} head op {} ({})", lane, id, self.ops[id].desc.label)
                })
            })
            .collect();
        Stall { at: self.now, stuck }
    }
}

/// A collective's work: a transfer at `bw`, or — on an infinitely fast
/// link (single-lane "collectives") — a zero-byte fixed-latency hop.
fn comm_work(bytes: f64, bw: f64) -> Work {
    if bw.is_infinite() {
        Work::Fixed { seconds: 0.0 }
    } else {
        Work::Comm { bytes, bw }
    }
}

#[derive(Clone, Copy)]
struct Rates {
    byte: f64,
    flop: f64,
}

/// Remaining work of a running op.
#[derive(Clone, Copy, Debug)]
struct Rem {
    seconds: f64,
    flops: f64,
    bytes: f64,
}

impl Rem {
    fn from_work(w: Work, overhead: f64, comm_latency: f64) -> Self {
        match w {
            Work::Compute { flops, bytes } => Self { seconds: overhead, flops, bytes },
            Work::Comm { bytes, .. } => {
                Self { seconds: overhead + comm_latency, flops: 0.0, bytes }
            }
            Work::Fixed { seconds } => Self { seconds: seconds + overhead, flops: 0.0, bytes: 0.0 },
        }
    }

    /// Time to finish at the given rates (dimensions drain concurrently).
    fn eta(&self, r: Rates) -> f64 {
        let mut t = self.seconds;
        if self.flops > 0.0 {
            t = t.max(self.flops / r.flop);
        }
        if self.bytes > 0.0 {
            t = t.max(self.bytes / r.byte);
        }
        t
    }

    fn advance(&mut self, dt: f64, r: Rates) {
        self.seconds = (self.seconds - dt).max(0.0);
        self.flops = (self.flops - r.flop * dt).max(0.0);
        self.bytes = (self.bytes - r.byte * dt).max(0.0);
    }

    fn done(&self) -> bool {
        const EPS: f64 = 1e-12;
        self.seconds <= EPS && self.flops <= EPS && self.bytes <= EPS * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{GpuSpec, MachineSpec};

    fn machine(n: usize) -> MachineSpec {
        let mut m = MachineSpec::uniform("test", GpuSpec::v100(), n, 6, 25.0e9);
        m.comm_latency = 0.0;
        m
    }

    fn desc(cat: Category) -> OpDesc {
        OpDesc::new(cat, "test")
    }

    #[test]
    fn single_fixed_op_duration() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.launch_overhead = 0.0;
        s.launch(0, 0, Work::Fixed { seconds: 1.5 }, desc(Category::Other), &[], None);
        let r = s.run(&());
        assert!((r.makespan - 1.5).abs() < 1e-9);
        assert_eq!(r.ops_executed, 1);
    }

    #[test]
    fn stream_is_fifo() {
        let mut s: Schedule<std::sync::Mutex<Vec<u32>>> = Schedule::new(machine(1));
        s.launch_overhead = 0.0;
        for i in 0..3u32 {
            s.launch(
                0,
                0,
                Work::Fixed { seconds: 0.1 },
                desc(Category::Other),
                &[],
                Some(Box::new(move |v: &std::sync::Mutex<Vec<u32>>| v.lock().unwrap().push(i))),
            );
        }
        let order = std::sync::Mutex::new(Vec::new());
        let r = s.run(&order);
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2]);
        assert!((r.makespan - 0.3).abs() < 1e-9);
    }

    #[test]
    fn independent_streams_run_in_parallel() {
        let mut s: Schedule<()> = Schedule::new(machine(2));
        s.launch_overhead = 0.0;
        s.launch(0, 0, Work::Fixed { seconds: 1.0 }, desc(Category::Other), &[], None);
        s.launch(1, 0, Work::Fixed { seconds: 1.0 }, desc(Category::Other), &[], None);
        let r = s.run(&());
        assert!((r.makespan - 1.0).abs() < 1e-9, "makespan {}", r.makespan);
    }

    #[test]
    fn cross_stream_wait_serializes() {
        type Log = std::sync::Mutex<Vec<&'static str>>;
        let mut s: Schedule<Log> = Schedule::new(machine(1));
        s.launch_overhead = 0.0;
        let a = s.launch(
            0,
            0,
            Work::Fixed { seconds: 1.0 },
            desc(Category::Other),
            &[],
            Some(Box::new(|v: &Log| v.lock().unwrap().push("a"))),
        );
        s.launch(
            0,
            1,
            Work::Fixed { seconds: 0.5 },
            desc(Category::Other),
            &[a],
            Some(Box::new(|v: &Log| v.lock().unwrap().push("b"))),
        );
        let order: Log = std::sync::Mutex::new(Vec::new());
        let r = s.run(&order);
        assert_eq!(*order.lock().unwrap(), vec!["a", "b"]);
        assert!((r.makespan - 1.5).abs() < 1e-9);
    }

    #[test]
    fn compute_roofline_uses_max_of_dimensions() {
        // bytes-bound: 900e9 bytes at 900 GB/s = 1s even though flops tiny.
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.launch_overhead = 0.0;
        s.launch(
            0,
            0,
            Work::Compute { flops: 1.0, bytes: 900.0e9 },
            desc(Category::SpMM),
            &[],
            None,
        );
        let r = s.run(&());
        assert!((r.makespan - 1.0).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn overlapping_comm_slows_membound_compute() {
        // Without comm: 900e9 bytes -> 1s. With a concurrent 150 GB/s comm
        // stream the SpMM sees 750 GB/s -> 1.2s. This is the paper's §6.3
        // contention effect.
        let mk = || {
            let mut s: Schedule<()> = Schedule::new(machine(2));
            s.launch_overhead = 0.0;
            s
        };
        let mut alone = mk();
        alone.launch(
            0,
            0,
            Work::Compute { flops: 0.0, bytes: 900.0e9 },
            desc(Category::SpMM),
            &[],
            None,
        );
        let t_alone = alone.run(&()).makespan;

        let mut overlapped = mk();
        overlapped.launch(
            0,
            0,
            Work::Compute { flops: 0.0, bytes: 900.0e9 },
            desc(Category::SpMM),
            &[],
            None,
        );
        // A long-running broadcast on the comm stream of the same GPU.
        overlapped.collective(&[(0, 1), (1, 1)], 600.0e9, 150.0e9, desc(Category::Comm), &[], None);
        let t_over = overlapped.run(&()).makespan;
        assert!(t_over > t_alone * 1.15, "alone {t_alone}, overlapped {t_over}");
    }

    #[test]
    fn collective_rendezvous_waits_for_all_lanes() {
        // GPU 1 is busy for 1s before it reaches the collective; GPU 0
        // reaches it immediately. The collective (0.1s) must end after 1.1s.
        let mut s: Schedule<()> = Schedule::new(machine(2));
        s.launch_overhead = 0.0;
        s.launch(1, 1, Work::Fixed { seconds: 1.0 }, desc(Category::Other), &[], None);
        s.collective(&[(0, 1), (1, 1)], 2.5e9, 25.0e9, desc(Category::Comm), &[], None);
        let r = s.run(&());
        assert!((r.makespan - 1.1).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn timeline_records_all_lanes_of_collective() {
        let mut s: Schedule<()> = Schedule::new(machine(3));
        s.launch_overhead = 0.0;
        s.collective(&[(0, 1), (1, 1), (2, 1)], 1.0e9, 25.0e9, desc(Category::Comm), &[], None);
        let r = s.run(&());
        assert_eq!(r.timeline.spans.len(), 3);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn fifo_dependency_cycle_deadlocks() {
        // Op X is at the head of stream (0,0) but waits on op Y, which sits
        // *behind* X in the same stream — the FIFO can never advance. This
        // is the stream-ordering bug class the detector exists for.
        let mut s: Schedule<()> = Schedule::new(machine(1));
        let placeholder =
            s.launch(0, 1, Work::Fixed { seconds: 0.1 }, desc(Category::Other), &[], None);
        let _x = s.launch(
            0,
            0,
            Work::Fixed { seconds: 0.1 },
            desc(Category::Other),
            &[placeholder + 2], // forward reference to y, launched next
            None,
        );
        let _y = s.launch(0, 0, Work::Fixed { seconds: 0.1 }, desc(Category::Other), &[], None);
        let _ = s.run(&());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mismatched_collective_order_deadlocks() {
        // GPU0's stream enqueues collective A then B; GPU1's stream enqueues
        // B's slot first via a blocker that waits on B. Classic NCCL-style
        // rendezvous deadlock: A needs GPU1's head, which B's blocker holds.
        let mut s: Schedule<()> = Schedule::new(machine(2));
        // B is op index 1 (launched second); blocker waits on it but is
        // queued first on GPU1's lane.
        s.launch(1, 1, Work::Fixed { seconds: 0.1 }, desc(Category::Other), &[1], None);
        s.collective(&[(0, 1), (1, 1)], 1.0e9, 25.0e9, desc(Category::Comm), &[], None);
        let _ = s.run(&());
    }

    #[test]
    fn concurrent_compute_ops_share_the_gpu() {
        // Two FLOP-bound kernels on different streams of one GPU must each
        // run at half rate: together they take as long as running them
        // back to back.
        let flops = GpuSpec::v100().flops; // 1 second solo
        let mk = |streams: [usize; 2]| {
            let mut s: Schedule<()> = Schedule::new(machine(1));
            s.launch_overhead = 0.0;
            for st in streams {
                s.launch(
                    0,
                    st,
                    Work::Compute { flops, bytes: 0.0 },
                    desc(Category::GeMM),
                    &[],
                    None,
                );
            }
            s.run(&()).makespan
        };
        let serial = mk([0, 0]);
        let shared = mk([0, 1]);
        assert!((serial - 2.0).abs() < 1e-6, "serial {serial}");
        assert!((shared - 2.0).abs() < 1e-6, "shared {shared}");
    }

    #[test]
    fn compute_on_different_gpus_does_not_share() {
        let flops = GpuSpec::v100().flops;
        let mut s: Schedule<()> = Schedule::new(machine(2));
        s.launch_overhead = 0.0;
        for g in 0..2 {
            s.launch(g, 0, Work::Compute { flops, bytes: 0.0 }, desc(Category::GeMM), &[], None);
        }
        let t = s.run(&()).makespan;
        assert!((t - 1.0).abs() < 1e-6, "makespan {t}");
    }

    #[test]
    fn comm_rate_is_not_affected_by_compute() {
        // A broadcast's link bandwidth is independent of GPU compute load.
        let mut s: Schedule<()> = Schedule::new(machine(2));
        s.launch_overhead = 0.0;
        s.launch(
            0,
            0,
            Work::Compute { flops: GpuSpec::v100().flops, bytes: 0.0 },
            desc(Category::GeMM),
            &[],
            None,
        );
        s.collective(&[(0, 1), (1, 1)], 25.0e9, 25.0e9, desc(Category::Comm), &[], None);
        let r = s.run(&());
        // Comm finishes at 1.0 s despite the busy GPU; makespan is the
        // 1-second compute.
        let comm_span =
            r.timeline.spans.iter().find(|sp| sp.category == Category::Comm).expect("comm span");
        assert!((comm_span.duration() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "lists lane (gpu 1, stream 1) twice")]
    fn collective_rejects_duplicate_lanes() {
        // A duplicate lane can never rendezvous: the op would have to be at
        // the head of one FIFO twice. Must be rejected at record time, not
        // discovered as a deadlock at run time.
        let mut s: Schedule<()> = Schedule::new(machine(2));
        s.collective(&[(0, 1), (1, 1), (1, 1)], 1.0e9, 25.0e9, desc(Category::Comm), &[], None);
    }

    #[test]
    #[should_panic(expected = "waits on itself")]
    fn collective_rejects_self_wait() {
        let mut s: Schedule<()> = Schedule::new(machine(2));
        // The collective will get id 0; waiting on 0 is a self-wait.
        s.collective(&[(0, 1), (1, 1)], 1.0e9, 25.0e9, desc(Category::Comm), &[0], None);
    }

    #[test]
    #[should_panic(expected = "waits on itself")]
    fn launch_rejects_self_wait() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.launch(0, 0, Work::Fixed { seconds: 0.1 }, desc(Category::Other), &[0], None);
    }

    #[test]
    fn effects_are_recorded_dumped_and_mutable() {
        use crate::effects::{BufId, Effects};
        let mut s: Schedule<()> = Schedule::new(machine(1));
        let a = s.launch_fx(
            0,
            0,
            Work::Fixed { seconds: 0.1 },
            desc(Category::GeMM),
            &[],
            Effects::none().reads([BufId::new(0, "HW")]).writes([BufId::indexed(0, "AHW", 0)]),
            None,
        );
        let b = s.launch(0, 1, Work::Fixed { seconds: 0.1 }, desc(Category::Other), &[a], None);

        let infos = s.op_infos();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[a].effects.reads, vec![BufId::new(0, "HW")]);
        assert!(infos[b].effects.is_empty());
        assert_eq!(s.wait_edges(), vec![(b, a)]);

        let dump = s.dump_ops();
        assert!(dump.contains("R[HW@g0] W[AHW.0@g0]"), "dump:\n{dump}");

        s.effects_mut(a).writes = vec![BufId::new(0, "BC1")];
        assert!(s.dump_ops().contains("W[BC1@g0]"));
        s.remove_wait(b, a);
        assert!(s.wait_edges().is_empty());
    }

    #[test]
    #[should_panic(expected = "has no wait on")]
    fn remove_wait_rejects_absent_edge() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.launch(0, 0, Work::Fixed { seconds: 0.1 }, desc(Category::Other), &[], None);
        s.remove_wait(0, 5);
    }

    #[test]
    fn span_records_effect_counts() {
        use crate::effects::{BufId, Effects};
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.launch_overhead = 0.0;
        s.launch_fx(
            0,
            0,
            Work::Fixed { seconds: 0.1 },
            desc(Category::SpMM),
            &[],
            Effects::none().reads([BufId::new(0, "BC1")]).rw(BufId::new(0, "HW")),
            None,
        );
        let r = s.run(&());
        assert_eq!(r.timeline.spans[0].reads, 2);
        assert_eq!(r.timeline.spans[0].writes, 1);
    }

    #[test]
    fn launch_overhead_is_charged() {
        let mut s: Schedule<()> = Schedule::new(machine(1));
        s.launch_overhead = 0.25;
        s.launch(0, 0, Work::Fixed { seconds: 1.0 }, desc(Category::Other), &[], None);
        let r = s.run(&());
        assert!((r.makespan - 1.25).abs() < 1e-9);
    }

    #[test]
    fn all_zero_duration_ops_terminate_at_time_zero() {
        // Rounds that do not move the clock are legal as long as each one
        // retires something; the livelock guard must not mistake them for
        // a stall.
        let mut s: Schedule<()> = Schedule::new(machine(2));
        s.launch_overhead = 0.0;
        let zero = Work::Fixed { seconds: 0.0 };
        let a = s.launch(0, 0, zero, desc(Category::Other), &[], None);
        let b = s.launch(1, 0, zero, desc(Category::Other), &[a], None);
        // An infinitely fast link makes the collective a zero-second hop.
        let c =
            s.collective(&[(0, 1), (1, 1)], 0.0, f64::INFINITY, desc(Category::Comm), &[b], None);
        s.launch(0, 0, zero, desc(Category::Other), &[c], None);
        let out = s.simulate();
        assert_eq!(out.report.makespan, 0.0);
        assert_eq!(out.report.ops_executed, 4);
        assert_eq!(out.completion_order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_killed_op_stalls_at_the_kill_instant_naming_the_blocked_lane_heads() {
        use mggcn_sched::{FaultPlan, Kill};
        let mut s: Schedule<()> = Schedule::new(machine(2));
        s.launch_overhead = 0.0;
        s.launch(0, 0, Work::Fixed { seconds: 1.0 }, desc(Category::Other), &[], None);
        let victim = s.launch(0, 0, Work::Fixed { seconds: 1.0 }, desc(Category::Other), &[], None);
        s.launch(1, 0, Work::Fixed { seconds: 0.5 }, desc(Category::Other), &[victim], None);
        // The victim reaches its lane head when op 0 completes, at t = 1.
        let plan = FaultPlan { kills: vec![Kill { gpu: 0, seq: victim }], ..FaultPlan::none() };
        let stall = s
            .simulate_with(&Injector::new(plan))
            .err()
            .expect("nothing behind a killed op can ever start");
        assert_eq!(stall.at, 1.0);
        assert_eq!(
            stall.stuck,
            vec!["lane (0, 0) head op 1 (test)", "lane (1, 0) head op 2 (test)"]
        );
    }
}
