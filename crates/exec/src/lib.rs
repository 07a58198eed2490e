//! mggcn-exec — the real multi-threaded execution runtime.
//!
//! `gpusim` *times* an op schedule; this crate *runs* one. A schedule is
//! compiled once into an [`EpochPlan`] and dispatched by dataflow, one
//! worker thread per GPU, mapping the simulator's concepts onto threads:
//!
//! * **stream FIFOs + CUDA events** → every op has a pending counter, set
//!   each run from the plan: its `waits`, inferred from declared effects
//!   (the BC1/BC2 double-buffer WAR fences arrive as ordinary edges), plus
//!   its FIFO predecessor on each lane. A finished op decrements its
//!   successors; one that reaches zero goes onto its GPU's ready queue, and
//!   that worker is woken only if it is parked. A worker parks only when
//!   its queue is empty.
//! * **NCCL rendezvous** → a collective sits in every participant's lane,
//!   so its counter covers all of them; the worker whose completion brings
//!   it to zero — the last arriver — runs the body (the lowest participant,
//!   should an outsider's op be the last edge). Peers keep working: bodies
//!   reach other GPUs' memory only through the per-GPU locks of `Ctx`.
//! * **device failure** → a panicking body or an injected death records
//!   the error, raises the failed flag and wakes every parked worker, so
//!   the run returns `Err` in bounded time — no polling.
//!
//! Deadlock freedom: the counters count down the plan's happens-before
//! graph, which [`mggcn_analyze::preflight`] proved acyclic before the
//! first run. While ops remain, a minimal unfinished one has every
//! predecessor finished, so it sits in some ready queue, whose worker is
//! running or has been woken; a parked worker therefore always has an
//! unfinished predecessor owned by a runnable one. Any order this admits
//! is a linearization of that graph, and all of them compute the same bits
//! (the declared effects are audited sound, DESIGN §16).
//!
//! Workers outlive the run: [`with_workers`] parks them between runs of one
//! plan, so a trainer pays thread spawns once per `train(k)`, not per epoch.
//! Each body is wall-clock timed, producing a measured per-op/per-category
//! profile next to the simulated timeline ([`ExecReport`]).

#![forbid(unsafe_code)]

use mggcn_gpusim::engine::{EpochPlan, OpDesc};
use mggcn_gpusim::{Category, OpId, RunReport, Schedule};
use mggcn_sched::{Action, DispatchSite, Injector};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub use rayon::{current_num_threads, pool_size, set_active_threads};

/// How a trainer/server executes its op schedules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Discrete-event simulation only: bodies run sequentially on the
    /// calling thread in simulated-completion order (the seed behavior).
    #[default]
    Simulated,
    /// Real execution: worker-per-GPU threads + the parallel kernel pool.
    /// Numerics are bit-identical to [`Backend::Simulated`].
    Threaded,
}

impl Backend {
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "simulated" | "sim" => Some(Backend::Simulated),
            "threaded" | "exec" => Some(Backend::Threaded),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Backend::Simulated => "simulated",
            Backend::Threaded => "threaded",
        }
    }
}

/// Wall-clock measurement of one executed op body, or of time a worker
/// spent parked with an empty ready queue before it
/// (`category == Category::Barrier`), so per-category sums account for the
/// whole wall time instead of silently attributing stalls to op categories.
#[derive(Clone, Copy, Debug)]
pub struct WallSpan {
    pub gpu: usize,
    pub stream: usize,
    pub category: Category,
    pub label: &'static str,
    /// Offset from the run's start, seconds.
    pub start: f64,
    /// Measured duration, seconds.
    pub seconds: f64,
}

impl WallSpan {
    /// Offset of the span's end from the run's start, seconds.
    pub fn end(&self) -> f64 {
        self.start + self.seconds
    }
}

/// Outcome of really executing a schedule: the simulated timing report
/// plus measured wall-clock, side by side.
#[derive(Debug)]
pub struct ExecReport {
    /// The rate-based DES prediction for the same schedule.
    pub sim: RunReport,
    /// Measured end-to-end wall-clock seconds (run start → last op done).
    pub wall_seconds: f64,
    /// Measured per-op spans (plus `Barrier` wait spans), in each worker's
    /// execution order.
    pub spans: Vec<WallSpan>,
    /// Ops whose bodies actually ran (barrier wait spans excluded).
    pub bodies_run: usize,
}

impl ExecReport {
    /// Total measured seconds per category (collective bodies count once,
    /// on the worker that ran them). Worker stall time appears under
    /// [`Category::Barrier`], so summing a GPU's entries approximates its
    /// whole wall time instead of just its busy time.
    pub fn category_wall_seconds(&self) -> BTreeMap<Category, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.category).or_insert(0.0) += s.seconds;
        }
        out
    }
}

/// Execution failed: some worker's op body panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecError {
    pub gpu: usize,
    pub label: &'static str,
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker for gpu {} panicked in op `{}`: {}", self.gpu, self.label, self.message)
    }
}

impl std::error::Error for ExecError {}

/// Fault injection for robustness tests: panic inside the N-th body
/// executed process-wide (counting from 0). `-1` disables.
#[doc(hidden)]
pub fn inject_panic_at_body(n: i64) {
    BODY_COUNTER.store(0, Ordering::SeqCst);
    PANIC_AT.store(n, Ordering::SeqCst);
}

static PANIC_AT: AtomicI64 = AtomicI64::new(-1);
static BODY_COUNTER: AtomicI64 = AtomicI64::new(0);

fn fault_check(label: &str) {
    let target = PANIC_AT.load(Ordering::SeqCst);
    if target >= 0 {
        let k = BODY_COUNTER.fetch_add(1, Ordering::SeqCst);
        // Disarm only when this body is the target, so a later body
        // cannot also fire (one-shot), and earlier ones leave it armed.
        if k == target
            && PANIC_AT.compare_exchange(target, -1, Ordering::SeqCst, Ordering::SeqCst).is_ok()
        {
            panic!("injected fault in `{label}`");
        }
    }
}

/// Parks shorter than this leave no `Barrier` span — a wake-up that
/// finds work at once costs a context switch, and recording it would
/// double the span count with noise.
const WAIT_SPAN_MIN: f64 = 10e-6;

/// One GPU worker's mailbox.
#[derive(Default)]
struct Lane {
    state: Mutex<LaneState>,
    cv: Condvar,
}

#[derive(Default)]
struct LaneState {
    ready: VecDeque<OpId>,
    /// The worker is in `cv.wait`: a push must notify it.
    parked: bool,
    /// Spans this worker recorded during the current run.
    spans: Vec<WallSpan>,
}

fn lock(lane: &Lane) -> MutexGuard<'_, LaneState> {
    // Every update leaves the queue valid, and bodies never run under it.
    lane.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// State shared by the workers of one [`with_workers`] session.
struct Shared<'a, Ctx> {
    plan: &'a EpochPlan<Ctx>,
    ctx: &'a Ctx,
    /// Chaos hooks, consulted at every dispatch (no-op by default). Sites
    /// are a pure function of the plan ([`mggcn_gpusim::Site`]), so fault
    /// plans replay identically whatever the thread interleaving.
    inj: &'a Injector,
    /// One per GPU; the session's caller works `caller`'s lane.
    lanes: Vec<Lane>,
    caller: usize,
    /// Unfinished predecessors per op. Reset by the caller between runs
    /// (published to the workers by the lane mutexes the roots go through);
    /// the `AcqRel` decrements hand each finished body's writes to whoever
    /// brings the counter to zero.
    pending: Vec<AtomicU32>,
    /// Unfinished ops of the current run; zero ends it.
    remaining: AtomicUsize,
    failed: AtomicBool,
    /// The session is over: spawned workers leave.
    stop: AtomicBool,
    error: Mutex<Option<ExecError>>,
    origin: Instant,
    /// Start of the current run, seconds since `origin` (f64 bits): wall
    /// spans record offsets from it.
    run_start: AtomicU64,
}

impl<Ctx> Shared<'_, Ctx> {
    fn since_origin(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    fn span(&self, gpu: usize, stream: usize, desc: OpDesc, category: Category, from: f64) {
        let start = from - f64::from_bits(self.run_start.load(Ordering::SeqCst));
        let seconds = self.since_origin(Instant::now()) - from;
        let span = WallSpan { gpu, stream, category, label: desc.label, start, seconds };
        lock(&self.lanes[gpu]).spans.push(span);
    }

    /// Queue a ready op on `gpu`'s lane; wake its worker only if parked.
    fn push(&self, gpu: usize, id: OpId) {
        let lane = &self.lanes[gpu];
        let mut st = lock(lane);
        st.ready.push_back(id);
        if st.parked {
            lane.cv.notify_one();
        }
    }

    fn wake_all(&self) {
        for lane in &self.lanes {
            let _st = lock(lane);
            lane.cv.notify_all();
        }
    }

    fn fail(&self, gpu: usize, label: &'static str, payload: Box<dyn std::any::Any + Send>) {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        self.error.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(ExecError {
            gpu,
            label,
            message,
        });
        self.failed.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    fn error(&self) -> Option<ExecError> {
        self.error.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Worker loop of `gpu`: dispatch ready ops, park when there are none.
    /// The caller's loop ends with the run, a spawned worker's with the
    /// session; both leave at once when the run has failed.
    fn work(&self, gpu: usize) {
        let lane = &self.lanes[gpu];
        loop {
            let mut parked_at = None;
            let id = {
                let mut st = lock(lane);
                loop {
                    let over = if gpu == self.caller {
                        self.remaining.load(Ordering::SeqCst) == 0
                    } else {
                        self.stop.load(Ordering::SeqCst)
                    };
                    if over || self.failed.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(id) = st.ready.pop_front() {
                        break id;
                    }
                    parked_at.get_or_insert_with(Instant::now);
                    st.parked = true;
                    st = lane.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    st.parked = false;
                }
            };
            let sites = self.plan.sites(id);
            let site = sites.iter().find(|s| s.gpu == gpu).expect("op queued on a participant");
            let desc = self.plan.desc(id);
            if let Some(at) = parked_at {
                // Blocked time is Barrier time under the label of the op
                // that ended it; a park begun before this run counts from
                // the run's start.
                let run_start = f64::from_bits(self.run_start.load(Ordering::SeqCst));
                let from = self.since_origin(at).max(run_start);
                if self.since_origin(Instant::now()) - from >= WAIT_SPAN_MIN {
                    self.span(gpu, site.stream, desc, Category::Barrier, from);
                }
            }
            for s in sites {
                let at =
                    DispatchSite::ExecOp { gpu: s.gpu, seq: s.seq, collective: sites.len() > 1 };
                match self.inj.at(at) {
                    Action::Kill => {
                        // Participant death: the failed flag wakes every
                        // parked worker, so the run ends with a tagged
                        // error in bounded time, not a hang.
                        let (g, seq) = (s.gpu, s.seq);
                        let msg = format!("injected worker death (gpu {g}, dispatch {seq})");
                        return self.fail(g, desc.label, Box::new(msg));
                    }
                    Action::Pause { seconds } => {
                        // Preemption before the op: blocked time, so it
                        // lands in the reserved Barrier category — never in
                        // the op's own (that would corrupt the measured
                        // per-category profile).
                        let from = self.since_origin(Instant::now());
                        std::thread::sleep(Duration::from_secs_f64(seconds));
                        self.span(gpu, site.stream, desc, Category::Barrier, from);
                    }
                    Action::None => {}
                }
            }
            if let Some(body) = self.plan.body(id) {
                let from = self.since_origin(Instant::now());
                let r = catch_unwind(AssertUnwindSafe(|| {
                    fault_check(desc.label);
                    body(self.ctx);
                }));
                match r {
                    Ok(()) => self.span(gpu, site.stream, desc, desc.category, from),
                    Err(payload) => return self.fail(gpu, desc.label, payload),
                }
            }
            for &next in self.plan.successors(id) {
                if self.pending[next].fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last arriver runs it here when it takes part.
                    let at = self.plan.sites(next);
                    self.push(if at.iter().any(|s| s.gpu == gpu) { gpu } else { at[0].gpu }, next);
                }
            }
            if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                let lane = &self.lanes[self.caller];
                let _st = lock(lane);
                lane.cv.notify_one();
            }
        }
    }

    /// Run the plan once, the calling thread working the caller's lane.
    fn run(&self) -> Result<ExecReport, ExecError> {
        if let Some(err) = self.error() {
            return Err(err);
        }
        let start = Instant::now();
        self.run_start.store(self.since_origin(start).to_bits(), Ordering::SeqCst);
        for (counter, &n) in self.pending.iter().zip(self.plan.pending()) {
            counter.store(n, Ordering::Relaxed);
        }
        self.remaining.store(self.pending.len(), Ordering::SeqCst);
        for (id, _) in self.plan.pending().iter().enumerate().filter(|(_, &n)| n == 0) {
            self.push(self.plan.sites(id)[0].gpu, id);
        }
        self.work(self.caller);
        let wall_seconds = start.elapsed().as_secs_f64();
        let spans: Vec<WallSpan> =
            self.lanes.iter().flat_map(|l| std::mem::take(&mut lock(l).spans)).collect();
        if let Some(err) = self.error() {
            return Err(err);
        }
        let bodies_run = spans.iter().filter(|s| s.category != Category::Barrier).count();
        Ok(ExecReport { sim: self.plan.sim().report.clone(), wall_seconds, spans, bodies_run })
    }
}

/// Ends the session when dropped — also when the session's closure
/// unwinds, so the scope's join cannot hang on parked workers.
struct StopOnDrop<'a, 'b, Ctx>(&'a Shared<'b, Ctx>);

impl<Ctx> Drop for StopOnDrop<'_, '_, Ctx> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        self.0.wake_all();
    }
}

/// Static pre-flight, once per plan (the verdict is kept in it). A schedule
/// with a dependency cycle would leave every worker parked, one with an
/// unordered buffer conflict would corrupt data non-deterministically under
/// real threads, and one reading a never-initialized scratch buffer would
/// consume allocator garbage; all are cheap to prove absent on the recorded
/// op DAG.
fn preflight<Ctx>(plan: &EpochPlan<Ctx>) -> Result<(), ExecError> {
    let verdict = plan.verdict(mggcn_analyze::preflight).clone();
    verdict.map_err(|message| ExecError { gpu: 0, label: "preflight", message })
}

/// Run `plan` against `ctx` as often as `session` asks, on one set of
/// worker threads: one per GPU the plan uses, the calling thread being the
/// first of them. Each call of the closure handed to `session` runs the
/// plan once and reports on it; between calls the spawned workers stay
/// parked, so the caller may touch `ctx` freely. The plan is verified
/// before its first session ([`mggcn_analyze::preflight`]; `Err` labelled
/// `"preflight"`, no body run). Numerics are bit-identical to
/// `plan.run(ctx)`. After a failed run every further call returns the same
/// error.
pub fn with_workers<Ctx: Sync, R>(
    plan: &EpochPlan<Ctx>,
    ctx: &Ctx,
    session: impl FnOnce(&mut dyn FnMut() -> Result<ExecReport, ExecError>) -> R,
) -> Result<R, ExecError> {
    with_workers_chaos(plan, ctx, &Injector::none(), session)
}

/// [`with_workers`] under a fault injector (see [`execute_chaos`]).
fn with_workers_chaos<Ctx: Sync, R>(
    plan: &EpochPlan<Ctx>,
    ctx: &Ctx,
    inj: &Injector,
    session: impl FnOnce(&mut dyn FnMut() -> Result<ExecReport, ExecError>) -> R,
) -> Result<R, ExecError> {
    preflight(plan)?;
    let gpus = plan.schedule().machine().gpu_count().max(1);
    let mut active = vec![false; gpus];
    for id in 0..plan.op_count() {
        plan.sites(id).iter().for_each(|s| active[s.gpu] = true);
    }
    let caller = active.iter().position(|&a| a).unwrap_or(0);
    let shared = Shared {
        plan,
        ctx,
        inj,
        lanes: (0..gpus).map(|_| Lane::default()).collect(),
        caller,
        pending: plan.pending().iter().map(|_| AtomicU32::new(0)).collect(),
        remaining: AtomicUsize::new(0),
        failed: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        error: Mutex::new(None),
        origin: Instant::now(),
        run_start: AtomicU64::new(0),
    };
    Ok(std::thread::scope(|scope| {
        let _stop = StopOnDrop(&shared);
        for gpu in (caller + 1..gpus).filter(|&g| active[g]) {
            let shared = &shared;
            scope.spawn(move || shared.work(gpu));
        }
        session(&mut || shared.run())
    }))
}

/// Really execute `sched` against `ctx` once: [`Schedule::compile`], then
/// one run under [`with_workers`].
pub fn execute<Ctx: Sync>(sched: Schedule<Ctx>, ctx: &Ctx) -> Result<ExecReport, ExecError> {
    execute_chaos(sched, ctx, &Injector::none())
}

/// [`execute`] with fault/preemption injection: every dispatch consults
/// `inj` first, for each participant of the op. [`Action::Pause`]
/// deschedules the worker for the given duration (a [`Category::Barrier`]
/// wall span); [`Action::Kill`] fails the run with a tagged
/// `"injected worker death"` error. The no-op injector costs one branch
/// per dispatch and injects nothing.
pub fn execute_chaos<Ctx: Sync>(
    sched: Schedule<Ctx>,
    ctx: &Ctx,
    inj: &Injector,
) -> Result<ExecReport, ExecError> {
    with_workers_chaos(&sched.compile(), ctx, inj, |run| run())?
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_gpusim::engine::OpDesc;
    use mggcn_gpusim::{BufId, Effects, GpuSpec, MachineSpec, Work};
    use std::sync::atomic::AtomicU64;

    fn machine(n: usize) -> MachineSpec {
        let mut m = MachineSpec::uniform("exec-test", GpuSpec::v100(), n, 6, 25.0e9);
        m.comm_latency = 0.0;
        m
    }

    fn fixed() -> Work {
        Work::Fixed { seconds: 1e-6 }
    }

    #[test]
    fn bodies_run_exactly_once_and_in_dependency_order() {
        // GPU-local chains plus cross-GPU waits; log (gpu, step) pairs.
        let log: Mutex<Vec<(usize, u32)>> = Mutex::new(Vec::new());
        let mut s: Schedule<Mutex<Vec<(usize, u32)>>> = Schedule::new(machine(2));
        // Every body appends to one log, declared as a read-modify-write.
        let shared = Effects::none().rw(BufId::new(0, "LOG"));
        for step in 0..3u32 {
            for gpu in 0..2usize {
                s.record(
                    gpu,
                    0,
                    fixed(),
                    OpDesc::new(Category::Other, "step"),
                    shared.clone(),
                    Some(Box::new(move |l: &Mutex<Vec<(usize, u32)>>| {
                        l.lock().unwrap().push((gpu, step))
                    })),
                );
            }
        }
        let r = execute(s, &log).expect("no panic");
        assert_eq!(r.bodies_run, 6);
        let got = log.into_inner().unwrap();
        assert_eq!(got.len(), 6);
        // The inferred waits zig-zag across the GPUs and serialize
        // everything globally.
        let expect: Vec<(usize, u32)> =
            (0..3u32).flat_map(|s| (0..2usize).map(move |g| (g, s))).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn collective_barrier_sees_all_prior_writes() {
        // Each GPU writes its slot, then an all-lane collective on the other
        // stream sums them. The leader must observe every participant's
        // write: the collective reads every slot, so it waits on each one.
        struct Ctx {
            slots: Vec<AtomicU64>,
            total: AtomicU64,
        }
        let p = 4;
        let ctx =
            Ctx { slots: (0..p).map(|_| AtomicU64::new(0)).collect(), total: AtomicU64::new(0) };
        let slot = |g: usize| BufId::new(g, "SLOT");
        let mut s: Schedule<Ctx> = Schedule::new(machine(p));
        for g in 0..p {
            s.record(
                g,
                0,
                fixed(),
                OpDesc::new(Category::Other, "write"),
                Effects::none().writes([slot(g)]),
                Some(Box::new(move |c: &Ctx| {
                    c.slots[g].store((g as u64 + 1) * 10, Ordering::SeqCst)
                })),
            );
        }
        let lanes: Vec<(usize, usize)> = (0..p).map(|g| (g, 1)).collect();
        s.record_collective(
            &lanes,
            1.0e6,
            25.0e9,
            OpDesc::new(Category::Comm, "sum"),
            Effects::none().reads((0..p).map(slot)).writes([BufId::new(0, "TOTAL")]),
            Some(Box::new(|c: &Ctx| {
                let t: u64 = c.slots.iter().map(|s| s.load(Ordering::SeqCst)).sum();
                c.total.store(t, Ordering::SeqCst);
            })),
        );
        // After the barrier, every GPU bumps its own slot — must not race
        // with the collective read (WAR on the slot).
        for g in 0..p {
            s.record(
                g,
                0,
                fixed(),
                OpDesc::new(Category::Other, "after"),
                Effects::none().rw(slot(g)),
                Some(Box::new(move |c: &Ctx| {
                    c.slots[g].fetch_add(1, Ordering::SeqCst);
                })),
            );
        }
        let r = execute(s, &ctx).expect("no panic");
        assert_eq!(ctx.total.load(Ordering::SeqCst), 10 + 20 + 30 + 40);
        assert_eq!(r.bodies_run, 2 * p + 1);
    }

    #[test]
    fn panic_in_body_returns_err_without_hanging() {
        let p = 4;
        let ctx = ();
        let mut s: Schedule<()> = Schedule::new(machine(p));
        for g in 0..p {
            s.record(
                g,
                0,
                fixed(),
                OpDesc::new(Category::Other, "pre"),
                Effects::none().writes([BufId::new(g, "HW")]),
                Some(Box::new(move |_: &()| {
                    if g == 2 {
                        panic!("device 2 exploded");
                    }
                })),
            );
        }
        // A collective behind the panicking op: its barrier must not hang.
        let lanes: Vec<(usize, usize)> = (0..p).map(|g| (g, 0)).collect();
        s.record_collective(
            &lanes,
            1.0e6,
            25.0e9,
            OpDesc::new(Category::Comm, "barrier"),
            Effects::none(),
            None,
        );
        let start = Instant::now();
        let err = execute(s, &ctx).expect_err("must fail");
        assert!(start.elapsed() < Duration::from_secs(10), "bounded-time failure");
        assert_eq!(err.gpu, 2);
        assert!(err.message.contains("device 2 exploded"), "{err}");
    }

    #[test]
    fn wall_spans_cover_executed_bodies() {
        let ctx = ();
        let mut s: Schedule<()> = Schedule::new(machine(2));
        for g in 0..2 {
            s.record(
                g,
                0,
                fixed(),
                OpDesc::new(Category::GeMM, "work"),
                Effects::none().writes([BufId::new(g, "HW")]),
                Some(Box::new(|_: &()| std::thread::sleep(Duration::from_millis(2)))),
            );
        }
        let r = execute(s, &ctx).expect("ok");
        assert_eq!(r.bodies_run, 2);
        let body_spans = r.spans.iter().filter(|s| s.category != Category::Barrier).count();
        assert_eq!(body_spans, 2);
        let cats = r.category_wall_seconds();
        assert!(cats[&Category::GeMM] >= 0.004 * 0.5, "timed sleeps: {cats:?}");
        assert!(r.wall_seconds > 0.0);
        assert!(r.sim.makespan > 0.0);
        for s in &r.spans {
            assert!(s.start >= 0.0 && s.end() <= r.wall_seconds + 1e-3, "{s:?}");
        }
    }

    /// Regression for the measured-profile accounting: time a worker spends
    /// blocked (dependency waits, rendezvous) must land in the `Barrier`
    /// category — not inside the waiting op's own category — and per-GPU
    /// category sums must account for the whole epoch wall time up to
    /// scheduling slack.
    #[test]
    fn wait_time_lands_in_barrier_category() {
        let ctx = ();
        let mut s: Schedule<()> = Schedule::new(machine(2));
        // GPU 0 works for ~40ms; GPU 1's only op depends on it, so GPU 1
        // spends those 40ms blocked.
        let hw = BufId::new(0, "HW");
        s.record(
            0,
            0,
            fixed(),
            OpDesc::new(Category::GeMM, "long"),
            Effects::none().writes([hw]),
            Some(Box::new(|_: &()| std::thread::sleep(Duration::from_millis(40)))),
        );
        s.record(
            1,
            0,
            fixed(),
            OpDesc::new(Category::GeMM, "short"),
            Effects::none().reads([hw]),
            Some(Box::new(|_: &()| std::thread::sleep(Duration::from_millis(2)))),
        );
        let r = execute(s, &ctx).expect("ok");

        // GPU 1's blocked time is barrier, not GeMM.
        let gpu1_barrier: f64 = r
            .spans
            .iter()
            .filter(|s| s.gpu == 1 && s.category == Category::Barrier)
            .map(|s| s.seconds)
            .sum();
        let gpu1_gemm: f64 = r
            .spans
            .iter()
            .filter(|s| s.gpu == 1 && s.category == Category::GeMM)
            .map(|s| s.seconds)
            .sum();
        assert!(gpu1_barrier >= 0.020, "wait not attributed to barrier: {gpu1_barrier}");
        assert!(gpu1_gemm < 0.020, "wait double-counted into GeMM: {gpu1_gemm}");

        // Per-GPU category sums ≈ wall time (generous slack for spawn and
        // scheduler jitter on loaded CI machines).
        for gpu in 0..2 {
            let sum: f64 = r.spans.iter().filter(|s| s.gpu == gpu).map(|s| s.seconds).sum();
            assert!(
                sum <= r.wall_seconds + 1e-3,
                "gpu {gpu} category sum {sum} exceeds wall {}",
                r.wall_seconds
            );
            assert!(
                sum >= 0.5 * r.wall_seconds,
                "gpu {gpu} category sum {sum} far below wall {}",
                r.wall_seconds
            );
        }
    }

    /// Companion regression to `wait_time_lands_in_barrier_category` for
    /// *injected* pauses: a chaos-plan preemption deschedules the worker
    /// before its op, and that blocked time must be attributed to the
    /// reserved `Barrier` category — never folded into the op's own
    /// category — while results stay identical to the fault-free run.
    #[test]
    fn injected_pause_lands_in_barrier_category() {
        use mggcn_sched::{FaultPlan, PauseAt};
        let ctx = Mutex::new(Vec::new());
        let mk = || {
            let mut s: Schedule<Mutex<Vec<usize>>> = Schedule::new(machine(2));
            for g in 0..2usize {
                s.record(
                    g,
                    0,
                    fixed(),
                    OpDesc::new(Category::GeMM, "work"),
                    Effects::none().writes([BufId::new(g, "HW")]),
                    Some(Box::new(move |l: &Mutex<Vec<usize>>| l.lock().unwrap().push(g))),
                );
            }
            s
        };
        // Pause GPU 1 for 30ms before its first (and only) dispatch.
        let plan = FaultPlan {
            pauses: vec![PauseAt { gpu: 1, seq: 0, seconds: 0.030 }],
            ..FaultPlan::none()
        };
        let inj = Injector::new(plan);
        let r = execute_chaos(mk(), &ctx, &inj).expect("pauses are recoverable");
        assert_eq!(r.bodies_run, 2, "both bodies still run");
        assert_eq!(inj.fired().len(), 1, "the pause fired");

        let gpu1_barrier: f64 = r
            .spans
            .iter()
            .filter(|s| s.gpu == 1 && s.category == Category::Barrier)
            .map(|s| s.seconds)
            .sum();
        let gpu1_gemm: f64 = r
            .spans
            .iter()
            .filter(|s| s.gpu == 1 && s.category == Category::GeMM)
            .map(|s| s.seconds)
            .sum();
        assert!(gpu1_barrier >= 0.025, "pause not attributed to Barrier: {gpu1_barrier}");
        assert!(gpu1_gemm < 0.025, "pause leaked into the op's category: {gpu1_gemm}");

        // No silent corruption: same writes as a fault-free run (order may
        // legitimately differ across GPUs — both ops are independent).
        let mut got = std::mem::take(&mut *ctx.lock().unwrap());
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    /// Injected worker death must fail the run in bounded time with a
    /// tagged error — even when peers are blocked mid-rendezvous on a
    /// collective the dead worker never reaches.
    #[test]
    fn injected_death_mid_collective_fails_bounded_and_tagged() {
        use mggcn_sched::{FaultPlan, Kill};
        let p = 4;
        let mut s: Schedule<()> = Schedule::new(machine(p));
        let lanes: Vec<(usize, usize)> = (0..p).map(|g| (g, 0)).collect();
        s.record_collective(
            &lanes,
            1.0e6,
            25.0e9,
            OpDesc::new(Category::Comm, "allreduce"),
            Effects::none(),
            None,
        );
        // Kill GPU 2 at its first dispatch — the collective itself, so the
        // other three participants are already arriving at the rendezvous.
        let plan = FaultPlan { kills: vec![Kill { gpu: 2, seq: 0 }], ..FaultPlan::none() };
        let inj = Injector::new(plan);
        let start = Instant::now();
        let err = execute_chaos(s, &(), &inj).expect_err("death must fail the run");
        assert!(start.elapsed() < Duration::from_secs(10), "bounded-time failure");
        assert_eq!(err.gpu, 2);
        assert!(err.message.contains("injected worker death"), "untagged error: {err}");
    }

    /// A schedule whose declared effects conflict without an ordering edge
    /// (the inferred one removed) must be rejected before any worker thread
    /// (or body) starts.
    #[test]
    fn preflight_rejects_unordered_buffer_conflict() {
        let ran = AtomicBool::new(false);
        let mut s: Schedule<AtomicBool> = Schedule::new(machine(1));
        let buf = BufId::new(0, "HW");
        let writer = s.record(
            0,
            0,
            fixed(),
            OpDesc::new(Category::GeMM, "writer"),
            Effects::none().writes([buf]),
            Some(Box::new(|r: &AtomicBool| r.store(true, Ordering::SeqCst))),
        );
        let reader = s.record(
            0,
            1,
            fixed(),
            OpDesc::new(Category::SpMM, "reader"),
            Effects::none().reads([buf]),
            Some(Box::new(|r: &AtomicBool| r.store(true, Ordering::SeqCst))),
        );
        s.remove_wait(reader, writer);
        let err = execute(s, &ran).expect_err("hazardous schedule accepted");
        assert_eq!(err.label, "preflight");
        assert!(err.message.contains("RAW hazard"), "unexpected message: {}", err.message);
        assert!(!ran.load(Ordering::SeqCst), "a body ran despite preflight failure");
    }

    /// A dependency cycle among declared bodies is a preflight `Err`, not
    /// a simulator deadlock panic.
    #[test]
    fn preflight_rejects_cycle_among_declared_bodies() {
        let ran = AtomicBool::new(false);
        let mut s: Schedule<AtomicBool> = Schedule::new(machine(1));
        let body = || Some(Box::new(|r: &AtomicBool| r.store(true, Ordering::SeqCst)) as _);
        let hw = BufId::new(0, "HW");
        let fx = || Effects::none().rw(hw);
        // x heads stream 0 but waits on y, which sits behind it there.
        let x = s.record(0, 0, fixed(), OpDesc::new(Category::Other, "x"), fx(), body());
        let y = s.record(0, 0, fixed(), OpDesc::new(Category::Other, "y"), fx(), body());
        s.add_wait(x, y);
        let err = execute(s, &ran).expect_err("cyclic schedule accepted");
        assert_eq!(err.label, "preflight");
        assert!(!ran.load(Ordering::SeqCst), "a body ran despite preflight failure");
    }

    /// The def-use pass rides along in preflight: a schedule reading a
    /// scratch-family buffer nothing ever wrote is rejected before any
    /// worker thread (or body) starts.
    #[test]
    fn preflight_rejects_uninitialized_scratch_read() {
        let ran = AtomicBool::new(false);
        let mut s: Schedule<AtomicBool> = Schedule::new(machine(1));
        s.record(
            0,
            0,
            fixed(),
            OpDesc::new(Category::SpMM, "reader"),
            Effects::none().reads([BufId::new(0, "BC1")]),
            Some(Box::new(|r: &AtomicBool| r.store(true, Ordering::SeqCst))),
        );
        let err = execute(s, &ran).expect_err("uninitialized read accepted");
        assert_eq!(err.label, "preflight");
        assert!(err.message.contains("uninitialized read"), "unexpected message: {}", err.message);
        assert!(!ran.load(Ordering::SeqCst), "a body ran despite preflight failure");
    }
}
