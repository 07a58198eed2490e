//! Property test for the dataflow dispatcher.
//!
//! Random schedules in the style of `crates/analyze/tests/inferred_waits.rs`
//! — up to 6 GPUs, 2–3 streams, random collectives, every wait inferred
//! from declared effects — each compiled once and run three times on one
//! set of workers. Every body must run exactly once per run, must find the
//! flag of every happens-before predecessor set, and the buffers must end
//! as the serial run of the same plan leaves them.
//!
//! A small fixed schedule then fails at every place it can: a panic in
//! each body and an injected death at each dispatch site must both come
//! back as a tagged `Err` in bounded time. Nothing in the runtime polls, so
//! this is what shows that no failure path leaves a worker parked.

use mggcn_exec::{execute, execute_chaos, with_workers};
use mggcn_gpusim::engine::{EpochPlan, OpDesc};
use mggcn_gpusim::{BufId, Category, Effects, GpuSpec, MachineSpec, Schedule, Work};
use mggcn_sched::{FaultPlan, Injector, Kill};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const BUFS: usize = 6;

/// One op: a lane, extra lanes (a collective, one op in four), and which of
/// the buffers it reads and writes.
type OpSpec = (usize, usize, usize, usize);

/// What the bodies run against.
struct Ctx {
    /// Happens-before predecessors of each op (transitively closed).
    before: Vec<Vec<usize>>,
    done: Vec<AtomicBool>,
    runs: Vec<AtomicU32>,
    /// Ops that ran before one of their predecessors.
    early: AtomicU32,
    bufs: Vec<Mutex<u64>>,
}

impl Ctx {
    fn new(before: Vec<Vec<usize>>) -> Self {
        let n = before.len();
        Self {
            before,
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            runs: (0..n).map(|_| AtomicU32::new(0)).collect(),
            early: AtomicU32::new(0),
            bufs: (0..BUFS).map(|i| Mutex::new(i as u64)).collect(),
        }
    }

    /// Between runs: every flag down, every buffer back to its seed.
    fn reset(&self) {
        self.done.iter().for_each(|d| d.store(false, Ordering::SeqCst));
        self.bufs.iter().enumerate().for_each(|(i, b)| *b.lock().unwrap() = i as u64);
    }

    fn digest(&self) -> Vec<u64> {
        self.bufs.iter().map(|b| *b.lock().unwrap()).collect()
    }
}

fn bits(mask: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).filter(move |i| mask & (1 << i) != 0)
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100000001b3).rotate_left(17)
}

fn build(gpus: usize, streams: usize, ops: &[OpSpec]) -> Schedule<Ctx> {
    let mut s = Schedule::new(MachineSpec::uniform("prop", GpuSpec::v100(), gpus, 6, 25.0e9));
    // "T" is outside the analyzer's scratch families, so a read with no
    // earlier writer is persistent state, not an uninitialized read.
    let buf = |i: usize| BufId::indexed(i % gpus, "T", i);
    let lane_count = gpus * streams;
    for (id, &(first, extra, reads, writes)) in ops.iter().enumerate() {
        let extra = if extra & 3 == 0 { extra >> 2 } else { 0 };
        let mask = (1 << (first % lane_count)) | extra;
        let lanes: Vec<(usize, usize)> =
            bits(mask, lane_count).map(|l| (l / streams, l % streams)).collect();
        let fx =
            Effects::none().reads(bits(reads, BUFS).map(buf)).writes(bits(writes, BUFS).map(buf));
        // The body hashes what it reads into what it writes: two orders
        // agree on the final buffers only if they agree on every conflict.
        let body = Box::new(move |c: &Ctx| {
            if c.before[id].iter().any(|&p| !c.done[p].load(Ordering::SeqCst)) {
                c.early.fetch_add(1, Ordering::SeqCst);
            }
            let h = bits(reads, BUFS).fold(id as u64, |h, b| mix(h, *c.bufs[b].lock().unwrap()));
            bits(writes, BUFS).for_each(|b| *c.bufs[b].lock().unwrap() = mix(h, b as u64));
            c.runs[id].fetch_add(1, Ordering::SeqCst);
            c.done[id].store(true, Ordering::SeqCst);
        });
        let desc = OpDesc::new(Category::Other, "op");
        match lanes[..] {
            [(gpu, stream)] => {
                s.record(gpu, stream, Work::Fixed { seconds: 1e-6 }, desc, fx, Some(body))
            }
            _ => s.record_collective(&lanes, 1.0e3, 25.0e9, desc, fx, Some(body)),
        };
    }
    s
}

/// Every op's happens-before predecessors: explicit waits and lane FIFO
/// (which carries the collective rendezvous), transitively closed. Ops are
/// issued in id order and every edge points backwards, so one pass closes.
fn happens_before(plan: &EpochPlan<Ctx>) -> Vec<Vec<usize>> {
    let infos = plan.schedule().op_infos();
    let mut before: Vec<Vec<usize>> = Vec::with_capacity(infos.len());
    for op in &infos {
        let fifo = op.lanes.iter().filter_map(|lane| {
            infos[..op.id].iter().rev().find(|o| o.lanes.contains(lane)).map(|o| o.id)
        });
        let mut all: Vec<usize> = op.waits.iter().copied().chain(fifo).collect();
        for direct in all.clone() {
            all.extend(&before[direct]);
        }
        all.sort_unstable();
        all.dedup();
        before.push(all);
    }
    before
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_plan_three_threaded_runs_equal_the_serial_run(
        gpus in 1usize..7,
        streams in 2usize..4,
        ops in proptest::collection::vec(
            (0usize..64, 0usize..1 << 20, 0usize..1 << BUFS, 0usize..1 << BUFS),
            1..40,
        )
    ) {
        let plan = build(gpus, streams, &ops).compile();
        let ctx = Ctx::new(happens_before(&plan));
        plan.run(&ctx);
        let serial = ctx.digest();
        prop_assert_eq!(ctx.early.load(Ordering::SeqCst), 0, "the serial order broke an edge");

        let digests = with_workers(&plan, &ctx, |run| {
            (0..3)
                .map(|_| {
                    ctx.reset();
                    let report = run().expect("no body panics");
                    assert_eq!(report.bodies_run, ops.len());
                    ctx.digest()
                })
                .collect::<Vec<_>>()
        })
        .expect("inferred schedules verify");
        prop_assert_eq!(digests, vec![serial; 3]);
        prop_assert_eq!(ctx.early.load(Ordering::SeqCst), 0, "a body ran before a predecessor");
        for (id, runs) in ctx.runs.iter().enumerate() {
            let runs = runs.load(Ordering::SeqCst);
            prop_assert_eq!(runs, 4, "op {} over one serial and three threaded runs", id);
        }
    }
}

/// Three GPUs, two streams: kernels, a pair collective, an all-GPU
/// collective behind cross-stream waits, and tails that need it.
fn small(panic_in: Option<usize>) -> Schedule<()> {
    let mut s = Schedule::new(MachineSpec::uniform("small", GpuSpec::v100(), 3, 6, 25.0e9));
    let body = |id: usize| {
        Some(Box::new(move |_: &()| {
            if panic_in == Some(id) {
                panic!("op {id} exploded");
            }
        }) as mggcn_gpusim::engine::Body<()>)
    };
    let fixed = Work::Fixed { seconds: 1e-6 };
    let desc = |label| OpDesc::new(Category::Other, label);
    let heads: Vec<usize> =
        (0..3).map(|g| s.launch(g, 0, fixed, desc("head"), &[], body(g))).collect();
    let pair = s.collective(&[(0, 1), (1, 1)], 1e3, 25e9, desc("pair"), &heads[..2], body(3));
    let all =
        s.collective(&[(0, 1), (1, 1), (2, 1)], 1e3, 25e9, desc("all"), &[pair, heads[2]], body(4));
    for g in 0..3 {
        s.launch(g, 0, fixed, desc("tail"), &[all], body(5 + g));
    }
    s
}

const BOUND: Duration = Duration::from_secs(2);

#[test]
fn a_panic_in_any_body_is_a_prompt_tagged_error() {
    let ops = small(None).op_count();
    execute(small(None), &()).expect("the schedule itself is sound");
    for id in 0..ops {
        let start = Instant::now();
        let err = execute(small(Some(id)), &()).expect_err("a panicking body must fail the run");
        assert!(start.elapsed() < BOUND, "op {id}: workers hung on the dead one");
        assert!(err.message.contains(&format!("op {id} exploded")), "op {id}: {err}");
    }
}

#[test]
fn a_death_at_any_site_is_a_prompt_tagged_error() {
    let plan = small(None).compile();
    for id in 0..plan.op_count() {
        for site in plan.sites(id) {
            let kill = Kill { gpu: site.gpu, seq: site.seq };
            let inj = Injector::new(FaultPlan { kills: vec![kill], ..FaultPlan::none() });
            let start = Instant::now();
            let err =
                execute_chaos(small(None), &(), &inj).expect_err("a dead worker fails the run");
            assert!(start.elapsed() < BOUND, "{kill:?}: workers hung on the dead one");
            assert_eq!(err.gpu, site.gpu, "{kill:?}: {err}");
            assert!(err.message.contains("injected worker death"), "{kill:?}: {err}");
            assert_eq!(inj.fired().len(), 1, "{kill:?} fired {:?}", inj.fired());
        }
    }
}
