//! A steady-state epoch allocates nothing inside an op body.
//!
//! The paper's §4.2 rule is "allocate the buffers once". For the modelled
//! GPU buffers `MemoryPlan` and the trace watermarks hold it; this file
//! holds the host side: after warm-up, no SpMM, GeMM, activation, loss or
//! Adam body asks the allocator for a byte (their temporaries live in the
//! kernels' per-thread scratch), and a collective asks for nothing that
//! grows with its tile (it stages through buffers the device state keeps).
//! The scratch itself stays inside its closed form in the layer widths and
//! does not move with the vertex count.
//!
//! The counting allocator below is this test crate's own: counts are per
//! thread, so a body is charged with what its thread asked for between the
//! hooks around it, whatever other workers do meanwhile. The epoch tests
//! hold the kernel pool to one lane: a lane's scratch grows the first time
//! that lane runs a piece of some shape, and with several lanes which epoch
//! that is in is the scheduler's choice. What several lanes add per region —
//! the pool's own bookkeeping — has a test of its own.
//!
//! Serving keeps the same rule per batch: a warm batch asks the allocator for
//! what its own rows and shells need, however many vertices the graph has.

use mg_gcn::core::state::DeviceState;
use mg_gcn::dense::gemm::{scratch_bound_bytes, scratch_bytes};
use mg_gcn::dense::Dense;
use mg_gcn::exec::{set_active_threads, with_workers};
use mg_gcn::gpusim::engine::Body;
use mg_gcn::graph::generators::chung_lu;
use mg_gcn::prelude::*;
use mg_gcn::sparse::Coo;
use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

struct Counting;

thread_local! {
    /// Bytes this thread has asked the allocator for. Const-initialised and
    /// without a destructor, so the allocator can touch it at any time.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
}

fn requested() -> u64 {
    REQUESTED.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` that neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Hold the kernel pool to `lanes` of its four until the guard drops. The
/// width is process-wide, so the tests of this file take turns.
fn pool_of(lanes: usize) -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    static FOUR_LANES: std::sync::Once = std::sync::Once::new();
    FOUR_LANES.call_once(|| std::env::set_var("MGGCN_THREADS", "4"));
    // A failed test poisons the lock; the next one still gets its turn.
    let turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    set_active_threads(lanes);
    turn
}

const WARM_UP: usize = 2;
const MEASURED: usize = 3;

/// `(feat, hidden, classes)`: the benchmark's wide layers and its narrow.
const WIDE: (usize, usize, usize) = (128, 128, 16);
const NARROW: (usize, usize, usize) = (32, 32, 16);

fn trainer(
    vertices: usize,
    (feat, hidden, classes): (usize, usize, usize),
    gpus: usize,
    partition: Partition,
    backend: Backend,
) -> Trainer {
    let adj = chung_lu::generate(&vec![6u32; vertices], 5);
    let g = Graph::synthesize(adj, feat, classes, 7);
    let cfg = GcnConfig::new(feat, &[hidden], classes);
    let mut opts = TrainOptions::quick(gpus);
    opts.partition = partition;
    opts.backend = backend;
    let problem = Problem::from_graph(&g, &cfg, &opts);
    Trainer::new(problem, cfg, opts).expect("toy problem fits")
}

/// What one body asked for: `(epoch, category, label, bytes)`.
type Charge = (usize, Category, &'static str, u64);

/// Bytes of the largest tile a collective of `t` moves: what its body must
/// stay far below.
fn tile_bytes(t: &Trainer) -> u64 {
    let widest = *t.config().dims.iter().max().expect("a layer");
    (t.state().gpu(0).x.rows() * widest * 4) as u64
}

fn assert_steady(charges: &[Charge], from_epoch: usize, gpus: usize, tile: u64, what: &str) {
    let steady: Vec<&Charge> = charges.iter().filter(|c| c.0 >= from_epoch).collect();
    assert!(!steady.is_empty(), "{what}: no steady-state body was observed");
    for &&(epoch, category, label, bytes) in &steady {
        match category {
            // A guard and a slice per participant, nothing per row.
            Category::Comm => {
                let per_gpu = 128 * gpus as u64;
                assert!(
                    bytes <= per_gpu && bytes < tile / 8,
                    "{what}: `{label}` asked for {bytes} B in epoch {epoch} (tile {tile} B)"
                );
            }
            _ => assert_eq!(bytes, 0, "{what}: {category:?} `{label}` allocated in epoch {epoch}"),
        }
    }
    for category in [Category::SpMM, Category::GeMM, Category::Activation, Category::Adam] {
        assert!(steady.iter().any(|c| c.1 == category), "{what}: no {category:?} body observed");
    }
}

/// `WARM_UP + MEASURED` epochs of `t`'s own schedule through
/// `Schedule::run_observed`, every body charged with its thread's requests.
fn observed_epochs(t: &Trainer) -> Vec<Charge> {
    let mut charges = Vec::with_capacity(4096);
    for epoch in 0..WARM_UP + MEASURED {
        let sched = t.epoch_schedule();
        let descs: Vec<_> = sched.op_infos().iter().map(|op| op.desc).collect();
        t.state().reset_scratch();
        let before = Cell::new(0);
        let mut seen = Vec::with_capacity(descs.len());
        sched.run_observed(
            t.state(),
            |_| before.set(requested()),
            |id| seen.push((id, requested() - before.get())),
        );
        charges.extend(
            seen.into_iter().map(|(id, b)| (epoch, descs[id].category, descs[id].label, b)),
        );
    }
    charges
}

/// Run `f` on a thread of its own: its kernel scratch starts empty, and
/// what it asks the allocator for is its own.
fn on_a_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
}

#[test]
fn no_kernel_body_allocates_after_warm_up_and_no_collective_by_the_tile() {
    let _turn = pool_of(1);
    for (shape, vertices) in [(WIDE, 512), (NARROW, 2048)] {
        for (gpus, partition) in
            [(1, Partition::OneD), (4, Partition::OneD), (4, Partition::OneFiveD)]
        {
            let what = format!("{shape:?} P={gpus} {partition:?}");
            on_a_fresh_thread(|| {
                let t = trainer(vertices, shape, gpus, partition, Backend::Simulated);
                let charges = observed_epochs(&t);
                assert_steady(&charges, WARM_UP, gpus, tile_bytes(&t), &what);
            });
        }
    }
}

#[test]
fn threaded_workers_allocate_in_no_body_from_their_second_epoch_on() {
    let _turn = pool_of(1);
    for (shape, vertices) in [(WIDE, 512), (NARROW, 2048)] {
        for gpus in [1, 4] {
            let what = format!("threaded {shape:?} P={gpus}");
            let t = trainer(vertices, shape, gpus, Partition::OneD, Backend::Threaded);
            let mut sched = t.epoch_schedule();
            let descs: Vec<_> = sched.op_infos().iter().map(|op| op.desc).collect();
            let epoch = Arc::new(AtomicUsize::new(0));
            let charges = Arc::new(Mutex::new(Vec::<Charge>::with_capacity(4096)));
            sched.wrap_bodies(|id, body| {
                let (epoch, charges, desc) = (epoch.clone(), charges.clone(), descs[id]);
                Box::new(move |ctx: &DeviceState| {
                    let before = requested();
                    body(ctx);
                    let bytes = requested() - before;
                    let charge = (epoch.load(Ordering::SeqCst), desc.category, desc.label, bytes);
                    charges.lock().expect("no body panics").push(charge);
                }) as Body<DeviceState>
            });
            // One session: the workers, and with them their scratch, live
            // from its first epoch to its last.
            with_workers(&sched.compile(), t.state(), |run| {
                for e in 0..1 + MEASURED {
                    epoch.store(e, Ordering::SeqCst);
                    t.state().reset_scratch();
                    run().expect("a healthy epoch");
                }
            })
            .expect("the plan verifies");
            let charges = charges.lock().expect("no body panics");
            assert_steady(&charges, 1, gpus, tile_bytes(&t), &what);
        }
    }
}

#[test]
fn kernel_scratch_stays_inside_its_closed_form_and_ignores_the_vertex_count() {
    let _turn = pool_of(1);
    for (shape, vertices) in [(WIDE, 512), (NARROW, 2048)] {
        for gpus in [1, 4] {
            let high_water = |vertices: usize| {
                on_a_fresh_thread(|| {
                    let mut t = trainer(vertices, shape, gpus, Partition::OneD, Backend::Simulated);
                    t.train(WARM_UP).expect("simulated training cannot fail");
                    let warm = scratch_bytes();
                    t.train(MEASURED).expect("simulated training cannot fail");
                    assert_eq!(scratch_bytes(), warm, "{shape:?} P={gpus}: scratch still growing");
                    warm
                })
            };
            let (small, doubled) = (high_water(vertices), high_water(2 * vertices));
            let bound = scratch_bound_bytes(shape.0.max(shape.1));
            assert_eq!(small, doubled, "{shape:?} P={gpus}: scratch moved with the vertex count");
            assert!(
                bound / 2 < small && small <= bound,
                "{shape:?} P={gpus}: scratch {small} B against a closed form of {bound} B"
            );
        }
    }
}

#[test]
fn a_parallel_region_allocates_nothing_on_its_caller_after_the_first() {
    let _turn = pool_of(4);
    let mut buf = vec![0u32; 1 << 14];
    let region = |buf: &mut [u32]| {
        buf.par_chunks_mut(64).enumerate().for_each(|(i, chunk)| chunk.fill(i as u32));
        buf.par_iter_mut().for_each(|x| *x += 1);
    };
    // The first region spawns the workers and makes this thread's job.
    region(&mut buf);
    let before = requested();
    (0..200).for_each(|_| region(&mut buf));
    assert_eq!(requested() - before, 0, "the pool allocated per region");
    assert_eq!(buf[64 * 7], 7 + 1, "and the regions ran");
}

#[test]
fn a_warm_serving_batch_asks_for_the_same_bytes_on_a_sixteen_times_larger_graph() {
    let _turn = pool_of(1);
    let component = chung_lu::generate(&vec![6u32; 300], 5);
    // Bytes one warm batch asks for on the component padded with isolated
    // vertices to `n`: what the walk reaches is the same at every `n`.
    let per_batch = |n: usize| {
        let mut coo = Coo::new(n, n);
        for r in 0..component.rows() {
            component.row(r).for_each(|(c, x)| coo.push(r as u32, c, x));
        }
        let feats = Dense::from_fn(n, 32, |r, c| ((r * 32 + c) as f32 * 0.37).sin());
        let w0 = Dense::from_fn(32, 32, |r, c| ((r + 5 * c) as f32 * 0.61).cos() * 0.4);
        let w1 = Dense::from_fn(32, 16, |r, c| ((3 * r + c) as f32 * 0.53).sin() * 0.4);
        let model = ServingModel::from_parts(vec![w0, w1], coo.to_csr(), feats).expect("valid");
        let cfg = ServeConfig::new(MachineSpec::dgx_a100(), BatchPolicy::new(1e-3, 32), 1 << 20);
        let mut server = Server::new(model, cfg);
        let batch: Vec<u32> = (0..32).map(|i| i * 37 % 300).collect();
        for _ in 0..WARM_UP {
            server.query(&batch);
        }
        let misses = server.cache().stats().misses;
        let before = requested();
        server.query(&batch);
        let bytes = requested() - before;
        assert_eq!(server.cache().stats().misses, misses, "n = {n}: the batch is warm");
        bytes
    };
    let (small, padded) = (per_batch(300), per_batch(16 * 300));
    assert!(small > 0, "a batch returns its answers in a matrix of its own");
    assert_eq!(small, padded, "a warm batch's allocations grew with the vertex count");
}
