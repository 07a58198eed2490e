//! What the harness reads from, and asks of, the operating system: process
//! CPU time, peak resident memory, core count, the CPUs the process may run
//! on; and the probe that reads the core clock.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux `cpu_set_t`: one bit per CPU, 1024 of them.
pub type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `mallopt` parameters.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Have the allocator keep what the program frees instead of handing it
/// back to the kernel (no heap trimming, no `mmap` per block up to 32 MiB,
/// the most glibc accepts), as `MALLOC_TRIM_THRESHOLD_` and
/// `MALLOC_MMAP_THRESHOLD_` in the environment would. Call before the
/// program allocates anything large.
///
/// With glibc's defaults a `serve-churn` step gave back and faulted in again
/// about 60 MB of pages (15 000 minor faults per step, a third of the
/// process's time in the kernel), and how long the kernel takes to hand out
/// a zeroed page is the host's business: with a neighbour loading the memory
/// system the same step took 67 ms instead of 45, and 46 with this setting.
pub fn keep_freed_memory() {
    // SAFETY: `mallopt` only stores two integers in the allocator's state;
    // no other thread exists yet.
    let ok = unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
    };
    assert!(ok, "mallopt refused the thresholds");
}

/// Linux clock id: CPU time consumed by every thread of this process,
/// exited workers included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has consumed so far (user + system, all
/// threads). `/proc/self/stat` counts the same thing in 10 ms ticks, which
/// is too coarse for a 40 ms step; this clock resolves nanoseconds.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable, correctly laid out `struct timespec`
    // for 64-bit Linux (two 64-bit fields), and `clock_gettime` writes
    // nothing else. The clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> CpuSet {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed; pid
    // 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    set
}

/// How many CPUs the calling thread may run on: 1 once the run is pinned.
pub fn allowed_cpu_count() -> usize {
    allowed_cpus().iter().map(|word| word.count_ones() as usize).sum()
}

/// Confine every thread of this process (the kernel pool's parked lanes
/// too), and every thread spawned afterwards, to `set`. Where the kernel
/// refuses, the run goes on as it was and says so.
pub fn allow_cpus(set: &CpuSet) {
    let threads: Vec<i32> = std::fs::read_dir("/proc/self/task")
        .map(|dir| dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok()).collect())
        .unwrap_or_default();
    // Thread id 0 is the calling thread, for where `/proc` is not mounted.
    for tid in if threads.is_empty() { vec![0] } else { threads } {
        // SAFETY: `set` is a live `cpu_set_t` of the size passed; the call
        // reads it and touches no other memory of this process.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set) };
        if rc != 0 {
            eprintln!("sched_setaffinity was refused: thread {tid} keeps its CPUs");
        }
    }
}

/// Confine every thread of this process, and every thread spawned
/// afterwards, to the one CPU the caller is running on. Returns the CPUs the
/// caller was allowed before.
///
/// Run-to-run differences on a shared host come mostly from the memory
/// system between cores (a neighbour's traffic slows every cache-line
/// hand-over and every wake-up of a sleeping core) and from the host's
/// scheduling of the second virtual CPU. A program whose threads take turns
/// on one core meets neither.
pub fn pin_to_current_cpu() -> CpuSet {
    let before = allowed_cpus();
    // SAFETY: no arguments, no memory touched.
    let cpu = unsafe { sched_getcpu() };
    assert!((0..1024).contains(&cpu), "sched_getcpu failed");
    let mut one: CpuSet = [0; 16];
    one[cpu as usize / 64] = 1 << (cpu as usize % 64);
    allow_cpus(&one);
    before
}

/// Links of the dependent chain one clock probe walks.
const PROBE_LINKS: u32 = 150_000;
/// Core cycles one link takes: an xor, a shift and a multiply, each waiting
/// for the one before (1 + 1 + 3 on every x86-64 core of the last decade).
const PROBE_CYCLES_PER_LINK: f64 = 5.0;
/// The clock every reported time is scaled to.
pub const REFERENCE_GHZ: f64 = 3.0;

/// Seconds the clock probe takes now: a chain of dependent integer
/// operations that touches no memory, so it runs at the core's clock
/// whatever a neighbour does to caches and DRAM, and a neighbour on the
/// sibling hyperthread barely slows it (the chain leaves most issue slots
/// empty). About a quarter of a millisecond.
pub fn clock_probe_seconds() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(1u64);
    for _ in 0..PROBE_LINKS {
        x = (x ^ (x >> 7)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// The core clock in GHz that a probe time stands for.
pub fn probe_ghz(probe_seconds: f64) -> f64 {
    f64::from(PROBE_LINKS) * PROBE_CYCLES_PER_LINK / probe_seconds / 1e9
}

/// The CPUs the process could use when this was first called, which is
/// before the run pins itself (`available_parallelism` counts the allowed
/// CPUs only).
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_not_with_sleep() {
        let a = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let b = process_cpu_seconds();
        assert!(b > a, "busy loop consumed no CPU time: {a} -> {b}");
        std::thread::sleep(std::time::Duration::from_millis(50));
        let c = process_cpu_seconds();
        assert!(c - b < 0.040, "sleeping 50 ms consumed {} s of CPU", c - b);
    }

    #[test]
    fn cpu_clock_counts_exited_threads() {
        let a = process_cpu_seconds();
        std::thread::spawn(|| {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            std::hint::black_box(x);
        })
        .join()
        .expect("worker");
        assert!(process_cpu_seconds() > a);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_is_undone() {
        std::thread::spawn(|| {
            let before = pin_to_current_cpu();
            assert_eq!(allowed_cpu_count(), 1);
            // A thread spawned now inherits the one CPU.
            let child = std::thread::spawn(allowed_cpus).join().expect("child");
            assert_eq!(child, allowed_cpus());
            allow_cpus(&before);
            assert_eq!(allowed_cpus(), before);
        })
        .join()
        .expect("pinning thread");
    }

    #[test]
    fn clock_probe_reads_a_plausible_clock() {
        let fastest = (0..50).map(|_| clock_probe_seconds()).fold(f64::INFINITY, f64::min);
        let ghz = probe_ghz(fastest);
        assert!((0.5..8.0).contains(&ghz), "the probe reads {ghz} GHz");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.5);
    }
}
