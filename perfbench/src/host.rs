//! Host clocks and host memory: per-thread CPU time, peak resident set,
//! and the number of host cores. The foreign calls go straight to libc,
//! which std already links, so no crate is needed.

use std::time::Instant;

// The constants and struct layouts below are those of 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux per-thread CPU clocks and resource usage");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread, in nanoseconds.
///
/// # Panics
///
/// Panics if the kernel rejects the clock, which only happens on a
/// platform without per-thread CPU clocks.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall and thread-CPU time of one closure call, in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let wall = Instant::now();
    let cpu = thread_cpu_ns();
    let out = f();
    let cpu_ms = (thread_cpu_ns() - cpu) as f64 / 1e6;
    (out, wall.elapsed().as_secs_f64() * 1e3, cpu_ms)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s, of
/// which `ru_maxrss` (peak resident set, KiB) is the first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

/// `RUSAGE_SELF` from `<sys/resource.h>`.
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of this process in MiB: `VmHWM` from the
/// process's own `/proc/self/status`, which starts afresh at `exec`.
/// Where that file cannot be read, `getrusage`'s `ru_maxrss`, which also
/// counts the image that exec'd this one (e.g. the launching `cargo`).
pub fn peak_rss_mb() -> f64 {
    let vm_hwm_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    vm_hwm_kib.unwrap_or_else(max_rss_kib) / 1024.0
}

/// `getrusage(RUSAGE_SELF)`'s peak resident set, KiB.
///
/// # Panics
///
/// Panics if the kernel rejects the query, which correct use cannot
/// cause.
fn max_rss_kib() -> f64 {
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the whole
    // call, and `RUSAGE_SELF` is a constant the kernel accepts.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss_kib as f64
}

/// Logical CPUs visible to this process (1 if the query fails).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Host threads the benchmark runs configs on: one, on every host. Two
/// configs stepping at once on a small shared host slow each other by a
/// share that changes from round to round, so a round runs its configs
/// one after another on the calling thread.
pub const WORKERS: usize = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let before = thread_cpu_ns();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(0x9e37_79b9).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > before);
    }

    #[test]
    fn peak_rss_covers_touched_memory() {
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mb() >= 64.0);
        assert!(max_rss_kib() >= 64.0 * 1024.0);
    }
}
