//! Allocation gauges, re-exported from the `dlog-alloc` counting
//! allocator shim, and per-thread read-I/O and scheduling gauges.
//!
//! The zero-copy wire path (PR 8) is validated by *counting*, not by
//! inspection: `dlog-alloc` installs a `#[global_allocator]` that
//! forwards to `std`'s `System` allocator while keeping per-process and
//! per-thread allocation tallies. Components read a gauge before and
//! after a hot-path section and report the delta — the server's
//! `allocs_per_write`, the bench harness's per-scenario column, and the
//! differential wire tests' "no allocation blow-up on malformed input"
//! assertion all come from these three functions.
//!
//! [`thread_io`] counts the same way for syscalls: the kernel's
//! per-thread read counters, so a test can pin how many reads a request
//! costs. [`thread_sched`] splits the calling thread's time into time
//! on a CPU and time runnable but waiting for one, and counts how often
//! it slept: a test can tell a wait spent sleeping from one spent
//! polling.
//!
//! Deltas, not absolutes: the counters are monotone and process-global
//! (or thread-global), so callers must subtract a starting sample with
//! wrapping arithmetic.

use std::io::Read;

pub use dlog_alloc::{process_alloc_bytes, process_allocs, thread_allocs};

/// A sample of the calling thread's read counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadIo {
    /// Read syscalls made (`read`, `pread64`, `readv`, …).
    pub syscr: u64,
    /// Bytes those syscalls returned, page-cache hits included.
    pub rchar: u64,
}

/// Test hook: the calling thread's read counters, from
/// `/proc/thread-self/io`, or `None` where that file does not exist (no
/// procfs, or not Linux).
///
/// Taking a sample is itself one read syscall of the file (and some
/// hundred bytes of `rchar`), which the next sample counts: calibrate a
/// delta against an empty section. It allocates nothing.
#[must_use]
pub fn thread_io() -> Option<ThreadIo> {
    let mut buf = [0u8; 512];
    let text = read_small("/proc/thread-self/io", &mut buf)?;
    Some(ThreadIo {
        syscr: field(text, "syscr")?,
        rchar: field(text, "rchar")?,
    })
}

/// A sample of the calling thread's scheduling counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadSched {
    /// Nanoseconds spent running on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds spent runnable on a run queue, waiting for a CPU.
    pub wait_ns: u64,
    /// Times the thread gave up its CPU to sleep (blocked in a syscall,
    /// on a futex, in `sleep`). A `yield_now` is not one.
    pub voluntary_switches: u64,
}

/// Test hook: the calling thread's scheduling counters, from
/// `/proc/thread-self/schedstat` and `/proc/thread-self/status`, or
/// `None` where those files do not exist (no procfs, or not Linux).
///
/// The kernel brings a running thread's CPU total up to date only at a
/// scheduler tick or a switch, so a sample first yields, which does it:
/// without that a 2 ms spin can read as 0 or as a whole tick. Taking a
/// sample is two read syscalls and that yield; it allocates nothing.
#[must_use]
pub fn thread_sched() -> Option<ThreadSched> {
    std::thread::yield_now();
    let mut buf = [0u8; 128];
    let text = read_small("/proc/thread-self/schedstat", &mut buf)?;
    let mut times = text.split_ascii_whitespace().map(str::parse::<u64>);
    let on_cpu_ns = times.next()?.ok()?;
    let wait_ns = times.next()?.ok()?;
    let mut buf = [0u8; 4096];
    let text = read_small("/proc/thread-self/status", &mut buf)?;
    Some(ThreadSched {
        on_cpu_ns,
        wait_ns,
        voluntary_switches: field(text, "voluntary_ctxt_switches")?,
    })
}

/// Read a procfs file of at most `buf.len()` bytes in one read syscall:
/// a buffer far larger than the file makes a sample exactly one syscall.
fn read_small<'a>(path: &str, buf: &'a mut [u8]) -> Option<&'a str> {
    let n = std::fs::File::open(path).ok()?.read(buf).ok()?;
    std::str::from_utf8(buf.get(..n)?).ok()
}

/// The number on the `name:` line of a procfs key-value file.
fn field(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(name)?.strip_prefix(':')?;
        value.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use std::io::Read;

    #[test]
    fn thread_gauge_counts_an_allocation() {
        let before = super::thread_allocs();
        // `black_box` keeps a release build from eliding the unused vector.
        let v = std::hint::black_box(vec![0u8; 4096]);
        let after = super::thread_allocs();
        assert!(after.wrapping_sub(before) >= 1, "vec alloc not counted");
        drop(v);
    }

    #[test]
    fn process_gauge_is_monotone() {
        let a = super::process_allocs();
        let _boxed = Box::new([0u8; 128]);
        let b = super::process_allocs();
        assert!(b >= a);
        assert!(super::process_alloc_bytes() > 0);
    }

    #[test]
    fn thread_io_counts_one_read_against_an_empty_section() {
        let Some(a) = super::thread_io() else {
            return; // no procfs: nothing to count with
        };
        let b = super::thread_io().unwrap();
        let empty = b.syscr - a.syscr;
        assert_eq!(empty, 1, "a sample is one read, counted by the next");
        let mut file = std::fs::File::open(std::env::current_exe().unwrap()).unwrap();
        let mut head = [0u8; 64];
        let c = super::thread_io().unwrap();
        file.read_exact(&mut head).unwrap();
        let d = super::thread_io().unwrap();
        assert_eq!(d.syscr - c.syscr - empty, 1, "one read_exact of 64 bytes");
        assert!(d.rchar - c.rchar >= 64, "the 64 bytes are counted");
        let allocs = super::thread_allocs();
        let _ = super::thread_io();
        assert_eq!(super::thread_allocs() - allocs, 0, "a sample allocates");
    }

    #[test]
    fn thread_sched_counts_a_sleep_and_a_spin() {
        let Some(a) = super::thread_sched() else {
            return; // no procfs: nothing to count with
        };
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = super::thread_sched().unwrap();
        assert!(b.voluntary_switches > a.voluntary_switches, "{a:?} {b:?}");
        let started = std::time::Instant::now();
        while started.elapsed() < std::time::Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let c = super::thread_sched().unwrap();
        assert!(c.on_cpu_ns - b.on_cpu_ns >= 1_000_000, "{b:?} {c:?}");
        let allocs = super::thread_allocs();
        let _ = super::thread_sched();
        assert_eq!(super::thread_allocs() - allocs, 0, "a sample allocates");
    }
}
