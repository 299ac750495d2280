//! Allocation gauges, re-exported from the `dlog-alloc` counting
//! allocator shim, and a per-thread read-I/O gauge.
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
//! costs.
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
    // One read of a buffer far larger than the file's ~100 bytes, so a
    // sample is always exactly one syscall.
    let mut buf = [0u8; 512];
    let n = std::fs::File::open("/proc/thread-self/io")
        .ok()?
        .read(&mut buf)
        .ok()?;
    let text = std::str::from_utf8(buf.get(..n)?).ok()?;
    let field = |name: &str| {
        text.lines().find_map(|line| {
            let value = line.strip_prefix(name)?.strip_prefix(':')?;
            value.trim().parse().ok()
        })
    };
    Some(ThreadIo {
        syscr: field("syscr")?,
        rchar: field("rchar")?,
    })
}

#[cfg(test)]
mod tests {
    use std::io::Read;

    #[test]
    fn thread_gauge_counts_an_allocation() {
        let before = super::thread_allocs();
        let v = vec![0u8; 4096];
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
}
