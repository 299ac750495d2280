//! **dlog-alloc** — a counting shim over the system allocator.
//!
//! The zero-copy wire path (ROADMAP item 3) is only verifiable if
//! allocation counts are *measured*, not eyeballed: `dlog-obs` exposes
//! the gauges collected here as `allocs_per_write`, `benchmark/` reports
//! them as `process.allocs_per_rec`, and `tests/trace_determinism.rs`
//! fails when the reliable replay allocates more than its ceiling. The
//! shim forwards every call straight to [`System`] and adds two relaxed
//! atomic increments plus one thread-local increment — a few nanoseconds
//! per allocation, which is noise next to the allocation itself.
//!
//! Two gauges are kept:
//!
//! * **process-wide** totals (allocation count and bytes), served from
//!   relaxed atomics — what `benchmark/` divides by the record count;
//! * a **per-thread** allocation count, served from a `const`-initialized
//!   thread-local `Cell` so reading or bumping it never allocates — what
//!   the determinism tests compare across seeded replays (counts from
//!   unrelated threads must not bleed in).
//!
//! This is the one crate in the workspace that needs `unsafe`
//! (`GlobalAlloc` is an unsafe trait): its `Cargo.toml` denies
//! `unsafe_code` instead of inheriting the workspace's `forbid`, and the
//! one impl carries the only `#[allow(unsafe_code)]`. Nothing here can
//! panic: the thread-local read falls back to 0 during TLS teardown.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialization: touching the cell never allocates, so the
    // counter can be bumped from inside the allocator itself.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count(bytes: usize) {
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // During thread teardown the TLS slot may already be gone; losing
    // those few counts is fine (and unavoidable without a lock).
    #[expect(
        clippy::let_underscore_must_use,
        reason = "a TLS slot already torn down loses a few counts, and nothing can be done about it inside the allocator"
    )]
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

/// The counting allocator. Registered as the global allocator by this
/// crate; every binary that (transitively) depends on `dlog-alloc` gets
/// counted allocations with no further setup.
pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counters touched before forwarding cannot
// unwind (relaxed atomics and a `try_with` thread-local access).
#[allow(
    unsafe_code,
    reason = "counting global allocator must implement the unsafe GlobalAlloc trait"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by this process since startup (all threads).
#[must_use]
pub fn process_allocs() -> u64 {
    TOTAL_ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested from the allocator since startup (all threads; counts
/// requests, not live bytes — frees are not subtracted).
#[must_use]
pub fn process_alloc_bytes() -> u64 {
    TOTAL_BYTES.load(Ordering::Relaxed)
}

/// Allocations performed by the *calling thread* since it started.
/// Deterministic under a deterministic schedule: counts from other
/// threads never bleed in, so two seeded replays on fresh threads (or
/// the same thread) see identical deltas for identical work.
#[must_use]
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_on_allocation() {
        let (p0, b0, t0) = (process_allocs(), process_alloc_bytes(), thread_allocs());
        let v: Vec<u8> = Vec::with_capacity(4096);
        assert!(v.capacity() >= 4096);
        assert!(process_allocs() > p0, "process alloc count did not move");
        assert!(
            process_alloc_bytes() >= b0 + 4096,
            "byte gauge missed a 4 KiB allocation"
        );
        assert!(thread_allocs() > t0, "thread alloc count did not move");
    }

    #[test]
    fn thread_counter_is_thread_local() {
        let before = thread_allocs();
        std::thread::spawn(|| {
            let mut v = Vec::new();
            for i in 0..1000u64 {
                v.push(vec![0u8; 64]);
                v[0][0] = i as u8;
            }
        })
        .join()
        .unwrap();
        let after = thread_allocs();
        // The spawned thread's ~1000 allocations must not land on ours.
        // (A few allocations on this thread from the join machinery are
        // tolerated.)
        assert!(
            after - before < 100,
            "foreign thread allocations bled into the local counter: {}",
            after - before
        );
    }

    #[test]
    // The init-then-push shape is the point: the second push must grow
    // the vec so the realloc registers as a distinct allocation.
    #[allow(clippy::vec_init_then_push)]
    fn vec_growth_is_counted_per_reallocation() {
        let t0 = thread_allocs();
        let mut v: Vec<u64> = Vec::with_capacity(1);
        v.push(1);
        v.push(2); // forces a realloc
        assert!(thread_allocs() >= t0 + 2);
    }
}
