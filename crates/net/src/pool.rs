//! Fixed-size receive/send buffer pool for the zero-copy wire path.
//!
//! The hot loop checks a buffer out, fills it (either by
//! [`Packet::encode_into`](crate::wire::Packet::encode_into) on send or a
//! socket read on receive), hands it to
//! [`Packet::decode_shared`](crate::wire::Packet::decode_shared) — which
//! leaves [`dlog_types::LogData`] views pointing into it — and gives it
//! straight back. A buffer that still has live payload views is parked:
//! [`BufPool::checkout`] only reissues buffers whose `Arc` refcount has
//! dropped back to one, so reuse can never scribble over a record another
//! component is still reading. In steady state (payloads consumed before
//! the next poll) every packet is served from the same few buffers and the
//! per-packet allocation count on the wire path is zero.
//!
//! The pool is deliberately tiny and per-endpoint rather than global:
//! endpoint-local pools keep checkout order — and therefore allocation
//! counts — deterministic under the deterministic schedules the replay
//! tests pin down.

use std::collections::VecDeque;
use std::sync::Arc;

use dlog_types::{Rank, Ranked};

/// Default number of parked buffers per pool: enough for a full ingest
/// batch plus in-flight replies.
pub const DEFAULT_POOL_SLOTS: usize = 64;

/// A bounded pool of reusable `Arc<Vec<u8>>` wire buffers.
pub struct BufPool {
    slots: Ranked<VecDeque<Arc<Vec<u8>>>>,
    max_slots: usize,
    buf_capacity: usize,
}

impl BufPool {
    /// A pool holding at most `max_slots` parked buffers, each created
    /// with `buf_capacity` bytes of capacity.
    #[must_use]
    pub fn new(max_slots: usize, buf_capacity: usize) -> Self {
        BufPool {
            slots: Ranked::new(Rank::BufPool, VecDeque::with_capacity(max_slots)),
            max_slots,
            buf_capacity,
        }
    }

    /// A pool sized for wire packets: [`DEFAULT_POOL_SLOTS`] buffers of
    /// [`MAX_PACKET_BYTES`](crate::wire::MAX_PACKET_BYTES) + slack each.
    #[must_use]
    pub fn for_packets() -> Self {
        BufPool::new(DEFAULT_POOL_SLOTS, crate::wire::MAX_PACKET_BYTES + 64)
    }

    /// Check out a buffer that is guaranteed unique (refcount one), so
    /// `Arc::make_mut` on it never copies. Parked buffers still shared
    /// with live payload views are skipped (and retained for later);
    /// when none is free a fresh buffer is allocated.
    #[must_use]
    pub fn checkout(&self) -> Arc<Vec<u8>> {
        {
            let mut slots = self.slots.lock();
            let parked = slots.len();
            for _ in 0..parked {
                match slots.pop_front() {
                    Some(mut buf) => {
                        if Arc::get_mut(&mut buf).is_some() {
                            return buf;
                        }
                        // Still referenced by a LogData view: park again.
                        slots.push_back(buf);
                    }
                    None => break,
                }
            }
        }
        Arc::new(Vec::with_capacity(self.buf_capacity))
    }

    /// Return a buffer to the pool. Safe to call while payload views into
    /// the buffer are still alive — it will not be reissued until they
    /// drop. Buffers beyond the pool bound are simply freed.
    pub fn give_back(&self, buf: Arc<Vec<u8>>) {
        let mut slots = self.slots.lock();
        if slots.len() < self.max_slots {
            slots.push_back(buf);
        }
    }

    /// Number of currently parked buffers (free or awaiting view drop).
    #[must_use]
    pub fn parked(&self) -> usize {
        self.slots.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_returned_buffer() {
        let pool = BufPool::new(4, 128);
        let mut a = pool.checkout();
        Arc::make_mut(&mut a).extend_from_slice(b"hello");
        let ptr = a.as_ptr() as usize;
        pool.give_back(a);
        let b = pool.checkout();
        assert_eq!(b.as_ptr() as usize, ptr, "buffer was not reused");
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn shared_buffer_is_not_reissued_until_views_drop() {
        let pool = BufPool::new(4, 128);
        let a = pool.checkout();
        let view = Arc::clone(&a); // stands in for a LogData payload view
        pool.give_back(a);
        let b = pool.checkout();
        assert_ne!(
            b.as_ptr(),
            view.as_ptr(),
            "pool reissued a buffer with a live view"
        );
        pool.give_back(b);
        drop(view);
        // With the view gone the parked buffer is unique again.
        let c = pool.checkout();
        let d = pool.checkout();
        assert_eq!(pool.parked(), 0);
        drop((c, d));
    }

    #[test]
    fn pool_bound_is_respected() {
        let pool = BufPool::new(2, 16);
        let bufs: Vec<_> = (0..5).map(|_| pool.checkout()).collect();
        for b in bufs {
            pool.give_back(b);
        }
        assert_eq!(pool.parked(), 2);
    }
}
