//! Inbound frame queues, shared by both transports: encoded frames go
//! in (steered to a shard by [`steer`] on routed endpoints), and the
//! receiver decodes them on pop, zero-copy.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use dlog_types::{Rank, Ranked};

use crate::wire::{NodeAddr, Packet};

/// One receiver's frame queue, with its own lock and condvar so a push
/// wakes exactly the destination thread — never the whole cluster.
/// On a loaded box the difference between `notify_one` on the target and
/// a global `notify_all` is the difference between one context switch
/// per packet and N.
pub(crate) struct EndpointQueue {
    pub(crate) inbox: Ranked<Inbox>,
    cv: Condvar,
}

impl EndpointQueue {
    pub(crate) fn new() -> Arc<EndpointQueue> {
        Arc::new(EndpointQueue {
            inbox: Ranked::new(Rank::MemInbox, Inbox::default()),
            cv: Condvar::new(),
        })
    }

    /// Push one frame and wake a sleeping receiver (skipping the notify
    /// syscall entirely when the receiver is running or spin-polling).
    pub(crate) fn push(&self, from: NodeAddr, bytes: Arc<Vec<u8>>) {
        let mut b = self.inbox.lock();
        b.q.push_back((from, bytes));
        let wake = b.sleepers > 0;
        drop(b);
        if wake {
            self.cv.notify_one();
        }
    }

    /// Drop everything in flight (node marked down).
    pub(crate) fn clear(&self) {
        self.inbox.lock().q.clear();
    }
}

/// The queue plus a count of receivers blocked on the condvar, guarded
/// by the same mutex: a sender that sees `sleepers == 0` skips the
/// notify syscall entirely (the receiver is running, or spin-polling,
/// and will find the packet itself), and the shared lock makes the
/// check race-free — a receiver increments before releasing the lock to
/// sleep, so a sender can never observe stale zero.
#[derive(Default)]
pub(crate) struct Inbox {
    pub(crate) q: VecDeque<(NodeAddr, Arc<Vec<u8>>)>,
    pub(crate) sleepers: u32,
    /// When a receiver last took a frame off `q`.
    pub(crate) last_rx: Option<Instant>,
}

/// How long after its last frame a receiver keeps polling an empty queue
/// (ceding the CPU between polls) before it pays the futex sleep. On an
/// oversubscribed box the sender is usually runnable: `yield_now` lets it
/// push and the next poll finds the packet, saving the sleep/wake syscall
/// pair on both sides of every round trip.
///
/// A span of time, not a number of polls: a poll takes 0.2 µs when the
/// receiver has its core to itself and a scheduler rotation when it
/// shares one, so a count is a budget of anything from 10 µs to 1 ms that
/// shrinks as the peers get faster. Too short, and a lone receiver falls
/// asleep inside a single round trip, where a wake-up costs ten to a
/// thousand polls on a virtual CPU. Too long, and nobody in a busy
/// exchange ever sleeps — and a thread that never sleeps is never placed
/// again: waking a sleeper is the scheduler's one chance to put it on an
/// idle core or beside its sender, and threads across cores from their
/// peers run a third slower. 100 µs is several round trips plus a track
/// flush, so an exchange in step never sleeps, and short of every real
/// pause: a receiver whose peer has stopped, or whose every wait is long
/// because of where it runs, sleeps and is placed afresh by the next
/// packet.
pub(crate) const POLL_AFTER_RX: Duration = Duration::from_micros(100);

/// Push one frame to the queue its header's log hint hashes to
/// ([`Packet::peek_route_hint`], [`LogId::shard`](dlog_types::LogId::shard)),
/// or to every queue when the hint is zero: shard-agnostic control
/// traffic (`Status`, `Stats`) and body-routed RPCs, which each shard's
/// ownership guard filters. Returns how many queues the frame reached.
pub(crate) fn steer(queues: &[Arc<EndpointQueue>], from: NodeAddr, bytes: &Arc<Vec<u8>>) -> u64 {
    match Packet::peek_route_hint(bytes) {
        Some(id) => {
            let Some(q) = queues.get(id.shard(queues.len())) else {
                return 0;
            };
            q.push(from, Arc::clone(bytes));
            1
        }
        None => {
            for q in queues {
                q.push(from, Arc::clone(bytes));
            }
            queues.len() as u64
        }
    }
}

/// Pop one frame from `ep` within `timeout` and decode it zero-copy:
/// payloads are views into the pooled buffer; dropping the handle leaves
/// the buffer parked in the pool until those views are released. Shared
/// by every receive on a queue. A corrupt datagram is dropped (`None`),
/// as a NIC would.
pub(crate) fn recv_from(ep: &EndpointQueue, timeout: Duration) -> Option<(NodeAddr, Packet)> {
    dlog_types::lock::assert_unlocked();
    let mut now = Instant::now();
    let deadline = now + timeout;
    loop {
        {
            let mut b = ep.inbox.lock();
            loop {
                if let Some((from, bytes)) = b.q.pop_front() {
                    b.last_rx = Some(now);
                    drop(b);
                    return match Packet::decode_shared(&bytes) {
                        Ok(p) => Some((from, p)),
                        Err(_) => None,
                    };
                }
                now = Instant::now();
                if now >= deadline {
                    return None;
                }
                if b.last_rx.is_some_and(|rx| now < rx + POLL_AFTER_RX) {
                    // Cooperative poll: release the lock and cede the
                    // CPU below so the sender can run, then re-check —
                    // cheaper than a futex sleep when the packet is
                    // about to arrive anyway.
                    break;
                }
                b.sleepers += 1;
                b = b.wait_timeout(&ep.cv, deadline - now).0;
                b.sleepers -= 1;
                now = Instant::now();
            }
        }
        std::thread::yield_now();
    }
}
