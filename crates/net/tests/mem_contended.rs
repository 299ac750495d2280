//! Contended stress tests for the in-memory network's sleeper-count
//! condvar protocol (`Inbox.sleepers` under `EndpointQueue.inbox`).
//!
//! The send path skips the notify syscall whenever it observes
//! `sleepers == 0`; the receive path increments the count *before*
//! releasing the lock to sleep. The correctness claim is that this
//! lock-coupled handoff can never lose a wakeup: a sender either sees
//! the sleeper (and notifies) or the receiver has not slept yet (and
//! will find the packet on its next locked poll). These tests drive
//! the transition hard from both sides — many senders racing one
//! blocked receiver, bursts separated by idle gaps that force the
//! futex sleep, and two receivers draining one queue — and fail on a
//! bounded wall-clock budget instead of hanging if a wakeup is lost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dlog_net::wire::Message;
use dlog_net::{Endpoint, NodeAddr, Packet};
use dlog_net::{FaultPlan, MemNetwork};
use dlog_types::{ClientId, Lsn};

fn ping(lsn: u64) -> Packet {
    Packet::bare(Message::NewHighLsn {
        client: ClientId(1),
        lsn: Lsn(lsn),
    })
}

fn lsn_of(p: &Packet) -> u64 {
    match &p.msg {
        Message::NewHighLsn { lsn, .. } => lsn.0,
        other => panic!("unexpected message: {other:?}"),
    }
}

/// Many senders race one receiver. The reliable plan drops and
/// duplicates nothing, so every packet must arrive exactly once; the
/// LSN checksum catches loss and duplication together. The receiver
/// outruns the senders between bursts, so it repeatedly exhausts its
/// spin budget and enters the condvar sleep exactly when senders are
/// deciding whether to notify — the race under test.
#[test]
fn many_senders_never_lose_a_wakeup() {
    const SENDERS: u64 = 8;
    const PER_SENDER: u64 = 500;
    let deadline = Instant::now() + Duration::from_secs(60);

    let net = MemNetwork::new(FaultPlan::reliable());
    let rx = net.endpoint(NodeAddr(0));
    let mut received = 0u64;
    let mut checksum = 0u64;
    std::thread::scope(|s| {
        for t in 0..SENDERS {
            let tx = net.endpoint(NodeAddr(t + 1));
            s.spawn(move || {
                for i in 0..PER_SENDER {
                    tx.send(NodeAddr(0), &ping(t * PER_SENDER + i + 1)).unwrap();
                    if i % 64 == 0 {
                        // Let the receiver drain and go back to sleep so
                        // later sends hit a parked receiver, not a warm
                        // spin loop.
                        std::thread::yield_now();
                    }
                }
            });
        }
        while received < SENDERS * PER_SENDER {
            assert!(
                Instant::now() < deadline,
                "lost wakeup or deadlock: {received} of {} packets after 60s",
                SENDERS * PER_SENDER
            );
            if let Some((_, p)) = rx.recv(Duration::from_millis(200)).unwrap() {
                received += 1;
                checksum += lsn_of(&p);
            }
        }
    });
    let n = SENDERS * PER_SENDER;
    assert_eq!(received, n);
    assert_eq!(checksum, n * (n + 1) / 2, "a packet was lost or duplicated");
    let stats = net.stats();
    assert_eq!(stats.sent, n);
    assert_eq!(stats.delivered, n);
    assert_eq!(stats.dropped, 0);
}

/// Bursts separated by idle gaps: every gap is long enough for the
/// receiver to poll out its 100 µs and park on the condvar, so each
/// burst's first send must take the `sleepers > 0` notify branch. A
/// lost wakeup would strand the receiver until its timeout; the tight
/// per-burst budget turns that into a failure instead of a slow pass.
#[test]
fn sleep_wake_transitions_deliver_every_burst() {
    const BURSTS: u64 = 40;
    const BURST_LEN: u64 = 5;

    let net = MemNetwork::new(FaultPlan::reliable());
    let rx = net.endpoint(NodeAddr(0));
    let tx = net.endpoint(NodeAddr(1));
    std::thread::scope(|s| {
        s.spawn(move || {
            for b in 0..BURSTS {
                for i in 0..BURST_LEN {
                    tx.send(NodeAddr(0), &ping(b * BURST_LEN + i + 1)).unwrap();
                }
                // Idle long enough for the receiver to finish the burst,
                // stop polling, and park before the next burst begins.
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let mut next = 1u64;
        let deadline = Instant::now() + Duration::from_secs(30);
        while next <= BURSTS * BURST_LEN {
            assert!(
                Instant::now() < deadline,
                "receiver stranded at packet {next}: wakeup lost after a sleep transition"
            );
            if let Some((_, p)) = rx.recv(Duration::from_millis(100)).unwrap() {
                // One sender, reliable plan: arrival order is send order.
                assert_eq!(lsn_of(&p), next, "burst delivery out of order");
                next += 1;
            }
        }
    });
}

/// Two receiver threads share one endpoint queue, so `notify_one` must
/// pick a parked receiver that actually drains the packet. Both
/// receivers sleeping while a packet sits queued would be a lost
/// wakeup; the budget bounds the test instead of hanging it.
#[test]
fn competing_receivers_drain_the_queue() {
    const TOTAL: u64 = 2_000;

    let net = MemNetwork::new(FaultPlan::reliable());
    let rx = net.endpoint(NodeAddr(0));
    let received = AtomicU64::new(0);
    let checksum = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let rx = &rx;
            let received = &received;
            let checksum = &checksum;
            s.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(60);
                while received.load(Ordering::Relaxed) < TOTAL {
                    assert!(
                        Instant::now() < deadline,
                        "competing receivers stalled: lost wakeup with a non-empty queue"
                    );
                    if let Some((_, p)) = rx.recv(Duration::from_millis(50)).unwrap() {
                        checksum.fetch_add(lsn_of(&p), Ordering::Relaxed);
                        received.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        let tx = net.endpoint(NodeAddr(1));
        for i in 1..=TOTAL {
            tx.send(NodeAddr(0), &ping(i)).unwrap();
            if i % 128 == 0 {
                std::thread::yield_now();
            }
        }
    });
    assert_eq!(received.load(Ordering::Relaxed), TOTAL);
    assert_eq!(
        checksum.load(Ordering::Relaxed),
        TOTAL * (TOTAL + 1) / 2,
        "a packet was lost or duplicated across the two receivers"
    );
}
