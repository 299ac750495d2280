//! Pins the exact fault schedules `MemNetwork` draws from a seeded
//! `FaultPlan`: the delivered sequence at each destination and the
//! network's counters. The lossy benchmark workload, the soak test and
//! the seed corpus all replay these schedules, so a change to the order
//! in which the fault interpreter draws (loss, then duplicate, then
//! hold) or to its one-held-frame-per-destination rule fails here
//! first.

use std::time::Duration;

use dlog_net::mem::NetStats;
use dlog_net::wire::{Message, NodeAddr, Packet};
use dlog_net::{Endpoint, FaultPlan, MemNetwork};
use dlog_types::{ClientId, Lsn};

const SENDS: u64 = 2_000;
const DESTS: [NodeAddr; 2] = [NodeAddr(2), NodeAddr(3)];

/// FNV-1a over the delivered LSNs, destination by destination.
fn digest(seqs: &[Vec<u64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for seq in seqs {
        for &x in seq.iter().chain([u64::MAX].iter()) {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// `SENDS` two-destination sends from one endpoint; returns what each
/// destination received, in order, and the network's counters.
fn run(plan: FaultPlan) -> (Vec<Vec<u64>>, NetStats) {
    let net = MemNetwork::new(plan);
    let tx = net.endpoint(NodeAddr(1));
    let rxs: Vec<_> = DESTS.iter().map(|&d| net.endpoint(d)).collect();
    for i in 0..SENDS {
        let ping = Packet::bare(Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(i),
        });
        tx.send_many(&DESTS, &ping).unwrap();
    }
    let seqs = rxs
        .iter()
        .map(|rx| {
            let mut seq = Vec::new();
            while let Some((from, p)) = rx.recv(Duration::ZERO).unwrap() {
                assert_eq!(from, NodeAddr(1));
                let Message::NewHighLsn { lsn, .. } = p.msg else {
                    panic!("unexpected {:?}", p.msg)
                };
                seq.push(lsn.0);
            }
            seq
        })
        .collect();
    (seqs, net.stats())
}

/// Checks one plan's run against the figures the interpreter produced
/// when this test was written: per-destination delivery counts, the
/// network's counters, the first deliveries at `NodeAddr(2)`, and a
/// digest of every delivery.
fn check(plan: FaultPlan, lens: [usize; 2], want: NetStats, head: [u64; 12], want_digest: u64) {
    let (seqs, stats) = run(plan);
    assert_eq!(seqs.iter().map(Vec::len).collect::<Vec<_>>(), lens);
    assert_eq!(stats, want);
    assert_eq!(seqs[0][..12], head);
    assert_eq!(digest(&seqs), want_digest, "delivery order moved");
}

fn stats(delivered: u64, dropped: u64, duplicated: u64, reordered: u64) -> NetStats {
    NetStats {
        sent: 2 * SENDS,
        delivered,
        dropped,
        duplicated,
        reordered,
        bytes: 2 * SENDS * 33,
    }
}

#[test]
fn flaky_schedule_is_pinned() {
    check(
        FaultPlan::flaky(0xD106),
        [1987, 1981],
        stats(3968, 50, 18, 88),
        [0, 1, 2, 4, 3, 5, 6, 7, 8, 9, 11, 12],
        0x7172_87d8_9935_03c5,
    );
}

#[test]
fn hostile_schedule_is_pinned() {
    check(
        FaultPlan::hostile(7),
        [1756, 1786],
        stats(3542, 615, 157, 305),
        [0, 0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11],
        0xd9d2_26a2_0118_30c6,
    );
}

/// No loss: a faulty plan still draws the loss roll first.
#[test]
fn duplicate_and_reorder_schedule_is_pinned() {
    let plan = FaultPlan {
        loss: 0.0,
        duplicate: 0.3,
        reorder: 0.3,
        seed: 7,
    };
    check(
        plan,
        [2592, 2612],
        stats(5204, 0, 1205, 926),
        [0, 0, 2, 1, 3, 5, 4, 5, 7, 6, 7, 8],
        0x0daf_06eb_37ed_f35b,
    );
}
