//! Deterministic in-process datagram network with fault injection.
//!
//! Tests and simulations run whole client/server clusters inside one
//! process; the network delivers encoded packets between endpoints, cuts
//! off partitioned and downed nodes, and draws every other fault from the
//! seeded [`crate::fault`] interpreter, so failure schedules reproduce.
//!
//! Every packet is round-tripped through the real wire encoding
//! ([`Packet::encode_into`] / [`Packet::decode_shared`]), so the
//! in-memory network exercises exactly the bytes UDP would carry — and
//! the same pooled, zero-copy buffer discipline: packets are encoded into
//! pooled buffers, queues pass `Arc` handles around (duplicates are
//! refcount bumps, not copies), and receivers decode payload views
//! straight out of the shared buffer.

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use dlog_types::{unpoisoned, Rank, Ranked};

use crate::fault::{FaultPlan, Faults};
use crate::pool::BufPool;
use crate::queue::{recv_from, steer, EndpointQueue};
use crate::wire::{NodeAddr, Packet, MAX_PACKET_BYTES};
use crate::Endpoint;

/// Network-wide delivery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets offered to the network.
    pub sent: u64,
    /// Packets actually enqueued for delivery (including duplicates).
    pub delivered: u64,
    /// Packets dropped by loss, partitions, or downed nodes.
    pub dropped: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Packets delivered out of order.
    pub reordered: u64,
    /// Total encoded bytes offered.
    pub bytes: u64,
}

/// Where an endpoint's inbound frames land: one queue, or one queue per
/// shard with the pick made by [`steer`] at delivery time. In-process
/// the *sending* thread steers, so a routed frame reaches its shard loop
/// with no extra thread hop; a routed UDP endpoint's socket reader
/// steers into the same queues by the same rule.
enum Route {
    Single(Arc<EndpointQueue>),
    Sharded(Arc<[Arc<EndpointQueue>]>),
}

/// Read-mostly cluster topology: which endpoints exist, which links are
/// severed, which nodes are down. Senders and receivers take the read
/// lock; only control-plane calls (partition/heal/set_down/endpoint)
/// write, so concurrent traffic to different endpoints never serializes
/// here.
struct Topology {
    queues: HashMap<NodeAddr, Route>,
    partitions: HashSet<(NodeAddr, NodeAddr)>,
    down: HashSet<NodeAddr>,
}

#[derive(Default)]
struct AtomicNetStats {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    bytes: AtomicU64,
}

struct Inner {
    topo: RwLock<Topology>,
    /// `None` under a reliable plan: its sends take no lock and no draw.
    faults: Option<Ranked<Faults<Arc<Vec<u8>>>>>,
    stats: AtomicNetStats,
}

/// A shared in-process network. Clone handles freely.
#[derive(Clone)]
pub struct MemNetwork {
    inner: Arc<Inner>,
}

impl MemNetwork {
    /// Create a network with the given fault plan.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        MemNetwork {
            inner: Arc::new(Inner {
                topo: RwLock::new(Topology {
                    queues: HashMap::new(),
                    partitions: HashSet::new(),
                    down: HashSet::new(),
                }),
                faults: plan
                    .faulty()
                    .then(|| Ranked::new(Rank::MemFaults, Faults::new(plan))),
                stats: AtomicNetStats::default(),
            }),
        }
    }

    /// Register an endpoint at `addr` (replacing any previous queue).
    #[must_use]
    pub fn endpoint(&self, addr: NodeAddr) -> MemEndpoint {
        unpoisoned(self.inner.topo.write())
            .queues
            .insert(addr, Route::Single(EndpointQueue::new()));
        MemEndpoint {
            net: self.clone(),
            addr,
            obs: dlog_obs::Obs::off(),
            pool: BufPool::for_packets(),
        }
    }

    /// Sever both directions between `a` and `b`.
    pub fn partition(&self, a: NodeAddr, b: NodeAddr) {
        let mut t = unpoisoned(self.inner.topo.write());
        t.partitions.insert((a, b));
        t.partitions.insert((b, a));
    }

    /// Restore connectivity between `a` and `b`.
    pub fn heal(&self, a: NodeAddr, b: NodeAddr) {
        let mut t = unpoisoned(self.inner.topo.write());
        t.partitions.remove(&(a, b));
        t.partitions.remove(&(b, a));
    }

    /// Mark a node down (all its traffic is dropped) or back up.
    pub fn set_down(&self, addr: NodeAddr, down: bool) {
        let mut t = unpoisoned(self.inner.topo.write());
        if down {
            t.down.insert(addr);
            // A downed node loses anything in flight to it — every shard
            // queue of a routed endpoint included.
            match t.queues.get(&addr) {
                Some(Route::Single(ep)) => ep.clear(),
                Some(Route::Sharded(eps)) => {
                    for ep in eps.iter() {
                        ep.clear();
                    }
                }
                None => {}
            }
        } else {
            t.down.remove(&addr);
        }
    }

    /// Delivery counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        let s = &self.inner.stats;
        NetStats {
            sent: s.sent.load(Ordering::Relaxed),
            delivered: s.delivered.load(Ordering::Relaxed),
            dropped: s.dropped.load(Ordering::Relaxed),
            duplicated: s.duplicated.load(Ordering::Relaxed),
            reordered: s.reordered.load(Ordering::Relaxed),
            bytes: s.bytes.load(Ordering::Relaxed),
        }
    }

    /// Fan one packet out to several destinations with a single encode:
    /// replication sends the same bytes to every target, so the encode +
    /// CRC pass is paid once and each delivery is an `Arc` refcount bump
    /// onto the same pooled buffer.
    fn send_many_impl(
        &self,
        pool: &BufPool,
        from: NodeAddr,
        tos: &[NodeAddr],
        packet: &Packet,
    ) -> io::Result<()> {
        dlog_types::lock::assert_unlocked();
        // Encode single-pass into a buffer from the *sender's own* pool:
        // per-endpoint pools keep checkout order deterministic and spare
        // the hot path a network-global lock. The queue entries below are
        // Arc handles onto this one buffer — a duplicate delivery is a
        // refcount bump, not a second copy of the bytes. The pool parks
        // our handle immediately and reissues the buffer once the receiver
        // (and any payload views it decoded) let go.
        let mut bytes = pool.checkout();
        packet.encode_into(Arc::make_mut(&mut bytes));
        if bytes.len() > MAX_PACKET_BYTES {
            let len = bytes.len();
            pool.give_back(bytes);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("packet of {len} bytes exceeds MTU {MAX_PACKET_BYTES}"),
            ));
        }
        let stats = &self.inner.stats;
        let topo = unpoisoned(self.inner.topo.read());
        for &to in tos {
            stats.sent.fetch_add(1, Ordering::Relaxed);
            stats.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            self.deliver(&topo, from, to, &bytes);
        }
        drop(topo);
        pool.give_back(bytes);
        Ok(())
    }

    /// Decide one destination's fate and enqueue accordingly. Stats are
    /// atomics; `topo` is the caller's read guard (held across a whole
    /// fan-out so a concurrent `set_down` can't split it).
    fn deliver(&self, topo: &Topology, from: NodeAddr, to: NodeAddr, bytes: &Arc<Vec<u8>>) {
        let stats = &self.inner.stats;
        let cut = topo.down.contains(&from)
            || topo.down.contains(&to)
            || topo.partitions.contains(&(from, to));
        // An unknown destination loses it, as a LAN would.
        let Some(route) = topo.queues.get(&to).filter(|_| !cut) else {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let Some(faults) = &self.inner.faults else {
            // Reliable fast path: concurrent senders only share this read
            // guard and the destination's own queue lock(s).
            return self.enqueue_routed(route, from, bytes);
        };
        // The fault-state lock serializes fate decisions AND delivery into
        // the destination queue, so the delivery order of a seeded
        // schedule stays exactly the fate order.
        let mut f = faults.lock();
        let Some([now, released, copy]) = f.fate(from, to, Arc::clone(bytes)) else {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if released.is_some() {
            stats.reordered.fetch_add(1, Ordering::Relaxed);
        }
        if copy.is_some() {
            stats.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        for (from, b) in [now, released, copy].into_iter().flatten() {
            self.enqueue_routed(route, from, &b);
        }
    }

    /// Enqueue one frame at its resolved destination: straight into a
    /// single queue, or — for a shard-routed endpoint — by [`steer`].
    fn enqueue_routed(&self, route: &Route, from: NodeAddr, bytes: &Arc<Vec<u8>>) {
        let delivered = &self.inner.stats.delivered;
        match route {
            Route::Single(ep) => {
                delivered.fetch_add(1, Ordering::Relaxed);
                ep.push(from, Arc::clone(bytes));
            }
            Route::Sharded(eps) => {
                delivered.fetch_add(steer(eps, from, bytes), Ordering::Relaxed);
            }
        }
    }

    fn recv_impl(
        &self,
        addr: NodeAddr,
        timeout: Duration,
    ) -> io::Result<Option<(NodeAddr, Packet)>> {
        // Resolve our queue under the topology read lock, then wait on the
        // queue's own lock/condvar — senders to *other* endpoints never
        // touch it.
        let ep = match unpoisoned(self.inner.topo.read()).queues.get(&addr) {
            Some(Route::Single(ep)) => Arc::clone(ep),
            Some(Route::Sharded(_)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "endpoint is shard-routed; receive on its shard handles",
                ));
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "endpoint unregistered",
                ));
            }
        };
        Ok(recv_from(&ep, timeout))
    }
}

/// An endpoint on a [`MemNetwork`].
pub struct MemEndpoint {
    net: MemNetwork,
    addr: NodeAddr,
    obs: dlog_obs::Obs,
    /// Send-side wire buffers; endpoint-local so checkout never contends
    /// with other nodes' traffic (and stays deterministic under replay).
    pool: BufPool,
}

impl MemEndpoint {
    /// Attach an observability handle; subsequent sends emit
    /// `PacketSend` trace events and latency samples.
    pub fn set_obs(&mut self, obs: dlog_obs::Obs) {
        self.obs = obs;
    }
}

impl Endpoint for MemEndpoint {
    fn local_addr(&self) -> NodeAddr {
        self.addr
    }

    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
        self.send_many(std::slice::from_ref(&to), packet)
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        self.net.recv_impl(self.addr, timeout)
    }

    fn send_many(&self, tos: &[NodeAddr], packet: &Packet) -> io::Result<()> {
        let span = self.obs.start();
        self.net
            .send_many_impl(&self.pool, self.addr, tos, packet)?;
        for &to in tos {
            self.obs
                .event(dlog_obs::Stage::PacketSend, packet.lsn_hint(), to.0);
        }
        self.obs.sample_since(dlog_obs::Stage::PacketSend, span);
        Ok(())
    }
}

/// One shard's receive handle on a routed [`MemEndpoint`]: a cached
/// reference to that shard's queue, so receiving never takes the
/// topology lock. Handles go stale when the node reboots (a fresh
/// endpoint re-registers its queues), matching a socket closed on crash.
pub struct MemShardRx {
    queue: Arc<EndpointQueue>,
}

impl crate::ShardRx for MemShardRx {
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        Ok(recv_from(&self.queue, timeout))
    }
}

impl crate::RoutedEndpoint for MemEndpoint {
    type Rx = MemShardRx;

    fn shard_rx(&self, shards: usize) -> Vec<MemShardRx> {
        let queues: Vec<Arc<EndpointQueue>> =
            (0..shards.max(1)).map(|_| EndpointQueue::new()).collect();
        let rxs = queues
            .iter()
            .map(|q| MemShardRx {
                queue: Arc::clone(q),
            })
            .collect();
        unpoisoned(self.net.inner.topo.write())
            .queues
            .insert(self.addr, Route::Sharded(queues.into()));
        rxs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Message;
    use dlog_types::{ClientId, Lsn};
    use std::time::Instant;

    fn ping(lsn: u64) -> Packet {
        Packet::bare(Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(lsn),
        })
    }

    #[test]
    fn reliable_delivery() {
        let net = MemNetwork::new(FaultPlan::reliable());
        let a = net.endpoint(NodeAddr(1));
        let b = net.endpoint(NodeAddr(2));
        a.send(NodeAddr(2), &ping(5)).unwrap();
        let (from, p) = b.recv(Duration::from_millis(100)).unwrap().unwrap();
        assert_eq!(from, NodeAddr(1));
        assert_eq!(p, ping(5));
        // Nothing else arrives.
        assert!(b.recv(Duration::from_millis(10)).unwrap().is_none());
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let net = MemNetwork::new(FaultPlan {
                loss: 0.5,
                duplicate: 0.0,
                reorder: 0.0,
                seed: 42,
            });
            let a = net.endpoint(NodeAddr(1));
            let b = net.endpoint(NodeAddr(2));
            let mut got = Vec::new();
            for i in 0..50 {
                a.send(NodeAddr(2), &ping(i)).unwrap();
            }
            while let Some((_, p)) = b.recv(Duration::from_millis(5)).unwrap() {
                if let Message::NewHighLsn { lsn, .. } = p.msg {
                    got.push(lsn.0);
                }
            }
            outcomes.push(got);
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert!(outcomes[0].len() < 50, "some packets must drop at 50% loss");
        assert!(!outcomes[0].is_empty(), "some packets must survive");
    }

    #[test]
    fn partition_blocks_both_ways() {
        let net = MemNetwork::new(FaultPlan::reliable());
        let a = net.endpoint(NodeAddr(1));
        let b = net.endpoint(NodeAddr(2));
        net.partition(NodeAddr(1), NodeAddr(2));
        a.send(NodeAddr(2), &ping(1)).unwrap();
        b.send(NodeAddr(1), &ping(2)).unwrap();
        assert!(b.recv(Duration::from_millis(10)).unwrap().is_none());
        assert!(a.recv(Duration::from_millis(10)).unwrap().is_none());
        net.heal(NodeAddr(1), NodeAddr(2));
        a.send(NodeAddr(2), &ping(3)).unwrap();
        assert!(b.recv(Duration::from_millis(100)).unwrap().is_some());
    }

    #[test]
    fn down_node_loses_traffic_and_queue() {
        let net = MemNetwork::new(FaultPlan::reliable());
        let a = net.endpoint(NodeAddr(1));
        let b = net.endpoint(NodeAddr(2));
        a.send(NodeAddr(2), &ping(1)).unwrap();
        net.set_down(NodeAddr(2), true);
        a.send(NodeAddr(2), &ping(2)).unwrap();
        net.set_down(NodeAddr(2), false);
        // Both the queued and the in-flight packet are gone.
        assert!(b.recv(Duration::from_millis(10)).unwrap().is_none());
        a.send(NodeAddr(2), &ping(3)).unwrap();
        let (_, p) = b.recv(Duration::from_millis(100)).unwrap().unwrap();
        assert_eq!(p, ping(3));
    }

    #[test]
    fn duplicates_and_reorders_happen() {
        let net = MemNetwork::new(FaultPlan {
            loss: 0.0,
            duplicate: 0.3,
            reorder: 0.3,
            seed: 7,
        });
        let a = net.endpoint(NodeAddr(1));
        let b = net.endpoint(NodeAddr(2));
        let n = 200;
        for i in 0..n {
            a.send(NodeAddr(2), &ping(i)).unwrap();
        }
        let mut got = Vec::new();
        while let Some((_, p)) = b.recv(Duration::from_millis(5)).unwrap() {
            if let Message::NewHighLsn { lsn, .. } = p.msg {
                got.push(lsn.0);
            }
        }
        assert!(got.len() as u64 > n, "duplicates should inflate the count");
        let sorted = {
            let mut s = got.clone();
            s.sort_unstable();
            s
        };
        assert_ne!(got, sorted, "reordering should scramble delivery order");
        let stats = net.stats();
        assert!(stats.duplicated > 0);
        assert!(stats.reordered > 0);
    }

    #[test]
    fn quiet_receiver_parks_and_a_send_wakes_it() {
        let net = MemNetwork::new(FaultPlan::reliable());
        let rx = net.endpoint(NodeAddr(1));
        let tx = net.endpoint(NodeAddr(2));
        use crate::queue::POLL_AFTER_RX;
        let q = match net.inner.topo.read().unwrap().queues.get(&NodeAddr(1)) {
            Some(Route::Single(q)) => Arc::clone(q),
            _ => panic!("endpoint 1 has one queue"),
        };
        std::thread::scope(|s| {
            let got = s.spawn(|| rx.recv(Duration::from_secs(30)).unwrap());
            // Nobody has written to it: it must be asleep on the condvar,
            // not polling out its timeout.
            let deadline = Instant::now() + Duration::from_secs(10);
            while q.inbox.lock().sleepers == 0 {
                assert!(Instant::now() < deadline, "receiver never parked");
                std::thread::yield_now();
            }
            assert_eq!(q.inbox.lock().last_rx, None);
            tx.send(NodeAddr(1), &ping(7)).unwrap();
            assert_eq!(got.join().unwrap().unwrap().1, ping(7));
        });
        // The frame it took is what the next wait's polling is timed from.
        assert!(q.inbox.lock().last_rx.is_some(), "stamped by the pop");
        // A wait that outlasts the polling span still ends at its timeout.
        let t = Instant::now();
        assert!(rx.recv(POLL_AFTER_RX * 20).unwrap().is_none());
        assert!(t.elapsed() >= POLL_AFTER_RX * 20);
    }

    #[test]
    fn unknown_destination_is_dropped() {
        let net = MemNetwork::new(FaultPlan::reliable());
        let a = net.endpoint(NodeAddr(1));
        a.send(NodeAddr(99), &ping(1)).unwrap();
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn oversized_packet_rejected() {
        let net = MemNetwork::new(FaultPlan::reliable());
        let a = net.endpoint(NodeAddr(1));
        let _b = net.endpoint(NodeAddr(2));
        let big = Packet::bare(Message::WriteLog {
            client: ClientId(1),
            epoch: dlog_types::Epoch(1),
            records: vec![(
                Lsn(1),
                dlog_types::LogData::from(vec![0u8; MAX_PACKET_BYTES]),
            )],
        });
        assert!(a.send(NodeAddr(2), &big).is_err());
    }
}
