//! The protocol over real UDP sockets.
//!
//! §4.2 argues the log service should be implemented on "specialized
//! protocols, rather than being layered on top of expensive general
//! purpose protocols", exploiting "the inherent reliability of local area
//! networks" with end-to-end error detection. UDP datagrams on a LAN (or
//! loopback) are exactly that substrate: unordered, unacknowledged,
//! occasionally lost — and the logging protocol above supplies the
//! end-to-end recovery.
//!
//! # Receive modes
//!
//! Every receive waits by the rule of the in-memory queues
//! (`queue::recv_from`), with the same constant, `POLL_AFTER_RX`
//! (100 µs). Within that span of the last datagram it polls the
//! non-blocking socket, one `recvfrom` and then a `yield_now`, until a
//! datagram comes, the span ends or the caller's timeout does. Only then
//! does it put the socket in blocking mode under `SO_RCVTIMEO` and sleep
//! for the rest of the wait. A busy exchange so never sleeps, and a
//! peer's `sendto` has no sleeping thread to wake; an idle receiver
//! spends at most `POLL_AFTER_RX` of yielding polls after each datagram.
//!
//! [`Endpoint::recv`] with `Duration::ZERO` is a single poll: the
//! server's ingest drain and group-commit check and the client's ack
//! drain all call it on every packet. `SO_RCVTIMEO` cannot express that.
//! The kernel rounds a receive timeout up to whole scheduler ticks (4 ms
//! at `CONFIG_HZ=250`), and std maps a zero timeout to "block forever".
//!
//! The socket caches the non-blocking flag it last set, so a busy
//! exchange makes no mode syscall at all. Falling asleep costs one
//! `FIONBIO` ioctl and one `SO_RCVTIMEO`, and the first poll after a
//! sleep one `FIONBIO` more. The cache is sound because one thread
//! receives on a socket: a one-shard server's loop, the client's single
//! logging process (§3.1), or a routed endpoint's socket reader. Other
//! threads may send concurrently; sending never touches the mode.
//!
//! A send on a socket that polling has left non-blocking, as it is for
//! the whole of a busy stretch, fails with `WouldBlock` when the
//! socket's send buffer is full, where a blocking socket would have
//! waited. That happens only on a real NIC (loopback frees the buffer at
//! transmit). Both ends take it as loss, which the protocol recovers from
//! end to end: the client's `ClientNet` drops the datagram and its
//! retransmission timers resend what mattered, and the server's reply
//! loop drops the reply and counts it (`ServerStats::replies_shed`), so
//! a full send buffer sheds replies rather than stalling the server.
//!
//! One `try_clone`d socket per mode does not work instead: `try_clone` is
//! `dup`, and the copy shares the open file's status flags (`O_NONBLOCK`)
//! and its socket options (`SO_RCVTIMEO`) with the original.
//!
//! # Shard routing
//!
//! Clients know one socket per server, so a sharded server steers behind
//! it: [`RoutedEndpoint::shard_rx`] hands the receive side to one reader
//! thread, which steers each still-encoded frame into the per-shard
//! queues the in-memory transport uses, by the same rule. The last shard
//! handle to drop stops the reader and waits until it lets go of the
//! socket.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dlog_types::unpoisoned;

use crate::pool::BufPool;
use crate::queue::{recv_from, steer, EndpointQueue, POLL_AFTER_RX};
use crate::wire::{NodeAddr, Packet, MAX_PACKET_BYTES};
use crate::{Endpoint, RoutedEndpoint, ShardRx};

/// How long a routed endpoint's socket reader waits for one datagram
/// (polling first, as every receive does) before it checks whether its
/// shard handles are still there.
const READER_WAIT: Duration = Duration::from_millis(20);

/// The body of a routed endpoint's reader thread.
type Serve = fn(&Reader) -> io::Result<()>;

/// A UDP endpoint with a logical-address directory.
///
/// Any thread may send, but only one thread may receive: the receive
/// mode is cached without a lock (see the [module docs](self)).
pub struct UdpEndpoint {
    inner: Arc<Inner>,
    /// Whether a socket reader owns the receive side (`shard_rx`).
    routed: AtomicBool,
    addr: NodeAddr,
    obs: dlog_obs::Obs,
}

/// What sends, receives and a routed endpoint's socket reader share.
struct Inner {
    socket: UdpSocket,
    /// Reusable send/receive buffers: sends encode single-pass into a
    /// pooled buffer, receives decode zero-copy payload views out of one.
    pool: BufPool,
    /// Logical → socket address directory.
    directory: RwLock<HashMap<NodeAddr, SocketAddr>>,
    /// Reverse map for attributing received datagrams.
    reverse: RwLock<HashMap<SocketAddr, NodeAddr>>,
    /// Accept datagrams from unknown sources by auto-registering them
    /// under a synthetic logical address (server deployments, where
    /// client ports are ephemeral).
    promiscuous: AtomicBool,
    /// Whether the socket is in non-blocking mode (a poll left it so).
    /// The atomics only make `Inner` `Sync`: one thread receives.
    nonblocking: AtomicBool,
    /// Until when receives poll: `POLL_AFTER_RX` past the last datagram,
    /// in nanoseconds since `born` (0 before the first).
    poll_until: AtomicU64,
    born: Instant,
}

impl Inner {
    /// Read one datagram within `timeout` by the [module's](self) wait
    /// rule: poll while within `POLL_AFTER_RX` of the last datagram, then
    /// sleep under `SO_RCVTIMEO` for the rest of the wait. ZERO is a
    /// single poll.
    fn recv_frame(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Arc<Vec<u8>>)>> {
        let mut now = Instant::now();
        let deadline = now + timeout;
        loop {
            let poll =
                timeout.is_zero() || self.nanos(now) < self.poll_until.load(Ordering::Relaxed);
            self.set_nonblocking(poll)?;
            if !poll {
                // Positive, as `SO_RCVTIMEO` needs: the loop leaves once
                // `now` reaches the deadline.
                self.socket.set_read_timeout(Some(deadline - now))?;
            }
            if let Some(frame) = self.read_frame()? {
                let until = self.nanos(Instant::now() + POLL_AFTER_RX);
                self.poll_until.store(until, Ordering::Relaxed);
                return Ok(Some(frame));
            }
            now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            if poll {
                // Cede the CPU so a sender sharing it can run, as
                // `queue::recv_from` does.
                std::thread::yield_now();
            }
        }
    }

    /// `at` in nanoseconds since the socket was bound.
    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.born).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Put the socket in non-blocking mode or take it out, unless the
    /// cache says it already is.
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        if self.nonblocking.load(Ordering::Relaxed) != on {
            self.socket.set_nonblocking(on)?;
            self.nonblocking.store(on, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Read one datagram into a pooled buffer, in whatever mode the
    /// socket is in, and attribute it to its sender. `None` when nothing
    /// arrived in time or the sender is an unknown party (dropped).
    fn read_frame(&self) -> io::Result<Option<(NodeAddr, Arc<Vec<u8>>)>> {
        // Pooled receive buffer: after the first few packets the resize
        // is a no-op (capacity is retained) and the datagram is read into
        // reused memory.
        let mut arc = self.pool.checkout();
        let buf = Arc::make_mut(&mut arc);
        buf.resize(MAX_PACKET_BYTES + 64, 0);
        let got = self.socket.recv_from(buf).map(|(n, from)| {
            buf.truncate(n);
            self.resolve(from)
        });
        let Ok(Some(peer)) = got else {
            self.pool.give_back(arc);
            return match got {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => Ok(None),
                Err(e) => Err(e),
                Ok(_) => Ok(None),
            };
        };
        Ok(Some((peer, arc)))
    }

    /// The logical address of a datagram's sender: the registered one,
    /// or (promiscuous) one synthesized stably from the socket address
    /// and registered both ways; `None` for an unknown party.
    fn resolve(&self, from: SocketAddr) -> Option<NodeAddr> {
        if let Some(peer) = unpoisoned(self.reverse.read()).get(&from).copied() {
            return Some(peer);
        }
        if !self.promiscuous.load(Ordering::Relaxed) {
            return None;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        use std::hash::{Hash, Hasher};
        from.hash(&mut h);
        let peer = NodeAddr(0x8000_0000_0000_0000 | (h.finish() >> 1));
        unpoisoned(self.directory.write()).insert(peer, from);
        unpoisoned(self.reverse.write()).insert(from, peer);
        Some(peer)
    }
}

impl UdpEndpoint {
    /// Bind a socket for logical address `addr` at `bind_to` (use port 0
    /// for an ephemeral port; read it back with
    /// [`UdpEndpoint::socket_addr`]).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind(addr: NodeAddr, bind_to: SocketAddr) -> io::Result<UdpEndpoint> {
        let socket = UdpSocket::bind(bind_to)?;
        Ok(UdpEndpoint {
            inner: Arc::new(Inner {
                socket,
                pool: BufPool::for_packets(),
                directory: RwLock::new(HashMap::new()),
                reverse: RwLock::new(HashMap::new()),
                promiscuous: AtomicBool::new(false),
                nonblocking: AtomicBool::new(false),
                poll_until: AtomicU64::new(0),
                born: Instant::now(),
            }),
            routed: AtomicBool::new(false),
            addr,
            obs: dlog_obs::Obs::off(),
        })
    }

    /// Attach an observability handle; subsequent sends emit
    /// `PacketSend` trace events and latency samples.
    pub fn set_obs(&mut self, obs: dlog_obs::Obs) {
        self.obs = obs;
    }

    /// Accept datagrams from unregistered sources, auto-registering each
    /// under a synthetic logical address so replies route back. Servers
    /// turn this on; clients keep the explicit directory.
    pub fn set_promiscuous(&self, on: bool) {
        self.inner.promiscuous.store(on, Ordering::Relaxed);
    }

    /// The socket address actually bound.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn socket_addr(&self) -> io::Result<SocketAddr> {
        self.inner.socket.local_addr()
    }

    /// Register a peer's socket address under its logical address.
    pub fn add_peer(&self, peer: NodeAddr, at: SocketAddr) {
        unpoisoned(self.inner.directory.write()).insert(peer, at);
        unpoisoned(self.inner.reverse.write()).insert(at, peer);
    }

    /// Hand the receive side to a reader thread running `serve`, behind
    /// `shards` queues. `serve` is [`Reader::serve`] except in tests,
    /// which make the reader fail. A second call, like a thread that
    /// cannot start, yields handles whose reader has already ended.
    fn start_reader(&self, shards: usize, serve: Serve) -> Vec<UdpShardRx> {
        let reader = Arc::new(Reader {
            inner: Arc::clone(&self.inner),
            queues: (0..shards.max(1)).map(|_| EndpointQueue::new()).collect(),
            stop: AtomicBool::new(false),
            ended: OnceLock::new(),
        });
        let run = Arc::clone(&reader);
        let thread = if self.routed.swap(true, Ordering::Relaxed) {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "receive side already split",
            ))
        } else {
            std::thread::Builder::new()
                .name(format!("udp-reader-{}", self.addr.0))
                .spawn(move || {
                    let why = catch_unwind(AssertUnwindSafe(|| serve(&run)));
                    run.end(
                        why.unwrap_or_else(|_| Err(io::Error::other("socket reader panicked"))),
                    );
                })
        };
        let thread = thread.map_err(|e| reader.end(Err(e))).ok();
        let owner = Arc::new(ReaderThread {
            reader: Arc::clone(&reader),
            thread,
        });
        reader
            .queues
            .iter()
            .map(|q| UdpShardRx {
                queue: Arc::clone(q),
                reader: Arc::clone(&owner),
            })
            .collect()
    }
}

impl Endpoint for UdpEndpoint {
    fn local_addr(&self) -> NodeAddr {
        self.addr
    }

    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
        self.send_many(std::slice::from_ref(&to), packet)
    }

    fn send_many(&self, tos: &[NodeAddr], packet: &Packet) -> io::Result<()> {
        dlog_types::lock::assert_unlocked();
        // Replication fan-out: one encode + CRC pass, one `send_to`
        // syscall per destination on the same pooled buffer.
        let pool = &self.inner.pool;
        let mut bytes = pool.checkout();
        packet.encode_into(Arc::make_mut(&mut bytes));
        if bytes.len() > MAX_PACKET_BYTES {
            pool.give_back(bytes);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "packet exceeds MTU",
            ));
        }
        let span = self.obs.start();
        let mut result = Ok(());
        for &to in tos {
            let Some(dest) = unpoisoned(self.inner.directory.read()).get(&to).copied() else {
                result = Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("unknown peer {to}"),
                ));
                break;
            };
            if let Err(e) = self.inner.socket.send_to(&bytes, dest) {
                result = Err(e);
                break;
            }
            self.obs
                .event(dlog_obs::Stage::PacketSend, packet.lsn_hint(), to.0);
        }
        pool.give_back(bytes);
        result?;
        self.obs.sample_since(dlog_obs::Stage::PacketSend, span);
        Ok(())
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        dlog_types::lock::assert_unlocked();
        if self.routed.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "endpoint is shard-routed; receive on its shard handles",
            ));
        }
        let Some((peer, frame)) = self.inner.recv_frame(timeout)? else {
            return Ok(None);
        };
        // Zero-copy decode: payloads are views into the pooled buffer;
        // it is reissued once they drop. A corrupt datagram is dropped.
        let decoded = Packet::decode_shared(&frame);
        self.inner.pool.give_back(frame);
        Ok(decoded.ok().map(|p| (peer, p)))
    }
}

impl RoutedEndpoint for UdpEndpoint {
    type Rx = UdpShardRx;

    fn shard_rx(&self, shards: usize) -> Vec<UdpShardRx> {
        self.start_reader(shards, Reader::serve)
    }
}

/// A routed endpoint's socket reader, shared by its thread and its
/// shard handles.
struct Reader {
    inner: Arc<Inner>,
    queues: Vec<Arc<EndpointQueue>>,
    /// Raised when the last shard handle drops: the thread leaves.
    stop: AtomicBool,
    /// Why the reader ended, once it has. Set after its last push, so a
    /// handle that sees it and an empty queue has been handed everything.
    ended: OnceLock<(io::ErrorKind, String)>,
}

impl Reader {
    /// Steer datagrams into the shard queues until stopped.
    fn serve(&self) -> io::Result<()> {
        while !self.stop.load(Ordering::Relaxed) {
            self.steer_one(READER_WAIT)?;
        }
        Ok(())
    }

    /// Read one datagram, if one comes within `timeout`, and steer it.
    fn steer_one(&self, timeout: Duration) -> io::Result<()> {
        if let Some((from, frame)) = self.inner.recv_frame(timeout)? {
            steer(&self.queues, from, &frame);
            self.inner.pool.give_back(frame);
        }
        Ok(())
    }

    /// Record why the reader ended; the first reason stays.
    fn end(&self, why: io::Result<()>) {
        let why = why
            .err()
            .unwrap_or_else(|| io::Error::other("socket reader stopped"));
        self.ended.get_or_init(|| (why.kind(), why.to_string()));
    }
}

/// The reader's thread, owned by the shard handles together: the last
/// to drop stops it and waits until it has let go of the socket.
struct ReaderThread {
    reader: Arc<Reader>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for ReaderThread {
    fn drop(&mut self) {
        self.reader.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "the reader catches its own panic, so its thread always ends normally"
            )]
            let _ = thread.join();
        }
    }
}

/// One shard's receive handle on a routed [`UdpEndpoint`]. Once the
/// reader has ended, it fails at the first receive that finds its queue
/// empty.
pub struct UdpShardRx {
    queue: Arc<EndpointQueue>,
    reader: Arc<ReaderThread>,
}

impl ShardRx for UdpShardRx {
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        let got = recv_from(&self.queue, timeout);
        match self.reader.reader.ended.get() {
            Some((kind, text)) if got.is_none() && self.queue.inbox.lock().q.is_empty() => {
                Err(io::Error::new(*kind, text.clone()))
            }
            _ => Ok(got),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Message;
    use dlog_obs::gauge::{thread_sched, ThreadSched};
    use dlog_types::{ClientId, Epoch, LogData, LogId, Lsn};
    use std::time::Instant;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    /// A server endpoint at `NodeAddr(1)` and a client at `NodeAddr(2)`
    /// that know each other.
    fn pair() -> (UdpEndpoint, UdpEndpoint) {
        let server = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        let client = UdpEndpoint::bind(NodeAddr(2), loopback()).unwrap();
        server.add_peer(NodeAddr(2), client.socket_addr().unwrap());
        client.add_peer(NodeAddr(1), server.socket_addr().unwrap());
        (server, client)
    }

    fn ack(lsn: u64) -> Message {
        Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(lsn),
        }
    }

    /// Everything `rx` is handed within 200 ms of the last packet.
    fn drain(rx: &mut UdpShardRx) -> Vec<Packet> {
        let mut got = Vec::new();
        while let Some((_, p)) = rx.recv(Duration::from_millis(200)).unwrap() {
            got.push(p);
        }
        got
    }

    /// What `rx` is handed until it fails (for at most five seconds),
    /// and its error.
    fn until_error(rx: &mut UdpShardRx) -> (Vec<Packet>, Option<String>) {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match rx.recv(Duration::from_millis(10)) {
                Ok(Some((_, p))) => got.push(p),
                Ok(None) => {}
                Err(e) => return (got, Some(e.to_string())),
            }
        }
        (got, None)
    }

    #[test]
    fn a_hinted_frame_reaches_only_its_shard_and_a_zero_hint_every_shard() {
        let (server, client) = pair();
        let mut rxs = server.shard_rx(2);
        let log = (1..64).map(LogId).find(|l| l.shard(2) == 1).unwrap();
        let (hinted, bare) = (Packet::routed(log, ack(1)), Packet::bare(ack(2)));
        client.send(NodeAddr(1), &hinted).unwrap();
        client.send(NodeAddr(1), &bare).unwrap();
        let got: Vec<Vec<Packet>> = rxs.iter_mut().map(drain).collect();
        assert_eq!(got, [vec![bare.clone()], vec![hinted, bare]]);
    }

    #[test]
    fn a_poll_on_an_empty_shard_handle_returns_at_once() {
        let (server, _client) = pair();
        let mut rxs = server.shard_rx(2);
        let started = Instant::now();
        let polled: Vec<_> = (0..100)
            .map(|_| rxs[0].recv(Duration::ZERO).unwrap())
            .collect();
        let took = started.elapsed();
        assert!(
            polled.iter().all(Option::is_none) && took < Duration::from_millis(50),
            "100 polls took {took:?}"
        );
    }

    #[test]
    fn a_routed_endpoint_refuses_its_own_receive() {
        let (server, _client) = pair();
        let _rxs = server.shard_rx(2);
        let refused = server.recv(Duration::ZERO).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
    }

    /// A reader that steers the two datagrams waiting on the socket,
    /// then fails.
    fn steer_two_then_fail(reader: &Reader) -> io::Result<()> {
        reader.steer_one(Duration::from_secs(5))?;
        reader.steer_one(Duration::from_secs(5))?;
        Err(io::Error::other("socket gone"))
    }

    /// A reader that steers the two datagrams waiting on the socket,
    /// then panics.
    fn steer_two_then_panic(reader: &Reader) -> io::Result<()> {
        reader.steer_one(Duration::from_secs(5))?;
        reader.steer_one(Duration::from_secs(5))?;
        panic!("reader bug (this test's own)");
    }

    #[test]
    fn a_reader_that_ends_fails_every_handle_after_its_queue_drains() {
        let cases: [(Serve, &str); 2] = [
            (steer_two_then_fail, "socket gone"),
            (steer_two_then_panic, "socket reader panicked"),
        ];
        for (serve, why) in cases {
            let (server, client) = pair();
            // Both too short to carry a hint, so every shard queues both.
            // The corrupt one decodes to nothing: a handle that takes an
            // empty receive for a drained queue loses the good one.
            let at = server.socket_addr().unwrap();
            client.inner.socket.send_to(&[1, 2, 3, 4], at).unwrap();
            client.send(NodeAddr(1), &Packet::bare(ack(3))).unwrap();
            let mut rxs = server.start_reader(2, serve);
            let deadline = Instant::now() + Duration::from_secs(5);
            while rxs[0].reader.reader.ended.get().is_none() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let got: Vec<_> = rxs.iter_mut().map(until_error).collect();
            let want = (vec![Packet::bare(ack(3))], Some(why.to_string()));
            assert_eq!(got, [want.clone(), want]);
        }
        // A reader that never starts (here: a second split of the same
        // socket) takes the path of a failed thread spawn: every handle
        // fails at its first receive.
        let (server, _client) = pair();
        let _first = server.shard_rx(2);
        let failed: Vec<_> = server
            .shard_rx(2)
            .iter_mut()
            .map(|rx| rx.recv(Duration::ZERO).map_err(|e| e.kind()).err())
            .collect();
        assert_eq!(failed, [Some(io::ErrorKind::InvalidInput); 2]);
    }

    #[test]
    fn the_port_is_free_once_every_handle_has_dropped() {
        let (server, _client) = pair();
        let at = server.socket_addr().unwrap();
        let rxs = server.shard_rx(2);
        drop(server);
        drop(rxs);
        assert!(UdpSocket::bind(at).is_ok(), "{at} still bound");
    }

    #[test]
    fn udp_roundtrip() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        let b = UdpEndpoint::bind(NodeAddr(2), loopback()).unwrap();
        a.add_peer(NodeAddr(2), b.socket_addr().unwrap());
        b.add_peer(NodeAddr(1), a.socket_addr().unwrap());

        let msg = Message::ForceLog {
            client: ClientId(9),
            epoch: Epoch(2),
            records: vec![(Lsn(1), LogData::from(vec![0xAA; 700]))],
        };
        a.send(NodeAddr(2), &Packet::bare(msg.clone())).unwrap();
        let (from, p) = b.recv(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(from, NodeAddr(1));
        assert_eq!(p.msg, msg);
    }

    #[test]
    fn recv_times_out() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        assert!(a.recv(Duration::from_millis(20)).unwrap().is_none());
    }

    #[test]
    fn zero_timeout_polls_without_sleeping_a_tick() {
        // SO_RCVTIMEO rounds up to a scheduler tick (1–4 ms), so 100
        // timed-out receives take at least 100 ms; 100 polls take far less.
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        let started = Instant::now();
        for _ in 0..100 {
            assert!(a.recv(Duration::ZERO).unwrap().is_none());
        }
        let took = started.elapsed();
        assert!(took < Duration::from_millis(50), "100 polls took {took:?}");
    }

    #[test]
    fn a_timed_receive_after_a_poll_still_waits() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        assert!(a.recv(Duration::ZERO).unwrap().is_none());
        let started = Instant::now();
        assert!(a.recv(Duration::from_millis(20)).unwrap().is_none());
        let took = started.elapsed();
        assert!(took >= Duration::from_millis(20), "returned after {took:?}");
    }

    #[test]
    fn a_timed_receive_after_a_poll_gets_a_late_datagram() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        let b = UdpEndpoint::bind(NodeAddr(2), loopback()).unwrap();
        a.add_peer(NodeAddr(2), b.socket_addr().unwrap());
        b.add_peer(NodeAddr(1), a.socket_addr().unwrap());
        assert!(b.recv(Duration::ZERO).unwrap().is_none());
        let msg = Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(7),
        };
        let sent = msg.clone();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            a.send(NodeAddr(2), &Packet::bare(sent)).unwrap();
        });
        let (from, p) = b.recv(Duration::from_secs(2)).unwrap().unwrap();
        sender.join().unwrap();
        assert_eq!((from, p.msg), (NodeAddr(1), msg));
    }

    /// `f`'s result, and how far the calling thread's scheduling
    /// counters moved while it ran (`None` without procfs).
    fn sched_during<T>(f: impl FnOnce() -> T) -> (T, Option<ThreadSched>) {
        let before = thread_sched();
        let out = f();
        let moved = before.zip(thread_sched()).map(|(a, b)| ThreadSched {
            on_cpu_ns: b.on_cpu_ns - a.on_cpu_ns,
            wait_ns: b.wait_ns - a.wait_ns,
            voluntary_switches: b.voluntary_switches - a.voluntary_switches,
        });
        (out, moved)
    }

    #[test]
    fn a_busy_ping_pong_polls_rather_than_sleeps() {
        const TRIPS: u32 = 200;
        let (server, client) = pair();
        let echo = std::thread::spawn(move || {
            let ((), moved) = sched_during(|| {
                for _ in 0..TRIPS {
                    let (from, p) = server.recv(Duration::from_secs(5)).unwrap().unwrap();
                    server.send(from, &p).unwrap();
                }
            });
            moved
        });
        let started = Instant::now();
        let ((), pinger) = sched_during(|| {
            for i in 0..u64::from(TRIPS) {
                client.send(NodeAddr(1), &Packet::bare(ack(i))).unwrap();
                let (_, p) = client.recv(Duration::from_secs(5)).unwrap().unwrap();
                assert_eq!(p.msg, ack(i));
            }
        });
        let took = started.elapsed();
        let (Some(pinger), Some(echo)) = (pinger, echo.join().unwrap()) else {
            return; // no procfs: nothing to count with
        };
        let receives = 2 * TRIPS;
        let sleeps = pinger.voluntary_switches + echo.voluntary_switches;
        eprintln!(
            "per hop: {:?}, {} ns on a CPU, {} ns waiting for one; {sleeps} sleeps in {receives} receives",
            took / receives,
            (pinger.on_cpu_ns + echo.on_cpu_ns) / u64::from(receives),
            (pinger.wait_ns + echo.wait_ns) / u64::from(receives),
        );
        assert!(sleeps < u64::from(receives / 2), "{pinger:?} {echo:?}");
    }

    #[test]
    fn an_idle_receive_sleeps_once_the_poll_window_has_lapsed() {
        let (server, client) = pair();
        client.send(NodeAddr(1), &Packet::bare(ack(1))).unwrap();
        assert!(server.recv(Duration::from_secs(5)).unwrap().is_some());
        std::thread::sleep(2 * POLL_AFTER_RX);
        let started = Instant::now();
        let (got, spent) = sched_during(|| server.recv(Duration::from_millis(50)).unwrap());
        let took = started.elapsed();
        assert!(got.is_none(), "{got:?}");
        assert!(took >= Duration::from_millis(50), "returned after {took:?}");
        if let Some(spent) = spent {
            assert!(spent.on_cpu_ns <= 5_000_000, "an idle wait spun: {spent:?}");
        }
    }

    #[test]
    fn unknown_peer_rejected_on_send() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        let p = Packet::bare(Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(1),
        });
        assert!(a.send(NodeAddr(42), &p).is_err());
    }

    #[test]
    fn unknown_sender_dropped_on_recv() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        let stranger = UdpSocket::bind(loopback()).unwrap();
        let p = Packet::bare(Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(1),
        });
        stranger
            .send_to(&p.encode(), a.socket_addr().unwrap())
            .unwrap();
        assert!(a.recv(Duration::from_millis(100)).unwrap().is_none());
    }
}
