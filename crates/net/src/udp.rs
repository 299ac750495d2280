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
//! [`Endpoint::recv`] with `Duration::ZERO` must poll: the server's ingest
//! drain and group-commit check and the client's ack drain all call it on
//! every packet. `SO_RCVTIMEO` cannot express that. The kernel rounds a
//! receive timeout up to whole scheduler ticks (4 ms at `CONFIG_HZ=250`),
//! and std maps a zero timeout to "block forever". So a zero timeout puts
//! the socket in non-blocking mode, and any other timeout puts it back in
//! blocking mode under `SO_RCVTIMEO`.
//!
//! The endpoint caches the non-blocking flag it last set, so a run of
//! polls makes no extra syscall, and the server's alternation between a
//! poll and its 20 ms idle wait costs one `FIONBIO` ioctl per flip
//! besides the `SO_RCVTIMEO` every blocking receive sets. The cache is
//! sound because one thread receives on an endpoint: the server's single
//! shard loop or its dispatcher, and the client's single logging process
//! (§3.1). Other threads may send concurrently; sending never touches the
//! mode.
//!
//! A send on a socket that a poll left non-blocking fails with
//! `WouldBlock` when the socket's send buffer is full, where a blocking
//! socket would have waited. That happens only on a real NIC (loopback
//! frees the buffer at transmit). Both ends take it as loss, which the
//! protocol recovers from end to end: the client's `ClientNet` drops the
//! datagram and its retransmission timers resend what mattered, and the
//! server's reply loop drops the reply, so a full send buffer sheds
//! replies rather than stalling the server.
//!
//! One `try_clone`d socket per mode does not work instead: `try_clone` is
//! `dup`, and the copy shares the open file's status flags (`O_NONBLOCK`)
//! and its socket options (`SO_RCVTIMEO`) with the original.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use dlog_types::unpoisoned;

use crate::pool::BufPool;
use crate::wire::{NodeAddr, Packet, MAX_PACKET_BYTES};
use crate::Endpoint;

/// A UDP endpoint with a logical-address directory.
///
/// Any thread may send, but only one thread may receive: the receive
/// mode is cached without a lock (see the [module docs](self)).
pub struct UdpEndpoint {
    socket: UdpSocket,
    /// Whether the socket is in non-blocking mode (`recv(ZERO)` left it).
    nonblocking: AtomicBool,
    addr: NodeAddr,
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
    obs: dlog_obs::Obs,
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
            socket,
            nonblocking: AtomicBool::new(false),
            addr,
            pool: BufPool::for_packets(),
            directory: RwLock::new(HashMap::new()),
            reverse: RwLock::new(HashMap::new()),
            promiscuous: AtomicBool::new(false),
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
        self.promiscuous.store(on, Ordering::Relaxed);
    }

    /// The socket address actually bound.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn socket_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Register a peer's socket address under its logical address.
    pub fn add_peer(&self, peer: NodeAddr, at: SocketAddr) {
        unpoisoned(self.directory.write()).insert(peer, at);
        unpoisoned(self.reverse.write()).insert(at, peer);
    }

    /// Put the socket in the mode a receive with `timeout` needs: ZERO
    /// polls without blocking, anything else blocks up to `timeout`. The
    /// atomic only makes the endpoint `Sync`; the cache stays right
    /// because one thread receives (see the module docs).
    fn set_receive_mode(&self, timeout: Duration) -> io::Result<()> {
        let nonblocking = timeout.is_zero();
        if self.nonblocking.load(Ordering::Relaxed) != nonblocking {
            self.socket.set_nonblocking(nonblocking)?;
            self.nonblocking.store(nonblocking, Ordering::Relaxed);
        }
        if !nonblocking {
            self.socket.set_read_timeout(Some(timeout))?;
        }
        Ok(())
    }
}

impl Endpoint for UdpEndpoint {
    fn local_addr(&self) -> NodeAddr {
        self.addr
    }

    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
        dlog_types::lock::assert_unlocked();
        let Some(dest) = unpoisoned(self.directory.read()).get(&to).copied() else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("unknown peer {to}"),
            ));
        };
        let mut bytes = self.pool.checkout();
        packet.encode_into(Arc::make_mut(&mut bytes));
        if bytes.len() > MAX_PACKET_BYTES {
            self.pool.give_back(bytes);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "packet exceeds MTU",
            ));
        }
        let span = self.obs.start();
        let sent = self.socket.send_to(&bytes, dest);
        self.pool.give_back(bytes);
        sent?;
        self.obs
            .event(dlog_obs::Stage::PacketSend, packet.lsn_hint(), to.0);
        self.obs.sample_since(dlog_obs::Stage::PacketSend, span);
        Ok(())
    }

    fn send_many(&self, tos: &[NodeAddr], packet: &Packet) -> io::Result<()> {
        dlog_types::lock::assert_unlocked();
        // Replication fan-out: one encode + CRC pass, one `send_to`
        // syscall per destination on the same pooled buffer.
        let mut bytes = self.pool.checkout();
        packet.encode_into(Arc::make_mut(&mut bytes));
        if bytes.len() > MAX_PACKET_BYTES {
            self.pool.give_back(bytes);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "packet exceeds MTU",
            ));
        }
        let span = self.obs.start();
        let mut result = Ok(());
        for &to in tos {
            let Some(dest) = unpoisoned(self.directory.read()).get(&to).copied() else {
                result = Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("unknown peer {to}"),
                ));
                break;
            };
            if let Err(e) = self.socket.send_to(&bytes, dest) {
                result = Err(e);
                break;
            }
            self.obs
                .event(dlog_obs::Stage::PacketSend, packet.lsn_hint(), to.0);
        }
        self.pool.give_back(bytes);
        result?;
        self.obs.sample_since(dlog_obs::Stage::PacketSend, span);
        Ok(())
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        dlog_types::lock::assert_unlocked();
        self.set_receive_mode(timeout)?;
        // Pooled receive buffer: after the first few packets the resize
        // is a no-op (capacity is retained) and the datagram is read into
        // reused memory.
        let mut arc = self.pool.checkout();
        let buf = Arc::make_mut(&mut arc);
        buf.resize(MAX_PACKET_BYTES + 64, 0);
        match self.socket.recv_from(buf) {
            Ok((n, from)) => {
                buf.truncate(n.min(buf.len()));
                let known = unpoisoned(self.reverse.read()).get(&from).copied();
                let peer = match known {
                    Some(p) => p,
                    None if self.promiscuous.load(Ordering::Relaxed) => {
                        // Synthesize a stable logical address from the
                        // socket address and register both directions.
                        let mut h = std::collections::hash_map::DefaultHasher::new();
                        use std::hash::{Hash, Hasher};
                        from.hash(&mut h);
                        let peer = NodeAddr(0x8000_0000_0000_0000 | (h.finish() >> 1));
                        unpoisoned(self.directory.write()).insert(peer, from);
                        unpoisoned(self.reverse.write()).insert(from, peer);
                        peer
                    }
                    None => {
                        self.pool.give_back(arc);
                        return Ok(None); // unknown party: drop
                    }
                };
                // Zero-copy decode: payloads are views into the pooled
                // buffer; it is reissued once they drop.
                let decoded = Packet::decode_shared(&arc);
                self.pool.give_back(arc);
                match decoded {
                    Ok(p) => Ok(Some((peer, p))),
                    Err(_) => Ok(None), // corrupt datagram: drop
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                self.pool.give_back(arc);
                Ok(None)
            }
            Err(e) => {
                self.pool.give_back(arc);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Message;
    use dlog_types::{ClientId, Epoch, LogData, Lsn};
    use std::time::Instant;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
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
