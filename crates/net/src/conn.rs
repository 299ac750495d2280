//! Watson-style connection machinery (§4.2): a sans-I/O state machine
//! providing the three-way handshake, permanently unique sequence numbers,
//! duplicate detection across crashes, and moving-window flow control with
//! allocations.
//!
//! "To establish communication with a log server, a client initiates a
//! three way handshake. Both client and server then maintain a small
//! amount of state while the connection is active. This allows packets to
//! contain permanently unique sequence numbers, and permits duplicate
//! packets to be detected even across a crash of the receiving node. All
//! calls participate in a moving window flow control strategy at the
//! packet level. An allocation inserted in every packet specifies the
//! highest sequence number the other party is permitted to send without
//! waiting. Deadlocks are prevented by allowing either party to exceed its
//! allocation, so long as it pauses several seconds between packets."
//!
//! The state machine is transport-free: callers feed incoming packets to
//! [`Connection::on_packet`] and ship whatever packets the methods return.

use std::collections::BTreeSet;

use crate::wire::{Message, Packet};

/// Why a send was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The connection is not established yet.
    NotEstablished,
    /// The peer's allocation is exhausted; wait for a new allocation or —
    /// after pausing — use [`Connection::send_exceeding_allocation`].
    AllocationExhausted {
        /// Highest sequence number the peer currently permits.
        allocation: u64,
    },
}

/// Connection role (who sent the SYN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    SynSent,
    SynReceived,
    Established,
}

/// One side of a §4.2 connection.
#[derive(Debug)]
pub struct Connection {
    /// Local incarnation number: bumped every process restart, making
    /// `(incarnation, seq)` permanently unique.
    incarnation: u64,
    state: State,
    /// Next sequence number to assign to an outgoing packet.
    next_seq: u64,
    /// Peer incarnation learned in the handshake.
    peer_incarnation: Option<u64>,
    /// Highest sequence number the peer has permitted us to send.
    peer_allocation: u64,
    /// Sequence numbers we have delivered (for duplicate filtering);
    /// everything at or below `recv_floor` is also considered seen.
    recv_floor: u64,
    recv_seen: BTreeSet<u64>,
    /// How many packets beyond the contiguity floor we grant the peer.
    window: u64,
}

/// What [`Connection::on_packet`] produced.
#[derive(Debug, Default)]
pub struct Incoming {
    /// Packets to transmit in response (handshake steps).
    pub replies: Vec<Packet>,
    /// The application message, if the packet carried a fresh one.
    pub delivered: Option<Message>,
    /// True if the packet was discarded as a duplicate.
    pub duplicate: bool,
}

impl Connection {
    /// Create a closed connection endpoint.
    ///
    /// `incarnation` must be fresh per process start (a restart counter or
    /// coarse timestamp); `isn` is the initial sequence number; `window`
    /// is the number of packets granted beyond the last delivered one.
    #[must_use]
    pub fn new(incarnation: u64, isn: u64, window: u64) -> Self {
        Connection {
            incarnation,
            state: State::Closed,
            next_seq: isn,
            peer_incarnation: None,
            peer_allocation: 0,
            recv_floor: 0,
            recv_seen: BTreeSet::new(),
            window: window.max(1),
        }
    }

    /// Begin the three-way handshake; returns the SYN to transmit.
    #[must_use]
    pub fn connect(&mut self) -> Packet {
        self.state = State::SynSent;
        Packet {
            conn: self.incarnation,
            seq: self.next_seq,
            alloc: 0,
            log: 0,
            msg: Message::Syn {
                incarnation: self.incarnation,
                isn: self.next_seq,
            },
        }
    }

    /// True once the handshake completed.
    #[must_use]
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// Highest sequence number the peer currently allows us to use.
    #[must_use]
    pub fn allocation(&self) -> u64 {
        self.peer_allocation
    }

    /// Wrap `msg` in the next packet if the peer's allocation permits.
    ///
    /// # Errors
    /// [`SendError`] when unestablished or beyond the allocation.
    pub fn send(&mut self, msg: Message) -> Result<Packet, SendError> {
        if self.state != State::Established {
            return Err(SendError::NotEstablished);
        }
        if self.next_seq > self.peer_allocation {
            return Err(SendError::AllocationExhausted {
                allocation: self.peer_allocation,
            });
        }
        Ok(self.raw_packet(msg))
    }

    /// The §4.2 deadlock escape: send beyond the allocation. The caller is
    /// responsible for having paused "several seconds" first so a slow
    /// receiver is not overrun.
    ///
    /// # Errors
    /// [`SendError::NotEstablished`] before the handshake completes.
    pub fn send_exceeding_allocation(&mut self, msg: Message) -> Result<Packet, SendError> {
        if self.state != State::Established {
            return Err(SendError::NotEstablished);
        }
        Ok(self.raw_packet(msg))
    }

    fn raw_packet(&mut self, msg: Message) -> Packet {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.saturating_add(1);
        Packet {
            conn: self.conn_id(),
            seq,
            alloc: self.grant(),
            log: 0,
            msg,
        }
    }

    /// The allocation we currently extend to the peer ("each party
    /// attempts to supply the other with unused allocation at all times").
    fn grant(&self) -> u64 {
        self.recv_floor + self.window
    }

    fn conn_id(&self) -> u64 {
        // Combine both incarnations (symmetrically, so the two ends agree)
        // so packets from a previous crash epoch of either party can never
        // be mistaken for this connection's.
        let a = self.incarnation.min(self.peer_incarnation.unwrap_or(0));
        let b = self.incarnation.max(self.peer_incarnation.unwrap_or(0));
        a ^ b.rotate_left(32) ^ (a.wrapping_add(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Feed an incoming packet.
    #[must_use]
    pub fn on_packet(&mut self, pkt: &Packet) -> Incoming {
        let mut out = Incoming::default();
        match (&pkt.msg, self.state) {
            (Message::Syn { incarnation, isn }, State::Closed | State::SynReceived) => {
                self.peer_incarnation = Some(*incarnation);
                self.recv_floor = *isn;
                self.state = State::SynReceived;
                out.replies.push(Packet {
                    conn: self.conn_id(),
                    seq: self.next_seq,
                    alloc: self.grant(),
                    log: 0,
                    msg: Message::SynAck {
                        incarnation: self.incarnation,
                        isn: self.next_seq,
                        ack: *isn,
                    },
                });
            }
            (
                Message::SynAck {
                    incarnation,
                    isn,
                    ack,
                },
                State::SynSent,
            ) => {
                if *ack == self.next_seq {
                    self.peer_incarnation = Some(*incarnation);
                    self.recv_floor = *isn;
                    self.peer_allocation = pkt.alloc;
                    self.state = State::Established;
                    self.next_seq = self.next_seq.saturating_add(1); // the SYN consumed a sequence number
                    out.replies.push(Packet {
                        conn: self.conn_id(),
                        seq: self.next_seq,
                        alloc: self.grant(),
                        log: 0,
                        msg: Message::HandshakeAck { ack: *isn },
                    });
                    self.next_seq = self.next_seq.saturating_add(1);
                }
            }
            (Message::HandshakeAck { ack }, State::SynReceived) => {
                if *ack == self.next_seq {
                    self.state = State::Established;
                    self.next_seq = self.next_seq.saturating_add(1); // the SYNACK consumed one
                    self.peer_allocation = pkt.alloc;
                    self.recv_floor += 1; // the SYN is consumed
                }
            }
            (_, State::Established) => {
                // Reject packets from a different (e.g. pre-crash)
                // connection: their conn id cannot match.
                if pkt.conn != self.conn_id() {
                    out.duplicate = true;
                    return out;
                }
                self.peer_allocation = self.peer_allocation.max(pkt.alloc);
                if pkt.seq <= self.recv_floor || self.recv_seen.contains(&pkt.seq) {
                    out.duplicate = true;
                    return out;
                }
                self.recv_seen.insert(pkt.seq);
                // Advance the contiguity floor past consecutive seqs.
                while self.recv_seen.remove(&(self.recv_floor + 1)) {
                    self.recv_floor += 1;
                }
                out.delivered = Some(pkt.msg.clone());
            }
            _ => {
                // Stray packet for a dead state; ignore.
                out.duplicate = true;
            }
        }
        out
    }
}

/// Drive both ends of a handshake to completion over a perfect in-test
/// channel; convenience for tests and examples.
#[must_use]
pub fn establish_pair(window: u64) -> (Connection, Connection) {
    let mut a = Connection::new(100, 1000, window);
    let mut b = Connection::new(200, 5000, window);
    let syn = a.connect();
    let r1 = b.on_packet(&syn);
    if let Some(synack) = r1.replies.first() {
        let r2 = a.on_packet(synack);
        if let Some(hsack) = r2.replies.first() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "the handshake's final ack only moves `b` to established; its replies are empty"
            )]
            let _ = b.on_packet(hsack);
        }
    }
    assert!(a.is_established() && b.is_established());
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlog_types::{ClientId, Lsn};

    fn msg(lsn: u64) -> Message {
        Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(lsn),
        }
    }

    #[test]
    fn three_way_handshake() {
        let (a, b) = establish_pair(8);
        assert!(a.is_established());
        assert!(b.is_established());
        assert!(a.allocation() > 0);
        assert!(b.allocation() > 0);
    }

    #[test]
    fn data_flows_both_ways() {
        let (mut a, mut b) = establish_pair(8);
        let p = a.send(msg(1)).unwrap();
        let r = b.on_packet(&p);
        assert_eq!(r.delivered, Some(msg(1)));
        let p = b.send(msg(2)).unwrap();
        let r = a.on_packet(&p);
        assert_eq!(r.delivered, Some(msg(2)));
    }

    #[test]
    fn duplicates_filtered() {
        let (mut a, mut b) = establish_pair(8);
        let p = a.send(msg(1)).unwrap();
        assert_eq!(b.on_packet(&p).delivered, Some(msg(1)));
        let r = b.on_packet(&p);
        assert!(r.duplicate);
        assert_eq!(r.delivered, None);
    }

    #[test]
    fn reordered_packets_all_delivered_once() {
        let (mut a, mut b) = establish_pair(16);
        let p1 = a.send(msg(1)).unwrap();
        let p2 = a.send(msg(2)).unwrap();
        let p3 = a.send(msg(3)).unwrap();
        assert_eq!(b.on_packet(&p3).delivered, Some(msg(3)));
        assert_eq!(b.on_packet(&p1).delivered, Some(msg(1)));
        assert!(b.on_packet(&p3).duplicate);
        assert_eq!(b.on_packet(&p2).delivered, Some(msg(2)));
        assert!(b.on_packet(&p1).duplicate);
        assert!(b.on_packet(&p2).duplicate);
    }

    #[test]
    fn allocation_blocks_and_refills() {
        let (mut a, mut b) = establish_pair(3);
        // Drain the allocation.
        let mut sent = Vec::new();
        loop {
            match a.send(msg(sent.len() as u64)) {
                Ok(p) => sent.push(p),
                Err(SendError::AllocationExhausted { .. }) => break,
                Err(e) => panic!("{e:?}"),
            }
        }
        assert!(!sent.is_empty());
        // Deliver them; b's next packet carries a fresh allocation.
        for p in &sent {
            let _ = b.on_packet(p);
        }
        let refill = b.send(msg(99)).unwrap();
        let _ = a.on_packet(&refill);
        assert!(a.send(msg(100)).is_ok(), "allocation should have refilled");
    }

    #[test]
    fn pause_override_exceeds_allocation() {
        let (mut a, mut b) = establish_pair(1);
        while a.send(msg(0)).is_ok() {}
        let p = a.send_exceeding_allocation(msg(7)).unwrap();
        // The receiver still accepts it (it is not beyond its dup filter).
        let r = b.on_packet(&p);
        assert!(r.delivered.is_some() || r.duplicate);
    }

    #[test]
    fn cross_crash_duplicates_rejected() {
        let (mut a, mut b) = establish_pair(8);
        let old = a.send(msg(1)).unwrap();
        assert_eq!(b.on_packet(&old).delivered, Some(msg(1)));

        // b crashes and reconnects with a new incarnation.
        let mut b2 = Connection::new(201, 9000, 8);
        let syn = b2.connect();
        let mut a2 = Connection::new(101, 2000, 8);
        let r1 = a2.on_packet(&syn);
        let r2 = b2.on_packet(&r1.replies[0]);
        let _ = a2.on_packet(&r2.replies[0]);
        assert!(b2.is_established());

        // A delayed packet from the old connection must be rejected by the
        // new one: its conn id embeds the old incarnations.
        let stale = old;
        let r = b2.on_packet(&stale);
        assert!(r.duplicate);
        assert_eq!(r.delivered, None);
    }

    #[test]
    fn send_before_establish_fails() {
        let mut c = Connection::new(1, 1, 8);
        assert_eq!(c.send(msg(1)), Err(SendError::NotEstablished));
        let _ = c.connect();
        assert_eq!(c.send(msg(1)), Err(SendError::NotEstablished));
    }
}
