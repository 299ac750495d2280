//! The specialized low-level log-server protocol of §4.2.
//!
//! The paper rejects layering the log service on "expensive general
//! purpose protocols": simple error-free operations must take a single
//! packet each way, multiple log records are packed per packet, writes are
//! **asynchronous messages** (`WriteLog`, `ForceLog`) acknowledged by
//! `NewHighLSN`, losses are detected by the *server* from LSN
//! discontinuities and reported promptly with `MissingInterval`, and only
//! infrequent operations (reads, interval lists, recovery copies) are
//! strict RPCs.
//!
//! This crate provides:
//!
//! * [`wire`] — the packet format: every Figure 4-1 message, CRC-framed,
//!   packed to a configurable packet size;
//! * [`mem`] — an in-process datagram network with deterministic,
//!   seed-driven fault injection (loss, duplication, reordering, delay,
//!   partitions) used by tests and simulations;
//! * [`udp`] — the same endpoint interface over real `std::net` UDP
//!   sockets, demonstrating the protocol on an actual network;
//! * [`pool`] — the fixed-size buffer pool behind the zero-copy wire
//!   path: packets are encoded single-pass into pooled buffers
//!   ([`Packet::encode_into`](wire::Packet::encode_into)) and decoded
//!   with payload views borrowed from the receive buffer
//!   ([`Packet::decode_shared`](wire::Packet::decode_shared)).
//!
//! There is no connection setup. The paper notes (§4.2, final
//! paragraphs) that when records are smaller than a packet, "the log
//! sequence numbers themselves can be used efficiently for duplicate
//! detection and flow control", so the server detects duplicates and
//! gaps from each client's LSNs, and the client's δ window is the flow
//! control.

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
#![warn(missing_docs)]

pub mod mem;
pub mod pool;
mod queue;
pub mod udp;
pub mod wire;

pub use mem::{FaultPlan, MemEndpoint, MemNetwork, MemShardRx};
pub use pool::BufPool;
pub use wire::{Message, NodeAddr, Packet, Request, Response, MAX_PACKET_BYTES};

use std::io;
use std::time::Duration;

/// A datagram endpoint: unreliable, unordered, message-oriented.
///
/// Both the in-memory network and the UDP transport implement this; all
/// protocol logic above is transport-agnostic.
pub trait Endpoint: Send {
    /// This endpoint's address.
    fn local_addr(&self) -> NodeAddr;

    /// Send one datagram (best effort; may be silently dropped by the
    /// network).
    ///
    /// # Errors
    /// Only on local failures (unknown peer, socket error) — loss is not an
    /// error.
    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()>;

    /// Receive the next datagram, waiting up to `timeout`.
    /// `Duration::ZERO` polls: it returns what has already arrived and
    /// never blocks, on every transport.
    ///
    /// One thread receives on an endpoint at a time (a one-shard server's
    /// loop, the client's single logging process, §3.1);
    /// [`udp::UdpEndpoint`] caches its socket's receive mode on that
    /// assumption. Any thread may send.
    ///
    /// # Errors
    /// Propagates socket errors; a timeout yields `Ok(None)`.
    fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>>;

    /// Send the same datagram to several destinations. Transports that
    /// can encode once and fan the bytes out (replication sends identical
    /// packets to every replica) override this; the default just loops.
    ///
    /// # Errors
    /// As [`Endpoint::send`]; the first local failure aborts the fan-out.
    fn send_many(&self, tos: &[NodeAddr], packet: &Packet) -> io::Result<()> {
        for &to in tos {
            self.send(to, packet)?;
        }
        Ok(())
    }
}

/// One shard's receive handle on a [`RoutedEndpoint`].
pub trait ShardRx: Send + 'static {
    /// Receive the next packet routed to this shard, waiting up to
    /// `timeout`. `Duration::ZERO` polls without blocking.
    ///
    /// # Errors
    /// Propagates transport failures; a timeout yields `Ok(None)`.
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>>;
}

/// An endpoint whose transport routes inbound frames to per-shard
/// receive queues *before* decode, from the wire header's log hint
/// ([`Packet::peek_route_hint`](wire::Packet::peek_route_hint)); a zero
/// hint goes to every queue. Both transports steer into the same queue
/// type: in-process the sending thread steers, and over UDP one socket
/// reader thread does, since the kernel delivers to the one socket every
/// client knows. Each shard loop decodes its own frames.
pub trait RoutedEndpoint: Endpoint {
    /// The per-shard receive handle type.
    type Rx: ShardRx;

    /// Split the receive side into `shards` routed queues (clamped to at
    /// least one). Call it once. The endpoint's own [`Endpoint::recv`]
    /// fails afterwards; replies still go out through it from any thread.
    fn shard_rx(&self, shards: usize) -> Vec<Self::Rx>;
}
