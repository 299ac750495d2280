//! The single-threaded traced pass: a benchmark-owned endpoint that
//! delivers every packet synchronously through `Packet::encode_into` ->
//! `Packet::decode_shared` -> `LogServer::handle_into` and back, each
//! call inside a span. With no thread hop and no waiting, spans nest
//! exactly (self time = span - children) and counts repeat from run to
//! run; what is missing from this picture — the hops — is measured by
//! the replay loops and added back in the commit budget.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dlog_net::wire::{Message, NodeAddr, Packet};
use dlog_net::{BufPool, Endpoint};
use dlog_server::LogServer;

use crate::span::Handle;

struct Wire {
    /// Every shard of every server, under its server's address.
    servers: Vec<(NodeAddr, LogServer)>,
    inbox: VecDeque<(NodeAddr, Packet)>,
    replies: Vec<(NodeAddr, Packet)>,
}

/// The servers of an inline pass, shared between the client's endpoint
/// (which the client owns) and the benchmark (which wants them back).
#[derive(Clone)]
pub struct Servers(Arc<Mutex<Wire>>);

impl Servers {
    pub fn new(servers: Vec<(NodeAddr, LogServer)>) -> Servers {
        Servers(Arc::new(Mutex::new(Wire {
            servers,
            inbox: VecDeque::new(),
            replies: Vec::with_capacity(64),
        })))
    }

    /// Take the servers back (for their counters) once the pass is over.
    pub fn take(&self) -> Vec<LogServer> {
        let mut wire = self.0.lock().expect("inline wire");
        std::mem::take(&mut wire.servers)
            .into_iter()
            .map(|(_, s)| s)
            .collect()
    }
}

/// The client's endpoint in the inline pass.
pub struct InlineEndpoint {
    addr: NodeAddr,
    pool: BufPool,
    wire: Servers,
    trace: Handle,
}

/// Records a write or force packet carries.
fn records_in(packet: &Packet) -> u32 {
    match &packet.msg {
        Message::WriteLog { records, .. } | Message::ForceLog { records, .. } => {
            records.len() as u32
        }
        _ => 0,
    }
}

impl InlineEndpoint {
    pub fn new(addr: NodeAddr, wire: Servers, trace: Handle) -> Self {
        InlineEndpoint {
            addr,
            pool: BufPool::for_packets(),
            wire,
            trace,
        }
    }

    /// Encode `packet` once, as the transports do for a fan-out.
    fn encode(&self, name: &'static str, packet: &Packet) -> Arc<Vec<u8>> {
        let mut bytes = self.pool.checkout();
        let mut open = self.trace.open(name);
        packet.encode_into(Arc::make_mut(&mut bytes));
        if let Some(o) = &mut open {
            o.span.lsn = packet.lsn_hint();
            o.span.n = bytes.len() as u32;
        }
        bytes
    }

    fn decode(&self, name: &'static str, bytes: &Arc<Vec<u8>>) -> io::Result<Packet> {
        let mut open = self.trace.open(name);
        let packet = Packet::decode_shared(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?;
        if let Some(o) = &mut open {
            o.span.lsn = packet.lsn_hint();
            o.span.n = bytes.len() as u32;
        }
        Ok(packet)
    }

    /// Server side of one delivery: decode, handle, flush the group
    /// commit (the inbox is empty by construction), and carry each
    /// reply back through the codec into the client's inbox.
    fn deliver(&self, wire: &mut Wire, to: NodeAddr, bytes: &Arc<Vec<u8>>) -> io::Result<()> {
        let packet = self.decode("wire.decode", bytes)?;
        let Wire {
            servers,
            inbox,
            replies,
        } = wire;
        replies.clear();
        {
            let mut open = self.trace.open("server.handle");
            // Every shard of the addressed server sees the packet; the
            // shards that do not own its log drop it unanswered.
            for (_, server) in servers.iter_mut().filter(|(a, _)| *a == to) {
                server.handle_into(self.addr, &packet, replies);
                if server.has_pending_forces() {
                    replies.extend(server.flush_pending_forces());
                }
            }
            if let Some(o) = &mut open {
                o.span.lsn = packet.lsn_hint();
                o.span.peer = to.0;
                o.span.n = records_in(&packet);
            }
        }
        drop(packet);
        for (_, reply) in replies.drain(..) {
            let back = self.encode("wire.encode.reply", &reply);
            let decoded = self.decode("wire.decode.reply", &back);
            self.pool.give_back(back);
            inbox.push_back((to, decoded?));
        }
        Ok(())
    }
}

impl Endpoint for InlineEndpoint {
    fn local_addr(&self) -> NodeAddr {
        self.addr
    }

    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
        self.send_many(&[to], packet)
    }

    fn recv(&self, _timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        // Every reply was delivered during the send that caused it, so
        // an empty inbox never fills by waiting.
        Ok(self.wire.0.lock().expect("inline wire").inbox.pop_front())
    }

    fn send_many(&self, tos: &[NodeAddr], packet: &Packet) -> io::Result<()> {
        let mut open = self.trace.open("send");
        if let Some(o) = &mut open {
            o.span.lsn = packet.lsn_hint();
            o.span.n = tos.len() as u32;
        }
        let bytes = self.encode("wire.encode", packet);
        let mut wire = self.wire.0.lock().expect("inline wire");
        let mut result = Ok(());
        for &to in tos {
            result = self.deliver(&mut wire, to, &bytes);
            if result.is_err() {
                break;
            }
        }
        self.pool.give_back(bytes);
        result
    }
}
