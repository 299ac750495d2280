//! Client-side network machinery: one endpoint multiplexing asynchronous
//! acknowledgments/NAKs and strict RPC round trips across all M servers.
//!
//! The paper's client has a *single logging process* (§3.1); likewise this
//! state machine is single-threaded. RPCs retry on timeout; asynchronous
//! `NewHighLSN` / `MissingInterval` messages received while waiting are
//! absorbed into client state rather than dropped.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use dlog_net::wire::{Message, NodeAddr, Packet, Request, Response};
use dlog_net::Endpoint;
use dlog_types::{ClientId, DlogError, IntervalList, Lsn, Result, ServerId};

/// Client-side network counters (used by the E3 capacity experiment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetClientStats {
    /// Packets sent.
    pub packets_out: u64,
    /// Packets received.
    pub packets_in: u64,
    /// RPC retries after timeouts.
    pub rpc_retries: u64,
    /// RPCs that exhausted their retries.
    pub rpc_failures: u64,
    /// `MissingInterval` NAKs received.
    pub naks_in: u64,
    /// `NewHighLSN` acknowledgments received.
    pub acks_in: u64,
}

/// A pending NAK from a server: the range it is missing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nak {
    /// Server reporting the gap.
    pub server: ServerId,
    /// First missing LSN.
    pub lo: Lsn,
    /// Last missing LSN.
    pub hi: Lsn,
}

/// Endpoint + directory + dispatch state.
pub struct ClientNet<E: Endpoint> {
    endpoint: E,
    addrs: HashMap<ServerId, NodeAddr>,
    rev: HashMap<NodeAddr, ServerId>,
    next_rpc_id: u64,
    /// Highest LSN each server has acknowledged durable.
    acks: HashMap<ServerId, Lsn>,
    /// Unprocessed NAKs, in arrival order.
    naks: VecDeque<Nak>,
    /// Test hook: round-trip budget per RPC attempt.
    pub rpc_timeout: Duration,
    /// Test hook: attempts per RPC before declaring the server unavailable.
    pub rpc_retries: u32,
    stats: NetClientStats,
}

impl<E: Endpoint> ClientNet<E> {
    /// Wrap an endpoint with a server directory.
    #[must_use]
    pub fn new(endpoint: E, addrs: HashMap<ServerId, NodeAddr>) -> Self {
        let rev = addrs.iter().map(|(s, a)| (*a, *s)).collect();
        ClientNet {
            endpoint,
            addrs,
            rev,
            next_rpc_id: 1,
            acks: HashMap::new(),
            naks: VecDeque::new(),
            rpc_timeout: Duration::from_millis(250),
            rpc_retries: 4,
            stats: NetClientStats::default(),
        }
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> NetClientStats {
        self.stats
    }

    /// Fire-and-forget an asynchronous message to `server`.
    ///
    /// # Errors
    /// Only local send failures; network loss is silent.
    pub fn send(&mut self, server: ServerId, msg: Message) -> Result<()> {
        let addr = self.addr_of(server)?;
        self.stats.packets_out += 1;
        self.endpoint
            .send(addr, &Packet::stamped(msg))
            .map_err(DlogError::Io)
    }

    /// Fire-and-forget the same message to several servers with one
    /// encode: the replication fan-out sends byte-identical packets, so
    /// the endpoint serializes once and fans the buffer out.
    ///
    /// # Errors
    /// Only local send failures; network loss is silent.
    pub fn send_many(&mut self, servers: &[ServerId], msg: Message) -> Result<()> {
        let mut addrs = [NodeAddr(0); 16];
        let packet = Packet::stamped(msg);
        // Fixed-size scratch keeps this allocation-free for any realistic
        // replica set; larger sets just fan out in chunks.
        for chunk in servers.chunks(addrs.len()) {
            let dest = addrs.get_mut(..chunk.len()).unwrap_or_default();
            for (slot, server) in dest.iter_mut().zip(chunk) {
                *slot = self.addr_of(*server)?;
            }
            self.stats.packets_out += dest.len() as u64;
            self.endpoint
                .send_many(dest, &packet)
                .map_err(DlogError::Io)?;
        }
        Ok(())
    }

    /// Highest LSN `server` has acknowledged.
    #[must_use]
    pub fn acked(&self, server: ServerId) -> Lsn {
        self.acks.get(&server).copied().unwrap_or(Lsn::ZERO)
    }

    /// Pop the next pending NAK, if any.
    pub fn take_nak(&mut self) -> Option<Nak> {
        self.naks.pop_front()
    }

    /// Receive and dispatch packets for up to `timeout`. Returns `true` if
    /// at least one packet was absorbed.
    ///
    /// # Errors
    /// Propagates endpoint failures.
    pub fn poll(&mut self, timeout: Duration) -> Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self
                .endpoint
                .recv(remaining.max(Duration::from_millis(1)))?
            {
                Some((from, pkt)) => {
                    self.dispatch(from, pkt.msg, None);
                    // Drain whatever else is immediately available.
                    while let Some((from, pkt)) = self.endpoint.recv(Duration::ZERO)? {
                        self.dispatch(from, pkt.msg, None);
                    }
                    return Ok(true);
                }
                None => {
                    if Instant::now() >= deadline {
                        return Ok(false);
                    }
                }
            }
        }
    }

    /// Perform a strict RPC with retries. Asynchronous messages arriving
    /// meanwhile are dispatched, not lost.
    ///
    /// # Errors
    /// [`DlogError::ServerUnavailable`] after the retry budget.
    pub fn rpc(&mut self, server: ServerId, req: Request) -> Result<Response> {
        let addr = self.addr_of(server)?;
        let id = self.next_rpc_id;
        self.next_rpc_id += 1;
        for attempt in 0..=self.rpc_retries {
            if attempt > 0 {
                self.stats.rpc_retries += 1;
            }
            self.stats.packets_out += 1;
            self.endpoint
                .send(
                    addr,
                    &Packet::stamped(Message::Request {
                        id,
                        body: req.clone(),
                    }),
                )
                .map_err(DlogError::Io)?;
            let deadline = Instant::now() + self.rpc_timeout;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let Some((from, pkt)) = self.endpoint.recv(remaining)? else {
                    break;
                };
                let mut hit: Option<Response> = None;
                self.dispatch(from, pkt.msg, Some((id, &mut hit)));
                if let Some(resp) = hit {
                    return Ok(resp);
                }
            }
        }
        self.stats.rpc_failures += 1;
        Err(DlogError::ServerUnavailable { server })
    }

    /// `client`'s interval lists (§3.1.1) from those of `servers` that
    /// answer. "The client process can poll until it receives responses
    /// from enough servers" (§3.2): while fewer than `need` have answered,
    /// the silent ones are asked again, for three rounds in all. Each
    /// round already waits out a silent server's RPC retries.
    pub fn interval_lists(
        &mut self,
        client: ClientId,
        servers: &[ServerId],
        need: usize,
    ) -> Vec<(ServerId, IntervalList)> {
        let mut lists: Vec<(ServerId, IntervalList)> = Vec::new();
        for _ in 0..3 {
            for &s in servers {
                if lists.iter().any(|(got, _)| *got == s) {
                    continue;
                }
                if let Ok(list) = self.interval_list(s, client) {
                    lists.push((s, list));
                }
            }
            if lists.len() >= need {
                break;
            }
        }
        lists
    }

    /// `server`'s whole interval list for `client`: a list longer than
    /// one reply arrives in pages, each asked for from the index after
    /// the last interval received.
    fn interval_list(&mut self, server: ServerId, client: ClientId) -> Result<IntervalList> {
        let mut list = IntervalList::new();
        loop {
            let first = u32::try_from(list.len()).unwrap_or(u32::MAX);
            let Response::Intervals {
                intervals: page,
                more,
            } = self.rpc(server, Request::IntervalList { client, first })?
            else {
                return Err(DlogError::Protocol(format!(
                    "IntervalList to {server}: unexpected response"
                )));
            };
            if page.is_empty() && more {
                return Err(DlogError::Protocol(format!(
                    "IntervalList to {server}: an empty page with more to follow"
                )));
            }
            if list.is_empty() {
                list = page;
            } else {
                for &iv in page.intervals() {
                    list.push(iv).map_err(DlogError::Protocol)?;
                }
            }
            if !more {
                return Ok(list);
            }
        }
    }

    /// Perform a shard-agnostic RPC (`Status` / `Stats`) against every
    /// shard of `server` and collect one response per shard. A sharded
    /// server broadcasts such requests internally and each shard answers
    /// stamped with its `shard` / `shards` gauges; the first response
    /// tells us how many rows to expect, and duplicate rows (datagram
    /// duplication, retries) are dropped by shard index. An unsharded
    /// server yields exactly one row, making this a drop-in superset of
    /// [`ClientNet::rpc`] for these two requests.
    ///
    /// # Errors
    /// [`DlogError::ServerUnavailable`] when no shard answers within the
    /// retry budget. A partial row set (some shards answered, the rest
    /// timed out) is returned as-is rather than failing — observability
    /// must degrade, not disappear.
    pub fn rpc_all(&mut self, server: ServerId, req: Request) -> Result<Vec<Response>> {
        let addr = self.addr_of(server)?;
        let id = self.next_rpc_id;
        self.next_rpc_id += 1;
        for attempt in 0..=self.rpc_retries {
            if attempt > 0 {
                self.stats.rpc_retries += 1;
            }
            self.stats.packets_out += 1;
            self.endpoint
                .send(
                    addr,
                    &Packet::stamped(Message::Request {
                        id,
                        body: req.clone(),
                    }),
                )
                .map_err(DlogError::Io)?;
            let mut rows: Vec<Response> = Vec::new();
            let mut seen_shards: Vec<u64> = Vec::new();
            let mut want = 1usize;
            let deadline = Instant::now() + self.rpc_timeout;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let Some((from, pkt)) = self.endpoint.recv(remaining)? else {
                    break;
                };
                let mut hit: Option<Response> = None;
                self.dispatch(from, pkt.msg, Some((id, &mut hit)));
                let Some(resp) = hit else { continue };
                let key = match &resp {
                    Response::Status { shard, shards, .. }
                    | Response::Stats { shard, shards, .. } => {
                        want = (*shards).max(1) as usize;
                        *shard
                    }
                    _ => rows.len() as u64,
                };
                if seen_shards.contains(&key) {
                    continue;
                }
                seen_shards.push(key);
                rows.push(resp);
                if rows.len() >= want {
                    return Ok(rows);
                }
            }
            if !rows.is_empty() {
                return Ok(rows);
            }
        }
        self.stats.rpc_failures += 1;
        Err(DlogError::ServerUnavailable { server })
    }

    fn dispatch(
        &mut self,
        from: NodeAddr,
        msg: Message,
        rpc: Option<(u64, &mut Option<Response>)>,
    ) {
        self.stats.packets_in += 1;
        let server = self.rev.get(&from).copied();
        match msg {
            Message::NewHighLsn { lsn, .. } => {
                if let Some(s) = server {
                    self.stats.acks_in += 1;
                    let e = self.acks.entry(s).or_insert(Lsn::ZERO);
                    *e = (*e).max(lsn);
                }
            }
            Message::MissingInterval { lo, hi, .. } => {
                if let Some(s) = server {
                    self.stats.naks_in += 1;
                    self.naks.push_back(Nak { server: s, lo, hi });
                }
            }
            Message::Response { id, body } => {
                if let Some((want, slot)) = rpc {
                    if id == want {
                        *slot = Some(body);
                    }
                    // Stale response to a retried/abandoned RPC: drop.
                }
            }
            _ => {} // server-bound traffic echoed back: ignore
        }
    }

    fn addr_of(&self, server: ServerId) -> Result<NodeAddr> {
        self.addrs
            .get(&server)
            .copied()
            .ok_or(DlogError::ServerUnavailable { server })
    }
}
