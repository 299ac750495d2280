//! The server event loop and its supervisor: N per-shard loops behind
//! one endpoint, N = 1 being the paper's single sequential server.
//!
//! `shard_loop` is the only code that drives a [`LogServer`] from a
//! transport. Each loop owns a private `LogServer` (and therefore a
//! private `LogStore`, obligation table, and group-commit window); the
//! entry points differ only in where a loop's next packet comes from:
//!
//! * **one shard** ([`ShardSupervisor::spawn`] with one server, and
//!   [`crate::runner::ServerRunner`] on any [`Endpoint`]): the loop calls
//!   [`Endpoint::recv`] itself — one thread, no queue hop;
//! * **N > 1 shards** ([`ShardSupervisor::spawn`] on a
//!   [`RoutedEndpoint`]): the transport steers each encoded frame to a
//!   per-shard receive handle by the wire header's log hint, and the
//!   shard's loop decodes it. In-process the sending thread steers; over
//!   UDP the socket's one reader thread does.
//!
//! Routing rule (must match [`Packet::peek_route_hint`] and
//! [`LogId::shard`](dlog_types::LogId::shard)):
//!
//! * a nonzero `log` header field routes by that id (clients stamp it
//!   from the body, [`Packet::stamped`]);
//! * a zero hint is **broadcast** to every shard: shard-agnostic control
//!   traffic (`Status`, `Stats`), where each shard answers with its own
//!   `shard` / `shards` gauges so a collector can merge the rows, and
//!   unstamped log traffic, which only the owning shard answers (the
//!   ownership guard in [`LogServer::handle_into`]).
//!
//! Replies go out through the same shared endpoint from every shard
//! (`Endpoint` sends are `&self`); the transports are `Sync`.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Duration;

use dlog_net::wire::{codes, Message, NodeAddr, Packet, Response};
use dlog_net::{Endpoint, RoutedEndpoint, ShardRx};
use dlog_types::{Rank, Ranked};

use crate::LogServer;

/// How many queued packets one loop iteration may ingest before replies
/// are flushed. Bounds the extra latency a burst can impose on the first
/// sender's ack while still amortizing per-packet overhead.
const INGEST_BATCH: usize = 32;

/// One poll of a loop's packet source: a packet, nothing within the
/// timeout, or the transport's failure.
type Polled = io::Result<Option<(NodeAddr, Packet)>>;

/// Why the first server thread to leave left — `Ok` for a stop request,
/// `Err` for a dead transport or a panic — kept (as kind and text, so it
/// can be handed out more than once) for [`ShardSupervisor::wait`].
struct Exits {
    first: Ranked<Option<Result<(), (io::ErrorKind, String)>>>,
    left: Condvar,
}

impl Exits {
    fn report(&self, why: io::Result<()>) {
        self.first
            .lock()
            .get_or_insert(why.map_err(|e| (e.kind(), e.to_string())));
        self.left.notify_all();
    }
}

/// Held by every server thread: a panic (the §3.1 fail-stops are panics:
/// a store that rejects a validated record in `LogServer::ingest`, and a
/// failed group-commit round at any window) is reported like any other
/// exit, so [`ShardSupervisor::wait`] never outlives the loop it waits
/// for.
struct ReportPanic(Arc<Exits>);

impl Drop for ReportPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .report(Err(io::Error::other("server thread panicked")));
        }
    }
}

/// Handle to a running server: one event loop per shard.
pub struct ShardSupervisor {
    stop: Arc<AtomicBool>,
    exits: Arc<Exits>,
    shards: Vec<JoinHandle<LogServer>>,
}

impl ShardSupervisor {
    /// Spawn one event loop per element of `servers` (shard k serves
    /// `servers[k]`; the caller stamps each config with
    /// [`crate::ServerConfig::for_shard`] and opens per-shard storage
    /// roots). Every shard replies through the shared endpoint. A single
    /// shard receives from it directly; more receive from the routed
    /// queues of [`RoutedEndpoint::shard_rx`].
    ///
    /// # Panics
    /// Panics when `servers` is empty or a thread fails to spawn.
    #[must_use]
    pub fn spawn<E>(servers: Vec<LogServer>, endpoint: E) -> ShardSupervisor
    where
        E: RoutedEndpoint + Sync + 'static,
    {
        let endpoint = Arc::new(endpoint);
        if servers.len() <= 1 {
            return Self::spawn_direct(servers, endpoint);
        }
        let nexts = endpoint
            .shard_rx(servers.len())
            .into_iter()
            .map(|mut rx| move |t| rx.recv(t));
        Self::spawn_loops(servers, endpoint, nexts)
    }

    /// [`ShardSupervisor::spawn`], under the name `benchmark/` calls.
    #[must_use]
    pub fn spawn_routed<E>(servers: Vec<LogServer>, endpoint: E) -> ShardSupervisor
    where
        E: RoutedEndpoint + Sync + 'static,
    {
        Self::spawn(servers, endpoint)
    }

    /// Spawn loops that receive from `endpoint` itself: one shard, on
    /// any transport.
    pub(crate) fn spawn_direct<E: Endpoint + Sync + 'static>(
        servers: Vec<LogServer>,
        endpoint: Arc<E>,
    ) -> ShardSupervisor {
        let ep = endpoint.clone();
        Self::spawn_loops(servers, endpoint, [move |t| ep.recv(t)])
    }

    /// The one place server threads start: a [`shard_loop`] per server,
    /// shard k polling the k-th element of `nexts`.
    #[expect(
        clippy::expect_used,
        reason = "thread-lifecycle expect at server startup, not on the request path"
    )]
    fn spawn_loops<E, N>(
        servers: Vec<LogServer>,
        endpoint: Arc<E>,
        nexts: impl IntoIterator<Item = N>,
    ) -> ShardSupervisor
    where
        E: Endpoint + Sync + 'static,
        N: FnMut(Duration) -> Polled + Send + 'static,
    {
        assert!(!servers.is_empty(), "a server needs >= 1 shard");
        let server_id = servers.first().map_or(0, |s| s.id().0);
        let stop = Arc::new(AtomicBool::new(false));
        let exits = Arc::new(Exits {
            first: Ranked::new(Rank::ShardExits, None),
            left: Condvar::new(),
        });
        let mut shards = Vec::with_capacity(servers.len());
        for (k, (server, next)) in servers.into_iter().zip(nexts).enumerate() {
            let (ep, stop, exits) = (endpoint.clone(), stop.clone(), exits.clone());
            let handle = std::thread::Builder::new()
                .name(format!("log-server-{server_id}-s{k}"))
                .spawn(move || {
                    let _panic = ReportPanic(exits.clone());
                    let (server, why) = shard_loop(server, &stop, &*ep, next);
                    exits.report(why);
                    server
                })
                .expect("spawn server thread");
            shards.push(handle);
        }
        ShardSupervisor {
            stop,
            exits,
            shards,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Block until a server thread has exited and say why: `Ok` after a
    /// stop request, `Err` for the transport failure or panic that ended
    /// it. The answer stays the same on every later call, and the
    /// supervisor is still whole afterwards — [`ShardSupervisor::stop`]
    /// (or dropping it) ends the remaining loops gracefully.
    ///
    /// # Errors
    /// The receive error of the first loop a dead transport ended, or a
    /// note that a server thread panicked.
    pub fn wait(&self) -> io::Result<()> {
        let first = self.exits.first.lock();
        let first = first.wait_while(&self.exits.left, |first| first.is_none());
        match &*first {
            Some(Err((kind, text))) => Err(io::Error::new(*kind, text.clone())),
            _ => Ok(()),
        }
    }

    /// Stop every loop gracefully and recover the per-shard servers, in
    /// shard order. Each shard finishes its pending group commit and
    /// syncs its store on the way out.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "joining our own shard threads during shutdown; a poisoned join means a shard already panicked"
    )]
    pub fn stop(mut self) -> Vec<LogServer> {
        self.stop.store(true, Ordering::Relaxed);
        std::mem::take(&mut self.shards)
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    }

    /// Simulate a hard crash of the whole process: every shard stops
    /// where it stands (no syncing beyond what the loop's exit already
    /// did; true torn-write crashes are exercised at the storage layer,
    /// where the disk state can be manipulated directly) and its store is
    /// dropped. Returns each shard's durable stream end at the moment of
    /// the crash, in shard order — per-shard recovery replays each
    /// shard's own storage root independently, and harnesses stamp a
    /// `Stage::Crash` trace event with it.
    pub fn crash(self) -> Vec<u64> {
        self.stop()
            .into_iter()
            .map(|mut server| server.store_mut().stream_end())
            .collect()
    }
}

impl Drop for ShardSupervisor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.shards.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a panicked thread already reported itself through `ReportPanic`, which `wait` returns"
            )]
            let _ = h.join();
        }
    }
}

/// The server event loop — the only one. `next` yields the loop's next
/// packet (endpoint receive or routed receive);
/// ingest batching, reply flushing, group-commit ticks, idle archive
/// work, and the final flush-and-sync are the same for all of them.
/// Returns the server and why the loop left: `Ok` for a stop request,
/// `Err` for the receive error of a dead transport.
fn shard_loop<E: Endpoint + ?Sized>(
    mut server: LogServer,
    stop: &AtomicBool,
    ep: &E,
    mut next: impl FnMut(Duration) -> Polled,
) -> (LogServer, io::Result<()>) {
    // One reply buffer for the life of the thread: handle_into appends
    // into it, so after warm-up the steady-state loop issues no
    // per-packet Vec allocations for replies.
    let mut replies = Vec::with_capacity(64);
    let why = loop {
        if stop.load(Ordering::Relaxed) {
            break Ok(());
        }
        // With forces waiting on a group commit, poll rather than block:
        // the batch must flush the moment the inbox drains, so the
        // coalescing window only adds latency while more work is
        // actually arriving.
        let timeout = if server.has_pending_forces() {
            Duration::ZERO
        } else {
            Duration::from_millis(20)
        };
        match next(timeout) {
            Ok(Some((from, pkt))) => {
                // Batch ingest: after the first packet, drain whatever
                // else is already queued (up to a cap that keeps force
                // acks prompt) before sending replies, amortizing the
                // send/recv syscall boundary across the burst.
                replies.clear();
                server.handle_into(from, &pkt, &mut replies);
                for _ in 0..INGEST_BATCH - 1 {
                    match next(Duration::ZERO) {
                        Ok(Some((from, pkt))) => {
                            server.handle_into(from, &pkt, &mut replies);
                        }
                        // A dead transport fails again on the next poll,
                        // after this batch's replies are out.
                        _ => break,
                    }
                }
                send_all(ep, &mut server, replies.drain(..));
                let acks = server.force_tick();
                send_all(ep, &mut server, acks);
            }
            Ok(None) => {
                if server.has_pending_forces() {
                    // Inbox drained: commit the group now.
                    let acks = server.flush_pending_forces();
                    send_all(ep, &mut server, acks);
                } else {
                    // Idle: let the archive tier make progress.
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "a failed archive round is retried next interval and shows in the `upload_retries` / `pending` Status gauges"
                    )]
                    let _ = server.archive_tick();
                }
            }
            Err(e) => break Err(e),
        }
    };
    // Never strand queued force obligations: whatever ended the loop, it
    // finishes the round and tries to get the acks out before the
    // endpoint goes away, then leaves storage clean.
    let acks = server.flush_pending_forces();
    send_all(ep, &mut server, acks);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "graceful-shutdown courtesy sync after the final force flush; every acked record was already forced through the store's force path, whose Result is consumed"
    )]
    let _ = server.store_mut().sync();
    (server, why)
}

/// Send every reply of `server`'s, in order, each by [`send_reply`],
/// and count what became of it.
fn send_all<E: Endpoint + ?Sized>(
    ep: &E,
    server: &mut LogServer,
    replies: impl IntoIterator<Item = (NodeAddr, Packet)>,
) {
    for (to, reply) in replies {
        server.count_reply(send_reply(to, &reply, |to, packet| ep.send(to, packet)));
    }
}

/// What became of a reply [`send_reply`] was handed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyFate {
    /// The transport took it.
    Sent,
    /// The transport failed to send it, which is network loss
    /// (`ServerStats::replies_shed`).
    Shed,
    /// The transport refused it as over-size
    /// (`ServerStats::replies_refused`).
    Refused,
}

/// Send one server reply with `send`, and say what became of it. A send
/// error is network loss, which the protocol recovers from end to end,
/// so it stops nothing here. That includes `WouldBlock` from a UDP
/// socket whose send buffer is full while polling has left it
/// non-blocking.
///
/// One error is not loss: a reply the transport refuses as
/// `InvalidInput` (over `MAX_PACKET_BYTES`) would be refused on every
/// retry. An RPC's client gets a `PROTOCOL` error for that RPC instead,
/// at once, rather than retrying until it declares the server
/// unavailable. The server loop and the synchronous test world both
/// send through this, so they answer and count a refused reply alike.
pub fn send_reply(
    to: NodeAddr,
    reply: &Packet,
    mut send: impl FnMut(NodeAddr, &Packet) -> io::Result<()>,
) -> ReplyFate {
    let Err(failed) = send(to, reply) else {
        return ReplyFate::Sent;
    };
    if failed.kind() != io::ErrorKind::InvalidInput {
        return ReplyFate::Shed;
    }
    if let Message::Response { id, .. } = reply.msg {
        let body = Response::Err {
            code: codes::PROTOCOL,
            detail: "reply exceeds MTU".into(),
        };
        #[expect(
            clippy::let_underscore_must_use,
            reason = "send failures are network loss; the protocol recovers end to end"
        )]
        let _ = send(to, &Packet::bare(Message::Response { id, body }));
    }
    ReplyFate::Refused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenStore;
    use crate::ServerConfig;
    use dlog_net::udp::UdpEndpoint;
    use dlog_net::wire::Request;
    use dlog_net::{FaultPlan, MemEndpoint, MemNetwork, MemShardRx};
    use dlog_storage::{LogStore, NvramDevice, StoreOptions};
    use dlog_types::{ClientId, Epoch, LogData, LogId, Lsn, ServerId};
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    fn shard_server_with(
        root: &std::path::Path,
        shard: u64,
        shards: u64,
        coalesce_window: Duration,
    ) -> LogServer {
        let dir = root.join(format!("shard-{shard}"));
        let opts = StoreOptions {
            fsync: false,
            ..StoreOptions::default()
        };
        let store = LogStore::open(&dir, opts, NvramDevice::new(1 << 20)).unwrap();
        let gens = GenStore::open(dir.join("gens")).unwrap();
        let mut config = ServerConfig::new(ServerId(1)).for_shard(shard, shards);
        config.coalesce_window = coalesce_window;
        LogServer::new(config, store, gens).unwrap()
    }

    fn shard_server(root: &std::path::Path, shard: u64, shards: u64) -> LogServer {
        shard_server_with(root, shard, shards, Duration::ZERO)
    }

    fn tmproot(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join("dlog-shard-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn force_pkt(client: u64, lo: u64, hi: u64) -> Packet {
        let records: Vec<(Lsn, LogData)> = (lo..=hi)
            .map(|i| (Lsn(i), LogData::from(vec![i as u8; 10])))
            .collect();
        Packet::routed(
            LogId::for_client(ClientId(client)),
            Message::ForceLog {
                client: ClientId(client),
                epoch: Epoch(1),
                records,
            },
        )
    }

    /// The ways a loop gets its packets.
    #[derive(Clone, Copy, Debug)]
    enum Entry {
        /// One shard receiving from the endpoint itself (`ServerRunner`).
        Direct,
        /// Two shards on the in-memory transport's routed queues.
        Routed,
        /// Two shards on the routed queues a UDP socket's reader fills.
        RoutedUdp,
    }

    const ENTRIES: [Entry; 3] = [Entry::Direct, Entry::Routed, Entry::RoutedUdp];

    /// The entries a [`MemNetwork`] can carry (the fault-injecting
    /// transports below wrap a mem endpoint).
    const MEM_ENTRIES: [Entry; 2] = [Entry::Direct, Entry::Routed];

    impl Entry {
        fn shards(self) -> u64 {
            match self {
                Entry::Direct => 1,
                Entry::Routed | Entry::RoutedUdp => 2,
            }
        }

        fn spawn<E>(self, tag: &str, endpoint: E) -> ShardSupervisor
        where
            E: RoutedEndpoint + Sync + 'static,
        {
            let root = tmproot(&format!("{tag}-{self:?}"));
            let n = self.shards();
            let servers = (0..n).map(|k| shard_server(&root, k, n)).collect();
            ShardSupervisor::spawn(servers, endpoint)
        }
    }

    /// A promiscuous UDP server endpoint at `NodeAddr(1)` on loopback,
    /// and a client endpoint at `NodeAddr(100)` that knows where it is.
    fn udp_pair() -> (UdpEndpoint, UdpEndpoint) {
        let loopback = "127.0.0.1:0".parse().unwrap();
        let server = UdpEndpoint::bind(NodeAddr(1), loopback).unwrap();
        server.set_promiscuous(true);
        let client = UdpEndpoint::bind(NodeAddr(100), loopback).unwrap();
        client.add_peer(NodeAddr(1), server.socket_addr().unwrap());
        (server, client)
    }

    /// Two clients that hash to different shards of two.
    fn two_clients() -> (u64, u64) {
        let c0 = 1u64;
        let c1 = (2..64)
            .find(|&c| LogId(c).shard(2) != LogId(c0).shard(2))
            .expect("some client maps to the other shard");
        (c0, c1)
    }

    #[test]
    fn every_entry_point_serves_forces_rpcs_and_status() {
        for entry in ENTRIES {
            if let Entry::RoutedUdp = entry {
                let (server, client) = udp_pair();
                serves_forces_rpcs_and_status(entry, entry.spawn("serve", server), &client);
            } else {
                let net = MemNetwork::new(FaultPlan::reliable());
                let sup = entry.spawn("serve", net.endpoint(NodeAddr(1)));
                serves_forces_rpcs_and_status(entry, sup, &net.endpoint(NodeAddr(100)));
            }
        }
    }

    fn serves_forces_rpcs_and_status(entry: Entry, sup: ShardSupervisor, ep: &impl Endpoint) {
        let n = entry.shards();
        assert_eq!(sup.shards() as u64, n);

        let (c0, c1) = two_clients();
        ep.send(NodeAddr(1), &force_pkt(c0, 1, 3)).unwrap();
        ep.send(NodeAddr(1), &force_pkt(c1, 1, 5)).unwrap();
        let mut acks = std::collections::HashMap::new();
        for _ in 0..2 {
            let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("ack");
            if let Message::NewHighLsn { client, lsn } = pkt.msg {
                acks.insert(client.0, lsn.0);
            }
        }
        assert_eq!(acks.get(&c0), Some(&3), "{entry:?}");
        assert_eq!(acks.get(&c1), Some(&5), "{entry:?}");

        // RPC round trip, routed to the client's shard.
        ep.send(
            NodeAddr(1),
            &Packet::routed(
                LogId::for_client(ClientId(c0)),
                Message::Request {
                    id: 77,
                    body: Request::IntervalList {
                        client: ClientId(c0),
                        first: 0,
                    },
                },
            ),
        )
        .unwrap();
        let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("resp");
        match pkt.msg {
            Message::Response {
                id: 77,
                body: Response::Intervals { intervals, .. },
            } => assert_eq!(intervals.len(), 1, "{entry:?}"),
            other => panic!("{entry:?}: unexpected {other:?}"),
        }

        // A shard-agnostic Status request fans out to every shard.
        ep.send(
            NodeAddr(1),
            &Packet::bare(Message::Request {
                id: 11,
                body: Request::Status,
            }),
        )
        .unwrap();
        let mut rows = std::collections::BTreeSet::new();
        for _ in 0..n {
            let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("row");
            match pkt.msg {
                Message::Response {
                    id: 11,
                    body: Response::Status { shard, shards, .. },
                } => {
                    assert_eq!(shards, n, "{entry:?}");
                    rows.insert(shard);
                }
                other => panic!("{entry:?}: unexpected {other:?}"),
            }
        }
        assert_eq!(rows, (0..n).collect(), "{entry:?}");

        // Graceful stop: each shard holds exactly its own client's
        // log, under its own storage root.
        let recovered = sup.stop();
        let per_shard: Vec<u64> = recovered.iter().map(|s| s.stats().records_stored).collect();
        assert_eq!(per_shard.len() as u64, n, "{entry:?}");
        assert_eq!(per_shard.iter().sum::<u64>(), 8, "{entry:?}");
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "{entry:?}: every shard must have ingested: {per_shard:?}"
        );
    }

    /// A transport whose receive side fails for good once `left` packets
    /// have been delivered (counted across the endpoint and its shard
    /// handles), or — with `send_panics` — whose first reply panics the
    /// loop that sends it, as a §3.1 fail-stop inside `handle_into` would.
    struct Dying<T> {
        inner: T,
        left: Arc<AtomicUsize>,
        send_panics: bool,
    }

    fn poll_dying(left: &AtomicUsize, recv: impl FnOnce() -> Polled) -> Polled {
        if left.load(Ordering::SeqCst) == 0 {
            return Err(io::Error::other("transport died"));
        }
        let got = recv()?;
        if got.is_some() {
            left.fetch_sub(1, Ordering::SeqCst);
        }
        Ok(got)
    }

    impl Endpoint for Dying<MemEndpoint> {
        fn local_addr(&self) -> NodeAddr {
            self.inner.local_addr()
        }
        fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
            assert!(!self.send_panics, "fail-stop (this test's own)");
            self.inner.send(to, packet)
        }
        fn recv(&self, timeout: Duration) -> Polled {
            poll_dying(&self.left, || self.inner.recv(timeout))
        }
    }

    impl ShardRx for Dying<MemShardRx> {
        fn recv(&mut self, timeout: Duration) -> Polled {
            poll_dying(&self.left, || self.inner.recv(timeout))
        }
    }

    impl RoutedEndpoint for Dying<MemEndpoint> {
        type Rx = Dying<MemShardRx>;
        fn shard_rx(&self, shards: usize) -> Vec<Self::Rx> {
            let wrap = |inner| Dying {
                inner,
                left: self.left.clone(),
                send_panics: self.send_panics,
            };
            self.inner.shard_rx(shards).into_iter().map(wrap).collect()
        }
    }

    /// A transport that fails to send the first RPC reply it is asked to
    /// send, with `kind`: `InvalidInput` refuses it as over
    /// `MAX_PACKET_BYTES`, `WouldBlock` sheds it as a full UDP send
    /// buffer would.
    struct FailsOneReply {
        inner: MemEndpoint,
        kind: io::ErrorKind,
        failed: AtomicBool,
    }

    impl Endpoint for FailsOneReply {
        fn local_addr(&self) -> NodeAddr {
            self.inner.local_addr()
        }
        fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
            if matches!(packet.msg, Message::Response { .. })
                && !self.failed.swap(true, Ordering::SeqCst)
            {
                return Err(io::Error::new(
                    self.kind,
                    "reply not sent (this test's own)",
                ));
            }
            self.inner.send(to, packet)
        }
        fn recv(&self, timeout: Duration) -> Polled {
            self.inner.recv(timeout)
        }
    }

    /// A server loop behind a transport that fails its first RPC reply
    /// with `kind`, and a client of it: what the client's first two
    /// `IntervalList` RPCs get, how often it retried, and the server's
    /// `(replies_shed, replies_refused)`.
    fn first_reply_fails(kind: io::ErrorKind) -> (Vec<Response>, u64, (u64, u64)) {
        let net = MemNetwork::new(FaultPlan::reliable());
        let root = tmproot(&format!("fails-{kind:?}"));
        let failing = FailsOneReply {
            inner: net.endpoint(NodeAddr(1)),
            kind,
            failed: AtomicBool::new(false),
        };
        let sup = ShardSupervisor::spawn_direct(vec![shard_server(&root, 0, 1)], Arc::new(failing));
        let addrs = std::collections::HashMap::from([(ServerId(1), NodeAddr(1))]);
        let mut client = dlog_core::net::ClientNet::new(net.endpoint(NodeAddr(100)), addrs);
        client.rpc_timeout = Duration::from_millis(20);
        let request = Request::IntervalList {
            client: ClientId(1),
            first: 0,
        };
        let replies = (0..2)
            .map(|_| client.rpc(ServerId(1), request.clone()).unwrap())
            .collect();
        let stats = sup.stop().iter().map(LogServer::stats).next().unwrap();
        let retries = client.stats().rpc_retries;
        (
            replies,
            retries,
            (stats.replies_shed, stats.replies_refused),
        )
    }

    #[test]
    fn an_unsendable_reply_is_a_typed_error_not_loss() {
        let (replies, retries, fates) = first_reply_fails(io::ErrorKind::InvalidInput);
        let refused = Response::Err {
            code: codes::PROTOCOL,
            detail: "reply exceeds MTU".into(),
        };
        assert_eq!(replies[0], refused);
        assert_eq!(retries, 0);
        // Only that reply was refused: the next one goes through.
        assert!(
            matches!(replies[1], Response::Intervals { .. }),
            "{replies:?}"
        );
        assert_eq!(fates, (0, 1));
    }

    #[test]
    fn a_reply_the_transport_fails_to_send_is_shed_as_loss() {
        let (replies, retries, fates) = first_reply_fails(io::ErrorKind::WouldBlock);
        assert!(
            replies
                .iter()
                .all(|r| matches!(r, Response::Intervals { .. })),
            "{replies:?}"
        );
        assert_eq!(retries, 1, "the shed reply is recovered by a retry");
        assert_eq!(fates, (1, 0));
    }

    #[test]
    fn dead_transport_ends_every_loop_through_the_graceful_exit() {
        for entry in MEM_ENTRIES {
            let net = MemNetwork::new(FaultPlan::reliable());
            let dying = Dying {
                inner: net.endpoint(NodeAddr(1)),
                left: Arc::new(AtomicUsize::new(1)),
                send_panics: false,
            };
            let sup = entry.spawn("dying", dying);

            // The one packet the transport still delivers is forced and
            // acked; the next receive fails.
            let ep = net.endpoint(NodeAddr(100));
            ep.send(NodeAddr(1), &force_pkt(1, 1, 3)).unwrap();
            let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("ack");
            assert!(matches!(pkt.msg, Message::NewHighLsn { .. }), "{entry:?}");

            let deadline = Instant::now() + Duration::from_secs(5);
            while !sup.shards.iter().all(JoinHandle::is_finished) {
                assert!(
                    Instant::now() < deadline,
                    "{entry:?}: loops still running on a dead transport"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // The reason is kept, not consumed: a second wait says the same.
            for _ in 0..2 {
                let why = sup.wait().expect_err("a loop left on a receive error");
                assert_eq!(why.to_string(), "transport died", "{entry:?}");
            }

            let recovered = sup.stop();
            assert_eq!(recovered.len() as u64, entry.shards(), "{entry:?}");
            let stored: u64 = recovered.iter().map(|s| s.stats().records_stored).sum();
            assert_eq!(stored, 3, "{entry:?}");
        }
    }

    #[test]
    fn a_panicking_loop_is_an_exit_that_wait_reports() {
        for entry in MEM_ENTRIES {
            let net = MemNetwork::new(FaultPlan::reliable());
            let panicking = Dying {
                inner: net.endpoint(NodeAddr(1)),
                left: Arc::new(AtomicUsize::new(usize::MAX)),
                send_panics: true,
            };
            let sup = entry.spawn("panicking", panicking);

            // The force is ingested; sending its ack kills the loop.
            let ep = net.endpoint(NodeAddr(100));
            ep.send(NodeAddr(1), &force_pkt(1, 1, 3)).unwrap();

            // `wait` would block for as long as nothing is reported, so
            // bound the report itself.
            let deadline = Instant::now() + Duration::from_secs(5);
            while sup.exits.first.lock().is_none() {
                assert!(
                    Instant::now() < deadline,
                    "{entry:?}: a loop panicked and nothing was reported"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let why = sup.wait().expect_err("a loop left by panicking");
            assert_eq!(why.to_string(), "server thread panicked", "{entry:?}");
            // Dropping the supervisor still ends the surviving loops.
            drop(sup);
        }
    }

    #[test]
    fn one_shard_commits_a_coalesced_group_when_its_inbox_drains() {
        // The window never expires, so the acks can only come from the
        // pending-force arm: poll with ZERO, find the inbox empty, flush.
        let root = tmproot("coalesce");
        let server = shard_server_with(&root, 0, 1, Duration::from_secs(3600));
        let net = MemNetwork::new(FaultPlan::reliable());
        let sup = ShardSupervisor::spawn(vec![server], net.endpoint(NodeAddr(1)));

        let ep = net.endpoint(NodeAddr(100));
        ep.send(NodeAddr(1), &force_pkt(1, 1, 3)).unwrap();
        ep.send(NodeAddr(1), &force_pkt(2, 1, 5)).unwrap();
        for _ in 0..2 {
            let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("ack");
            assert!(matches!(pkt.msg, Message::NewHighLsn { .. }));
        }
        let stats = sup.stop().pop().expect("one shard").stats();
        assert_eq!(stats.coalesced_forces, 2);
        assert!((1..=2).contains(&stats.group_commits), "{stats:?}");
        assert_eq!(stats.records_stored, 8);
    }

    #[test]
    fn status_broadcast_returns_one_row_per_shard() {
        let root = tmproot("status");
        let servers = vec![
            shard_server(&root, 0, 3),
            shard_server(&root, 1, 3),
            shard_server(&root, 2, 3),
        ];
        let net = MemNetwork::new(FaultPlan::reliable());
        let sup = ShardSupervisor::spawn(servers, net.endpoint(NodeAddr(1)));

        let ep = net.endpoint(NodeAddr(100));
        ep.send(
            NodeAddr(1),
            &Packet::bare(Message::Request {
                id: 7,
                body: Request::Status,
            }),
        )
        .unwrap();
        let mut rows = std::collections::BTreeSet::new();
        for _ in 0..3 {
            let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("row");
            match pkt.msg {
                Message::Response {
                    id: 7,
                    body: Response::Status { shard, shards, .. },
                } => {
                    assert_eq!(shards, 3);
                    rows.insert(shard);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(rows, [0u64, 1, 2].into_iter().collect());
        drop(sup);
    }

    #[test]
    fn crash_and_per_shard_recovery_keep_forced_records() {
        let root = tmproot("crash");
        let servers = vec![shard_server(&root, 0, 2), shard_server(&root, 1, 2)];
        let net = MemNetwork::new(FaultPlan::reliable());
        let sup = ShardSupervisor::spawn(servers, net.endpoint(NodeAddr(1)));
        let ep = net.endpoint(NodeAddr(100));
        ep.send(NodeAddr(1), &force_pkt(1, 1, 4)).unwrap();
        let _ = ep.recv(Duration::from_secs(5)).unwrap().expect("ack");
        let ends = sup.crash();
        assert_eq!(ends.len(), 2);

        // Reboot: each shard recovers from its own root; the forced
        // records are there.
        let servers = vec![shard_server(&root, 0, 2), shard_server(&root, 1, 2)];
        let net = MemNetwork::new(FaultPlan::reliable());
        let sup = ShardSupervisor::spawn(servers, net.endpoint(NodeAddr(1)));
        let ep = net.endpoint(NodeAddr(100));
        ep.send(
            NodeAddr(1),
            &Packet::routed(
                LogId::for_client(ClientId(1)),
                Message::Request {
                    id: 9,
                    body: Request::ReadLogForward {
                        client: ClientId(1),
                        lsn: Lsn(1),
                        max_records: 16,
                    },
                },
            ),
        )
        .unwrap();
        let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("resp");
        match pkt.msg {
            Message::Response {
                id: 9,
                body: Response::Records { records },
            } => assert_eq!(records.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        drop(sup);
    }
}
