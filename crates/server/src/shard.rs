//! The server event loop and its supervisor: N per-shard loops behind
//! one endpoint, N = 1 being the paper's single sequential server.
//!
//! `shard_loop` is the only code that drives a [`LogServer`] from a
//! transport. Each loop owns a private `LogServer` (and therefore a
//! private `LogStore`, obligation table, and group-commit window); the
//! entry points differ only in where a loop's next packet comes from:
//!
//! * **one shard** ([`ShardSupervisor::spawn`] with one server, which is
//!   all [`crate::runner::ServerRunner`] is): the loop calls
//!   [`Endpoint::recv`] itself — one thread, no queue hop;
//! * **N shards on a [`RoutedEndpoint`]** ([`ShardSupervisor::spawn_routed`]):
//!   the transport steers frames to per-shard receive handles from the
//!   wire header, so a packet crosses one thread boundary;
//! * **N > 1 shards on any other transport** (UDP): a thin **dispatcher**
//!   thread owns the endpoint's receive side and moves each decoded
//!   packet to the queue of the shard `LogId → shard` hashes to. It
//!   decodes nothing itself, and the zero-copy payload views survive the
//!   handoff: `LogData` is `Arc`-backed, so the pool's buffer stays
//!   parked until the owning shard drops the last view.
//!
//! Routing rule (must match [`Packet::route_key`] and
//! [`LogId::shard`](dlog_types::LogId::shard)):
//!
//! * a nonzero `log` header field routes by that id;
//! * log traffic without a hint routes by the owning client's log;
//! * generator RPCs route by generator id;
//! * shard-agnostic control traffic (`Status`, `Stats`) is
//!   **broadcast** to every shard — each answers with its own `shard` /
//!   `shards` gauges so a collector can merge the rows.
//!
//! Replies go out through the same shared endpoint from every shard
//! (`Endpoint` sends are `&self`); the transports are `Sync`.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Duration;

use dlog_net::wire::{NodeAddr, Packet};
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

/// The dispatcher's run: feed the shard queues until the stop flag is up.
type Dispatcher = Box<dyn FnOnce(&AtomicBool) -> io::Result<()> + Send>;

/// One shard's packet queue. The `sleepers` counter lets the dispatcher
/// skip the condvar syscall entirely while the shard loop is awake — the
/// common case under load, where the queue never runs dry.
struct ShardInbox {
    q: VecDeque<(NodeAddr, Packet)>,
    sleepers: u32,
    /// The receive error that ended the dispatcher (as kind and text):
    /// nothing is queued again, and the shard loop gets it once `q` is
    /// empty, so every packet the dispatcher queued is still answered.
    dead: Option<(io::ErrorKind, String)>,
}

struct ShardQueue {
    inbox: Ranked<ShardInbox>,
    available: Condvar,
}

impl ShardQueue {
    fn new() -> Self {
        ShardQueue {
            inbox: Ranked::new(
                Rank::ShardInbox,
                ShardInbox {
                    q: VecDeque::new(),
                    sleepers: 0,
                    dead: None,
                },
            ),
            available: Condvar::new(),
        }
    }

    /// End the queue with the dispatcher's receive error.
    fn kill(&self, e: &io::Error) {
        self.inbox.lock().dead = Some((e.kind(), e.to_string()));
        self.available.notify_all();
    }

    fn push(&self, from: NodeAddr, pkt: Packet) {
        let mut inbox = self.inbox.lock();
        inbox.q.push_back((from, pkt));
        if inbox.sleepers > 0 {
            self.available.notify_one();
        }
    }

    /// Pop one packet, waiting up to `timeout`. `Duration::ZERO` never
    /// blocks, exactly like an endpoint's `recv(ZERO)`; a killed, empty
    /// queue fails like the transport it stands for.
    fn pop(&self, timeout: Duration) -> Polled {
        let mut inbox = self.inbox.lock();
        if let Some(item) = inbox.q.pop_front() {
            return Ok(Some(item));
        }
        if let Some((kind, text)) = &inbox.dead {
            return Err(io::Error::new(*kind, text.clone()));
        }
        if timeout.is_zero() {
            return Ok(None);
        }
        inbox.sleepers += 1;
        let (mut inbox, _timed_out) = inbox.wait_timeout(&self.available, timeout);
        inbox.sleepers = inbox.sleepers.saturating_sub(1);
        Ok(inbox.q.pop_front())
    }
}

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

/// Handle to a running server: one event loop per shard, plus a
/// dispatcher thread only where the transport cannot route for N > 1.
pub struct ShardSupervisor {
    stop: Arc<AtomicBool>,
    exits: Arc<Exits>,
    dispatcher: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<LogServer>>,
}

impl ShardSupervisor {
    /// Spawn one event loop per element of `servers` (shard k serves
    /// `servers[k]`; the caller stamps each config with
    /// [`crate::ServerConfig::for_shard`] and opens per-shard storage
    /// roots). Every shard replies through the shared endpoint. A single
    /// shard receives from it directly; with more, a dispatcher thread
    /// owns the receive side and feeds per-shard queues.
    ///
    /// # Panics
    /// Panics when `servers` is empty or a thread fails to spawn.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "thread-lifecycle expect at server startup, not on the request path"
    )]
    pub fn spawn<E: Endpoint + Sync + 'static>(
        servers: Vec<LogServer>,
        endpoint: E,
    ) -> ShardSupervisor {
        let endpoint = Arc::new(endpoint);
        let ep = endpoint.clone();
        if servers.len() <= 1 {
            Self::spawn_loops(servers, endpoint, [move |t| ep.recv(t)], None)
        } else {
            let queues: Vec<Arc<ShardQueue>> = servers
                .iter()
                .map(|_| Arc::new(ShardQueue::new()))
                .collect();
            let nexts = queues.clone().into_iter().map(|q| move |t| q.pop(t));
            let feed = move |stop: &AtomicBool| dispatch(&*ep, stop, &queues);
            Self::spawn_loops(servers, endpoint, nexts, Some(Box::new(feed)))
        }
        .expect("spawn server thread")
    }

    /// Spawn one event loop per shard on a transport that routes frames
    /// itself ([`RoutedEndpoint`]): each shard loop receives straight
    /// from its own routed queue, so there is no dispatcher thread and a
    /// packet crosses exactly one thread boundary between sender and
    /// shard. Semantically identical to [`ShardSupervisor::spawn`] — the
    /// transport applies the same routing rule from the wire header's
    /// log hint before decode.
    ///
    /// # Panics
    /// Panics when `servers` is empty or a thread fails to spawn.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "thread-lifecycle expect at server startup, not on the request path"
    )]
    pub fn spawn_routed<E>(servers: Vec<LogServer>, endpoint: E) -> ShardSupervisor
    where
        E: RoutedEndpoint + Sync + 'static,
    {
        let nexts = endpoint
            .shard_rx(servers.len())
            .into_iter()
            .map(|mut rx| move |t| rx.recv(t));
        Self::spawn_loops(servers, Arc::new(endpoint), nexts, None).expect("spawn server thread")
    }

    /// The one place server threads start: a [`shard_loop`] per server,
    /// shard k polling the k-th element of `nexts`, and a thread for the
    /// dispatcher that feeds those `nexts`, where there is one.
    fn spawn_loops<E, N>(
        servers: Vec<LogServer>,
        endpoint: Arc<E>,
        nexts: impl IntoIterator<Item = N>,
        dispatcher: Option<Dispatcher>,
    ) -> io::Result<ShardSupervisor>
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
                })?;
            shards.push(handle);
        }
        let dispatcher = match dispatcher {
            None => None,
            Some(run) => {
                let (stop, exits) = (stop.clone(), exits.clone());
                let handle = std::thread::Builder::new()
                    .name(format!("log-shard-router-{server_id}"))
                    .spawn(move || {
                        let _panic = ReportPanic(exits.clone());
                        exits.report(run(&stop));
                    })?;
                Some(handle)
            }
        };
        Ok(ShardSupervisor {
            stop,
            exits,
            dispatcher,
            shards,
        })
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
        self.shutdown();
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

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.dispatcher.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a panicked thread already reported itself through `ReportPanic`, which `wait` returns"
            )]
            let _ = h.join();
        }
    }
}

impl Drop for ShardSupervisor {
    fn drop(&mut self) {
        self.shutdown();
        for h in self.shards.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a panicked thread already reported itself through `ReportPanic`, which `wait` returns"
            )]
            let _ = h.join();
        }
    }
}

/// The dispatcher's work: move each packet `endpoint` receives to the
/// queue of the shard it routes to, until stopped. A receive error ends
/// every queue behind the packets already in it: each shard loop answers
/// those, then leaves with the error (setting `stop` instead would let a
/// loop leave before popping the last packet).
fn dispatch<E: Endpoint>(
    endpoint: &E,
    stop: &AtomicBool,
    routes: &[Arc<ShardQueue>],
) -> io::Result<()> {
    while !stop.load(Ordering::Relaxed) {
        let polled = endpoint.recv(Duration::from_millis(20));
        let Some((from, pkt)) = polled.inspect_err(|e| routes.iter().for_each(|q| q.kill(e)))?
        else {
            continue;
        };
        match pkt.route_key() {
            Some(id) => {
                if let Some(q) = routes.get(id.shard(routes.len())) {
                    q.push(from, pkt);
                }
            }
            None => {
                // Shard-agnostic control traffic: every shard sees it.
                // Cloning the packet is a refcount bump per payload
                // view, and control messages carry no records.
                for q in routes {
                    q.push(from, pkt.clone());
                }
            }
        }
    }
    Ok(())
}

/// The server event loop — the only one. `next` yields the loop's next
/// packet (endpoint receive, routed receive, or dispatcher-queue pop);
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
                send_all(ep, replies.drain(..));
                send_all(ep, server.force_tick());
            }
            Ok(None) => {
                if server.has_pending_forces() {
                    // Inbox drained: commit the group now.
                    send_all(ep, server.flush_pending_forces());
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
    send_all(ep, server.flush_pending_forces());
    #[expect(
        clippy::let_underscore_must_use,
        reason = "graceful-shutdown courtesy sync after the final force flush; every acked record was already forced through the store's force path, whose Result is consumed"
    )]
    let _ = server.store_mut().sync();
    (server, why)
}

/// Send every reply, in order. A send error is network loss, which the
/// protocol recovers from end to end, so it stops nothing here.
fn send_all<E: Endpoint + ?Sized>(ep: &E, replies: impl IntoIterator<Item = (NodeAddr, Packet)>) {
    for (to, reply) in replies {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "send failures are network loss; the protocol recovers end to end"
        )]
        let _ = ep.send(to, &reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenStore;
    use crate::ServerConfig;
    use dlog_net::wire::{Message, Request, Response};
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

    /// The three ways a loop gets its packets.
    #[derive(Clone, Copy, Debug)]
    enum Entry {
        /// One shard receiving from the endpoint itself (`ServerRunner`).
        Direct,
        /// Two shards fed by the dispatcher thread.
        Dispatcher,
        /// Two shards on the transport's routed receive handles.
        Routed,
    }

    const ENTRIES: [Entry; 3] = [Entry::Direct, Entry::Dispatcher, Entry::Routed];

    impl Entry {
        fn shards(self) -> u64 {
            match self {
                Entry::Direct => 1,
                Entry::Dispatcher | Entry::Routed => 2,
            }
        }

        fn spawn<E>(self, tag: &str, endpoint: E) -> ShardSupervisor
        where
            E: RoutedEndpoint + Sync + 'static,
        {
            let root = tmproot(&format!("{tag}-{self:?}"));
            let n = self.shards();
            let servers = (0..n).map(|k| shard_server(&root, k, n)).collect();
            let sup = match self {
                Entry::Direct | Entry::Dispatcher => ShardSupervisor::spawn(servers, endpoint),
                Entry::Routed => ShardSupervisor::spawn_routed(servers, endpoint),
            };
            assert_eq!(sup.dispatcher.is_some(), matches!(self, Entry::Dispatcher));
            sup
        }
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
            let net = MemNetwork::new(FaultPlan::reliable());
            let sup = entry.spawn("serve", net.endpoint(NodeAddr(1)));
            let n = entry.shards();
            assert_eq!(sup.shards() as u64, n);

            let (c0, c1) = two_clients();
            let ep = net.endpoint(NodeAddr(100));
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

    #[test]
    fn dead_transport_ends_every_loop_through_the_graceful_exit() {
        for entry in ENTRIES {
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
        for entry in ENTRIES {
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
