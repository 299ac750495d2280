//! The one thread-free server world: real `LogServer`s pumped inline on
//! the calling thread, so whole runs replay deterministically.
//!
//! [`ServerWorld`] boots and reboots the servers through one store
//! configuration, routes a packet to the shard its logical log hashes
//! to, flushes group commits, crashes and recovers servers over their
//! surviving NVRAM, and steps the `Spec` it owns through every ack a
//! server sends (its ack half). Two worlds hold it:
//!
//! * [`SyncWorld`] delivers every send at once, with the fates that
//!   `MemNetwork` draws from the same seed ([`dlog_net::fault`]). The
//!   shipped `ReplicatedLog` runs on it through [`SyncEndpoint`] in the
//!   determinism, group-commit and client protocol suites.
//! * [`crate::model::McWorld`] keeps packets in a bag, lets the
//!   explorer choose every delivery, drop, crash and recovery, and
//!   steps the rest of the spec.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dlog_net::wire::{NodeAddr, Packet, MAX_PACKET_BYTES};
use dlog_net::{Endpoint, FaultPlan, Faults};
use dlog_obs::{Obs, ObsOptions, Stage};
use dlog_server::gen::GenStore;
use dlog_server::{LogServer, ServerConfig};
use dlog_storage::{LogStore, NvramDevice, StoreOptions};
use dlog_types::{unpoisoned, DlogError, Result, ServerId};

use crate::spec::{Spec, Violation};

/// NVRAM capacity per shard — larger than any test or bounded-depth
/// workload, so durability never hinges on fsync (which is off).
const NVRAM_CAP: usize = 1 << 20;

/// What a server sends: `(destination, packet)` pairs.
pub(crate) type Output = Vec<(NodeAddr, Packet)>;

/// One shard's slot. The directory, NVRAM device and observability
/// handle survive a crash; the server does not.
struct Shard {
    dir: PathBuf,
    nvram: NvramDevice,
    obs: Obs,
    server: Option<LogServer>,
}

/// Servers `1..=n` at `NodeAddr(1..=n)`, each with one `LogServer` per
/// shard, iterated in (server, shard) order.
pub struct ServerWorld {
    /// Every server's configuration; `id` and `shard` are set per slot.
    config: ServerConfig,
    slots: BTreeMap<(u64, u64), Shard>,
    /// The spec this world refines.
    pub(crate) spec: Spec,
}

/// Open one test server's store (fsync off: durability is the NVRAM
/// device's), generator state and protocol wrapper under `dir` — first
/// boot and recovery alike.
///
/// # Errors
/// Propagates store/generator open failures.
pub fn open_server(dir: &Path, config: ServerConfig, nvram: NvramDevice) -> Result<LogServer> {
    let opts = StoreOptions {
        fsync: false,
        checkpoint_every: 0,
        ..StoreOptions::default()
    };
    let store = LogStore::open(dir, opts, nvram)?;
    let gens = GenStore::open(dir.join("gens"))?;
    LogServer::new(config, store, gens)
}

impl ServerWorld {
    /// Boot `servers` servers of `config.shards` shards each under
    /// `dir`: server `i` stores under `dir/server-i`, and shard `k` of
    /// a sharded server under `dir/server-i/shard-k`, refining `spec`.
    /// `obs` is called once per shard, in order, for the handle it
    /// reports to.
    ///
    /// # Errors
    /// Propagates store/generator open failures.
    pub(crate) fn open(
        dir: &Path,
        servers: u64,
        config: ServerConfig,
        spec: Spec,
        mut obs: impl FnMut() -> Obs,
    ) -> Result<ServerWorld> {
        let mut world = ServerWorld {
            config,
            slots: BTreeMap::new(),
            spec,
        };
        for sid in 1..=servers {
            for k in 0..world.config.shards {
                let server_dir = dir.join(format!("server-{sid}"));
                let shard = Shard {
                    dir: if world.config.shards == 1 {
                        server_dir
                    } else {
                        server_dir.join(format!("shard-{k}"))
                    },
                    nvram: NvramDevice::new(NVRAM_CAP),
                    obs: obs(),
                    server: None,
                };
                world.slots.insert((sid, k), shard);
            }
            world.boot(sid, false)?;
        }
        Ok(world)
    }

    /// Open every shard of server `sid` over its NVRAM device, or over a
    /// blank one; returns the last shard's stream end.
    fn boot(&mut self, sid: u64, blank_nvram: bool) -> Result<u64> {
        let base = self.config.clone();
        let mut last_end = 0;
        for (k, slot) in self.server_slots_mut(sid) {
            let nvram = if blank_nvram {
                NvramDevice::new(NVRAM_CAP)
            } else {
                slot.nvram.clone()
            };
            let config = ServerConfig {
                id: ServerId(sid),
                ..base.clone()
            }
            .for_shard(k, base.shards);
            let mut server = open_server(&slot.dir, config, nvram)?;
            server.set_obs(slot.obs.clone());
            last_end = server.store_mut().stream_end();
            slot.server = Some(server);
        }
        Ok(last_end)
    }

    fn server_slots_mut(&mut self, sid: u64) -> impl Iterator<Item = (u64, &mut Shard)> {
        self.slots
            .range_mut((sid, 0)..=(sid, u64::MAX))
            .map(|((_, k), slot)| (*k, slot))
    }

    /// True if `addr` is one of this world's servers, up or down.
    #[must_use]
    pub(crate) fn is_server(&self, addr: NodeAddr) -> bool {
        self.slots.contains_key(&(addr.0, 0))
    }

    /// Server `sid`'s running shards, in shard order.
    pub fn shards(&self, sid: u64) -> impl Iterator<Item = (u64, &LogServer)> {
        self.slots
            .range((sid, 0)..=(sid, u64::MAX))
            .filter_map(|((_, k), s)| Some((*k, s.server.as_ref()?)))
    }

    /// Server `sid`'s running shards, mutably, in shard order.
    pub(crate) fn shards_mut(&mut self, sid: u64) -> impl Iterator<Item = (u64, &mut LogServer)> {
        self.server_slots_mut(sid)
            .filter_map(|(k, s)| Some((k, s.server.as_mut()?)))
    }

    /// Shard `k` of server `sid`, if running.
    pub(crate) fn shard_mut(&mut self, sid: u64, k: u64) -> Option<&mut LogServer> {
        self.slots.get_mut(&(sid, k))?.server.as_mut()
    }

    /// Every shard's observability handle, up or down, in (server,
    /// shard) order. Handles survive crashes, so a shard's trace spans
    /// its whole life.
    pub fn obs(&self) -> impl Iterator<Item = (u64, u64, &Obs)> {
        self.slots.iter().map(|((sid, k), s)| (*sid, *k, &s.obs))
    }

    /// Hand `pkt` from `from` to server `to`: to the shard its route key
    /// hashes to (the pure `LogId::shard` the transports steer by), or to
    /// every shard when it has none. A down server drops it.
    ///
    /// # Errors
    /// The spec refused an ack in the output.
    pub(crate) fn deliver(
        &mut self,
        from: NodeAddr,
        to: NodeAddr,
        pkt: &Packet,
    ) -> std::result::Result<Output, Violation> {
        let target = pkt
            .route_key()
            .map(|log| log.shard(self.config.shards as usize) as u64);
        let mut out = Output::new();
        for (k, server) in self.shards_mut(to.0) {
            if target.is_none_or(|t| t == k) {
                server.handle_into(from, pkt, &mut out);
            }
        }
        self.spec.wire(to.0, &out)?;
        Ok(out)
    }

    /// True if any shard of server `sid` holds deferred force
    /// obligations.
    #[must_use]
    pub(crate) fn has_pending_forces(&self, sid: u64) -> bool {
        self.shards(sid).any(|(_, s)| s.has_pending_forces())
    }

    /// Run the group-commit round of shard `shard` of server `sid`, or
    /// of every shard when `None`, and return the acks it releases.
    ///
    /// # Errors
    /// The spec refused an ack in the output.
    pub(crate) fn flush(
        &mut self,
        sid: u64,
        shard: Option<u64>,
    ) -> std::result::Result<Output, Violation> {
        let mut out = Output::new();
        for (k, server) in self.shards_mut(sid) {
            if shard.is_none_or(|s| s == k) {
                out.extend(server.flush_pending_forces());
            }
        }
        self.spec.wire(sid, &out)?;
        Ok(out)
    }

    /// Crash server `sid`: every shard loses its volatile state, and its
    /// NVRAM and on-disk stream survive. Stamps `Stage::Crash` (detail:
    /// `sid`) with each shard's stream end into its trace and returns
    /// the last shard's, or `None` if `sid` was not running.
    pub fn crash(&mut self, sid: u64) -> Option<u64> {
        let mut last_end = None;
        for (_, slot) in self.server_slots_mut(sid) {
            if let Some(mut server) = slot.server.take() {
                let end = server.store_mut().stream_end();
                slot.obs.event(Stage::Crash, end, sid);
                last_end = Some(end);
            }
        }
        last_end
    }

    /// Recover crashed server `sid`: reopen every shard's store over its
    /// surviving NVRAM device — or a blank one when `blank_nvram`, the
    /// model checker's `Amnesia` mutation — and stamp `Stage::Recover`
    /// like [`ServerWorld::crash`]. Returns the last shard's stream end.
    ///
    /// # Errors
    /// `sid` is unknown or running, or a store failed to reopen.
    pub fn recover(&mut self, sid: u64, blank_nvram: bool) -> Result<u64> {
        if !self.is_server(NodeAddr(sid)) || self.shards(sid).next().is_some() {
            return Err(DlogError::Protocol(format!(
                "recover: server {sid} is not crashed"
            )));
        }
        let last_end = self.boot(sid, blank_nvram)?;
        for (_, slot) in self.server_slots_mut(sid) {
            if let Some(server) = slot.server.as_mut() {
                slot.obs
                    .event(Stage::Recover, server.store_mut().stream_end(), sid);
            }
        }
        Ok(last_end)
    }
}

/// Construction knobs for [`build_world`].
pub struct SyncWorldOptions {
    /// Number of servers; server `i` listens on `NodeAddr(i)` for
    /// `i in 1..=servers`.
    pub servers: u64,
    /// The fault schedule (loss / duplication / reordering). Its seed
    /// also drives the flush rolls.
    pub plan: FaultPlan,
    /// Probability of flushing a server's pending group-commit
    /// obligations right after it handles a packet — exercises
    /// partial-batch group commits. Zero disables the roll entirely.
    pub flush_p: f64,
    /// `ServerConfig::coalesce_window` for every server.
    pub coalesce_window: Duration,
    /// `ServerConfig::coalesce_max_batch` for every server.
    pub coalesce_max_batch: usize,
    /// `Some`: client, servers and the network share this ONE handle,
    /// so the interleaved event stream is totally ordered by its
    /// sequence counter, and the world emits `PacketSend` events on it
    /// (the determinism suite). `None`: each server gets its own fresh
    /// handle, so per-server invariants are checked on each server's
    /// own trace (the group-commit suite).
    pub obs: Option<Obs>,
}

impl SyncWorldOptions {
    /// The determinism suite's shape: shared observability, no
    /// coalescing.
    #[must_use]
    pub fn shared(servers: u64, plan: FaultPlan, obs: Obs) -> SyncWorldOptions {
        SyncWorldOptions {
            servers,
            plan,
            flush_p: 0.0,
            coalesce_window: Duration::ZERO,
            coalesce_max_batch: 64,
            obs: Some(obs),
        }
    }

    /// The group-commit suite's shape: per-server observability,
    /// coalescing on, seeded flush rolls.
    #[must_use]
    pub fn coalescing(
        servers: u64,
        plan: FaultPlan,
        window: Duration,
        max_batch: usize,
        flush_p: f64,
    ) -> SyncWorldOptions {
        SyncWorldOptions {
            servers,
            plan,
            flush_p,
            coalesce_window: window,
            coalesce_max_batch: max_batch,
            obs: None,
        }
    }
}

/// The single-threaded cluster: servers are pumped inline on delivery.
pub struct SyncWorld {
    /// The servers, one shard each.
    pub servers: ServerWorld,
    /// Packets awaiting the client's next `recv`.
    pub inbox: VecDeque<(NodeAddr, Packet)>,
    /// Every packet's fate, and the flush rolls' stream.
    pub faults: Faults<Packet>,
    /// Probability of a post-handle flush roll (see
    /// [`SyncWorldOptions::flush_p`]).
    pub flush_p: f64,
    /// `PacketSend` events are emitted here (see [`SyncWorldOptions::obs`]).
    world_obs: Option<Obs>,
}

impl SyncWorld {
    /// One send attempt: trace it, draw its fate, and route every frame
    /// the fate delivers. Server replies are routed recursively
    /// (servers only ever reply toward the client, so depth is bounded).
    ///
    /// # Errors
    /// `InvalidInput` for a packet that encodes to more than
    /// [`MAX_PACKET_BYTES`], which no real transport can carry: the
    /// packet goes nowhere, as on `MemNetwork`.
    ///
    /// # Panics
    /// The spec refused a server's ack.
    pub fn deliver(&mut self, from: NodeAddr, to: NodeAddr, pkt: &Packet) -> io::Result<()> {
        let len = pkt.encoded_len();
        if len > MAX_PACKET_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("packet of {len} bytes exceeds MTU {MAX_PACKET_BYTES}"),
            ));
        }
        if let Some(obs) = &self.world_obs {
            obs.event(Stage::PacketSend, pkt.lsn_hint(), to.0);
        }
        let fate = self.faults.fate(from, to, pkt.clone());
        for (from, pkt) in fate.into_iter().flatten().flatten() {
            self.route(from, to, pkt);
        }
        Ok(())
    }

    /// Send a server's replies as the server loop sends them, through
    /// [`dlog_server::shard::send_reply`], and count their fates in the
    /// server's stats: one that fails to send is lost, except an
    /// over-size RPC reply, which becomes a `PROTOCOL` error for that RPC.
    fn deliver_replies(&mut self, from: NodeAddr, replies: Output) {
        for (to, pkt) in replies {
            let fate = dlog_server::shard::send_reply(to, &pkt, |to, p| self.deliver(from, to, p));
            if let Some(server) = self.servers.shard_mut(from.0, 0) {
                server.count_reply(fate);
            }
        }
    }

    fn route(&mut self, from: NodeAddr, to: NodeAddr, pkt: Packet) {
        if self.servers.is_server(to) {
            let replies = acks_held(self.servers.deliver(from, to, &pkt));
            // Order matters for replay determinism: the flush roll is
            // drawn only when obligations are actually pending.
            let flushed = if self.flush_p > 0.0
                && self.servers.has_pending_forces(to.0)
                && self.faults.roll(self.flush_p)
            {
                self.flush(to.0)
            } else {
                Output::new()
            };
            // Recursion depth ≤ 2: servers reply only to clients, and a
            // client-bound packet is queued below, never routed onward.
            self.deliver_replies(to, replies);
            self.deliver_replies(to, flushed);
        } else {
            self.inbox.push_back((from, pkt));
        }
    }

    fn flush(&mut self, sid: u64) -> Output {
        acks_held(self.servers.flush(sid, None))
    }

    /// The inbox ran dry while the client is waiting: flush every
    /// server's deferred obligations in address order (the sync-world
    /// analogue of the runner's idle flush). A no-op when coalescing is
    /// off.
    pub fn idle_flush(&mut self) {
        let mut sid = 1;
        while self.servers.is_server(NodeAddr(sid)) {
            let replies = self.flush(sid);
            self.deliver_replies(NodeAddr(sid), replies);
            sid += 1;
        }
    }
}

/// A [`SyncWorld`] fails the run whose server acks the spec refused.
#[expect(
    clippy::panic,
    reason = "the sync world's ack check is an assertion of the test driving it"
)]
fn acks_held(sent: std::result::Result<Output, Violation>) -> Output {
    match sent {
        Ok(out) => out,
        Err(v) => panic!("{}: {}", v.invariant, v.detail),
    }
}

/// The client's endpoint over the synchronous world: `send` delivers
/// inline, `recv` never blocks (everything that will ever arrive is
/// already in the inbox), and a dry inbox triggers the idle flush.
pub struct SyncEndpoint {
    addr: NodeAddr,
    world: Arc<Mutex<SyncWorld>>,
}

impl SyncEndpoint {
    /// An endpoint at `addr` over `world`.
    #[must_use]
    pub fn new(addr: NodeAddr, world: Arc<Mutex<SyncWorld>>) -> SyncEndpoint {
        SyncEndpoint { addr, world }
    }
}

impl Endpoint for SyncEndpoint {
    fn local_addr(&self) -> NodeAddr {
        self.addr
    }

    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
        unpoisoned(self.world.lock()).deliver(self.addr, to, packet)
    }

    fn recv(&self, _timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        let mut w = unpoisoned(self.world.lock());
        if w.inbox.is_empty() {
            w.idle_flush();
        }
        Ok(w.inbox.pop_front())
    }
}

/// Build a [`SyncWorld`] with `opts.servers` unsharded servers under
/// `dir` (server `i` stores under `dir/server-i`).
///
/// # Errors
/// Propagates store/generator open failures.
pub fn build_world(dir: &Path, opts: SyncWorldOptions) -> Result<Arc<Mutex<SyncWorld>>> {
    let mut config = ServerConfig::new(ServerId(0));
    config.coalesce_window = opts.coalesce_window;
    config.coalesce_max_batch = opts.coalesce_max_batch;
    let servers = ServerWorld::open(dir, opts.servers, config, Spec::default(), || {
        opts.obs
            .clone()
            .unwrap_or_else(|| Obs::new(&ObsOptions::on()))
    })?;
    Ok(Arc::new(Mutex::new(SyncWorld {
        servers,
        inbox: VecDeque::new(),
        faults: Faults::new(opts.plan),
        flush_p: opts.flush_p,
        world_obs: opts.obs,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlog_net::wire::{codes, Message, Response};
    use dlog_net::MemNetwork;
    use dlog_types::{ClientId, Lsn};

    /// One seeded plan is one schedule in both worlds: server → client
    /// sends reach the client in the same order, losses, duplicates and
    /// released holds included.
    #[test]
    fn sync_world_and_mem_network_deliver_one_schedule() {
        const SERVER: NodeAddr = NodeAddr(1);
        const CLIENT: NodeAddr = NodeAddr(1000);
        let plan = FaultPlan::hostile(7);
        let pings: Vec<Packet> = (0..500)
            .map(|i| {
                Packet::bare(Message::NewHighLsn {
                    client: ClientId(1),
                    lsn: Lsn(i),
                })
            })
            .collect();

        let net = MemNetwork::new(plan);
        let (server, client) = (net.endpoint(SERVER), net.endpoint(CLIENT));
        for p in &pings {
            server.send(CLIENT, p).unwrap();
        }
        let mut mem = Vec::new();
        while let Some(got) = client.recv(Duration::ZERO).unwrap() {
            mem.push(got);
        }
        let stats = net.stats();
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.reordered > 0);

        let dir = std::env::temp_dir().join(format!("dlog-mc-one-fate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let world = build_world(&dir, SyncWorldOptions::shared(1, plan, Obs::default())).unwrap();
        let mut w = unpoisoned(world.lock());
        for p in &pings {
            w.deliver(SERVER, CLIENT, p).unwrap();
        }
        let sync: Vec<_> = w.inbox.drain(..).collect();
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(sync, mem);
    }

    #[test]
    fn an_over_size_reply_reaches_the_client_as_a_protocol_error() {
        let dir = std::env::temp_dir().join(format!("dlog-mc-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SyncWorldOptions::shared(1, FaultPlan::reliable(), Obs::default());
        let world = build_world(&dir, opts).unwrap();
        let mut w = unpoisoned(world.lock());
        let too_big = Response::Err {
            code: codes::STORAGE,
            detail: "x".repeat(MAX_PACKET_BYTES),
        };
        let reply = Packet::bare(Message::Response {
            id: 7,
            body: too_big,
        });
        w.deliver_replies(NodeAddr(1), vec![(NodeAddr(1000), reply)]);
        let refused = Message::Response {
            id: 7,
            body: Response::Err {
                code: codes::PROTOCOL,
                detail: "reply exceeds MTU".into(),
            },
        };
        let delivered: Vec<_> = w.inbox.drain(..).map(|(from, p)| (from, p.msg)).collect();
        assert_eq!(delivered, vec![(NodeAddr(1), refused)]);
        let stats = w.servers.shards(1).map(|(_, s)| s.stats());
        let fates: Vec<_> = stats.map(|s| (s.replies_shed, s.replies_refused)).collect();
        assert_eq!(fates, [(0, 1)]);
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
