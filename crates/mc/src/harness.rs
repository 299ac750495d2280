//! The synchronous sans-I/O cluster: real `LogServer`s pumped inline on
//! the calling thread, with `FaultPlan`-style loss, duplication, and
//! reordering drawn from a seeded RNG consumed only per send.
//!
//! Threads are the only source of nondeterminism in the full harness,
//! so driving `LogServer::handle` synchronously — under one lock, on
//! the test thread — makes whole runs replay deterministically. Both
//! `tests/trace_determinism.rs` and `tests/group_commit.rs` are built
//! on this world (they used to carry private near-copies of it); the
//! model checker's [`crate::model::McWorld`] replaces the seeded RNG
//! with explicit action enumeration but reuses the same server
//! construction.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlog_net::wire::{Message, NodeAddr, Packet};
use dlog_net::{Endpoint, FaultPlan};
use dlog_obs::{Obs, ObsOptions, Stage};
use dlog_server::gen::GenStore;
use dlog_server::{LogServer, ServerConfig};
use dlog_storage::{LogStore, NvramDevice, StoreOptions};
use dlog_types::{unpoisoned, Lsn, Result, ServerId};

/// How the servers of a [`SyncWorld`] attach observability.
pub enum ObsMode {
    /// Client, servers, and the network share ONE handle, so the
    /// interleaved event stream is totally ordered by the shared
    /// sequence counter — the determinism suite's configuration. The
    /// world itself emits `PacketSend` events on this handle.
    Shared(Obs),
    /// Each server gets its own fresh handle, so per-server invariants
    /// (`check_force_before_ack`, ack monotonicity) can be checked on
    /// each server's own trace — the group-commit suite's
    /// configuration. The world emits no `PacketSend` events.
    PerServer,
}

/// Construction knobs for [`build_world`].
pub struct SyncWorldOptions {
    /// Number of servers; server `i` listens on `NodeAddr(i)` for
    /// `i in 1..=servers`.
    pub servers: u64,
    /// The fault schedule (loss / duplication / reordering).
    pub plan: FaultPlan,
    /// RNG seed for the fault schedule. Callers that need schedule
    /// diversity beyond the plan seed can mix in their own salt.
    pub rng_seed: u64,
    /// Probability of flushing a server's pending group-commit
    /// obligations right after it handles a packet — exercises
    /// partial-batch group commits. Zero disables the roll entirely.
    pub flush_p: f64,
    /// `ServerConfig::coalesce_window` for every server.
    pub coalesce_window: Duration,
    /// `ServerConfig::coalesce_max_batch` for every server.
    pub coalesce_max_batch: usize,
    /// Observability wiring.
    pub obs: ObsMode,
}

impl SyncWorldOptions {
    /// The determinism suite's shape: shared observability, no
    /// coalescing, faults drawn from `plan.seed`.
    #[must_use]
    pub fn shared(servers: u64, plan: FaultPlan, obs: Obs) -> SyncWorldOptions {
        SyncWorldOptions {
            servers,
            rng_seed: plan.seed,
            plan,
            flush_p: 0.0,
            coalesce_window: Duration::ZERO,
            coalesce_max_batch: 64,
            obs: ObsMode::Shared(obs),
        }
    }

    /// The group-commit suite's shape: per-server observability,
    /// coalescing on, seeded flush rolls.
    #[must_use]
    pub fn coalescing(
        servers: u64,
        plan: FaultPlan,
        rng_seed: u64,
        window: Duration,
        max_batch: usize,
        flush_p: f64,
    ) -> SyncWorldOptions {
        SyncWorldOptions {
            servers,
            plan,
            rng_seed,
            flush_p,
            coalesce_window: window,
            coalesce_max_batch: max_batch,
            obs: ObsMode::PerServer,
        }
    }
}

/// The single-threaded cluster: servers are pumped inline on delivery.
pub struct SyncWorld {
    /// Live servers keyed by address.
    pub servers: HashMap<NodeAddr, LogServer>,
    /// Packets awaiting the client's next `recv`.
    pub inbox: VecDeque<(NodeAddr, Packet)>,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Seeded fault-roll RNG, consumed only per send.
    pub rng: StdRng,
    /// Probability of a post-handle flush roll (see
    /// [`SyncWorldOptions::flush_p`]).
    pub flush_p: f64,
    /// Highest forced-ack LSN each server has *generated* (pre-fault):
    /// the ack-monotonicity invariant is checked where acks are born,
    /// before the fault schedule gets a chance to drop or reorder them.
    pub last_ack: HashMap<NodeAddr, Lsn>,
    /// `PacketSend` events are emitted here in [`ObsMode::Shared`].
    world_obs: Option<Obs>,
}

impl SyncWorld {
    /// One send attempt: trace it, check ack monotonicity at the
    /// source, roll the fault schedule, and route every surviving copy.
    /// Server replies are routed recursively (servers only ever reply
    /// toward the client, so depth is bounded).
    pub fn deliver(&mut self, from: NodeAddr, to: NodeAddr, pkt: &Packet) {
        if let Some(obs) = &self.world_obs {
            obs.event(Stage::PacketSend, pkt.lsn_hint(), to.0);
        }
        if self.servers.contains_key(&from) {
            if let Message::NewHighLsn { lsn, .. } = &pkt.msg {
                let prev = self.last_ack.entry(from).or_insert(Lsn::ZERO);
                assert!(
                    *lsn >= *prev,
                    "server {from:?} acked {lsn:?} after {prev:?} (out of order)"
                );
                *prev = *lsn;
            }
        }
        if self.plan.loss > 0.0 && self.rng.gen_bool(self.plan.loss) {
            return;
        }
        let copies = if self.plan.duplicate > 0.0 && self.rng.gen_bool(self.plan.duplicate) {
            2
        } else {
            1
        };
        for _ in 0..copies {
            self.route(from, to, pkt.clone());
        }
    }

    fn route(&mut self, from: NodeAddr, to: NodeAddr, pkt: Packet) {
        if self.servers.contains_key(&to) {
            let (replies, flushed) = {
                let Some(server) = self.servers.get_mut(&to) else {
                    return;
                };
                let replies = server.handle(from, &pkt);
                // Order matters for replay determinism: the flush roll
                // is drawn only when obligations are actually pending,
                // exactly as the original group-commit world did.
                let flush = self.flush_p > 0.0
                    && server.has_pending_forces()
                    && self.rng.gen_bool(self.flush_p);
                let flushed = if flush {
                    server.flush_pending_forces()
                } else {
                    Vec::new()
                };
                (replies, flushed)
            };
            // Recursion depth ≤ 2: servers reply only to clients, and a
            // client-bound packet is queued below, never routed onward.
            for (rto, rpkt) in replies.into_iter().chain(flushed) {
                self.deliver(to, rto, &rpkt);
            }
        } else if self.plan.reorder > 0.0
            && !self.inbox.is_empty()
            && self.rng.gen_bool(self.plan.reorder)
        {
            // Client-bound: occasionally deliver behind the packet that
            // is already queued (reordering).
            let idx = self.inbox.len() - 1;
            self.inbox.insert(idx, (from, pkt));
        } else {
            self.inbox.push_back((from, pkt));
        }
    }

    /// The inbox ran dry while the client is waiting: flush every
    /// server's deferred obligations (the sync-world analogue of the
    /// runner's idle flush). A no-op when coalescing is off.
    pub fn idle_flush(&mut self) {
        let addrs: Vec<NodeAddr> = self.servers.keys().copied().collect();
        for a in addrs {
            let out = self
                .servers
                .get_mut(&a)
                .map(LogServer::flush_pending_forces)
                .unwrap_or_default();
            for (to, pkt) in out {
                self.deliver(a, to, &pkt);
            }
        }
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
        unpoisoned(self.world.lock()).deliver(self.addr, to, packet);
        Ok(())
    }

    fn recv(&self, _timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        let mut w = unpoisoned(self.world.lock());
        if w.inbox.is_empty() {
            w.idle_flush();
        }
        Ok(w.inbox.pop_front())
    }
}

/// Open one synchronous-world server: store (fsync off — durability is
/// modelled by the NVRAM device, and the sync world never crashes the
/// host), generator state, protocol wrapper.
///
/// # Errors
/// Propagates store/generator open failures.
pub fn open_server(
    dir: &Path,
    id: ServerId,
    coalesce_window: Duration,
    coalesce_max_batch: usize,
    ack_every: u64,
) -> Result<LogServer> {
    let opts = StoreOptions {
        fsync: false,
        checkpoint_every: 0,
        ..StoreOptions::default()
    };
    let store = LogStore::open(dir, opts, NvramDevice::new(1 << 20))?;
    let gens = GenStore::open(dir.join("gens"))?;
    let mut config = ServerConfig::new(id);
    config.coalesce_window = coalesce_window;
    config.coalesce_max_batch = coalesce_max_batch;
    config.ack_every = ack_every;
    LogServer::new(config, store, gens)
}

/// What [`build_world`] hands back: the shared world handle plus each
/// server's observability handle in address order.
pub type BuiltWorld = (Arc<Mutex<SyncWorld>>, Vec<(NodeAddr, Obs)>);

/// Build a [`SyncWorld`] with `opts.servers` servers under `dir`
/// (server `i` stores under `dir/server-i`), returning the shared
/// world handle plus each server's observability handle in address
/// order.
///
/// # Errors
/// Propagates store/generator open failures.
pub fn build_world(dir: &Path, opts: SyncWorldOptions) -> Result<BuiltWorld> {
    let mut servers = HashMap::new();
    let mut observers = Vec::new();
    for id in 1..=opts.servers {
        let d = dir.join(format!("server-{id}"));
        let mut server = open_server(
            &d,
            ServerId(id),
            opts.coalesce_window,
            opts.coalesce_max_batch,
            ServerConfig::new(ServerId(id)).ack_every,
        )?;
        let obs = match &opts.obs {
            ObsMode::Shared(shared) => shared.clone(),
            ObsMode::PerServer => Obs::new(&ObsOptions::on()),
        };
        server.set_obs(obs.clone());
        observers.push((NodeAddr(id), obs));
        servers.insert(NodeAddr(id), server);
    }
    let world_obs = match &opts.obs {
        ObsMode::Shared(shared) => Some(shared.clone()),
        ObsMode::PerServer => None,
    };
    let world = Arc::new(Mutex::new(SyncWorld {
        servers,
        inbox: VecDeque::new(),
        plan: opts.plan,
        rng: StdRng::seed_from_u64(opts.rng_seed),
        flush_p: opts.flush_p,
        last_ack: HashMap::new(),
        world_obs,
    }));
    Ok((world, observers))
}
