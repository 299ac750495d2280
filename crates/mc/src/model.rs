//! The checker's world: real `LogServer`s over a nondeterministic
//! packet bag, a steppable sans-I/O model client, crash/recover
//! semantics, the action alphabet, canonical state fingerprinting, and
//! the invariant catalog.
//!
//! Nondeterminism lives **between** transitions, never inside one: an
//! [`Action`] names one atomic choice (deliver this packet, crash that
//! server, …) and applying it is fully deterministic. Reordering needs
//! no action of its own — it emerges from the order bag slots are
//! delivered in. That determinism is what lets the explorer restore any
//! state by replaying its action prefix, and what makes counterexample
//! traces replayable artifacts.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

use dlog_net::wire::{Message, NodeAddr, Packet};
use dlog_obs::{check_force_before_ack, Obs, ObsOptions, Stage};
use dlog_server::LogServer;
use dlog_storage::NvramDevice;
use dlog_types::{ClientId, Epoch, Interval, LogId, Lsn, ServerId};

/// NVRAM capacity per modelled server — comfortably larger than any
/// bounded-depth workload, so durability never hinges on fsync (which
/// the scratch stores run with off).
const NVRAM_CAP: usize = 1 << 20;

/// Client addresses start here; server `i` is `NodeAddr(i)`.
const CLIENT_ADDR_BASE: u64 = 1000;

/// One step of a model client's scripted workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientOp {
    /// Assign the next LSN and send a `WriteLog` to every server.
    Write,
    /// Send a `ForceLog` carrying each server's unacked suffix.
    Force,
}

/// A deliberately seeded protocol bug, used to test the checker itself:
/// each mutation must be caught with a minimized, replayable
/// counterexample (see `tests/model_check.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The faithful protocol.
    #[default]
    None,
    /// A server acknowledges a `ForceLog` the moment it arrives,
    /// before any durability round — the classic ack-before-force bug.
    /// Caught by the `ack-after-force` trace invariant.
    EarlyAck,
    /// A group-commit flush acknowledges its obligations without
    /// running the physical `force_batch` — the "ack despite a failed
    /// force" bug PR 5's obligation rule exists to prevent. Caught by
    /// `ack-after-force` (the acks have no covering `Force` events).
    SkipForce,
    /// A group-commit flush runs the durable round but the obligation
    /// acks never leave the server — obligations silently leak and the
    /// clients' forces hang forever. Caught by `obligation-safety`.
    LostAck,
    /// Recovery reopens the store with a blank NVRAM device, losing the
    /// durable tail that had not reached the on-disk stream. Caught by
    /// `recovery-consistency`.
    Amnesia,
}

impl Mutation {
    /// Parse a CLI name.
    ///
    /// # Errors
    /// Names the unknown mutation.
    pub fn parse(name: &str) -> Result<Mutation, String> {
        match name {
            "none" => Ok(Mutation::None),
            "early-ack" => Ok(Mutation::EarlyAck),
            "skip-force" => Ok(Mutation::SkipForce),
            "lost-ack" => Ok(Mutation::LostAck),
            "amnesia" => Ok(Mutation::Amnesia),
            other => Err(format!(
                "unknown mutation `{other}` (known: none, early-ack, skip-force, lost-ack, amnesia)"
            )),
        }
    }
}

/// One atomic transition of the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// Route bag slot `slot` to its destination (removing it).
    Deliver {
        /// Index into the in-flight packet bag.
        slot: usize,
    },
    /// Remove bag slot `slot` without delivering it.
    Drop {
        /// Index into the in-flight packet bag.
        slot: usize,
    },
    /// Route a **copy** of bag slot `slot`, keeping the original in
    /// flight (bounded by the duplication budget).
    Duplicate {
        /// Index into the in-flight packet bag.
        slot: usize,
    },
    /// Run client `client`'s next scripted op.
    ClientStep {
        /// Zero-based client index.
        client: usize,
    },
    /// Client `client`'s retransmit timer fires: re-send each lagging
    /// server its unacked suffix as a `ForceLog` (bounded by the
    /// retransmit budget).
    Retransmit {
        /// Zero-based client index.
        client: usize,
    },
    /// Server `server`'s group-commit window expires: flush pending
    /// force obligations in one physical round.
    FlushForces {
        /// Server id (1-based).
        server: u64,
    },
    /// Crash server `server`: volatile state (sessions, unacked
    /// counters, pending obligations) is lost; NVRAM and the on-disk
    /// stream survive. In-flight packets to it stay in the bag and are
    /// only deliverable again after recovery.
    Crash {
        /// Server id (1-based).
        server: u64,
    },
    /// Recover a crashed server: reopen the store (checkpoint load,
    /// tail scan, NVRAM replay) and resume serving.
    Recover {
        /// Server id (1-based).
        server: u64,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Deliver { slot } => write!(f, "deliver:{slot}"),
            Action::Drop { slot } => write!(f, "drop:{slot}"),
            Action::Duplicate { slot } => write!(f, "dup:{slot}"),
            Action::ClientStep { client } => write!(f, "step:{client}"),
            Action::Retransmit { client } => write!(f, "rexmit:{client}"),
            Action::FlushForces { server } => write!(f, "flush:{server}"),
            Action::Crash { server } => write!(f, "crash:{server}"),
            Action::Recover { server } => write!(f, "recover:{server}"),
        }
    }
}

impl FromStr for Action {
    type Err = String;

    fn from_str(s: &str) -> Result<Action, String> {
        let Some((kind, arg)) = s.split_once(':') else {
            return Err(format!("malformed action `{s}` (want kind:arg)"));
        };
        let n: u64 = arg
            .parse()
            .map_err(|_| format!("malformed action arg in `{s}`"))?;
        let slot = n as usize;
        match kind {
            "deliver" => Ok(Action::Deliver { slot }),
            "drop" => Ok(Action::Drop { slot }),
            "dup" => Ok(Action::Duplicate { slot }),
            "step" => Ok(Action::ClientStep { client: slot }),
            "rexmit" => Ok(Action::Retransmit { client: slot }),
            "flush" => Ok(Action::FlushForces { server: n }),
            "crash" => Ok(Action::Crash { server: n }),
            "recover" => Ok(Action::Recover { server: n }),
            other => Err(format!("unknown action kind `{other}` in `{s}`")),
        }
    }
}

/// Model configuration: the shape of the explored system.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Number of log servers (ids `1..=servers`).
    pub servers: u64,
    /// Shard event loops per server. With more than one, every packet a
    /// server receives is routed to the shard its logical log hashes to
    /// (the same pure `LogId::shard` the real dispatcher uses), each
    /// shard owns a private store and obligation table, and the
    /// `router-stability` invariant checks that a client's records only
    /// ever land on that client's shard.
    pub shards: u64,
    /// Number of model clients.
    pub clients: u64,
    /// Each client's scripted workload.
    pub script: Vec<ClientOp>,
    /// The δ window: a client may have at most this many records
    /// written but not yet known replicated on `need_n` servers.
    pub delta: u64,
    /// How many servers must cumulatively ack a record before the
    /// client deems it replicated (the paper's N).
    pub need_n: usize,
    /// `coalesce_max_batch` for every server. Coalescing is always on
    /// in the model (window = 1 hour), so a force ack happens only via
    /// an explicit [`Action::FlushForces`] or the batch cap — making
    /// group-commit timing part of the explored nondeterminism.
    pub coalesce_max_batch: usize,
    /// Crash budget: total `Crash` actions allowed along one path.
    pub max_crashes: u32,
    /// Duplication budget: total `Duplicate` actions along one path.
    pub max_dups: u32,
    /// Retransmit budget per client along one path.
    pub max_rexmits: u32,
    /// Record payload length in bytes.
    pub payload_len: usize,
    /// Seeded bug, if any.
    pub mutation: Mutation,
}

impl Default for McConfig {
    fn default() -> McConfig {
        McConfig {
            servers: 2,
            shards: 1,
            clients: 1,
            script: vec![ClientOp::Write, ClientOp::Force],
            delta: 2,
            need_n: 2,
            coalesce_max_batch: 2,
            max_crashes: 1,
            max_dups: 1,
            max_rexmits: 1,
            payload_len: 8,
            mutation: Mutation::None,
        }
    }
}

impl McConfig {
    /// Parse a script string: `w` = write, `f` = force.
    ///
    /// # Errors
    /// Names the offending character.
    pub fn parse_script(s: &str) -> Result<Vec<ClientOp>, String> {
        s.chars()
            .map(|c| match c {
                'w' | 'W' => Ok(ClientOp::Write),
                'f' | 'F' => Ok(ClientOp::Force),
                other => Err(format!("unknown script op `{other}` (want w/f)")),
            })
            .collect()
    }
}

/// A violated invariant, with enough detail to act on.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable invariant identifier (`ack-after-force`,
    /// `ack-monotonicity`, `readback-atomicity`, `durable-prefix`,
    /// `delta-window`, `obligation-safety`, `obligation-cap`,
    /// `recovery-consistency`, `router-stability`).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// The deterministic record payload: ground truth for every byte-level
/// read-back check. Collision-free enough across the tiny (client, lsn)
/// spaces a bounded exploration reaches.
#[must_use]
pub fn mc_payload(client: u64, lsn: u64, len: usize) -> Vec<u8> {
    let tag = (client.rotate_left(17) ^ lsn.rotate_left(8) ^ lsn) % 251;
    let mut out = vec![tag as u8; len.max(2)];
    if let Some(first) = out.first_mut() {
        *first = (lsn % 127) as u8;
    }
    out
}

/// An in-flight packet.
#[derive(Clone)]
struct Envelope {
    from: NodeAddr,
    to: NodeAddr,
    pkt: Packet,
}

/// One client's durable holdings on one server: client id, interval
/// list, and every stored record's bytes keyed by LSN.
type ClientImage = (u64, Vec<Interval>, Vec<(u64, Vec<u8>)>);

/// The durable state a server held at the moment it crashed, used both
/// as that server's fingerprint while down and as the expectation
/// recovery is checked against. A process crash takes every shard down
/// at once, so the image is indexed by shard.
struct CrashImage {
    fp: u64,
    state: Vec<Vec<ClientImage>>,
}

/// A steppable sans-I/O client speaking the wire protocol directly.
///
/// `ReplicatedLog` blocks (pump loops, jittered backoff sleeps), so the
/// checker drives this small model client instead: same message shapes,
/// same cumulative-ack bookkeeping, but every step is one transition.
/// The client never crashes in the current model, so it stays in epoch
/// 1 and the §3.1.2 present-flag masking path stays quiet.
struct ModelClient {
    id: ClientId,
    addr: NodeAddr,
    epoch: Epoch,
    next_lsn: Lsn,
    pc: usize,
    /// Per-server cumulative acked high LSN (`NewHighLsn` is cumulative:
    /// the tightened first-contact rule in `LogServer::ingest` is what
    /// makes that reading honest).
    acked: BTreeMap<u64, Lsn>,
    /// Highest LSN known replicated on `need_n` servers.
    completed: Lsn,
    rexmits_left: u32,
}

impl ModelClient {
    fn new(index: u64, max_rexmits: u32) -> ModelClient {
        ModelClient {
            id: ClientId(index.saturating_add(1)),
            addr: NodeAddr(CLIENT_ADDR_BASE.saturating_add(index)),
            epoch: Epoch(1),
            next_lsn: Lsn::FIRST,
            pc: 0,
            acked: BTreeMap::new(),
            completed: Lsn::ZERO,
            rexmits_left: max_rexmits,
        }
    }

    /// Highest LSN this client has assigned (`Lsn::ZERO` when none).
    fn written_hi(&self) -> Lsn {
        self.next_lsn.prev().unwrap_or(Lsn::ZERO)
    }

    fn outstanding(&self) -> u64 {
        self.completed.distance(self.written_hi()).unwrap_or(0)
    }

    fn step_enabled(&self, cfg: &McConfig) -> bool {
        match cfg.script.get(self.pc) {
            None => false,
            Some(ClientOp::Write) => self.outstanding() < cfg.delta,
            Some(ClientOp::Force) => true,
        }
    }

    /// The unacked suffix for server `sid`, as wire records.
    fn suffix_for(&self, sid: u64, payload_len: usize) -> Vec<(Lsn, dlog_types::LogData)> {
        let from = self.acked.get(&sid).copied().unwrap_or(Lsn::ZERO).next();
        let mut records = Vec::new();
        let mut at = from;
        while at <= self.written_hi() {
            records.push((at, mc_payload(self.id.0, at.0, payload_len).into()));
            at = at.next();
        }
        records
    }

    fn recompute_completed(&mut self, need_n: usize) {
        let mut highs: Vec<u64> = self.acked.values().map(|l| l.0).collect();
        highs.sort_unstable_by(|a, b| b.cmp(a));
        self.completed = Lsn(highs.get(need_n.saturating_sub(1)).copied().unwrap_or(0));
    }
}

/// The model checker's world. See the module docs for the shape.
pub struct McWorld {
    cfg: McConfig,
    dir: PathBuf,
    /// Live servers: one `LogServer` per shard, indexed by shard — the
    /// model twin of `ShardSupervisor`'s per-shard event loops.
    servers: BTreeMap<u64, Vec<LogServer>>,
    /// Per-shard observability; handles survive crashes so a shard's
    /// trace spans its whole life, crash markers included.
    obs: BTreeMap<u64, Vec<Obs>>,
    /// Each shard's NVRAM device handle — the durable buffer a crash
    /// must not lose.
    nvrams: BTreeMap<u64, Vec<NvramDevice>>,
    crashed: BTreeMap<u64, CrashImage>,
    bag: Vec<Envelope>,
    clients: Vec<ModelClient>,
    /// Highest ack each (server, client) pair has emitted, checked at
    /// the source for monotonicity.
    last_ack: BTreeMap<(u64, u64), Lsn>,
    dups_left: u32,
    crashes_left: u32,
    /// `ClientWrite` / `PacketSend` / `Crash` / `Recover` for the
    /// counterexample rendering.
    world_obs: Obs,
}

impl McWorld {
    /// Build the root world under `dir` (wiped first).
    ///
    /// # Errors
    /// Propagates scratch-dir and store-open failures as strings.
    pub fn new(cfg: &McConfig, dir: &Path) -> Result<McWorld, String> {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the directory may not exist yet; `create_dir_all` below reports real failures"
        )]
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut servers = BTreeMap::new();
        let mut obs = BTreeMap::new();
        let mut nvrams = BTreeMap::new();
        for sid in 1..=cfg.servers {
            let mut shard_servers = Vec::new();
            let mut shard_obs = Vec::new();
            let mut shard_nvrams = Vec::new();
            for k in 0..cfg.shards.max(1) {
                let (server, handle, nvram) = Self::boot(cfg, dir, sid, k, None)?;
                shard_servers.push(server);
                shard_obs.push(handle);
                shard_nvrams.push(nvram);
            }
            servers.insert(sid, shard_servers);
            obs.insert(sid, shard_obs);
            nvrams.insert(sid, shard_nvrams);
        }
        let clients = (0..cfg.clients)
            .map(|i| ModelClient::new(i, cfg.max_rexmits))
            .collect();
        Ok(McWorld {
            dir: dir.to_path_buf(),
            servers,
            obs,
            nvrams,
            crashed: BTreeMap::new(),
            bag: Vec::new(),
            clients,
            last_ack: BTreeMap::new(),
            dups_left: cfg.max_dups,
            crashes_left: cfg.max_crashes,
            world_obs: Obs::new(&ObsOptions::on()),
            cfg: cfg.clone(),
        })
    }

    /// Open (or reopen) shard `shard` of server `sid`. `nvram` is
    /// `None` on first boot and the surviving device on recovery —
    /// except under [`Mutation::Amnesia`], which hands recovery a blank
    /// device.
    fn boot(
        cfg: &McConfig,
        dir: &Path,
        sid: u64,
        shard: u64,
        nvram: Option<NvramDevice>,
    ) -> Result<(LogServer, Obs, NvramDevice), String> {
        let d = if cfg.shards <= 1 {
            dir.join(format!("server-{sid}"))
        } else {
            dir.join(format!("server-{sid}"))
                .join(format!("shard-{shard}"))
        };
        let device = nvram.unwrap_or_else(|| NvramDevice::new(NVRAM_CAP));
        let opts = dlog_storage::StoreOptions {
            fsync: false,
            checkpoint_every: 0,
            ..dlog_storage::StoreOptions::default()
        };
        let store = dlog_storage::LogStore::open(&d, opts, device.clone())
            .map_err(|e| format!("open store {sid}: {e}"))?;
        let gens = dlog_server::gen::GenStore::open(d.join("gens"))
            .map_err(|e| format!("open gens {sid}: {e}"))?;
        let mut config = dlog_server::ServerConfig::new(ServerId(sid)).for_shard(shard, cfg.shards);
        // Force acks must never happen behind the model's back: lazy
        // acks off, and a coalescing window no transition can outwait —
        // flushing happens only via FlushForces or the batch cap.
        config.ack_every = 0;
        config.coalesce_window = Duration::from_secs(3600);
        config.coalesce_max_batch = cfg.coalesce_max_batch;
        let mut server = dlog_server::LogServer::new(config, store, gens)
            .map_err(|e| format!("boot server {sid}: {e}"))?;
        let handle = Obs::new(&ObsOptions::on());
        server.set_obs(handle.clone());
        Ok((server, handle, device))
    }

    /// The model configuration this world runs.
    #[must_use]
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// Number of packets currently in flight.
    #[must_use]
    pub fn bag_len(&self) -> usize {
        self.bag.len()
    }

    /// The world-level observability handle (`ClientWrite`,
    /// `PacketSend`, `Crash`, `Recover`).
    #[must_use]
    pub fn world_obs(&self) -> &Obs {
        &self.world_obs
    }

    /// Per-shard observability handles (alive or crashed), in (server,
    /// shard) order; unsharded worlds yield one handle per server.
    #[must_use]
    pub fn server_obs(&self) -> Vec<(u64, Obs)> {
        self.obs
            .iter()
            .flat_map(|(sid, handles)| handles.iter().map(|o| (*sid, o.clone())))
            .collect()
    }

    /// The shard client `client`'s logical log hashes to — the same
    /// pure function the real dispatcher applies to the wire packet.
    fn client_shard(&self, client: ClientId) -> usize {
        LogId::for_client(client).shard(self.cfg.shards as usize)
    }

    /// Every action enabled in this state, in a fixed, deterministic
    /// order. The explorer branches on exactly this list.
    #[must_use]
    pub fn enabled_actions(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for (i, c) in self.clients.iter().enumerate() {
            if c.step_enabled(&self.cfg) {
                out.push(Action::ClientStep { client: i });
            }
        }
        for (i, c) in self.clients.iter().enumerate() {
            let lagging = (1..=self.cfg.servers)
                .any(|sid| c.acked.get(&sid).copied().unwrap_or(Lsn::ZERO) < c.written_hi());
            if c.rexmits_left > 0 && c.written_hi() > Lsn::ZERO && lagging {
                out.push(Action::Retransmit { client: i });
            }
        }
        for (sid, shards) in &self.servers {
            if shards.iter().any(LogServer::has_pending_forces) {
                out.push(Action::FlushForces { server: *sid });
            }
        }
        if self.crashes_left > 0 {
            for sid in self.servers.keys() {
                out.push(Action::Crash { server: *sid });
            }
        }
        for sid in self.crashed.keys() {
            out.push(Action::Recover { server: *sid });
        }
        for (slot, env) in self.bag.iter().enumerate() {
            let to_crashed = self.crashed.contains_key(&env.to.0);
            if !to_crashed {
                out.push(Action::Deliver { slot });
            }
            out.push(Action::Drop { slot });
            if !to_crashed && self.dups_left > 0 {
                out.push(Action::Duplicate { slot });
            }
        }
        out
    }

    fn bag_push(&mut self, from: NodeAddr, to: NodeAddr, pkt: Packet) {
        self.world_obs
            .event(Stage::PacketSend, pkt.lsn_hint(), to.0);
        self.bag.push(Envelope { from, to, pkt });
    }

    /// Route server output into the bag, checking ack monotonicity at
    /// the source.
    fn emit_server_output(&mut self, sid: u64, out: Vec<(NodeAddr, Packet)>) -> Option<Violation> {
        for (to, pkt) in out {
            if let Message::NewHighLsn { client, lsn } = &pkt.msg {
                let key = (sid, client.0);
                let prev = self.last_ack.get(&key).copied().unwrap_or(Lsn::ZERO);
                if *lsn < prev {
                    return Some(Violation {
                        invariant: "ack-monotonicity",
                        detail: format!(
                            "server {sid} acked {lsn:?} for client {} after {prev:?}",
                            client.0
                        ),
                    });
                }
                self.last_ack.insert(key, *lsn);
            }
            self.bag_push(NodeAddr(sid), to, pkt);
        }
        None
    }

    /// Deliver one envelope to its destination (used by both `Deliver`
    /// and `Duplicate`).
    fn route(&mut self, env: Envelope) -> Result<Option<Violation>, String> {
        let to = env.to.0;
        if to >= 1 && to <= self.cfg.servers {
            if self.crashed.contains_key(&to) {
                return Err(format!("deliver to crashed server {to}"));
            }
            // The dispatcher's routing decision: hash the packet's
            // logical log to a shard. Packets with no route key (none
            // occur in the modelled workload, but keep the dispatcher's
            // semantics) are broadcast to every shard.
            let shard = env
                .pkt
                .route_key()
                .map(|l| l.shard(self.cfg.shards as usize));
            let Some(shards) = self.servers.get_mut(&to) else {
                return Err(format!("no server {to}"));
            };
            let out = match shard {
                Some(k) => {
                    let Some(server) = shards.get_mut(k) else {
                        return Err(format!("no shard {k} on server {to}"));
                    };
                    server.handle(env.from, &env.pkt)
                }
                None => {
                    let mut all = Vec::new();
                    for server in shards.iter_mut() {
                        all.extend(server.handle(env.from, &env.pkt));
                    }
                    all
                }
            };
            // Seeded bug: fabricate the force ack the moment the
            // ForceLog arrives, before any durability round.
            let fabricated = if self.cfg.mutation == Mutation::EarlyAck {
                if let Message::ForceLog { client, .. } = &env.pkt.msg {
                    self.fabricate_ack(to, *client, env.from)
                } else {
                    Vec::new()
                }
            } else {
                Vec::new()
            };
            if let Some(v) = self.emit_server_output(to, out) {
                return Ok(Some(v));
            }
            for (ato, apkt) in fabricated {
                self.bag_push(NodeAddr(to), ato, apkt);
            }
            return Ok(None);
        }
        // Client-bound: the sender's server id is the envelope source.
        let sid = env.from.0;
        let Some(ci) = self.clients.iter().position(|c| c.addr == env.to) else {
            return Err(format!("no endpoint at {:?}", env.to));
        };
        match &env.pkt.msg {
            Message::NewHighLsn { client, lsn } => {
                let matches = self.clients.get(ci).is_some_and(|c| c.id == *client);
                if matches {
                    self.deliver_ack(sid, *client, *lsn);
                }
            }
            Message::MissingInterval { client, lo, .. } => {
                // §4.2 prompt NAK: the server names the first gap it
                // sees and refuses everything after it, so the suffix
                // from the gap's low edge is exactly what it misses.
                // The model client still holds every record (bounded
                // scripts never trim the window), so it resends the
                // whole suffix as a force — the real client's NAK path.
                let resend = {
                    let Some(c) = self.clients.get(ci) else {
                        return Err(format!("no client at {:?}", env.to));
                    };
                    if c.id != *client {
                        None
                    } else {
                        let mut records = Vec::new();
                        let mut at = *lo;
                        while at <= c.written_hi() {
                            records
                                .push((at, mc_payload(c.id.0, at.0, self.cfg.payload_len).into()));
                            at = at.next();
                        }
                        if records.is_empty() {
                            None
                        } else {
                            Some((
                                c.addr,
                                Packet::bare(Message::ForceLog {
                                    client: c.id,
                                    epoch: c.epoch,
                                    records,
                                }),
                            ))
                        }
                    }
                };
                if let Some((from, pkt)) = resend {
                    self.bag_push(from, env.from, pkt);
                }
            }
            _ => {}
        }
        Ok(None)
    }

    /// A buggy server's fabricated forced ack: the trace event carries
    /// the forced bit, so the `ack-after-force` checker sees exactly
    /// what a real premature ack would emit.
    fn fabricate_ack(
        &mut self,
        sid: u64,
        client: ClientId,
        reply_to: NodeAddr,
    ) -> Vec<(NodeAddr, Packet)> {
        let k = self.client_shard(client);
        let hi = self
            .servers
            .get_mut(&sid)
            .and_then(|v| v.get_mut(k))
            .and_then(|s| s.store_mut().last_interval(client))
            .map(|iv| iv.hi);
        let Some(hi) = hi else { return Vec::new() };
        if let Some(obs) = self.obs.get(&sid).and_then(|v| v.get(k)) {
            obs.event(Stage::AckHighLsn, hi.0, (client.0 << 1) | 1);
        }
        self.last_ack.insert((sid, client.0), hi);
        vec![(
            reply_to,
            Packet::bare(Message::NewHighLsn { client, lsn: hi }),
        )]
    }

    /// Apply one action. `Ok(None)` = clean transition; `Ok(Some(v))` =
    /// an invariant broke; `Err` = the action is not applicable in this
    /// state (malformed or stale trace).
    ///
    /// # Errors
    /// Invalid actions and I/O failures, as strings.
    pub fn apply(&mut self, action: Action) -> Result<Option<Violation>, String> {
        if let Some(v) = self.apply_inner(action)? {
            return Ok(Some(v));
        }
        Ok(self.check_invariants())
    }

    /// Apply one action skipping the global invariant scan. The inline,
    /// path-dependent checks (ack monotonicity at emission, obligation
    /// safety at flush, recovery consistency at recover) still run.
    ///
    /// Replay restoration uses this for prefixes that were already
    /// verified clean when first explored — transitions are
    /// deterministic, so re-scanning them would find nothing new and
    /// costs the bulk of a replay.
    ///
    /// # Errors
    /// Same contract as [`McWorld::apply`].
    pub fn apply_unchecked(&mut self, action: Action) -> Result<Option<Violation>, String> {
        self.apply_inner(action)
    }

    fn apply_inner(&mut self, action: Action) -> Result<Option<Violation>, String> {
        match action {
            Action::ClientStep { client } => self.do_client_step(client),
            Action::Retransmit { client } => self.do_retransmit(client),
            Action::Deliver { slot } => {
                if slot >= self.bag.len() {
                    return Err(format!("deliver: no bag slot {slot}"));
                }
                let env = self.bag.remove(slot);
                self.route(env)
            }
            Action::Drop { slot } => {
                if slot >= self.bag.len() {
                    return Err(format!("drop: no bag slot {slot}"));
                }
                self.bag.remove(slot);
                Ok(None)
            }
            Action::Duplicate { slot } => {
                if self.dups_left == 0 {
                    return Err("duplicate budget exhausted".to_string());
                }
                let Some(env) = self.bag.get(slot).cloned() else {
                    return Err(format!("dup: no bag slot {slot}"));
                };
                self.dups_left -= 1;
                self.route(env)
            }
            Action::FlushForces { server } => self.do_flush(server),
            Action::Crash { server } => self.do_crash(server),
            Action::Recover { server } => self.do_recover(server),
        }
    }

    fn do_client_step(&mut self, ci: usize) -> Result<Option<Violation>, String> {
        let (id, addr, epoch, op) = {
            let Some(c) = self.clients.get(ci) else {
                return Err(format!("no client {ci}"));
            };
            if !c.step_enabled(&self.cfg) {
                return Err(format!("client {ci} step not enabled"));
            }
            let Some(op) = self.cfg.script.get(c.pc).copied() else {
                return Err(format!("client {ci} script exhausted"));
            };
            (c.id, c.addr, c.epoch, op)
        };
        match op {
            ClientOp::Write => {
                let lsn = {
                    let Some(c) = self.clients.get_mut(ci) else {
                        return Err(format!("no client {ci}"));
                    };
                    let lsn = c.next_lsn;
                    c.next_lsn = c.next_lsn.next();
                    c.pc = c.pc.saturating_add(1);
                    lsn
                };
                let data = mc_payload(id.0, lsn.0, self.cfg.payload_len);
                self.world_obs
                    .event(Stage::ClientWrite, lsn.0, data.len() as u64);
                for sid in 1..=self.cfg.servers {
                    let pkt = Packet::bare(Message::WriteLog {
                        client: id,
                        epoch,
                        records: vec![(lsn, data.clone().into())],
                    });
                    self.bag_push(addr, NodeAddr(sid), pkt);
                }
            }
            ClientOp::Force => {
                let suffixes: Vec<(u64, Vec<(Lsn, dlog_types::LogData)>)> = {
                    let Some(c) = self.clients.get_mut(ci) else {
                        return Err(format!("no client {ci}"));
                    };
                    c.pc = c.pc.saturating_add(1);
                    (1..=self.cfg.servers)
                        .map(|sid| (sid, c.suffix_for(sid, self.cfg.payload_len)))
                        .collect()
                };
                for (sid, records) in suffixes {
                    let pkt = Packet::bare(Message::ForceLog {
                        client: id,
                        epoch,
                        records,
                    });
                    self.bag_push(addr, NodeAddr(sid), pkt);
                }
            }
        }
        Ok(None)
    }

    fn do_retransmit(&mut self, ci: usize) -> Result<Option<Violation>, String> {
        let (id, addr, epoch, suffixes) = {
            let Some(c) = self.clients.get_mut(ci) else {
                return Err(format!("no client {ci}"));
            };
            if c.rexmits_left == 0 {
                return Err(format!("client {ci} retransmit budget exhausted"));
            }
            c.rexmits_left -= 1;
            let suffixes: Vec<(u64, Vec<(Lsn, dlog_types::LogData)>)> = (1..=self.cfg.servers)
                .filter(|sid| c.acked.get(sid).copied().unwrap_or(Lsn::ZERO) < c.written_hi())
                .map(|sid| (sid, c.suffix_for(sid, self.cfg.payload_len)))
                .collect();
            (c.id, c.addr, c.epoch, suffixes)
        };
        for (sid, records) in suffixes {
            if records.is_empty() {
                continue;
            }
            let pkt = Packet::bare(Message::ForceLog {
                client: id,
                epoch,
                records,
            });
            self.bag_push(addr, NodeAddr(sid), pkt);
        }
        Ok(None)
    }

    fn do_flush(&mut self, sid: u64) -> Result<Option<Violation>, String> {
        // The real supervisor's window expiry drains every shard whose
        // window is due; model the expiry as one action that flushes
        // each shard with pending obligations.
        let pending: Vec<(usize, Vec<ClientId>)> = {
            let Some(shards) = self.servers.get(&sid) else {
                return Err(format!("flush: server {sid} not live"));
            };
            let p: Vec<(usize, Vec<ClientId>)> = shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.has_pending_forces())
                .map(|(k, s)| (k, s.coalescing_obligations()))
                .collect();
            if p.is_empty() {
                return Err(format!("flush: server {sid} has no pending forces"));
            }
            p
        };
        for (k, obligations) in pending {
            if self.cfg.mutation == Mutation::SkipForce {
                // Seeded bug: ack every obligation without the physical
                // force round (as if a failed `force_batch` were ignored).
                // Obligations stay queued server-side; the violation is
                // already detectable from the fabricated acks.
                let mut fabricated = Vec::new();
                for client in obligations {
                    fabricated.extend(self.fabricate_ack(sid, client, NodeAddr(CLIENT_ADDR_BASE)));
                }
                for (to, pkt) in fabricated {
                    self.bag_push(NodeAddr(sid), to, pkt);
                }
                continue;
            }
            let out = {
                let Some(server) = self.servers.get_mut(&sid).and_then(|v| v.get_mut(k)) else {
                    return Err(format!("flush: server {sid} not live"));
                };
                server.flush_pending_forces()
            };
            if self.cfg.mutation == Mutation::LostAck {
                // Seeded bug: the durable round ran but every obligation
                // ack is dropped on the floor — the obligations leak.
                if let Some(v) = self.obligation_check(sid, k, &obligations, &[]) {
                    return Ok(Some(v));
                }
                continue;
            }
            let acked: Vec<u64> = out
                .iter()
                .filter_map(|(_, p)| match &p.msg {
                    Message::NewHighLsn { client, .. } => Some(client.0),
                    _ => None,
                })
                .collect();
            if let Some(v) = self.emit_server_output(sid, out) {
                return Ok(Some(v));
            }
            if let Some(v) = self.obligation_check(sid, k, &obligations, &acked) {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Every flushed obligation whose client has stored records must
    /// have produced an ack — a flush that silently discharges an
    /// obligation leaves that client's force hanging forever.
    fn obligation_check(
        &mut self,
        sid: u64,
        shard: usize,
        obligations: &[ClientId],
        acked: &[u64],
    ) -> Option<Violation> {
        for client in obligations {
            let stored = self
                .servers
                .get_mut(&sid)
                .and_then(|v| v.get_mut(shard))
                .and_then(|s| s.store_mut().last_interval(*client))
                .is_some();
            if stored && !acked.contains(&client.0) {
                return Some(Violation {
                    invariant: "obligation-safety",
                    detail: format!(
                        "server {sid}: group-commit obligation for client {} \
                         discharged without an ack",
                        client.0
                    ),
                });
            }
        }
        None
    }

    fn do_crash(&mut self, sid: u64) -> Result<Option<Violation>, String> {
        if self.crashes_left == 0 {
            return Err("crash budget exhausted".to_string());
        }
        if !self.servers.contains_key(&sid) {
            return Err(format!("crash: server {sid} not live"));
        }
        let image = self.durable_image(sid)?;
        let mut last_end = 0;
        if let Some(shards) = self.servers.get_mut(&sid) {
            for (k, server) in shards.iter_mut().enumerate() {
                let stream_end = server.store_mut().stream_end();
                last_end = stream_end;
                if let Some(obs) = self.obs.get(&sid).and_then(|v| v.get(k)) {
                    obs.event(Stage::Crash, stream_end, sid);
                }
            }
        }
        self.world_obs.event(Stage::Crash, last_end, sid);
        self.servers.remove(&sid);
        self.crashed.insert(sid, image);
        self.crashes_left -= 1;
        Ok(None)
    }

    fn do_recover(&mut self, sid: u64) -> Result<Option<Violation>, String> {
        if !self.crashed.contains_key(&sid) {
            return Err(format!("recover: server {sid} not crashed"));
        }
        let dir = self.dir.clone();
        let mut shard_servers = Vec::new();
        let mut last_end = 0;
        for k in 0..self.cfg.shards.max(1) {
            let device = if self.cfg.mutation == Mutation::Amnesia {
                // Seeded bug: recovery forgets the NVRAM tail.
                NvramDevice::new(NVRAM_CAP)
            } else {
                let Some(d) = self.nvrams.get(&sid).and_then(|v| v.get(k as usize)) else {
                    return Err(format!("recover: no NVRAM handle for {sid}/{k}"));
                };
                d.clone()
            };
            let (mut server, _fresh_obs, _device) =
                Self::boot(&self.cfg, &dir, sid, k, Some(device))?;
            if let Some(handle) = self.obs.get(&sid).and_then(|v| v.get(k as usize)) {
                // Same handle as before the crash: the shard's trace
                // spans its whole life, with the Crash/Recover markers
                // inline.
                server.set_obs(handle.clone());
            }
            let stream_end = server.store_mut().stream_end();
            last_end = stream_end;
            if let Some(obs) = self.obs.get(&sid).and_then(|v| v.get(k as usize)) {
                obs.event(Stage::Recover, stream_end, sid);
            }
            shard_servers.push(server);
        }
        self.world_obs.event(Stage::Recover, last_end, sid);
        self.servers.insert(sid, shard_servers);
        let Some(image) = self.crashed.remove(&sid) else {
            return Err(format!("recover: lost crash image for {sid}"));
        };
        Ok(self.recovery_check(sid, &image))
    }

    /// Recovery must reproduce exactly the durable state the crash
    /// preserved: same interval lists, byte-identical records ("crash
    /// truncates to the durable index; replay reaches a consistent
    /// prefix").
    fn recovery_check(&mut self, sid: u64, image: &CrashImage) -> Option<Violation> {
        for (k, shard_state) in image.state.iter().enumerate() {
            for (client_id, intervals, records) in shard_state {
                let client = ClientId(*client_id);
                let Some(server) = self.servers.get_mut(&sid).and_then(|v| v.get_mut(k)) else {
                    return Some(Violation {
                        invariant: "recovery-consistency",
                        detail: format!("server {sid} shard {k} vanished during recovery check"),
                    });
                };
                let got = server.store_mut().interval_list(client);
                if got.intervals() != intervals.as_slice() {
                    return Some(Violation {
                        invariant: "recovery-consistency",
                        detail: format!(
                            "server {sid} shard {k} client {client_id}: intervals {:?} after \
                             recovery, expected {:?}",
                            got.intervals(),
                            intervals
                        ),
                    });
                }
                for (lsn, bytes) in records {
                    let rec = server.store_mut().read(client, Lsn(*lsn)).ok().flatten();
                    let ok = rec
                        .as_ref()
                        .is_some_and(|r| r.present && r.data.as_bytes() == bytes.as_slice());
                    if !ok {
                        return Some(Violation {
                            invariant: "recovery-consistency",
                            detail: format!(
                                "server {sid} shard {k} client {client_id} lsn {lsn}: durable \
                                 record lost or corrupted by recovery"
                            ),
                        });
                    }
                }
            }
        }
        None
    }

    /// Snapshot server `sid`'s durable contents across every shard
    /// (used at crash time).
    fn durable_image(&mut self, sid: u64) -> Result<CrashImage, String> {
        let Some(shards) = self.servers.get_mut(&sid) else {
            return Err(format!("no server {sid}"));
        };
        let mut state = Vec::new();
        let mut h = Fnv::new();
        for server in shards.iter_mut() {
            let store = server.store_mut();
            let mut clients = store.clients();
            clients.sort_unstable();
            let mut shard_state = Vec::new();
            for client in clients {
                let intervals: Vec<Interval> = store.interval_list(client).intervals().to_vec();
                let mut records = Vec::new();
                for iv in &intervals {
                    let mut at = iv.lo;
                    while at <= iv.hi {
                        if let Ok(Some(rec)) = store.read(client, at) {
                            records.push((at.0, rec.data.as_bytes().to_vec()));
                        }
                        at = at.next();
                    }
                }
                shard_state.push((client.0, intervals, records));
            }
            hash_image(&mut h, &shard_state);
            state.push(shard_state);
        }
        Ok(CrashImage {
            fp: h.finish(),
            state,
        })
    }

    /// The global invariants checked after every transition. Returns
    /// the first violation found.
    fn check_invariants(&mut self) -> Option<Violation> {
        // 1. ack-after-force, per shard trace (the run-time check of
        //    the `Durable` token; forced acks carry bit 0 of the detail
        //    word).
        for (sid, handles) in &self.obs {
            for (k, obs) in handles.iter().enumerate() {
                let Some(snap) = obs.snapshot() else { continue };
                if let Err(e) = check_force_before_ack(&snap.trace) {
                    return Some(Violation {
                        invariant: "ack-after-force",
                        detail: format!("server {sid} shard {k}: {e}"),
                    });
                }
            }
        }
        // 2. WriteLog atomicity / byte-identical read-back: everything
        //    a live server stores must match what the client wrote.
        let live: Vec<u64> = self.servers.keys().copied().collect();
        for sid in live {
            if let Some(v) = self.readback_check(sid) {
                return Some(v);
            }
        }
        // 3. δ-window and durable-prefix, per client.
        for ci in 0..self.clients.len() {
            if let Some(v) = self.client_checks(ci) {
                return Some(v);
            }
        }
        // 4. Obligation cap: no shard's batch outgrows its configured
        //    bound (the cap triggers an inline flush).
        for (sid, shards) in &self.servers {
            for (k, server) in shards.iter().enumerate() {
                let n = server.coalescing_obligations().len();
                if n > self.cfg.coalesce_max_batch {
                    return Some(Violation {
                        invariant: "obligation-cap",
                        detail: format!(
                            "server {sid} shard {k}: {n} pending obligations exceed the \
                             batch cap {}",
                            self.cfg.coalesce_max_batch
                        ),
                    });
                }
            }
        }
        None
    }

    fn readback_check(&mut self, sid: u64) -> Option<Violation> {
        let shard_count = self.cfg.shards as usize;
        let shards = self.servers.get_mut(&sid)?;
        for (k, server) in shards.iter_mut().enumerate() {
            let store = server.store_mut();
            let mut clients = store.clients();
            clients.sort_unstable();
            for client in clients {
                // router-stability: every record a shard holds must be
                // for a logical log that hashes to that shard. Routing
                // is a pure function of the log id, so the same client
                // can never land on two shards — which is exactly what
                // makes "same-LogId ops never reorder across shards"
                // hold: one log, one shard, one ordered event loop.
                let want_shard = LogId::for_client(client).shard(shard_count);
                if want_shard != k {
                    return Some(Violation {
                        invariant: "router-stability",
                        detail: format!(
                            "server {sid}: client {}'s records landed on shard {k}, but its \
                             logical log hashes to shard {want_shard}",
                            client.0
                        ),
                    });
                }
                let intervals: Vec<Interval> = store.interval_list(client).intervals().to_vec();
                for iv in &intervals {
                    let mut at = iv.lo;
                    while at <= iv.hi {
                        let rec = store.read(client, at).ok().flatten();
                        let want = mc_payload(client.0, at.0, self.cfg.payload_len);
                        let ok = rec
                            .as_ref()
                            .is_some_and(|r| r.present && r.data.as_bytes() == want.as_slice());
                        if !ok {
                            return Some(Violation {
                                invariant: "readback-atomicity",
                                detail: format!(
                                    "server {sid} shard {k} client {} lsn {}: stored record \
                                     missing or not byte-identical to the write",
                                    client.0, at.0
                                ),
                            });
                        }
                        at = at.next();
                    }
                }
            }
        }
        None
    }

    fn client_checks(&mut self, ci: usize) -> Option<Violation> {
        let (id, completed, outstanding, written_hi) = {
            let c = self.clients.get(ci)?;
            (c.id, c.completed, c.outstanding(), c.written_hi())
        };
        if outstanding > self.cfg.delta {
            return Some(Violation {
                invariant: "delta-window",
                detail: format!(
                    "client {}: {outstanding} records outstanding exceeds δ = {}",
                    id.0, self.cfg.delta
                ),
            });
        }
        if completed > written_hi {
            return Some(Violation {
                invariant: "durable-prefix",
                detail: format!(
                    "client {}: completion {completed:?} beyond highest write {written_hi} \
                     (a server overstated its cumulative ack)",
                    id.0
                ),
            });
        }
        // Every record the client deems replicated must be durably held
        // by at least need_n servers — counting crashed servers'
        // preserved durable state (they will recover with it).
        let mut at = Lsn::FIRST;
        while at <= completed {
            let mut holders = 0usize;
            for sid in 1..=self.cfg.servers {
                let holds = if let Some(image) = self.crashed.get(&sid) {
                    image.state.iter().flatten().any(|(cid, intervals, _)| {
                        *cid == id.0 && intervals.iter().any(|iv| iv.contains(at))
                    })
                } else if let Some(shards) = self.servers.get_mut(&sid) {
                    shards.iter_mut().any(|server| {
                        server
                            .store_mut()
                            .interval_list(id)
                            .intervals()
                            .iter()
                            .any(|iv| iv.contains(at))
                    })
                } else {
                    false
                };
                if holds {
                    holders = holders.saturating_add(1);
                }
            }
            if holders < self.cfg.need_n {
                return Some(Violation {
                    invariant: "durable-prefix",
                    detail: format!(
                        "client {}: lsn {} is inside the completed prefix ({:?}) but only \
                         {holders} of the required {} servers hold it durably",
                        id.0, at.0, completed, self.cfg.need_n
                    ),
                });
            }
            at = at.next();
        }
        None
    }

    /// The canonical state fingerprint: a 64-bit FNV-1a hash over every
    /// behavior-relevant component — per-server durable content (store
    /// bytes + interval lists), volatile protocol state (pending
    /// group-commit obligations, interval grants), the in-flight packet
    /// multiset, each client's window/ack state, and the remaining
    /// fault budgets. Two states with equal fingerprints behave
    /// identically under every action sequence, so the explorer visits
    /// one of them.
    #[must_use]
    pub fn fingerprint(&mut self) -> u64 {
        let mut h = Fnv::new();
        for sid in 1..=self.cfg.servers {
            if let Some(image) = self.crashed.get(&sid) {
                h.u64(0xdead);
                h.u64(image.fp);
                continue;
            }
            h.u64(0xa11e);
            let shard_count = self.servers.get(&sid).map_or(0, Vec::len);
            h.u64(shard_count as u64);
            for k in 0..shard_count {
                let obligations = self
                    .servers
                    .get(&sid)
                    .and_then(|v| v.get(k))
                    .map(LogServer::coalescing_obligations)
                    .unwrap_or_default();
                let grants = self
                    .servers
                    .get(&sid)
                    .and_then(|v| v.get(k))
                    .map(LogServer::interval_grants)
                    .unwrap_or_default();
                if let Some(server) = self.servers.get_mut(&sid).and_then(|v| v.get_mut(k)) {
                    let store = server.store_mut();
                    let mut clients = store.clients();
                    clients.sort_unstable();
                    h.u64(clients.len() as u64);
                    for client in clients {
                        h.u64(client.0);
                        let intervals: Vec<Interval> =
                            store.interval_list(client).intervals().to_vec();
                        h.u64(intervals.len() as u64);
                        for iv in &intervals {
                            h.u64(iv.epoch.0);
                            h.u64(iv.lo.0);
                            h.u64(iv.hi.0);
                            let mut at = iv.lo;
                            while at <= iv.hi {
                                if let Ok(Some(rec)) = store.read(client, at) {
                                    h.bytes(rec.data.as_bytes());
                                } else {
                                    h.u64(0xbad);
                                }
                                at = at.next();
                            }
                        }
                    }
                }
                h.u64(obligations.len() as u64);
                for c in obligations {
                    h.u64(c.0);
                }
                h.u64(grants.len() as u64);
                for (c, e, l) in grants {
                    h.u64(c.0);
                    h.u64(e.0);
                    h.u64(l.0);
                }
            }
        }
        // The bag as a multiset: delivery order among slots is already
        // the explorer's choice, so two bags with the same contents are
        // the same state.
        let mut encoded: Vec<Vec<u8>> = self
            .bag
            .iter()
            .map(|env| {
                let mut b = Vec::new();
                b.extend_from_slice(&env.from.0.to_le_bytes());
                b.extend_from_slice(&env.to.0.to_le_bytes());
                b.extend_from_slice(&env.pkt.encode());
                b
            })
            .collect();
        encoded.sort_unstable();
        h.u64(encoded.len() as u64);
        for b in &encoded {
            h.bytes(b);
        }
        for c in &self.clients {
            h.u64(c.id.0);
            h.u64(c.epoch.0);
            h.u64(c.next_lsn.0);
            h.u64(c.pc as u64);
            h.u64(c.completed.0);
            h.u64(u64::from(c.rexmits_left));
            h.u64(c.acked.len() as u64);
            for (sid, lsn) in &c.acked {
                h.u64(*sid);
                h.u64(lsn.0);
            }
        }
        h.u64(u64::from(self.dups_left));
        h.u64(u64::from(self.crashes_left));
        h.u64(self.last_ack.len() as u64);
        for ((sid, cid), lsn) in &self.last_ack {
            h.u64(*sid);
            h.u64(*cid);
            h.u64(lsn.0);
        }
        h.finish()
    }

    /// Route an ack to the model client it belongs to. Called by
    /// [`McWorld::route`] via the bag — split out so the borrow checker
    /// can see the disjoint client/server access.
    fn deliver_ack(&mut self, sid: u64, client: ClientId, lsn: Lsn) {
        let need_n = self.cfg.need_n;
        if let Some(c) = self.clients.iter_mut().find(|c| c.id == client) {
            let entry = c.acked.entry(sid).or_insert(Lsn::ZERO);
            if lsn > *entry {
                *entry = lsn;
            }
            c.recompute_completed(need_n);
        }
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.u64(bs.len() as u64);
        for &b in bs {
            self.byte(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_image(h: &mut Fnv, state: &[ClientImage]) {
    h.u64(state.len() as u64);
    for (client, intervals, records) in state {
        h.u64(*client);
        h.u64(intervals.len() as u64);
        for iv in intervals {
            h.u64(iv.epoch.0);
            h.u64(iv.lo.0);
            h.u64(iv.hi.0);
        }
        h.u64(records.len() as u64);
        for (lsn, bytes) in records {
            h.u64(*lsn);
            h.bytes(bytes);
        }
    }
}
