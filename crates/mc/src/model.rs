//! The checker's world: the shared [`ServerWorld`] over a
//! nondeterministic packet bag, a steppable sans-I/O model client, the
//! action alphabet, canonical state fingerprinting, and the invariant
//! catalog.
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
use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

use dlog_net::wire::{Message, NodeAddr, Packet};
use dlog_obs::{check_force_before_ack, Obs, ObsOptions, Stage};
use dlog_server::{LogServer, ServerConfig};
use dlog_types::{ClientId, Epoch, Interval, LogId, Lsn, ServerId};

use crate::harness::{Output, ServerWorld};

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

/// One client's durable holdings on one shard: client id, interval
/// list, and `(lsn, bytes)` for each present record its intervals
/// cover, in interval order.
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

    /// The first LSN server `sid` has not acked.
    fn unacked(&self, sid: u64) -> Lsn {
        self.acked.get(&sid).copied().unwrap_or(Lsn::ZERO).next()
    }

    /// A `ForceLog` carrying every record from `from` through the highest
    /// written.
    fn force_from(&self, from: Lsn, payload_len: usize) -> Packet {
        let mut records = Vec::new();
        let mut at = from;
        while at <= self.written_hi() {
            records.push((at, mc_payload(self.id.0, at.0, payload_len).into()));
            at = at.next();
        }
        Packet::bare(Message::ForceLog {
            client: self.id,
            epoch: self.epoch,
            records,
        })
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
    /// The real servers, one `LogServer` per shard — the model twin of
    /// `ShardSupervisor`'s per-shard event loops.
    servers: ServerWorld,
    crashed: BTreeMap<u64, CrashImage>,
    bag: Vec<Envelope>,
    clients: Vec<ModelClient>,
    dups_left: u32,
    crashes_left: u32,
    /// `ClientWrite` / `PacketSend` / `Crash` / `Recover` for the
    /// counterexample rendering.
    world_obs: Obs,
}

/// The one walk over a shard's durable records: a row per client, in id
/// order. Crash images, recovery and read-back checks and the state
/// fingerprint all fold these rows.
fn client_rows(server: &mut LogServer) -> Vec<ClientImage> {
    let store = server.store_mut();
    let mut clients = store.clients();
    clients.sort_unstable();
    clients
        .into_iter()
        .map(|client| {
            let intervals: Vec<Interval> = store.interval_list(client).intervals().to_vec();
            let mut records = Vec::new();
            for iv in &intervals {
                let mut at = iv.lo;
                while at <= iv.hi {
                    if let Ok(Some(rec)) = store.read(client, at) {
                        if rec.present {
                            records.push((at.0, rec.data.as_bytes().to_vec()));
                        }
                    }
                    at = at.next();
                }
            }
            (client.0, intervals, records)
        })
        .collect()
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
        // Force acks must never happen behind the model's back: lazy acks
        // off, and a coalescing window no transition can outwait —
        // flushing happens only via FlushForces or the batch cap.
        let mut config = ServerConfig::new(ServerId(0)).for_shard(0, cfg.shards);
        config.ack_every = 0;
        config.coalesce_window = Duration::from_secs(3600);
        config.coalesce_max_batch = cfg.coalesce_max_batch;
        let servers = ServerWorld::open(dir, cfg.servers, config, || Obs::new(&ObsOptions::on()))
            .map_err(|e| format!("boot servers: {e}"))?;
        let clients = (0..cfg.clients)
            .map(|i| ModelClient::new(i, cfg.max_rexmits))
            .collect();
        Ok(McWorld {
            servers,
            crashed: BTreeMap::new(),
            bag: Vec::new(),
            clients,
            dups_left: cfg.max_dups,
            crashes_left: cfg.max_crashes,
            world_obs: Obs::new(&ObsOptions::on()),
            cfg: cfg.clone(),
        })
    }

    /// The model configuration this world runs.
    #[must_use]
    pub fn config(&self) -> &McConfig {
        &self.cfg
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
        self.servers
            .obs()
            .map(|(sid, _, obs)| (sid, obs.clone()))
            .collect()
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
            let lagging = (1..=self.cfg.servers).any(|sid| c.unacked(sid) <= c.written_hi());
            if c.rexmits_left > 0 && c.written_hi() > Lsn::ZERO && lagging {
                out.push(Action::Retransmit { client: i });
            }
        }
        for sid in 1..=self.cfg.servers {
            if self.servers.has_pending_forces(sid) {
                out.push(Action::FlushForces { server: sid });
            }
        }
        if self.crashes_left > 0 {
            for sid in (1..=self.cfg.servers).filter(|sid| !self.crashed.contains_key(sid)) {
                out.push(Action::Crash { server: sid });
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

    fn bag_extend(&mut self, from: NodeAddr, out: Output) {
        for (to, pkt) in out {
            self.bag_push(from, to, pkt);
        }
    }

    /// Deliver one envelope to its destination (used by both `Deliver`
    /// and `Duplicate`).
    fn route(&mut self, env: Envelope) -> Result<Option<Violation>, String> {
        let to = env.to.0;
        if self.servers.is_server(env.to) {
            if self.crashed.contains_key(&to) {
                return Err(format!("deliver to crashed server {to}"));
            }
            let out = match self.servers.deliver(env.from, env.to, &env.pkt) {
                Ok(out) => out,
                Err(v) => return Ok(Some(v)),
            };
            self.bag_extend(env.to, out);
            // Seeded bug: fabricate the force ack the moment the
            // ForceLog arrives, before any durability round.
            if self.cfg.mutation == Mutation::EarlyAck {
                if let Message::ForceLog { client, .. } = &env.pkt.msg {
                    let fabricated = self.fabricate_ack(to, *client, env.from);
                    self.bag_extend(env.to, fabricated);
                }
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
                let resend = self
                    .clients
                    .get(ci)
                    .filter(|c| c.id == *client && *lo <= c.written_hi())
                    .map(|c| (c.addr, c.force_from(*lo, self.cfg.payload_len)));
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
    fn fabricate_ack(&mut self, sid: u64, client: ClientId, reply_to: NodeAddr) -> Output {
        let k = LogId::for_client(client).shard(self.cfg.shards as usize) as u64;
        let hi = self
            .servers
            .shard_mut(sid, k)
            .and_then(|s| s.store_mut().last_interval(client))
            .map(|iv| iv.hi);
        let Some(hi) = hi else { return Vec::new() };
        if let Some((_, _, obs)) = self.servers.obs().find(|(s, j, _)| (*s, *j) == (sid, k)) {
            obs.event(Stage::AckHighLsn, hi.0, (client.0 << 1) | 1);
        }
        self.servers.note_ack(sid, client.0, hi);
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
                let forces: Vec<(u64, Packet)> = {
                    let Some(c) = self.clients.get_mut(ci) else {
                        return Err(format!("no client {ci}"));
                    };
                    c.pc = c.pc.saturating_add(1);
                    (1..=self.cfg.servers)
                        .map(|sid| (sid, c.force_from(c.unacked(sid), self.cfg.payload_len)))
                        .collect()
                };
                for (sid, pkt) in forces {
                    self.bag_push(addr, NodeAddr(sid), pkt);
                }
            }
        }
        Ok(None)
    }

    fn do_retransmit(&mut self, ci: usize) -> Result<Option<Violation>, String> {
        let (addr, forces) = {
            let Some(c) = self.clients.get_mut(ci) else {
                return Err(format!("no client {ci}"));
            };
            if c.rexmits_left == 0 {
                return Err(format!("client {ci} retransmit budget exhausted"));
            }
            c.rexmits_left -= 1;
            let forces: Vec<(u64, Packet)> = (1..=self.cfg.servers)
                .filter(|sid| c.unacked(*sid) <= c.written_hi())
                .map(|sid| (sid, c.force_from(c.unacked(sid), self.cfg.payload_len)))
                .collect();
            (c.addr, forces)
        };
        for (sid, pkt) in forces {
            self.bag_push(addr, NodeAddr(sid), pkt);
        }
        Ok(None)
    }

    fn do_flush(&mut self, sid: u64) -> Result<Option<Violation>, String> {
        // The real supervisor's window expiry drains every shard whose
        // window is due; model the expiry as one action that flushes
        // each shard with pending obligations.
        let pending: Vec<(u64, Vec<ClientId>)> = self
            .servers
            .shards(sid)
            .filter(|(_, s)| s.has_pending_forces())
            .map(|(k, s)| (k, s.coalescing_obligations()))
            .collect();
        if pending.is_empty() {
            return Err(format!("flush: server {sid} has no pending forces"));
        }
        for (k, obligations) in pending {
            if self.cfg.mutation == Mutation::SkipForce {
                // Seeded bug: ack every obligation without the physical
                // force round (as if a failed `force_batch` were ignored).
                // Obligations stay queued server-side; the violation is
                // already detectable from the fabricated acks.
                for client in obligations {
                    let fabricated = self.fabricate_ack(sid, client, NodeAddr(CLIENT_ADDR_BASE));
                    self.bag_extend(NodeAddr(sid), fabricated);
                }
                continue;
            }
            let out = match self.servers.flush(sid, Some(k)) {
                Ok(out) => out,
                Err(v) => return Ok(Some(v)),
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
            self.bag_extend(NodeAddr(sid), out);
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
        shard: u64,
        obligations: &[ClientId],
        acked: &[u64],
    ) -> Option<Violation> {
        for client in obligations {
            let stored = self
                .servers
                .shard_mut(sid, shard)
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
        if self.crashed.contains_key(&sid) || !self.servers.is_server(NodeAddr(sid)) {
            return Err(format!("crash: server {sid} not live"));
        }
        let mut h = Fnv::new();
        let state: Vec<Vec<ClientImage>> = self
            .servers
            .shards_mut(sid)
            .map(|(_, server)| {
                let rows = client_rows(server);
                hash_image(&mut h, &rows);
                rows
            })
            .collect();
        let end = self.servers.crash(sid).unwrap_or(0);
        self.world_obs.event(Stage::Crash, end, sid);
        self.crashed.insert(
            sid,
            CrashImage {
                fp: h.finish(),
                state,
            },
        );
        self.crashes_left -= 1;
        Ok(None)
    }

    fn do_recover(&mut self, sid: u64) -> Result<Option<Violation>, String> {
        let Some(image) = self.crashed.remove(&sid) else {
            return Err(format!("recover: server {sid} not crashed"));
        };
        // Seeded bug: recovery forgets the NVRAM tail.
        let amnesia = self.cfg.mutation == Mutation::Amnesia;
        let end = self
            .servers
            .recover(sid, amnesia)
            .map_err(|e| format!("recover server {sid}: {e}"))?;
        self.world_obs.event(Stage::Recover, end, sid);
        Ok(self.recovery_check(sid, &image))
    }

    /// Recovery must reproduce exactly the durable state the crash
    /// preserved: same interval lists, byte-identical records ("crash
    /// truncates to the durable index; replay reaches a consistent
    /// prefix").
    fn recovery_check(&mut self, sid: u64, image: &CrashImage) -> Option<Violation> {
        let recovered: Vec<Vec<ClientImage>> = self
            .servers
            .shards_mut(sid)
            .map(|(_, server)| client_rows(server))
            .collect();
        for (k, shard_state) in image.state.iter().enumerate() {
            let now = recovered.get(k).map_or(&[][..], Vec::as_slice);
            for (client_id, intervals, records) in shard_state {
                let (got_intervals, got_records) = now
                    .iter()
                    .find(|(c, _, _)| c == client_id)
                    .map_or((&[][..], &[][..]), |(_, ivs, recs)| {
                        (ivs.as_slice(), recs.as_slice())
                    });
                if got_intervals != intervals.as_slice() {
                    return Some(Violation {
                        invariant: "recovery-consistency",
                        detail: format!(
                            "server {sid} shard {k} client {client_id}: intervals \
                             {got_intervals:?} after recovery, expected {intervals:?}"
                        ),
                    });
                }
                if let Some((lsn, _)) = records.iter().find(|r| !got_records.contains(r)) {
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
        None
    }

    /// The global invariants checked after every transition. Returns
    /// the first violation found.
    fn check_invariants(&mut self) -> Option<Violation> {
        // 1. ack-after-force, per shard trace (the run-time check of
        //    the `Durable` token; forced acks carry bit 0 of the detail
        //    word).
        for (sid, k, obs) in self.servers.obs() {
            let Some(snap) = obs.snapshot() else { continue };
            if let Err(e) = check_force_before_ack(&snap.trace) {
                return Some(Violation {
                    invariant: "ack-after-force",
                    detail: format!("server {sid} shard {k}: {e}"),
                });
            }
        }
        // 2. WriteLog atomicity / byte-identical read-back: everything
        //    a live server stores must match what the client wrote.
        for sid in 1..=self.cfg.servers {
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
        for sid in 1..=self.cfg.servers {
            for (k, server) in self.servers.shards(sid) {
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
        let payload_len = self.cfg.payload_len;
        for (k, server) in self.servers.shards_mut(sid) {
            for (client, intervals, records) in client_rows(server) {
                // router-stability: every record a shard holds must be
                // for a logical log that hashes to that shard. Routing
                // is a pure function of the log id, so the same client
                // can never land on two shards — which is exactly what
                // makes "same-LogId ops never reorder across shards"
                // hold: one log, one shard, one ordered event loop.
                let want_shard = LogId::for_client(ClientId(client)).shard(shard_count) as u64;
                if want_shard != k {
                    return Some(Violation {
                        invariant: "router-stability",
                        detail: format!(
                            "server {sid}: client {client}'s records landed on shard {k}, but \
                             its logical log hashes to shard {want_shard}"
                        ),
                    });
                }
                let mut stored = records.iter();
                for iv in &intervals {
                    let mut at = iv.lo;
                    while at <= iv.hi {
                        let want = mc_payload(client, at.0, payload_len);
                        if !stored
                            .next()
                            .is_some_and(|(lsn, bytes)| *lsn == at.0 && *bytes == want)
                        {
                            return Some(Violation {
                                invariant: "readback-atomicity",
                                detail: format!(
                                    "server {sid} shard {k} client {client} lsn {}: stored \
                                     record missing or not byte-identical to the write",
                                    at.0
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
                } else {
                    self.servers.shards_mut(sid).any(|(_, server)| {
                        server
                            .store_mut()
                            .interval_list(id)
                            .intervals()
                            .iter()
                            .any(|iv| iv.contains(at))
                    })
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
            h.u64(self.servers.shards(sid).count() as u64);
            for (_, server) in self.servers.shards_mut(sid) {
                let obligations = server.coalescing_obligations();
                let grants = server.interval_grants();
                let rows = client_rows(server);
                h.u64(rows.len() as u64);
                for (client, intervals, records) in &rows {
                    h.u64(*client);
                    h.u64(intervals.len() as u64);
                    let mut stored = records.iter().peekable();
                    for iv in intervals {
                        h.u64(iv.epoch.0);
                        h.u64(iv.lo.0);
                        h.u64(iv.hi.0);
                        for at in iv.lo.0..=iv.hi.0 {
                            match stored.next_if(|(lsn, _)| *lsn == at) {
                                Some((_, bytes)) => h.bytes(bytes),
                                None => h.u64(0xbad),
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
        let last_acks = self.servers.last_acks();
        h.u64(last_acks.len() as u64);
        for ((sid, cid), lsn) in last_acks {
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
