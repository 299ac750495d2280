//! Clusters built from the crates' public API only, the way
//! `examples/udp_cluster.rs` builds one: M log servers (each a
//! `LogStore` + `GenStore` + `LogServer` behind a runner thread) and
//! `ReplicatedLog` clients, over the in-memory network or UDP loopback.
//! Every endpoint is wrapped in a [`SpanEndpoint`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_net::mem::NetStats;
use dlog_net::udp::UdpEndpoint;
use dlog_net::wire::NodeAddr;
use dlog_net::{Endpoint, FaultPlan, MemEndpoint, MemNetwork};
use dlog_obs::{Obs, ObsOptions};
use dlog_server::gen::GenStore;
use dlog_server::runner::ServerRunner;
use dlog_server::shard::ShardSupervisor;
use dlog_server::{LogServer, ServerConfig};
use dlog_storage::store::Durability;
use dlog_storage::{LogStore, NvramDevice, StoreOptions};
use dlog_types::{ClientId, LogId, ReplicationConfig, ServerId};

use crate::span::{SpanEndpoint, Tracer};

/// NVRAM per server shard: the paper's 1 MiB board.
pub const NVRAM_BYTES: usize = 1 << 20;

/// Servers live at their id, clients at 1000 + id.
pub fn server_addr(s: ServerId) -> NodeAddr {
    NodeAddr(s.0)
}

pub fn client_addr(c: ClientId) -> NodeAddr {
    NodeAddr(1000 + c.0)
}

/// Everything that distinguishes one workload's cluster from another's.
#[derive(Clone, Copy, Debug)]
pub struct ClusterCfg {
    pub servers: u64,
    pub replicas: usize,
    pub delta: u64,
    pub shards: u64,
    pub durability: Durability,
    pub fsync: bool,
    pub coalesce: Duration,
    pub plan: FaultPlan,
    /// `ObsOptions::on()` on every server, endpoint and client.
    pub obs: bool,
}

impl ClusterCfg {
    /// The base point: M = 3, N = 2, δ = 8, one shard, modelled NVRAM,
    /// no coalescing, reliable network, observability off.
    pub fn base() -> ClusterCfg {
        ClusterCfg {
            servers: 3,
            replicas: 2,
            delta: 8,
            shards: 1,
            durability: Durability::Nvram,
            fsync: false,
            coalesce: Duration::ZERO,
            plan: FaultPlan::reliable(),
            obs: false,
        }
    }

    pub fn server_ids(&self) -> Vec<ServerId> {
        (1..=self.servers).map(ServerId).collect()
    }

    fn obs_options(&self) -> ObsOptions {
        if self.obs {
            ObsOptions::on()
        } else {
            ObsOptions::off()
        }
    }
}

/// A server's event loops, whichever way the transport runs them.
enum Backend {
    Single(ServerRunner),
    Sharded(ShardSupervisor),
}

impl Backend {
    fn stop(self) -> Vec<LogServer> {
        match self {
            Backend::Single(r) => vec![r.stop()],
            Backend::Sharded(s) => s.stop(),
        }
    }
}

/// The two networks a cluster can run over.
pub trait Transport: Sized {
    type Ep: Endpoint + Sync + 'static;
    const NAME: &'static str;

    fn new(plan: FaultPlan) -> Self;
    /// The network after a cluster-wide restart: same addresses, fault
    /// plan `plan`.
    fn reborn(&self, plan: FaultPlan) -> Self;
    /// (Re)create the endpoint of a server; a rebooted server must be
    /// reachable where its clients already look for it.
    fn server_endpoint(&mut self, addr: NodeAddr, obs: &Obs) -> Self::Ep;
    fn client_endpoint(&mut self, addr: NodeAddr, servers: &[NodeAddr], obs: &Obs) -> Self::Ep;
    /// Run the shards of a sharded server behind `ep`.
    fn spawn_shards(servers: Vec<LogServer>, ep: SpanEndpoint<Self::Ep>) -> ShardSupervisor;
    /// Delivery counters (zero where the transport keeps none).
    fn net_stats(&self) -> NetStats {
        NetStats::default()
    }
}

pub struct Mem(MemNetwork);

impl Transport for Mem {
    type Ep = MemEndpoint;
    const NAME: &'static str = "mem";

    fn new(plan: FaultPlan) -> Self {
        Mem(MemNetwork::new(plan))
    }

    fn reborn(&self, plan: FaultPlan) -> Self {
        Mem::new(plan)
    }

    fn server_endpoint(&mut self, addr: NodeAddr, obs: &Obs) -> MemEndpoint {
        let mut ep = self.0.endpoint(addr);
        ep.set_obs(obs.clone());
        ep
    }

    fn client_endpoint(&mut self, addr: NodeAddr, _servers: &[NodeAddr], obs: &Obs) -> MemEndpoint {
        let mut ep = self.0.endpoint(addr);
        ep.set_obs(obs.clone());
        ep
    }

    fn spawn_shards(servers: Vec<LogServer>, ep: SpanEndpoint<MemEndpoint>) -> ShardSupervisor {
        // The in-memory transport steers frames to shard queues itself,
        // so the sharded server runs without a dispatcher.
        ShardSupervisor::spawn_routed(servers, ep)
    }

    fn net_stats(&self) -> NetStats {
        self.0.stats()
    }
}

/// UDP on 127.0.0.1. Servers keep their port across reboots and accept
/// datagrams from clients they have not met (every client incarnation
/// binds a fresh socket), replying to the source address.
#[derive(Default)]
pub struct Udp {
    server_sockets: HashMap<NodeAddr, SocketAddr>,
}

impl Transport for Udp {
    type Ep = UdpEndpoint;
    const NAME: &'static str = "udp";

    fn new(_plan: FaultPlan) -> Self {
        Udp::default()
    }

    fn reborn(&self, _plan: FaultPlan) -> Self {
        Udp {
            server_sockets: self.server_sockets.clone(),
        }
    }

    fn server_endpoint(&mut self, addr: NodeAddr, obs: &Obs) -> UdpEndpoint {
        let bind_to = self
            .server_sockets
            .get(&addr)
            .copied()
            .unwrap_or_else(|| "127.0.0.1:0".parse().expect("loopback"));
        let mut ep = UdpEndpoint::bind(addr, bind_to).expect("bind server socket");
        ep.set_obs(obs.clone());
        ep.set_promiscuous(true);
        self.server_sockets
            .insert(addr, ep.socket_addr().expect("server socket address"));
        ep
    }

    fn client_endpoint(&mut self, addr: NodeAddr, servers: &[NodeAddr], obs: &Obs) -> UdpEndpoint {
        let any = "127.0.0.1:0".parse().expect("loopback");
        let mut ep = UdpEndpoint::bind(addr, any).expect("bind client socket");
        ep.set_obs(obs.clone());
        for s in servers {
            if let Some(at) = self.server_sockets.get(s) {
                ep.add_peer(*s, *at);
            }
        }
        ep
    }

    fn spawn_shards(servers: Vec<LogServer>, ep: SpanEndpoint<UdpEndpoint>) -> ShardSupervisor {
        ShardSupervisor::spawn(servers, ep)
    }
}

/// The client type every workload drives.
pub type Client<T> = ReplicatedLog<SpanEndpoint<<T as Transport>::Ep>>;

pub struct Cluster<T: Transport> {
    pub cfg: ClusterCfg,
    pub transport: T,
    pub tracer: Arc<Tracer>,
    root: PathBuf,
    backends: HashMap<ServerId, Backend>,
    nvrams: HashMap<(ServerId, u64), NvramDevice>,
    obs: HashMap<(ServerId, u64), Obs>,
    client_obs: Obs,
}

/// How every store of the benchmark is opened: no checkpoints, as the
/// test harness and `examples/udp_cluster.rs` run them.
pub fn store_options(durability: Durability, fsync: bool) -> StoreOptions {
    StoreOptions {
        fsync,
        durability,
        checkpoint_every: 0,
        ..StoreOptions::default()
    }
}

/// Build (not run) shard `k` of server `sid` from its directory under
/// `root`, recovering whatever the directory and `nvram` hold.
pub fn open_server(
    cfg: &ClusterCfg,
    root: &Path,
    sid: ServerId,
    k: u64,
    nvram: NvramDevice,
    obs: &Obs,
) -> LogServer {
    let mut dir = root.join(format!("server-{}", sid.0));
    if cfg.shards > 1 {
        dir = dir.join(format!("shard-{k}"));
    }
    let opts = store_options(cfg.durability, cfg.fsync);
    let store = LogStore::open(&dir, opts, nvram).expect("open store");
    let gens = GenStore::open(dir.join("gens")).expect("open generator state");
    let mut config = ServerConfig::new(sid).for_shard(k, cfg.shards);
    config.coalesce_window = cfg.coalesce;
    let mut server = LogServer::new(config, store, gens).expect("log server");
    server.set_obs(obs.clone());
    server
}

impl<T: Transport> Cluster<T> {
    /// Boot every server on an empty `root`.
    pub fn boot(cfg: ClusterCfg, root: &Path, tracer: &Arc<Tracer>) -> Cluster<T> {
        let _ = std::fs::remove_dir_all(root);
        let mut cluster = Cluster {
            cfg,
            transport: T::new(cfg.plan),
            tracer: tracer.clone(),
            root: root.to_path_buf(),
            backends: HashMap::new(),
            nvrams: HashMap::new(),
            obs: HashMap::new(),
            client_obs: Obs::new(&cfg.obs_options()),
        };
        for sid in cfg.server_ids() {
            cluster.boot_server(sid);
        }
        cluster
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// (Re)start a server from its directory and its NVRAM devices.
    fn boot_server(&mut self, sid: ServerId) {
        let cfg = self.cfg;
        let mut servers = Vec::new();
        for k in 0..cfg.shards {
            let nvram = self
                .nvrams
                .entry((sid, k))
                .or_insert_with(|| NvramDevice::new(NVRAM_BYTES))
                .clone();
            let obs = self
                .obs
                .entry((sid, k))
                .or_insert_with(|| Obs::new(&cfg.obs_options()))
                .clone();
            servers.push(open_server(&cfg, &self.root, sid, k, nvram, &obs));
        }
        let obs = self.obs.get(&(sid, 0)).cloned().unwrap_or_default();
        let ep = self.transport.server_endpoint(server_addr(sid), &obs);
        let ep = SpanEndpoint::new(ep, &self.tracer);
        let backend = if servers.len() == 1 {
            Backend::Single(ServerRunner::spawn(servers.remove(0), ep))
        } else {
            Backend::Sharded(T::spawn_shards(servers, ep))
        };
        self.backends.insert(sid, backend);
    }

    /// Stop every server gracefully (pending group commits finish, the
    /// stores sync) and return every shard's server, in shard order.
    pub fn stop_all(&mut self) -> Vec<(ServerId, LogServer)> {
        let mut out = Vec::new();
        for sid in self.cfg.server_ids() {
            if let Some(b) = self.backends.remove(&sid) {
                out.extend(b.stop().into_iter().map(|server| (sid, server)));
            }
        }
        out
    }

    /// Bring every (stopped) server back up from its directory and its
    /// NVRAM devices, on a network with fault plan `plan`. Clients made
    /// before the reboot are cut off; make new ones.
    pub fn reboot_all(&mut self, plan: FaultPlan) {
        self.transport = self.transport.reborn(plan);
        for sid in self.cfg.server_ids() {
            self.boot_server(sid);
        }
    }

    /// Replace every NVRAM device by an empty one: the next boot sees
    /// only what reached the files.
    pub fn lose_nvram(&mut self) {
        self.nvrams.clear();
    }

    /// A fresh (uninitialized) incarnation of client `id`.
    pub fn client(&mut self, id: ClientId) -> Client<T> {
        let servers: Vec<NodeAddr> = self.cfg.server_ids().into_iter().map(server_addr).collect();
        let ep = self
            .transport
            .client_endpoint(client_addr(id), &servers, &self.client_obs);
        let mut log = client_over(&self.cfg, id, SpanEndpoint::new(ep, &self.tracer));
        log.set_obs(self.client_obs.clone());
        log
    }
}

/// A replicated-log client of a `cfg` cluster over `endpoint`.
pub fn client_over<E: Endpoint>(cfg: &ClusterCfg, id: ClientId, endpoint: E) -> ReplicatedLog<E> {
    let ids = cfg.server_ids();
    let addrs: HashMap<ServerId, NodeAddr> = ids.iter().map(|&s| (s, server_addr(s))).collect();
    let config = ReplicationConfig::new(ids, cfg.replicas, cfg.delta).expect("replication");
    ReplicatedLog::new(
        id,
        ClientOptions::new(config),
        ClientNet::new(endpoint, addrs),
    )
}

/// The first `n` client ids whose logs land on pairwise different
/// shards (as far as `shards` allows), so a sharded workload loads
/// every shard loop.
pub fn spread_client_ids(n: usize, shards: u64) -> Vec<ClientId> {
    let shards = shards.max(1) as usize;
    let mut ids: Vec<ClientId> = Vec::new();
    let mut candidate = 1u64;
    while ids.len() < n {
        let c = ClientId(candidate);
        let lane = LogId::for_client(c).shard(shards);
        let taken = ids
            .iter()
            .filter(|i| LogId::for_client(**i).shard(shards) == lane)
            .count();
        if taken <= ids.len() / shards {
            ids.push(c);
        }
        candidate += 1;
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_ids_cover_every_shard() {
        let ids = spread_client_ids(2, 2);
        let lanes: Vec<usize> = ids.iter().map(|c| LogId::for_client(*c).shard(2)).collect();
        assert_ne!(lanes[0], lanes[1]);
        assert_eq!(spread_client_ids(2, 1), vec![ClientId(1), ClientId(2)]);
        let four = spread_client_ids(4, 2);
        let on_zero = four
            .iter()
            .filter(|c| LogId::for_client(**c).shard(2) == 0)
            .count();
        assert_eq!(on_zero, 2);
    }
}
