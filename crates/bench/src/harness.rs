//! In-process cluster harness.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_net::wire::NodeAddr;
use dlog_net::{FaultPlan, MemEndpoint, MemNetwork};
use dlog_server::gen::GenStore;
use dlog_server::shard::ShardSupervisor;
use dlog_server::{LogServer, ServerConfig, ServerStats};
use dlog_storage::store::Durability;
use dlog_storage::{LogStore, NvramDevice, StoreOptions, StoreStats};
use dlog_types::{ClientId, ReplicationConfig, ServerId};

static CASE: AtomicU64 = AtomicU64::new(0);

/// Server addresses are their ids; clients live at 1000 + id.
#[must_use]
pub fn server_addr(s: ServerId) -> NodeAddr {
    NodeAddr(s.0)
}

/// Client node address.
#[must_use]
pub fn client_addr(c: ClientId) -> NodeAddr {
    NodeAddr(1000 + c.0)
}

/// Cluster construction knobs.
#[derive(Clone, Debug)]
pub struct ClusterOptions {
    /// Log servers to start.
    pub servers: u64,
    /// Network fault plan.
    pub plan: FaultPlan,
    /// `fsync` server segment files (on for durability benchmarks, off
    /// for protocol tests on tmp dirs).
    pub fsync: bool,
    /// Force durability policy (NVRAM vs fsync-per-force; E8).
    pub durability: Durability,
    /// NVRAM device capacity per server.
    pub nvram_bytes: usize,
    /// Track size (NVRAM flush threshold).
    pub track_bytes: usize,
    /// Segment size override (`None`: the store default).
    pub segment_bytes: Option<u64>,
    /// Attach an archive tier (a local-directory object store per
    /// server) to every server.
    pub archive: bool,
    /// Observability: when enabled, every server (and every client built
    /// by [`Cluster::client`]) gets a tracing/histogram handle.
    pub obs: dlog_obs::ObsOptions,
    /// Group-commit coalescing window for every server (`ZERO`: each
    /// force commits in a round of its own before the handler returns).
    pub coalesce_window: std::time::Duration,
    /// Shard event loops per server.
    /// Defaults to `DLOG_TEST_SHARDS` from the environment so the whole
    /// test suite can be re-run against a sharded topology unchanged.
    pub shards: u64,
    /// Where to place server directories (`None`: a temp dir).
    pub root: Option<PathBuf>,
}

impl ClusterOptions {
    /// Defaults: reliable network, no fsync, NVRAM durability,
    /// `DLOG_TEST_SHARDS` shards (1 when unset).
    #[must_use]
    pub fn new(servers: u64) -> Self {
        ClusterOptions {
            servers,
            plan: FaultPlan::reliable(),
            fsync: false,
            durability: Durability::Nvram,
            nvram_bytes: 1 << 20,
            track_bytes: 64 * 1024,
            segment_bytes: None,
            archive: false,
            obs: dlog_obs::ObsOptions::off(),
            coalesce_window: std::time::Duration::ZERO,
            shards: test_shards(),
            root: None,
        }
    }
}

/// The suite-wide shard count: `DLOG_TEST_SHARDS` (CI runs the whole
/// workspace at 1 and at 4), clamped to at least 1.
#[must_use]
pub fn test_shards() -> u64 {
    std::env::var("DLOG_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(1, |v| v.max(1))
}

/// A running in-process cluster.
pub struct Cluster {
    /// The network (partition / down control lives here).
    pub net: MemNetwork,
    /// The servers' ids.
    pub servers: Vec<ServerId>,
    opts: ClusterOptions,
    backends: HashMap<ServerId, ShardSupervisor>,
    nvrams: HashMap<(ServerId, u64), NvramDevice>,
    /// One observability handle per server *shard*; they survive kills
    /// and reboots so a scenario's trace spans the server's
    /// incarnations, and sharded stats never double-count.
    server_obs: HashMap<ServerId, Vec<dlog_obs::Obs>>,
    /// One handle shared by every client this cluster builds.
    client_obs: dlog_obs::Obs,
    root: PathBuf,
    cleanup: bool,
}

impl Cluster {
    /// Start a cluster.
    #[must_use]
    pub fn start(tag: &str, opts: ClusterOptions) -> Cluster {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let (root, cleanup) = match &opts.root {
            Some(r) => (r.clone(), false),
            None => (
                std::env::temp_dir()
                    .join("dlog-bench")
                    .join(format!("{tag}-{}-{case}", std::process::id())),
                true,
            ),
        };
        let _ = std::fs::remove_dir_all(&root);
        let net = MemNetwork::new(opts.plan);
        let client_obs = dlog_obs::Obs::new(&opts.obs);
        let mut cluster = Cluster {
            net,
            servers: (1..=opts.servers).map(ServerId).collect(),
            opts,
            backends: HashMap::new(),
            nvrams: HashMap::new(),
            server_obs: HashMap::new(),
            client_obs,
            root,
            cleanup,
        };
        let shards = cluster.opts.shards.max(1);
        for sid in cluster.servers.clone() {
            for k in 0..shards {
                cluster
                    .nvrams
                    .insert((sid, k), NvramDevice::new(cluster.opts.nvram_bytes));
            }
            cluster.server_obs.insert(
                sid,
                (0..shards)
                    .map(|_| dlog_obs::Obs::new(&cluster.opts.obs))
                    .collect(),
            );
            cluster.boot_server(sid);
        }
        cluster
    }

    fn server_dir(&self, sid: ServerId) -> PathBuf {
        self.root.join(format!("server-{}", sid.0))
    }

    /// Shard `k`'s storage root: the server directory itself for an
    /// unsharded server (the classic layout), a `shard-k/` subdirectory
    /// otherwise — each shard recovers its own root independently.
    fn shard_dir(&self, sid: ServerId, k: u64) -> PathBuf {
        if self.opts.shards.max(1) == 1 {
            self.server_dir(sid)
        } else {
            self.server_dir(sid).join(format!("shard-{k}"))
        }
    }

    /// Each server's archive tier lives beside its data directory.
    #[must_use]
    pub fn archive_dir(&self, sid: ServerId) -> PathBuf {
        self.root.join(format!("archive-{}", sid.0))
    }

    /// (Re)start a server from its on-disk + NVRAM state — every shard,
    /// each recovering from its own storage root.
    pub fn boot_server(&mut self, sid: ServerId) {
        let shards = self.opts.shards.max(1);
        // An obs handle registered before this boot means the server ran
        // earlier in this cluster's life — this boot is a recovery, and
        // the surviving handles get a `Stage::Recover` marker so the
        // trace reads crash → recover in one timeline.
        let rebooting = self.server_obs.contains_key(&sid);
        let obs_list: Vec<dlog_obs::Obs> = self
            .server_obs
            .entry(sid)
            .or_insert_with(|| {
                (0..shards)
                    .map(|_| dlog_obs::Obs::new(&self.opts.obs))
                    .collect()
            })
            .clone();
        let mut servers = Vec::with_capacity(shards as usize);
        for k in 0..shards {
            let dir = self.shard_dir(sid, k);
            let mut store_opts = StoreOptions {
                fsync: self.opts.fsync,
                durability: self.opts.durability,
                track_bytes: self.opts.track_bytes,
                checkpoint_every: 0,
                ..StoreOptions::default()
            };
            if let Some(sb) = self.opts.segment_bytes {
                store_opts.segment_bytes = sb;
            }
            let nvram = self
                .nvrams
                .entry((sid, k))
                .or_insert_with(|| NvramDevice::new(self.opts.nvram_bytes))
                .clone();
            let store = LogStore::open(&dir, store_opts, nvram).expect("open store");
            let gens = GenStore::open(dir.join("gens")).expect("open gens");
            let mut config = ServerConfig::new(sid).for_shard(k, shards);
            config.coalesce_window = self.opts.coalesce_window;
            let mut server = LogServer::new(config, store, gens).expect("server");
            if self.opts.archive {
                let archive_dir = if shards == 1 {
                    self.archive_dir(sid)
                } else {
                    self.archive_dir(sid).join(format!("shard-{k}"))
                };
                let objects =
                    dlog_archive::LocalDirStore::open(archive_dir).expect("open archive dir");
                server
                    .attach_archive(
                        std::sync::Arc::new(objects),
                        std::time::Duration::from_millis(10),
                    )
                    .expect("attach archive");
            }
            let obs = obs_list.get(k as usize).cloned().unwrap_or_default();
            server.set_obs(obs.clone());
            if rebooting {
                obs.event(
                    dlog_obs::Stage::Recover,
                    server.store_mut().stream_end(),
                    sid.0,
                );
            }
            servers.push(server);
        }
        let mut ep = self.net.endpoint(server_addr(sid));
        ep.set_obs(obs_list.first().cloned().unwrap_or_default());
        self.net.set_down(server_addr(sid), false);
        // One shard receives from the endpoint itself. For more, the
        // in-memory transport routes frames to shard queues (sender-side,
        // from the wire header).
        self.backends
            .insert(sid, ShardSupervisor::spawn(servers, ep));
    }

    /// The server's observability handle — shard 0's on a sharded
    /// server (disabled unless [`ClusterOptions::obs`] enabled it); use
    /// [`Cluster::server_shard_obs`] for every shard's handle.
    #[must_use]
    pub fn server_obs(&self, sid: ServerId) -> dlog_obs::Obs {
        self.server_obs
            .get(&sid)
            .and_then(|v| v.first().cloned())
            .unwrap_or_default()
    }

    /// Every shard's observability handle for `sid` (one entry on an
    /// unsharded server).
    #[must_use]
    pub fn server_shard_obs(&self, sid: ServerId) -> Vec<dlog_obs::Obs> {
        self.server_obs.get(&sid).cloned().unwrap_or_default()
    }

    /// The handle shared by every client this cluster builds.
    #[must_use]
    pub fn client_obs(&self) -> dlog_obs::Obs {
        self.client_obs.clone()
    }

    /// Replace a server's NVRAM devices (every shard's) with fresh
    /// (empty) ones — models battery loss or a board swap alongside
    /// media events.
    pub fn nvram_reset(&mut self, sid: ServerId) {
        for k in 0..self.opts.shards.max(1) {
            self.nvrams
                .insert((sid, k), NvramDevice::new(self.opts.nvram_bytes));
        }
    }

    /// Take a server down hard, stamping a `Stage::Crash` marker (with
    /// the durable stream end) into each shard's trace so crash
    /// schedules are legible in observability dumps.
    pub fn kill_server(&mut self, sid: ServerId) {
        self.net.set_down(server_addr(sid), true);
        let Some(backend) = self.backends.remove(&sid) else {
            return;
        };
        let ends = backend.crash();
        if let Some(obs_list) = self.server_obs.get(&sid) {
            for (obs, end) in obs_list.iter().zip(ends) {
                obs.event(dlog_obs::Stage::Crash, end, sid.0);
            }
        }
    }

    /// Stop a server gracefully and return its per-shard servers in
    /// shard order (a single element on an unsharded server; empty when
    /// the server is not running).
    pub fn stop_server(&mut self, sid: ServerId) -> Vec<LogServer> {
        self.net.set_down(server_addr(sid), true);
        self.backends
            .remove(&sid)
            .map_or_else(Vec::new, ShardSupervisor::stop)
    }

    /// Stop every server and collect `(protocol stats, storage stats)`
    /// — one entry per shard on a sharded cluster.
    pub fn stop_all(&mut self) -> Vec<(ServerId, ServerStats, StoreStats)> {
        let mut out = Vec::new();
        for sid in self.servers.clone() {
            for server in self.stop_server(sid) {
                out.push((sid, server.stats(), server.store_stats()));
            }
        }
        out
    }

    /// Build a replicated-log client over this cluster, with the shipped
    /// striped placement: a client whose id is a multiple of M writes to
    /// servers 1..=N.
    #[must_use]
    pub fn client(&self, id: u64, n: usize, delta: u64) -> ReplicatedLog<MemEndpoint> {
        let cid = ClientId(id);
        let mut ep = self.net.endpoint(client_addr(cid));
        ep.set_obs(self.client_obs.clone());
        let addrs: HashMap<ServerId, NodeAddr> =
            self.servers.iter().map(|&s| (s, server_addr(s))).collect();
        let net = ClientNet::new(ep, addrs);
        let config = ReplicationConfig::new(self.servers.clone(), n, delta).expect("config");
        let mut log = ReplicatedLog::new(cid, ClientOptions::new(config), net);
        log.set_obs(self.client_obs.clone());
        log
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Stop the servers before their directories go.
        self.backends.clear();
        if self.cleanup {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

/// A recognizable payload per LSN.
#[must_use]
pub fn payload(i: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    if let Some(first) = v.first_mut() {
        *first = (i % 127) as u8;
    }
    v
}
