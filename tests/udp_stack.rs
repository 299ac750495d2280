//! The full stack over real UDP loopback sockets: initialization, writes,
//! forces, reads, and crash recovery across actual datagrams. Each server
//! runs `DLOG_TEST_SHARDS` shard loops behind its one socket.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dlog_bench::harness::test_shards;
use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_mc::harness::open_server;
use dlog_net::udp::UdpEndpoint;
use dlog_net::wire::{NodeAddr, Packet};
use dlog_net::{Endpoint, FaultPlan, Faults};
use dlog_server::shard::ShardSupervisor;
use dlog_server::ServerConfig;
use dlog_storage::NvramDevice;
use dlog_types::{ClientId, Lsn, ReplicationConfig, ServerId};

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

struct UdpCluster {
    root: PathBuf,
    servers: Vec<ShardSupervisor>,
    server_ids: Vec<ServerId>,
}

impl Drop for UdpCluster {
    fn drop(&mut self) {
        for s in self.servers.drain(..) {
            drop(s);
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// UDP endpoints only accept datagrams from known peers, and ports are
/// ephemeral — so client sockets are bound *first* and registered with
/// every server socket before the servers start.
fn start_with_clients(
    tag: &str,
    m: u64,
    client_addr_ids: &[u64],
) -> (UdpCluster, Vec<UdpEndpoint>) {
    let client_eps: Vec<UdpEndpoint> = client_addr_ids
        .iter()
        .map(|&id| UdpEndpoint::bind(NodeAddr(1000 + id), loopback()).unwrap())
        .collect();
    let root = std::env::temp_dir().join(format!("dlog-udp-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server_ids: Vec<ServerId> = (1..=m).map(ServerId).collect();
    let mut server_eps = Vec::new();
    for &sid in &server_ids {
        server_eps.push(UdpEndpoint::bind(NodeAddr(sid.0), loopback()).unwrap());
    }
    let socket_addrs: Vec<SocketAddr> = server_eps
        .iter()
        .map(|e| e.socket_addr().unwrap())
        .collect();
    for sep in &server_eps {
        for (j, cep) in client_eps.iter().enumerate() {
            sep.add_peer(
                NodeAddr(1000 + client_addr_ids[j]),
                cep.socket_addr().unwrap(),
            );
        }
    }
    for cep in &client_eps {
        for (i, &sid) in server_ids.iter().enumerate() {
            cep.add_peer(NodeAddr(sid.0), socket_addrs[i]);
        }
    }
    let mut cluster = UdpCluster {
        root,
        servers: Vec::new(),
        server_ids: server_ids.clone(),
    };
    let shards = test_shards();
    for (i, ep) in server_eps.into_iter().enumerate() {
        let sid = server_ids[i];
        let shard_servers = (0..shards)
            .map(|k| {
                let dir = cluster.root.join(format!("server-{}/shard-{k}", sid.0));
                let config = ServerConfig::new(sid).for_shard(k, shards);
                open_server(&dir, config, NvramDevice::new(1 << 20)).unwrap()
            })
            .collect();
        cluster
            .servers
            .push(ShardSupervisor::spawn(shard_servers, ep));
    }
    (cluster, client_eps)
}

fn make_client<E: Endpoint>(
    cluster: &UdpCluster,
    ep: E,
    client_id: u64,
    n: usize,
    delta: u64,
) -> ReplicatedLog<E> {
    let addrs: HashMap<ServerId, NodeAddr> = cluster
        .server_ids
        .iter()
        .map(|&s| (s, NodeAddr(s.0)))
        .collect();
    let net = ClientNet::new(ep, addrs);
    let config = ReplicationConfig::new(cluster.server_ids.clone(), n, delta).unwrap();
    ReplicatedLog::new(ClientId(client_id), ClientOptions::new(config), net)
}

#[test]
fn udp_write_force_read() {
    let (cluster, mut eps) = start_with_clients("wfr", 3, &[1]);
    let ep = eps.pop().unwrap();
    let mut log = make_client(&cluster, ep, 1, 2, 8);
    log.initialize().unwrap();
    for i in 1..=30u64 {
        log.write(vec![i as u8; 120]).unwrap();
    }
    assert_eq!(log.force().unwrap(), Lsn(30));
    for i in 1..=30u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 120].as_slice()
        );
    }
}

#[test]
fn udp_restart_recovers() {
    // Two sockets (distinct node addresses) for the same logical client:
    // its pre- and post-crash incarnations. The log identity is the
    // ClientId, not the transport address.
    let (cluster, mut eps) = start_with_clients("restart", 3, &[2, 3]);
    let ep1 = eps.remove(0);
    {
        let mut log = make_client(&cluster, ep1, 2, 2, 4);
        log.initialize().unwrap();
        for i in 1..=12u64 {
            log.write(vec![i as u8; 80]).unwrap();
        }
        log.force().unwrap();
        // crash
    }
    let ep2 = eps.remove(0);
    let mut log = make_client(&cluster, ep2, 2, 2, 4);
    log.initialize().unwrap();
    assert!(log.end_of_log().unwrap() >= Lsn(12));
    for i in 1..=12u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 80].as_slice()
        );
    }
}

#[test]
fn udp_commits_without_resending() {
    // An ET1 commit is 7 records of 100 B and a force. Over loopback the
    // ack comes back long before the client's first retry timer, so a
    // commit costs no RPC retry and, on an idle machine, no resend. A
    // loaded machine can hold a server thread past a 2 ms retry timer, so
    // the bound is fewer resends than commits: a receive that sleeps a
    // scheduler tick per poll makes about ten resends per commit.
    const COMMITS: u64 = 1_000;
    let (cluster, mut eps) = start_with_clients("noresend", 3, &[4]);
    let ep = eps.pop().unwrap();
    let mut log = make_client(&cluster, ep, 4, 2, 8);
    log.initialize().unwrap();
    for _ in 0..COMMITS {
        for _ in 0..7 {
            log.write(vec![0x5A; 100]).unwrap();
        }
        log.force().unwrap();
    }
    let resends = log.stats().resends;
    let rpc_retries = log.net_stats().rpc_retries;
    eprintln!("{COMMITS} commits: {resends} resends, {rpc_retries} RPC retries");
    assert!(resends < COMMITS, "{resends} resends in {COMMITS} commits");
    assert_eq!(rpc_retries, 0);
}

/// What a [`Lossy`] endpoint's fates did to the datagrams sent through it.
#[derive(Debug, Default)]
struct FateCounts {
    sends: u64,
    dropped: u64,
    duplicated: u64,
    released: u64,
}

/// A UDP endpoint whose sends meet the fault interpreter's fates, as a
/// `MemNetwork` under the same plan would deal them. Receives pass
/// through untouched.
struct Lossy {
    ep: UdpEndpoint,
    faults: Arc<Mutex<(Faults<Packet>, FateCounts)>>,
}

impl Endpoint for Lossy {
    fn local_addr(&self) -> NodeAddr {
        self.ep.local_addr()
    }

    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
        let mut guard = self.faults.lock().unwrap();
        let (faults, counts) = &mut *guard;
        counts.sends += 1;
        let Some([now, released, copy]) = faults.fate(self.local_addr(), to, packet.clone()) else {
            counts.dropped += 1;
            return Ok(());
        };
        counts.released += u64::from(released.is_some());
        counts.duplicated += u64::from(copy.is_some());
        drop(guard);
        for (_, p) in [now, released, copy].into_iter().flatten() {
            self.ep.send(to, &p)?;
        }
        Ok(())
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        self.ep.recv(timeout)
    }
}

#[test]
fn udp_commits_recover_from_seeded_loss_duplication_and_reordering() {
    // §4.2 on a real socket: ET1-shaped commits through a client whose
    // sends meet `FaultPlan::flaky`'s fates. A lost write shows as a gap
    // the server NAKs or as a missing ack the client's retry timer
    // resends; a duplicate is dropped by LSN; a held frame arrives
    // behind its successor. A send's fate is fixed by its index in the
    // seeded stream: under seed 38 the first duplicate, drop and hold are
    // sends 17, 20 and 31 (counting from 0), and every run makes at least
    // two sends a commit, so each kind of fault happens in every run.
    const COMMITS: u64 = 300;
    const RECORDS: u64 = 7 * COMMITS;
    let (mut cluster, mut eps) = start_with_clients("lossy", 3, &[5]);
    let plan = FaultPlan::flaky(38);
    let faults = Arc::new(Mutex::new((Faults::new(plan), FateCounts::default())));
    let lossy = Lossy {
        ep: eps.pop().unwrap(),
        faults: Arc::clone(&faults),
    };
    let mut log = make_client(&cluster, lossy, 5, 2, 8);
    let t = Instant::now();
    log.initialize().unwrap();
    let mut commit_us = Vec::new();
    for c in 0..COMMITS {
        let commit = Instant::now();
        for r in 1..=7 {
            log.write(dlog_bench::payload(7 * c + r, 100)).unwrap();
        }
        log.force().unwrap();
        commit_us.push(commit.elapsed().as_micros());
    }
    let commit_time = t.elapsed();
    commit_us.sort_unstable();
    let slow: Vec<_> = commit_us.iter().filter(|&&us| us >= 1_000).collect();
    for lsn in 1..=RECORDS {
        assert_eq!(
            log.read(Lsn(lsn)).unwrap().as_bytes(),
            dlog_bench::payload(lsn, 100).as_slice(),
            "record {lsn}"
        );
    }
    let resends = log.stats().resends;
    let rpc_retries = log.net_stats().rpc_retries;
    drop(log);
    let counts = std::mem::take(&mut faults.lock().unwrap().1);
    let naks: u64 = cluster
        .servers
        .drain(..)
        .flat_map(ShardSupervisor::stop)
        .map(|s| s.stats().naks_sent)
        .sum();
    eprintln!(
        "{COMMITS} lossy commits in {commit_time:?} ({:?} with read-back): {counts:?}, \
         {resends} resends, {naks} server NAKs, {rpc_retries} RPC retries; \
         commit p50 {} us, {} commits over 1 ms: {slow:?} us",
        t.elapsed(),
        commit_us[commit_us.len() / 2],
        slow.len()
    );
    assert!(counts.sends >= 2 * COMMITS, "{counts:?}");
    assert!(counts.dropped >= 1 && counts.duplicated >= 1 && counts.released >= 1);
}
