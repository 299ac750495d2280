//! The full stack over real UDP loopback sockets: initialization, writes,
//! forces, reads, and crash recovery across actual datagrams.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;

use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_mc::harness::open_server;
use dlog_net::udp::UdpEndpoint;
use dlog_net::wire::NodeAddr;
use dlog_server::runner::ServerRunner;
use dlog_server::ServerConfig;
use dlog_storage::NvramDevice;
use dlog_types::{ClientId, Lsn, ReplicationConfig, ServerId};

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

struct UdpCluster {
    root: PathBuf,
    runners: Vec<ServerRunner>,
    server_ids: Vec<ServerId>,
}

impl Drop for UdpCluster {
    fn drop(&mut self) {
        for r in self.runners.drain(..) {
            drop(r);
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
        runners: Vec::new(),
        server_ids: server_ids.clone(),
    };
    for (i, ep) in server_eps.into_iter().enumerate() {
        let sid = server_ids[i];
        let dir = cluster.root.join(format!("server-{}", sid.0));
        let server = open_server(&dir, ServerConfig::new(sid), NvramDevice::new(1 << 20)).unwrap();
        cluster.runners.push(ServerRunner::spawn(server, ep));
    }
    (cluster, client_eps)
}

fn make_client(
    cluster: &UdpCluster,
    ep: UdpEndpoint,
    client_id: u64,
    n: usize,
    delta: u64,
) -> ReplicatedLog<UdpEndpoint> {
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
