//! Deterministic protocol tests: the client runs against *synchronous*
//! sans-I/O log servers (no threads, no timing) on the
//! `dlog_mc::harness` sync world, with scripted loss and server crashes —
//! pinpointing the NAK/resend/switch logic that the threaded integration
//! tests exercise under real concurrency.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_mc::harness::{build_world, SyncEndpoint, SyncWorld, SyncWorldOptions};
use dlog_net::wire::NodeAddr;
use dlog_net::FaultPlan;
use dlog_obs::Obs;
use dlog_types::{ClientId, DlogError, Lsn, ReplicationConfig, ServerId};

/// Three servers on a reliable sync world under a fresh directory.
fn start(tag: &str) -> Arc<Mutex<SyncWorld>> {
    let dir = std::env::temp_dir()
        .join("dlog-sync-cluster")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SyncWorldOptions::shared(3, FaultPlan::reliable(), Obs::default());
    build_world(&dir, opts).expect("build world")
}

/// Client 3, whose striped targets are servers 1 and 2 (3 ≡ 0 mod M),
/// with every wait cut to a millisecond: nothing ever arrives late in a
/// synchronous world.
fn client(world: &Arc<Mutex<SyncWorld>>, n: usize, delta: u64) -> ReplicatedLog<SyncEndpoint> {
    let ids: Vec<ServerId> = (1..=3).map(ServerId).collect();
    let addrs: HashMap<ServerId, NodeAddr> = ids.iter().map(|&s| (s, NodeAddr(s.0))).collect();
    let mut net = ClientNet::new(SyncEndpoint::new(NodeAddr(1000), Arc::clone(world)), addrs);
    net.rpc_timeout = Duration::from_millis(1);
    net.rpc_retries = 1;
    let mut opts = ClientOptions::new(ReplicationConfig::new(ids, n, delta).unwrap());
    opts.ack_timeout = Duration::from_millis(1);
    ReplicatedLog::new(ClientId(3), opts, net)
}

fn crash(world: &Arc<Mutex<SyncWorld>>, s: ServerId) {
    assert!(world.lock().unwrap().servers.crash(s.0).is_some());
}

fn recover(world: &Arc<Mutex<SyncWorld>>, s: ServerId) {
    world.lock().unwrap().servers.recover(s.0, false).unwrap();
}

fn server_stats(world: &Arc<Mutex<SyncWorld>>, s: ServerId) -> dlog_server::ServerStats {
    let w = world.lock().unwrap();
    let (_, server) = w.servers.shards(s.0).next().expect("server up");
    server.stats()
}

#[test]
fn deterministic_roundtrip() {
    let world = start("roundtrip");
    let mut log = client(&world, 2, 4);
    log.initialize().unwrap();
    for i in 1..=10u64 {
        log.write(vec![i as u8; 30]).unwrap();
    }
    assert_eq!(log.force().unwrap(), Lsn(10));
    for i in 1..=10u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 30].as_slice()
        );
    }
}

#[test]
fn lost_batch_is_naked_and_resent() {
    let world = start("nak");
    let mut log = client(&world, 2, 4);
    log.initialize().unwrap();
    log.write(vec![1u8; 20]).unwrap();
    log.force().unwrap();

    // Lose the next batch to BOTH targets, then the following force
    // triggers the gap NAK path on the servers.
    log.write(vec![2u8; 20]).unwrap();
    world.lock().unwrap().plan.loss = 1.0;
    log.flush().unwrap(); // silently lost
    world.lock().unwrap().plan.loss = 0.0;
    log.write(vec![3u8; 20]).unwrap();
    log.force().unwrap(); // servers see a gap, NAK, client resends

    let naks =
        server_stats(&world, ServerId(1)).naks_sent + server_stats(&world, ServerId(2)).naks_sent;
    assert!(naks >= 1, "servers must NAK the gap");
    assert!(log.stats().resends >= 1, "client must resend");
    for i in 1..=3u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 20].as_slice()
        );
    }
}

#[test]
fn silent_server_causes_switch_with_new_interval() {
    let world = start("switch");
    let mut log = client(&world, 2, 4);
    log.initialize().unwrap();
    log.write(vec![1u8; 20]).unwrap();
    log.force().unwrap();
    let victim = log.targets()[1];

    crash(&world, victim);
    log.write(vec![2u8; 20]).unwrap();
    log.force().unwrap();
    assert!(log.stats().switches >= 1);
    assert!(!log.targets().contains(&victim));
    // The replacement (server 3) holds a fresh interval (NewInterval path).
    let s3 = ServerId(3);
    assert!(log.targets().contains(&s3));
    assert!(server_stats(&world, s3).records_stored >= 1);

    recover(&world, victim);
    for i in 1..=2u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 20].as_slice()
        );
    }
}

#[test]
fn duplicate_force_is_idempotent() {
    let world = start("dupforce");
    let mut log = client(&world, 2, 4);
    log.initialize().unwrap();
    log.write(vec![1u8; 20]).unwrap();
    log.force().unwrap();
    log.force().unwrap(); // nothing new: no-op
    log.force().unwrap();
    let stored = server_stats(&world, ServerId(1)).records_stored
        + server_stats(&world, ServerId(2)).records_stored;
    assert_eq!(stored, 2, "one record on two servers, no duplicates");
}

#[test]
fn below_write_quorum_errors_cleanly() {
    let world = start("noquorum");
    let mut log = client(&world, 2, 4);
    log.initialize().unwrap();
    log.write(vec![1u8; 20]).unwrap();
    log.force().unwrap();

    // Crash two servers: only one remains — below N = 2.
    crash(&world, ServerId(2));
    crash(&world, ServerId(3));
    log.write(vec![2u8; 20]).unwrap();
    match log.force() {
        Err(DlogError::QuorumUnavailable { .. }) => {}
        other => panic!("expected quorum failure, got {other:?}"),
    }

    // Recovery lets a later force complete (the record is still queued).
    recover(&world, ServerId(2));
    recover(&world, ServerId(3));
    log.force().unwrap();
    assert_eq!(
        log.read(Lsn(2)).unwrap().as_bytes(),
        vec![2u8; 20].as_slice()
    );
}

/// The sync world carries only what fits a packet, as both real
/// transports do. Each incarnation adds an interval on both holders, so
/// after about 340 the interval list outgrows one reply; it travels in
/// pages, and the 1 000th incarnation still initializes.
#[test]
fn a_thousand_incarnations_still_initialize() {
    let world = start("incarnations");
    let mut log = client(&world, 2, 2);
    log.initialize().unwrap();
    for i in 1..=10u64 {
        log.write(vec![i as u8; 40]).unwrap();
    }
    log.force().unwrap();
    for incarnation in 1..=1_000 {
        log = client(&world, 2, 2);
        if let Err(e) = log.initialize() {
            panic!("incarnation {incarnation} failed to initialize: {e}");
        }
    }
    for i in 1..=8u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 40].as_slice()
        );
    }
}
