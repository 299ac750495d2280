//! Deterministic replay: the same `FaultPlan` seed must produce an
//! identical ordered trace-event sequence across two runs.
//!
//! Threads are the only source of nondeterminism in the full harness,
//! so this test drives real `LogServer`s *synchronously* on the
//! `dlog_mc::harness` sync world: a `SyncEndpoint` delivers each packet
//! by calling the sans-I/O `LogServer::handle` inline (under one lock,
//! on the test thread) and queues replies for the client, applying
//! `FaultPlan`-style loss, duplication, and reordering from a seeded
//! RNG consumed only per send. Client, servers, and the network share
//! ONE `dlog_obs::Obs` handle, so the interleaved `ClientWrite` /
//! `PacketSend` / `ServerIngest` / `Force` / `AckHighLsn` stream is
//! totally ordered by the shared sequence counter — and must replay
//! exactly.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_mc::harness::{build_world, SyncEndpoint, SyncWorldOptions};
use dlog_net::wire::NodeAddr;
use dlog_net::FaultPlan;
use dlog_obs::{Obs, ObsOptions, TraceEvent};
use dlog_types::{ClientId, ReplicationConfig, ServerId};

const M: u64 = 3;
const CLIENT_ADDR: NodeAddr = NodeAddr(1000);
/// Allocations the reliable run makes on the test thread. The count
/// replays exactly, so this is a gate without spread: one extra
/// allocation per write adds 120 and fails it.
const RELIABLE_ALLOC_CEILING: u64 = 633;
/// In a crash run, the client's first target crashes after this many
/// writes and recovers after `RECOVER_AT`.
const CRASH_AT: u64 = 40;
const RECOVER_AT: u64 = 80;

fn fresh_dir(label: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("dlog-trace-determinism")
        .join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Everything a replay must reproduce exactly: the ordered trace,
/// the client's counters, the test thread's allocation count over the
/// workload, and each server's ingest-gauge (allocs, records) pair.
struct RunFingerprint {
    trace: Vec<TraceEvent>,
    stats: dlog_core::client::ClientStats,
    thread_allocs: u64,
    server_gauges: Vec<(u64, u64, u64)>,
}

/// Run the fixed workload under `plan` and return the ordered trace
/// (wall-clock-free by construction) plus the client's counters and the
/// run's allocation fingerprint. With `crash`, one server crashes and
/// recovers mid-workload.
fn run_once(plan: FaultPlan, dir: &Path, crash: bool) -> RunFingerprint {
    let allocs_before = dlog_obs::gauge::thread_allocs();
    let obs = Obs::new(&ObsOptions::on());
    let world =
        build_world(dir, SyncWorldOptions::shared(M, plan, obs.clone())).expect("build world");
    let world_handle = std::sync::Arc::clone(&world);
    let ep = SyncEndpoint::new(CLIENT_ADDR, world);
    let addrs: HashMap<ServerId, NodeAddr> = (1..=M).map(|i| (ServerId(i), NodeAddr(i))).collect();
    let net = ClientNet::new(ep, addrs);
    let servers: Vec<ServerId> = (1..=M).map(ServerId).collect();
    let config = ReplicationConfig::new(servers, 2, 4).unwrap();
    let mut log = ReplicatedLog::new(ClientId(1), ClientOptions::new(config), net);
    log.set_obs(obs.clone());
    log.initialize().unwrap();

    let mut victim = None;
    for i in 1u64..=120 {
        log.write(dlog_bench::payload(i, 48)).unwrap();
        if i % 7 == 0 {
            log.force().unwrap();
        }
        if crash && i == CRASH_AT {
            let sid = log.targets()[0].0;
            let mut w = world_handle.lock().expect("world lock");
            assert!(w.servers.crash(sid).is_some(), "server {sid} was down");
            victim = Some(sid);
        }
        if let Some(sid) = victim.filter(|_| i == RECOVER_AT) {
            let mut w = world_handle.lock().expect("world lock");
            w.servers.recover(sid, false).expect("recover");
        }
    }
    log.force().unwrap();

    let snap = obs.snapshot().expect("obs enabled");
    assert_eq!(snap.trace_dropped, 0, "trace ring overflowed; grow it");
    assert!(
        snap.trace.len() > 300,
        "suspiciously few events: {}",
        snap.trace.len()
    );
    dlog_obs::check_force_before_ack(&snap.trace).expect("force-before-ack invariant");
    let trace = snap.trace;

    // The sync world runs every server on this thread, so both the
    // thread-local allocation count and the servers' ingest gauges are
    // part of what a deterministic replay must reproduce.
    let w = world_handle.lock().expect("world lock");
    let server_gauges: Vec<(u64, u64, u64)> = (1..=M)
        .flat_map(|sid| {
            w.servers.shards(sid).map(move |(_, server)| {
                let (allocs, records) = server.ingest_alloc_gauge();
                (sid, allocs, records)
            })
        })
        .collect();
    drop(w);

    RunFingerprint {
        trace,
        stats: log.stats(),
        thread_allocs: dlog_obs::gauge::thread_allocs() - allocs_before,
        server_gauges,
    }
}

/// Compare two same-seed runs: identical traces and identical
/// per-server ingest alloc gauges always; identical whole-thread
/// allocation counts only when `strict_thread_allocs` — the client's
/// poll loop spins on wall-clock deadlines, so under a lossy plan the
/// number of *empty* polls (and their allocations) varies run to run
/// even though every delivered packet, and hence every server-side
/// ingest allocation, replays exactly.
fn assert_replays_identical(
    label: &str,
    a: &RunFingerprint,
    b: &RunFingerprint,
    strict_thread_allocs: bool,
) {
    assert_eq!(
        a.trace.len(),
        b.trace.len(),
        "{label}: event counts differ across replays"
    );
    assert!(a.trace == b.trace, "{label}: traces differ across replays");
    if strict_thread_allocs {
        assert_eq!(
            a.thread_allocs, b.thread_allocs,
            "{label}: allocation counts differ across replays — the hot \
             path allocates nondeterministically"
        );
    }
    assert_eq!(
        a.server_gauges, b.server_gauges,
        "{label}: per-server ingest alloc gauges differ across replays"
    );
    let ingested: u64 = a.server_gauges.iter().map(|(_, _, records)| records).sum();
    assert!(
        ingested > 0,
        "{label}: servers report zero ingested records; gauge comparison is vacuous"
    );
}

/// One throwaway run so lazily initialized globals (CRC tables, empty-buf
/// singletons, thread-local scratch) pay their one-time allocations
/// before any measured pair of runs. `label` keeps parallel test threads
/// out of each other's directories.
fn warm_up(label: &str) {
    let _ = run_once(
        FaultPlan::reliable(),
        &fresh_dir(&format!("{label}-warmup")),
        false,
    );
}

#[test]
fn same_seed_replays_byte_identical_reliable() {
    warm_up("reliable");
    let a = run_once(FaultPlan::reliable(), &fresh_dir("reliable-a"), false);
    let b = run_once(FaultPlan::reliable(), &fresh_dir("reliable-b"), false);
    assert_replays_identical("reliable", &a, &b, true);
    assert!(
        a.thread_allocs <= RELIABLE_ALLOC_CEILING,
        "reliable: {} allocations exceed the ceiling of {RELIABLE_ALLOC_CEILING} \
         (client + 3 servers on one thread, 120 writes, 18 forces; measured \
         at commit 568a973, PR 29's code, the same in debug and release and \
         at DLOG_TEST_SHARDS=1 and 4) — the write path allocates more",
        a.thread_allocs
    );
}

#[test]
fn same_seed_replays_byte_identical_flaky() {
    warm_up("flaky");
    let a = run_once(FaultPlan::flaky(0xD106), &fresh_dir("flaky-a"), false);
    let b = run_once(FaultPlan::flaky(0xD106), &fresh_dir("flaky-b"), false);
    assert_replays_identical("flaky", &a, &b, false);
}

/// Pins the retry-backoff bugfix: the client's jittered exponential
/// backoff draws from a xorshift generator seeded by the client id —
/// never from wall clock or OS entropy — so even a hostile schedule
/// (15% loss, 5% duplication, 10% reorder) that drives the timeout and
/// NAK retransmit paths hard must replay byte-identically.
#[test]
fn same_seed_replays_byte_identical_hostile() {
    warm_up("hostile");
    let a = run_once(
        FaultPlan::hostile(0xBACC0FF),
        &fresh_dir("hostile-a"),
        false,
    );
    let b = run_once(
        FaultPlan::hostile(0xBACC0FF),
        &fresh_dir("hostile-b"),
        false,
    );
    assert!(
        a.stats.resends > 0,
        "hostile plan never exercised the retry path; the test pins nothing"
    );
    assert_eq!(
        a.stats.resends, b.stats.resends,
        "resend counts differ across replays"
    );
    assert_replays_identical("hostile", &a, &b, false);
}

/// A server crash and recovery mid-workload, through the shared
/// world's crash/recover, replays exactly too: the client's timeouts,
/// its switch away from the dead target and the recovered store's
/// reopen all land in the same order.
#[test]
fn same_seed_replays_byte_identical_across_a_crash() {
    warm_up("crash");
    let a = run_once(FaultPlan::reliable(), &fresh_dir("crash-a"), true);
    let b = run_once(FaultPlan::reliable(), &fresh_dir("crash-b"), true);
    assert!(
        a.stats.switches > 0,
        "the crash never moved the client; the test pins nothing"
    );
    assert_replays_identical("crash", &a, &b, false);
}

#[test]
fn different_fault_schedules_diverge() {
    // Sanity check that the comparison has teeth: a lossy schedule
    // produces a different event sequence than the reliable one.
    let a = run_once(FaultPlan::reliable(), &fresh_dir("div-a"), false);
    let b = run_once(FaultPlan::flaky(7), &fresh_dir("div-b"), false);
    assert!(
        a.trace != b.trace,
        "flaky and reliable schedules produced equal traces"
    );
}
