//! Reusable seeded soak scenario: a randomized schedule of server
//! kills, reboots, partitions, heals, client crashes, and writes runs
//! against a real cluster; afterwards the log must contain exactly the
//! records whose forces succeeded, and every server's trace must
//! satisfy the force-before-ack ordering invariant.
//!
//! `tests/soak.rs` runs it over a small sweep of seeds and
//! `tests/seed_corpus.rs` pins a corpus of previously interesting seeds
//! so they never rot out of coverage.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{client_addr, server_addr};
use crate::{payload, Cluster, ClusterOptions};
use dlog_types::{DlogError, Lsn, ServerId};

/// One seeded scenario with observability enabled. Returns the size of
/// the forced (durable) record set that was verified.
///
/// # Panics
/// On any lost or altered durable record, on trace-ring overflow, and
/// on a force-before-ack trace violation.
#[must_use]
pub fn run_soak_scenario(seed: u64) -> u64 {
    let m = 4u64;
    let mut opts = ClusterOptions::new(m);
    opts.obs = dlog_obs::ObsOptions::on();
    let mut cluster = Cluster::start(&format!("soak-{seed}"), opts);
    let mut rng = StdRng::seed_from_u64(seed);
    let client_id = 1u64;

    let mut log = cluster.client(client_id, 2, 4);
    log.initialize().unwrap();

    // Ground truth: (lsn, payload tag) for every record whose force
    // completed.
    let mut durable: Vec<(u64, u64)> = Vec::new();
    let mut pending: Vec<(u64, u64)> = Vec::new();
    let mut down: Vec<ServerId> = Vec::new();
    let mut partitioned: Vec<ServerId> = Vec::new();
    let mut tag = 0u64;

    for _step in 0..60 {
        match rng.gen_range(0..10) {
            // Write a record (buffered).
            0..=3 => {
                tag += 1;
                if let Ok(lsn) = log.write(payload(tag, 60)) {
                    pending.push((lsn.0, tag));
                }
            }
            // Force: on success everything pending becomes durable.
            4..=5 => {
                if log.force().is_ok() {
                    durable.append(&mut pending);
                } else {
                    // A failed force leaves records in limbo; we make no
                    // claim about them (the client would retry). Drop our
                    // expectation.
                    pending.clear();
                }
            }
            // Kill a server (at most M−2 down so a quorum always exists).
            6 => {
                if down.len() < (m - 2) as usize {
                    let victim = ServerId(rng.gen_range(1..=m));
                    if !down.contains(&victim) {
                        cluster.kill_server(victim);
                        down.push(victim);
                    }
                }
            }
            // Reboot a downed server.
            7 => {
                if let Some(&s) = down.first() {
                    cluster.boot_server(s);
                    down.retain(|&x| x != s);
                }
            }
            // Partition the client from one server / heal it.
            8 => {
                let s = ServerId(rng.gen_range(1..=m));
                if partitioned.contains(&s) {
                    cluster
                        .net
                        .heal(client_addr(log.client_id()), server_addr(s));
                    partitioned.retain(|&x| x != s);
                } else if partitioned.is_empty() {
                    cluster
                        .net
                        .partition(client_addr(log.client_id()), server_addr(s));
                    partitioned.push(s);
                }
            }
            // Client crash + restart.
            _ => {
                pending.clear(); // unforced records may legitimately vanish
                drop(log);
                // Heal everything so initialization has its quorum.
                for &s in &partitioned {
                    cluster
                        .net
                        .heal(client_addr(dlog_types::ClientId(client_id)), server_addr(s));
                }
                partitioned.clear();
                for &s in &down.clone() {
                    cluster.boot_server(s);
                }
                down.clear();
                log = cluster.client(client_id, 2, 4);
                log.initialize().unwrap();
            }
        }
    }

    // Final settle: heal, reboot, force, audit.
    for &s in &partitioned {
        cluster
            .net
            .heal(client_addr(log.client_id()), server_addr(s));
    }
    for &s in &down.clone() {
        cluster.boot_server(s);
    }
    if log.force().is_ok() {
        durable.append(&mut pending);
    }

    for &(lsn, tag) in &durable {
        match log.read(Lsn(lsn)) {
            Ok(d) => assert_eq!(
                d.as_bytes(),
                payload(tag, 60).as_slice(),
                "seed {seed}: lsn {lsn} content changed"
            ),
            Err(e) => panic!("seed {seed}: durable lsn {lsn} lost: {e}"),
        }
    }
    // Reads past the end fail cleanly.
    let end = log.end_of_log().unwrap();
    assert!(matches!(
        log.read(end.next()),
        Err(DlogError::NoSuchRecord { .. })
    ));

    check_trace_invariants(&cluster, seed);
    durable.len() as u64
}

/// Every server's trace must satisfy §4.2's force-before-ack at run
/// time (`dlog_obs::check_force_before_ack`): a forced `AckHighLsn`
/// event is preceded by a `Force` event for the same client and LSN.
/// The trace ring must not have overflowed, or the check would be
/// vacuous.
fn check_trace_invariants(cluster: &Cluster, seed: u64) {
    for &sid in &cluster.servers {
        let obs = cluster.server_obs(sid);
        let snap = obs
            .snapshot()
            .unwrap_or_else(|| panic!("seed {seed}: server {sid} has no obs snapshot"));
        assert_eq!(
            snap.trace_dropped, 0,
            "seed {seed}: server {sid} dropped trace events; grow the ring"
        );
        assert!(
            snap.trace_events > 0,
            "seed {seed}: server {sid} recorded no trace events"
        );
        if let Err(violation) = dlog_obs::check_force_before_ack(&snap.trace) {
            panic!("seed {seed}: server {sid}: {violation}");
        }
    }
}
