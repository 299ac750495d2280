//! Property tests for group-commit force coalescing (§4.2 + the PR 5
//! write pipeline): under random coalescing windows, batch caps, δ
//! window sizes, fault plans, and flush interleavings,
//!
//! 1. every acknowledged `NewHighLSN` was durably forced first
//!    (`check_force_before_ack` over each server's own trace),
//! 2. a server never emits an out-of-order (decreasing) forced ack for
//!    a client — group commit must preserve the cumulative-ack rule,
//! 3. a full read-back returns every record byte-identical to what the
//!    client wrote, even when records were NAK- or timeout-retransmitted
//!    into a coalescing server.
//!
//! The cluster is the `dlog_mc::harness` synchronous single-threaded
//! world: `LogServer::handle` runs inline on the test thread, so
//! deferred force obligations only flush at the batch cap, at seeded
//! random flush points, or when the client's inbox drains — the
//! worst-case interleavings a threaded runner would only hit by luck.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use proptest::prelude::*;

use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_mc::harness::{build_world, SyncEndpoint, SyncWorldOptions};
use dlog_net::wire::NodeAddr;
use dlog_net::FaultPlan;
use dlog_obs::{check_force_before_ack, TraceEvent};
use dlog_types::{ClientId, Lsn, ReplicationConfig, ServerId};

const M: u64 = 3;
const RECORDS: u64 = 60;
const CLIENT_ADDR: NodeAddr = NodeAddr(1000);

fn fresh_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join("dlog-group-commit").join(format!(
        "case-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create case dir");
    d
}

/// Per-server replay fingerprint: `(addr, ingest_allocs, ingest_records,
/// trace)`, sorted by address. Two same-seed runs must match.
type CaseFingerprint = Vec<(u64, u64, u64, Vec<TraceEvent>)>;

#[allow(clippy::needless_pass_by_value)]
fn run_case(
    plan: FaultPlan,
    window_us: u64,
    max_batch: usize,
    delta: u64,
    flush_p: f64,
) -> CaseFingerprint {
    let dir = fresh_dir();
    let rng_seed = plan.seed ^ 0xC0A1_E5CE;
    let world = build_world(
        &dir,
        SyncWorldOptions::coalescing(
            M,
            plan,
            rng_seed,
            Duration::from_micros(window_us),
            max_batch,
            flush_p,
        ),
    )
    .expect("build world");
    let ep = SyncEndpoint::new(CLIENT_ADDR, std::sync::Arc::clone(&world));
    let addrs: HashMap<ServerId, NodeAddr> = (1..=M).map(|i| (ServerId(i), NodeAddr(i))).collect();
    let net = ClientNet::new(ep, addrs);
    let config = ReplicationConfig::new((1..=M).map(ServerId).collect(), 2, delta)
        .expect("replication config");
    let mut log = ReplicatedLog::new(ClientId(1), ClientOptions::new(config), net);
    log.initialize().expect("initialize");

    for i in 1..=RECORDS {
        log.write(dlog_bench::payload(i, 48)).expect("write");
        if i % 5 == 0 {
            log.force().expect("force");
        }
    }
    log.force().expect("final force");

    // Invariant 3: full read-back, byte-identical to what was written —
    // including records that arrived via selective retransmit.
    let recs = log
        .read_backward(Lsn(RECORDS), RECORDS as u32)
        .expect("read back");
    prop_assert_eq!(recs.len(), RECORDS as usize, "read-back missed records");
    for r in &recs {
        prop_assert!(r.present, "record {:?} masked without any recovery", r.lsn);
        prop_assert_eq!(
            r.data.as_bytes(),
            dlog_bench::payload(r.lsn.0, 48).as_slice(),
            "record {:?} bytes corrupted",
            r.lsn
        );
    }

    // Invariant 1, per server: no forced ack without a prior durable
    // force covering it. (Invariant 2 — cumulative-ack monotonicity — is
    // asserted inside the sync world, where acks are generated, before
    // the fault schedule can drop or reorder them.)
    let w = world.lock().expect("world lock");
    let mut coalesced_total = 0;
    let mut fingerprint: CaseFingerprint = Vec::new();
    for (addr, _, obs) in w.servers.obs() {
        let snap = obs.snapshot().expect("obs enabled");
        prop_assert_eq!(snap.trace_dropped, 0, "trace ring overflowed on {:?}", addr);
        check_force_before_ack(&snap.trace)
            .unwrap_or_else(|e| panic!("{addr:?}: force-before-ack violated: {e}"));
        let (_, server) = w.servers.shards(addr).next().expect("server exists");
        let st = server.stats();
        coalesced_total += st.coalesced_forces;
        prop_assert!(
            st.group_commits <= st.coalesced_forces,
            "{:?}: more group commits than deferred forces",
            addr
        );
        if window_us == 0 {
            prop_assert_eq!(
                st.group_commits,
                st.coalesced_forces,
                "{:?}: a zero window commits each force in a round of its own",
                addr
            );
        }
        let (ingest_allocs, ingest_records) = server.ingest_alloc_gauge();
        fingerprint.push((addr, ingest_allocs, ingest_records, snap.trace));
    }
    prop_assert!(coalesced_total > 0, "no force was ever deferred");
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);
    fingerprint.sort_unstable_by_key(|f| f.0);
    fingerprint
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn group_commit_holds_invariants(
        seed in any::<u64>(),
        window_us in prop_oneof![Just(0u64), 1u64..5_000],
        max_batch in 1usize..8,
        delta in 1u64..8,
        plan_kind in 0u8..3,
        flush_p in 0.0f64..0.4,
    ) {
        let plan = match plan_kind {
            0 => FaultPlan::reliable(),
            1 => FaultPlan::flaky(seed),
            _ => FaultPlan::hostile(seed),
        };
        let _ = run_case(plan, window_us, max_batch, delta, flush_p);
    }
}

/// A fixed worst-case shape outside proptest so it always runs: hostile
/// network, batch cap 1 below δ, coalescing on, frequent random flushes.
#[test]
fn group_commit_hostile_smoke() {
    let _ = run_case(FaultPlan::hostile(0x6C0), 2_000, 3, 4, 0.25);
}

/// Same seed ⇒ identical per-server traces AND identical per-server
/// ingest alloc gauges. The zero-copy ingest path may not allocate
/// nondeterministically: every delivered packet replays exactly, so the
/// counting-allocator deltas attributed to ingest must too. A warm-up
/// run pays one-time lazy-init allocations (CRC tables, empty-buf
/// singletons) before the measured pair. Wall-clock effects are fenced
/// out of the measured pair: the coalesce window is an hour (expiry
/// never fires mid-test, leaving the deterministic flush triggers —
/// batch cap, seeded rolls, inbox drain) and the plan is reliable (no
/// loss, so the client's wall-clock retransmit timers never trip, even
/// when parallel test threads steal CPU).
#[test]
fn group_commit_same_seed_identical_allocs() {
    const HOUR_US: u64 = 3_600_000_000;
    let _ = run_case(FaultPlan::reliable(), HOUR_US, 3, 4, 0.2);
    let a = run_case(FaultPlan::reliable(), HOUR_US, 3, 4, 0.2);
    let b = run_case(FaultPlan::reliable(), HOUR_US, 3, 4, 0.2);
    let ingested: u64 = a.iter().map(|(_, _, records, _)| records).sum();
    assert!(
        ingested > 0,
        "servers ingested nothing; comparison is vacuous"
    );
    for ((addr_a, allocs_a, records_a, trace_a), (addr_b, allocs_b, records_b, trace_b)) in
        a.iter().zip(&b)
    {
        assert_eq!(addr_a, addr_b, "server sets differ across replays");
        assert!(
            trace_a == trace_b,
            "server {addr_a}: trace bytes differ across replays"
        );
        assert_eq!(
            records_a, records_b,
            "server {addr_a}: ingested record counts differ across replays"
        );
        assert_eq!(
            allocs_a, allocs_b,
            "server {addr_a}: ingest alloc counts differ across replays — \
             the zero-copy path allocates nondeterministically"
        );
    }
}
