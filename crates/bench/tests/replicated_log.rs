//! End-to-end tests of the replicated log against live in-process log
//! servers: the paper's §3.1 semantics, the §3.1.2 restart procedure, and
//! the §4.2 failure-handling protocol.

use dlog_bench::harness::{client_addr, server_addr};
use dlog_bench::{payload, Cluster, ClusterOptions};
use dlog_core::client::ReplicatedLog;
use dlog_net::{FaultPlan, MemEndpoint};
use dlog_types::{ClientId, DlogError, Epoch, Lsn, ServerId};

/// `servers` servers on a network with the given fault plan.
fn start(tag: &str, servers: u64, plan: FaultPlan) -> Cluster {
    Cluster::start(
        tag,
        ClusterOptions {
            plan,
            ..ClusterOptions::new(servers)
        },
    )
}

/// Client `id · M`, so tests can name the servers it writes: striped
/// placement sends a client whose id is a multiple of M to servers 1..=N.
fn client(cluster: &Cluster, id: u64, n: usize, delta: u64) -> ReplicatedLog<MemEndpoint> {
    cluster.client(id * cluster.servers.len() as u64, n, delta)
}

#[test]
fn write_force_read_roundtrip() {
    let cluster = start("roundtrip", 3, FaultPlan::reliable());
    let mut log = client(&cluster, 1, 2, 4);
    log.initialize().unwrap();

    let mut lsns = Vec::new();
    for i in 1..=20u64 {
        lsns.push(log.write(payload(i, 100)).unwrap());
    }
    assert_eq!(lsns.first(), Some(&Lsn(1)));
    assert_eq!(lsns.last(), Some(&Lsn(20)));
    let high = log.force().unwrap();
    assert_eq!(high, Lsn(20));
    assert_eq!(log.end_of_log().unwrap(), Lsn(20));

    for i in 1..=20u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 100).as_slice()
        );
    }
    assert!(matches!(
        log.read(Lsn(21)),
        Err(DlogError::NoSuchRecord { .. })
    ));
    assert!(matches!(
        log.read(Lsn(0)),
        Err(DlogError::NoSuchRecord { .. })
    ));
}

#[test]
fn consecutive_lsns_across_forces() {
    let cluster = start("consecutive", 3, FaultPlan::reliable());
    let mut log = client(&cluster, 1, 2, 2);
    log.initialize().unwrap();
    let mut prev = Lsn::ZERO;
    for i in 1..=30u64 {
        let lsn = log.write(payload(i, 40)).unwrap();
        assert!(prev.precedes(lsn), "WriteLog must return increasing LSNs");
        prev = lsn;
        if i % 7 == 0 {
            log.force().unwrap();
        }
    }
    log.force().unwrap();
}

#[test]
fn operations_require_initialization() {
    let cluster = start("noinit", 3, FaultPlan::reliable());
    let mut log = client(&cluster, 1, 2, 4);
    assert!(matches!(
        log.write(vec![1u8]),
        Err(DlogError::NotInitialized)
    ));
    assert!(matches!(log.force(), Err(DlogError::NotInitialized)));
    assert!(matches!(log.read(Lsn(1)), Err(DlogError::NotInitialized)));
    assert!(matches!(log.end_of_log(), Err(DlogError::NotInitialized)));
}

#[test]
fn restart_preserves_log_and_masks_tail() {
    let cluster = start("restart", 3, FaultPlan::reliable());
    let delta = 3u64;
    {
        let mut log = client(&cluster, 1, 2, delta);
        log.initialize().unwrap();
        for i in 1..=10u64 {
            log.write(payload(i, 80)).unwrap();
        }
        log.force().unwrap();
        // Client crashes here (dropped).
    }
    let mut log = client(&cluster, 1, 2, delta);
    log.initialize().unwrap();
    // Recovery appended δ not-present records after the old end (10).
    assert_eq!(log.end_of_log().unwrap(), Lsn(10 + delta));
    for i in 1..=10u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 80).as_slice(),
            "lsn {i}"
        );
    }
    for i in 11..=(10 + delta) {
        assert!(
            matches!(log.read(Lsn(i)), Err(DlogError::NotPresent { .. })),
            "lsn {i} must be masked"
        );
    }
    // New writes continue after the masked range.
    let lsn = log.write(payload(99, 10)).unwrap();
    assert_eq!(lsn, Lsn(10 + delta + 1));
    log.force().unwrap();
    assert_eq!(
        log.read(lsn).unwrap().as_bytes(),
        payload(99, 10).as_slice()
    );
}

#[test]
fn epochs_increase_across_restarts() {
    let cluster = start("epochs", 3, FaultPlan::reliable());
    let mut seen = Vec::new();
    for _ in 0..3 {
        let mut log = client(&cluster, 1, 2, 1);
        log.initialize().unwrap();
        log.write(vec![1u8; 10]).unwrap();
        log.force().unwrap();
        seen.push(log.epoch());
    }
    assert!(
        seen[0] < seen[1] && seen[1] < seen[2],
        "epochs must increase: {seen:?}"
    );
}

#[test]
fn partial_write_is_atomic_after_restart() {
    // A client streams records that reach only one of the two targets
    // (the other is partitioned), then crashes. After restart, the log
    // must be consistent: each LSN either reads back or is NotPresent /
    // NoSuchRecord — and stays that way.
    let cluster = start("partial", 3, FaultPlan::reliable());
    {
        let mut log = client(&cluster, 1, 2, 8);
        log.initialize().unwrap();
        for i in 1..=5u64 {
            log.write(payload(i, 60)).unwrap();
        }
        log.force().unwrap(); // 1..=5 fully replicated

        // Cut the second target off, then stream more records without
        // waiting for completion.
        let t2 = log.targets()[1];
        cluster
            .net
            .partition(client_addr(log.client_id()), server_addr(t2));
        for i in 6..=8u64 {
            log.write(payload(i, 60)).unwrap();
        }
        log.flush().unwrap(); // async: reaches target 1 only
        std::thread::sleep(std::time::Duration::from_millis(100));
        // Crash before the force completes.
    }
    let mut log = client(&cluster, 1, 2, 8);
    log.initialize().unwrap();
    let end = log.end_of_log().unwrap();
    // Records 1..=5 must have survived.
    for i in 1..=5u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 60).as_slice(),
            "lsn {i}"
        );
    }
    // Everything between 6 and end is *consistently* readable or masked;
    // reading twice gives the same answer.
    for i in 6..=end.0 {
        let a = log.read(Lsn(i)).map(|d| d.as_bytes().to_vec());
        let b = log.read(Lsn(i)).map(|d| d.as_bytes().to_vec());
        match (&a, &b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(DlogError::NotPresent { .. }), Err(DlogError::NotPresent { .. })) => {}
            other => panic!("inconsistent reads for lsn {i}: {other:?}"),
        }
    }
    // The log remains writable.
    log.write(vec![7u8; 10]).unwrap();
    log.force().unwrap();
}

#[test]
fn server_failure_triggers_switch() {
    let mut cluster = start("switch", 4, FaultPlan::reliable());
    let mut log = client(&cluster, 1, 2, 4);
    log.initialize().unwrap();
    for i in 1..=5u64 {
        log.write(payload(i, 50)).unwrap();
    }
    log.force().unwrap();

    // Kill one of the targets mid-stream.
    let victim = log.targets()[0];
    cluster.kill_server(victim);
    for i in 6..=12u64 {
        log.write(payload(i, 50)).unwrap();
    }
    log.force().unwrap();
    assert!(
        log.stats().switches >= 1,
        "client must switch away from the dead server"
    );
    assert!(!log.targets().contains(&victim));

    // All records still readable (reads fail over to live holders).
    for i in 1..=12u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 50).as_slice(),
            "lsn {i}"
        );
    }
}

#[test]
fn reads_fail_over_to_any_holder() {
    let mut cluster = start("readover", 3, FaultPlan::reliable());
    let mut log = client(&cluster, 1, 2, 4);
    log.initialize().unwrap();
    for i in 1..=6u64 {
        log.write(payload(i, 70)).unwrap();
    }
    log.force().unwrap();
    // Down the first target; reads must come from the second.
    let t0 = log.targets()[0];
    cluster.kill_server(t0);
    for i in 1..=6u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 70).as_slice()
        );
    }
}

#[test]
fn init_fails_below_quorum() {
    let mut cluster = start("quorum", 3, FaultPlan::reliable());
    // M=3, N=2 ⇒ init quorum = 2. Kill two servers.
    cluster.kill_server(ServerId(1));
    cluster.kill_server(ServerId(2));
    let mut log = client(&cluster, 1, 2, 1);
    match log.initialize() {
        Err(DlogError::QuorumUnavailable {
            needed, available, ..
        }) => {
            assert_eq!(needed, 2);
            assert!(available < 2);
        }
        other => panic!("expected quorum failure, got {other:?}"),
    }
}

#[test]
fn survives_lossy_network() {
    // 5% loss + duplication + reordering: the NAK/retry machinery must
    // deliver every record to N servers anyway.
    let cluster = start(
        "lossy",
        3,
        FaultPlan {
            loss: 0.05,
            duplicate: 0.03,
            reorder: 0.05,
            seed: 1234,
        },
    );
    let mut log = client(&cluster, 1, 2, 4);
    log.initialize().unwrap();
    for i in 1..=60u64 {
        log.write(payload(i, 64)).unwrap();
        if i % 5 == 0 {
            log.force().unwrap();
        }
    }
    log.force().unwrap();
    for i in 1..=60u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 64).as_slice(),
            "lsn {i}"
        );
    }
}

#[test]
fn restart_after_lossy_run_is_consistent() {
    let cluster = start(
        "lossyrestart",
        3,
        FaultPlan {
            loss: 0.08,
            duplicate: 0.02,
            reorder: 0.08,
            seed: 99,
        },
    );
    {
        let mut log = client(&cluster, 1, 2, 4);
        log.initialize().unwrap();
        for i in 1..=30u64 {
            log.write(payload(i, 64)).unwrap();
        }
        log.force().unwrap();
    }
    let mut log = client(&cluster, 1, 2, 4);
    log.initialize().unwrap();
    for i in 1..=30u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 64).as_slice(),
            "lsn {i}"
        );
    }
}

#[test]
fn triple_replication() {
    let cluster = start("triple", 5, FaultPlan::reliable());
    let mut log = client(&cluster, 1, 3, 2);
    log.initialize().unwrap();
    for i in 1..=10u64 {
        log.write(payload(i, 90)).unwrap();
    }
    log.force().unwrap();
    // Every record must be on 3 servers: check the view's holder counts.
    for i in 1..=10u64 {
        let (holders, _) = log.view().locate(Lsn(i)).expect("record in view");
        assert!(holders.len() >= 3, "lsn {i} on {} servers", holders.len());
    }
}

#[test]
fn buffered_records_readable_before_force() {
    let cluster = start("buffered", 3, FaultPlan::reliable());
    let mut log = client(&cluster, 1, 2, 4);
    log.initialize().unwrap();
    let lsn = log.write(payload(1, 30)).unwrap();
    // Never flushed: served from the local buffer.
    assert_eq!(log.read(lsn).unwrap().as_bytes(), payload(1, 30).as_slice());
    assert!(log.stats().read_cache_hits >= 1);
}

#[test]
fn server_restart_preserves_its_copies() {
    // Stop a server gracefully, restart it, and confirm it still serves
    // its intervals (recovery of the store through the runner cycle).
    let mut cluster = start("srvrestart", 3, FaultPlan::reliable());
    let mut log = client(&cluster, 1, 2, 2);
    log.initialize().unwrap();
    for i in 1..=8u64 {
        log.write(payload(i, 40)).unwrap();
    }
    log.force().unwrap();
    let t0 = log.targets()[0];
    let t1 = log.targets()[1];

    // Bounce t0, kill t1: reads must then be served by the restarted t0.
    cluster.kill_server(t0);
    cluster.boot_server(t0);
    cluster.kill_server(t1);
    for i in 1..=8u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 40).as_slice(),
            "lsn {i}"
        );
    }
}

/// One acknowledgment completes a whole window, and harvesting it is one
/// holder-set computation and one range noted in the view: what a commit
/// allocates on the client thread does not grow with the records in it.
/// (At the parent every completed record cost a `Vec<ServerId>` collect
/// in `harvest_completions` plus a `to_vec` in `note_write`.)
#[test]
fn a_commit_allocates_nothing_per_record_on_the_client() {
    use dlog_obs::gauge::thread_allocs;
    use dlog_types::LogData;

    let cluster = start("commit-allocs", 3, FaultPlan::reliable());
    let mut log = client(&cluster, 1, 2, 16);
    log.initialize().unwrap();
    // Payloads are built up front and shared in: the caller's own
    // allocations are not the client's.
    let data = LogData::from(vec![0xA5u8; 16]);
    // The calm level over many commits: a retry after a slow ack
    // allocates, a quiet commit never allocates less than the code does.
    let mut calm_commit = |records: usize| {
        (0..200)
            .map(|_| {
                let before = thread_allocs();
                for _ in 0..records {
                    log.write(data.share()).unwrap();
                }
                log.force().unwrap();
                thread_allocs() - before
            })
            .min()
            .expect("commits ran")
    };
    calm_commit(14); // warm-up: queues, scratch and the view's segment
    let (seven, fourteen) = (calm_commit(7), calm_commit(14));
    assert_eq!(
        seven, fourteen,
        "a 14-record commit allocates more than a 7-record one"
    );
}

/// Leaves LSN 6 (and 7 when `two`) on server 1 alone at epoch 1, present,
/// while two later incarnations, run with server 1 down, mask them at
/// epoch 3 on servers 2 and 3. Server 1 then comes back, and the returned
/// client, a fourth incarnation, sees all three servers (N = 2, δ = 2).
fn straggler_cluster(tag: &str, two: bool) -> (Cluster, ReplicatedLog<MemEndpoint>) {
    let mut cluster = start(tag, 3, FaultPlan::reliable());
    let (t1, t2) = {
        let mut log = client(&cluster, 1, 2, 2);
        log.initialize().unwrap();
        for i in 1..=5u64 {
            log.write(payload(i, 60)).unwrap();
        }
        log.force().unwrap();
        let (t1, t2) = (log.targets()[0], log.targets()[1]);
        cluster
            .net
            .partition(client_addr(log.client_id()), server_addr(t2));
        let last = if two { 7 } else { 6 };
        for i in 6..=last {
            log.write(payload(i, 60)).unwrap();
        }
        log.flush().unwrap(); // reaches t1 only
        std::thread::sleep(std::time::Duration::from_millis(100));
        (t1, t2)
    };
    cluster.net.heal(client_addr(ClientId(3)), server_addr(t2));
    cluster.kill_server(t1);
    for _ in 0..2 {
        let mut log = client(&cluster, 1, 2, 2);
        log.initialize().unwrap();
    }
    cluster.boot_server(t1);
    let mut log = client(&cluster, 1, 2, 2);
    log.initialize().unwrap();
    let (holders, epoch) = log.view().locate(Lsn(6)).unwrap();
    assert!(
        !holders.contains(&t1),
        "the view names {holders:?} for LSN 6"
    );
    assert!(epoch > Epoch(1));
    (cluster, log)
}

/// §3.1: all read-side voting happens once, in the merge at restart. A
/// read-ahead reply from server 1 carries its straggler copy of LSN 6;
/// the cache must not admit it.
#[test]
fn a_read_never_returns_a_copy_the_view_does_not_name() {
    let (_cluster, mut log) = straggler_cluster("straggler-read", false);
    for i in 1..=5u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 60).as_slice()
        );
    }
    assert!(
        matches!(log.read(Lsn(6)), Err(DlogError::NotPresent { .. })),
        "LSN 6 is masked"
    );
}

/// The backward twin: a run from server 1 stops at its straggler copy,
/// and the next round asks the holder the view names.
#[test]
fn a_backward_scan_never_returns_a_copy_the_view_does_not_name() {
    let (_cluster, mut log) = straggler_cluster("straggler-back", true);
    let end = log.end_of_log().unwrap();
    let records = log.read_backward(end, 64).unwrap();
    assert_eq!(records.len() as u64, end.0, "the scan reaches LSN 1");
    for rec in &records {
        if rec.lsn == Lsn(6) || rec.lsn == Lsn(7) {
            assert!(!rec.present, "{:?} at {:?} is masked", rec.lsn, rec.epoch);
        }
    }
}

/// Initialization's δ copies come from one fetch: the first copy's miss
/// asks for the whole window, so a wider window costs no more packets.
#[test]
fn initialization_fetches_the_copy_window_in_one_request() {
    let packets = |delta: u64| {
        let cluster = start("copy-window", 3, FaultPlan::reliable());
        {
            let mut log = client(&cluster, 1, 2, delta);
            log.initialize().unwrap();
            for i in 1..=20u64 {
                log.write(payload(i, 100)).unwrap();
            }
            log.force().unwrap();
        }
        let mut log = client(&cluster, 1, 2, delta);
        log.initialize().unwrap();
        assert_eq!(log.stats().recovery_copies, 2 * delta);
        log.net_stats().packets_out
    };
    assert_eq!(packets(2), packets(8));
}

/// A miss that does not continue the previous read asks for one record
/// and caches nothing; the next LSN's miss continues the run and reads
/// ahead, so the LSN after it is a hit.
#[test]
fn only_a_forward_run_reads_ahead() {
    let cluster = start("read-ahead", 3, FaultPlan::reliable());
    let mut log = client(&cluster, 1, 2, 4);
    log.initialize().unwrap();
    for i in 1..=100u64 {
        log.write(payload(i, 50)).unwrap();
    }
    log.force().unwrap();
    let mut hit = |lsn: u64| {
        let before = log.stats().read_cache_hits;
        assert_eq!(
            log.read(Lsn(lsn)).unwrap().as_bytes(),
            payload(lsn, 50).as_slice()
        );
        log.stats().read_cache_hits > before
    };
    assert!(!hit(57), "a random read misses");
    assert!(
        !hit(58),
        "the record a random read asked for is all it fetched"
    );
    assert!(hit(59), "the continuing miss read ahead");
    assert!(hit(60));
}

/// §5.4's "very long interval lists": each incarnation installs its δ
/// rewrite as a fresh interval on both holders, so after about 340
/// restarts a holder's interval list no longer fits one packet. The
/// list travels in pages, and the 1 000th incarnation still initializes
/// and reads the records the first one forced.
#[test]
fn a_thousand_incarnations_still_initialize() {
    let cluster = start("incarnations", 3, FaultPlan::reliable());
    {
        let mut log = cluster.client(3, 2, 2);
        log.initialize().unwrap();
        for i in 1..=10u64 {
            log.write(payload(i, 40)).unwrap();
        }
        log.force().unwrap();
    }
    let mut log = cluster.client(3, 2, 2);
    for incarnation in 1..=1_000 {
        log = cluster.client(3, 2, 2);
        if let Err(e) = log.initialize() {
            panic!("incarnation {incarnation} failed to initialize: {e}");
        }
    }
    for i in 1..=8u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 40).as_slice()
        );
    }
}
