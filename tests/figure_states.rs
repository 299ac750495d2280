//! **E6 — Figures 3-1 / 3-2 / 3-3** as an executable test: drive the real
//! client/server stack through the paper's worked example and assert the
//! interval-table *shapes* at each stage (the concrete epoch numbers come
//! from the live generator, so they are asserted as ordered variables
//! e1 < e2 < e3 rather than the figures' literal 1/3/4). Each stage's
//! tables are printed under
//! `cargo test -p dlog-bench --test figure_states -- --nocapture`.

use dlog_bench::harness::{client_addr, server_addr};
use dlog_bench::{payload, Cluster, ClusterOptions};
use dlog_net::wire::{Message, Packet, Request, Response};
use dlog_net::Endpoint;
use dlog_types::{ClientId, Interval, IntervalList, Lsn, ServerId};

/// Under the full parallel test suite, server threads can be starved past
/// the client's RPC budgets; initialization legitimately reports a quorum
/// failure then. Retry a few times, as a real client node would.
fn init_retry<E: dlog_net::Endpoint>(log: &mut dlog_core::ReplicatedLog<E>) {
    for attempt in 0..5 {
        match log.initialize() {
            Ok(()) => return,
            Err(e) if attempt == 4 => panic!("initialize after retries: {e}"),
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(150)),
        }
    }
}

fn interval_list(cluster: &Cluster, s: ServerId, c: ClientId) -> IntervalList {
    let ep = cluster.net.endpoint(client_addr(ClientId(900 + s.0)));
    ep.send(
        server_addr(s),
        &Packet::bare(Message::Request {
            id: 1,
            body: Request::IntervalList {
                client: c,
                first: 0,
            },
        }),
    )
    .unwrap();
    match ep.recv(std::time::Duration::from_secs(1)).unwrap() {
        Some((_, pkt)) => match pkt.msg {
            Message::Response {
                body:
                    Response::Intervals {
                        intervals,
                        more: false,
                    },
                ..
            } => intervals,
            other => panic!("unexpected response {other:?}"),
        },
        None => IntervalList::new(),
    }
}

/// Print every server's interval table for `c` under `caption`.
fn dump(cluster: &Cluster, c: ClientId, caption: &str) {
    println!("--- {caption}");
    for &s in &cluster.servers {
        let list = interval_list(cluster, s, c);
        let ivs: Vec<String> = list
            .intervals()
            .iter()
            .map(|iv| format!("LSN {}..{} @epoch {}", iv.lo, iv.hi, iv.epoch))
            .collect();
        println!("  Server {}: {}", s.0, ivs.join(", "));
    }
}

#[test]
fn figures_3_1_through_3_3() {
    let cluster = Cluster::start("figure-states", ClusterOptions::new(3));
    // 6 ≡ 0 (mod 3): striped placement writes to servers 1 and 2.
    let c = ClientId(6);
    let (s1, s2, s3) = (ServerId(1), ServerId(2), ServerId(3));

    // ---- Stage A (first epoch): records 1..=3 on servers 1+2.
    let e1;
    {
        let mut log = cluster.client(c.0, 2, 1);
        init_retry(&mut log);
        e1 = log.epoch();
        for i in 1..=3u64 {
            log.write(payload(i, 40)).unwrap();
        }
        log.force().unwrap();
        // crash
    }
    dump(&cluster, c, "records 1-3 on servers 1 and 2 (epoch e1)");
    let l1 = interval_list(&cluster, s1, c);
    let l2 = interval_list(&cluster, s2, c);
    let l3 = interval_list(&cluster, s3, c);
    assert_eq!(l1.intervals(), &[Interval::new(e1, Lsn(1), Lsn(3))]);
    assert_eq!(l2.intervals(), &[Interval::new(e1, Lsn(1), Lsn(3))]);
    assert!(l3.is_empty());

    // ---- Stage B (second epoch, as in Figure 3-1): restart with server
    // 2 unreachable. Recovery (δ=1) copies record 3 with epoch e2 to the
    // new targets and masks LSN 4; then records 5..=9 are written.
    cluster.net.partition(client_addr(c), server_addr(s2));
    let e2;
    {
        let mut log = cluster.client(c.0, 2, 1);
        init_retry(&mut log);
        e2 = log.epoch();
        assert!(e2 > e1, "epochs must increase across restarts");
        assert_eq!(
            log.end_of_log().unwrap(),
            Lsn(4),
            "copy of 3 plus mask at 4"
        );
        for i in 5..=9u64 {
            log.write(payload(i, 40)).unwrap();
        }
        log.force().unwrap();
        cluster.net.heal(client_addr(c), server_addr(s2));
        // crash here (cleanly: everything on N servers)
    }
    dump(
        &cluster,
        c,
        "Figure 3-1: restart without server 2, then records 5-9 (e2)",
    );
    // Figure 3-1 shape: server 1 has (e1: 1..3) and (e2: 3..9);
    // server 2 (the one that missed the restart) still has only (e1: 1..3);
    // server 3 has (e2: 3..9).
    let l1 = interval_list(&cluster, s1, c);
    let l2 = interval_list(&cluster, s2, c);
    let l3 = interval_list(&cluster, s3, c);
    assert_eq!(
        l1.intervals(),
        &[
            Interval::new(e1, Lsn(1), Lsn(3)),
            Interval::new(e2, Lsn(3), Lsn(9))
        ],
        "server 1 must hold both epochs like Figure 3-1"
    );
    assert_eq!(l2.intervals(), &[Interval::new(e1, Lsn(1), Lsn(3))]);
    assert_eq!(l3.intervals(), &[Interval::new(e2, Lsn(3), Lsn(9))]);

    // ---- Stage C (Figure 3-2): a third incarnation's first record
    // reaches only server 1.
    let (partial, t_other) = {
        let mut log = cluster.client(c.0, 2, 1);
        // Make server 2 invisible again so targets remain {1, 3}.
        cluster.net.partition(client_addr(c), server_addr(s2));
        init_retry(&mut log);
        let t_other = log
            .targets()
            .iter()
            .copied()
            .find(|&t| t != s1)
            .expect("two targets");
        cluster.net.partition(client_addr(c), server_addr(t_other));
        let partial = log.write(payload(100, 40)).unwrap();
        log.flush().unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while interval_list(&cluster, s1, c).last().map(|iv| iv.hi) != Some(partial) {
            assert!(
                std::time::Instant::now() < deadline,
                "record never reached server 1"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        cluster.net.heal(client_addr(c), server_addr(t_other));
        cluster.net.heal(client_addr(c), server_addr(s2));
        // crash with the record partially written
        (partial, t_other)
    };
    dump(
        &cluster,
        c,
        "Figure 3-2: the last record partially written, client crashed",
    );
    // Figure 3-2 shape: the partial record sits on server 1 alone.
    assert!(
        interval_list(&cluster, t_other, c)
            .last()
            .is_some_and(|iv| iv.hi < partial),
        "the partial record reached server {t_other} too"
    );

    // ---- Stage D (Figure 3-3): restart; the doubtful tail is re-copied
    // under epoch e3 and a not-present record is appended; the log is
    // consistent and writable.
    let mut log = cluster.client(c.0, 2, 1);
    init_retry(&mut log);
    let e3 = log.epoch();
    assert!(e3 > e2);
    dump(
        &cluster,
        c,
        "Figure 3-3: after the restart (copy + not-present, e3)",
    );
    let end = log.end_of_log().unwrap();
    // Whatever the init quorum saw, the end covers at least the certain
    // records (through the stage-B recovery end plus the mask).
    assert!(end >= Lsn(11), "end {end} must cover the recovered tail");
    // The recovery installed the e3 rewrite on the stage-D targets
    // (servers 1 and 2, with everything healed) — while server 3, like
    // the paper's "Server 3 unavailable" case in Figure 3-3, may retain a
    // stale lower-epoch copy that loses every subsequent merge.
    for s in [s1, s2] {
        let list = interval_list(&cluster, s, c);
        let last = list.last().expect("recovery target holds intervals");
        assert_eq!(
            last.epoch, e3,
            "server {s} top interval must be the e3 rewrite"
        );
    }
    let stale = interval_list(&cluster, s3, c)
        .last()
        .expect("server 3 holds intervals");
    assert!(
        stale.epoch < e3,
        "server 3 keeps its stale copy, as in Figure 3-3"
    );

    // Reads are consistent and the log accepts new writes.
    for i in 1..=end.0 {
        let a = log.read(Lsn(i)).is_ok();
        let b = log.read(Lsn(i)).is_ok();
        assert_eq!(a, b, "read of {i} must be deterministic");
    }
    let next = log.write(payload(999, 16)).unwrap();
    assert_eq!(next, end.next());
    log.force().unwrap();
}

#[test]
fn not_present_masks_follow_every_restart() {
    // δ = 3: each restart masks exactly 3 LSNs past the end.
    let cluster = Cluster::start("masking", ClusterOptions::new(3));
    let mut expected_end = 0u64;
    for round in 0..3u64 {
        let mut log = cluster.client(5, 2, 3);
        init_retry(&mut log);
        if round > 0 {
            expected_end += 3; // the masks from this restart
        }
        assert_eq!(
            log.end_of_log().unwrap(),
            Lsn(expected_end),
            "round {round}"
        );
        for _ in 0..4 {
            log.write(payload(round, 32)).unwrap();
        }
        log.force().unwrap();
        expected_end += 4;
    }
}
