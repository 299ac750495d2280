//! The paper's tables for §5.2–§5.5 (experiments E9, E10, E12 and E13),
//! asserted on the shipped code. Each test prints its tables under
//! `cargo test -p dlog-bench --test paper_tables -- --nocapture`, and
//! each table must appear verbatim in EXPERIMENTS.md: a change that
//! moves a number fails here until the document says what the code does.
//!
//! * E9: §5.2 log-record splitting on the shipped split logger;
//! * E10: §5.4 load assignment, on the striped placement the client ships
//!   and on the client itself;
//! * E12: §5.3 space-management policies, a closed form;
//! * E13: §5.5 commit-path costs, a closed form.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dlog_analysis::capacity::CapacityParams;
use dlog_analysis::commit::CommitModel;
use dlog_analysis::space::SpacePolicy;
use dlog_analysis::table::{fmt1, fmt2, Table};
use dlog_core::assign;
use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_core::split::SplitStats;
use dlog_mc::harness::{build_world, SyncEndpoint, SyncWorld, SyncWorldOptions};
use dlog_net::wire::NodeAddr;
use dlog_net::FaultPlan;
use dlog_obs::Obs;
use dlog_types::{ClientId, Lsn, ReplicationConfig, ServerId};
use dlog_workload::et1::{Et1Config, Et1Generator};
use dlog_workload::recovery::{LogAccess, LogMode, MemLog};
use dlog_workload::{BankDb, RecoveryManager};

/// EXPERIMENTS.md, which prints every table below.
const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

/// Print `table` under `caption`, and assert that EXPERIMENTS.md prints
/// it exactly.
fn documented(caption: &str, table: &Table) {
    let text = table.render();
    println!("{caption}\n\n{text}");
    assert!(
        EXPERIMENTS.contains(&text),
        "EXPERIMENTS.md does not print {caption} as the code computes it:\n{text}"
    );
}

fn servers(m: u64) -> Vec<ServerId> {
    (1..=m).map(ServerId).collect()
}

/// Run `txns` transactions of `steps` debit–credit steps each and return
/// the bytes logged and the split logger's counters. When
/// `clean_every > 0`, the buffer manager cleans the pages dirtied since
/// its last pass every `clean_every` steps *inside* a transaction: the
/// pressure that spills a long transaction's undo.
fn split_run(
    mode: LogMode,
    txns: u64,
    steps: usize,
    cache_bytes: usize,
    clean_every: usize,
    abort_fraction: f64,
) -> (u64, SplitStats) {
    let db = BankDb::new(10_000, 100, 10);
    let mut mgr = RecoveryManager::new(MemLog::default(), db, mode, cache_bytes);
    let mut gen = Et1Generator::new(Et1Config::small(17));
    for i in 0..txns {
        let t = mgr.begin();
        let mut performed = Vec::with_capacity(steps);
        let mut dirty_since_clean: Vec<u64> = Vec::new();
        for j in 0..steps {
            let step = gen.next_txn();
            mgr.step(t, &step).unwrap();
            dirty_since_clean.push(BankDb::account_page(step.account));
            performed.push(step);
            if clean_every > 0 && (j + 1) % clean_every == 0 {
                // A steal policy under pressure evicts the batch of pages
                // dirtied since the last clean.
                dirty_since_clean.sort_unstable();
                dirty_since_clean.dedup();
                for page in dirty_since_clean.drain(..) {
                    mgr.clean_page(page).unwrap();
                }
            }
        }
        if (i as f64 / txns as f64) < abort_fraction {
            mgr.abort_txn(t, &performed).unwrap();
        } else {
            mgr.commit_txn(t).unwrap();
        }
    }
    let log = mgr.log_mut();
    let end = LogAccess::end_of_log(log).unwrap();
    let bytes: u64 = (1..=end.0)
        .map(|l| LogAccess::read(log, Lsn(l)).unwrap().len() as u64)
        .sum();
    (bytes, mgr.split_stats())
}

/// E9 — §5.2: "If transactions are very short, then the fraction of log
/// records that may be split will be small ... Very long running
/// transactions will not complete before pages they modify are cleaned,
/// and splitting will also not save data volume."
#[test]
fn e9_splitting_saves_undo_until_pages_are_cleaned() {
    let mut volume = Table::new(vec![
        "steps/txn",
        "classic bytes",
        "split bytes",
        "saving %",
        "undo spilled (split)",
    ]);
    for steps in [1usize, 4, 16, 64, 256] {
        let txns = (1024 / steps).max(4) as u64;
        let (classic, _) = split_run(LogMode::Classic, txns, steps, 1 << 30, 16, 0.0);
        let (split, stats) = split_run(LogMode::Split, txns, steps, 1 << 30, 16, 0.0);
        volume.row(vec![
            steps.to_string(),
            classic.to_string(),
            split.to_string(),
            fmt1(100.0 * (classic as f64 - split as f64) / classic as f64),
            stats.undo_bytes_logged.to_string(),
        ]);
    }
    documented(
        "E9: log volume, classic vs split, by transaction length (a page cleaned every 16 steps)",
        &volume,
    );

    let mut cache = Table::new(vec![
        "cache bytes",
        "undo saved",
        "undo spilled",
        "cache spills",
    ]);
    for bytes in [256usize, 1024, 4096, 1 << 20] {
        let (_, stats) = split_run(LogMode::Split, 40, 40, bytes, 0, 0.0);
        cache.row(vec![
            bytes.to_string(),
            stats.undo_bytes_saved.to_string(),
            stats.undo_bytes_logged.to_string(),
            stats.cache_spills.to_string(),
        ]);
    }
    documented("E9b: a small undo cache forces spills", &cache);

    let mut cleaning = Table::new(vec![
        "clean every",
        "page-clean spills",
        "undo spilled bytes",
    ]);
    for clean_every in [0usize, 32, 8, 2] {
        let (_, stats) = split_run(LogMode::Split, 32, 40, 1 << 30, clean_every, 0.0);
        cleaning.row(vec![
            if clean_every == 0 {
                "never".to_string()
            } else {
                clean_every.to_string()
            },
            stats.page_clean_spills.to_string(),
            stats.undo_bytes_logged.to_string(),
        ]);
    }
    documented(
        "E9c: page-cleaning frequency vs spilled undo (40-step transactions)",
        &cleaning,
    );

    let mut aborts = Table::new(vec!["cache bytes", "local aborts", "remote aborts"]);
    for bytes in [1usize << 30, 512] {
        let (_, stats) = split_run(LogMode::Split, 100, 4, bytes, 0, 0.3);
        aborts.row(vec![
            bytes.to_string(),
            stats.local_aborts.to_string(),
            stats.remote_aborts.to_string(),
        ]);
    }
    documented(
        "E9d: 30% aborts resolve from the client cache when it holds their undo",
        &aborts,
    );
}

/// E10 — §5.4 on the placement the client ships: 50 logs × N = 2 over
/// M = 6 servers, and the failover that `replacement` makes when a
/// server fails.
#[test]
fn e10_striped_placement_spreads_logs_and_fails_over_to_the_next_servers() {
    let all = servers(6);
    let mut targets: Vec<Vec<ServerId>> = (1..=50)
        .map(|c| assign::initial(ClientId(c), &all, 2))
        .collect();
    let loads = |targets: &[Vec<ServerId>]| -> Vec<usize> {
        all.iter()
            .map(|s| targets.iter().filter(|t| t.contains(s)).count())
            .collect()
    };
    let before = loads(&targets);
    // Clients 1..=50 start at ring positions 1..=50 mod 6, so positions
    // 1 and 2 start one client more than the others, and server 3,
    // which both of them cover, carries 18.
    assert_eq!(before, [16, 17, 18, 17, 16, 16]);

    let failed = ServerId(1);
    for t in &mut targets {
        if let Some(slot) = t.iter().position(|&s| s == failed) {
            t[slot] = assign::replacement(&all, t, failed).unwrap();
        }
    }
    let after = loads(&targets);
    // Server 1's logs move to the two servers after it on the ring: a
    // log on (1, 2) to server 3, a log on (6, 1) to server 2.
    assert_eq!(after, [0, 25, 26, 17, 16, 16]);

    let imbalance = |loads: &[usize]| {
        let live: Vec<usize> = loads.iter().copied().filter(|&l| l > 0).collect();
        let max = live.iter().copied().max().unwrap_or(0) as f64;
        max / (live.iter().sum::<usize>() as f64 / live.len() as f64)
    };
    let mut t = Table::new(vec!["server", "logs", "after server 1 fails"]);
    for (s, (b, a)) in all.iter().zip(before.iter().zip(&after)) {
        t.row(vec![s.0.to_string(), b.to_string(), a.to_string()]);
    }
    t.row(vec![
        "max / mean".to_string(),
        fmt2(imbalance(&before)),
        fmt2(imbalance(&after)),
    ]);
    documented("E10: 50 logs x N=2 over M=6 servers, striped placement", &t);
}

/// E10b — §5.4's "very long interval lists" on the shipped client: each
/// incarnation installs its δ rewrite as a fresh interval on both of its
/// holders. The list travels in pages, so the 1 000th incarnation still
/// initializes and reads what the first one forced.
#[test]
fn e10b_each_incarnation_adds_an_interval_on_each_holder() {
    let dir = std::env::temp_dir()
        .join("dlog-paper-tables")
        .join(format!("incarnations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let world = build_world(
        &dir,
        SyncWorldOptions::shared(3, FaultPlan::reliable(), Obs::default()),
    )
    .unwrap();
    let net = |addr: u64, world: &Arc<Mutex<SyncWorld>>| {
        let addrs: HashMap<ServerId, NodeAddr> =
            servers(3).into_iter().map(|s| (s, NodeAddr(s.0))).collect();
        let mut net = ClientNet::new(SyncEndpoint::new(NodeAddr(addr), Arc::clone(world)), addrs);
        net.rpc_timeout = Duration::from_millis(1);
        net.rpc_retries = 1;
        net
    };
    // Client 3 (≡ 0 mod 3) writes to servers 1 and 2.
    let incarnation = || {
        let mut opts = ClientOptions::new(ReplicationConfig::new(servers(3), 2, 2).unwrap());
        opts.ack_timeout = Duration::from_millis(1);
        let mut log = ReplicatedLog::new(ClientId(3), opts, net(1000, &world));
        log.initialize().unwrap();
        log
    };
    let mut observer = net(2000, &world);
    let mut lists = || -> Vec<usize> {
        let mut lens = vec![0; 3];
        for (s, list) in observer.interval_lists(ClientId(3), &servers(3), 3) {
            lens[s.0 as usize - 1] = list.len();
        }
        lens
    };

    let mut log = incarnation();
    for i in 1..=10u64 {
        log.write(vec![i as u8; 40]).unwrap();
    }
    log.force().unwrap();
    let mut t = Table::new(vec!["restarts", "server 1", "server 2", "server 3"]);
    let mut restarts = 0u64;
    for upto in [0u64, 1, 10, 100, 340, 1_000] {
        while restarts < upto {
            log = incarnation();
            restarts += 1;
        }
        let lens = lists();
        let expected = upto as usize + 1;
        assert_eq!(lens, [expected, expected, 0], "after {upto} restarts");
        let mut row = vec![upto.to_string()];
        row.extend(lens.iter().map(ToString::to_string));
        t.row(row);
    }
    for i in 1..=8u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 40].as_slice()
        );
    }
    documented(
        "E10b: intervals each server lists for one log, after restarts (N=2, M=3)",
        &t,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// E12 — §5.3: storage and recovery reads of dump, spool and compression
/// policies, for a server ingesting the §4.1 volume.
#[test]
fn e12_space_management_policies() {
    let gb_per_day = CapacityParams::paper_target()
        .report()
        .gb_per_server_per_day;
    assert_eq!(fmt1(gb_per_day), "10.1");
    let daily = SpacePolicy::daily_dump_online;
    let policies = [
        (
            "no dumps, keep all online (Sec 4.1 'simple')",
            SpacePolicy {
                dump_interval_hours: None,
                checkpoint_interval_hours: 1.0,
                spool_offline: false,
                compression_ratio: 1.0,
                retention_days: 7.0,
            },
        ),
        ("daily dumps, online retention", daily()),
        (
            "daily dumps + spool offline",
            SpacePolicy {
                spool_offline: true,
                ..daily()
            },
        ),
        (
            "daily dumps + spool + 3x compression",
            SpacePolicy {
                spool_offline: true,
                compression_ratio: 3.0,
                ..daily()
            },
        ),
        (
            "6-hourly dumps + spool",
            SpacePolicy {
                dump_interval_hours: Some(6.0),
                spool_offline: true,
                ..daily()
            },
        ),
        (
            "frequent checkpoints (15 min)",
            SpacePolicy {
                checkpoint_interval_hours: 0.25,
                spool_offline: true,
                ..daily()
            },
        ),
    ];
    let mut t = Table::new(vec![
        "policy",
        "online GB",
        "offline GB",
        "node-recovery GB",
        "media-recovery GB",
    ]);
    for (name, p) in &policies {
        let r = p.report(gb_per_day);
        t.row(vec![
            (*name).to_string(),
            fmt2(r.online_gb),
            fmt2(r.offline_gb),
            fmt2(r.node_recovery_gb),
            fmt2(r.media_recovery_gb),
        ]);
    }
    documented(
        "E12: space management policies at 10.1 GB/day per server (the Sec 4.1 load)",
        &t,
    );
}

/// E13 — §5.5: commit-path messages and forces for a P-participant
/// distributed transaction, N = 2.
#[test]
fn e13_common_commit_coordination() {
    let mut t = Table::new(vec![
        "P",
        "2PC+replicated msgs/forces",
        "2PC+local msgs/forces",
        "common-commit msgs/forces",
    ]);
    for p in [1u64, 2, 4, 8] {
        let m = CommitModel {
            participants: p,
            n: 2,
        };
        let cell = |c: dlog_analysis::commit::CommitCost| format!("{} / {}", c.messages, c.forces);
        t.row(vec![
            p.to_string(),
            cell(m.two_phase_replicated()),
            cell(m.two_phase_local()),
            cell(m.common_commit()),
        ]);
    }
    documented("E13: commit-path costs (N = 2)", &t);
}
