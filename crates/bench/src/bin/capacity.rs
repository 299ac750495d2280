//! **E3 — §4.1 capacity analysis**: the paper's target load (50 clients ×
//! 10 ET1 TPS, six servers, N = 2) evaluated analytically, next to a
//! *measured* scaled-down live run on the in-process cluster whose
//! per-transaction packet and byte counts validate the model's inputs.
//!
//! Regenerate with: `cargo run -p dlog-bench --bin capacity --release`

use dlog_analysis::table::{fmt1, fmt2, Table};
use dlog_analysis::CapacityParams;
use dlog_bench::{Cluster, ClusterOptions};
use dlog_types::Lsn;
use dlog_workload::et1::profile;
use dlog_workload::recovery::LogMode;
use dlog_workload::{BankDb, Et1Config, RecoveryManager};

fn main() {
    analytic();
    measured();
    concurrent();
}

fn analytic() {
    let r = CapacityParams::paper_target().report();
    println!("Section 4.1 capacity analysis — paper target (500 TPS, 6 servers, N=2)\n");
    let mut t = Table::new(vec!["quantity", "model", "paper"]);
    t.row(vec![
        "messages/server/s, ungrouped".into(),
        fmt1(r.messages_per_server_ungrouped),
        "~2400".to_string(),
    ]);
    t.row(vec![
        "RPCs/server/s, grouped".into(),
        fmt1(r.rpcs_per_server_grouped),
        "~170".to_string(),
    ]);
    t.row(vec![
        "grouping factor".into(),
        fmt1(r.grouping_factor),
        "7".to_string(),
    ]);
    t.row(vec![
        "network Mbit/s".into(),
        fmt2(r.network_megabits_per_sec),
        "~7".to_string(),
    ]);
    t.row(vec![
        "comm CPU fraction".into(),
        fmt2(r.comm_cpu_fraction),
        "<0.10".to_string(),
    ]);
    t.row(vec![
        "logging CPU fraction".into(),
        fmt2(r.logging_cpu_fraction),
        "0.10-0.20".to_string(),
    ]);
    t.row(vec![
        "disk utilization".into(),
        fmt2(r.disk_utilization),
        "~0.50".to_string(),
    ]);
    t.row(vec![
        "GB/server/day".into(),
        fmt1(r.gb_per_server_per_day),
        "~10".to_string(),
    ]);
    println!("{}", t.render());
}

fn measured() {
    // Scaled-down live validation: 5 clients, 6 servers, N=2, 200 ET1
    // transactions each. We verify the model's per-transaction inputs —
    // records, bytes, forces, packets — on the real protocol stack.
    let clients = 5u64;
    let txns_per_client = 200u64;
    let mut cluster = Cluster::start("capacity", ClusterOptions::new(6));
    let mut total_records = 0u64;
    let mut total_payload = 0u64;
    let mut total_packets_out = 0u64;
    let start = std::time::Instant::now();
    for c in 0..clients {
        let mut log = cluster.client(c + 1, 2, 16);
        log.initialize().unwrap();
        let db = BankDb::new(10_000, 100, 10);
        let mut mgr = RecoveryManager::new(log, db, LogMode::Classic, 1 << 20);
        let mut gen = dlog_workload::Et1Generator::new(Et1Config::small(c));
        for _ in 0..txns_per_client {
            mgr.run_et1(&gen.next_txn()).unwrap();
        }
        let log = mgr.log_mut();
        let end = dlog_workload::recovery::LogAccess::end_of_log(log).unwrap();
        assert_eq!(end, Lsn(txns_per_client * profile::RECORDS_PER_TXN as u64));
        total_records += Lsn::FIRST.span_to(end);
        total_payload += log.stats().bytes_written;
        total_packets_out += log.net_stats().packets_out;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = cluster.stop_all();

    println!(
        "Measured mini-cluster ({clients} clients x {txns_per_client} ET1 txns, 6 servers, N=2)\n"
    );
    let txns = clients * txns_per_client;
    let mut t = Table::new(vec!["quantity", "measured", "model input"]);
    t.row(vec![
        "records per txn".into(),
        fmt2(total_records as f64 / txns as f64),
        "7".to_string(),
    ]);
    t.row(vec![
        "log bytes per txn".into(),
        fmt2(total_payload as f64 / txns as f64),
        "700".to_string(),
    ]);
    t.row(vec![
        "client packets out per txn (incl. epoch + init)".into(),
        fmt2(total_packets_out as f64 / txns as f64),
        "N = 2 forces + acks".to_string(),
    ]);
    let server_in: u64 = stats.iter().map(|(_, s, _)| s.packets_in).sum();
    let server_out: u64 = stats.iter().map(|(_, s, _)| s.packets_out).sum();
    t.row(vec![
        "server packets (in+out) per txn".into(),
        fmt2((server_in + server_out) as f64 / txns as f64),
        "~4 (2 in + 2 acks)".to_string(),
    ]);
    let stored: u64 = stats.iter().map(|(_, s, _)| s.records_stored).sum();
    t.row(vec![
        "stored copies per record".into(),
        fmt2(stored as f64 / total_records as f64),
        "2 (N)".to_string(),
    ]);
    t.row(vec![
        "aggregate TPS achieved (wall clock)".into(),
        fmt1(txns as f64 / elapsed),
        "(in-process; sequential clients)".to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "Model check: grouping keeps server packet counts at ~4/txn instead of ~4*{} = {}/txn.",
        profile::RECORDS_PER_TXN,
        4 * profile::RECORDS_PER_TXN
    );
}

/// The paper\'s configuration in miniature, under real concurrency: 10
/// client threads sharing 6 servers, each committing ET1 transactions as
/// fast as the protocol allows. The paper targets 500 TPS aggregate on
/// 1987 hardware; the shape claim is simply that the shared servers are
/// nowhere near the bottleneck.
fn concurrent() {
    let clients = 10u64;
    let txns_per_client = 150u64;
    let cluster = Cluster::start("capacity-conc", ClusterOptions::new(6));
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let cluster = &cluster;
            scope.spawn(move || {
                let mut log = cluster.client(c + 1, 2, 16);
                log.initialize().unwrap();
                let db = BankDb::new(10_000, 100, 10);
                let mut mgr = RecoveryManager::new(log, db, LogMode::Classic, 1 << 20);
                let mut gen = dlog_workload::Et1Generator::new(Et1Config::small(c));
                for _ in 0..txns_per_client {
                    mgr.run_et1(&gen.next_txn()).unwrap();
                }
                assert!(mgr.db().conserved());
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let txns = clients * txns_per_client;
    println!(
        "\nConcurrent phase: {clients} client threads x {txns_per_client} ET1 txns over 6 shared \
         servers\n  aggregate: {:.0} TPS ({:.1} ms total) — the paper\'s 500 TPS target load is \
         {:.1}x below this machine\'s capacity.",
        txns as f64 / elapsed,
        elapsed * 1e3,
        (txns as f64 / elapsed) / 500.0
    );
}
