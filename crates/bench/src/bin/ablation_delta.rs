//! **E11 — the δ bound** (§4.2): the client limits unacknowledged records
//! to δ so that "no more than δ log records are partially written"; the
//! restart procedure must then copy δ records and append δ not-present
//! masks. Larger δ buys write pipelining but makes every recovery rewrite
//! (and mask) more records.
//!
//! Regenerate with: `cargo run -p dlog-bench --bin ablation_delta --release`

use std::time::Instant;

use dlog_analysis::table::{fmt1, fmt2, Table};
use dlog_bench::{payload, Cluster, ClusterOptions};

fn main() {
    let records: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);
    println!("E11: force throughput and recovery cost vs the in-flight bound delta\n");
    let mut t = Table::new(vec![
        "delta",
        "force elapsed (ms)",
        "records/s",
        "recovery copies",
        "masked LSNs",
        "recovery (ms)",
    ]);
    for delta in [1u64, 2, 4, 8, 16, 32] {
        let cluster = Cluster::start(&format!("e11-{delta}"), ClusterOptions::new(3));
        // Write and force a stream of records in groups of 20.
        let (write_elapsed, written);
        {
            let mut log = cluster.client(1, 2, delta);
            log.initialize().unwrap();
            let start = Instant::now();
            for i in 1..=records {
                log.write(payload(i, 100)).unwrap();
                if i % 20 == 0 {
                    log.force().unwrap();
                }
            }
            written = log.force().unwrap();
            write_elapsed = start.elapsed();
            // Crash.
        }
        // Restart: measure the recovery rewrite.
        let mut log = cluster.client(1, 2, delta);
        let start = Instant::now();
        log.initialize().unwrap();
        let recovery_elapsed = start.elapsed();
        let stats = log.stats();
        let end = log.end_of_log().unwrap();
        t.row(vec![
            delta.to_string(),
            fmt2(write_elapsed.as_secs_f64() * 1e3),
            fmt1(records as f64 / write_elapsed.as_secs_f64()),
            stats.recovery_copies.to_string(),
            written.distance(end).unwrap().to_string(),
            fmt2(recovery_elapsed.as_secs_f64() * 1e3),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Recovery copies = 2*delta (the last delta records re-epoched plus delta\n\
         not-present masks); masked LSNs grow linearly with delta while larger\n\
         windows raise streaming throughput."
    );
}
