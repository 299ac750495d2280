//! `dlog` — the replicated-log client, on the command line.
//!
//! ```text
//! dlog --servers H:P,H:P,H:P [--client 1] [--n 2] [--delta 8] COMMAND ...
//!
//! commands:
//!   append TEXT...      WriteLog + force each TEXT, print the LSNs
//!   read LSN            print the record at LSN
//!   tail [K]            print the last K (default 10) records
//!   end                 print EndOfLog
//!   repair              re-replicate under-replicated records (§5.3)
//!   status              print each server's operational counters
//!   stats [--json]      print per-stage latency histograms (Stats RPC)
//!   bench [TXNS]        run ET1 transactions (default 100), print TPS
//!
//! offline archive maintenance (no --servers; the server must be stopped):
//!   archive status  --archive DIR            inspect the newest manifest
//!   archive push    --archive DIR --dir DIR  archive everything durable
//!   archive restore --archive DIR --dir DIR  rebuild DIR from the archive
//! ```
//!
//! Each invocation is one client *incarnation*: it runs the §3.1.2
//! restart procedure (drawing a fresh crash epoch and masking δ LSNs)
//! before touching the log — which is exactly what the paper's client
//! node does every time it boots.

use std::process::exit;

use dlog_cli::{parse_server_list, udp_client, Args};
use dlog_types::{DlogError, Lsn};
use dlog_workload::recovery::LogMode;
use dlog_workload::{BankDb, Et1Config, Et1Generator, RecoveryManager};

fn usage() -> &'static str {
    "usage: dlog --servers H:P,H:P,... [--client N] [--n 2] [--delta 8] COMMAND\n\
     commands: append TEXT... | read LSN | tail [K] | end | repair | status | stats [--json] | bench [TXNS]\n\
     offline:  archive status --archive DIR\n\
               archive push --archive DIR --dir DIR [--track-kb 64] [--nvram-kb 1024]\n\
               archive restore --archive DIR --dir DIR"
}

/// `dlog archive {status,push,restore}` — offline archive maintenance
/// against a local-directory object store. `push` and `restore` open the
/// server's store directory directly, so the server must be stopped.
fn run_archive(args: &Args) -> Result<(), String> {
    use dlog_archive::{load_latest, restore, Archiver, LocalDirStore};
    use dlog_storage::{LogStore, NvramDevice, StoreOptions};
    use std::sync::Arc;

    let sub = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("archive needs a subcommand: status | push | restore")?;
    let archive_dir: String = args.require("archive")?;
    let objects = LocalDirStore::open(&archive_dir)
        .map_err(|e| format!("open archive {archive_dir}: {e}"))?;
    match sub {
        "status" => match load_latest(&objects).map_err(|e| e.to_string())? {
            Some(m) => {
                println!(
                    "{archive_dir}: generation {}, {} segments, {} archived bytes, \
                     stream [{}, {}), cut {}, last manifest lsn {}",
                    m.generation,
                    m.segments.len(),
                    m.archived_bytes(),
                    m.start(),
                    m.restore_end,
                    m.cut,
                    m.last_lsn().map_err(|e| e.to_string())?,
                );
            }
            None => println!("{archive_dir}: no valid manifest (empty archive)"),
        },
        "push" | "restore" => {
            let dir: String = args.require("dir")?;
            if sub == "restore" {
                let m = restore(&objects, &dir).map_err(|e| e.to_string())?;
                println!(
                    "restored {dir} from generation {}: {} segments, {} bytes",
                    m.generation,
                    m.segments.len(),
                    m.archived_bytes()
                );
                return Ok(());
            }
            let track_kb: usize = args.get_or("track-kb", 64)?;
            let nvram_kb: usize = args.get_or("nvram-kb", 1024)?;
            let opts = StoreOptions {
                track_bytes: track_kb * 1024,
                ..StoreOptions::default()
            };
            let mut store = LogStore::open(&dir, opts, NvramDevice::new(nvram_kb * 1024))
                .map_err(|e| format!("open store {dir}: {e}"))?;
            let mut archiver = Archiver::new(Arc::new(objects)).map_err(|e| e.to_string())?;
            let before = archiver.manifest().map_or(0, |m| m.restore_end);
            let m = archiver
                .archive_now(&mut store)
                .map_err(|e| e.to_string())?;
            println!(
                "pushed {} new bytes: generation {}, archive covers [{}, {})",
                m.restore_end - before,
                m.generation,
                m.start(),
                m.restore_end
            );
        }
        other => return Err(format!("unknown archive subcommand {other:?}")),
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw
        .iter()
        .any(|a| a == "help" || a == "--help" || a == "-h")
    {
        println!("{}", usage());
        return Ok(());
    }
    // `--json` is a bare flag; the Args parser only understands
    // `--key value` pairs, so extract it before parsing.
    let json = raw.iter().any(|a| a == "--json");
    raw.retain(|a| a != "--json");
    let args = Args::parse(raw.into_iter())?;
    if args.positional.first().map(String::as_str) == Some("archive") {
        return run_archive(&args);
    }
    let servers = parse_server_list(&args.require::<String>("servers")?)?;
    let client: u64 = args.get_or("client", 1)?;
    let n: usize = args.get_or("n", 2.min(servers.len()))?;
    let delta: u64 = args.get_or("delta", 8)?;

    let mut log = udp_client(client, &servers, n, delta)?;
    let cmd = args.positional.first().map(String::as_str).unwrap_or("end");
    if cmd == "status" {
        // Status needs no log initialization (and works even when the
        // init quorum is unavailable).
        use dlog_net::wire::Response;
        for (i, sock) in servers.iter().enumerate() {
            let sid = dlog_types::ServerId(i as u64 + 1);
            match log.server_status(sid) {
                Ok(Response::Status {
                    records_stored,
                    duplicates_ignored,
                    naks_sent,
                    rpcs,
                    forces_acked,
                    clients,
                    on_disk_bytes,
                    tracks_flushed,
                    archived_bytes,
                    pending_upload_bytes,
                    last_manifest_lsn,
                    upload_retries,
                    coalesced_forces,
                    group_commits,
                    shard: _,
                    shards,
                }) => {
                    // A sharded server's row sums every shard's counters.
                    let sock = if shards > 1 {
                        format!("{sock} ({shards} shards)")
                    } else {
                        sock.to_string()
                    };
                    println!(
                        "{sock}: {records_stored} records, {clients} clients, {on_disk_bytes} bytes on disk, {tracks_flushed} tracks, {forces_acked} forces acked, {rpcs} rpcs, {naks_sent} naks, {duplicates_ignored} dups ignored"
                    );
                    println!(
                        "{sock}: archive: {archived_bytes} bytes archived, {pending_upload_bytes} pending upload, last manifest lsn {last_manifest_lsn}, {upload_retries} upload retries"
                    );
                    println!(
                        "{sock}: group commit: {coalesced_forces} forces coalesced into {group_commits} commits"
                    );
                }
                Ok(other) => println!("{sock}: unexpected reply {other:?}"),
                Err(e) => println!("{sock}: unreachable ({e})"),
            }
        }
        return Ok(());
    }
    if cmd == "stats" {
        // Like status: needs no log initialization, so a degraded cluster
        // can still be inspected.
        use dlog_net::wire::Response;
        use dlog_obs::{HistogramSnapshot, Stage};
        let mut merged: Vec<(u8, HistogramSnapshot)> = Vec::new();
        let mut total_events = 0u64;
        let mut total_dropped = 0u64;
        let mut total_allocs = 0u64;
        let mut total_records = 0u64;
        let mut reached = 0usize;
        for (i, sock) in servers.iter().enumerate() {
            let sid = dlog_types::ServerId(i as u64 + 1);
            match log.server_stats(sid) {
                Ok(Response::Stats {
                    stages,
                    trace_events,
                    trace_dropped,
                    ingest_allocs,
                    ingest_records,
                    shard: _,
                    shards,
                }) => {
                    reached += 1;
                    if !json && shards > 1 {
                        println!("{sock}: {shards} shards (merged rows follow)");
                    }
                    total_events += trace_events;
                    total_dropped += trace_dropped;
                    total_allocs += ingest_allocs;
                    total_records += ingest_records;
                    if !json {
                        println!(
                            "{sock}: {trace_events} trace events ({trace_dropped} dropped), \
                             {} instrumented stages, {ingest_records} records ingested \
                             ({ingest_allocs} ingest allocs)",
                            stages.len()
                        );
                    }
                    for st in stages {
                        let snap = HistogramSnapshot::from_sparse(&st.buckets, st.max_ns);
                        match merged.iter_mut().find(|(s, _)| *s == st.stage) {
                            Some((_, m)) => *m = m.merge(&snap),
                            None => merged.push((st.stage, snap)),
                        }
                    }
                }
                Ok(other) => eprintln!("{sock}: unexpected reply {other:?}"),
                Err(e) => eprintln!("{sock}: unreachable ({e})"),
            }
        }
        merged.sort_by_key(|(s, _)| *s);
        let stage_name =
            |s: u8| Stage::from_u8(s).map_or("unknown".to_string(), |st| st.name().to_string());
        if json {
            let mut out = String::new();
            out.push_str("{\n");
            out.push_str(&format!("  \"servers_reached\": {reached},\n"));
            out.push_str(&format!("  \"trace_events\": {total_events},\n"));
            out.push_str(&format!("  \"trace_dropped\": {total_dropped},\n"));
            out.push_str(&format!("  \"ingest_allocs\": {total_allocs},\n"));
            out.push_str(&format!("  \"ingest_records\": {total_records},\n"));
            out.push_str(&format!(
                "  \"allocs_per_write\": {:.3},\n",
                total_allocs as f64 / total_records.max(1) as f64
            ));
            out.push_str("  \"stages\": {\n");
            for (k, (s, h)) in merged.iter().enumerate() {
                let comma = if k + 1 < merged.len() { "," } else { "" };
                out.push_str(&format!(
                    "    \"{}\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
                     \"p99_ns\": {}, \"max_ns\": {}}}{comma}\n",
                    stage_name(*s),
                    h.count(),
                    h.percentile(0.50),
                    h.percentile(0.95),
                    h.percentile(0.99),
                    h.max
                ));
            }
            out.push_str("  }\n}");
            println!("{out}");
        } else {
            for (s, h) in &merged {
                println!(
                    "{:>14}: n={} p50={}ns p95={}ns p99={}ns max={}ns",
                    stage_name(*s),
                    h.count(),
                    h.percentile(0.50),
                    h.percentile(0.95),
                    h.percentile(0.99),
                    h.max
                );
            }
            if merged.is_empty() {
                println!("no instrumented stages reported (servers run with obs off?)");
            }
            if total_records > 0 {
                println!(
                    "allocs_per_write: {:.3} ({total_allocs} allocs / {total_records} records)",
                    total_allocs as f64 / total_records as f64
                );
            }
        }
        return Ok(());
    }
    log.initialize().map_err(|e| format!("initialize: {e}"))?;
    match cmd {
        "append" => {
            if args.positional.len() < 2 {
                return Err("append needs at least one TEXT argument".into());
            }
            for text in &args.positional[1..] {
                let lsn = log.write(text.as_bytes()).map_err(|e| e.to_string())?;
                println!("{lsn}");
            }
            log.force().map_err(|e| format!("force: {e}"))?;
        }
        "read" => {
            let lsn: u64 = args
                .positional
                .get(1)
                .ok_or("read needs an LSN")?
                .parse()
                .map_err(|e| format!("bad LSN: {e}"))?;
            match log.read(Lsn(lsn)) {
                Ok(d) => println!("{}", String::from_utf8_lossy(d.as_bytes())),
                Err(DlogError::NotPresent { .. }) => println!("(not present)"),
                Err(e) => return Err(e.to_string()),
            }
        }
        "tail" => {
            let k: u64 = args
                .positional
                .get(1)
                .map_or(Ok(10), |s| s.parse())
                .unwrap_or(10);
            let end = log.end_of_log().map_err(|e| e.to_string())?;
            // The last `k` LSNs of the log, never below the first.
            let lo = end.back(k).map_or(Lsn::FIRST, Lsn::next);
            for l in lo.0..=end.0 {
                match log.read(Lsn(l)) {
                    Ok(d) => println!("{l}: {}", String::from_utf8_lossy(d.as_bytes())),
                    Err(DlogError::NotPresent { .. }) => println!("{l}: (not present)"),
                    Err(e) => println!("{l}: <error: {e}>"),
                }
            }
        }
        "end" => {
            println!("{}", log.end_of_log().map_err(|e| e.to_string())?);
        }
        "repair" => {
            let report = log.repair().map_err(|e| e.to_string())?;
            println!(
                "live servers: {}, examined: {}, under-replicated: {}, copied: {}",
                report.live_servers,
                report.records_examined,
                report.under_replicated,
                report.records_copied
            );
        }
        "bench" => {
            let txns: u64 = args
                .positional
                .get(1)
                .map_or(Ok(100), |s| s.parse())
                .unwrap_or(100);
            let db = BankDb::new(10_000, 100, 10);
            let mut mgr = RecoveryManager::new(log, db, LogMode::Classic, 1 << 20);
            let mut gen = Et1Generator::new(Et1Config::small(client));
            let start = std::time::Instant::now();
            for _ in 0..txns {
                mgr.run_et1(&gen.next_txn()).map_err(|e| e.to_string())?;
            }
            let dt = start.elapsed();
            println!(
                "{txns} ET1 transactions in {:.1} ms = {:.0} TPS",
                dt.as_secs_f64() * 1e3,
                txns as f64 / dt.as_secs_f64()
            );
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("dlog: {e}");
        eprintln!("{}", usage());
        exit(1);
    }
}
