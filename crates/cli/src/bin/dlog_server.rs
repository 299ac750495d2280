//! `dlog-server` — run one log-server node over UDP.
//!
//! ```text
//! dlog-server --dir /var/lib/dlog/s1 --listen 127.0.0.1:7001 --id 1
//!             [--shards 4] [--track-kb 64] [--nvram-kb 1024] [--no-fsync true]
//!             [--archive-dir /var/lib/dlog/archive1] [--archive-interval-ms 1000]
//!             [--force-coalesce-us 2000] [--force-coalesce-max 64]
//! ```
//!
//! The server stores every client's records in one sequential CRC-framed
//! stream under `--dir`, buffers them in a simulated NVRAM device (within
//! this process; a crash of the whole process relies on the fsync'd
//! stream), and serves the §4.2 protocol to any client that shows up.
//!
//! Every `--shards` value runs the library's one event loop
//! ([`ShardSupervisor`]): one thread receiving from the socket itself for
//! `--shards 1`, a dispatcher thread feeding N shard loops otherwise. The
//! process exits non-zero when the socket dies or a loop fail-stops (a
//! panic, printed before the exit message; a group-commit round that
//! cannot reach the disk is one at any `--force-coalesce-us`); failed
//! archive rounds are
//! retried and show in the `upload_retries` / `pending` gauges of
//! `dlog status`.

use std::net::SocketAddr;
use std::process::exit;

use dlog_cli::Args;
use dlog_net::udp::UdpEndpoint;
use dlog_net::wire::NodeAddr;
use dlog_server::gen::GenStore;
use dlog_server::shard::ShardSupervisor;
use dlog_server::{LogServer, ServerConfig};
use dlog_storage::{LogStore, NvramDevice, StoreOptions};
use dlog_types::ServerId;

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let dir: String = args.require("dir")?;
    let id: u64 = args.get_or("id", 1)?;
    let track_kb: usize = args.get_or("track-kb", 64)?;
    let nvram_kb: usize = args.get_or("nvram-kb", 1024)?;
    let no_fsync: bool = args.get_or("no-fsync", false)?;

    let opts = StoreOptions {
        track_bytes: track_kb * 1024,
        fsync: !no_fsync,
        ..StoreOptions::default()
    };

    // Maintenance mode: audit the directory and exit.
    if args.get_or("verify", false)? {
        let report = dlog_storage::verify::verify_dir(&dir, &opts)
            .map_err(|e| format!("verify {dir}: {e}"))?;
        println!(
            "{dir}: {} frames, {} records, {} payload bytes, {} clients",
            report.frames,
            report.record_count(),
            report.payload_bytes,
            report.clients.len()
        );
        let mut clients: Vec<_> = report.clients.iter().collect();
        clients.sort_by_key(|(c, _)| **c);
        for (c, list) in clients {
            println!(
                "  {c}: {} intervals, {} records",
                list.len(),
                list.record_count()
            );
        }
        if report.torn_tail_bytes > 0 {
            println!(
                "  torn tail: {} bytes (recovered on next start)",
                report.torn_tail_bytes
            );
        }
        for (c, n) in &report.orphan_staged {
            println!("  {c}: {n} staged records never installed");
        }
        if let Some(e) = &report.structural_error {
            return Err(format!("structural error: {e}"));
        }
        println!(
            "status: {}",
            if report.healthy() {
                "healthy"
            } else {
                "needs recovery"
            }
        );
        return Ok(());
    }

    let listen: SocketAddr = args.require("listen")?;
    let shards: u64 = args.get_or("shards", 1)?;
    let shards = shards.max(1);
    // Group commit: forces arriving within the window share one physical
    // durability round. 0 (the default) commits each force in a round
    // of its own before the server replies.
    let coalesce_us: u64 = args.get_or("force-coalesce-us", 0)?;
    let coalesce_max: usize = args.get_or("force-coalesce-max", 64)?;
    if coalesce_us > 0 {
        eprintln!(
            "dlog-server {id}: group commit on (window {coalesce_us} us, max batch {})",
            coalesce_max.max(1)
        );
    }
    // Observability on by default so `dlog stats` has data to show;
    // --no-obs true reverts to the zero-cost disabled handle. Each shard
    // gets its own handle so per-shard `Stats` rows never double-count.
    let no_obs: bool = args.get_or("no-obs", false)?;
    let archive_dir = args.get::<String>("archive-dir")?;
    let archive_interval_ms: u64 = args.get_or("archive-interval-ms", 1000)?;

    // One log server per shard, each over its own storage root (the
    // `--dir` itself when unsharded, `--dir/shard-K` otherwise).
    let mut servers = Vec::new();
    let mut obs0 = dlog_obs::Obs::off();
    for k in 0..shards {
        let shard_dir = if shards == 1 {
            dir.clone()
        } else {
            format!("{dir}/shard-{k}")
        };
        let nvram = NvramDevice::new(nvram_kb * 1024);
        let store = LogStore::open(&shard_dir, opts.clone(), nvram)
            .map_err(|e| format!("open store {shard_dir}: {e}"))?;
        let gens = GenStore::open(format!("{shard_dir}/gens"))
            .map_err(|e| format!("open generator store: {e}"))?;
        let mut config = ServerConfig::new(ServerId(id)).for_shard(k, shards);
        config.coalesce_window = std::time::Duration::from_micros(coalesce_us);
        config.coalesce_max_batch = coalesce_max.max(1);
        let mut server =
            LogServer::new(config, store, gens).map_err(|e| format!("construct server: {e}"))?;
        let obs = if no_obs {
            dlog_obs::Obs::off()
        } else {
            dlog_obs::Obs::new(&dlog_obs::ObsOptions::on())
        };
        server.set_obs(obs.clone());
        if k == 0 {
            obs0 = obs;
        }
        if let Some(archive_root) = &archive_dir {
            let shard_archive = if shards == 1 {
                archive_root.clone()
            } else {
                format!("{archive_root}/shard-{k}")
            };
            let objects = dlog_archive::LocalDirStore::open(&shard_archive)
                .map_err(|e| format!("open archive {shard_archive}: {e}"))?;
            server
                .attach_archive(
                    std::sync::Arc::new(objects),
                    std::time::Duration::from_millis(archive_interval_ms),
                )
                .map_err(|e| format!("attach archive {shard_archive}: {e}"))?;
            eprintln!(
                "dlog-server {id}: shard {k} archiving to {shard_archive} \
                 every {archive_interval_ms} ms"
            );
        }
        servers.push(server);
    }

    let mut ep =
        UdpEndpoint::bind(NodeAddr(id), listen).map_err(|e| format!("bind {listen}: {e}"))?;
    ep.set_obs(obs0);
    ep.set_promiscuous(true);
    let bound = ep.socket_addr().map_err(|e| e.to_string())?;
    eprintln!("dlog-server {id}: serving {dir} on {bound} with {shards} shard(s) (ctrl-c to stop)");

    // One event loop per shard, the same loop for every `--shards`
    // value; this thread only waits for one of them to leave, which
    // without a stop request means the socket died or a loop panicked.
    let sup = ShardSupervisor::spawn(servers, ep);
    sup.wait().map_err(|e| format!("socket error: {e}"))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("dlog-server: {e}");
        eprintln!(
            "usage: dlog-server --dir DIR --listen HOST:PORT [--id N] [--shards 1] \
             [--track-kb 64] [--nvram-kb 1024] [--no-fsync true] [--no-obs true] \
             [--archive-dir DIR] [--archive-interval-ms 1000] \
             [--force-coalesce-us 0] [--force-coalesce-max 64]"
        );
        exit(1);
    }
}
