//! The traced pass: where the per-layer numbers come from.
//!
//! Four sources, one per metric (the README's glossary says which):
//! *count* — the crates' public counters read around an untraced
//! reference window; *situ* — spans taken by the endpoint wrappers and
//! around client calls while the real threads run; *inline* — the
//! single-threaded pass of [`crate::inline`]; *replay* — the tight
//! loops of [`crate::replay`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::BufWriter;
use std::path::Path;
use std::time::Duration;

use dlog_core::client::ClientStats;
use dlog_core::net::NetClientStats;
use dlog_net::mem::NetStats;
use dlog_net::Endpoint;
use dlog_obs::gauge;
use dlog_server::{LogServer, ServerStats};
use dlog_storage::{NvramDevice, StoreStats};
use dlog_types::ServerId;

use crate::cluster::{
    client_addr, client_over, open_server, server_addr, spread_client_ids, Transport, NVRAM_BYTES,
};
use crate::gen::{OpStream, Stream};
use crate::inline::{InlineEndpoint, Servers};
use crate::phases::{
    read_window, verify_stores, write_window, Extent, ReadWindow, Until, WriteWindow, Writer,
};
use crate::procfs;
use crate::replay::{self, Replay};
use crate::report::{short, Outcome, Value};
use crate::run::{boot, commits_so_far, restart, user_bytes, warm_up, Booted, Plan};
use crate::span::{child_nanos, write_jsonl, Span, Tracer};
use crate::spec::{Timed, Workload, PER_LAYER};

/// Commits (over all clients) in a traced window: enough for steady
/// means, few enough that the spans stay in memory and the trace file
/// stays in the tens of megabytes.
const TRACED_COMMITS: u64 = 4_000;

/// Everything the crates count, summed over the writers and the process.
#[derive(Clone, Copy, Default)]
struct Counters {
    client: ClientStats,
    net: NetClientStats,
    wire: NetStats,
    allocs: u64,
    alloc_bytes: u64,
    gen_allocs: u64,
    cpu_us: u64,
    ctx: u64,
    commits: u64,
    user_bytes: u64,
}

fn counters<E: Endpoint>(writers: &[Writer<E>], wire: NetStats) -> Counters {
    let mut c = Counters {
        wire,
        allocs: gauge::process_allocs(),
        alloc_bytes: gauge::process_alloc_bytes(),
        cpu_us: procfs::cpu_us(),
        ctx: procfs::ctx_switches(),
        commits: commits_so_far(writers),
        user_bytes: user_bytes(writers),
        ..Counters::default()
    };
    for w in writers {
        let (s, n) = (w.log.stats(), w.log.net_stats());
        c.client.records_written += s.records_written;
        c.client.resends += s.resends;
        c.client.switches += s.switches;
        c.client.window_stalls += s.window_stalls;
        c.net.packets_out += n.packets_out;
        c.net.naks_in += n.naks_in;
        c.gen_allocs += w.gen_allocs;
    }
    c
}

/// The named values of one pass, filled from several sources.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.0.insert(name, if v.is_finite() { v } else { 0.0 });
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn mean_nanos<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    let (mut sum, mut n) = (0u64, 0u64);
    for s in spans {
        sum += s.nanos();
        n += 1;
    }
    ratio(sum as f64, n as f64)
}

/// Counters read around the untraced reference window.
fn count_metrics(l: &mut Layers, w: &Workload, a: &Counters, b: &Counters) {
    let commits = (b.commits - a.commits) as f64;
    let records = commits * w.shape.records_per_commit() as f64;
    let packets = (b.net.packets_out - a.net.packets_out) as f64;
    l.set(
        "core.records_per_packet",
        ratio(records * w.cluster.replicas as f64, packets),
    );
    l.set("core.packets_per_commit", ratio(packets, commits));
    let per_k = |x: u64, y: u64| ratio((y - x) as f64 * 1000.0, commits);
    l.set(
        "core.window_stalls_per_kcommit",
        per_k(a.client.window_stalls, b.client.window_stalls),
    );
    l.set(
        "core.resends_per_kcommit",
        per_k(a.client.resends, b.client.resends),
    );
    l.set("core.naks_per_kcommit", per_k(a.net.naks_in, b.net.naks_in));
    l.set(
        "core.switches",
        (b.client.switches - a.client.switches) as f64,
    );
    let sent = (b.wire.sent - a.wire.sent) as f64;
    let per_kpkt = |x: u64, y: u64| ratio((y - x) as f64 * 1000.0, sent);
    l.set(
        "mem.dropped_per_kpkt",
        per_kpkt(a.wire.dropped, b.wire.dropped),
    );
    l.set(
        "mem.duplicated_per_kpkt",
        per_kpkt(a.wire.duplicated, b.wire.duplicated),
    );
    l.set(
        "mem.reordered_per_kpkt",
        per_kpkt(a.wire.reordered, b.wire.reordered),
    );
    // The generator's own allocations (one buffer per record, exactly
    // the payload bytes) are not the program's.
    let allocs = (b.allocs - a.allocs).saturating_sub(b.gen_allocs - a.gen_allocs);
    let bytes = (b.alloc_bytes - a.alloc_bytes).saturating_sub(b.user_bytes - a.user_bytes);
    l.set("process.allocs_per_rec", ratio(allocs as f64, records));
    l.set("process.alloc_bytes_per_rec", ratio(bytes as f64, records));
    l.set(
        "process.cpu_us_per_commit",
        ratio((b.cpu_us - a.cpu_us) as f64, commits),
    );
    l.set(
        "process.ctx_switches_per_commit",
        ratio((b.ctx - a.ctx) as f64, commits),
    );
}

/// Counters of the stopped servers (cumulative since boot).
fn server_metrics(l: &mut Layers, servers: &[(ServerId, LogServer)], commits: u64) {
    let stats: Vec<(ServerId, ServerStats, StoreStats)> = servers
        .iter()
        .map(|(sid, s)| (*sid, s.stats(), s.store_stats()))
        .collect();
    let sum = |f: &dyn Fn(&ServerStats, &StoreStats) -> u64| -> f64 {
        stats.iter().map(|(_, a, b)| f(a, b)).sum::<u64>() as f64
    };
    let commits = commits as f64;
    l.set(
        "server.forces_per_group_commit",
        ratio(
            sum(&|a, _| a.coalesced_forces),
            sum(&|a, _| a.group_commits),
        ),
    );
    l.set(
        "server.acks_per_commit",
        ratio(sum(&|a, _| a.forces_acked), commits),
    );
    l.set(
        "server.duplicates_ignored_per_krec",
        ratio(
            sum(&|a, _| a.duplicates_ignored) * 1000.0,
            sum(&|a, _| a.records_stored),
        ),
    );
    l.set(
        "server.naks_sent_per_kcommit",
        ratio(sum(&|a, _| a.naks_sent) * 1000.0, commits),
    );
    l.set(
        "storage.fsyncs_per_commit",
        ratio(sum(&|_, b| b.fsyncs), commits),
    );
    l.set(
        "storage.tracks_flushed_per_mb",
        ratio(
            sum(&|_, b| b.tracks_flushed),
            sum(&|_, b| b.bytes_written) / 1e6,
        ),
    );
    // Records per shard index, summed over the servers: the slice
    // arrives in shard order within each server.
    let mut per_shard: Vec<f64> = Vec::new();
    let mut last = None;
    let mut k = 0;
    for (sid, a, _) in &stats {
        k = if last == Some(*sid) { k + 1 } else { 0 };
        last = Some(*sid);
        if per_shard.len() <= k {
            per_shard.push(0.0);
        }
        per_shard[k] += a.records_stored as f64;
    }
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let skew = ratio(per_shard.iter().copied().fold(0.0, f64::max), mean);
    l.set("server.shard_skew", skew);
}

/// Spans of the threaded traced window.
fn situ_metrics<T: Transport>(l: &mut Layers, w: &Workload, spans: &[Span]) {
    let is_client = |s: &Span| s.node >= 1000;
    let forces: Vec<&Span> = spans.iter().filter(|s| s.name == "core.force").collect();
    let commits = forces.len() as f64;
    let force_ids: HashSet<u32> = forces.iter().map(|s| s.id).collect();
    let waited: u64 = spans
        .iter()
        .filter(|s| s.name == "recv" && force_ids.contains(&s.parent))
        .map(Span::nanos)
        .sum();
    l.set("core.force_wait_us", ratio(waited as f64 / 1e3, commits));
    let writes = spans.iter().filter(|s| s.name == "core.write");
    let (write_ns, written) = writes.fold((0u64, 0u64), |(ns, n), s| {
        (ns + s.nanos(), n + u64::from(s.n))
    });
    l.set(
        "core.write_ns_per_rec",
        ratio(write_ns as f64, written as f64),
    );

    let sends: Vec<&Span> = spans.iter().filter(|s| s.name == "send").collect();
    let send_ns = mean_nanos(sends.iter().copied());
    let datagrams: u64 = sends.iter().map(|s| u64::from(s.n)).sum();
    let wire_bytes: u64 = sends
        .iter()
        .map(|s| u64::from(s.n) * u64::from(s.bytes))
        .sum();
    // The transport the workload does not run over gets its figure from
    // the replay's ping-pong instead.
    if T::NAME == "mem" {
        l.set("mem.send_ns_per_call", send_ns);
        l.set("udp.datagrams_per_commit", 0.0);
    } else {
        l.set("udp.send_ns_per_call", send_ns);
        l.set("udp.datagrams_per_commit", ratio(datagrams as f64, commits));
    }
    l.set(
        "wire.bytes_per_user_byte",
        ratio(
            wire_bytes as f64,
            commits * w.shape.bytes_per_commit() as f64,
        ),
    );
    l.set(
        "wire.bytes_per_pkt",
        ratio(wire_bytes as f64, datagrams as f64),
    );

    // Server loops: busy is the time between a receive returning and the
    // next one starting; a wake-up is a receive that was allowed to
    // sleep and came back with a packet.
    let mut lanes: BTreeMap<(u64, u32), Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "recv" && !is_client(s)) {
        lanes.entry((s.node, s.lane)).or_default().push(s);
    }
    let (mut busy_fracs, mut packets, mut wakeups) = (Vec::new(), 0u64, 0u64);
    for recvs in lanes.values() {
        let got: u64 = recvs.iter().map(|s| u64::from(s.n)).sum();
        if got == 0 {
            continue;
        }
        packets += got;
        wakeups += recvs.iter().filter(|s| s.blocking && s.n > 0).count() as u64;
        let busy: u64 = recvs
            .windows(2)
            .map(|p| p[1].start.saturating_sub(p[0].end))
            .sum();
        let total = recvs[recvs.len() - 1].end - recvs[0].start;
        busy_fracs.push(ratio(busy as f64, total as f64));
    }
    l.set(
        "server.busy_frac",
        ratio(busy_fracs.iter().sum(), busy_fracs.len() as f64),
    );
    l.set(
        "server.pkts_per_wakeup",
        ratio(packets as f64, wakeups as f64),
    );

    // The commit waits for the slower of its N acknowledgments: the gap
    // between the first and the second replica's ack of a commit's LSN
    // reaching the client.
    let commit_lsns: HashSet<(u64, u64)> = forces.iter().map(|s| (s.node, s.lsn)).collect();
    let mut acks: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| {
        s.name == "recv" && is_client(s) && s.n > 0 && commit_lsns.contains(&(s.node, s.lsn))
    }) {
        let seen = acks.entry((s.node, s.lsn)).or_default();
        if !seen.iter().any(|(peer, _)| *peer == s.peer) {
            seen.push((s.peer, s.end));
        }
    }
    let gaps: Vec<u64> = acks
        .values()
        .filter(|v| v.len() >= 2)
        .map(|v| v[1].1.saturating_sub(v[0].1))
        .collect();
    l.set(
        "server.replica_ack_gap_us",
        ratio(gaps.iter().sum::<u64>() as f64 / 1e3, gaps.len() as f64),
    );
}

/// Per-commit microseconds of each step on the blocking path.
struct Budget {
    rows: Vec<(String, f64)>,
    /// Parts of `server.handle`, from the replay loops; not added.
    inside_handle: Vec<(String, f64)>,
    total_us: f64,
}

/// Spans of the single-threaded pass, plus the hop from the replay.
fn inline_metrics(
    l: &mut Layers,
    w: &Workload,
    spans: &[Span],
    replay: &Replay,
    hop_ns: f64,
) -> Budget {
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let covered = child_nanos(spans);
    let force_self = mean_nanos(named("core.force"))
        - ratio(
            named("core.force")
                .map(|s| covered.get(&s.id).copied().unwrap_or(0))
                .sum::<u64>() as f64,
            named("core.force").count() as f64,
        );
    l.set("core.force_self_us", force_self / 1e3);
    let both = |a: &'static str, b: &'static str| mean_nanos(named(a).chain(named(b)));
    l.set(
        "wire.encode_ns_per_pkt",
        both("wire.encode", "wire.encode.reply"),
    );
    l.set(
        "wire.decode_ns_per_pkt",
        both("wire.decode", "wire.decode.reply"),
    );
    let handle = mean_nanos(named("server.handle"));
    let handled: u64 = named("server.handle").map(|s| u64::from(s.n)).sum();
    l.set("server.handle_ns_per_pkt", handle);
    l.set(
        "server.handle_ns_per_rec",
        ratio(
            named("server.handle").map(Span::nanos).sum::<u64>() as f64,
            handled as f64,
        ),
    );

    let us = |ns: f64| ns / 1e3;
    let per = w.shape.records_per_commit();
    let rows = vec![
        (
            format!("core: {per} x write()"),
            us(mean_nanos(named("core.write"))),
        ),
        ("core: force() self".to_string(), us(force_self)),
        (
            "wire: encode request (once for N)".to_string(),
            us(mean_nanos(named("wire.encode"))),
        ),
        ("hop: client -> server".to_string(), us(hop_ns)),
        (
            "wire: decode request".to_string(),
            us(mean_nanos(named("wire.decode"))),
        ),
        ("server: handle".to_string(), us(handle)),
        (
            "wire: encode ack".to_string(),
            us(mean_nanos(named("wire.encode.reply"))),
        ),
        ("hop: server -> client".to_string(), us(hop_ns)),
        (
            format!("wire: decode ack x {}", w.cluster.replicas),
            us(mean_nanos(named("wire.decode.reply"))) * w.cluster.replicas as f64,
        ),
    ];
    let mut inside_handle = vec![(
        format!("storage: {per} x LogStore::write"),
        us(replay.store_write_ns_per_rec) * per as f64,
    )];
    if w.cluster.fsync {
        inside_handle.push((
            "storage: force_batch (fsync)".to_string(),
            replay.force_batch_us,
        ));
    }
    let total_us = rows.iter().map(|r| r.1).sum();
    Budget {
        rows,
        inside_handle,
        total_us,
    }
}

/// Run `commits` commits of `w`'s shape through the inline endpoint on
/// freshly opened servers, with tracing on.
fn inline_pass(w: &Workload, plan: &Plan, tracer: &std::sync::Arc<Tracer>, commits: u64) -> u64 {
    let cfg = w.cluster_cfg(plan.seed);
    let root = plan.scratch.join("inline");
    let _ = std::fs::remove_dir_all(&root);
    let mut servers = Vec::new();
    for sid in cfg.server_ids() {
        for k in 0..cfg.shards {
            let nvram = NvramDevice::new(NVRAM_BYTES);
            let server = open_server(&cfg, &root, sid, k, nvram, &dlog_obs::Obs::off());
            servers.push((server_addr(sid), server));
        }
    }
    let shared = Servers::new(servers);
    let id = spread_client_ids(1, cfg.shards)[0];
    let endpoint = InlineEndpoint::new(client_addr(id), shared.clone(), tracer.handle(0));
    let mut log = client_over(&cfg, id, endpoint);
    log.initialize().expect("inline initialize");
    let ops = OpStream {
        seed: plan.seed,
        client: id.0,
        shape: w.shape,
    };
    let mut writers = vec![Writer::new(id, log, ops, tracer.handle(client_addr(id).0))];
    // Let buffers and pools reach their steady size before tracing.
    let _ = write_window(&mut writers, Until::Commits(commits / 4 + 1));
    tracer.set(true);
    let run = write_window(&mut writers, Until::Commits(commits));
    tracer.set(false);
    drop(writers);
    drop(shared.take());
    let _ = std::fs::remove_dir_all(&root);
    run.failed
}

/// One short window on a fresh cluster, with observability on or off.
fn obs_window<T: Transport>(w: &Workload, plan: &Plan, obs: bool, d: Duration) -> WriteWindow {
    let tracer = Tracer::new();
    let root = plan.scratch.join(if obs { "obs-on" } else { "obs-off" });
    let Booted {
        mut cluster,
        mut writers,
    } = boot::<T>(w, plan.seed, obs, &root, &tracer);
    let _ = warm_up(w, &mut writers);
    let run = write_window(&mut writers, Until::Elapsed(d));
    drop(writers);
    drop(cluster.stop_all());
    let _ = std::fs::remove_dir_all(&root);
    run
}

pub fn per_layer<T: Transport>(w: &Workload, plan: &Plan, trace_dir: &Path) -> Outcome {
    let tracer = Tracer::new();
    let mut out = Outcome {
        workload: w.name,
        traced: true,
        ..Outcome::default()
    };
    let mut l = Layers::default();
    let part = |share: f64| Duration::from_secs_f64(plan.seconds * share);
    let mut trace = Vec::new();

    // Untraced reference window on a fresh cluster, counters around it.
    let root = plan.scratch.join("traced");
    let Booted {
        mut cluster,
        mut writers,
    } = boot::<T>(w, plan.seed, false, &root, &tracer);
    let reference = match w.timed {
        Timed::Writes => {
            out.failed += warm_up(w, &mut writers).failed;
            Until::Elapsed(part(0.2))
        }
        Timed::Reads { preload } => Until::Records(preload),
    };
    let before = counters(&writers, cluster.transport.net_stats());
    let base = write_window(&mut writers, reference);
    let after = counters(&writers, cluster.transport.net_stats());
    count_metrics(&mut l, w, &before, &after);

    // Untraced, traced, untraced: the same commit count each, so the
    // traced window is compared with its neighbours on both sides.
    let n = ((base.commit_per_s / w.clients as f64) * plan.seconds * 0.04) as u64;
    let n = n.clamp(20, TRACED_COMMITS / w.clients as u64);
    let a = write_window(&mut writers, Until::Commits(n));
    tracer.set(true);
    let traced = write_window(&mut writers, Until::Commits(n));
    tracer.set(false);
    let b = write_window(&mut writers, Until::Commits(n));
    let spans = tracer.take();
    situ_metrics::<T>(&mut l, w, &spans);
    trace.extend(spans);
    l.set(
        "process.trace_overhead_frac",
        1.0 - ratio(traced.commit_per_s, (a.commit_per_s + b.commit_per_s) / 2.0),
    );
    for x in [&base, &a, &traced, &b] {
        out.attempted += x.commits + x.failed;
        out.failed += x.failed;
    }

    // Stop: server and store counters, and the check of what was stored.
    let extents: Vec<Extent> = writers.iter().map(Writer::extent).collect();
    let commits = commits_so_far(&writers);
    drop(writers);
    let mut servers = cluster.stop_all();
    server_metrics(&mut l, &servers, commits);
    let (checked, bad) = verify_stores(&mut servers, &extents, w.cluster.replicas);
    out.attempted += checked;
    out.failed += bad;
    drop(servers);

    // Restart and read, traced for the record; the read metrics are the
    // client's own counters.
    restart(w, &mut cluster);
    let reader = tracer.handle(0);
    let mut pos = Stream::new(plan.seed, 0x5EED);
    let share = if w.timed == Timed::Writes { 0.1 } else { 0.3 };
    tracer.set(true);
    let reads = ReadWindow::merged(read_window(
        &mut cluster,
        &extents,
        w.read_shape(),
        &mut pos,
        &reader,
        part(share),
    ));
    tracer.set(false);
    trace.extend(tracer.take());
    out.attempted += reads.records;
    out.failed += reads.failed;
    let sorted = |ns: &[u64]| crate::recorder::Sorted::new(ns.to_vec());
    l.set(
        "core.commit_p99_us",
        base.latency.percentile(0.99) as f64 / 1e3,
    );
    l.set(
        "core.read_p99_us",
        sorted(&reads.random_ns).percentile(0.99) as f64 / 1e3,
    );
    l.set(
        "core.init_p50_ms",
        sorted(&reads.init_ns).percentile(0.5) as f64 / 1e6,
    );
    let restarts = reads.restarts.max(1) as f64;
    l.set("core.init_rpcs", reads.init_rpcs as f64 / restarts);
    l.set("core.init_copies", reads.init_copies as f64 / restarts);
    l.set(
        "core.read_cache_hit_ratio_seq",
        ratio(reads.seq_hits as f64, reads.seq_reads as f64),
    );
    l.set(
        "core.read_cache_hit_ratio_rand",
        ratio(reads.rand_hits as f64, reads.rand_reads as f64),
    );
    l.set(
        "core.read_backward_us_per_rec",
        ratio(
            reads.backward_ns as f64 / 1e3,
            reads.backward_records as f64,
        ),
    );
    drop(cluster.stop_all());
    let _ = std::fs::remove_dir_all(&root);

    // Observability on against off, each on an equally young cluster.
    let off = obs_window::<T>(w, plan, false, part(0.08));
    let on = obs_window::<T>(w, plan, true, part(0.08));
    l.set(
        "obs.on_overhead_frac",
        1.0 - ratio(on.commit_per_s, off.commit_per_s),
    );
    out.failed += off.failed + on.failed;

    // Replay loops, then the inline pass and the budget built from both.
    let ops = OpStream {
        seed: plan.seed,
        client: 1,
        shape: w.shape,
    };
    let replay_dir = plan.scratch.join("replay");
    let r = replay::run(&ops, &replay_dir, plan.seconds / 10.0);
    let _ = std::fs::remove_dir_all(&replay_dir);
    for (name, v) in [
        ("wire.pack_ns_per_rec", r.pack_ns_per_rec),
        ("storage.write_ns_per_rec", r.store_write_ns_per_rec),
        ("storage.nvram_insert_ns_per_rec", r.nvram_insert_ns_per_rec),
        ("storage.frame_encode_ns_per_rec", r.frame_encode_ns_per_rec),
        ("storage.crc_gb_per_s", r.crc_gb_per_s),
        ("storage.force_batch_us", r.force_batch_us),
        ("storage.flush_track_us", r.flush_track_us),
        ("storage.read_hot_ns", r.read_hot_ns),
        ("storage.read_cold_ns", r.read_cold_ns),
        ("storage.open_recover_ms", r.open_recover_ms),
        ("forest.append_ns", r.forest_append_ns),
        ("forest.lookup_ns", r.forest_lookup_ns),
        ("forest.nodes_per_lookup", r.forest_nodes_per_lookup),
        ("mem.hop_ns", r.mem_hop_ns),
        ("udp.hop_ns", r.udp_hop_ns),
        (
            if T::NAME == "mem" {
                "udp.send_ns_per_call"
            } else {
                "mem.send_ns_per_call"
            },
            if T::NAME == "mem" {
                r.udp_send_ns
            } else {
                r.mem_send_ns
            },
        ),
    ] {
        l.set(name, v);
    }
    out.failed += inline_pass(w, plan, &tracer, n);
    let spans = tracer.take();
    let hop = if T::NAME == "mem" {
        r.mem_hop_ns
    } else {
        r.udp_hop_ns
    };
    let budget = inline_metrics(&mut l, w, &spans, &r, hop);
    trace.extend(spans);
    let p50_us = base.latency.percentile(0.5) as f64 / 1e3;
    l.set(
        "process.budget_residual_frac",
        ratio(p50_us - budget.total_us, p50_us),
    );

    out.notes
        .push("where one commit's time goes (us per commit):".to_string());
    for (name, v) in &budget.rows {
        out.notes.push(format!("  {name:<40} {:>10}", short(*v)));
    }
    for (name, v) in &budget.inside_handle {
        out.notes
            .push(format!("    of which {name:<32} {:>8}", short(*v)));
    }
    out.notes.push(format!(
        "  {:<40} {:>10}   measured untraced p50 {}   unattributed {}",
        "sum",
        short(budget.total_us),
        short(p50_us),
        short(p50_us - budget.total_us)
    ));

    let _ = std::fs::create_dir_all(trace_dir);
    let path = trace_dir.join(format!("{}.trace.jsonl", w.name));
    match std::fs::File::create(&path) {
        Ok(f) => {
            let _ = write_jsonl(&trace, &mut BufWriter::new(f));
            out.notes.push(format!(
                "{} spans written to {}",
                trace.len(),
                path.display()
            ));
        }
        Err(e) => out.notes.push(format!("trace not written: {e}")),
    }

    out.values = PER_LAYER
        .iter()
        .map(|m| Value::one(m.name, m.unit, l.0.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    out
}
