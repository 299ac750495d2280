//! The benchmark's fixed vocabulary: the six workloads (four of them
//! gated by `BENCHMARK.json`) and the metric names. Later issues cite
//! these names.

use std::time::Duration;

use dlog_net::FaultPlan;
use dlog_storage::store::Durability;

use crate::cluster::ClusterCfg;
use crate::gen::Shape;
use crate::phases::ReadShape;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    Mem,
    Udp,
}

/// Which half of a workload gets the measured seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timed {
    /// Write windows are timed; the read half is a short pass of fixed
    /// work on the newest records.
    Writes,
    /// The write half is a fixed preload of this many records (part of
    /// set-up); restart + read cycles are timed.
    Reads { preload: u64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub net: Net,
    pub clients: usize,
    pub shape: Shape,
    pub timed: Timed,
    pub lossy: bool,
    /// Commits (over all clients) of the first, untimed warm-up: some
    /// tens of milliseconds on the seed code. A count, not a time, so
    /// that the memory high-water mark read after it belongs to a fixed
    /// amount of work and does not grow when the program gets faster.
    pub warm_commits: u64,
    /// Length of a timed write window: some thousands of commits, so a
    /// window holds every periodic cost of the program (track flushes,
    /// segment rolls), and short enough that a pass has tens of them.
    pub window: Duration,
    /// Clusters a pass boots, one after the other, and takes through the
    /// whole life of a log. Each is a set-up sample, and each places its
    /// threads on the cores anew: a placement holds for about a second
    /// and decides a third of the speed, so a pass that samples many
    /// placements repeats better than one that sits on a few.
    pub clusters: usize,
    /// Listed in `BENCHMARK.json`. Two run in the suite only: the
    /// speed of `et1_fsync` is the host disk's, which drifts by a
    /// third within the half hour a gate takes, and `et1_lossy` is the
    /// one the driver's time limit can best do without.
    pub gated: bool,
    pub cluster: ClusterCfg,
}

impl Workload {
    /// What the read half addresses.
    pub fn read_shape(&self) -> ReadShape {
        match self.timed {
            Timed::Writes => ReadShape::FIXED_TAIL,
            Timed::Reads { .. } => ReadShape::WHOLE_LOG,
        }
    }

    /// The cluster configuration with the seed-dependent parts filled in.
    pub fn cluster_cfg(&self, seed: u64) -> ClusterCfg {
        let mut cfg = self.cluster;
        if self.lossy {
            cfg.plan = FaultPlan::flaky(seed);
        }
        cfg
    }
}

const STREAM: Shape = Shape::Fixed {
    bytes: 128,
    per_force: 8,
};

pub fn workloads() -> Vec<Workload> {
    let base = ClusterCfg::base();
    let et1 = Workload {
        name: "et1_mem",
        why: "1 client, ET1 (7 records, 700 B, 1 force), mem transport, NVRAM: latency-bound base \
              point; thread hops and per-packet costs dominate",
        net: Net::Mem,
        clients: 1,
        shape: Shape::Et1,
        timed: Timed::Writes,
        lossy: false,
        warm_commits: 2_000,
        window: Duration::from_millis(50),
        clusters: 12,
        gated: true,
        cluster: base,
    };
    vec![
        et1,
        Workload {
            name: "et1_udp",
            why: "et1_mem over UDP loopback sockets: syscalls per datagram dominate; the only \
                  cover for datagram batching and for the UDP server loop",
            net: Net::Udp,
            warm_commits: 10,
            // 16 ms a commit today: windows of a few dozen commits, and
            // few clusters, because a restarted client takes 0.3 s to
            // initialize and a read 8 ms.
            window: Duration::from_millis(500),
            clusters: 3,
            ..et1
        },
        Workload {
            name: "et1_fsync",
            why: "ET1, 2 clients, FsyncPerForce + fsync on, 2 ms coalescing: storage force time \
                  dominates and group commit is the lever",
            clients: 2,
            warm_commits: 400,
            window: Duration::from_millis(100),
            gated: false,
            cluster: ClusterCfg {
                durability: Durability::FsyncPerForce,
                fsync: true,
                coalesce: Duration::from_millis(2),
                ..base
            },
            ..et1
        },
        Workload {
            name: "et1_lossy",
            why: "et1_mem with 1% loss, 0.5% duplication, 2% reorder: the NAK, backoff and \
                  selective-retransmit path that a reliable network never runs",
            lossy: true,
            warm_commits: 400,
            window: Duration::from_millis(100),
            gated: false,
            ..et1
        },
        Workload {
            name: "stream_mem",
            why: "2 clients, 128 B records, force every 8, 2 ms coalescing, 2 routed shards, N=2: \
                  throughput-bound; per-record CPU in codec, ingest and store dominates",
            clients: 2,
            shape: STREAM,
            warm_commits: 2_000,
            cluster: ClusterCfg {
                shards: 2,
                coalesce: Duration::from_millis(2),
                ..base
            },
            ..et1
        },
        Workload {
            name: "restart_read",
            why: "96k x 256 B preloaded (>> NVRAM and read cache), then timed restart cycles: \
                  initialize, backward scan, sequential and random reads from sealed segments",
            shape: Shape::Fixed {
                bytes: 256,
                per_force: 32,
            },
            timed: Timed::Reads { preload: 96_000 },
            warm_commits: 0,
            clusters: 6,
            ..et1
        },
    ]
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the log sees; reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("commit_per_s", "1/s"),
    higher("rec_per_s", "1/s"),
    lower("commit_p50_us", "us"),
    higher("read_per_s", "1/s"),
    lower("read_p50_us", "us"),
    lower("disk_bytes_per_user_byte", "ratio"),
    lower("peak_rss_mb", "MB"),
];

/// Bound of each end-to-end metric, in the order of [`END_TO_END`]: the
/// share of the parent's median by which it may get worse.
pub const BOUNDS: &[f64] = &[0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.02, 0.15];

/// Single-layer metrics; reported by every workload's traced pass, 0
/// where the workload does not exercise the layer.
pub const PER_LAYER: &[MetricDef] = &[
    lower("core.commit_p99_us", "us"),
    lower("core.read_p99_us", "us"),
    lower("core.init_p50_ms", "ms"),
    lower("core.force_self_us", "us"),
    lower("core.force_wait_us", "us"),
    lower("core.write_ns_per_rec", "ns"),
    higher("core.records_per_packet", "count"),
    lower("core.packets_per_commit", "count"),
    lower("core.window_stalls_per_kcommit", "count"),
    lower("core.resends_per_kcommit", "count"),
    lower("core.naks_per_kcommit", "count"),
    lower("core.switches", "count"),
    lower("core.init_rpcs", "count"),
    lower("core.init_copies", "count"),
    higher("core.read_cache_hit_ratio_seq", "ratio"),
    higher("core.read_cache_hit_ratio_rand", "ratio"),
    lower("core.read_backward_us_per_rec", "us"),
    lower("wire.encode_ns_per_pkt", "ns"),
    lower("wire.decode_ns_per_pkt", "ns"),
    lower("wire.pack_ns_per_rec", "ns"),
    lower("wire.bytes_per_user_byte", "ratio"),
    higher("wire.bytes_per_pkt", "B"),
    lower("mem.hop_ns", "ns"),
    lower("mem.send_ns_per_call", "ns"),
    lower("mem.dropped_per_kpkt", "count"),
    lower("mem.duplicated_per_kpkt", "count"),
    lower("mem.reordered_per_kpkt", "count"),
    lower("udp.hop_ns", "ns"),
    lower("udp.send_ns_per_call", "ns"),
    lower("udp.datagrams_per_commit", "count"),
    lower("server.handle_ns_per_pkt", "ns"),
    lower("server.handle_ns_per_rec", "ns"),
    lower("server.busy_frac", "ratio"),
    higher("server.pkts_per_wakeup", "count"),
    higher("server.forces_per_group_commit", "count"),
    lower("server.acks_per_commit", "count"),
    lower("server.replica_ack_gap_us", "us"),
    lower("server.duplicates_ignored_per_krec", "count"),
    lower("server.naks_sent_per_kcommit", "count"),
    lower("server.shard_skew", "ratio"),
    lower("storage.write_ns_per_rec", "ns"),
    lower("storage.nvram_insert_ns_per_rec", "ns"),
    lower("storage.frame_encode_ns_per_rec", "ns"),
    higher("storage.crc_gb_per_s", "GB/s"),
    lower("storage.force_batch_us", "us"),
    lower("storage.fsyncs_per_commit", "count"),
    lower("storage.flush_track_us", "us"),
    lower("storage.tracks_flushed_per_mb", "count"),
    lower("storage.read_hot_ns", "ns"),
    lower("storage.read_cold_ns", "ns"),
    lower("storage.open_recover_ms", "ms"),
    lower("forest.append_ns", "ns"),
    lower("forest.lookup_ns", "ns"),
    lower("forest.nodes_per_lookup", "count"),
    lower("obs.on_overhead_frac", "ratio"),
    lower("process.allocs_per_rec", "count"),
    lower("process.alloc_bytes_per_rec", "B"),
    lower("process.cpu_us_per_commit", "us"),
    lower("process.ctx_switches_per_commit", "count"),
    lower("process.trace_overhead_frac", "ratio"),
    lower("process.budget_residual_frac", "ratio"),
];

/// What the driver measures for, per run.
pub const RUN_SECONDS: u64 = 8;

/// The text of `BENCHMARK.json`; a test keeps the file equal to it.
pub fn benchmark_json() -> String {
    let better = |m: &MetricDef| {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let workloads: Vec<String> = workloads()
        .iter()
        .filter(|w| w.gated)
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .zip(BOUNDS)
        .map(|(m, b)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
    }

    #[test]
    fn contract_limits_hold() {
        let ws: Vec<Workload> = workloads().into_iter().filter(|w| w.gated).collect();
        assert!((2..=8).contains(&ws.len()));
        assert!(ws
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert_eq!(END_TO_END.len(), BOUNDS.len());
        assert!(BOUNDS.iter().all(|b| *b > 0.0 && *b <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(ws.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "names are used once");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn load_generators_fit_the_box_of_the_issue() {
        // Never more than two client threads, whatever the machine.
        assert!(workloads().iter().all(|w| (1..=2).contains(&w.clients)));
    }
}
