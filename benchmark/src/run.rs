//! The untraced pass: set-up, warm-up, timed windows, graceful stop,
//! restart, read cycles, verification. Everything it reports is an
//! end-to-end metric or a `diag.*` line.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlog_net::{Endpoint, FaultPlan};

use crate::cluster::{client_addr, spread_client_ids, Cluster, Transport};
use crate::gen::{OpStream, Stream};
use crate::phases::{
    read_window, verify_stores, verify_tail, write_window, write_windows, Extent, ReadWindow,
    Until, WriteWindow, Writer,
};
use crate::procfs;
use crate::recorder::Sorted;
use crate::report::{Outcome, Value};
use crate::span::{SpanEndpoint, Tracer};
use crate::spec::{Timed, Workload};

/// Newest records per client read back through the client API after the
/// restart; every record is also checked by the store scan.
const TAIL_READBACK: u64 = 1_000;
/// The longest that read-back may take per client.
const TAIL_CAP: Duration = Duration::from_millis(300);

/// Shares of a pass's seconds. A write workload warms up, writes and
/// reads; a read workload (whose write half is its set-up) reads.
const WARM_SHARE: f64 = 0.06;
const WRITE_SHARE: f64 = 0.6;
const READ_SHARE_OF_WRITES: f64 = 0.24;
const READ_SHARE_OF_READS: f64 = 0.84;

/// Windows a preload is cut into for its commit metrics.
const PRELOAD_WINDOWS: u64 = 16;

/// The longest the fixed-count warm-up may take on a stalled box.
const WARM_CAP: Duration = Duration::from_secs(1);

/// How one invocation measures.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Seconds measured, shared out over warm-up, write and read
    /// windows.
    pub seconds: f64,
    /// Clusters booted one after the other and taken through the whole
    /// pass, each a set-up sample.
    pub clusters: usize,
    /// Where clusters keep their directories (inside the checkout).
    pub scratch: PathBuf,
}

impl Plan {
    /// `share` of the seconds, per cluster.
    fn part(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share / self.clusters as f64)
    }

    /// Write windows of `window` each that fit a cluster's share.
    pub fn windows_each(&self, window: Duration) -> usize {
        let n = self.part(WRITE_SHARE).as_secs_f64() / window.as_secs_f64();
        (n.round() as usize).max(1)
    }
}

/// The writers of a cluster built over transport `T`.
pub type Writers<T> = Vec<Writer<SpanEndpoint<<T as Transport>::Ep>>>;

/// A booted cluster with initialized writers.
pub struct Booted<T: Transport> {
    pub cluster: Cluster<T>,
    pub writers: Writers<T>,
}

pub fn boot<T: Transport>(
    w: &Workload,
    seed: u64,
    obs: bool,
    root: &Path,
    tracer: &Arc<Tracer>,
) -> Booted<T> {
    let mut cfg = w.cluster_cfg(seed);
    cfg.obs = obs;
    let mut cluster = Cluster::<T>::boot(cfg, root, tracer);
    let mut writers = Vec::new();
    for id in spread_client_ids(w.clients, w.cluster.shards) {
        let mut log = cluster.client(id);
        log.initialize().expect("client initialize");
        let ops = OpStream {
            seed,
            client: id.0,
            shape: w.shape,
        };
        writers.push(Writer::new(id, log, ops, tracer.handle(client_addr(id).0)));
    }
    Booted { cluster, writers }
}

/// The untimed warm-up: a fixed number of commits (cut short on a box
/// that has stalled).
pub fn warm_up<E: Endpoint>(w: &Workload, writers: &mut [Writer<E>]) -> WriteWindow {
    let per_client = w.warm_commits / writers.len().max(1) as u64;
    write_window(writers, Until::CommitsWithin(per_client, WARM_CAP))
}

/// Commits the writers have issued so far.
pub fn commits_so_far<E: Endpoint>(writers: &[Writer<E>]) -> u64 {
    writers
        .iter()
        .map(|x| x.next / x.ops.shape.records_per_commit() as u64)
        .sum()
}

/// Payload bytes the writers have handed to `write()` so far.
pub fn user_bytes<E: Endpoint>(writers: &[Writer<E>]) -> u64 {
    writers
        .iter()
        .map(|x| commits_so_far(std::slice::from_ref(x)) * x.ops.shape.bytes_per_commit() as u64)
        .sum()
}

fn us(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

/// Per-window values of the write metrics, plus the tail percentile the
/// sample supports as a diagnostic.
fn write_values(windows: &[WriteWindow], values: &mut Vec<Value>, diag: &mut Vec<Value>) {
    // A commit that outlasts a window leaves the next one empty.
    let windows: Vec<&WriteWindow> = windows.iter().filter(|x| x.commits > 0).collect();
    let col = |f: &dyn Fn(&WriteWindow) -> f64| windows.iter().map(|x| f(x)).collect::<Vec<f64>>();
    values.push(Value::calm(
        "commit_per_s",
        "1/s",
        &col(&|x| x.commit_per_s),
        true,
    ));
    values.push(Value::calm(
        "rec_per_s",
        "1/s",
        &col(&|x| x.rec_per_s),
        true,
    ));
    values.push(Value::calm(
        "commit_p50_us",
        "us",
        &col(&|x| us(x.latency.percentile(0.5))),
        false,
    ));
    // The 99th percentile sits on the knee between commits that wait
    // behind a track flush and commits that do not, and moves by a
    // third from run to run: printed, not gated.
    diag.push(Value::of(
        "diag.commit_p99_us",
        "us",
        &col(&|x| us(x.latency.percentile(0.99))),
    ));
    let all = Sorted::new(windows.iter().flat_map(|x| x.latency.iter()).collect());
    if let Some((q, v)) = all.highest_supported() {
        diag.push(Value::one(
            &format!("diag.commit_highest_p{}_us", q * 100.0),
            "us",
            us(v),
        ));
    }
    diag.push(Value::one("diag.commit_samples", "count", all.len() as f64));
}

fn read_values(windows: &[ReadWindow], values: &mut Vec<Value>, diag: &mut Vec<Value>) {
    // A round whose client could not restart read nothing (and failed).
    let windows: Vec<&ReadWindow> = windows.iter().filter(|x| x.records > 0).collect();
    let col = |f: &dyn Fn(&ReadWindow) -> f64| windows.iter().map(|x| f(x)).collect::<Vec<f64>>();
    let pct = |ns: &[u64], q: f64| Sorted::new(ns.to_vec()).percentile(q);
    values.push(Value::calm(
        "read_per_s",
        "1/s",
        &col(&|x| x.records as f64 / x.secs.max(1e-9)),
        true,
    ));
    values.push(Value::calm(
        "read_p50_us",
        "us",
        &col(&|x| us(pct(&x.random_ns, 0.5))),
        false,
    ));
    diag.push(Value::of(
        "diag.read_p99_us",
        "us",
        &col(&|x| us(pct(&x.random_ns, 0.99))),
    ));
    // Restart time and the read tail ride on thread wake-ups of idle
    // servers and drift by a quarter from run to run: printed, not gated.
    diag.push(Value::of(
        "diag.init_p50_ms",
        "ms",
        &col(&|x| pct(&x.init_ns, 0.5) as f64 / 1e6),
    ));
    let all = Sorted::new(
        windows
            .iter()
            .flat_map(|x| x.random_ns.iter().copied())
            .collect(),
    );
    if let Some((q, v)) = all.highest_supported() {
        diag.push(Value::one(
            &format!("diag.read_highest_p{}_us", q * 100.0),
            "us",
            us(v),
        ));
    }
    diag.push(Value::one("diag.read_samples", "count", all.len() as f64));
    let cycles: u64 = windows.iter().map(|x| x.cycles).sum();
    diag.push(Value::one("diag.read_cycles", "count", cycles as f64));
}

/// Restart every (stopped) server of `cluster` the way the workload's
/// durability model says a restart goes. A store that forces through
/// fsync restarts without its NVRAM, so only bytes that reached the
/// files count. The network after the restart is reliable: the read
/// half of a lossy workload would otherwise be decided by a handful of
/// 250 ms RPC timeouts.
pub fn restart<T: Transport>(w: &Workload, cluster: &mut Cluster<T>) {
    if w.cluster.fsync {
        cluster.lose_nvram();
    }
    cluster.reboot_all(FaultPlan::reliable());
}

pub fn end_to_end<T: Transport>(w: &Workload, plan: &Plan) -> Outcome {
    let tracer = Tracer::new();
    let reader = tracer.handle(0);
    let mut out = Outcome {
        workload: w.name,
        ..Outcome::default()
    };
    let (mut setup_s, mut disk_ratio, mut restart_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut windows, mut reads) = (Vec::new(), Vec::new());
    let mut rss = 0.0;
    let (mut tail, mut tail_bad, mut scanned, mut scanned_bad) = (0u64, 0u64, 0u64, 0u64);
    let mut pos = Stream::new(plan.seed, 0x5EED);
    let read_for = plan.part(match w.timed {
        Timed::Writes => READ_SHARE_OF_WRITES,
        Timed::Reads { .. } => READ_SHARE_OF_READS,
    });

    // Each cluster is booted fresh and taken through the whole life of
    // a log: set-up (timed), a warm-up, back-to-back write windows (for
    // a read workload: the preload, which is also its set-up), a
    // graceful stop, a restart, rounds of read cycles, verification.
    // Every phase but the preload is bounded by time, not by work, so a
    // box that has stalled stretches no pass without limit.
    for k in 0..plan.clusters {
        let root = plan.scratch.join(format!("cluster-{k}"));
        let t = Instant::now();
        let Booted {
            mut cluster,
            mut writers,
        } = boot::<T>(w, plan.seed.wrapping_add(k as u64), false, &root, &tracer);
        if let Timed::Reads { preload } = w.timed {
            for j in 1..=PRELOAD_WINDOWS {
                windows.push(write_window(
                    &mut writers,
                    Until::Records(preload * j / PRELOAD_WINDOWS),
                ));
            }
        }
        if w.timed == Timed::Writes {
            // The fixed-count warm-up is part of set-up: boot and
            // `initialize()` alone take 2 ms, nearly all of it waiting
            // for threads to wake, which follows the host's mood.
            out.failed += warm_up(w, &mut writers).failed;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if w.timed == Timed::Writes {
            // Memory is read after a fixed amount of work, never after
            // a timed phase, whose log grows with speed.
            if k == 0 {
                rss = procfs::peak_rss_mb();
            }
            out.failed += write_window(&mut writers, Until::Elapsed(plan.part(WARM_SHARE))).failed;
            windows.extend(write_windows(
                &mut writers,
                w.window,
                plan.windows_each(w.window),
            ));
        }
        let extents: Vec<Extent> = writers.iter().map(Writer::extent).collect();
        let written = user_bytes(&writers);
        drop(writers);

        // Graceful stop: what the log costs on disk.
        drop(cluster.stop_all());
        disk_ratio.push(procfs::dir_bytes(cluster.root()) as f64 / written.max(1) as f64);

        // Restart and read.
        let t = Instant::now();
        restart(w, &mut cluster);
        restart_s.push(t.elapsed().as_secs_f64());
        reads.extend(read_window(
            &mut cluster,
            &extents,
            w.read_shape(),
            &mut pos,
            &reader,
            read_for,
        ));

        // Verification, after the stop and the restart: the newest
        // records through a client, every acknowledged record in the
        // stores.
        let (n, bad) = verify_tail(&mut cluster, &extents, TAIL_READBACK, TAIL_CAP);
        tail += n;
        tail_bad += bad;
        let mut servers = cluster.stop_all();
        let (n, bad) = verify_stores(&mut servers, &extents, w.cluster.replicas);
        scanned += n;
        scanned_bad += bad;
        drop(servers);
        let _ = std::fs::remove_dir_all(cluster.root());
        // A read workload's fixed work is its preload; its memory is
        // read after the first cluster's whole life.
        if k == 0 && w.timed != Timed::Writes {
            rss = procfs::peak_rss_mb();
        }
    }

    out.attempted += windows.iter().map(|x| x.commits + x.failed).sum::<u64>();
    out.failed += windows.iter().map(|x| x.failed).sum::<u64>();
    out.attempted += reads.iter().map(|x| x.records).sum::<u64>();
    out.failed += reads.iter().map(|x| x.failed).sum::<u64>();
    out.attempted += tail + scanned;
    out.failed += tail_bad + scanned_bad;
    out.values
        .push(Value::calm("setup_s", "s", &setup_s, false));
    write_values(&windows, &mut out.values, &mut out.diag);
    read_values(&reads, &mut out.values, &mut out.diag);
    out.values
        .push(Value::of("disk_bytes_per_user_byte", "ratio", &disk_ratio));
    out.values.push(Value::one("peak_rss_mb", "MB", rss));
    out.diag.push(Value::of("diag.restart_s", "s", &restart_s));
    out.notes.push(format!(
        "verified after a graceful stop and a restart: {scanned} acknowledged records found \
         byte-identical on {} stores ({scanned_bad} bad); the newest {tail} read back through \
         a restarted client ({tail_bad} bad)",
        w.cluster.replicas
    ));

    // The order BENCHMARK.json lists.
    out.values.sort_by_key(|v| {
        crate::spec::END_TO_END
            .iter()
            .position(|m| m.name == v.name)
            .unwrap_or(usize::MAX)
    });
    out
}
