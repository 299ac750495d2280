//! The two halves every workload is made of: a closed-loop write phase
//! (commit = write a group of records, then `force()`) and a read phase
//! (client restart, backward scan, sequential scan, random point reads),
//! plus the read-back that verifies every acknowledged record.

use std::time::{Duration, Instant};

use dlog_core::client::ReplicatedLog;
use dlog_net::Endpoint;
use dlog_obs::gauge::thread_allocs;
use dlog_server::LogServer;
use dlog_storage::frame::Frame;
use dlog_types::{ClientId, Lsn, ServerId};

use crate::cluster::{Client, Cluster, Transport};
use crate::gen::{OpStream, Stream};
use crate::recorder::{Recorder, Sorted};
use crate::span::Handle;

/// Records asked for per `read_backward` call.
pub const BACKWARD_CHUNK: u32 = 64;
/// Client restarts timed at the head of every read window, so that the
/// median restart time rests on more than one sample per cycle.
pub const INIT_BATCH: usize = 2;

/// What a read cycle addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadShape {
    /// Records per step (backward scan, sequential run, point reads).
    pub step: u64,
    /// Only the newest `span` records are addressed (`None`: all).
    pub span: Option<u64>,
    /// Point reads go newest-first instead of uniformly at random. A
    /// forward read-ahead never covers the record before the one asked
    /// for, so each such read misses the client's cache however small
    /// the log is.
    pub newest_first: bool,
}

impl ReadShape {
    /// The read half of a write workload: a fixed, small amount of work
    /// on the newest records, the same whatever the write half's speed
    /// left in the log.
    pub const FIXED_TAIL: ReadShape = ReadShape {
        step: 128,
        span: Some(128),
        newest_first: true,
    };
    /// `restart_read`: the whole preloaded log, uniform random reads.
    pub const WHOLE_LOG: ReadShape = ReadShape {
        step: 512,
        span: None,
        newest_first: false,
    };

    /// `(index of the first record addressed, records addressed,
    /// records per step)` on `ext`.
    fn of(&self, ext: &Extent) -> (u64, u64, u64) {
        let span = self.span.map_or(ext.records, |s| s.min(ext.records));
        (ext.records - span, span, self.step.min(span))
    }
}

/// One closed-loop client: it blocks in `force()` like a TP node does.
pub struct Writer<E: Endpoint> {
    pub id: ClientId,
    pub log: ReplicatedLog<E>,
    pub ops: OpStream,
    /// Index of the next record to write.
    pub next: u64,
    /// Records covered by a `force()` that returned `Ok`.
    pub acked: u64,
    /// LSN of record 0 (0 until the first write).
    pub first_lsn: u64,
    /// Allocations made by the generator, not by the program.
    pub gen_allocs: u64,
    rec: Recorder,
    trace: Handle,
}

/// How long a write window runs.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    Elapsed(Duration),
    /// Until the writer has written this many records in total.
    Records(u64),
    /// This many commits per client in this window.
    Commits(u64),
    /// This many commits per client, or this long, whichever ends
    /// first: a fixed amount of work that a stalled box cannot stretch
    /// without limit.
    CommitsWithin(u64, Duration),
}

#[derive(Debug, Default)]
pub struct WriteWindow {
    /// Sum over clients of commits / that client's elapsed time.
    pub commit_per_s: f64,
    pub rec_per_s: f64,
    pub commits: u64,
    pub records: u64,
    pub failed: u64,
    pub secs: f64,
    pub latency: Sorted,
}

impl<E: Endpoint> Writer<E> {
    /// A writer over an initialized client.
    pub fn new(id: ClientId, log: ReplicatedLog<E>, ops: OpStream, trace: Handle) -> Writer<E> {
        Writer {
            id,
            log,
            ops,
            next: 0,
            acked: 0,
            first_lsn: 0,
            gen_allocs: 0,
            // 2^20 commits per window before the buffer would grow.
            rec: Recorder::with_capacity(1 << 20),
            trace,
        }
    }

    pub fn extent(&self) -> Extent {
        Extent {
            id: self.id,
            ops: self.ops,
            first_lsn: self.first_lsn,
            records: self.acked,
        }
    }

    /// One commit; `Err` counts as a failed operation.
    fn commit(&mut self, group: &mut Vec<Vec<u8>>) -> Result<(), ()> {
        let per = self.ops.shape.records_per_commit() as u64;
        let a0 = thread_allocs();
        group.clear();
        group.extend((0..per).map(|i| self.ops.record(self.next + i)));
        self.gen_allocs += thread_allocs().wrapping_sub(a0);

        let started = Instant::now();
        let mut ok = true;
        {
            let mut open = self.trace.open("core.write");
            for data in group.drain(..) {
                match self.log.write(data) {
                    Ok(lsn) => {
                        if self.first_lsn == 0 {
                            self.first_lsn = lsn.0 - self.next;
                        }
                        ok &= lsn.0 == self.first_lsn + self.next;
                    }
                    Err(_) => ok = false,
                }
                self.next += 1;
            }
            if let Some(o) = &mut open {
                o.span.lsn = self.first_lsn + self.next - 1;
                o.span.n = per as u32;
            }
        }
        {
            let mut open = self.trace.open("core.force");
            if let Some(o) = &mut open {
                o.span.lsn = self.first_lsn + self.next - 1;
                o.span.n = per as u32;
            }
            ok &= self.log.force().is_ok();
        }
        if ok {
            self.acked = self.next;
            self.rec.push(started.elapsed().as_nanos() as u64);
            Ok(())
        } else {
            Err(())
        }
    }

    /// `n` back-to-back windows of `window` each, counted from
    /// `started` (shared by every client thread, so window `k` is the
    /// same stretch of time on all of them). A commit belongs to the
    /// window it started in; a window's time runs from the end of the
    /// previous window's last commit to the end of its own, so no
    /// commit is cut in two. Latency samples stay in the recorder, the
    /// cuts say which are whose.
    fn run_windows(&mut self, started: Instant, window: Duration, n: usize) -> Vec<WindowCut> {
        let mut group = Vec::new();
        let mut cuts = Vec::with_capacity(n);
        let mut opened = started.elapsed();
        for k in 1..=n as u32 {
            let (mut commits, mut failed) = (0u64, 0u64);
            while started.elapsed() < window * k {
                match self.commit(&mut group) {
                    Ok(()) => commits += 1,
                    Err(()) => failed += 1,
                }
            }
            let closed = started.elapsed();
            cuts.push(WindowCut {
                commits,
                failed,
                secs: (closed - opened).as_secs_f64(),
                samples: self.rec.len(),
            });
            opened = closed;
        }
        cuts
    }

    fn run(&mut self, until: Until) -> (u64, u64, f64) {
        let mut group = Vec::new();
        let (mut commits, mut failed) = (0u64, 0u64);
        let started = Instant::now();
        loop {
            match until {
                Until::Elapsed(d) if started.elapsed() >= d => break,
                Until::Records(n) if self.next >= n => break,
                Until::Commits(n) if commits + failed >= n => break,
                Until::CommitsWithin(n, d) if commits + failed >= n || started.elapsed() >= d => {
                    break
                }
                _ => {}
            }
            match self.commit(&mut group) {
                Ok(()) => commits += 1,
                Err(()) => failed += 1,
            }
        }
        (commits, failed, started.elapsed().as_secs_f64())
    }
}

/// One client's share of one window of [`write_windows`].
struct WindowCut {
    commits: u64,
    failed: u64,
    secs: f64,
    /// Samples the client's recorder held when the window closed.
    samples: usize,
}

/// Run every writer on its own thread through `n` back-to-back windows
/// of `window` each; one [`WriteWindow`] per window. The threads run
/// on without a pause between windows, so a window never starts with
/// parked servers.
pub fn write_windows<E: Endpoint>(
    writers: &mut [Writer<E>],
    window: Duration,
    n: usize,
) -> Vec<WriteWindow> {
    let per = writers
        .first()
        .map_or(0, |x| x.ops.shape.records_per_commit()) as u64;
    for writer in writers.iter_mut() {
        writer.rec.clear();
    }
    let started = Instant::now();
    let cuts: Vec<Vec<WindowCut>> = std::thread::scope(|scope| {
        let handles: Vec<_> = writers
            .iter_mut()
            .map(|writer| scope.spawn(move || writer.run_windows(started, window, n)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let windows = (0..n)
        .map(|k| {
            let mut w = WriteWindow::default();
            let mut samples = Vec::new();
            for (writer, cuts) in writers.iter().zip(&cuts) {
                let cut = &cuts[k];
                let from = if k == 0 { 0 } else { cuts[k - 1].samples };
                samples.extend_from_slice(&writer.rec.samples()[from..cut.samples]);
                w.commits += cut.commits;
                w.failed += cut.failed;
                w.commit_per_s += cut.commits as f64 / cut.secs.max(1e-9);
                w.secs = w.secs.max(cut.secs);
            }
            w.records = w.commits * per;
            w.rec_per_s = w.commit_per_s * per as f64;
            w.latency = Sorted::new(samples);
            w
        })
        .collect();
    for writer in writers.iter_mut() {
        writer.rec.clear();
    }
    windows
}

/// Run every writer on its own thread until `until`.
pub fn write_window<E: Endpoint>(writers: &mut [Writer<E>], until: Until) -> WriteWindow {
    let mut w = WriteWindow::default();
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = writers
            .iter_mut()
            .map(|writer| scope.spawn(move || writer.run(until)))
            .collect();
        for h in handles {
            let (commits, failed, secs) = h.join().expect("client thread");
            w.commits += commits;
            w.failed += failed;
            w.commit_per_s += commits as f64 / secs;
            w.secs = w.secs.max(secs);
        }
    });
    for writer in writers.iter_mut() {
        writer.rec.drain_into(&mut samples);
    }
    let per = writers
        .first()
        .map_or(0, |x| x.ops.shape.records_per_commit()) as u64;
    w.records = w.commits * per;
    w.rec_per_s = w.commit_per_s * per as f64;
    w.latency = Sorted::new(samples);
    w
}

/// The acknowledged part of one client's log.
#[derive(Clone, Copy, Debug)]
pub struct Extent {
    pub id: ClientId,
    pub ops: OpStream,
    pub first_lsn: u64,
    pub records: u64,
}

impl Extent {
    fn lsn(&self, index: u64) -> Lsn {
        Lsn(self.first_lsn + index)
    }

    fn matches(&self, lsn: Lsn, bytes: &[u8]) -> bool {
        self.matches_with(lsn, bytes, &mut Vec::new())
    }

    /// [`Extent::matches`] with the expected bytes regenerated into a
    /// buffer the caller reuses.
    fn matches_with(&self, lsn: Lsn, bytes: &[u8], expected: &mut Vec<u8>) -> bool {
        let Some(index) = lsn.0.checked_sub(self.first_lsn) else {
            return false;
        };
        self.ops.record_into(index, expected);
        bytes == expected.as_slice()
    }
}

/// What a run of read cycles measured.
#[derive(Debug, Default)]
pub struct ReadWindow {
    /// Records returned (and checked against the generator).
    pub records: u64,
    pub failed: u64,
    /// Time in the three read steps (client restarts excluded).
    pub secs: f64,
    pub cycles: u64,
    /// Client restarts (one per cycle plus the batch at the head).
    pub restarts: u64,
    pub random_ns: Vec<u64>,
    pub init_ns: Vec<u64>,
    pub init_rpcs: u64,
    pub init_copies: u64,
    pub backward_ns: u64,
    pub backward_records: u64,
    pub seq_reads: u64,
    pub seq_hits: u64,
    pub rand_reads: u64,
    pub rand_hits: u64,
}

/// A new incarnation of `ext`'s client, initialized and timed.
fn restart<T: Transport>(
    cluster: &mut Cluster<T>,
    ext: &Extent,
    trace: &Handle,
    w: &mut ReadWindow,
) -> Option<Client<T>> {
    let mut log = cluster.client(ext.id);
    let t = Instant::now();
    {
        let _open = trace.open("core.initialize");
        if log.initialize().is_err() {
            w.failed += 1;
            return None;
        }
    }
    w.init_ns.push(t.elapsed().as_nanos() as u64);
    w.init_rpcs += log.net_stats().packets_out;
    w.init_copies += log.stats().recovery_copies;
    w.restarts += 1;
    Some(log)
}

/// Single-record reads, each timed on its own.
fn point_reads<E: Endpoint>(
    log: &mut ReplicatedLog<E>,
    ext: &Extent,
    shape: ReadShape,
    pos: &mut Stream,
    w: &mut ReadWindow,
) {
    let (first, span, step) = shape.of(ext);
    let before = log.stats();
    for i in 0..step {
        let lsn = ext.lsn(if shape.newest_first {
            ext.records - 1 - i
        } else {
            first + pos.below(span)
        });
        let t = Instant::now();
        let got = log.read(lsn);
        w.random_ns.push(t.elapsed().as_nanos() as u64);
        match got {
            Ok(d) => w.failed += u64::from(!ext.matches(lsn, d.as_bytes())),
            Err(_) => w.failed += 1,
        }
    }
    let after = log.stats();
    w.rand_reads += after.reads - before.reads;
    w.rand_hits += after.read_cache_hits - before.read_cache_hits;
    w.records += step;
}

/// Backward scan from the last record, as a recovery manager scanning
/// from the end of the log would.
fn backward_scan<E: Endpoint>(
    log: &mut ReplicatedLog<E>,
    ext: &Extent,
    shape: ReadShape,
    trace: &Handle,
    w: &mut ReadWindow,
) {
    let (_, _, step) = shape.of(ext);
    let t = Instant::now();
    let mut cursor = ext.lsn(ext.records - 1);
    let mut got = 0u64;
    while got < step {
        let want = BACKWARD_CHUNK.min((step - got) as u32);
        let records = {
            let mut open = trace.open("core.read_backward");
            let r = log.read_backward(cursor, want);
            if let (Some(o), Ok(r)) = (&mut open, &r) {
                o.span.lsn = cursor.0;
                o.span.n = r.len() as u32;
            }
            r
        };
        let records = match records {
            Ok(r) if !r.is_empty() => r,
            _ => {
                w.failed += 1;
                break;
            }
        };
        for r in &records {
            w.failed += u64::from(!(r.present && ext.matches(r.lsn, r.data.as_bytes())));
        }
        got += records.len() as u64;
        match records.last().and_then(|r| r.lsn.prev()) {
            Some(p) => cursor = p,
            None => break,
        }
    }
    w.backward_ns += t.elapsed().as_nanos() as u64;
    w.backward_records += got;
    w.records += got;
}

/// A sequential run from a random start: the read-ahead cache should
/// absorb most of it.
fn sequential_run<E: Endpoint>(
    log: &mut ReplicatedLog<E>,
    ext: &Extent,
    shape: ReadShape,
    pos: &mut Stream,
    w: &mut ReadWindow,
) {
    let (first, span, step) = shape.of(ext);
    let before = log.stats();
    let start = first + pos.below(span - step + 1);
    for i in start..start + step {
        let lsn = ext.lsn(i);
        match log.read(lsn) {
            Ok(d) => w.failed += u64::from(!ext.matches(lsn, d.as_bytes())),
            Err(_) => w.failed += 1,
        }
    }
    let after = log.stats();
    w.seq_reads += after.reads - before.reads;
    w.seq_hits += after.read_cache_hits - before.read_cache_hits;
    w.records += step;
}

/// One restart + read cycle against `ext`: a new client incarnation
/// initializes, then scans backward, reads a sequential run and reads
/// single records. Newest-first point reads go first instead, while
/// the restarted client's cache is still empty.
pub fn read_cycle<T: Transport>(
    cluster: &mut Cluster<T>,
    ext: &Extent,
    shape: ReadShape,
    pos: &mut Stream,
    trace: &Handle,
    w: &mut ReadWindow,
) {
    let Some(mut log) = restart(cluster, ext, trace, w) else {
        return;
    };
    w.cycles += 1;
    let t = Instant::now();
    if shape.newest_first {
        point_reads(&mut log, ext, shape, pos, w);
    }
    backward_scan(&mut log, ext, shape, trace, w);
    sequential_run(&mut log, ext, shape, pos, w);
    if !shape.newest_first {
        point_reads(&mut log, ext, shape, pos, w);
    }
    w.secs += t.elapsed().as_secs_f64();
}

impl ReadWindow {
    /// Every round of a read window as one.
    pub fn merged(rounds: Vec<ReadWindow>) -> ReadWindow {
        let mut all = ReadWindow::default();
        for r in rounds {
            all.records += r.records;
            all.failed += r.failed;
            all.secs += r.secs;
            all.cycles += r.cycles;
            all.restarts += r.restarts;
            all.random_ns.extend(r.random_ns);
            all.init_ns.extend(r.init_ns);
            all.init_rpcs += r.init_rpcs;
            all.init_copies += r.init_copies;
            all.backward_ns += r.backward_ns;
            all.backward_records += r.backward_records;
            all.seq_reads += r.seq_reads;
            all.seq_hits += r.seq_hits;
            all.rand_reads += r.rand_reads;
            all.rand_hits += r.rand_hits;
        }
        all
    }
}

/// A batch of timed client restarts, then rounds of one read cycle per
/// extent for `d` (at least one round). Each round is a window of its
/// own; the batch of restarts is counted into the first.
pub fn read_window<T: Transport>(
    cluster: &mut Cluster<T>,
    extents: &[Extent],
    shape: ReadShape,
    pos: &mut Stream,
    trace: &Handle,
    d: Duration,
) -> Vec<ReadWindow> {
    let mut rounds = Vec::new();
    let mut w = ReadWindow::default();
    for k in 0..INIT_BATCH {
        drop(restart(cluster, &extents[k % extents.len()], trace, &mut w));
    }
    let started = Instant::now();
    loop {
        for ext in extents {
            read_cycle(cluster, ext, shape, pos, trace, &mut w);
        }
        rounds.push(std::mem::take(&mut w));
        if started.elapsed() >= d {
            return rounds;
        }
    }
}

/// Read the newest `newest` acknowledged records of every extent back
/// through a fresh client incarnation and compare them with the
/// generator, for at most `cap` per extent (the store scan checks every
/// record in any case). Returns `(records checked, records missing or
/// different)`.
pub fn verify_tail<T: Transport>(
    cluster: &mut Cluster<T>,
    extents: &[Extent],
    newest: u64,
    cap: Duration,
) -> (u64, u64) {
    let (mut checked, mut bad) = (0u64, 0u64);
    for ext in extents {
        let from = ext.records.saturating_sub(newest);
        let started = Instant::now();
        let mut log = cluster.client(ext.id);
        if log.initialize().is_err() {
            return (checked + ext.records - from, bad + ext.records - from);
        }
        for i in from..ext.records {
            if started.elapsed() >= cap {
                break;
            }
            let lsn = ext.lsn(i);
            match log.read(lsn) {
                Ok(d) => bad += u64::from(!ext.matches(lsn, d.as_bytes())),
                Err(_) => bad += 1,
            }
            checked += 1;
        }
    }
    (checked, bad)
}

/// Scan the recovered stream of every stopped server and check that
/// every acknowledged record of every extent is stored byte-identical
/// on at least `replicas` servers. One thread per server (the scans are
/// independent). Returns `(records checked, records short of copies)`.
pub fn verify_stores(
    servers: &mut [(ServerId, LogServer)],
    extents: &[Extent],
    replicas: usize,
) -> (u64, u64) {
    let scan = |server: &mut LogServer| -> Vec<Vec<u8>> {
        let mut seen: Vec<Vec<u8>> = extents
            .iter()
            .map(|e| vec![0u8; e.records as usize])
            .collect();
        let mut expected = Vec::new();
        let store = server.store_mut();
        let from = store.stream_start();
        let scanned = store.scan_stream(from, |_, frame| {
            let Frame::Record {
                client,
                record,
                staged: false,
            } = frame
            else {
                return;
            };
            for (ext, seen) in extents.iter().zip(seen.iter_mut()) {
                let Some(index) = record.lsn.0.checked_sub(ext.first_lsn) else {
                    continue;
                };
                if client == ext.id && index < ext.records {
                    // A later frame for the same LSN (a recovery copy)
                    // supersedes an earlier one.
                    let same = record.present
                        && ext.matches_with(record.lsn, record.data.as_bytes(), &mut expected);
                    seen[index as usize] = u8::from(same);
                }
            }
        });
        if scanned.is_err() {
            seen.iter_mut().for_each(|s| s.fill(0));
        }
        seen
    };
    let per_server: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .iter_mut()
            .map(|(_, server)| scope.spawn(move || scan(server)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan thread"))
            .collect()
    });
    let (mut checked, mut bad) = (0u64, 0u64);
    for (k, ext) in extents.iter().enumerate() {
        for i in 0..ext.records as usize {
            // Shards of one server hold disjoint logs, so summing over
            // every scanned store counts distinct servers.
            let copies: usize = per_server
                .iter()
                .map(|s| usize::from(s.get(k).is_some_and(|seen| seen[i] == 1)))
                .sum();
            checked += 1;
            bad += u64::from(copies < replicas);
        }
    }
    (checked, bad)
}
