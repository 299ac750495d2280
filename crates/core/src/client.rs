//! The replicated log client (§3.1, §4.2).
//!
//! One instance serves one transaction-processing node. It implements
//! `WriteLog` / `ReadLog` / `EndOfLog` over N-of-M log servers, the
//! client-initialization (crash recovery) procedure of §3.1.2 with the
//! δ-record generalization of §4.2, record grouping, ack/NAK handling,
//! and server switching.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

use dlog_net::wire::{codes, Message, Request, Response};
use dlog_net::Endpoint;
use dlog_types::interval::MergedView;
use dlog_types::{
    ClientId, DlogError, Epoch, IntervalList, LogData, LogRecord, Lsn, ReplicationConfig, Result,
    ServerId,
};

use crate::assign;
use crate::epoch::EpochGenerator;
use crate::net::ClientNet;

/// Client tuning knobs.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// The M servers, the replication degree N, and the in-flight bound δ.
    pub config: ReplicationConfig,
    /// Cap on the ack-wait backoff: no single wait for acknowledgments
    /// exceeds this, and a server is only charged a failed re-force
    /// attempt once waits have grown to it.
    pub ack_timeout: Duration,
}

impl ClientOptions {
    /// Sensible defaults for a configuration.
    #[must_use]
    pub fn new(config: ReplicationConfig) -> Self {
        ClientOptions {
            config,
            ack_timeout: Duration::from_millis(120),
        }
    }
}

/// First ack-wait of the retry schedule; successive timeouts double it
/// (with deterministic jitter) up to [`ClientOptions::ack_timeout`].
/// Small by design: a lost ack under light loss should cost milliseconds,
/// not a full timeout period.
const RETRY_BASE: Duration = Duration::from_millis(2);

/// Capped re-force attempts per server before switching away from it
/// ("it retries a number of times before moving to a different server",
/// §4.2).
const FORCE_RETRIES: u32 = 3;

/// One wait of the jittered exponential backoff schedule:
/// `base << round` capped at `cap`, scaled by a factor in [0.75, 1.25)
/// drawn from `state`, an xorshift64 stream. The jitter source is
/// deliberately *not* wall-clock entropy: seeded replays must stay
/// byte-identical (tests/trace_determinism.rs), and a per-client
/// deterministic stream de-convoys retries just as well.
fn backoff_wait(base: Duration, cap: Duration, round: u32, state: &mut u64) -> Duration {
    let base = base.max(Duration::from_micros(100));
    let cap = cap.max(base);
    let w = base.saturating_mul(1u32 << round.min(16)).min(cap);
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    let nanos = w.as_nanos() as u64;
    Duration::from_nanos(nanos - nanos / 4 + x % (nanos / 2 + 1))
}

/// True once the un-jittered backoff for `round` has reached the cap.
fn backoff_at_cap(base: Duration, cap: Duration, round: u32) -> bool {
    base.max(Duration::from_micros(100))
        .saturating_mul(1u32 << round.min(16))
        >= cap
}

/// Records the read-ahead cache keeps; the smallest LSNs are evicted
/// first.
const READ_CACHE_CAP: usize = 4096;

/// Records requested per read RPC on a forward run: a `read` miss at the
/// LSN right after the previous `read` asks for this many, and
/// `read_backward` packs up to this many per round trip. Any other
/// `read` miss asks for the one record it returns.
const READ_AHEAD: u32 = 64;

/// Client-side operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Records accepted by `write`.
    pub records_written: u64,
    /// Payload bytes accepted.
    pub bytes_written: u64,
    /// `force` calls.
    pub forces: u64,
    /// Records re-sent after NAKs or timeouts.
    pub resends: u64,
    /// Target switches (§5.4 failover).
    pub switches: u64,
    /// `read` calls served.
    pub reads: u64,
    /// Reads served from the local read-ahead cache or write buffer.
    pub read_cache_hits: u64,
    /// Client initializations performed.
    pub initializations: u64,
    /// Records rewritten by the recovery procedure (CopyLog).
    pub recovery_copies: u64,
    /// Times the δ window was full while more records waited — each is a
    /// flow-control stall spent waiting on acknowledgments.
    pub window_stalls: u64,
}

/// The replicated log abstraction (§3.1): an append-only record sequence
/// with `WriteLog`, `ReadLog`, and `EndOfLog`, durable on N of M servers.
pub struct ReplicatedLog<E: Endpoint> {
    id: ClientId,
    opts: ClientOptions,
    net: ClientNet<E>,
    view: MergedView,
    epoch: Epoch,
    initialized: bool,
    /// Current N write targets.
    targets: Vec<ServerId>,
    /// Per server: the LSN from which it holds our current write stream
    /// (acks below this LSN on that server count toward older records
    /// already noted in the view).
    covers_from: HashMap<ServerId, Lsn>,
    next_lsn: Lsn,
    /// Assigned but unsent records (grouping, §4.1).
    buffer: VecDeque<(Lsn, LogData)>,
    /// Sent, not yet on N servers. Never exceeds δ records.
    in_flight: VecDeque<(Lsn, LogData)>,
    /// Read-ahead cache: the records past the one a forward-run miss
    /// asked for, and those `read_backward` returned. A record enters it
    /// only from a server the merged view names for it, at the epoch the
    /// view names; the record a `read` miss asked for is not kept.
    read_cache: BTreeMap<Lsn, LogRecord>,
    /// The LSN of the previous `read`: a miss at the LSN after it
    /// continues a forward run.
    last_read: Lsn,
    stats: ClientStats,
    obs: dlog_obs::Obs,
    /// xorshift64 state for retry jitter; seeded from the client id so
    /// replays are deterministic but distinct clients de-convoy.
    jitter: u64,
    /// Reused scratch: the servers holding the window head
    /// (`harvest_completions`).
    holders: Vec<ServerId>,
}

impl<E: Endpoint> ReplicatedLog<E> {
    /// Create an uninitialized client; call
    /// [`ReplicatedLog::initialize`] before any log operation.
    #[must_use]
    pub fn new(id: ClientId, opts: ClientOptions, net: ClientNet<E>) -> Self {
        ReplicatedLog {
            id,
            opts,
            net,
            view: MergedView::new(),
            epoch: Epoch::ZERO,
            initialized: false,
            targets: Vec::new(),
            covers_from: HashMap::new(),
            next_lsn: Lsn::FIRST,
            buffer: VecDeque::new(),
            in_flight: VecDeque::new(),
            read_cache: BTreeMap::new(),
            last_read: Lsn::ZERO,
            stats: ClientStats::default(),
            obs: dlog_obs::Obs::off(),
            jitter: id.0 ^ 0x9E37_79B9_7F4A_7C15,
            holders: Vec::new(),
        }
    }

    /// Attach an observability handle; `write` emits `ClientWrite` trace
    /// events and `force` samples end-to-end force latency.
    pub fn set_obs(&mut self, obs: dlog_obs::Obs) {
        self.obs = obs;
    }

    /// The observability handle attached to this client (off by default).
    #[must_use]
    pub fn obs(&self) -> &dlog_obs::Obs {
        &self.obs
    }

    /// This client's id.
    #[must_use]
    pub fn client_id(&self) -> ClientId {
        self.id
    }

    /// The crash epoch in use (valid after initialization).
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Current write targets.
    #[must_use]
    pub fn targets(&self) -> &[ServerId] {
        &self.targets
    }

    /// Client counters.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Network counters.
    #[must_use]
    pub fn net_stats(&self) -> crate::net::NetClientStats {
        self.net.stats()
    }

    /// The merged read view (exposed for tests and experiments).
    #[must_use]
    pub fn view(&self) -> &MergedView {
        &self.view
    }

    /// Client initialization (§3.1.2): gather interval lists from at least
    /// `M − N + 1` servers, merge them, obtain a fresh epoch, and perform
    /// the atomicity rewrite of the last δ records.
    ///
    /// # Errors
    /// [`DlogError::QuorumUnavailable`] when too few servers respond.
    pub fn initialize(&mut self) -> Result<()> {
        self.stats.initializations += 1;
        let need = self.opts.config.init_quorum();

        // 1. Gather interval lists from at least `need` servers.
        let servers = self.opts.config.servers.clone();
        let mut lists = self.net.interval_lists(self.id, &servers, need);
        if lists.len() < need {
            return Err(DlogError::QuorumUnavailable {
                operation: "client initialization",
                needed: need,
                available: lists.len(),
            });
        }
        self.view = MergedView::merge(&lists);
        self.read_cache.clear();

        // 2. Fresh epoch from the Appendix I generator. The identifier is
        // unique and increasing across this client's restarts; still, be
        // defensive against a view holding a higher epoch (e.g. restored
        // from foreign state) by drawing again.
        let generator = EpochGenerator::new(self.id.0, servers.clone());
        let max_seen = self
            .view
            .segments()
            .iter()
            .map(|s| s.epoch)
            .max()
            .unwrap_or(Epoch::ZERO);
        let mut epoch = generator.new_epoch(&mut self.net)?;
        while epoch <= max_seen {
            epoch = generator.new_epoch(&mut self.net)?;
        }
        self.epoch = epoch;

        // 3. Choose targets.
        self.targets = assign::initial(self.id, &servers, self.opts.config.n);
        self.covers_from.clear();

        // 4. Atomicity rewrite: copy the last δ records with the new
        // epoch, append δ not-present records, InstallCopies.
        let end = self.view.end_of_log();
        let delta = self.opts.config.delta;
        if end > Lsn::ZERO {
            // δ masks fill `end + 1 ..= end + δ`; fresh writes follow them.
            let next_lsn = end
                .offset(delta)
                .and_then(|last_mask| last_mask.offset(1))
                .ok_or_else(|| {
                    DlogError::Protocol(format!("end of log {end} leaves no room for δ masks"))
                })?;
            let copy_lo = end
                .back(delta - 1)
                .map_or(Lsn::FIRST, |lo| lo.max(Lsn::FIRST));
            let mut copies: Vec<LogRecord> = Vec::new();
            for lsn in copy_lo.0..=end.0 {
                let lsn = Lsn(lsn);
                // A miss asks for the rest of the window, which then
                // comes from the cache.
                let original = match self.read_cache.remove(&lsn) {
                    Some(rec) => rec,
                    None => {
                        let want = u32::try_from(lsn.span_to(end)).unwrap_or(u32::MAX);
                        let holders = self.holders_of(lsn)?;
                        self.fetch(lsn, want, &holders)?
                    }
                };
                copies.push(LogRecord {
                    lsn,
                    epoch: self.epoch,
                    present: original.present,
                    data: original.data,
                });
            }
            let masks = (1..=delta).filter_map(|i| end.offset(i));
            copies.extend(masks.map(|lsn| LogRecord::not_present(lsn, self.epoch)));
            self.stats.recovery_copies += copies.len() as u64;
            self.install_on_targets(&copies, &mut lists)?;
            self.view = MergedView::merge(&lists);
            self.next_lsn = next_lsn;
            for &t in &self.targets.clone() {
                self.covers_from.insert(t, copy_lo);
            }
        } else {
            // Empty log: nothing could have been reported written, so
            // reporting the log empty is consistent (§3.1.2); fresh writes
            // carry the new epoch and win any merge against strays.
            self.next_lsn = Lsn::FIRST;
            for &t in &self.targets.clone() {
                self.covers_from.insert(t, Lsn::FIRST);
            }
        }

        self.buffer.clear();
        self.in_flight.clear();
        self.read_cache.clear();
        self.initialized = true;
        Ok(())
    }

    /// Stage the recovery copies on every target and install them,
    /// switching targets on failure. No server is tried twice, so this
    /// gives up once every server has been tried. Updates
    /// `lists` with the installed interval so the view can be re-merged.
    fn install_on_targets(
        &mut self,
        copies: &[LogRecord],
        lists: &mut Vec<(ServerId, IntervalList)>,
    ) -> Result<()> {
        let (Some(first), Some(last)) = (copies.first(), copies.last()) else {
            return Ok(());
        };
        let (lo, hi) = (first.lsn, last.lsn);
        let mut installed = 0usize;
        let mut idx = 0usize;
        let mut tried = self.targets.clone();
        while installed < self.targets.len() {
            let Some(&t) = self.targets.get(idx) else {
                return Err(DlogError::QuorumUnavailable {
                    operation: "recovery InstallCopies",
                    needed: self.opts.config.n,
                    available: installed,
                });
            };
            match self.stage_and_install(t, copies) {
                Ok(()) => {
                    installed += 1;
                    idx += 1;
                    let entry = lists.iter_mut().find(|(s, _)| *s == t);
                    let iv = dlog_types::Interval::new(self.epoch, lo, hi);
                    match entry {
                        Some((_, list)) => {
                            list.push(iv).map_err(DlogError::Protocol)?;
                        }
                        None => {
                            let mut list = IntervalList::new();
                            list.push(iv).map_err(DlogError::Protocol)?;
                            lists.push((t, list));
                        }
                    }
                }
                Err(_) => {
                    // Switch to a replacement target and try it instead.
                    let Some(replacement) =
                        assign::replacement(&self.opts.config.servers, &tried, t)
                    else {
                        return Err(DlogError::QuorumUnavailable {
                            operation: "recovery InstallCopies",
                            needed: self.opts.config.n,
                            available: installed,
                        });
                    };
                    self.stats.switches += 1;
                    tried.push(replacement);
                    if let Some(slot) = self.targets.get_mut(idx) {
                        *slot = replacement;
                    }
                }
            }
        }
        Ok(())
    }

    fn stage_and_install(&mut self, server: ServerId, copies: &[LogRecord]) -> Result<()> {
        // Chunk the copies to fit packets.
        let mut chunk: Vec<LogRecord> = Vec::new();
        let mut bytes = 0usize;
        let flush_chunk = |net: &mut ClientNet<E>, chunk: &mut Vec<LogRecord>| -> Result<()> {
            if chunk.is_empty() {
                return Ok(());
            }
            let resp = net.rpc(
                server,
                Request::CopyLog {
                    client: self.id,
                    epoch: self.epoch,
                    records: std::mem::take(chunk),
                },
            )?;
            match resp {
                Response::Ok => Ok(()),
                Response::Err { code, detail } if code == codes::STALE_EPOCH => Err(
                    DlogError::Protocol(format!("stale epoch at {server}: {detail}")),
                ),
                other => Err(DlogError::Protocol(format!(
                    "CopyLog: unexpected {other:?}"
                ))),
            }
        };
        for rec in copies {
            let cost = rec.data.len() + 32;
            if bytes + cost > dlog_net::MAX_PACKET_BYTES - 256 && !chunk.is_empty() {
                flush_chunk(&mut self.net, &mut chunk)?;
                bytes = 0;
            }
            chunk.push(rec.clone());
            bytes += cost;
        }
        flush_chunk(&mut self.net, &mut chunk)?;
        match self.net.rpc(
            server,
            Request::InstallCopies {
                client: self.id,
                epoch: self.epoch,
            },
        )? {
            Response::Ok => Ok(()),
            other => Err(DlogError::Protocol(format!(
                "InstallCopies: unexpected {other:?}"
            ))),
        }
    }

    /// `WriteLog` (§3.1): append a record, returning its LSN. The record
    /// is buffered locally — group records and call
    /// [`ReplicatedLog::force`] when durability is required, exactly as a
    /// recovery manager distinguishes buffered from forced writes (§4.1).
    ///
    /// # Errors
    /// [`DlogError::NotInitialized`] before initialization.
    pub fn write(&mut self, data: impl Into<LogData>) -> Result<Lsn> {
        if !self.initialized {
            return Err(DlogError::NotInitialized);
        }
        let span = self.obs.start();
        let data = data.into();
        let lsn = self.next_lsn;
        self.next_lsn = lsn.next();
        self.stats.records_written += 1;
        self.stats.bytes_written += data.len() as u64;
        self.obs
            .event(dlog_obs::Stage::ClientWrite, lsn.0, data.len() as u64);
        self.buffer.push_back((lsn, data));
        self.obs.sample_since(dlog_obs::Stage::ClientWrite, span);
        Ok(lsn)
    }

    /// Send buffered records as asynchronous `WriteLog` messages without
    /// waiting for full replication (except when the δ window forces
    /// flow-control waits).
    ///
    /// # Errors
    /// Propagates quorum loss and transport failures.
    pub fn flush(&mut self) -> Result<()> {
        if !self.initialized {
            return Err(DlogError::NotInitialized);
        }
        self.pump(false)
    }

    /// Force: every record written so far is on N servers when this
    /// returns. Returns the highest durable LSN.
    ///
    /// # Errors
    /// [`DlogError::QuorumUnavailable`] when fewer than N servers can be
    /// made to hold the records.
    pub fn force(&mut self) -> Result<Lsn> {
        if !self.initialized {
            return Err(DlogError::NotInitialized);
        }
        self.stats.forces += 1;
        // End-to-end force latency lands in this client handle's Force
        // histogram; no trace event is emitted (the storage layer's Force
        // event is the one the ack invariant keys on).
        let span = self.obs.start();
        self.pump(true)?;
        self.obs.sample_since(dlog_obs::Stage::Force, span);
        Ok(self.next_lsn.prev().unwrap_or(Lsn::ZERO))
    }

    /// `EndOfLog` (§3.1): the LSN of the most recently written record.
    ///
    /// # Errors
    /// [`DlogError::NotInitialized`] before initialization.
    pub fn end_of_log(&self) -> Result<Lsn> {
        if !self.initialized {
            return Err(DlogError::NotInitialized);
        }
        Ok(self.next_lsn.prev().unwrap_or(Lsn::ZERO))
    }

    /// `ReadLog` (§3.1): fetch the record at `lsn` using a single server
    /// (plus failover), the read cache, or the local write buffer. A miss
    /// at the LSN after the previous read's reads ahead; any other miss
    /// asks for one.
    ///
    /// # Errors
    /// [`DlogError::NoSuchRecord`] for never-written LSNs,
    /// [`DlogError::NotPresent`] for records masked by recovery,
    /// [`DlogError::QuorumUnavailable`] when no holder responds.
    pub fn read(&mut self, lsn: Lsn) -> Result<LogData> {
        if !self.initialized {
            return Err(DlogError::NotInitialized);
        }
        self.stats.reads += 1;
        if lsn == Lsn::ZERO || lsn >= self.next_lsn {
            return Err(DlogError::NoSuchRecord { lsn });
        }
        let continues_run = self.last_read.precedes(lsn);
        self.last_read = lsn;
        // Local sources first: write buffer, in-flight window, cache.
        if let Some((_, d)) = self.buffer.iter().find(|(l, _)| *l == lsn) {
            self.stats.read_cache_hits += 1;
            return Ok(d.clone());
        }
        if let Some((_, d)) = self.in_flight.iter().find(|(l, _)| *l == lsn) {
            self.stats.read_cache_hits += 1;
            return Ok(d.clone());
        }
        if let Some(rec) = self.read_cache.get(&lsn) {
            self.stats.read_cache_hits += 1;
            return if rec.present {
                Ok(rec.data.clone())
            } else {
                Err(DlogError::NotPresent { lsn })
            };
        }
        // A miss that continues a forward run reads ahead; any other asks
        // for the one record it returns. That record is not cached: a
        // payload may be a view of the whole reply buffer.
        let want = if continues_run { READ_AHEAD } else { 1 };
        let holders = self.holders_of(lsn)?;
        let rec = self.fetch(lsn, want, &holders)?;
        if rec.present {
            Ok(rec.data)
        } else {
            Err(DlogError::NotPresent { lsn })
        }
    }

    /// `ReadLogBackward` (§4.2): fetch up to `max` records ending at
    /// `lsn`, in descending LSN order, packed per server round trip — the
    /// access pattern of a recovery manager scanning from `EndOfLog`.
    /// Records masked *not present* are included (the caller skips them);
    /// the scan stops at LSN 1 or at a never-written LSN. Every record is
    /// the copy the merged view names.
    ///
    /// # Errors
    /// Propagates server unavailability; an out-of-range starting `lsn`
    /// yields [`DlogError::NoSuchRecord`].
    pub fn read_backward(&mut self, lsn: Lsn, max: u32) -> Result<Vec<LogRecord>> {
        if !self.initialized {
            return Err(DlogError::NotInitialized);
        }
        if lsn == Lsn::ZERO || lsn >= self.next_lsn {
            return Err(DlogError::NoSuchRecord { lsn });
        }
        let mut out: Vec<LogRecord> = Vec::new();
        let mut cursor = Some(lsn);
        while let Some(cur) = cursor {
            if out.len() as u32 >= max || cur == Lsn::ZERO {
                break;
            }
            // Local window first (buffered/in-flight records).
            if let Some((_, d)) = self
                .buffer
                .iter()
                .chain(self.in_flight.iter())
                .find(|(l, _)| *l == cur)
            {
                out.push(LogRecord::present(cur, self.epoch, d.clone()));
                cursor = cur.prev();
                continue;
            }
            let Ok(candidates) = self.holders_of(cur) else {
                break;
            };
            let mut got_any = false;
            for s in candidates {
                let want = (max - out.len() as u32).min(READ_AHEAD);
                match self.net.rpc(
                    s,
                    Request::ReadLogBackward {
                        client: self.id,
                        lsn: cur,
                        max_records: want,
                    },
                ) {
                    Ok(Response::Records { records }) if !records.is_empty() => {
                        // The server packs descending records but only
                        // holds its own intervals, and may hold copies
                        // the view masked; accept the contiguous
                        // descending prefix starting at the cursor that
                        // the view names on `s`. The next round asks the
                        // holder the view names for the record after it.
                        let mut expected = cur;
                        for rec in records {
                            if rec.lsn != expected || !self.view_names(s, &rec) {
                                break;
                            }
                            self.cache_read(rec.clone());
                            out.push(rec);
                            got_any = true;
                            match expected.prev() {
                                Some(p) => expected = p,
                                None => break,
                            }
                        }
                        if got_any {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if !got_any {
                break;
            }
            cursor = out.last().and_then(|r| r.lsn.prev());
        }
        Ok(out)
    }

    /// Insert into the read-ahead cache, evicting smallest LSNs once it
    /// holds more than [`READ_CACHE_CAP`] records.
    fn cache_read(&mut self, rec: LogRecord) {
        self.read_cache.insert(rec.lsn, rec);
        while self.read_cache.len() > READ_CACHE_CAP {
            self.read_cache.pop_first();
        }
    }

    /// The servers the merged view names for `lsn`.
    fn holders_of(&self, lsn: Lsn) -> Result<Vec<ServerId>> {
        self.view
            .locate(lsn)
            .map(|(servers, _)| servers.to_vec())
            .ok_or(DlogError::NoSuchRecord { lsn })
    }

    /// True when the merged view names `server` as a holder of `rec`'s
    /// LSN at `rec`'s epoch. All read-side voting happened in the merge
    /// (§3.1.2), so any other copy a server returns is one recovery
    /// superseded, such as a straggler from before a crash.
    fn view_names(&self, server: ServerId, rec: &LogRecord) -> bool {
        self.view
            .locate(rec.lsn)
            .is_some_and(|(servers, epoch)| epoch == rec.epoch && servers.contains(&server))
    }

    /// Ask `holders`, in turn, for up to `want` records from `lsn`, and
    /// return the record at `lsn` from the first whose copy the view
    /// names. The other records of a reply that the view names go to the
    /// read-ahead cache. When no holder answers with it, the read's
    /// quorum of one is unavailable.
    pub(crate) fn fetch(&mut self, lsn: Lsn, want: u32, holders: &[ServerId]) -> Result<LogRecord> {
        let mut last_err: Option<DlogError> = None;
        for &s in holders {
            match self.net.rpc(
                s,
                Request::ReadLogForward {
                    client: self.id,
                    lsn,
                    max_records: want,
                },
            ) {
                Ok(Response::Records { records }) => {
                    let mut hit: Option<LogRecord> = None;
                    for rec in records {
                        if !self.view_names(s, &rec) {
                            continue;
                        }
                        if rec.lsn == lsn {
                            hit = Some(rec);
                        } else {
                            self.cache_read(rec);
                        }
                    }
                    if let Some(rec) = hit {
                        return Ok(rec);
                    }
                    // Not stored there (garbage-collected), or
                    // not the copy the view names: try the next holder.
                }
                Ok(other) => {
                    last_err = Some(DlogError::Protocol(format!("read: unexpected {other:?}")));
                }
                Err(DlogError::ServerUnavailable { .. }) => {}
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or(DlogError::QuorumUnavailable {
            operation: "ReadLog",
            needed: 1,
            available: 0,
        }))
    }

    /// Move buffered records through the δ window to the targets; when
    /// `drain` is set, do not return until everything is on N servers.
    fn pump(&mut self, drain: bool) -> Result<()> {
        let mut demanded_ack = false;
        loop {
            // Admit buffered records into the δ window.
            let mut fresh = 0usize;
            while (self.in_flight.len() as u64) < self.opts.config.delta {
                match self.buffer.pop_front() {
                    Some(r) => {
                        self.in_flight.push_back(r);
                        fresh += 1;
                    }
                    None => break,
                }
            }
            let window_full =
                (self.in_flight.len() as u64) >= self.opts.config.delta && !self.buffer.is_empty();
            if window_full {
                self.stats.window_stalls += 1;
            }
            let need_ack = drain || window_full;
            if fresh > 0 {
                self.transmit(fresh, need_ack)?;
                if need_ack {
                    demanded_ack = true;
                }
            } else if need_ack && !demanded_ack && !self.in_flight.is_empty() {
                // The whole window went out earlier as asynchronous
                // WriteLog, so the servers owe us nothing. An empty
                // ForceLog demands the force and its ack without
                // resending a single record — this replaces a silent
                // full-timeout wait for acks that were never coming.
                self.net.send_many(
                    &self.targets,
                    Message::ForceLog {
                        client: self.id,
                        epoch: self.epoch,
                        records: Vec::new(),
                    },
                )?;
                demanded_ack = true;
            }
            if need_ack {
                // Fully drain only on the final round of a force; flow
                // control just waits until the window dips below δ.
                self.await_acks(drain && self.buffer.is_empty())?;
            } else {
                // Asynchronous flush: absorb whatever acks arrived.
                let _ = self.net.poll(Duration::ZERO)?;
                self.harvest_completions();
            }
            if self.buffer.is_empty() && (!drain || self.in_flight.is_empty()) {
                return Ok(());
            }
        }
    }

    /// Send the `fresh` newest records of the window to every target, as
    /// `ForceLog` when an ack is needed. Each batch is encoded once and
    /// fanned out: the replicas receive byte-identical packets, so the
    /// message is built and serialized a single time regardless of the
    /// replica count.
    fn transmit(&mut self, fresh: usize, force: bool) -> Result<()> {
        let window = self.in_flight.make_contiguous();
        let records = window
            .get(window.len().saturating_sub(fresh)..)
            .unwrap_or(&[]);
        let batches = dlog_net::wire::pack_batches(records);
        for batch in batches {
            let msg = if force {
                Message::ForceLog {
                    client: self.id,
                    epoch: self.epoch,
                    records: batch,
                }
            } else {
                Message::WriteLog {
                    client: self.id,
                    epoch: self.epoch,
                    records: batch,
                }
            };
            self.net.send_many(&self.targets, msg)?;
        }
        Ok(())
    }

    /// Block until the window drains (`drain`: fully; otherwise: below δ).
    ///
    /// Waits follow a jittered exponential backoff from
    /// [`RETRY_BASE`] up to the [`ClientOptions::ack_timeout`]
    /// cap: fixed-interval retries convoy under loss (every waiter
    /// re-fires in lockstep, and a single lost ack costs a whole
    /// period), while small first retries recover in milliseconds and
    /// the cap bounds the tail.
    fn await_acks(&mut self, drain: bool) -> Result<()> {
        let mut attempts: HashMap<ServerId, u32> = HashMap::new();
        let mut round: u32 = 0;
        // With most servers unreachable, target switching would otherwise
        // ping-pong among dead candidates forever; bound the churn per
        // wait and report the quorum loss instead.
        let mut switch_budget = 2 * self.opts.config.m() as u32 + 2;
        loop {
            self.harvest_completions();
            let done = if drain {
                self.in_flight.is_empty()
            } else {
                (self.in_flight.len() as u64) < self.opts.config.delta
            };
            if done {
                return Ok(());
            }
            let wait = backoff_wait(RETRY_BASE, self.opts.ack_timeout, round, &mut self.jitter);
            let progressed = self.net.poll(wait)?;
            self.process_naks()?;
            self.harvest_completions();
            if progressed {
                round = 0;
                continue;
            }
            // Timeout: re-send each laggard the window suffix it has not
            // acknowledged, eventually switching. A laggard has not
            // acknowledged the newest *sent* record (or does not cover
            // the window head at all). Switching is charged only for
            // capped-length waits — early, milliseconds-long rounds must
            // not evict a merely slow server.
            let Some(&(newest_sent, _)) = self.in_flight.back() else {
                continue;
            };
            let at_cap = backoff_at_cap(RETRY_BASE, self.opts.ack_timeout, round);
            round = round.saturating_add(1);
            let laggards: Vec<ServerId> = self
                .targets
                .iter()
                .copied()
                .filter(|&t| self.net.acked(t) < newest_sent)
                .collect();
            for t in laggards {
                let n = attempts.entry(t).or_insert(0);
                if at_cap {
                    *n += 1;
                }
                if *n > FORCE_RETRIES {
                    if switch_budget == 0 {
                        return Err(self.write_quorum_lost());
                    }
                    switch_budget -= 1;
                    self.switch_target(t)?;
                    attempts.remove(&t);
                } else {
                    let from = self.net.acked(t).next();
                    self.resend_from(t, from, true)?;
                }
            }
        }
    }

    /// Apply pending NAKs: a NAK names the first gap the server sees, and
    /// a server refuses everything after a gap — so the window suffix
    /// from the gap's low edge is exactly what it is missing.
    fn process_naks(&mut self) -> Result<()> {
        while let Some(nak) = self.net.take_nak() {
            let start = self.in_flight.front().map_or(self.next_lsn, |(l, _)| *l);
            let resend_lo = if nak.lo < start {
                // The gap predates the window: those records are already
                // on N other servers; skip them on this one.
                self.net.send(
                    nak.server,
                    Message::NewInterval {
                        client: self.id,
                        epoch: self.epoch,
                        starting_lsn: start,
                    },
                )?;
                self.covers_from.insert(nak.server, start);
                start
            } else {
                nak.lo
            };
            self.resend_from(nak.server, resend_lo, true)?;
        }
        Ok(())
    }

    /// Selective retransmit: resend the in-flight suffix starting at
    /// `from`. Window slots below `from` are skipped — the server either
    /// acknowledged them already (timeout path: `from` is its acked
    /// high-water mark + 1) or was told to start a fresh interval past
    /// them (NAK path) — which is what keeps retransmission cost
    /// proportional to what was actually lost.
    fn resend_from(&mut self, server: ServerId, from: Lsn, force: bool) -> Result<()> {
        let records: Vec<(Lsn, LogData)> = self
            .in_flight
            .iter()
            .filter(|(l, _)| *l >= from)
            .cloned()
            .collect();
        if records.is_empty() {
            return Ok(());
        }
        self.stats.resends += records.len() as u64;
        for batch in dlog_net::wire::pack_batches(&records) {
            let msg = if force {
                Message::ForceLog {
                    client: self.id,
                    epoch: self.epoch,
                    records: batch,
                }
            } else {
                Message::WriteLog {
                    client: self.id,
                    epoch: self.epoch,
                    records: batch,
                }
            };
            self.net.send(server, msg)?;
        }
        Ok(())
    }

    /// Replace a failed target ("clients will simply assume that the
    /// server has failed and will take their logging elsewhere", §4.2).
    fn switch_target(&mut self, failed: ServerId) -> Result<()> {
        let Some(replacement) =
            assign::replacement(&self.opts.config.servers, &self.targets, failed)
        else {
            return Err(self.write_quorum_lost());
        };
        self.stats.switches += 1;
        if let Some(slot) = self.targets.iter_mut().find(|t| **t == failed) {
            *slot = replacement;
        }
        let start = self.in_flight.front().map_or(self.next_lsn, |(l, _)| *l);
        self.net.send(
            replacement,
            Message::NewInterval {
                client: self.id,
                epoch: self.epoch,
                starting_lsn: start,
            },
        )?;
        self.covers_from.insert(replacement, start);
        // A replacement starts cold: it needs the whole window.
        self.resend_from(replacement, start, true)?;
        Ok(())
    }

    /// The error of a write that cannot reach N servers: `available`
    /// counts the targets that acknowledged the newest sent record.
    fn write_quorum_lost(&self) -> DlogError {
        let newest_sent = self.in_flight.back().map_or(Lsn::ZERO, |(lsn, _)| *lsn);
        DlogError::QuorumUnavailable {
            operation: "WriteLog",
            needed: self.opts.config.n,
            available: self
                .targets
                .iter()
                .filter(|&&t| self.net.acked(t) >= newest_sent)
                .count(),
        }
    }

    /// Query a server's operational status snapshot (the `Status` RPC);
    /// works before initialization — observability must not depend on a
    /// healthy quorum.
    ///
    /// # Errors
    /// [`DlogError::ServerUnavailable`] when the server does not answer.
    /// A sharded server answers with one gauge row per shard; the rows
    /// are merged here (counters summed, `last_manifest_lsn` taken as
    /// the max) so callers see one server-wide snapshot either way. Use
    /// [`ReplicatedLog::server_status_shards`] for the per-shard rows.
    pub fn server_status(&mut self, server: ServerId) -> Result<Response> {
        let rows = self.server_status_shards(server)?;
        Ok(merge_status_rows(rows))
    }

    /// Per-shard `Status` rows from `server`, one per shard event loop
    /// (a single row from an unsharded server).
    ///
    /// # Errors
    /// [`DlogError::ServerUnavailable`] when the server does not answer.
    pub fn server_status_shards(&mut self, server: ServerId) -> Result<Vec<Response>> {
        self.net.rpc_all(server, Request::Status)
    }

    /// Query a server's observability snapshot (the `Stats` RPC): per-stage
    /// latency histograms and trace counters. Like
    /// [`ReplicatedLog::server_status`], works before initialization.
    ///
    /// # Errors
    /// [`DlogError::ServerUnavailable`] when the server does not answer.
    /// Per-shard rows are merged: stage entries are concatenated (the
    /// stage id travels with each entry, so histogram merging stays a
    /// consumer-side fold) and the trace/alloc counters summed.
    pub fn server_stats(&mut self, server: ServerId) -> Result<Response> {
        let rows = self.net.rpc_all(server, Request::Stats)?;
        Ok(merge_stats_rows(rows))
    }

    // ---- helpers for the repair module (§5.3) ----

    pub(crate) fn ensure_initialized(&self) -> Result<()> {
        if self.initialized {
            Ok(())
        } else {
            Err(DlogError::NotInitialized)
        }
    }

    pub(crate) fn has_pending_records(&self) -> bool {
        !self.buffer.is_empty() || !self.in_flight.is_empty()
    }

    pub(crate) fn options(&self) -> &ClientOptions {
        &self.opts
    }

    pub(crate) fn net_mut(&mut self) -> &mut ClientNet<E> {
        &mut self.net
    }

    /// Make `view`, a merge of the live servers' interval lists, the
    /// client's view, so that reads accept the copies it names.
    pub(crate) fn adopt_view(&mut self, view: MergedView) {
        self.view = view;
        self.read_cache.clear();
    }

    /// After a repair pass: adopt the repair epoch, refresh the view, and
    /// re-anchor the write stream on the current targets.
    pub(crate) fn adopt_epoch_after_repair(&mut self, epoch: Epoch) -> Result<()> {
        self.epoch = epoch;
        // Refresh the merged view from live servers.
        let servers = self.opts.config.servers.clone();
        let lists = self.net.interval_lists(self.id, &servers, 0);
        self.adopt_view(MergedView::merge(&lists));
        // Future records start a declared fresh interval on each target.
        for &t in &self.targets.clone() {
            self.net.send(
                t,
                Message::NewInterval {
                    client: self.id,
                    epoch,
                    starting_lsn: self.next_lsn,
                },
            )?;
            self.covers_from.insert(t, self.next_lsn);
        }
        Ok(())
    }

    /// Pop fully replicated records off the window head and note them in
    /// the view, a range at a time: the holder set is computed for the
    /// window head, together with how far up the window it stays the same
    /// (one acknowledgment normally completes the whole window, so this
    /// runs once per harvest, not once per record).
    fn harvest_completions(&mut self) {
        while let (Some(&(lo, _)), Some(&(newest, _))) =
            (self.in_flight.front(), self.in_flight.back())
        {
            self.holders.clear();
            let mut hi = newest;
            for (&server, &from) in &self.covers_from {
                let acked = self.net.acked(server);
                if from <= lo && acked >= lo {
                    self.holders.push(server);
                    hi = hi.min(acked);
                } else if from > lo && acked >= from {
                    // Joins the holder set at `from`.
                    hi = hi.min(from.prev().unwrap_or(lo));
                }
            }
            if self.holders.len() < self.opts.config.n {
                break;
            }
            self.view
                .note_write_range(lo, hi, self.epoch, &self.holders);
            while self.in_flight.front().is_some_and(|(lsn, _)| *lsn <= hi) {
                self.in_flight.pop_front();
            }
        }
    }
}

/// Fold per-shard `Status` rows into one server-wide row: counters sum
/// (every gauge but one is a monotone counter), `last_manifest_lsn` is
/// the max across shards, and the merged row reports `shard: 0` with
/// the server's true shard count. A single unsharded row passes through
/// unchanged.
fn merge_status_rows(rows: Vec<Response>) -> Response {
    let mut it = rows.into_iter();
    let Some(mut acc) = it.next() else {
        return Response::Err {
            code: 0,
            detail: "no status rows".into(),
        };
    };
    for row in it {
        if let (
            Response::Status {
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
            },
            Response::Status {
                records_stored: b_records_stored,
                duplicates_ignored: b_duplicates_ignored,
                naks_sent: b_naks_sent,
                rpcs: b_rpcs,
                forces_acked: b_forces_acked,
                clients: b_clients,
                on_disk_bytes: b_on_disk_bytes,
                tracks_flushed: b_tracks_flushed,
                archived_bytes: b_archived_bytes,
                pending_upload_bytes: b_pending_upload_bytes,
                last_manifest_lsn: b_last_manifest_lsn,
                upload_retries: b_upload_retries,
                coalesced_forces: b_coalesced_forces,
                group_commits: b_group_commits,
                shard: _,
                shards: b_shards,
            },
        ) = (&mut acc, row)
        {
            *records_stored += b_records_stored;
            *duplicates_ignored += b_duplicates_ignored;
            *naks_sent += b_naks_sent;
            *rpcs += b_rpcs;
            *forces_acked += b_forces_acked;
            *clients += b_clients;
            *on_disk_bytes += b_on_disk_bytes;
            *tracks_flushed += b_tracks_flushed;
            *archived_bytes += b_archived_bytes;
            *pending_upload_bytes += b_pending_upload_bytes;
            *last_manifest_lsn = (*last_manifest_lsn).max(b_last_manifest_lsn);
            *upload_retries += b_upload_retries;
            *coalesced_forces += b_coalesced_forces;
            *group_commits += b_group_commits;
            *shards = (*shards).max(b_shards);
        }
    }
    if let Response::Status { shard, shards, .. } = &mut acc {
        if *shards > 1 {
            *shard = 0;
        }
    }
    acc
}

/// Fold per-shard `Stats` rows: stage entries concatenate (each entry
/// carries its stage id, so per-stage histogram merging stays a
/// consumer-side fold) and the trace/alloc counters sum.
fn merge_stats_rows(rows: Vec<Response>) -> Response {
    let mut it = rows.into_iter();
    let Some(mut acc) = it.next() else {
        return Response::Err {
            code: 0,
            detail: "no stats rows".into(),
        };
    };
    for row in it {
        if let (
            Response::Stats {
                stages,
                trace_events,
                trace_dropped,
                ingest_allocs,
                ingest_records,
                shard: _,
                shards,
            },
            Response::Stats {
                stages: b_stages,
                trace_events: b_trace_events,
                trace_dropped: b_trace_dropped,
                ingest_allocs: b_ingest_allocs,
                ingest_records: b_ingest_records,
                shard: _,
                shards: b_shards,
            },
        ) = (&mut acc, row)
        {
            stages.extend(b_stages);
            *trace_events += b_trace_events;
            *trace_dropped += b_trace_dropped;
            *ingest_allocs += b_ingest_allocs;
            *ingest_records += b_ingest_records;
            *shards = (*shards).max(b_shards);
        }
    }
    if let Response::Stats { shard, shards, .. } = &mut acc {
        if *shards > 1 {
            *shard = 0;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    use dlog_mc::harness::{build_world, SyncEndpoint, SyncWorldOptions};
    use dlog_net::wire::NodeAddr;
    use dlog_net::FaultPlan;

    const BASE: Duration = Duration::from_millis(2);
    const CAP: Duration = Duration::from_millis(120);

    #[test]
    fn backoff_stays_within_jitter_bounds_per_round() {
        let mut state = 7u64;
        for round in 0..20 {
            let nominal = BASE.saturating_mul(1u32 << round.min(16)).min(CAP);
            let w = backoff_wait(BASE, CAP, round, &mut state);
            assert!(
                w >= nominal.mul_f64(0.74) && w <= nominal.mul_f64(1.26),
                "round {round}: {w:?} outside jitter bounds of {nominal:?}"
            );
        }
    }

    #[test]
    fn backoff_caps_at_ack_timeout() {
        let mut state = 3u64;
        for round in 0..64 {
            let w = backoff_wait(BASE, CAP, round, &mut state);
            assert!(w <= CAP.mul_f64(1.26), "round {round}: {w:?} exceeds cap");
        }
        assert!(!backoff_at_cap(BASE, CAP, 0));
        assert!(backoff_at_cap(BASE, CAP, 6));
        assert!(backoff_at_cap(BASE, CAP, 63));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mut a = 42u64;
        let mut b = 42u64;
        for round in 0..12 {
            assert_eq!(
                backoff_wait(BASE, CAP, round, &mut a),
                backoff_wait(BASE, CAP, round, &mut b),
            );
        }
        // And actually jittered: two rounds at the cap differ.
        let w1 = backoff_wait(BASE, CAP, 10, &mut a);
        let w2 = backoff_wait(BASE, CAP, 10, &mut a);
        assert_ne!(w1, w2, "jitter stream should not repeat immediately");
    }

    #[test]
    fn backoff_survives_degenerate_options() {
        let mut state = 0u64; // zero seed must not wedge xorshift
        let w = backoff_wait(Duration::ZERO, Duration::ZERO, 40, &mut state);
        assert!(w > Duration::ZERO);
        assert!(w <= Duration::from_micros(130));
        assert_ne!(state, 0);
    }

    /// A `Status` row whose counters are `k`, `2k`, …, `13k` in wire order.
    fn status_row(k: u64, last_manifest_lsn: u64, shard: u64, shards: u64) -> Response {
        Response::Status {
            records_stored: k,
            duplicates_ignored: 2 * k,
            naks_sent: 3 * k,
            rpcs: 4 * k,
            forces_acked: 5 * k,
            clients: 6 * k,
            on_disk_bytes: 7 * k,
            tracks_flushed: 8 * k,
            archived_bytes: 9 * k,
            pending_upload_bytes: 10 * k,
            last_manifest_lsn,
            upload_retries: 11 * k,
            coalesced_forces: 12 * k,
            group_commits: 13 * k,
            shard,
            shards,
        }
    }

    #[test]
    fn status_rows_of_shards_fold_into_one_server_row() {
        // Counters sum, the manifest LSN is the max, and the merged row
        // speaks for the whole process: shard 0 of the largest count.
        let merged = merge_status_rows(vec![status_row(1, 90, 0, 2), status_row(10, 40, 1, 2)]);
        assert_eq!(merged, status_row(11, 90, 0, 2));
        let merged = merge_status_rows(vec![status_row(3, 7, 1, 2), status_row(4, 8, 0, 4)]);
        assert_eq!(merged, status_row(7, 8, 0, 4));
        // One unsharded row passes through unchanged.
        let row = status_row(5, 12, 0, 1);
        assert_eq!(merge_status_rows(vec![row.clone()]), row);
    }

    /// A recovery manager scanning a long log backward must not keep every
    /// record it reads (each one pins its reply buffer).
    #[test]
    fn a_long_backward_scan_keeps_the_read_cache_bounded() {
        let dir = std::env::temp_dir().join(format!("dlog-core-read-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SyncWorldOptions::shared(1, FaultPlan::reliable(), dlog_obs::Obs::default());
        let ep = SyncEndpoint::new(NodeAddr(1000), build_world(&dir, opts).unwrap());
        let net = ClientNet::new(ep, HashMap::from([(ServerId(1), NodeAddr(1))]));
        let config = ReplicationConfig::new(vec![ServerId(1)], 1, 8).unwrap();
        let mut log = ReplicatedLog::new(ClientId(1), ClientOptions::new(config), net);
        log.initialize().unwrap();

        let n = READ_CACHE_CAP as u32 + 1000;
        let mut last = Lsn::ZERO;
        for i in 0..n {
            last = log.write(i.to_le_bytes().to_vec()).unwrap();
        }
        log.force().unwrap();
        let scanned = log.read_backward(last, n).unwrap();
        assert_eq!(scanned.len(), n as usize);
        assert!(
            log.read_cache.len() <= READ_CACHE_CAP,
            "read cache grew to {} records",
            log.read_cache.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
