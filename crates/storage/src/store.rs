//! The log-server store: NVRAM-buffered, track-at-a-time, CRC-framed,
//! crash-recoverable storage for many clients' log records.
//!
//! Durability model (§4.1): a record is durable the moment it is inserted
//! into the non-volatile buffer — the store never needs a synchronous disk
//! write to acknowledge a force. Buffered bytes are retired to the
//! sequential stream a track at a time. Crash recovery:
//!
//! 1. load the latest interval-table checkpoint (if valid);
//! 2. scan the stream tail from the checkpoint position, rebuilding the
//!    interval table, indexes, and staged `CopyLog` state, stopping at the
//!    first torn frame;
//! 3. replay the surviving NVRAM contents over the (possibly torn) tail;
//! 4. truncate any garbage past the recovered end.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dlog_types::bytes::u32_le_at;
use dlog_types::{
    ClientId, DlogError, Epoch, Interval, IntervalList, LogData, LogRecord, Lsn, Result,
};

use crate::crc::crc32;
use crate::frame::{close_envelopes, Frame, ENVELOPE_BYTES};
use crate::intervals::IntervalTable;
use crate::nvram::{GuardError, NvramDevice, Tail};
use crate::stream::SegmentedStream;

const CKPT_MAGIC: u32 = 0x444C_4B50; // "DLKP"

/// The window a read of one record takes: all of [`LogStore::read`]'s,
/// and the part of a backward run's window at and past the run's first
/// frame. Every frame the benchmark writes (146–302 B) and a typical
/// record fit, so such a read is one positional read of its segment; a
/// longer frame costs a second.
pub const FRAME_READ_WINDOW: usize = 1024;

/// CopyLog records awaiting InstallCopies: client -> epoch -> each
/// record's LSN and stream position. Install needs nothing else, so a
/// staged record never pins its payload (for a zero-copy-decoded
/// `CopyLog`, the whole receive buffer) until its install, or for good
/// if the client crashes first; the payload is durable at its position.
type StagedMap = HashMap<ClientId, HashMap<Epoch, Vec<(Lsn, u64)>>>;

/// When a force must reach stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    /// Forces are satisfied by the NVRAM insert (the paper's design).
    Nvram,
    /// No NVRAM credit: every force flushes the track and fsyncs the
    /// stream. The ablation baseline for experiment E8.
    FsyncPerForce,
}

/// Proof that a force round reached stable storage (§4.2: force, then
/// acknowledge). Only [`LogStore::force_batch`] makes one, so a forced
/// `NewHighLsn` built from it cannot precede its force:
///
/// ```compile_fail
/// let forged = dlog_storage::Durable(());
/// ```
#[derive(Debug)]
pub struct Durable(());

/// Store tuning options.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Flush the NVRAM track to disk when it reaches this many bytes
    /// (a "track" in the paper's sense).
    pub track_bytes: usize,
    /// Segment file capacity.
    pub segment_bytes: u64,
    /// `fsync` segment files when a track is written.
    pub fsync: bool,
    /// Durability policy for forces.
    pub durability: Durability,
    /// Checkpoint the interval table to `intervals.ckpt` after this many
    /// stream bytes (0 disables checkpointing).
    pub checkpoint_every: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            track_bytes: 64 * 1024,
            segment_bytes: 8 << 20,
            fsync: true,
            durability: Durability::Nvram,
            checkpoint_every: 4 << 20,
        }
    }
}

/// Operation counters, exposed for the capacity experiments (E3, E8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records written (including staged copies).
    pub records_written: u64,
    /// Payload bytes written (frame bodies).
    pub bytes_written: u64,
    /// Track flushes to the stream.
    pub tracks_flushed: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Force operations observed.
    pub forces: u64,
    /// Record reads served.
    pub reads: u64,
    /// Interval-table checkpoints written.
    pub checkpoints: u64,
    /// Records rebuilt during the last recovery scan.
    pub recovered_records: u64,
    /// Bytes replayed from NVRAM during the last recovery.
    pub nvram_replayed_bytes: u64,
}

/// What retention enforcement accomplished (§5.3 with an archive tier).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// Stream bytes freed by dropping whole segments.
    pub freed: u64,
    /// Bytes over budget that could *not* be freed: segments not yet
    /// confirmed archived (when archival is configured), plus segment-
    /// granularity remainder.
    pub pending: u64,
}

/// A log server's storage engine.
pub struct LogStore {
    dir: PathBuf,
    opts: StoreOptions,
    nvram: NvramDevice,
    stream: SegmentedStream,
    /// The interval table and the CopyLog records awaiting InstallCopies.
    replay: ReplayState,
    bytes_since_ckpt: u64,
    /// The device seal every NVRAM insert presents (§5.1).
    seal: u64,
    /// Frame-aligned position recovery scanned from; positions below it
    /// are only reachable through the interval table, positions at or
    /// above it decode as a contiguous frame sequence.
    anchor: u64,
    stats: StoreStats,
    obs: dlog_obs::Obs,
    /// Reused frame-encode scratch: `put_frame` serializes every record
    /// through here, so after warm-up the write hot path performs no
    /// per-record allocation for framing.
    frame_buf: Vec<u8>,
    /// Reused scratch for where each of a message's frames starts in
    /// `frame_buf`, so `write_piece` seals them together.
    frame_starts: Vec<usize>,
    /// Reused I/O scratch: track flushes and checkpoint images are
    /// staged through here, so the steady-state force and checkpoint
    /// paths allocate nothing after warm-up.
    scratch: Vec<u8>,
}

impl LogStore {
    /// Open (or create) the store in `dir`, recovering state from the
    /// checkpoint, the stream tail, and the surviving NVRAM contents.
    ///
    /// # Errors
    /// Fails on I/O errors or irrecoverable structural corruption.
    pub fn open(dir: impl AsRef<Path>, opts: StoreOptions, nvram: NvramDevice) -> Result<LogStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut stream = SegmentedStream::open(&dir, opts.segment_bytes)?;

        // 1. Checkpoint.
        let (mut replay, scan_from) = ReplayState::checkpointed(&dir, &stream);
        let mut stats = StoreStats::default();

        // 2. Scan the tail.
        let valid_end = replay.recover(&mut stream, scan_from, &mut stats)?;
        stream.truncate(valid_end)?;

        // 3. NVRAM replay.
        let (base, pending) = nvram.pending();
        if !pending.is_empty() {
            if base > valid_end {
                return Err(DlogError::Corrupt(
                    "nvram base is past the recovered stream end".into(),
                ));
            }
            let overlap = (valid_end - base) as usize;
            if overlap < pending.len() {
                let suffix = pending.get(overlap..).unwrap_or(&[]);
                stream.write_at(valid_end, suffix)?;
                stream.sync()?;
                stats.nvram_replayed_bytes = suffix.len() as u64;
                let replay_end = replay.recover(&mut stream, valid_end, &mut stats)?;
                // NVRAM holds whole frames, so the replay must consume the
                // entire suffix.
                if replay_end != valid_end + suffix.len() as u64 {
                    return Err(DlogError::Corrupt(
                        "nvram contents do not decode to whole frames".into(),
                    ));
                }
            }
            nvram.retire(pending.len());
        } else if stream.end() == 0 {
            nvram.format(0);
        }
        // The NVRAM base must now sit at the stream end (empty buffer).
        if nvram.base_pos() != stream.end() {
            nvram.format(stream.end());
        }

        let seal = nvram.seal();
        Ok(LogStore {
            dir,
            opts,
            nvram,
            stream,
            replay,
            bytes_since_ckpt: 0,
            seal,
            anchor: scan_from,
            stats,
            obs: dlog_obs::Obs::off(),
            frame_buf: Vec::new(),
            frame_starts: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Attach an observability handle. Shared with the owning server so
    /// `Force` trace events interleave (and order) with its
    /// `AckHighLsn` events.
    pub fn set_obs(&mut self, obs: dlog_obs::Obs) {
        self.obs = obs;
    }

    /// The store's NVRAM device handle (survives a simulated crash).
    #[must_use]
    pub fn nvram(&self) -> NvramDevice {
        self.nvram.clone()
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Logical append position (next record's stream position).
    #[must_use]
    pub fn append_position(&self) -> u64 {
        self.nvram.base_pos() + self.nvram.pending_len() as u64
    }

    /// Store a record for `client` (the `ServerWriteLog` operation,
    /// §3.1.1): [`LogStore::write_batch`] of one record, which may be one
    /// marked *not present*. The record is durable when this returns.
    ///
    /// # Errors
    /// Rejects records violating server storage order (decreasing epoch or
    /// non-increasing LSN within an epoch) and propagates I/O failures.
    pub fn write(&mut self, client: ClientId, record: &LogRecord) -> Result<()> {
        let run = [(record.lsn, record.data.share())];
        self.write_run(client, record.epoch, record.present, &run)
    }

    /// Store the records of one message from `client`, all written in
    /// `epoch`, as **one** append (§4.1: records are grouped into
    /// messages and the server pays per message): the frames are encoded
    /// back to back and reach the NVRAM buffer in a single insert, so a
    /// crash finds all of them or none. Every record is durable when this
    /// returns.
    ///
    /// A run larger than the whole device goes in device-sized pieces;
    /// each piece is then all-or-nothing.
    ///
    /// # Errors
    /// As [`LogStore::write`]. The order of the whole run is checked
    /// before anything is stored, and a piece is indexed only once it is
    /// in the buffer: an `Err` leaves no record of the failed piece in the
    /// table, the counters or the NVRAM.
    pub fn write_batch(
        &mut self,
        client: ClientId,
        epoch: Epoch,
        records: &[(Lsn, LogData)],
    ) -> Result<()> {
        self.write_run(client, epoch, true, records)
    }

    fn write_run(
        &mut self,
        client: ClientId,
        epoch: Epoch,
        present: bool,
        records: &[(Lsn, LogData)],
    ) -> Result<()> {
        self.replay
            .table
            .check_run(client, epoch, records.iter().map(|(lsn, _)| *lsn))
            .map_err(DlogError::Protocol)?;
        let mut rest = records;
        while !rest.is_empty() {
            let stored = self.write_piece(client, epoch, present, rest)?;
            rest = rest.get(stored..).unwrap_or(&[]);
        }
        self.maybe_checkpoint()
    }

    /// Frame the longest prefix of `records` that fits the device (one
    /// record at least: a frame larger than the device takes the bypass in
    /// `put_frames`), insert it, then index it. Returns its length.
    fn write_piece(
        &mut self,
        client: ClientId,
        epoch: Epoch,
        present: bool,
        records: &[(Lsn, LogData)],
    ) -> Result<usize> {
        let flags = Frame::record_flags(present, false);
        let mut buf = std::mem::take(&mut self.frame_buf);
        let starts = &mut self.frame_starts;
        buf.clear();
        starts.clear();
        let mut payload = 0u64;
        for (lsn, data) in records {
            let framed = buf.len() + Frame::record_len(data.len());
            if !starts.is_empty() && framed > self.nvram.capacity() {
                break;
            }
            let start =
                Frame::open_record_into(&mut buf, client, *lsn, epoch, flags, data.as_bytes());
            starts.push(start);
            payload += data.len() as u64;
        }
        close_envelopes(&mut buf, starts);
        let inserted = self.put_frames(&buf);
        self.frame_buf = buf;
        let tail = inserted?;
        // Frames sit back to back from `tail.pos`.
        let taken = self.frame_starts.len();
        let placed = records
            .iter()
            .zip(&self.frame_starts)
            .map(|((lsn, _), start)| (*lsn, tail.pos + *start as u64));
        self.replay
            .table
            .append_run(client, epoch, placed)
            .map_err(DlogError::Protocol)?;
        self.stats.records_written += taken as u64;
        self.stats.bytes_written += payload;
        self.retire_full_track(tail.pending)?;
        Ok(taken)
    }

    /// Satisfy a force for `client`: [`LogStore::force_batch`] of one
    /// client. Under [`Durability::Nvram`] the data is already durable;
    /// under [`Durability::FsyncPerForce`] the track is flushed and
    /// fsynced before returning.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn force(&mut self, client: ClientId) -> Result<Durable> {
        self.force_batch(&[client])
    }

    /// Satisfy forces for several clients with **one** physical
    /// durability round (group commit): under
    /// [`Durability::FsyncPerForce`] the track is flushed and fsynced
    /// once for the whole batch; under [`Durability::Nvram`] everything
    /// is already durable. Either way a `Force` trace event is emitted
    /// per client — the ack invariant needs a durability point for every
    /// client whose `NewHighLsn` the caller fans out afterwards.
    ///
    /// # Errors
    /// Propagates I/O failures; on error **no** client in the batch may
    /// be acknowledged, and no [`Durable`] exists to acknowledge it with.
    pub fn force_batch(&mut self, clients: &[ClientId]) -> Result<Durable> {
        dlog_types::lock::assert_unlocked();
        if clients.is_empty() {
            return Ok(Durable(()));
        }
        let span = self.obs.start();
        self.stats.forces += clients.len() as u64;
        if self.opts.durability == Durability::FsyncPerForce {
            self.flush_track()?;
            self.stream.sync()?;
            self.stats.fsyncs += 1;
        }
        for client in clients {
            // Keyed by the client's stored high LSN: the LSN the server
            // will acknowledge with `NewHighLsn`.
            let hi = self.replay.table.last(*client).map_or(0, |iv| iv.hi.0);
            self.obs.event(dlog_obs::Stage::Force, hi, client.0);
        }
        self.obs.sample_since(dlog_obs::Stage::Force, span);
        Ok(Durable(()))
    }

    /// Read the record with the highest epoch at `lsn` for `client`
    /// (the `ServerReadLog` operation). `Ok(None)` when the server does
    /// not store the LSN.
    ///
    /// A run of one record ([`LogStore::read_run`]) through a 1 KiB
    /// window: the payload is a view of that window, or of the frame
    /// itself when the frame is longer.
    ///
    /// # Errors
    /// Propagates I/O failures and frame corruption.
    pub fn read(&mut self, client: ClientId, lsn: Lsn) -> Result<Option<LogRecord>> {
        match self
            .read_run(client, true, FRAME_READ_WINDOW)
            .next(lsn, usize::MAX)?
        {
            RunRead::Record(record) => Ok(Some(record)),
            RunRead::NotStored | RunRead::TooLong => Ok(None),
        }
    }

    /// Start a run of `client`'s records, one read request's worth
    /// (§4.2: records are packed per server round trip), read through
    /// windows of the stream of about `span` bytes: forward from the
    /// first record asked for when `forward`, backward otherwise. See
    /// [`ReadRun`].
    pub fn read_run(&mut self, client: ClientId, forward: bool, span: usize) -> ReadRun<'_> {
        ReadRun {
            store: self,
            client,
            forward,
            span: span as u64,
            window: None,
        }
    }

    /// Stage a `CopyLog` record for `client` (§4.2): stored durably but
    /// not visible until [`LogStore::install_copies`] commits its epoch.
    ///
    /// # Errors
    /// Propagates I/O failures; rejects epochs at or below the client's
    /// newest installed epoch.
    pub fn stage_copy(&mut self, client: ClientId, record: &LogRecord) -> Result<()> {
        if let Some(last) = self.replay.table.last(client) {
            if record.epoch <= last.epoch {
                return Err(DlogError::StaleEpoch {
                    given: record.epoch,
                    current: last.epoch,
                });
            }
        }
        let frame = Frame::Record {
            client,
            record: record.share(),
            staged: true,
        };
        let pos = self.put_frame(&frame)?;
        self.replay.apply(pos, frame).map_err(DlogError::Protocol)?;
        self.stats.records_written += 1;
        self.stats.bytes_written += record.data.len() as u64;
        Ok(())
    }

    /// Atomically install every staged record `client` copied with
    /// `epoch` (the `InstallCopies` operation, §4.2).
    ///
    /// # Errors
    /// Fails when nothing is staged for the epoch, or on I/O failure.
    pub fn install_copies(&mut self, client: ClientId, epoch: Epoch) -> Result<()> {
        let per_epoch = self.replay.staged.get(&client);
        if !per_epoch.is_some_and(|staged| staged.contains_key(&epoch)) {
            return Err(DlogError::Protocol(
                "no staged records for client at this epoch".into(),
            ));
        }
        // The commit point: a durable install frame. Recovery replays the
        // installation when it sees this frame after the staged records.
        let frame = Frame::Install { client, epoch };
        let pos = self.put_frame(&frame)?;
        self.replay.apply(pos, frame).map_err(DlogError::Protocol)?;
        self.maybe_checkpoint()
    }

    /// The `IntervalList` operation (§3.1.1): every installed interval
    /// stored for `client`.
    #[must_use]
    pub fn interval_list(&self, client: ClientId) -> IntervalList {
        self.replay.table.interval_list(client)
    }

    /// Highest installed `<LSN, epoch>` for `client`.
    #[must_use]
    pub fn last_interval(&self, client: ClientId) -> Option<Interval> {
        self.replay.table.last(client)
    }

    /// All clients with installed records.
    #[must_use]
    pub fn clients(&self) -> Vec<ClientId> {
        let mut v: Vec<_> = self.replay.table.clients().collect();
        v.sort_unstable();
        v
    }

    /// Flush the pending NVRAM track to the stream (does not fsync unless
    /// the store is configured to).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn flush_track(&mut self) -> Result<()> {
        // Stage the pending track through the reused scratch (taken out
        // so the borrow checker lets the stream helpers borrow `self`);
        // the steady-state force path copies, it does not allocate.
        let mut pending = std::mem::take(&mut self.scratch);
        let base = self.nvram.pending_into(&mut pending);
        if pending.is_empty() {
            self.scratch = pending;
            return Ok(());
        }
        let span = self.obs.start();
        debug_assert_eq!(base, self.stream.end(), "stream/nvram positions diverged");
        let result = self.flush_track_inner(base, &pending, span);
        self.scratch = pending;
        result
    }

    fn flush_track_inner(
        &mut self,
        base: u64,
        pending: &[u8],
        span: Option<std::time::Instant>,
    ) -> Result<()> {
        self.stream.write_at(base, pending)?;
        if self.opts.fsync {
            self.stream.sync()?;
            self.stats.fsyncs += 1;
        }
        self.nvram.retire(pending.len());
        self.seal = self.nvram.seal();
        self.stats.tracks_flushed += 1;
        self.bytes_since_ckpt += pending.len() as u64;
        // Track retirement is the disk half of the force path; its
        // latency lands in the same `Force` histogram (no trace event —
        // flushes are not client-attributable).
        self.obs.sample_since(dlog_obs::Stage::Force, span);
        Ok(())
    }

    /// Flush everything and fsync; used for clean shutdown.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn sync(&mut self) -> Result<()> {
        dlog_types::lock::assert_unlocked();
        self.flush_track()?;
        self.stream.sync()?;
        Ok(())
    }

    /// §5.3 retention enforcement: when the live stream exceeds
    /// `max_bytes`, drop whole old segments until it fits (as closely as
    /// segment granularity allows) and refresh the checkpoint so recovery
    /// never references dropped positions.
    ///
    /// When archival is configured ([`LogStore::enable_archival`]), a
    /// sealed segment is only droppable once it is confirmed archived:
    /// the cut is clamped to the archived watermark and whatever could
    /// not be freed is reported as `pending` instead of being lost.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn enforce_retention(&mut self, max_bytes: u64) -> Result<RetentionReport> {
        if self.replay.has_staged() {
            return Err(DlogError::Protocol(
                "cannot enforce retention with staged CopyLog records; retry after install".into(),
            ));
        }
        self.flush_track()?;
        let live = self.on_disk_bytes();
        if live <= max_bytes {
            return Ok(RetentionReport::default());
        }
        let desired = self.stream.end().saturating_sub(max_bytes);
        let cut = match self.stream.archived_to() {
            // Never outrun the archiver: unarchived bytes are the only
            // durable copy this server holds.
            Some(watermark) => desired.min(watermark),
            None => desired,
        };
        let before = self.stream.start();
        let mut freed = 0;
        if cut > before {
            let new_start = self.stream.drop_before(cut)?;
            self.replay.table.prune_below(new_start);
            // The first surviving segment may begin mid-frame (frames span
            // segment boundaries), so a raw scan from the new start would
            // misread the stream as torn. A checkpoint records both the
            // pruned table and the next frame-aligned scan position;
            // recovery must start from it, so it is written whatever
            // `checkpoint_every` says.
            self.checkpoint()?;
            freed = new_start - before;
        }
        let pending = self.on_disk_bytes().saturating_sub(max_bytes);
        Ok(RetentionReport { freed, pending })
    }

    /// Bytes currently occupied by live segments.
    #[must_use]
    pub fn on_disk_bytes(&self) -> u64 {
        self.stream.end() - self.stream.start()
    }

    // --- Archive-tier surface -------------------------------------------
    //
    // The archiver (crates/archive) is an external observer: it reads
    // sealed stream bytes, replays frames to maintain its own prefix
    // table, and reports back how far the archive has caught up so
    // retention never drops the only durable copy.

    /// Configured segment capacity.
    #[must_use]
    pub fn segment_bytes(&self) -> u64 {
        self.stream.segment_bytes()
    }

    /// Logical start of the on-disk stream.
    #[must_use]
    pub fn stream_start(&self) -> u64 {
        self.stream.start()
    }

    /// Logical end of the on-disk stream (excludes NVRAM-only bytes).
    #[must_use]
    pub fn stream_end(&self) -> u64 {
        self.stream.end()
    }

    /// Indices of sealed (full, never written again) live segments.
    #[must_use]
    pub fn sealed_segments(&self) -> Vec<u64> {
        self.stream.sealed_segments()
    }

    /// Frame-aligned position the last recovery scanned from. Scanning
    /// frames from here decodes the whole on-disk tail.
    #[must_use]
    pub fn frame_anchor(&self) -> u64 {
        self.anchor
    }

    /// Read raw stream bytes (on-disk only; the archiver never reads the
    /// NVRAM tail).
    ///
    /// # Errors
    /// Fails when the range is not fully on disk.
    pub fn read_stream(&mut self, pos: u64, len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.stream.read_into(pos, len, &mut out)?;
        Ok(out)
    }

    /// Scan on-disk frames from `from`, invoking `f(position, frame)` for
    /// each valid frame. Returns one past the last valid frame.
    ///
    /// # Errors
    /// Propagates I/O failures and structurally corrupt frame bodies.
    pub fn scan_stream<F>(&mut self, from: u64, f: F) -> Result<u64>
    where
        F: FnMut(u64, Frame),
    {
        self.stream.scan_frames(from, f)
    }

    /// Switch retention into archive-aware mode: from now on
    /// [`LogStore::enforce_retention`] refuses to drop segments above the
    /// archived watermark ([`SegmentedStream::enable_archival`]).
    pub fn enable_archival(&mut self) {
        self.stream.enable_archival();
    }

    /// Raise the archived watermark: every stream byte below `pos` is
    /// confirmed durable in the archive and is never written again.
    /// Implies archive-aware retention.
    pub fn note_archived(&mut self, pos: u64) {
        self.stream.note_archived(pos);
    }

    /// The archived watermark, when archival is configured.
    #[must_use]
    pub fn archived_to(&self) -> Option<u64> {
        self.stream.archived_to()
    }

    /// Append one frame to the log stream; returns its stream position.
    fn put_frame(&mut self, frame: &Frame) -> Result<u64> {
        // Serialize through the store's reused scratch (taken out so the
        // borrow checker lets the helpers borrow `self`): after warm-up
        // the per-record framing cost is a memcpy, not an allocation.
        let mut buf = std::mem::take(&mut self.frame_buf);
        buf.clear();
        buf.reserve(frame.encoded_len());
        frame.encode_into(&mut buf);
        let inserted = self.put_frames(&buf);
        self.frame_buf = buf;
        let tail = inserted?;
        self.retire_full_track(tail.pending)?;
        Ok(tail.pos)
    }

    /// Append whole encoded frames to the log stream as one unit and
    /// report where they landed: the one place this store inserts into
    /// the NVRAM. A track that has no room for them is flushed first. The
    /// caller retires a full track (`retire_full_track`) after it has
    /// indexed the frames.
    fn put_frames(&mut self, buf: &[u8]) -> Result<Tail> {
        let mut flushed = false;
        loop {
            // §5.1 guarded write: prove this insert was computed from the
            // device's previous state. A mismatch means foreign code wrote
            // the NVRAM behind our back — treat the buffer as corrupt.
            match self.nvram.insert_at_tail(self.seal, buf) {
                Ok(tail) => {
                    self.seal = tail.seal;
                    return Ok(tail);
                }
                Err(GuardError::Full(_)) if !flushed => {
                    self.flush_track()?;
                    flushed = true;
                    if buf.len() > self.nvram.capacity() {
                        return self.bypass_nvram(buf);
                    }
                }
                Err(GuardError::Full(e)) => {
                    return Err(DlogError::NvramFull {
                        requested: e.requested,
                        available: e.available,
                    })
                }
                Err(GuardError::Mismatch(m)) => {
                    return Err(DlogError::GuardViolation {
                        presented: m.presented,
                        current: m.current,
                    })
                }
            }
        }
    }

    /// Oversized frame (streamed bulk data): write it straight to the
    /// stream. Ordering is preserved because the track was just flushed.
    fn bypass_nvram(&mut self, buf: &[u8]) -> Result<Tail> {
        let pos = self.stream.append(buf)?;
        if self.opts.fsync {
            self.stream.sync()?;
            self.stats.fsyncs += 1;
        }
        self.bytes_since_ckpt += buf.len() as u64;
        self.nvram.format(pos + buf.len() as u64);
        self.seal = self.nvram.seal();
        Ok(Tail {
            pos,
            pending: 0,
            seal: self.seal,
        })
    }

    /// Write the track to disk once it holds `pending >= track_bytes`.
    fn retire_full_track(&mut self, pending: usize) -> Result<()> {
        if pending >= self.opts.track_bytes {
            self.flush_track()?;
        }
        Ok(())
    }

    /// Read the window a run takes to hold the `len` bytes at `pos`, in
    /// one positional read: `span` bytes from `pos` for a forward run;
    /// for a backward run, `span` bytes below `pos` and
    /// `FRAME_READ_WINDOW` bytes from it, since `pos` is the top of what
    /// the run reads next. The window is clipped to the tier holding
    /// `pos` (NVRAM, or the disk below its end) and, on disk, to `pos`'s
    /// segment, so the read never opens a segment it has no need of; but
    /// it always holds `[pos, pos + len)`, which for a frame longer than
    /// the window, or one crossing a segment boundary, takes a read of
    /// its own. Returns the window and where `pos` sits in it.
    fn read_window(
        &mut self,
        pos: u64,
        len: usize,
        forward: bool,
        span: u64,
    ) -> Result<(usize, Window)> {
        let disk_end = self.stream.end();
        let in_nvram = pos >= disk_end;
        let (floor, ceiling) = if in_nvram {
            (disk_end, self.append_position())
        } else {
            let segment = self.stream.segment_bytes();
            let segment_start = pos / segment * segment;
            (segment_start, (segment_start + segment).min(disk_end))
        };
        let (start, end) = if forward {
            (pos, pos.saturating_add(span).min(ceiling))
        } else {
            (
                pos.saturating_sub(span).max(floor),
                (pos + FRAME_READ_WINDOW as u64).min(ceiling),
            )
        };
        let end = end.max(pos + len as u64);
        let len = (end - start) as usize;
        let mut bytes = Vec::new();
        if in_nvram {
            self.nvram
                .read_at_into(start, len, &mut bytes)
                .ok_or_else(|| DlogError::Corrupt("read position not buffered".into()))?;
        } else {
            self.stream.read_into(start, len, &mut bytes)?;
        }
        let window = Window {
            base: start,
            bytes: Arc::new(bytes),
        };
        Ok(((pos - start) as usize, window))
    }

    fn maybe_checkpoint(&mut self) -> Result<()> {
        if self.opts.checkpoint_every == 0
            || self.bytes_since_ckpt < self.opts.checkpoint_every
            || self.replay.has_staged()
        {
            return Ok(());
        }
        self.checkpoint()
    }

    /// Write an interval-table checkpoint to `intervals.ckpt` now (§4.3:
    /// "a known location on a reusable disk"). Requires no staged records.
    ///
    /// # Errors
    /// Propagates I/O failures; refuses while CopyLog records are staged.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.replay.has_staged() {
            return Err(DlogError::Protocol(
                "cannot checkpoint with staged records".into(),
            ));
        }
        // The checkpoint covers exactly what is on disk; flush first.
        self.flush_track()?;
        self.stream.sync()?;
        let mut out = std::mem::take(&mut self.scratch);
        encode_checkpoint_image_into(&self.replay.table, self.stream.end(), &mut out);
        let result = self.write_checkpoint_file(&out);
        self.scratch = out;
        result
    }

    fn write_checkpoint_file(&mut self, out: &[u8]) -> Result<()> {
        dlog_types::lock::assert_unlocked();
        let tmp = self.dir.join("intervals.ckpt.tmp");
        let fin = self.dir.join("intervals.ckpt");
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(out)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &fin)?;
        // Make the rename durable; a failed sync means the checkpoint
        // may not survive a crash, so it must not be reported written.
        File::open(&self.dir)?.sync_data()?;
        self.bytes_since_ckpt = 0;
        self.stats.checkpoints += 1;
        Ok(())
    }
}

/// What [`ReadRun::next`] found at an LSN.
#[derive(Debug, PartialEq, Eq)]
pub enum RunRead {
    /// The record, its payload a view of the run's window.
    Record(LogRecord),
    /// The store holds no record at the LSN.
    NotStored,
    /// The record is stored, but its payload is longer than the room the
    /// caller left; it was not decoded.
    TooLong,
}

/// One read request's cursor over a client's records.
///
/// The stream is written sequentially (§4.3), so a run of one client's
/// records sits in one contiguous byte range, give or take other
/// clients' frames. A run reads a window of that range with one
/// positional read and decodes every record it can from there; each
/// payload is a view of the window, not a copy. It reads a new window
/// only when the next frame lies outside the current one: past other
/// clients' frames, across a tier or segment boundary, or longer than the
/// window. Every frame is checked as it is decoded: envelope, length,
/// CRC, record kind, and that it is the client's record at the LSN the
/// index named.
///
/// The run borrows the store, so nothing can write, flush, truncate or
/// drop segments while it holds a window, and the window is never stale.
pub struct ReadRun<'a> {
    store: &'a mut LogStore,
    client: ClientId,
    forward: bool,
    span: u64,
    window: Option<Window>,
}

/// Bytes of the stream from `base` on, shared by every payload decoded
/// out of them.
struct Window {
    base: u64,
    bytes: Arc<Vec<u8>>,
}

impl Window {
    /// Where `[pos, pos + len)` starts in the window, if it holds it all.
    fn offset(&self, pos: u64, len: usize) -> Option<usize> {
        let at = usize::try_from(pos.checked_sub(self.base)?).ok()?;
        (at.checked_add(len)? <= self.bytes.len()).then_some(at)
    }
}

impl ReadRun<'_> {
    /// The record at `lsn`, provided its payload is at most `room` bytes.
    /// The length is read from the frame's envelope, so a record that
    /// does not fit is neither CRC-checked nor decoded, nor counted in
    /// [`StoreStats::reads`].
    ///
    /// # Errors
    /// Propagates I/O failures and frame corruption, including an index
    /// entry that points at a frame other than the client's record at
    /// `lsn`.
    pub fn next(&mut self, lsn: Lsn, room: usize) -> Result<RunRead> {
        let Some((_, pos)) = self.store.replay.table.lookup(self.client, lsn) else {
            self.store.stats.reads += 1;
            return Ok(RunRead::NotStored);
        };
        let (bytes, at) = self.cover(pos, ENVELOPE_BYTES)?;
        let body_len = u32_le_at(bytes, at)
            .ok_or_else(|| DlogError::Corrupt("short frame envelope".into()))?;
        let total = ENVELOPE_BYTES + body_len as usize;
        if total.saturating_sub(Frame::record_len(0)) > room {
            return Ok(RunRead::TooLong);
        }
        self.store.stats.reads += 1;
        let (bytes, at) = self.cover(pos, total)?;
        match Frame::decode_record_view(bytes, at)? {
            (client, record) if client == self.client && record.lsn == lsn => {
                Ok(RunRead::Record(record))
            }
            _ => Err(DlogError::Corrupt(
                "LSN index points at a foreign frame".into(),
            )),
        }
    }

    /// A window holding the `len` bytes at `pos`, and where they start in
    /// it: the current one if it does, else a fresh read.
    fn cover(&mut self, pos: u64, len: usize) -> Result<(&Arc<Vec<u8>>, usize)> {
        let held = self
            .window
            .take()
            .and_then(|w| Some((w.offset(pos, len)?, w)));
        let (at, window) = match held {
            Some(hit) => hit,
            None => self.store.read_window(pos, len, self.forward, self.span)?,
        };
        Ok((&self.window.insert(window).bytes, at))
    }
}

/// Encode an `intervals.ckpt` image into `out` (cleared first): a table
/// snapshot plus the frame-aligned position recovery should scan from.
/// Written by the store itself (through its reused scratch, so periodic
/// checkpoints do not allocate) and by archive restore (which fabricates
/// the checkpoint that makes a rebuilt directory recoverable).
pub fn encode_checkpoint_image_into(table: &IntervalTable, scan_from: u64, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    out.extend_from_slice(&scan_from.to_le_bytes());
    // Body length and CRC are patched in once the body is serialized —
    // encoding straight into `out` avoids a second staging buffer.
    out.extend_from_slice(&[0u8; 8]);
    let body_start = out.len();
    table.encode_into(out);
    let body_len = out.len() - body_start;
    let crc = crc32(out.get(body_start..).unwrap_or(&[]));
    if let Some(slot) = out.get_mut(body_start - 8..body_start - 4) {
        slot.copy_from_slice(&(body_len as u32).to_le_bytes());
    }
    if let Some(slot) = out.get_mut(body_start - 4..body_start) {
        slot.copy_from_slice(&crc.to_le_bytes());
    }
}

/// The fold of stream frames into the interval table and the staged
/// `CopyLog` records (§4.2, §4.3): the one place a frame changes either.
/// The store applies every staged record and install it writes through
/// it; recovery, `verify_dir` and the archiver apply the frames they scan.
/// (A run of records from `write_batch` goes straight to
/// [`IntervalTable::append_run`], the run form of the record arm.) The
/// archiver persists this state in each manifest, so the archived prefix
/// table is always the table a crash at the manifest's cut would recover.
#[derive(Clone, Default)]
pub struct ReplayState {
    table: IntervalTable,
    staged: StagedMap,
}

impl ReplayState {
    /// Fresh state (empty table, nothing staged).
    #[must_use]
    pub fn new() -> ReplayState {
        ReplayState::default()
    }

    /// Recovery's step 1: the state `dir`'s checkpoint holds and the
    /// frame-aligned position the scan resumes from, or an empty state
    /// and the stream's start when there is no usable checkpoint.
    pub(crate) fn checkpointed(dir: &Path, stream: &SegmentedStream) -> (ReplayState, u64) {
        match load_checkpoint(dir) {
            Some((table, pos)) if pos <= stream.end() => (
                ReplayState {
                    table,
                    staged: StagedMap::new(),
                },
                pos,
            ),
            _ => (ReplayState::new(), stream.start()),
        }
    }

    /// The installed-interval table accumulated so far.
    #[must_use]
    pub fn table(&self) -> &IntervalTable {
        &self.table
    }

    /// Staged records awaiting their install, per client that has any.
    pub(crate) fn staged_per_client(&self) -> impl Iterator<Item = (ClientId, u64)> + '_ {
        self.staged
            .iter()
            .map(|(client, per_epoch)| (*client, per_epoch.values().map(|v| v.len() as u64).sum()))
            .filter(|(_, n)| *n > 0)
    }

    fn has_staged(&self) -> bool {
        self.staged_per_client().next().is_some()
    }

    /// Apply one frame read at stream position `pos`.
    ///
    /// # Errors
    /// Returns a description of any storage-order or protocol violation.
    pub fn apply(&mut self, pos: u64, frame: Frame) -> std::result::Result<(), String> {
        match frame {
            Frame::Record {
                client,
                record,
                staged: false,
            } => self.table.append(client, record.lsn, record.epoch, pos),
            Frame::Record {
                client,
                record,
                staged: true,
            } => {
                let slot = self
                    .staged
                    .entry(client)
                    .or_default()
                    .entry(record.epoch)
                    .or_default();
                // A retried CopyLog may stage the same LSN twice; the
                // newest copy wins so InstallCopies stays well-formed.
                slot.retain(|(lsn, _)| *lsn != record.lsn);
                slot.push((record.lsn, pos));
                Ok(())
            }
            Frame::Install { client, epoch } => {
                let mut records = self
                    .staged
                    .get_mut(&client)
                    .and_then(|m| m.remove(&epoch))
                    .ok_or("install frame without staged records")?;
                records.sort_unstable_by_key(|(lsn, _)| *lsn);
                self.table.append_run(client, epoch, records.into_iter())
            }
        }
    }

    /// Recovery's step 2 over `stream`: decode frames from the
    /// frame-aligned `from` up to the first torn one, show each to `seen`
    /// and apply each one at or past `apply_from`. Stops at the first
    /// violation. Returns one past the last valid frame, and the
    /// violation if there was one.
    ///
    /// # Errors
    /// Propagates I/O failures and structurally corrupt frame bodies.
    pub(crate) fn scan(
        &mut self,
        stream: &mut SegmentedStream,
        from: u64,
        apply_from: u64,
        mut seen: impl FnMut(&Frame),
    ) -> Result<(u64, Option<String>)> {
        let mut violation = None;
        let end = stream.scan_frames(from, |pos, frame| {
            if violation.is_some() {
                return;
            }
            seen(&frame);
            if pos >= apply_from {
                violation = self.apply(pos, frame).err();
            }
        })?;
        Ok((end, violation))
    }

    /// [`ReplayState::scan`] for [`LogStore::open`]: a violation is
    /// corruption, and every record frame counts as recovered.
    fn recover(
        &mut self,
        stream: &mut SegmentedStream,
        from: u64,
        stats: &mut StoreStats,
    ) -> Result<u64> {
        let count = |frame: &Frame| {
            stats.recovered_records += u64::from(matches!(frame, Frame::Record { .. }));
        };
        match self.scan(stream, from, from, count)? {
            (end, None) => Ok(end),
            (_, Some(violation)) => Err(DlogError::Corrupt(violation)),
        }
    }

    /// Deterministic serialization (table, then staged records sorted by
    /// client, epoch, LSN).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`ReplayState::encode`] into a caller-supplied buffer (cleared
    /// first).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        // Table length prefix is patched in after the table serializes
        // straight into `out`.
        out.extend_from_slice(&[0u8; 4]);
        let table_start = out.len();
        self.table.encode_into(out);
        let table_len = (out.len() - table_start) as u32;
        if let Some(slot) = out.get_mut(table_start - 4..table_start) {
            slot.copy_from_slice(&table_len.to_le_bytes());
        }
        let mut clients: Vec<_> = self.staged.iter().collect();
        clients.sort_by_key(|(c, _)| **c);
        let nonempty = clients
            .iter()
            .filter(|(_, m)| m.values().any(|v| !v.is_empty()))
            .count();
        out.extend_from_slice(&(nonempty as u32).to_le_bytes());
        for (client, per_epoch) in clients {
            if !per_epoch.values().any(|v| !v.is_empty()) {
                continue;
            }
            out.extend_from_slice(&client.0.to_le_bytes());
            let mut epochs: Vec<_> = per_epoch.iter().filter(|(_, v)| !v.is_empty()).collect();
            epochs.sort_by_key(|(e, _)| **e);
            out.extend_from_slice(&(epochs.len() as u32).to_le_bytes());
            for (epoch, records) in epochs {
                out.extend_from_slice(&epoch.0.to_le_bytes());
                let mut records = records.clone();
                records.sort_unstable_by_key(|(lsn, _)| *lsn);
                out.extend_from_slice(&(records.len() as u32).to_le_bytes());
                for (lsn, pos) in records {
                    // LSN, epoch, a present flag and an empty payload:
                    // manifests keep room for a payload the state no
                    // longer holds, so their decoder is unchanged.
                    out.extend_from_slice(&lsn.0.to_le_bytes());
                    out.extend_from_slice(&epoch.0.to_le_bytes());
                    out.push(1);
                    out.extend_from_slice(&0u32.to_le_bytes());
                    out.extend_from_slice(&pos.to_le_bytes());
                }
            }
        }
    }

    /// Decode a serialized state.
    ///
    /// # Errors
    /// Returns a description of any structural problem.
    pub fn decode(bytes: &[u8]) -> std::result::Result<ReplayState, String> {
        let mut r = Reader(bytes);
        let table_len = r.u32()? as usize;
        let table = IntervalTable::decode(r.take(table_len)?)?;
        let mut staged = StagedMap::new();
        let nclients = r.u32()?;
        for _ in 0..nclients {
            let client = ClientId(r.u64()?);
            let nepochs = r.u32()?;
            let per_epoch = staged.entry(client).or_default();
            for _ in 0..nepochs {
                let epoch = Epoch(r.u64()?);
                let nrecords = r.u32()?;
                let slot = per_epoch.entry(epoch).or_default();
                for _ in 0..nrecords {
                    let lsn = Lsn(r.u64()?);
                    // The record's epoch, present flag and payload.
                    r.take(8 + 1)?;
                    let dlen = r.u32()? as usize;
                    r.take(dlen)?;
                    slot.push((lsn, r.u64()?));
                }
            }
        }
        Ok(ReplayState { table, staged })
    }
}

/// Bounds-checked little-endian cursor for `ReplayState::decode`.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], String> {
        if self.0.len() < n {
            return Err("replay state truncated".into());
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self) -> std::result::Result<u32, String> {
        dlog_types::bytes::u32_le_at(self.take(4)?, 0)
            .ok_or_else(|| "replay state truncated".into())
    }

    fn u64(&mut self) -> std::result::Result<u64, String> {
        dlog_types::bytes::u64_le_at(self.take(8)?, 0)
            .ok_or_else(|| "replay state truncated".into())
    }
}

fn load_checkpoint(dir: &Path) -> Option<(IntervalTable, u64)> {
    let mut f = File::open(dir.join("intervals.ckpt")).ok()?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes).ok()?;
    if bytes.len() < 24 {
        return None;
    }
    let magic = dlog_types::bytes::u32_le_at(&bytes, 0)?;
    if magic != CKPT_MAGIC {
        return None;
    }
    let scan_from = dlog_types::bytes::u64_le_at(&bytes, 4)?;
    let len = dlog_types::bytes::u32_le_at(&bytes, 12)? as usize;
    let crc = dlog_types::bytes::u32_le_at(&bytes, 16)?;
    let body = bytes.get(20..20 + len)?;
    if crc32(body) != crc {
        return None;
    }
    let table = IntervalTable::decode(body).ok()?;
    Some((table, scan_from))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("dlog-store-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn rec(lsn: u64, epoch: u64, byte: u8) -> LogRecord {
        LogRecord::present(Lsn(lsn), Epoch(epoch), vec![byte; 64])
    }

    fn small_opts() -> StoreOptions {
        StoreOptions {
            track_bytes: 512,
            segment_bytes: 4096,
            fsync: false, // tests run on tmpfs-style dirs; E4 measures fsync
            durability: Durability::Nvram,
            checkpoint_every: 0,
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let nvram = NvramDevice::new(4096);
        let mut store = LogStore::open(&dir, small_opts(), nvram).unwrap();
        let c = ClientId(1);
        for i in 1..=20u64 {
            store.write(c, &rec(i, 1, i as u8)).unwrap();
        }
        for i in 1..=20u64 {
            let r = store.read(c, Lsn(i)).unwrap().unwrap();
            assert_eq!(r.data.as_bytes(), &[i as u8; 64]);
            assert!(r.present);
        }
        assert_eq!(store.read(c, Lsn(21)).unwrap(), None);
        assert_eq!(store.interval_list(c).len(), 1);
    }

    #[test]
    fn reads_served_from_nvram_before_flush() {
        let dir = tmpdir("nvramread");
        let nvram = NvramDevice::new(1 << 16);
        let mut opts = small_opts();
        opts.track_bytes = 1 << 16; // never auto-flush
        let mut store = LogStore::open(&dir, opts, nvram).unwrap();
        store.write(ClientId(1), &rec(1, 1, 9)).unwrap();
        assert_eq!(store.stats().tracks_flushed, 0);
        let r = store.read(ClientId(1), Lsn(1)).unwrap().unwrap();
        assert_eq!(r.data.as_bytes(), &[9u8; 64]);
    }

    #[test]
    fn clean_restart_recovers_all() {
        let dir = tmpdir("restart");
        let nvram = NvramDevice::new(4096);
        {
            let mut store = LogStore::open(&dir, small_opts(), nvram.clone()).unwrap();
            for i in 1..=50u64 {
                store.write(ClientId(1), &rec(i, 2, i as u8)).unwrap();
            }
            store.sync().unwrap();
        }
        let mut store = LogStore::open(&dir, small_opts(), nvram).unwrap();
        for i in 1..=50u64 {
            assert!(
                store.read(ClientId(1), Lsn(i)).unwrap().is_some(),
                "lsn {i}"
            );
        }
        let list = store.interval_list(ClientId(1));
        assert_eq!(list.last().unwrap().hi, Lsn(50));
    }

    #[test]
    fn crash_with_nvram_loses_nothing() {
        let dir = tmpdir("crash-nvram");
        let nvram = NvramDevice::new(1 << 16);
        let mut opts = small_opts();
        opts.track_bytes = 1 << 16; // keep everything in NVRAM
        {
            let mut store = LogStore::open(&dir, opts.clone(), nvram.clone()).unwrap();
            for i in 1..=30u64 {
                store.write(ClientId(1), &rec(i, 1, i as u8)).unwrap();
            }
            store.force(ClientId(1)).unwrap();
            assert_eq!(store.stats().tracks_flushed, 0, "nothing reached disk");
            // Crash: drop without sync. The NVRAM device survives.
        }
        let mut store = LogStore::open(&dir, opts, nvram.clone()).unwrap();
        assert!(store.stats().nvram_replayed_bytes > 0);
        for i in 1..=30u64 {
            let r = store.read(ClientId(1), Lsn(i)).unwrap().unwrap();
            assert_eq!(r.data.as_bytes(), &[i as u8; 64], "lsn {i}");
        }
        assert_eq!(nvram.pending_len(), 0, "replayed data was retired");
    }

    #[test]
    fn crash_replays_partial_overlap() {
        // Track flushed to disk, then more records inserted, then crash:
        // NVRAM holds only the unflushed suffix; recovery must splice it.
        let dir = tmpdir("crash-overlap");
        let nvram = NvramDevice::new(1 << 16);
        let mut opts = small_opts();
        opts.track_bytes = 200; // flush roughly every other record
        {
            let mut store = LogStore::open(&dir, opts.clone(), nvram.clone()).unwrap();
            for i in 1..=25u64 {
                store.write(ClientId(1), &rec(i, 1, i as u8)).unwrap();
            }
            // Crash without the final flush.
        }
        let mut store = LogStore::open(&dir, opts, nvram).unwrap();
        for i in 1..=25u64 {
            assert!(
                store.read(ClientId(1), Lsn(i)).unwrap().is_some(),
                "lsn {i}"
            );
        }
    }

    #[test]
    fn torn_disk_tail_is_overwritten_by_nvram() {
        let dir = tmpdir("torn-tail");
        let nvram = NvramDevice::new(1 << 16);
        let mut opts = small_opts();
        opts.track_bytes = 1 << 16;
        let disk_end;
        {
            let mut store = LogStore::open(&dir, opts.clone(), nvram.clone()).unwrap();
            for i in 1..=10u64 {
                store.write(ClientId(1), &rec(i, 1, i as u8)).unwrap();
            }
            // Simulate a torn track write: the OS wrote a prefix of the
            // track before power failed, and NVRAM still has everything.
            let (base, pending) = nvram.pending();
            assert_eq!(base, 0);
            disk_end = pending.len() / 2;
            let mut s = SegmentedStream::open(&dir, opts.segment_bytes).unwrap();
            s.write_at(0, &pending[..disk_end]).unwrap();
            // Crash before retire.
        }
        let mut store = LogStore::open(&dir, opts, nvram).unwrap();
        for i in 1..=10u64 {
            assert!(
                store.read(ClientId(1), Lsn(i)).unwrap().is_some(),
                "lsn {i}"
            );
        }
        assert!(store.stats().nvram_replayed_bytes > 0);
    }

    #[test]
    fn archival_store_replays_nvram_over_a_torn_tail() {
        let dir = tmpdir("torn-archived");
        let nvram = NvramDevice::new(1 << 16);
        let mut opts = small_opts();
        opts.track_bytes = 1 << 16;
        let watermark;
        {
            let mut store = LogStore::open(&dir, opts.clone(), nvram.clone()).unwrap();
            for i in 1..=10u64 {
                store.write(ClientId(1), &rec(i, 1, i as u8)).unwrap();
            }
            store.flush_track().unwrap();
            store.enable_archival();
            store.note_archived(store.stream_end());
            watermark = store.stream_end();
            for i in 11..=20u64 {
                store.write(ClientId(1), &rec(i, 1, i as u8)).unwrap();
            }
            // A torn track write past the watermark, then a crash.
            let (base, pending) = nvram.pending();
            assert_eq!(base, watermark);
            let mut s = SegmentedStream::open(&dir, opts.segment_bytes).unwrap();
            s.write_at(base, &pending[..pending.len() / 2]).unwrap();
        }
        let mut store = LogStore::open(&dir, opts, nvram).unwrap();
        let replayed = store.stats().nvram_replayed_bytes;
        assert!(replayed > 0);
        // Replay wrote at or past the watermark, so the write floor a
        // reattached archiver restores never refuses it.
        assert!(store.stream_end() - replayed >= watermark);
        store.enable_archival();
        store.note_archived(watermark.min(store.stream_end()));
        assert_eq!(store.archived_to(), Some(watermark));
        store.write(ClientId(1), &rec(21, 1, 21)).unwrap();
        store.flush_track().unwrap();
        for i in 1..=21u64 {
            let r = store.read(ClientId(1), Lsn(i)).unwrap().unwrap();
            assert_eq!(r.data.as_bytes(), &[i as u8; 64], "lsn {i}");
        }
    }

    #[test]
    fn staged_copies_invisible_until_install() {
        let dir = tmpdir("staged");
        let nvram = NvramDevice::new(1 << 16);
        let mut store = LogStore::open(&dir, small_opts(), nvram).unwrap();
        let c = ClientId(1);
        for i in 1..=5u64 {
            store.write(c, &rec(i, 1, 1)).unwrap();
        }
        // Stage a recovery rewrite of LSN 5 plus a not-present LSN 6.
        store.stage_copy(c, &rec(5, 2, 2)).unwrap();
        store
            .stage_copy(c, &LogRecord::not_present(Lsn(6), Epoch(2)))
            .unwrap();

        // Still invisible.
        let list = store.interval_list(c);
        assert_eq!(list.last().unwrap().hi, Lsn(5));
        assert_eq!(list.last().unwrap().epoch, Epoch(1));
        assert_eq!(store.read(c, Lsn(6)).unwrap(), None);

        store.install_copies(c, Epoch(2)).unwrap();
        let list = store.interval_list(c);
        assert_eq!(list.len(), 2);
        assert_eq!(
            list.last().unwrap(),
            Interval::new(Epoch(2), Lsn(5), Lsn(6))
        );
        let r5 = store.read(c, Lsn(5)).unwrap().unwrap();
        assert_eq!(r5.epoch, Epoch(2));
        let r6 = store.read(c, Lsn(6)).unwrap().unwrap();
        assert!(!r6.present);
    }

    #[test]
    fn stage_rejects_stale_epoch() {
        let dir = tmpdir("stale");
        let nvram = NvramDevice::new(1 << 16);
        let mut store = LogStore::open(&dir, small_opts(), nvram).unwrap();
        let c = ClientId(1);
        store.write(c, &rec(1, 3, 1)).unwrap();
        assert!(matches!(
            store.stage_copy(c, &rec(1, 3, 2)),
            Err(DlogError::StaleEpoch { .. })
        ));
        assert!(matches!(
            store.stage_copy(c, &rec(1, 2, 2)),
            Err(DlogError::StaleEpoch { .. })
        ));
    }

    #[test]
    fn install_without_stage_fails() {
        let dir = tmpdir("no-stage");
        let nvram = NvramDevice::new(1 << 16);
        let mut store = LogStore::open(&dir, small_opts(), nvram).unwrap();
        assert!(store.install_copies(ClientId(1), Epoch(1)).is_err());
    }

    #[test]
    fn crash_between_stage_and_install_discards() {
        let dir = tmpdir("staged-crash");
        let nvram = NvramDevice::new(1 << 16);
        {
            let mut store = LogStore::open(&dir, small_opts(), nvram.clone()).unwrap();
            store.write(ClientId(1), &rec(1, 1, 1)).unwrap();
            store.stage_copy(ClientId(1), &rec(1, 2, 2)).unwrap();
            store.sync().unwrap();
            // Crash before install.
        }
        let mut store = LogStore::open(&dir, small_opts(), nvram).unwrap();
        // The staged copy is still pending, not installed.
        let r = store.read(ClientId(1), Lsn(1)).unwrap().unwrap();
        assert_eq!(r.epoch, Epoch(1));
        // And the client may complete the installation now.
        store.install_copies(ClientId(1), Epoch(2)).unwrap();
        let r = store.read(ClientId(1), Lsn(1)).unwrap().unwrap();
        assert_eq!(r.epoch, Epoch(2));
    }

    #[test]
    fn crash_after_install_preserves_installation() {
        let dir = tmpdir("installed-crash");
        let nvram = NvramDevice::new(1 << 16);
        {
            let mut store = LogStore::open(&dir, small_opts(), nvram.clone()).unwrap();
            store.write(ClientId(1), &rec(1, 1, 1)).unwrap();
            store.stage_copy(ClientId(1), &rec(1, 2, 2)).unwrap();
            store.install_copies(ClientId(1), Epoch(2)).unwrap();
            store.sync().unwrap();
        }
        let mut store = LogStore::open(&dir, small_opts(), nvram).unwrap();
        let r = store.read(ClientId(1), Lsn(1)).unwrap().unwrap();
        assert_eq!(r.epoch, Epoch(2));
    }

    #[test]
    fn checkpoint_accelerates_recovery() {
        let dir = tmpdir("ckpt");
        let nvram = NvramDevice::new(1 << 16);
        let mut opts = small_opts();
        opts.checkpoint_every = 1; // checkpoint at every opportunity
        {
            let mut store = LogStore::open(&dir, opts.clone(), nvram.clone()).unwrap();
            for i in 1..=40u64 {
                store.write(ClientId(1), &rec(i, 1, 1)).unwrap();
            }
            assert!(store.stats().checkpoints > 0);
            store.sync().unwrap();
        }
        let mut store = LogStore::open(&dir, opts, nvram).unwrap();
        // Most records came from the checkpoint, not the scan.
        assert!(
            store.stats().recovered_records < 40,
            "scan rebuilt {} records despite checkpoint",
            store.stats().recovered_records
        );
        for i in 1..=40u64 {
            assert!(store.read(ClientId(1), Lsn(i)).unwrap().is_some());
        }
    }

    #[test]
    fn oversized_record_bypasses_nvram() {
        let dir = tmpdir("oversize");
        let nvram = NvramDevice::new(512);
        let mut opts = small_opts();
        opts.track_bytes = 512;
        let mut store = LogStore::open(&dir, opts, nvram).unwrap();
        let big = LogRecord::present(Lsn(1), Epoch(1), vec![7u8; 10_000]);
        store.write(ClientId(1), &big).unwrap();
        store.write(ClientId(1), &rec(2, 1, 3)).unwrap();
        let r = store.read(ClientId(1), Lsn(1)).unwrap().unwrap();
        assert_eq!(r.data.len(), 10_000);
        assert!(store.read(ClientId(1), Lsn(2)).unwrap().is_some());
    }

    #[test]
    fn multi_client_interleaving() {
        let dir = tmpdir("interleave");
        let nvram = NvramDevice::new(1 << 16);
        let mut store = LogStore::open(&dir, small_opts(), nvram).unwrap();
        for i in 1..=30u64 {
            for c in 1..=5u64 {
                store.write(ClientId(c), &rec(i, 1, c as u8)).unwrap();
            }
        }
        for c in 1..=5u64 {
            for i in 1..=30u64 {
                let r = store.read(ClientId(c), Lsn(i)).unwrap().unwrap();
                assert_eq!(r.data.as_bytes()[0], c as u8);
            }
        }
        assert_eq!(store.clients().len(), 5);
    }

    #[test]
    fn write_rejects_order_violations() {
        let dir = tmpdir("order");
        let nvram = NvramDevice::new(1 << 16);
        let mut store = LogStore::open(&dir, small_opts(), nvram).unwrap();
        store.write(ClientId(1), &rec(5, 2, 1)).unwrap();
        assert!(store.write(ClientId(1), &rec(5, 2, 1)).is_err());
        assert!(store.write(ClientId(1), &rec(4, 2, 1)).is_err());
        assert!(store.write(ClientId(1), &rec(6, 1, 1)).is_err());
    }

    fn run(lo: u64, hi: u64) -> Vec<(Lsn, LogData)> {
        (lo..=hi)
            .map(|i| (Lsn(i), LogData::from(vec![i as u8; 64])))
            .collect()
    }

    #[test]
    fn write_batch_is_write_many_times() {
        let dir = tmpdir("batch-eq");
        let mut store = LogStore::open(&dir, small_opts(), NvramDevice::new(4096)).unwrap();
        let c = ClientId(1);
        store.write_batch(c, Epoch(1), &run(1, 20)).unwrap();
        store.write_batch(c, Epoch(1), &[]).unwrap();
        store.write_batch(c, Epoch(1), &run(21, 21)).unwrap();
        for i in 1..=21u64 {
            let r = store.read(c, Lsn(i)).unwrap().unwrap();
            assert_eq!(r.data.as_bytes(), &[i as u8; 64]);
            assert!(r.present);
        }
        assert_eq!(store.interval_list(c).len(), 1);
        assert_eq!(store.stats().records_written, 21);
        assert_eq!(store.stats().bytes_written, 21 * 64);
        assert!(store.stats().tracks_flushed > 0, "20 frames exceed a track");
    }

    #[test]
    fn batch_larger_than_the_device_goes_in_pieces() {
        let dir = tmpdir("batch-pieces");
        // 102-byte frames, a 512-byte device: at most five frames a piece.
        let nvram = NvramDevice::new(512);
        let mut store = LogStore::open(&dir, small_opts(), nvram.clone()).unwrap();
        let c = ClientId(1);
        let mut records = run(1, 13);
        records.insert(6, (Lsn(100), LogData::from(vec![7u8; 10_000]))); // bypasses
        let records: Vec<_> = records
            .into_iter()
            .enumerate()
            .map(|(i, (_, d))| (Lsn(i as u64 + 1), d))
            .collect();
        store.write_batch(c, Epoch(1), &records).unwrap();
        assert!(nvram.pending_len() <= 512);
        for (lsn, data) in &records {
            let r = store.read(c, *lsn).unwrap().unwrap();
            assert_eq!(&r.data, data, "{lsn}");
        }
        assert_eq!(store.interval_list(c).len(), 1);
    }

    /// What a failed call must leave untouched.
    fn fingerprint(store: &LogStore) -> (Option<Interval>, StoreStats, u64, usize, u64) {
        (
            store.last_interval(ClientId(1)),
            store.stats(),
            store.nvram().seal(),
            store.nvram().pending_len(),
            store.append_position(),
        )
    }

    #[test]
    fn failed_flush_leaves_the_index_where_the_bytes_are() {
        // Index-before-insert regression: the parent appended to the
        // interval table first, so a write whose track flush failed left
        // `last_interval` naming a record that was never stored.
        let dir = tmpdir("atomic-flush");
        let mut opts = small_opts();
        opts.track_bytes = 600;
        let mut store = LogStore::open(&dir, opts, NvramDevice::new(600)).unwrap();
        let c = ClientId(1);
        store.write_batch(c, Epoch(1), &run(1, 4)).unwrap(); // 408 B pending
        let before = fingerprint(&store);
        assert_eq!(before.0, Some(Interval::new(Epoch(1), Lsn(1), Lsn(4))));

        // The disk goes away: the flush that must make room now fails.
        fs::remove_dir_all(&dir).unwrap();
        assert!(store.write_batch(c, Epoch(1), &run(5, 7)).is_err());
        assert_eq!(fingerprint(&store), before);
        let wide = LogRecord::present(Lsn(5), Epoch(1), vec![5u8; 300]);
        assert!(store.write(c, &wide).is_err());
        assert_eq!(fingerprint(&store), before);
        for i in 1..=4u64 {
            assert!(store.read(c, Lsn(i)).unwrap().is_some(), "lsn {i}");
        }
        assert_eq!(store.read(c, Lsn(5)).unwrap(), None);

        // The disk comes back: the same batch now lands, nothing skipped.
        fs::create_dir_all(&dir).unwrap();
        store.write_batch(c, Epoch(1), &run(5, 7)).unwrap();
        assert_eq!(
            store.last_interval(c),
            Some(Interval::new(Epoch(1), Lsn(1), Lsn(7)))
        );
        for i in 1..=7u64 {
            let r = store.read(c, Lsn(i)).unwrap().unwrap();
            assert_eq!(r.data.as_bytes(), &[i as u8; 64], "lsn {i}");
        }
    }

    #[test]
    fn refused_insert_leaves_the_index_where_the_bytes_are() {
        let dir = tmpdir("atomic-guard");
        let nvram = NvramDevice::new(4096);
        let mut store = LogStore::open(&dir, small_opts(), nvram.clone()).unwrap();
        let c = ClientId(1);
        store.write_batch(c, Epoch(1), &run(1, 3)).unwrap();
        nvram.insert(b"stray").unwrap(); // foreign write: the seal moves on
        let before = fingerprint(&store);
        assert!(matches!(
            store.write_batch(c, Epoch(1), &run(4, 6)),
            Err(DlogError::GuardViolation { .. })
        ));
        assert_eq!(fingerprint(&store), before);
        assert!(store.read(c, Lsn(3)).unwrap().is_some());
        assert_eq!(store.read(c, Lsn(4)).unwrap(), None);
    }

    #[test]
    fn misordered_batch_stores_nothing() {
        let dir = tmpdir("atomic-order");
        let mut store = LogStore::open(&dir, small_opts(), NvramDevice::new(4096)).unwrap();
        let c = ClientId(1);
        store.write_batch(c, Epoch(2), &run(1, 3)).unwrap();
        let before = fingerprint(&store);
        let mut bad = run(4, 8);
        bad[3].0 = Lsn(5); // 4 5 6 5 8
        for (epoch, records) in [(2, &bad[..]), (2, &run(3, 5)[..]), (1, &run(4, 5)[..])] {
            assert!(matches!(
                store.write_batch(c, Epoch(epoch), records),
                Err(DlogError::Protocol(_))
            ));
            assert_eq!(fingerprint(&store), before);
        }
        // A gap inside a run is legal storage order: it opens an interval.
        let mut gap = run(4, 6);
        gap[2].0 = Lsn(9);
        store.write_batch(c, Epoch(2), &gap).unwrap();
        assert_eq!(store.interval_list(c).len(), 2);
        assert!(store.read(c, Lsn(9)).unwrap().is_some());
    }
}
