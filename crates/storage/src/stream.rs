//! The sequentially written, segmented log-data stream.
//!
//! §4.1: "records from different logs must be interleaved in a data stream
//! that is written sequentially to disk". The stream is a contiguous
//! logical byte space chunked into fixed-capacity segment files, so old
//! prefixes can be spooled off or deleted at segment granularity (§5.3).
//! Frames may span segment boundaries; the logical position space has no
//! holes.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::frame::Frame;
use dlog_types::namebuf::NameBuf;
use dlog_types::Result as DlogResult;

/// Chunk size used by sequential scans.
const SCAN_CHUNK: usize = 256 * 1024;

/// Most segment files a stream holds open at once. A store of the
/// default 8 MiB segments reaches it only past 128 MiB of live stream.
const MAX_OPEN_SEGMENTS: usize = 16;

/// One open segment file.
#[derive(Debug)]
struct SegmentFile {
    file: File,
    /// Opened read-write; a read-only descriptor is never written.
    writable: bool,
    /// Written through this descriptor since its last successful
    /// `sync_data`.
    dirty: bool,
}

/// Lazily formatted diagnosis of a corrupt segment directory. Carried
/// inside an [`io::Error`] so the (cold) failure path renders text only
/// when somebody actually prints the error.
#[derive(Debug)]
struct GeometryError {
    what: &'static str,
    seg: u64,
    len: u64,
    capacity: u64,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (segment {}, length {}, capacity {})",
            self.what, self.seg, self.len, self.capacity
        )
    }
}

impl std::error::Error for GeometryError {}

/// Lazily formatted out-of-range read diagnosis.
#[derive(Debug)]
struct ReadRangeError {
    pos: u64,
    len: usize,
    start: u64,
    end: u64,
}

impl fmt::Display for ReadRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read [{}, {}) outside [{}, {})",
            self.pos,
            self.pos + self.len as u64,
            self.start,
            self.end
        )
    }
}

impl std::error::Error for ReadRangeError {}

/// Lazily formatted out-of-range write diagnosis. `floor` is the live
/// start or the archived watermark, whichever is higher.
#[derive(Debug)]
struct WriteRangeError {
    pos: u64,
    floor: u64,
    end: u64,
}

impl fmt::Display for WriteRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "write at {} outside [{}, {}]",
            self.pos, self.floor, self.end
        )
    }
}

impl std::error::Error for WriteRangeError {}

/// A segmented, append-oriented byte stream with positional reads.
///
/// The stream keeps the segment files it has opened, so a read or write
/// that hits one is a single positional syscall. A read opens a segment
/// read-only; a write opens it read-write, creating it if needed, and
/// replaces a read-only descriptor. At most 16 descriptors stay open: a
/// miss with all 16 open first closes the lowest-index one, after
/// syncing it if it is dirty (a failed sync keeps it open and fails the
/// miss). Dropping or truncating away a segment closes its descriptor.
/// Dirtiness lives on the descriptor, so [`SegmentedStream::sync`] syncs
/// each segment through the descriptor that wrote it.
#[derive(Debug)]
pub struct SegmentedStream {
    dir: PathBuf,
    segment_bytes: u64,
    /// Logical end: one past the last written byte.
    end: u64,
    /// Logical start: everything before this has been dropped (§5.3).
    start: u64,
    /// `Some(watermark)` once an archiver is attached: bytes below it
    /// are confirmed archived, so they are never written again and
    /// retention never drops a segment above it.
    archived_to: Option<u64>,
    /// Open segment files by index, at most `MAX_OPEN_SEGMENTS`.
    files: BTreeMap<u64, SegmentFile>,
    /// A segment file was created since the directory was last synced.
    dir_dirty: bool,
}

impl SegmentedStream {
    /// Open (or create) the stream stored in `dir` with the given segment
    /// capacity.
    ///
    /// # Errors
    /// Fails on I/O errors or if existing segments are inconsistent with
    /// `segment_bytes` (a non-final segment that is not full).
    pub fn open(dir: impl AsRef<Path>, segment_bytes: u64) -> io::Result<SegmentedStream> {
        assert!(segment_bytes >= 1024, "segment capacity unreasonably small");
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // Single pass over the directory: only the extremes matter (the
        // chain is validated below by walking `first..=last` directly).
        let mut first: Option<u64> = None;
        let mut last: Option<u64> = None;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(idx) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".seg"))
            {
                if let Ok(i) = idx.parse::<u64>() {
                    first = Some(first.map_or(i, |f| f.min(i)));
                    last = Some(last.map_or(i, |l| l.max(i)));
                }
            }
        }
        let (start, end) = match (first, last) {
            (Some(first), Some(last)) => {
                // Every index in `first..=last` must exist (a missing one
                // is a gap), all but the last must be exactly full, and
                // the last must not exceed capacity.
                let mut last_len = 0;
                for i in first..=last {
                    let len = match fs::metadata(segment_path(&dir, i)) {
                        Ok(md) => md.len(),
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                GeometryError {
                                    what: "segment missing (gap in the chain)",
                                    seg: i,
                                    len: 0,
                                    capacity: segment_bytes,
                                },
                            ));
                        }
                        Err(e) => return Err(e),
                    };
                    if i < last && len != segment_bytes {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            GeometryError {
                                what: "non-final segment is not full",
                                seg: i,
                                len,
                                capacity: segment_bytes,
                            },
                        ));
                    }
                    if i == last {
                        if len > segment_bytes {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                GeometryError {
                                    what: "final segment overlong",
                                    seg: i,
                                    len,
                                    capacity: segment_bytes,
                                },
                            ));
                        }
                        last_len = len;
                    }
                }
                (first * segment_bytes, last * segment_bytes + last_len)
            }
            _ => (0, 0),
        };
        Ok(SegmentedStream {
            dir,
            segment_bytes,
            end,
            start,
            archived_to: None,
            files: BTreeMap::new(),
            dir_dirty: false,
        })
    }

    /// Logical end of the stream (the append position).
    #[must_use]
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Logical start (everything before was dropped).
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Segment capacity in bytes.
    #[must_use]
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Indices of sealed segments: live segments that are full and will
    /// never be written again (every segment strictly below the one the
    /// append position falls in). These are what the archive tier uploads.
    #[must_use]
    pub fn sealed_segments(&self) -> Vec<u64> {
        let first_live = self.start / self.segment_bytes;
        let append_seg = self.end / self.segment_bytes;
        (first_live..append_seg).collect()
    }

    /// Attach an archiver: the archived watermark starts at the live
    /// start, unless one is already set.
    pub fn enable_archival(&mut self) {
        self.archived_to.get_or_insert(self.start);
    }

    /// Raise the archived watermark to `pos`: every byte below it is
    /// confirmed archived and is never written again. Implies
    /// [`SegmentedStream::enable_archival`].
    pub fn note_archived(&mut self, pos: u64) {
        let w = self.archived_to.get_or_insert(0);
        *w = (*w).max(pos);
    }

    /// The archived watermark, once an archiver is attached.
    #[must_use]
    pub fn archived_to(&self) -> Option<u64> {
        self.archived_to
    }

    /// Append `bytes` at the end, returning the position they were written
    /// at.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<u64> {
        let pos = self.end;
        self.write_at(pos, bytes)?;
        Ok(pos)
    }

    /// Write `bytes` at logical position `pos` (used by NVRAM replay to
    /// overwrite a torn tail). Extends the stream if the write passes the
    /// current end; writing beyond `end`, or strictly before `start` or
    /// the archived watermark (§5.3: the archive's CRCs cover those bytes),
    /// is an error.
    ///
    /// # Errors
    /// Propagates I/O failures and rejects out-of-range positions.
    pub fn write_at(&mut self, pos: u64, bytes: &[u8]) -> io::Result<()> {
        let floor = self.archived_to.map_or(self.start, |w| w.max(self.start));
        if pos < floor || pos > self.end {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                WriteRangeError {
                    pos,
                    floor,
                    end: self.end,
                },
            ));
        }
        let mut cursor = pos;
        let mut remaining = bytes;
        while !remaining.is_empty() {
            let seg = cursor / self.segment_bytes;
            let off = cursor % self.segment_bytes;
            let room = (self.segment_bytes - off) as usize;
            let take = room.min(remaining.len());
            let segment = self.segment(seg, true)?;
            // Dirty before writing: a failed write may have written part.
            segment.dirty = true;
            segment
                .file
                .write_all_at(remaining.get(..take).unwrap_or(&[]), off)?;
            cursor += take as u64;
            remaining = remaining.get(take..).unwrap_or(&[]);
        }
        self.end = self.end.max(cursor);
        Ok(())
    }

    /// Read exactly `len` bytes at `pos` into `out` (cleared first). The
    /// caller owns the buffer so steady-state readers reuse its capacity
    /// instead of allocating per read.
    ///
    /// # Errors
    /// Fails if the range is not fully inside `[start, end)`.
    pub fn read_into(&mut self, pos: u64, len: usize, out: &mut Vec<u8>) -> io::Result<()> {
        if pos < self.start || pos + len as u64 > self.end {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                ReadRangeError {
                    pos,
                    len,
                    start: self.start,
                    end: self.end,
                },
            ));
        }
        out.clear();
        out.resize(len, 0);
        let mut cursor = pos;
        let mut filled = 0;
        while filled < len {
            let seg = cursor / self.segment_bytes;
            let off = cursor % self.segment_bytes;
            let room = (self.segment_bytes - off) as usize;
            let take = room.min(len - filled);
            let slot = out.get_mut(filled..filled + take).ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "read window out of range")
            })?;
            self.segment(seg, false)?.file.read_exact_at(slot, off)?;
            cursor += take as u64;
            filled += take;
        }
        Ok(())
    }

    /// Truncate the stream to logical length `end` (drops torn tails found
    /// during recovery).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn truncate(&mut self, end: u64) -> io::Result<()> {
        if end > self.end || end < self.start {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "truncate out of range",
            ));
        }
        let keep_seg = end / self.segment_bytes;
        let last_seg = if self.end == 0 {
            0
        } else {
            (self.end.saturating_sub(1)) / self.segment_bytes
        };
        for seg in (keep_seg + 1)..=last_seg {
            self.remove_segment(seg)?;
        }
        if end < self.end {
            let len = end % self.segment_bytes;
            self.segment(keep_seg, true)?.file.set_len(len)?;
        }
        self.end = end;
        Ok(())
    }

    /// Drop whole segments strictly below `pos` (log space management,
    /// §5.3). Returns the new logical start.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn drop_before(&mut self, pos: u64) -> io::Result<u64> {
        let pos = pos.min(self.end);
        let first_keep = pos / self.segment_bytes;
        let first_live = self.start / self.segment_bytes;
        for seg in first_live..first_keep {
            self.remove_segment(seg)?;
        }
        self.start = self.start.max(first_keep * self.segment_bytes);
        Ok(self.start)
    }

    /// Close segment `seg`'s descriptor, if open, and delete its file.
    fn remove_segment(&mut self, seg: u64) -> io::Result<()> {
        self.files.remove(&seg);
        let p = segment_path(&self.dir, seg);
        if p.exists() {
            fs::remove_file(p)?;
        }
        Ok(())
    }

    /// Flush every dirty segment to stable storage through the descriptor
    /// that wrote it, then the directory if a segment file was created
    /// since its last sync.
    ///
    /// # Errors
    /// Propagates `fsync` failure. A segment (or the directory) stays
    /// marked until its sync succeeds, so a retried `sync` after an error
    /// tries again instead of returning `Ok` having synced nothing.
    pub fn sync(&mut self) -> io::Result<()> {
        dlog_types::lock::assert_unlocked();
        for segment in self.files.values_mut().filter(|s| s.dirty) {
            segment.file.sync_data()?;
            segment.dirty = false;
        }
        if self.dir_dirty {
            File::open(&self.dir)?.sync_data()?;
            self.dir_dirty = false;
        }
        Ok(())
    }

    /// Scan frames from `from`, invoking `f(position, frame)` for each
    /// valid frame, stopping at the first invalid one. Returns the logical
    /// position one past the last valid frame.
    ///
    /// # Errors
    /// Propagates I/O failures and structurally corrupt frame bodies.
    pub fn scan_frames<F>(&mut self, from: u64, mut f: F) -> DlogResult<u64>
    where
        F: FnMut(u64, Frame),
    {
        let mut pos = from.max(self.start);
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk: Vec<u8> = Vec::new();
        let mut buf_base = pos;
        loop {
            let offset = (pos - buf_base) as usize;
            match Frame::decode(buf.get(offset..).unwrap_or(&[]))? {
                Some((frame, consumed)) => {
                    f(pos, frame);
                    pos += consumed as u64;
                    // Slide the window when the consumed prefix grows large.
                    if pos - buf_base > (SCAN_CHUNK as u64) / 2 {
                        buf.drain(..(pos - buf_base) as usize);
                        buf_base = pos;
                    }
                }
                None => {
                    // Either a genuine end, or the buffer is too short for
                    // the next frame and more stream data exists: extend.
                    let buffered_to = buf_base + buf.len() as u64;
                    if buffered_to < self.end {
                        let take = ((self.end - buffered_to) as usize).min(SCAN_CHUNK);
                        self.read_into(buffered_to, take, &mut chunk)
                            .map_err(dlog_types::DlogError::Io)?;
                        buf.extend_from_slice(&chunk);
                        continue;
                    }
                    return Ok(pos);
                }
            }
        }
    }

    /// Segment `seg`'s open file, opened on a miss: read-only for a read,
    /// read-write (created if missing) for a `write`, which also replaces
    /// a read-only descriptor. A miss on a full cache first closes the
    /// lowest-index descriptor.
    fn segment(&mut self, seg: u64, write: bool) -> io::Result<&mut SegmentFile> {
        dlog_types::lock::assert_unlocked();
        if self.files.len() >= MAX_OPEN_SEGMENTS && !self.files.contains_key(&seg) {
            if let Some(mut lowest) = self.files.first_entry() {
                if lowest.get().dirty {
                    lowest.get_mut().file.sync_data()?;
                }
                lowest.remove();
            }
        }
        let slot = match self.files.entry(seg) {
            Entry::Occupied(hit) if hit.get().writable || !write => return Ok(hit.into_mut()),
            slot => slot,
        };
        let p = segment_path(&self.dir, seg);
        let file = if write {
            // No truncate: segments are extended in place, never replaced.
            #[allow(clippy::suspicious_open_options)]
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .open(p)?
        } else {
            File::open(p)?
        };
        // A segment with no bytes yet may have had no file, which this
        // open then created.
        if write && seg * self.segment_bytes >= self.end {
            self.dir_dirty = true;
        }
        // A replaced read-only descriptor is clean: only writes dirty one.
        Ok(slot
            .insert_entry(SegmentFile {
                file,
                writable: write,
                dirty: false,
            })
            .into_mut())
    }
}

/// The on-disk file name of segment `seg` (shared with the archive tier,
/// which must recreate segment files byte-for-byte on restore). The name
/// itself is formatted on the stack: the first track flush into a new
/// segment opens it inside `LogServer::handle_into`, whose allocations
/// `contiguous_force_allocates_only_index_growth` pins. Joining it to the
/// stream directory (`segment_path`) allocates, once per descriptor open
/// (the stream keeps its descriptors, so once per segment while it stays
/// open). 32 bytes always fits `seg-` + ≤ 20 digits + `.seg`.
#[must_use]
pub fn segment_file_name(seg: u64) -> NameBuf<32> {
    dlog_types::namebuf!(32, "seg-{seg:08}.seg")
}

fn segment_path(dir: &Path, seg: u64) -> PathBuf {
    dir.join(segment_file_name(seg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlog_types::{ClientId, Epoch, LogRecord, Lsn};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("dlog-stream-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// Segment files in `dir`.
    fn segment_files(dir: &Path) -> usize {
        fs::read_dir(dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("seg".as_ref()))
            .count()
    }

    fn read_at(s: &mut SegmentedStream, pos: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        s.read_into(pos, len, &mut out)?;
        Ok(out)
    }

    fn rec_frame(lsn: u64, size: usize) -> Frame {
        Frame::Record {
            client: ClientId(1),
            record: LogRecord::present(Lsn(lsn), Epoch(1), vec![lsn as u8; size]),
            staged: false,
        }
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut s = SegmentedStream::open(&dir, 4096).unwrap();
        let pos = s.append(b"hello world").unwrap();
        assert_eq!(pos, 0);
        assert_eq!(read_at(&mut s, 0, 11).unwrap(), b"hello world");
        assert_eq!(s.end(), 11);
        assert!(read_at(&mut s, 5, 100).is_err());
    }

    #[test]
    fn spans_segment_boundaries() {
        let dir = tmpdir("spans");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        let blob: Vec<u8> = (0..3000u32).map(|i| i as u8).collect();
        s.append(&blob).unwrap();
        assert_eq!(segment_files(&dir), 3);
        assert_eq!(read_at(&mut s, 0, 3000).unwrap(), blob);
        // A read crossing the first boundary.
        assert_eq!(read_at(&mut s, 1000, 48).unwrap(), &blob[1000..1048]);
    }

    #[test]
    fn reopen_finds_end() {
        let dir = tmpdir("reopen");
        {
            let mut s = SegmentedStream::open(&dir, 1024).unwrap();
            s.append(&vec![7u8; 2500]).unwrap();
            s.sync().unwrap();
        }
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        assert_eq!(s.end(), 2500);
        assert_eq!(read_at(&mut s, 2400, 100).unwrap(), vec![7u8; 100]);
    }

    #[test]
    fn write_at_overwrites_tail() {
        let dir = tmpdir("overwrite");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        s.append(b"aaaaaaaaaa").unwrap();
        s.write_at(5, b"BBBBBBBB").unwrap();
        assert_eq!(s.end(), 13);
        assert_eq!(read_at(&mut s, 0, 13).unwrap(), b"aaaaaBBBBBBBB");
        // Holes are rejected.
        assert!(s.write_at(20, b"x").is_err());
    }

    fn write_range_error(e: &io::Error) -> Option<(u64, u64, u64)> {
        let e = e.get_ref()?.downcast_ref::<WriteRangeError>()?;
        Some((e.pos, e.floor, e.end))
    }

    #[test]
    fn a_write_below_the_archived_watermark_is_refused() {
        let dir = tmpdir("write-floor");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        let blob: Vec<u8> = (0..1500u32).map(|i| i as u8).collect();
        s.append(&blob).unwrap();
        s.note_archived(1024);
        for pos in [0, 1000, 1023] {
            let e = s.write_at(pos, &[0xEE; 8]).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            assert_eq!(write_range_error(&e), Some((pos, 1024, 1500)));
        }
        assert_eq!(read_at(&mut s, 0, 1500).unwrap(), blob);
        // The watermark itself is writable: NVRAM replay may resume there.
        s.write_at(1024, &[0xEE; 8]).unwrap();
        assert_eq!(read_at(&mut s, 1016, 16).unwrap()[8..], [0xEE; 8]);
    }

    #[test]
    fn appends_past_the_archived_watermark_succeed() {
        let dir = tmpdir("append-floor");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        s.enable_archival();
        assert_eq!(s.archived_to(), Some(0));
        s.append(&[1u8; 700]).unwrap();
        s.note_archived(s.end());
        assert_eq!(s.append(&[2u8; 700]).unwrap(), 700);
        s.note_archived(s.end());
        assert_eq!(s.append(&[3u8; 10]).unwrap(), 1400);
        assert_eq!(s.archived_to(), Some(1400));
        assert_eq!(
            write_range_error(&s.write_at(1399, b"x").unwrap_err()),
            Some((1399, 1400, 1410))
        );
        assert_eq!(read_at(&mut s, 1398, 3).unwrap(), [2, 2, 3]);
    }

    #[test]
    fn scan_stops_at_torn_frame() {
        let dir = tmpdir("torn");
        let mut s = SegmentedStream::open(&dir, 1 << 16).unwrap();
        let mut encoded = Vec::new();
        for i in 1..=5u64 {
            rec_frame(i, 50).encode_into(&mut encoded);
        }
        let full_len = encoded.len();
        // Tear the final frame: drop its last 10 bytes.
        s.append(&encoded[..full_len - 10]).unwrap();
        let mut seen = Vec::new();
        let end = s.scan_frames(0, |pos, f| seen.push((pos, f))).unwrap();
        assert_eq!(seen.len(), 4);
        // The scan end is the start of the torn frame.
        let frame_len = rec_frame(1, 50).encoded_len() as u64;
        assert_eq!(end, frame_len * 4);
    }

    #[test]
    fn scan_across_segments() {
        let dir = tmpdir("scanseg");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        let mut expect = Vec::new();
        for i in 1..=60u64 {
            let f = rec_frame(i, 64);
            let mut buf = Vec::new();
            f.encode_into(&mut buf);
            let pos = s.append(&buf).unwrap();
            expect.push((pos, f));
        }
        assert!(segment_files(&dir) > 3);
        let mut seen = Vec::new();
        let end = s.scan_frames(0, |pos, f| seen.push((pos, f))).unwrap();
        assert_eq!(seen, expect);
        assert_eq!(end, s.end());
    }

    #[test]
    fn truncate_and_drop() {
        let dir = tmpdir("truncate");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        s.append(&vec![1u8; 3000]).unwrap();
        s.truncate(2500).unwrap();
        assert_eq!(s.end(), 2500);
        assert!(read_at(&mut s, 2400, 100).is_ok());
        assert!(read_at(&mut s, 2450, 100).is_err());

        // Drop the first two segments.
        let new_start = s.drop_before(2100).unwrap();
        assert_eq!(new_start, 2048);
        assert!(read_at(&mut s, 0, 10).is_err());
        assert!(read_at(&mut s, 2048, 100).is_ok());
        assert_eq!(segment_files(&dir), 1);
    }

    #[test]
    fn sync_keeps_what_it_failed_to_sync() {
        let dir = tmpdir("sync-retry");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        // Dirty segments 0 and 1, then swap segment 0's descriptor for a
        // socket's: `sync_data` on a socket fails (EINVAL).
        s.append(&vec![3u8; 1500]).unwrap();
        let (socket, _peer) = std::os::unix::net::UnixStream::pair().unwrap();
        let socket = File::from(std::os::fd::OwnedFd::from(socket));
        let seg0 = &mut s.files.get_mut(&0).unwrap().file;
        let real = std::mem::replace(seg0, socket);
        assert!(s.sync().is_err());
        assert!(s.sync().is_err(), "a retried sync forgot segment 0");
        s.files.get_mut(&0).unwrap().file = real;
        s.sync().unwrap();
        assert!(s.files.values().all(|f| !f.dirty));
    }

    #[test]
    fn eviction_syncs_a_dirty_descriptor_before_closing_it() {
        let dir = tmpdir("evict-sync");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        // Fill the cache with dirty segments 0..16, then swap segment 0's
        // descriptor for a socket's, whose `sync_data` fails (EINVAL).
        s.append(&vec![5u8; 1024 * MAX_OPEN_SEGMENTS]).unwrap();
        assert_eq!(s.files.len(), MAX_OPEN_SEGMENTS);
        assert!(s.files.values().all(|f| f.dirty));
        let (socket, _peer) = std::os::unix::net::UnixStream::pair().unwrap();
        let socket = File::from(std::os::fd::OwnedFd::from(socket));
        let real = std::mem::replace(&mut s.files.get_mut(&0).unwrap().file, socket);
        // Segment 16 misses and must evict segment 0: its failed sync
        // keeps it, dirty, and fails the write, again on a retry.
        for _ in 0..2 {
            assert!(s.append(&[6u8; 1]).is_err());
            assert!(s.files.get(&0).is_some_and(|f| f.dirty));
        }
        assert!(s.sync().is_err(), "segment 0 is still unsynced");
        s.files.get_mut(&0).unwrap().file = real;
        s.append(&[6u8; 1]).unwrap();
        assert!(!s.files.contains_key(&0), "segment 0 was not evicted");
        assert_eq!(s.files.len(), MAX_OPEN_SEGMENTS);
        assert_eq!(read_at(&mut s, 0, 1).unwrap(), [5u8]);
    }

    #[test]
    fn a_created_segment_syncs_the_directory_once() {
        let dir = tmpdir("dir-sync");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        s.append(&[1u8; 1000]).unwrap();
        assert!(s.dir_dirty, "the first write creates segment 0");
        s.sync().unwrap();
        assert!(!s.dir_dirty);
        s.append(&[2u8; 24]).unwrap();
        assert!(!s.dir_dirty, "filling segment 0 creates nothing");
        s.append(&[3u8; 1]).unwrap();
        assert!(s.dir_dirty, "the roll creates segment 1");
        // A directory that cannot be opened fails the sync, which keeps
        // the mark.
        let real = std::mem::replace(&mut s.dir, dir.join("missing"));
        assert!(s.sync().is_err());
        assert!(s.dir_dirty, "a failed directory sync cleared the mark");
        s.dir = real;
        s.sync().unwrap();
        assert!(!s.dir_dirty);
        // A fresh stream reopens segment 1 for writing without creating it.
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        s.append(&[4u8; 10]).unwrap();
        assert!(!s.dir_dirty, "a write into an existing segment file");
    }

    #[test]
    fn empty_stream() {
        let dir = tmpdir("empty");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        assert_eq!(s.end(), 0);
        assert_eq!(segment_files(&dir), 0);
        let end = s.scan_frames(0, |_, _| panic!("no frames")).unwrap();
        assert_eq!(end, 0);
    }
}
