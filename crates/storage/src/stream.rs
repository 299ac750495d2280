//! The sequentially written, segmented log-data stream.
//!
//! §4.1: "records from different logs must be interleaved in a data stream
//! that is written sequentially to disk". The stream is a contiguous
//! logical byte space chunked into fixed-capacity segment files, so old
//! prefixes can be spooled off or deleted at segment granularity (§5.3).
//! Frames may span segment boundaries; the logical position space has no
//! holes.

use std::collections::BTreeSet;
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

/// A segmented, append-oriented byte stream with positional reads.
#[derive(Debug)]
pub struct SegmentedStream {
    dir: PathBuf,
    segment_bytes: u64,
    /// Logical end: one past the last written byte.
    end: u64,
    /// Logical start: everything before this has been dropped (§5.3).
    start: u64,
    /// Segments touched since the last `sync`.
    dirty: BTreeSet<u64>,
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
            dirty: BTreeSet::new(),
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

    /// Number of live segment files.
    #[must_use]
    pub fn segment_count(&self) -> u64 {
        if self.end == self.start && self.end == 0 {
            return 0;
        }
        self.end / self.segment_bytes - self.start / self.segment_bytes + 1
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
    /// current end; writing strictly before `start` or beyond `end` is an
    /// error.
    ///
    /// # Errors
    /// Propagates I/O failures and rejects out-of-range positions.
    pub fn write_at(&mut self, pos: u64, bytes: &[u8]) -> io::Result<()> {
        if pos < self.start || pos > self.end {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "write position outside the stream's live range",
            ));
        }
        let mut cursor = pos;
        let mut remaining = bytes;
        while !remaining.is_empty() {
            let seg = cursor / self.segment_bytes;
            let off = cursor % self.segment_bytes;
            let room = (self.segment_bytes - off) as usize;
            let take = room.min(remaining.len());
            self.open_segment(seg, true)?
                .write_all_at(remaining.get(..take).unwrap_or(&[]), off)?;
            self.dirty.insert(seg);
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
    pub fn read_into(&self, pos: u64, len: usize, out: &mut Vec<u8>) -> io::Result<()> {
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
            self.open_segment(seg, false)?.read_exact_at(slot, off)?;
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
            let p = segment_path(&self.dir, seg);
            if p.exists() {
                fs::remove_file(p)?;
            }
        }
        let p = segment_path(&self.dir, keep_seg);
        if p.exists() {
            let f = OpenOptions::new().write(true).open(p)?;
            f.set_len(end % self.segment_bytes)?;
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
            let p = segment_path(&self.dir, seg);
            if p.exists() {
                fs::remove_file(p)?;
            }
        }
        self.start = self.start.max(first_keep * self.segment_bytes);
        Ok(self.start)
    }

    /// Flush all dirty segments to stable storage.
    ///
    /// # Errors
    /// Propagates `fsync` failure. A segment leaves the dirty set only once
    /// its sync succeeded, so a retried `sync` after an error tries again
    /// instead of returning `Ok` having synced nothing.
    pub fn sync(&mut self) -> io::Result<()> {
        while let Some(&seg) = self.dirty.first() {
            let p = segment_path(&self.dir, seg);
            if p.exists() {
                File::open(p)?.sync_data()?;
            }
            self.dirty.remove(&seg);
        }
        Ok(())
    }

    /// Scan frames from `from`, invoking `f(position, frame)` for each
    /// valid frame, stopping at the first invalid one. Returns the logical
    /// position one past the last valid frame.
    ///
    /// # Errors
    /// Propagates I/O failures and structurally corrupt frame bodies.
    pub fn scan_frames<F>(&self, from: u64, mut f: F) -> DlogResult<u64>
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

    fn open_segment(&self, seg: u64, create: bool) -> io::Result<File> {
        let p = segment_path(&self.dir, seg);
        if create {
            // No truncate: segments are extended in place, never replaced.
            #[allow(clippy::suspicious_open_options)]
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .open(p)
        } else {
            File::open(p)
        }
    }
}

/// The on-disk file name of segment `seg` (shared with the archive tier,
/// which must recreate segment files byte-for-byte on restore). The name
/// itself is formatted on the stack; joining it to the stream directory
/// (`segment_path`) allocates, once per segment open. 32 bytes always fits
/// `seg-` + ≤ 20 digits + `.seg`.
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

    fn read_at(s: &SegmentedStream, pos: u64, len: usize) -> io::Result<Vec<u8>> {
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
        assert_eq!(read_at(&s, 0, 11).unwrap(), b"hello world");
        assert_eq!(s.end(), 11);
        assert!(read_at(&s, 5, 100).is_err());
    }

    #[test]
    fn spans_segment_boundaries() {
        let dir = tmpdir("spans");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        let blob: Vec<u8> = (0..3000u32).map(|i| i as u8).collect();
        s.append(&blob).unwrap();
        assert_eq!(s.segment_count(), 3);
        assert_eq!(read_at(&s, 0, 3000).unwrap(), blob);
        // A read crossing the first boundary.
        assert_eq!(read_at(&s, 1000, 48).unwrap(), &blob[1000..1048]);
    }

    #[test]
    fn reopen_finds_end() {
        let dir = tmpdir("reopen");
        {
            let mut s = SegmentedStream::open(&dir, 1024).unwrap();
            s.append(&vec![7u8; 2500]).unwrap();
            s.sync().unwrap();
        }
        let s = SegmentedStream::open(&dir, 1024).unwrap();
        assert_eq!(s.end(), 2500);
        assert_eq!(read_at(&s, 2400, 100).unwrap(), vec![7u8; 100]);
    }

    #[test]
    fn write_at_overwrites_tail() {
        let dir = tmpdir("overwrite");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        s.append(b"aaaaaaaaaa").unwrap();
        s.write_at(5, b"BBBBBBBB").unwrap();
        assert_eq!(s.end(), 13);
        assert_eq!(read_at(&s, 0, 13).unwrap(), b"aaaaaBBBBBBBB");
        // Holes are rejected.
        assert!(s.write_at(20, b"x").is_err());
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
        assert!(s.segment_count() > 3);
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
        assert!(read_at(&s, 2400, 100).is_ok());
        assert!(read_at(&s, 2450, 100).is_err());

        // Drop the first two segments.
        let new_start = s.drop_before(2100).unwrap();
        assert_eq!(new_start, 2048);
        assert!(read_at(&s, 0, 10).is_err());
        assert!(read_at(&s, 2048, 100).is_ok());
        assert_eq!(s.segment_count(), 1);
    }

    #[test]
    fn sync_keeps_what_it_failed_to_sync() {
        let dir = tmpdir("sync-retry");
        let mut s = SegmentedStream::open(&dir, 1024).unwrap();
        // Dirty segments 0 and 1, then put a socket at segment 0's path:
        // `exists()` holds, `open` fails (ENXIO), so syncing it fails.
        s.append(&vec![3u8; 1500]).unwrap();
        let seg0 = segment_path(&dir, 0);
        let aside = dir.join("seg-0.aside");
        fs::rename(&seg0, &aside).unwrap();
        let listener = std::os::unix::net::UnixListener::bind(&seg0).unwrap();
        assert!(s.sync().is_err());
        assert!(s.sync().is_err(), "a retried sync forgot segment 0");
        drop(listener);
        fs::remove_file(&seg0).unwrap();
        fs::rename(&aside, &seg0).unwrap();
        s.sync().unwrap();
        assert!(s.dirty.is_empty());
    }

    #[test]
    fn empty_stream() {
        let dir = tmpdir("empty");
        let s = SegmentedStream::open(&dir, 1024).unwrap();
        assert_eq!(s.end(), 0);
        assert_eq!(s.segment_count(), 0);
        let end = s.scan_frames(0, |_, _| panic!("no frames")).unwrap();
        assert_eq!(end, 0);
    }
}
