//! The baseline the paper argues against: a **local duplexed-disk log**,
//! where each processing node mirrors its log onto two locally attached
//! disks (§1: "logs can be implemented with data written to duplexed disks
//! on each processing node").
//!
//! Used by experiment E4 (§5.6) to compare the elapsed time of local
//! logging against remote logging to two log servers. Every force writes
//! the buffered records to both replica files and fsyncs both — the
//! duplexed node has no battery-backed buffer, so a force is durable only
//! after two synchronous disk writes.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use dlog_types::{ClientId, DlogError, Epoch, LogData, LogRecord, Lsn, Result};

use crate::frame::Frame;

/// Counters for the E4 comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DuplexStats {
    /// Records appended.
    pub records: u64,
    /// Payload bytes appended.
    pub bytes: u64,
    /// Forces performed.
    pub forces: u64,
    /// Individual `fsync` calls (two per force).
    pub fsyncs: u64,
}

/// A log mirrored on two local "disks" (two files, ideally on independent
/// devices; the benchmark uses one device and measures the doubled
/// synchronous write cost, which is the fair laptop-scale equivalent).
pub struct DuplexLog {
    replicas: [File; 2],
    /// In-memory LSN → (offset, frame length) index, rebuilt on open.
    index: Vec<(u64, u32)>,
    /// Buffered (unforced) frames.
    buffer: Vec<u8>,
    /// Reused scratch for `read`: frame bytes are staged here, so the
    /// steady-state read path does not allocate.
    read_buf: Vec<u8>,
    /// Offset at which `buffer` will be written.
    tail: u64,
    next_lsn: Lsn,
    stats: DuplexStats,
}

impl DuplexLog {
    /// Open (or create) a duplexed log in `dir`, recovering from the
    /// replica with the longest valid frame prefix.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn open(dir: impl AsRef<Path>) -> Result<DuplexLog> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let (path_a, path_b) = (&dir.join("replica-a.log"), &dir.join("replica-b.log"));
        // Recover: scan both replicas as frame streams, keep the longer
        // valid prefix (replica A on a tie), and repair the other to match.
        let (end_a, index_a) = scan_replica(dir, path_a)?;
        let (end_b, index_b) = scan_replica(dir, path_b)?;
        let (best_is_a, end, index) = if end_a >= end_b {
            (true, end_a, index_a)
        } else {
            (false, end_b, index_b)
        };
        let open_replica = |p: &Path| {
            // Intentionally no truncate: existing replica contents are the
            // recovery source.
            #[allow(clippy::suspicious_open_options)]
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .open(p)
        };
        let mut replicas = [open_replica(path_a)?, open_replica(path_b)?];
        // Repair the lagging replica by copying the valid prefix.
        if end > 0 {
            let mut good = Vec::new();
            {
                use std::io::Read;
                let f = File::open(if best_is_a { path_a } else { path_b })?;
                Read::take(f, end).read_to_end(&mut good)?;
            }
            let [ra, rb] = &mut replicas;
            let lagging = if best_is_a { rb } else { ra };
            lagging.seek(SeekFrom::Start(0))?;
            lagging.write_all(&good)?;
            lagging.set_len(end)?;
            lagging.sync_data()?;
        }
        for r in &replicas {
            r.set_len(end)?;
        }
        let next_lsn = Lsn(index.len() as u64 + 1);
        Ok(DuplexLog {
            replicas,
            index,
            buffer: Vec::new(),
            read_buf: Vec::new(),
            tail: end,
            next_lsn,
            stats: DuplexStats::default(),
        })
    }

    /// Append a record to the buffer (not yet durable), returning its LSN.
    pub fn append(&mut self, data: impl Into<LogData>) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn = lsn.next();
        let record = LogRecord {
            lsn,
            epoch: Epoch(1),
            present: true,
            data: data.into(),
        };
        let frame = Frame::Record {
            client: ClientId(0),
            record,
            staged: false,
        };
        let start = self.tail + self.buffer.len() as u64;
        let len = frame.encode_into(&mut self.buffer) as u32;
        self.index.push((start, len));
        self.stats.records += 1;
        self.stats.bytes += u64::from(len);
        lsn
    }

    /// Force all buffered records to both replicas (write + fsync each).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn force(&mut self) -> Result<()> {
        dlog_types::lock::assert_unlocked();
        self.stats.forces += 1;
        if self.buffer.is_empty() {
            return Ok(());
        }
        for r in &mut self.replicas {
            r.seek(SeekFrom::Start(self.tail))?;
            r.write_all(&self.buffer)?;
            r.sync_data()?;
            self.stats.fsyncs += 1;
        }
        self.tail += self.buffer.len() as u64;
        self.buffer.clear();
        Ok(())
    }

    /// Read the record at `lsn` (from the first replica).
    ///
    /// # Errors
    /// [`DlogError::NoSuchRecord`] for unknown LSNs; I/O errors otherwise.
    pub fn read(&mut self, lsn: Lsn) -> Result<LogRecord> {
        let (off, len) = *Lsn::FIRST
            .distance(lsn)
            .and_then(|i| self.index.get(i as usize))
            .ok_or(DlogError::NoSuchRecord { lsn })?;
        let buffered_from = self.tail;
        // Destructure so the scratch can borrow mutably next to the
        // buffer and replica handles; the frame is staged through it
        // without a per-read allocation.
        let DuplexLog {
            replicas,
            buffer,
            read_buf,
            ..
        } = self;
        read_buf.clear();
        if off >= buffered_from {
            let s = off.saturating_sub(buffered_from) as usize;
            let slice = buffer
                .get(s..s.saturating_add(len as usize))
                .ok_or_else(|| DlogError::Corrupt("bad duplex index entry".into()))?;
            read_buf.extend_from_slice(slice);
        } else {
            use std::io::Read;
            read_buf.resize(len as usize, 0);
            let [ra, _] = replicas;
            ra.seek(SeekFrom::Start(off))?;
            ra.read_exact(read_buf)?;
        }
        match Frame::decode(read_buf)? {
            Some((Frame::Record { record, .. }, _)) if record.lsn == lsn => Ok(record),
            _ => Err(DlogError::Corrupt("bad frame in duplex log".into())),
        }
    }

    /// LSN of the most recently appended record.
    #[must_use]
    pub fn end_of_log(&self) -> Lsn {
        self.next_lsn.prev().unwrap_or(Lsn::ZERO)
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> DuplexStats {
        self.stats
    }
}

/// Scan one replica file as a frame stream; returns (valid prefix length,
/// LSN index).
fn scan_replica(dir: &Path, path: &Path) -> Result<(u64, Vec<(u64, u32)>)> {
    if !path.exists() {
        return Ok((0, Vec::new()));
    }
    // Reuse the segmented scanner with a single huge segment by copying
    // into a temp stream view: cheaper to just read the file directly.
    let bytes = fs::read(path)?;
    let _ = dir;
    let mut index = Vec::new();
    let mut off = 0usize;
    let mut expected = Lsn(1);
    while let Some((frame, consumed)) = Frame::decode(bytes.get(off..).unwrap_or(&[]))? {
        match frame {
            Frame::Record { record, .. } if record.lsn == expected => {
                index.push((off as u64, consumed as u32));
                expected = expected.next();
                off += consumed;
            }
            _ => break,
        }
    }
    Ok((off as u64, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("dlog-duplex-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_force_read() {
        let dir = tmpdir("afr");
        let mut log = DuplexLog::open(&dir).unwrap();
        let l1 = log.append(vec![1u8; 100]);
        let l2 = log.append(vec![2u8; 100]);
        assert_eq!((l1, l2), (Lsn(1), Lsn(2)));
        // Readable even before force (from the buffer).
        assert_eq!(log.read(Lsn(2)).unwrap().data.as_bytes(), &[2u8; 100]);
        log.force().unwrap();
        assert_eq!(log.stats().fsyncs, 2);
        assert_eq!(log.read(Lsn(1)).unwrap().data.as_bytes(), &[1u8; 100]);
        assert!(log.read(Lsn(3)).is_err());
    }

    #[test]
    fn both_replicas_identical_after_force() {
        let dir = tmpdir("identical");
        let mut log = DuplexLog::open(&dir).unwrap();
        for i in 0..10u8 {
            log.append(vec![i; 50]);
        }
        log.force().unwrap();
        let a = fs::read(dir.join("replica-a.log")).unwrap();
        let b = fs::read(dir.join("replica-b.log")).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn reopen_recovers_forced_records_only() {
        let dir = tmpdir("reopen");
        {
            let mut log = DuplexLog::open(&dir).unwrap();
            log.append(vec![1u8; 10]);
            log.append(vec![2u8; 10]);
            log.force().unwrap();
            log.append(vec![3u8; 10]); // never forced: lost at crash
        }
        let mut log = DuplexLog::open(&dir).unwrap();
        assert_eq!(log.end_of_log(), Lsn(2));
        assert_eq!(log.read(Lsn(2)).unwrap().data.as_bytes(), &[2u8; 10]);
        // New appends continue the sequence.
        assert_eq!(log.append(vec![4u8; 10]), Lsn(3));
    }

    #[test]
    fn repairs_lagging_replica() {
        let dir = tmpdir("repair");
        {
            let mut log = DuplexLog::open(&dir).unwrap();
            for i in 0..5u8 {
                log.append(vec![i; 20]);
            }
            log.force().unwrap();
        }
        // Corrupt replica B's tail (simulating a torn write on one disk).
        let b_path = dir.join("replica-b.log");
        let len = fs::metadata(&b_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&b_path).unwrap();
        f.set_len(len - 7).unwrap();

        let mut log = DuplexLog::open(&dir).unwrap();
        assert_eq!(log.end_of_log(), Lsn(5));
        for i in 1..=5u64 {
            assert!(log.read(Lsn(i)).is_ok());
        }
        // Replica B was repaired to match A.
        let a = fs::read(dir.join("replica-a.log")).unwrap();
        let b = fs::read(&b_path).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_log() {
        let dir = tmpdir("empty");
        let mut log = DuplexLog::open(&dir).unwrap();
        assert_eq!(log.end_of_log(), Lsn(0));
        assert!(log.read(Lsn(1)).is_err());
        log.force().unwrap(); // forcing nothing is fine
    }
}
