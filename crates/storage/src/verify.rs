//! Offline verification of a log server's on-disk state.
//!
//! Operators (and the `dlog-server --verify` mode) can audit a server
//! directory without starting the server: scan the whole stream, check
//! every CRC, rebuild the interval tables, and compare them with the
//! checkpoint. §5.3 lists "the repair of a log when one redundant copy is
//! lost" among the recovery operations of interest; verification is the
//! read side of that story.

use std::collections::HashMap;
use std::path::Path;

use dlog_types::{ClientId, Epoch, IntervalList, Result};

use crate::frame::Frame;
use crate::intervals::IntervalTable;
use crate::store::StoreOptions;
use crate::stream::SegmentedStream;

/// The outcome of verifying one server directory.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Valid frames scanned.
    pub frames: u64,
    /// Total payload bytes in valid record frames.
    pub payload_bytes: u64,
    /// Stream bytes covered by valid frames.
    pub valid_bytes: u64,
    /// Bytes past the last valid frame (torn tail, zero when clean).
    pub torn_tail_bytes: u64,
    /// Per-client interval lists rebuilt from the stream.
    pub clients: HashMap<ClientId, IntervalList>,
    /// Staged CopyLog records that were never installed, per client.
    pub orphan_staged: HashMap<ClientId, u64>,
    /// First structural error encountered (CRC failures simply end the
    /// scan; this reports ordering violations inside valid frames).
    pub structural_error: Option<String>,
}

impl VerifyReport {
    /// Total records across all clients (per-epoch copies counted).
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.clients.values().map(IntervalList::record_count).sum()
    }

    /// A directory is healthy when it has no torn tail, no structural
    /// errors, and no orphaned staged records.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.torn_tail_bytes == 0
            && self.structural_error.is_none()
            && self.orphan_staged.values().all(|&n| n == 0)
    }
}

/// Scan a server directory and audit its stream.
///
/// # Errors
/// Propagates I/O failures (an unreadable directory); content problems
/// are reported in the [`VerifyReport`] instead.
pub fn verify_dir(dir: impl AsRef<Path>, opts: &StoreOptions) -> Result<VerifyReport> {
    let mut stream = SegmentedStream::open(&dir, opts.segment_bytes)?;
    let mut report = VerifyReport::default();
    let mut table = IntervalTable::new();
    let mut staged: HashMap<ClientId, HashMap<Epoch, Vec<(dlog_types::LogRecord, u64)>>> =
        HashMap::new();

    let end = stream.scan_frames(stream.start(), |pos, frame| {
        if report.structural_error.is_some() {
            return;
        }
        report.frames += 1;
        match frame {
            Frame::Record {
                client,
                record,
                staged: false,
            } => {
                report.payload_bytes += record.data.len() as u64;
                if let Err(e) = table.append(client, record.lsn, record.epoch, pos) {
                    report.structural_error = Some(e);
                }
            }
            Frame::Record {
                client,
                record,
                staged: true,
            } => {
                report.payload_bytes += record.data.len() as u64;
                staged
                    .entry(client)
                    .or_default()
                    .entry(record.epoch)
                    .or_default()
                    .push((record, pos));
            }
            Frame::Install { client, epoch } => {
                let records = staged.get_mut(&client).and_then(|m| m.remove(&epoch));
                match records {
                    Some(mut records) => {
                        records.sort_by_key(|(r, _)| r.lsn);
                        for (r, pos) in records {
                            if let Err(e) = table.append(client, r.lsn, r.epoch, pos) {
                                report.structural_error = Some(e);
                                break;
                            }
                        }
                    }
                    None => {
                        report.structural_error =
                            Some(format!("install without staged records for {client}"));
                    }
                }
            }
            Frame::Checkpoint(body) => match IntervalTable::decode(&body) {
                // Write-once mode: the embedded snapshot supersedes the
                // running rebuild (same semantics as recovery).
                Ok(t) => table = t,
                Err(e) => {
                    report.structural_error = Some(format!("bad in-stream checkpoint: {e}"));
                }
            },
        }
    })?;
    report.valid_bytes = end.saturating_sub(stream.start());
    report.torn_tail_bytes = stream.end().saturating_sub(end);
    for c in table.clients().collect::<Vec<_>>() {
        report.clients.insert(c, table.interval_list(c));
    }
    for (c, m) in &staged {
        let orphans: u64 = m.values().map(|v| v.len() as u64).sum();
        if orphans > 0 {
            report.orphan_staged.insert(*c, orphans);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LogStore;
    use crate::NvramDevice;
    use dlog_types::{LogRecord, Lsn};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("dlog-verify-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn opts() -> StoreOptions {
        StoreOptions {
            fsync: false,
            checkpoint_every: 0,
            ..StoreOptions::default()
        }
    }

    #[test]
    fn clean_directory_verifies_healthy() {
        let dir = tmpdir("healthy");
        {
            let mut store = LogStore::open(&dir, opts(), NvramDevice::new(1 << 20)).unwrap();
            for c in 1..=3u64 {
                for i in 1..=20u64 {
                    store
                        .write(
                            ClientId(c),
                            &LogRecord::present(Lsn(i), Epoch(1), vec![7u8; 50]),
                        )
                        .unwrap();
                }
            }
            store.sync().unwrap();
        }
        let report = verify_dir(&dir, &opts()).unwrap();
        assert!(report.healthy(), "{report:?}");
        assert_eq!(report.clients.len(), 3);
        assert_eq!(report.record_count(), 60);
        assert_eq!(report.payload_bytes, 60 * 50);
        assert_eq!(report.torn_tail_bytes, 0);
    }

    #[test]
    fn detects_torn_tail() {
        let dir = tmpdir("torn");
        {
            let mut store = LogStore::open(&dir, opts(), NvramDevice::new(1 << 20)).unwrap();
            for i in 1..=10u64 {
                store
                    .write(
                        ClientId(1),
                        &LogRecord::present(Lsn(i), Epoch(1), vec![7u8; 50]),
                    )
                    .unwrap();
            }
            store.sync().unwrap();
        }
        // Corrupt the last few bytes of the only segment.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".seg"))
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        for b in &mut bytes[n - 20..] {
            *b ^= 0xFF;
        }
        std::fs::write(&seg, bytes).unwrap();

        let report = verify_dir(&dir, &opts()).unwrap();
        assert!(!report.healthy());
        assert!(report.torn_tail_bytes > 0);
        assert!(report.record_count() < 10, "tail records unreadable");
    }

    #[test]
    fn reports_orphan_staged() {
        let dir = tmpdir("orphan");
        {
            let mut store = LogStore::open(&dir, opts(), NvramDevice::new(1 << 20)).unwrap();
            store
                .write(
                    ClientId(1),
                    &LogRecord::present(Lsn(1), Epoch(1), vec![1u8; 10]),
                )
                .unwrap();
            store
                .stage_copy(
                    ClientId(1),
                    &LogRecord::present(Lsn(1), Epoch(2), vec![2u8; 10]),
                )
                .unwrap();
            store.sync().unwrap();
            // Never installed.
        }
        let report = verify_dir(&dir, &opts()).unwrap();
        assert!(!report.healthy());
        assert_eq!(report.orphan_staged.get(&ClientId(1)), Some(&1));
    }

    #[test]
    fn empty_directory() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let report = verify_dir(&dir, &opts()).unwrap();
        assert!(report.healthy());
        assert_eq!(report.frames, 0);
        assert_eq!(report.record_count(), 0);
    }
}
