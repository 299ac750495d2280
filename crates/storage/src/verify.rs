//! Offline verification of a log server's on-disk state.
//!
//! Operators (and the `dlog-server --verify` mode) can audit a server
//! directory without starting the server. The audit runs recovery's first
//! two steps read-only: it loads the checkpoint [`LogStore::open`] would
//! load, CRC-checks every frame from the lowest position the
//! checkpoint's table indexes, and folds the frames from the checkpoint's
//! scan position through the same [`ReplayState`] recovery uses, so the
//! interval lists it reports are the ones a restart would recover. §5.3
//! lists "the repair of a log when one redundant copy is lost" among the
//! recovery operations of interest; verification is the read side of that
//! story.
//!
//! [`LogStore::open`]: crate::LogStore::open

use std::collections::HashMap;
use std::path::Path;

use dlog_types::{ClientId, IntervalList, Result};

use crate::frame::Frame;
use crate::store::{ReplayState, StoreOptions};
use crate::stream::SegmentedStream;

/// The outcome of verifying one server directory.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Valid frames checked.
    pub frames: u64,
    /// Total payload bytes in valid record frames.
    pub payload_bytes: u64,
    /// Stream bytes covered by valid frames.
    pub valid_bytes: u64,
    /// Bytes past the last valid frame (torn tail, zero when clean).
    pub torn_tail_bytes: u64,
    /// Per-client interval lists, as recovery rebuilds them.
    pub clients: HashMap<ClientId, IntervalList>,
    /// Staged CopyLog records that were never installed, per client.
    pub orphan_staged: HashMap<ClientId, u64>,
    /// First structural error encountered (CRC failures simply end the
    /// scan; this reports ordering violations inside valid frames, which
    /// make [`crate::LogStore::open`] fail).
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
    let (mut state, scan_from) = ReplayState::checkpointed(dir.as_ref(), &stream);
    // Frames below the scan position are checked, not applied: the
    // checkpoint already holds what they did to the table.
    let check_from = state
        .table()
        .lowest_position()
        .filter(|&pos| pos >= stream.start())
        .map_or(scan_from, |pos| pos.min(scan_from));
    let mut report = VerifyReport::default();
    let (end, violation) = state.scan(&mut stream, check_from, scan_from, |frame| {
        report.frames += 1;
        if let Frame::Record { record, .. } = frame {
            report.payload_bytes += record.data.len() as u64;
        }
    })?;
    report.structural_error = violation;
    report.valid_bytes = end.saturating_sub(check_from);
    report.torn_tail_bytes = stream.end().saturating_sub(end);
    let table = state.table();
    report.clients = table
        .clients()
        .map(|c| (c, table.interval_list(c)))
        .collect();
    report.orphan_staged = state.staged_per_client().collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LogStore;
    use crate::NvramDevice;
    use dlog_types::{Epoch, LogRecord, Lsn};
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

    /// `dir`'s report is healthy and lists what recovery recovers.
    fn assert_verifies_as_recovered(dir: &Path, opts: &StoreOptions) {
        let report = verify_dir(dir, opts).unwrap();
        assert!(report.healthy(), "{report:?}");
        let store = LogStore::open(dir, opts.clone(), NvramDevice::new(1 << 20)).unwrap();
        let recovered: HashMap<_, _> = store
            .clients()
            .into_iter()
            .map(|c| (c, store.interval_list(c)))
            .collect();
        assert!(!recovered.is_empty());
        assert_eq!(report.clients, recovered);
    }

    #[test]
    fn retried_copy_log_verifies_as_recovered() {
        let dir = tmpdir("retried-copy");
        {
            let mut store = LogStore::open(&dir, opts(), NvramDevice::new(1 << 20)).unwrap();
            let c = ClientId(1);
            store
                .write(c, &LogRecord::present(Lsn(1), Epoch(1), vec![1u8; 10]))
                .unwrap();
            // The client's CopyLog is retried: LSN 1 is staged twice.
            for _ in 0..2 {
                store
                    .stage_copy(c, &LogRecord::present(Lsn(1), Epoch(2), vec![2u8; 10]))
                    .unwrap();
            }
            store.install_copies(c, Epoch(2)).unwrap();
            store.sync().unwrap();
        }
        assert_verifies_as_recovered(&dir, &opts());
    }

    #[test]
    fn retention_pruned_directory_verifies_as_recovered() {
        let dir = tmpdir("retention");
        let opts = StoreOptions {
            segment_bytes: 4096,
            track_bytes: 512,
            ..opts()
        };
        {
            let mut store = LogStore::open(&dir, opts.clone(), NvramDevice::new(1 << 20)).unwrap();
            for i in 1..=200u64 {
                store
                    .write(
                        ClientId(1),
                        &LogRecord::present(Lsn(i), Epoch(1), vec![i as u8; 100]),
                    )
                    .unwrap();
            }
            // The first surviving segment begins mid-frame.
            assert!(store.enforce_retention(8192).unwrap().freed > 0);
            store.sync().unwrap();
        }
        assert_verifies_as_recovered(&dir, &opts);
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
