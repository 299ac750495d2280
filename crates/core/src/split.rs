//! Log-record splitting and undo caching (§5.2).
//!
//! "Often, log records written by a recovery manager contain independent
//! redo and undo components. The redo component must be written stably to
//! the log before transaction commit. The undo component does not need to
//! be written until just before the pages referenced are written to
//! non-volatile storage. ... The volume of logged data may be reduced if
//! log records can be *split*: redo components are sent to log servers as
//! they are generated; undo components are *cached* in virtual memory at
//! client nodes."
//!
//! Cached undo components are released at commit (never logged at all),
//! spilled to the log when their page is about to be cleaned or when the
//! cache overflows, and consumed locally on abort — which both saves log
//! volume and turns aborts into local operations ("the cached log records
//! will speed up aborts and relieve disk arm movement contention on log
//! servers because log reads will go to the caches at the clients").

use std::collections::VecDeque;

use dlog_types::{LogData, Lsn, Result};

/// Transaction identifier within one client node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxnId(pub u64);

/// Anything that accepts log records; implemented by
/// [`crate::ReplicatedLog`] and by the local duplexed log baseline.
pub trait LogSink {
    /// Append a record (buffered).
    ///
    /// # Errors
    /// Propagates sink failures.
    fn write(&mut self, data: LogData) -> Result<Lsn>;

    /// Make everything appended so far durable.
    ///
    /// # Errors
    /// Propagates sink failures.
    fn force(&mut self) -> Result<Lsn>;
}

impl<E: dlog_net::Endpoint> LogSink for crate::ReplicatedLog<E> {
    fn write(&mut self, data: LogData) -> Result<Lsn> {
        crate::ReplicatedLog::write(self, data)
    }

    fn force(&mut self) -> Result<Lsn> {
        crate::ReplicatedLog::force(self)
    }
}

/// A split-record as encoded into the log stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SplitRecord {
    /// Redo component: must be durable before commit.
    Redo {
        /// Owning transaction.
        txn: TxnId,
        /// Page the update applies to.
        page: u64,
        /// After-image bytes.
        data: LogData,
    },
    /// Undo component: logged only when spilled (page cleaning or cache
    /// pressure).
    Undo {
        /// Owning transaction.
        txn: TxnId,
        /// Page the before-image restores.
        page: u64,
        /// Before-image bytes.
        data: LogData,
    },
    /// Commit record (forced).
    Commit {
        /// Committing transaction.
        txn: TxnId,
    },
    /// Abort record.
    Abort {
        /// Aborting transaction.
        txn: TxnId,
    },
    /// Partial rollback: annul the transaction's updates logged after its
    /// savepoint `ordinal` (§2's long design transactions "use frequent
    /// save points" precisely so aborts need not discard everything).
    RollbackTo {
        /// Rolling-back transaction.
        txn: TxnId,
        /// Savepoint ordinal to rewind to.
        ordinal: u32,
    },
}

impl SplitRecord {
    /// Encode to log-record payload bytes.
    #[must_use]
    pub fn encode(&self) -> LogData {
        let mut out = Vec::new();
        match self {
            SplitRecord::Redo { txn, page, data } => {
                out.push(1);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(data.as_bytes());
            }
            SplitRecord::Undo { txn, page, data } => {
                out.push(2);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(data.as_bytes());
            }
            SplitRecord::Commit { txn } => {
                out.push(3);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            SplitRecord::Abort { txn } => {
                out.push(4);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            SplitRecord::RollbackTo { txn, ordinal } => {
                out.push(5);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&ordinal.to_le_bytes());
            }
        }
        LogData::from(out)
    }

    /// Decode from payload bytes.
    #[must_use]
    pub fn decode(data: &LogData) -> Option<SplitRecord> {
        let b = data.as_bytes();
        let kind = *b.first()?;
        let txn = TxnId(u64::from_le_bytes(b.get(1..9)?.try_into().ok()?));
        match kind {
            1 | 2 => {
                let page = u64::from_le_bytes(b.get(9..17)?.try_into().ok()?);
                let payload = LogData::from(b.get(17..)?);
                Some(if kind == 1 {
                    SplitRecord::Redo {
                        txn,
                        page,
                        data: payload,
                    }
                } else {
                    SplitRecord::Undo {
                        txn,
                        page,
                        data: payload,
                    }
                })
            }
            3 => Some(SplitRecord::Commit { txn }),
            4 => Some(SplitRecord::Abort { txn }),
            5 => {
                let ordinal = u32::from_le_bytes(b.get(9..13)?.try_into().ok()?);
                Some(SplitRecord::RollbackTo { txn, ordinal })
            }
            _ => None,
        }
    }
}

/// A cached undo component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UndoEntry {
    /// Owning transaction.
    pub txn: TxnId,
    /// Page the before-image restores.
    pub page: u64,
    /// Before-image bytes.
    pub data: LogData,
}

/// Splitting statistics (experiment E9).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Redo bytes sent to the log.
    pub redo_bytes_logged: u64,
    /// Undo bytes spilled to the log (page cleaning / cache pressure).
    pub undo_bytes_logged: u64,
    /// Undo bytes released at commit without ever being logged.
    pub undo_bytes_saved: u64,
    /// Aborts satisfied entirely from the cache (no server reads).
    pub local_aborts: u64,
    /// Aborts that needed spilled undo records from the log.
    pub remote_aborts: u64,
    /// Undo entries spilled due to cache pressure.
    pub cache_spills: u64,
    /// Undo entries spilled because their page was cleaned.
    pub page_clean_spills: u64,
}

/// The splitting layer over a log sink.
pub struct SplitLogger<S: LogSink> {
    sink: S,
    cache: VecDeque<UndoEntry>,
    cache_bytes: usize,
    budget: usize,
    /// Transactions with at least one spilled undo component: their aborts
    /// need the log, not just the cache.
    spilled_txns: Vec<u64>,
    stats: SplitStats,
}

impl<S: LogSink> SplitLogger<S> {
    /// Wrap `sink` with an undo cache of `budget` bytes.
    #[must_use]
    pub fn new(sink: S, budget: usize) -> Self {
        SplitLogger {
            sink,
            cache: VecDeque::new(),
            cache_bytes: 0,
            budget,
            spilled_txns: Vec::new(),
            stats: SplitStats::default(),
        }
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> SplitStats {
        self.stats
    }

    /// Access the wrapped sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Log an update: the redo component goes to the log immediately, the
    /// undo component enters the cache.
    ///
    /// # Errors
    /// Propagates sink failures.
    pub fn update(
        &mut self,
        txn: TxnId,
        page: u64,
        redo: impl Into<LogData>,
        undo: impl Into<LogData>,
    ) -> Result<Lsn> {
        let redo = redo.into();
        let undo = undo.into();
        self.stats.redo_bytes_logged += redo.len() as u64;
        let lsn = self.sink.write(
            SplitRecord::Redo {
                txn,
                page,
                data: redo,
            }
            .encode(),
        )?;
        self.cache_bytes += undo.len();
        self.cache.push_back(UndoEntry {
            txn,
            page,
            data: undo,
        });
        while self.cache_bytes > self.budget {
            let Some(entry) = self.cache.pop_front() else {
                break;
            };
            self.spill(&entry)?;
            self.stats.cache_spills += 1;
        }
        Ok(lsn)
    }

    /// Commit: write and force the commit record, then release the
    /// transaction's cached undo components — they are never logged.
    ///
    /// # Errors
    /// Propagates sink failures.
    pub fn commit(&mut self, txn: TxnId) -> Result<Lsn> {
        self.sink.write(SplitRecord::Commit { txn }.encode())?;
        let lsn = self.sink.force()?;
        let saved: u64 = self
            .cache
            .iter()
            .filter(|e| e.txn == txn)
            .map(|e| e.data.len() as u64)
            .sum();
        self.stats.undo_bytes_saved += saved;
        self.drop_txn(txn);
        Ok(lsn)
    }

    /// Abort: return the cached undo components (newest first) for local
    /// rollback. When some components were spilled, the caller must also
    /// scan the log; the second element reports how many bytes were
    /// cached vs. the transaction's whole undo volume is unknown here, so
    /// the flag simply says whether the abort was fully local.
    ///
    /// # Errors
    /// Propagates sink failures (the abort record is written, unforced).
    pub fn abort(&mut self, txn: TxnId) -> Result<(Vec<UndoEntry>, bool)> {
        self.sink.write(SplitRecord::Abort { txn }.encode())?;
        let mut entries: Vec<UndoEntry> = self
            .cache
            .iter()
            .filter(|e| e.txn == txn)
            .cloned()
            .collect();
        entries.reverse(); // undo newest-first
        self.drop_txn(txn);
        // If every update of the txn is still cached, the abort is local.
        // We track spills per entry implicitly: a spilled entry left the
        // cache, so "fully local" means no spill ever touched this txn.
        let fully_local = !self.spilled_txns.contains(&txn.0);
        self.spilled_txns.retain(|&t| t != txn.0);
        if fully_local {
            self.stats.local_aborts += 1;
        } else {
            self.stats.remote_aborts += 1;
        }
        Ok((entries, fully_local))
    }

    /// The buffer manager is about to clean `page`: spill every cached
    /// undo component referencing it (WAL rule, §5.2).
    ///
    /// # Errors
    /// Propagates sink failures. Forces the log before returning.
    pub fn clean_page(&mut self, page: u64) -> Result<()> {
        let mut keep = VecDeque::with_capacity(self.cache.len());
        let mut spilled_any = false;
        while let Some(entry) = self.cache.pop_front() {
            if entry.page == page {
                self.spill(&entry)?;
                self.stats.page_clean_spills += 1;
                spilled_any = true;
            } else {
                keep.push_back(entry);
            }
        }
        self.cache = keep;
        self.cache_bytes = self.cache.iter().map(|e| e.data.len()).sum();
        if spilled_any {
            self.sink.force()?;
        }
        Ok(())
    }

    /// Partial rollback support: remove and return the newest `n` cached
    /// undo entries of `txn` (newest first), for local unapplication.
    /// Fewer may be returned when some entries were spilled.
    pub fn take_newest(&mut self, txn: TxnId, n: usize) -> Vec<UndoEntry> {
        let mut taken = Vec::with_capacity(n);
        let mut idx = self.cache.len();
        while idx > 0 && taken.len() < n {
            idx -= 1;
            if self.cache.get(idx).is_some_and(|e| e.txn == txn) {
                if let Some(entry) = self.cache.remove(idx) {
                    self.cache_bytes -= entry.data.len();
                    taken.push(entry);
                }
            }
        }
        taken
    }

    /// Log a partial-rollback record for `txn` back to savepoint
    /// `ordinal`.
    ///
    /// # Errors
    /// Propagates sink failures.
    pub fn rollback_to(&mut self, txn: TxnId, ordinal: u32) -> Result<Lsn> {
        self.sink
            .write(SplitRecord::RollbackTo { txn, ordinal }.encode())
    }

    fn spill(&mut self, entry: &UndoEntry) -> Result<()> {
        self.cache_bytes -= entry.data.len();
        self.stats.undo_bytes_logged += entry.data.len() as u64;
        if !self.spilled_txns.contains(&entry.txn.0) {
            self.spilled_txns.push(entry.txn.0);
        }
        self.sink.write(
            SplitRecord::Undo {
                txn: entry.txn,
                page: entry.page,
                data: entry.data.clone(),
            }
            .encode(),
        )?;
        Ok(())
    }

    fn drop_txn(&mut self, txn: TxnId) {
        let mut bytes = 0usize;
        self.cache.retain(|e| {
            if e.txn == txn {
                bytes += e.data.len();
                false
            } else {
                true
            }
        });
        self.cache_bytes -= bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlog_types::DlogError;

    /// In-memory sink for unit tests.
    #[derive(Default)]
    struct VecSink {
        records: Vec<LogData>,
        forces: u64,
    }

    impl LogSink for VecSink {
        fn write(&mut self, data: LogData) -> Result<Lsn> {
            self.records.push(data);
            Ok(Lsn(self.records.len() as u64))
        }
        fn force(&mut self) -> Result<Lsn> {
            self.forces += 1;
            if self.records.is_empty() {
                return Err(DlogError::Protocol("force of empty log".into()));
            }
            Ok(Lsn(self.records.len() as u64))
        }
    }

    fn decode_all(sink: &VecSink) -> Vec<SplitRecord> {
        sink.records
            .iter()
            .map(|d| SplitRecord::decode(d).unwrap())
            .collect()
    }

    #[test]
    fn record_roundtrip() {
        for rec in [
            SplitRecord::Redo {
                txn: TxnId(1),
                page: 7,
                data: LogData::from(vec![1, 2, 3]),
            },
            SplitRecord::Undo {
                txn: TxnId(1),
                page: 7,
                data: LogData::from(vec![4, 5]),
            },
            SplitRecord::Commit { txn: TxnId(9) },
            SplitRecord::Abort { txn: TxnId(9) },
            SplitRecord::RollbackTo {
                txn: TxnId(9),
                ordinal: 3,
            },
        ] {
            assert_eq!(SplitRecord::decode(&rec.encode()), Some(rec));
        }
        assert_eq!(SplitRecord::decode(&LogData::from(vec![99u8; 20])), None);
        assert_eq!(SplitRecord::decode(&LogData::empty()), None);
    }

    #[test]
    fn commit_saves_undo_volume() {
        let mut s = SplitLogger::new(VecSink::default(), 1 << 20);
        let t = TxnId(1);
        s.update(t, 1, vec![1u8; 100], vec![2u8; 80]).unwrap();
        s.update(t, 2, vec![1u8; 100], vec![2u8; 80]).unwrap();
        s.commit(t).unwrap();
        let stats = s.stats();
        assert_eq!(stats.redo_bytes_logged, 200);
        assert_eq!(stats.undo_bytes_logged, 0);
        assert_eq!(stats.undo_bytes_saved, 160);
        // The log holds exactly 2 redos + 1 commit; no undo ever travelled.
        let recs = decode_all(&s.sink);
        assert_eq!(recs.len(), 3);
        assert!(matches!(recs[2], SplitRecord::Commit { .. }));
        assert_eq!(s.sink.forces, 1, "commit forces once");
        assert_eq!(s.cache_bytes, 0);
    }

    #[test]
    fn abort_is_local_when_cached() {
        let mut s = SplitLogger::new(VecSink::default(), 1 << 20);
        let t = TxnId(2);
        s.update(t, 1, vec![0u8; 10], vec![11u8; 10]).unwrap();
        s.update(t, 2, vec![0u8; 10], vec![22u8; 10]).unwrap();
        let (undos, local) = s.abort(t).unwrap();
        assert!(local);
        assert_eq!(undos.len(), 2);
        // Newest first.
        assert_eq!(undos[0].page, 2);
        assert_eq!(undos[1].page, 1);
        assert_eq!(s.stats().local_aborts, 1);
        assert_eq!(s.cache_bytes, 0);
    }

    #[test]
    fn page_clean_spills_undo_and_forces() {
        let mut s = SplitLogger::new(VecSink::default(), 1 << 20);
        let t = TxnId(3);
        s.update(t, 7, vec![0u8; 10], vec![1u8; 30]).unwrap();
        s.update(t, 8, vec![0u8; 10], vec![1u8; 30]).unwrap();
        s.clean_page(7).unwrap();
        assert_eq!(s.stats().page_clean_spills, 1);
        assert_eq!(s.stats().undo_bytes_logged, 30);
        assert_eq!(s.sink.forces, 1);
        assert_eq!(s.cache_bytes, 30); // page 8's undo still cached

        // Cleaning an untouched page does nothing.
        s.clean_page(99).unwrap();
        assert_eq!(s.sink.forces, 1);
    }

    #[test]
    fn cache_pressure_spills_oldest() {
        let mut s = SplitLogger::new(VecSink::default(), 100);
        let t = TxnId(4);
        s.update(t, 1, vec![0u8; 1], vec![1u8; 60]).unwrap();
        s.update(t, 2, vec![0u8; 1], vec![1u8; 60]).unwrap(); // 120 > 100
        assert_eq!(s.stats().cache_spills, 1);
        assert_eq!(s.stats().undo_bytes_logged, 60);
        assert!(s.cache_bytes <= 100);
        // The abort is no longer fully local.
        let (_, local) = s.abort(t).unwrap();
        assert!(!local);
        assert_eq!(s.stats().remote_aborts, 1);
    }

    #[test]
    fn independent_transactions() {
        let mut s = SplitLogger::new(VecSink::default(), 1 << 20);
        s.update(TxnId(1), 1, vec![0u8; 5], vec![1u8; 50]).unwrap();
        s.update(TxnId(2), 2, vec![0u8; 5], vec![1u8; 70]).unwrap();
        s.commit(TxnId(1)).unwrap();
        assert_eq!(s.stats().undo_bytes_saved, 50);
        assert_eq!(s.cache_bytes, 70);
        let (undos, local) = s.abort(TxnId(2)).unwrap();
        assert!(local);
        assert_eq!(undos.len(), 1);
    }
}
