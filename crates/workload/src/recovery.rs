//! A redo/undo recovery manager over any log.
//!
//! Transactions update the [`BankDb`] in place and log their updates
//! through the §5.2 [`SplitLogger`]; only the commit record is forced
//! (the ET1 profile of §4.1). After a crash, [`RecoveryManager::recover`]
//! rebuilds the database by scanning the log and replaying the redo
//! components of committed transactions in LSN order (deferred-update /
//! redo-winners recovery). Aborts roll back from the client-side undo
//! cache without touching the servers.

use dlog_core::split::{LogSink, SplitLogger, SplitRecord, TxnId};
use dlog_types::{DlogError, LogData, Lsn, Result};

use crate::bank::BankDb;
use crate::et1::{profile, Et1Txn, LongTxn};

/// Read access to a log, as the recovery manager needs it. Implemented
/// for the replicated log, the duplexed local log, and in-memory logs.
pub trait LogAccess: LogSink {
    /// Fetch the record at `lsn`.
    ///
    /// # Errors
    /// [`DlogError::NotPresent`] for recovery-masked LSNs,
    /// [`DlogError::NoSuchRecord`] past the end.
    fn read(&mut self, lsn: Lsn) -> Result<LogData>;

    /// LSN of the most recent record.
    ///
    /// # Errors
    /// Propagates log failures.
    fn end_of_log(&mut self) -> Result<Lsn>;
}

impl<E: dlog_net::Endpoint> LogAccess for dlog_core::ReplicatedLog<E> {
    fn read(&mut self, lsn: Lsn) -> Result<LogData> {
        dlog_core::ReplicatedLog::read(self, lsn)
    }

    fn end_of_log(&mut self) -> Result<Lsn> {
        dlog_core::ReplicatedLog::end_of_log(self)
    }
}

/// Adapter: the duplexed-disk baseline as a log (experiment E4).
pub struct DuplexAccess(pub dlog_storage::duplex::DuplexLog);

impl LogSink for DuplexAccess {
    fn write(&mut self, data: LogData) -> Result<Lsn> {
        Ok(self.0.append(data))
    }

    fn force(&mut self) -> Result<Lsn> {
        self.0.force()?;
        Ok(self.0.end_of_log())
    }
}

impl LogAccess for DuplexAccess {
    fn read(&mut self, lsn: Lsn) -> Result<LogData> {
        Ok(self.0.read(lsn)?.data)
    }

    fn end_of_log(&mut self) -> Result<Lsn> {
        Ok(self.0.end_of_log())
    }
}

/// A purely in-memory log for unit tests and simulations.
#[derive(Default, Debug)]
pub struct MemLog {
    records: Vec<LogData>,
    /// Records at or below this index are durable.
    pub forced_to: usize,
}

impl LogSink for MemLog {
    fn write(&mut self, data: LogData) -> Result<Lsn> {
        self.records.push(data);
        Ok(Lsn(self.records.len() as u64))
    }

    fn force(&mut self) -> Result<Lsn> {
        self.forced_to = self.records.len();
        Ok(Lsn(self.records.len() as u64))
    }
}

impl LogAccess for MemLog {
    fn read(&mut self, lsn: Lsn) -> Result<LogData> {
        Lsn::FIRST
            .distance(lsn)
            .and_then(|i| self.records.get(i as usize))
            .cloned()
            .ok_or(DlogError::NoSuchRecord { lsn })
    }

    fn end_of_log(&mut self) -> Result<Lsn> {
        Ok(Lsn(self.records.len() as u64))
    }
}

impl MemLog {
    /// Simulate a crash: unforced records are lost.
    pub fn crash(&mut self) {
        self.records.truncate(self.forced_to);
    }
}

/// Semantic content at the head of each redo payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    /// Account balance change.
    Account {
        /// Account id.
        id: u32,
        /// Amount.
        delta: i64,
    },
    /// Teller balance change.
    Teller {
        /// Teller id.
        id: u32,
        /// Amount.
        delta: i64,
    },
    /// Branch balance change.
    Branch {
        /// Branch id.
        id: u32,
        /// Amount.
        delta: i64,
    },
    /// History tuple insert.
    History {
        /// Account id.
        account: u32,
        /// Teller id.
        teller: u32,
        /// Branch id.
        branch: u32,
        /// Amount.
        delta: i64,
    },
    /// Bookkeeping record with no database effect (the two audit records
    /// of the ET1 profile).
    Audit,
    /// Savepoint marker in a long transaction (§2).
    Savepoint {
        /// Savepoint ordinal within the transaction.
        ordinal: u32,
    },
}

impl Update {
    /// Encode, padded with zeros to exactly `size` bytes.
    ///
    /// # Panics
    /// Panics if the semantic head exceeds `size`.
    #[must_use]
    pub fn encode_padded(&self, size: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(size);
        match self {
            Update::Account { id, delta } => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&delta.to_le_bytes());
            }
            Update::Teller { id, delta } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&delta.to_le_bytes());
            }
            Update::Branch { id, delta } => {
                out.push(3);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&delta.to_le_bytes());
            }
            Update::History {
                account,
                teller,
                branch,
                delta,
            } => {
                out.push(4);
                out.extend_from_slice(&account.to_le_bytes());
                out.extend_from_slice(&teller.to_le_bytes());
                out.extend_from_slice(&branch.to_le_bytes());
                out.extend_from_slice(&delta.to_le_bytes());
            }
            Update::Audit => out.push(5),
            Update::Savepoint { ordinal } => {
                out.push(6);
                out.extend_from_slice(&ordinal.to_le_bytes());
            }
        }
        assert!(out.len() <= size, "semantic head exceeds record size");
        out.resize(size, 0);
        out
    }

    /// Decode the semantic head of a redo payload.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Update> {
        let tag = *payload.first()?;
        let u32_at = |off: usize| -> Option<u32> {
            Some(u32::from_le_bytes(
                payload.get(off..off + 4)?.try_into().ok()?,
            ))
        };
        let i64_at = |off: usize| -> Option<i64> {
            Some(i64::from_le_bytes(
                payload.get(off..off + 8)?.try_into().ok()?,
            ))
        };
        match tag {
            1 => Some(Update::Account {
                id: u32_at(1)?,
                delta: i64_at(5)?,
            }),
            2 => Some(Update::Teller {
                id: u32_at(1)?,
                delta: i64_at(5)?,
            }),
            3 => Some(Update::Branch {
                id: u32_at(1)?,
                delta: i64_at(5)?,
            }),
            4 => Some(Update::History {
                account: u32_at(1)?,
                teller: u32_at(5)?,
                branch: u32_at(9)?,
                delta: i64_at(13)?,
            }),
            5 => Some(Update::Audit),
            6 => Some(Update::Savepoint {
                ordinal: u32_at(1)?,
            }),
            _ => None,
        }
    }
}

/// Whether log records are split (§5.2) or classic (undo travels with
/// redo in every record — the 700-byte ET1 profile).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogMode {
    /// Undo components ride in every record (baseline).
    Classic,
    /// Undo components stay in the client cache (§5.2).
    Split,
}

/// The recovery manager: runs transactions, aborts locally, recovers.
pub struct RecoveryManager<L: LogAccess> {
    logger: SplitLogger<L>,
    db: BankDb,
    mode: LogMode,
    next_txn: u64,
}

impl<L: LogAccess> RecoveryManager<L> {
    /// Wrap a log with a fresh database.
    #[must_use]
    pub fn new(log: L, db: BankDb, mode: LogMode, undo_cache_bytes: usize) -> Self {
        RecoveryManager {
            logger: SplitLogger::new(log, undo_cache_bytes),
            db,
            mode,
            next_txn: 1,
        }
    }

    /// The database.
    #[must_use]
    pub fn db(&self) -> &BankDb {
        &self.db
    }

    /// Splitting statistics (experiment E9).
    #[must_use]
    pub fn split_stats(&self) -> dlog_core::split::SplitStats {
        self.logger.stats()
    }

    /// The underlying log.
    pub fn log_mut(&mut self) -> &mut L {
        self.logger.sink_mut()
    }

    /// Run one ET1 transaction to commit: six data records then a forced
    /// commit — the §4.1 profile.
    ///
    /// # Errors
    /// Propagates log failures (the database is left applied only on
    /// success; callers treat failures as node crashes).
    pub fn run_et1(&mut self, txn: &Et1Txn) -> Result<Lsn> {
        let t = TxnId(self.next_txn);
        self.next_txn += 1;
        self.log_et1_body(t, txn)?;
        self.db.apply(txn);
        self.logger.commit(t)
    }

    /// Run an ET1 transaction but abort it: the database is unchanged and
    /// the rollback is served from the undo cache.
    ///
    /// # Errors
    /// Propagates log failures.
    pub fn run_et1_abort(&mut self, txn: &Et1Txn) -> Result<bool> {
        let t = TxnId(self.next_txn);
        self.next_txn += 1;
        self.log_et1_body(t, txn)?;
        self.db.apply(txn);
        let (_undos, fully_local) = self.logger.abort(t)?;
        self.db.unapply(txn);
        Ok(fully_local)
    }

    /// Run a long design transaction (§2) with savepoint markers.
    ///
    /// # Errors
    /// Propagates log failures.
    pub fn run_long(&mut self, long: &LongTxn) -> Result<Lsn> {
        let t = TxnId(self.next_txn);
        self.next_txn += 1;
        for (i, step) in long.steps.iter().enumerate() {
            self.log_step(t, step)?;
            self.db.apply(step);
            if (i + 1) % long.savepoint_every == 0 {
                let sp = Update::Savepoint {
                    ordinal: (i as u32 + 1),
                };
                self.logger.update(t, 0, sp.encode_padded(24), Vec::new())?;
            }
        }
        self.logger.commit(t)
    }

    /// The buffer manager cleans a page: spill its cached undo (§5.2).
    ///
    /// # Errors
    /// Propagates log failures.
    pub fn clean_page(&mut self, page: u64) -> Result<()> {
        self.logger.clean_page(page)
    }

    /// Begin an explicitly managed transaction (for callers that need
    /// mid-transaction control: savepoints, page cleaning, aborts).
    pub fn begin(&mut self) -> TxnId {
        let t = TxnId(self.next_txn);
        self.next_txn += 1;
        t
    }

    /// Perform one debit–credit step inside transaction `t`.
    ///
    /// # Errors
    /// Propagates log failures.
    pub fn step(&mut self, t: TxnId, s: &Et1Txn) -> Result<()> {
        self.log_step(t, s)?;
        self.db.apply(s);
        Ok(())
    }

    /// Log a savepoint marker inside transaction `t`.
    ///
    /// # Errors
    /// Propagates log failures.
    pub fn savepoint(&mut self, t: TxnId, ordinal: u32) -> Result<()> {
        let sp = Update::Savepoint { ordinal };
        self.logger.update(t, 0, sp.encode_padded(24), Vec::new())?;
        Ok(())
    }

    /// Roll an explicitly managed transaction back to savepoint
    /// `ordinal`: the `steps_since` performed after that savepoint are
    /// unapplied locally (undo cache), annulled in the log with a
    /// rollback record, and recovery will drop their redo components.
    ///
    /// # Errors
    /// Propagates log failures.
    pub fn rollback_to_savepoint(
        &mut self,
        t: TxnId,
        ordinal: u32,
        steps_since: &[Et1Txn],
    ) -> Result<()> {
        self.logger.rollback_to(t, ordinal)?;
        // Each step logged four update records (account/teller/branch/
        // history); release their cached undo and unapply semantically.
        let _ = self.logger.take_newest(t, steps_since.len() * 4);
        for s in steps_since.iter().rev() {
            self.db.unapply(s);
        }
        Ok(())
    }

    /// Commit an explicitly managed transaction (forces the log).
    ///
    /// # Errors
    /// Propagates log failures.
    pub fn commit_txn(&mut self, t: TxnId) -> Result<Lsn> {
        self.logger.commit(t)
    }

    /// Abort an explicitly managed transaction, rolling its `steps` back
    /// (newest first). Returns whether the abort was served entirely from
    /// the undo cache.
    ///
    /// # Errors
    /// Propagates log failures.
    pub fn abort_txn(&mut self, t: TxnId, steps: &[Et1Txn]) -> Result<bool> {
        let (_undos, fully_local) = self.logger.abort(t)?;
        for s in steps.iter().rev() {
            self.db.unapply(s);
        }
        Ok(fully_local)
    }

    fn log_et1_body(&mut self, t: TxnId, txn: &Et1Txn) -> Result<()> {
        let updates: [(Update, u64); 6] = [
            (
                Update::Account {
                    id: txn.account,
                    delta: txn.delta,
                },
                BankDb::account_page(txn.account),
            ),
            (
                Update::Teller {
                    id: txn.teller,
                    delta: txn.delta,
                },
                BankDb::teller_page(txn.teller),
            ),
            (
                Update::Branch {
                    id: txn.branch,
                    delta: txn.delta,
                },
                BankDb::branch_page(txn.branch),
            ),
            (
                Update::History {
                    account: txn.account,
                    teller: txn.teller,
                    branch: txn.branch,
                    delta: txn.delta,
                },
                0,
            ),
            (Update::Audit, 0),
            (Update::Audit, 0),
        ];
        for (i, (u, page)) in updates.iter().enumerate() {
            self.log_update(t, *u, *page, i)?;
        }
        Ok(())
    }

    fn log_step(&mut self, t: TxnId, step: &Et1Txn) -> Result<()> {
        self.log_update(
            t,
            Update::Account {
                id: step.account,
                delta: step.delta,
            },
            BankDb::account_page(step.account),
            0,
        )?;
        self.log_update(
            t,
            Update::Teller {
                id: step.teller,
                delta: step.delta,
            },
            BankDb::teller_page(step.teller),
            1,
        )?;
        self.log_update(
            t,
            Update::Branch {
                id: step.branch,
                delta: step.delta,
            },
            BankDb::branch_page(step.branch),
            2,
        )?;
        self.log_update(
            t,
            Update::History {
                account: step.account,
                teller: step.teller,
                branch: step.branch,
                delta: step.delta,
            },
            0,
            3,
        )
    }

    fn log_update(&mut self, t: TxnId, update: Update, page: u64, slot: usize) -> Result<()> {
        match self.mode {
            LogMode::Classic => {
                // Redo and undo travel together: the full profile payload.
                let payload = update.encode_padded(profile::DATA_PAYLOADS[slot]);
                self.logger.update(t, page, payload, Vec::new())?;
            }
            LogMode::Split => {
                let redo = update.encode_padded(profile::redo_bytes(slot));
                let undo = vec![0u8; profile::undo_bytes(slot)]; // before-image bytes
                self.logger.update(t, page, redo, undo)?;
            }
        }
        Ok(())
    }

    /// Rebuild a database from the log: scan every LSN, replay the redo
    /// components of committed transactions in order.
    ///
    /// # Errors
    /// Propagates log failures and corrupt records.
    pub fn recover(log: &mut L, db_template: BankDb) -> Result<BankDb> {
        let end = log.end_of_log()?;
        let mut db = db_template;
        // Per-transaction pending redo lists (savepoint markers included,
        // so partial rollbacks can rewind them).
        let mut pending: std::collections::HashMap<u64, Vec<Update>> =
            std::collections::HashMap::new();
        for l in 1..=end.0 {
            let data = match log.read(Lsn(l)) {
                Ok(d) => d,
                Err(DlogError::NotPresent { .. }) => continue, // masked by recovery
                Err(e) => return Err(e),
            };
            let Some(rec) = SplitRecord::decode(&data) else {
                return Err(DlogError::Corrupt(format!("undecodable log record at {l}")));
            };
            match rec {
                SplitRecord::Redo { txn, data, .. } => {
                    let Some(u) = Update::decode(data.as_bytes()) else {
                        return Err(DlogError::Corrupt(format!("bad redo payload at {l}")));
                    };
                    pending.entry(txn.0).or_default().push(u);
                }
                SplitRecord::Undo { .. } => {} // spilled undo: redo-pass ignores
                SplitRecord::Commit { txn } => {
                    for u in pending.remove(&txn.0).unwrap_or_default() {
                        apply_update(&mut db, &u);
                    }
                }
                SplitRecord::Abort { txn } => {
                    pending.remove(&txn.0);
                }
                SplitRecord::RollbackTo { txn, ordinal } => {
                    if let Some(list) = pending.get_mut(&txn.0) {
                        // Rewind to just after the matching savepoint
                        // marker (keep the marker so a second rollback to
                        // the same ordinal still finds it).
                        if let Some(idx) = list.iter().rposition(
                            |u| matches!(u, Update::Savepoint { ordinal: o } if *o == ordinal),
                        ) {
                            list.truncate(idx + 1);
                        } else {
                            return Err(DlogError::Corrupt(format!(
                                "rollback to unknown savepoint {ordinal} of txn {}",
                                txn.0
                            )));
                        }
                    }
                }
            }
        }
        // Uncommitted transactions are losers: dropped.
        Ok(db)
    }
}

fn apply_update(db: &mut BankDb, u: &Update) {
    match *u {
        Update::Account { id, delta } => db.credit_account(id, delta),
        Update::Teller { id, delta } => db.credit_teller(id, delta),
        Update::Branch { id, delta } => db.credit_branch(id, delta),
        Update::History {
            account,
            teller,
            branch,
            delta,
        } => {
            db.insert_history(account, teller, branch, delta);
        }
        Update::Audit | Update::Savepoint { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::et1::{Et1Config, Et1Generator, LongTxnGenerator};

    fn fresh_db() -> BankDb {
        BankDb::new(1000, 50, 5)
    }

    fn generator() -> Et1Generator {
        Et1Generator::new(Et1Config {
            accounts: 1000,
            tellers: 50,
            branches: 5,
            seed: 4,
        })
    }

    #[test]
    fn update_encode_decode() {
        for u in [
            Update::Account {
                id: 7,
                delta: -12345,
            },
            Update::Teller { id: 3, delta: 99 },
            Update::Branch { id: 1, delta: 1 },
            Update::History {
                account: 7,
                teller: 3,
                branch: 1,
                delta: -5,
            },
            Update::Audit,
            Update::Savepoint { ordinal: 4 },
        ] {
            let enc = u.encode_padded(100);
            assert_eq!(enc.len(), 100);
            assert_eq!(Update::decode(&enc), Some(u));
        }
        assert_eq!(Update::decode(&[]), None);
        assert_eq!(Update::decode(&[99, 0, 0]), None);
    }

    #[test]
    fn et1_profile_on_the_wire() {
        // One ET1 transaction in classic mode writes exactly 7 records and
        // 700 bytes, with one force — the §4.1 profile.
        let mut mgr =
            RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Classic, 1 << 20);
        let txn = generator().next_txn();
        mgr.run_et1(&txn).unwrap();
        let log = mgr.log_mut();
        let end = log.end_of_log().unwrap();
        assert_eq!(end, Lsn(7));
        let total: usize = (1..=7).map(|l| log.read(Lsn(l)).unwrap().len()).sum();
        assert_eq!(total, profile::BYTES_PER_TXN);
        assert_eq!(
            log.forced_to, 7,
            "only the commit forces, and it forces everything"
        );
    }

    #[test]
    fn split_mode_logs_less() {
        let txn = generator().next_txn();
        let mut classic =
            RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Classic, 1 << 20);
        classic.run_et1(&txn).unwrap();
        let mut split =
            RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Split, 1 << 20);
        split.run_et1(&txn).unwrap();
        let classic_bytes: usize = {
            let log = classic.log_mut();
            let end = log.end_of_log().unwrap();
            (1..=end.0).map(|l| log.read(Lsn(l)).unwrap().len()).sum()
        };
        let split_bytes: usize = {
            let log = split.log_mut();
            let end = log.end_of_log().unwrap();
            (1..=end.0).map(|l| log.read(Lsn(l)).unwrap().len()).sum()
        };
        assert!(
            split_bytes < classic_bytes,
            "split {split_bytes} must be below classic {classic_bytes}"
        );
        assert!(split.split_stats().undo_bytes_saved > 0);
    }

    #[test]
    fn recovery_replays_committed_only() {
        let mut mgr =
            RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Classic, 1 << 20);
        let mut gen = generator();
        let mut committed = Vec::new();
        for i in 0..20 {
            let txn = gen.next_txn();
            if i % 5 == 4 {
                mgr.run_et1_abort(&txn).unwrap();
            } else {
                mgr.run_et1(&txn).unwrap();
                committed.push(txn);
            }
        }
        let live_db = mgr.db().clone();
        assert!(live_db.conserved());
        assert_eq!(live_db.history_len(), committed.len());

        // Crash: unforced records vanish; then recover from the log.
        let log = mgr.log_mut();
        log.crash();
        let recovered = RecoveryManager::recover(log, fresh_db()).unwrap();
        assert_eq!(
            recovered, live_db,
            "recovered database must match the committed state"
        );
    }

    #[test]
    fn crash_mid_transaction_loses_only_it() {
        let mut mgr =
            RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Classic, 1 << 20);
        let mut gen = generator();
        let t1 = gen.next_txn();
        mgr.run_et1(&t1).unwrap();
        let committed_db = mgr.db().clone();

        // A transaction whose records are written but never committed.
        let t2 = gen.next_txn();
        let t = TxnId(999);
        mgr.log_et1_body(t, &t2).unwrap();
        mgr.db.apply(&t2);

        let log = mgr.log_mut();
        log.crash(); // commit of t1 was forced; t2's tail is unforced
        let recovered = RecoveryManager::recover(log, fresh_db()).unwrap();
        assert_eq!(recovered, committed_db);
        assert!(recovered.conserved());
    }

    #[test]
    fn abort_is_local_and_leaves_db_unchanged() {
        let mut mgr = RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Split, 1 << 20);
        let before = mgr.db().clone();
        let txn = generator().next_txn();
        let local = mgr.run_et1_abort(&txn).unwrap();
        assert!(local, "abort with a roomy cache must be local");
        assert_eq!(mgr.db(), &before);
        assert_eq!(mgr.split_stats().local_aborts, 1);
    }

    #[test]
    fn page_cleaning_spills_then_abort_is_remote() {
        let mut mgr = RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Split, 1 << 20);
        let mut gen = generator();
        let txn = gen.next_txn();
        let t = TxnId(mgr.next_txn);
        mgr.next_txn += 1;
        mgr.log_et1_body(t, &txn).unwrap();
        mgr.db.apply(&txn);
        // Clean the account page: its undo must spill.
        mgr.clean_page(BankDb::account_page(txn.account)).unwrap();
        assert!(mgr.split_stats().page_clean_spills >= 1);
        let (_, local) = mgr.logger.abort(t).unwrap();
        mgr.db.unapply(&txn);
        assert!(!local, "after a spill the abort needs the log");
    }

    #[test]
    fn long_transactions_recover() {
        let mut mgr = RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Split, 1 << 20);
        let mut gen = LongTxnGenerator::new(
            Et1Config {
                accounts: 1000,
                tellers: 50,
                branches: 5,
                seed: 8,
            },
            40,
            10,
        );
        mgr.run_long(&gen.next_txn()).unwrap();
        let live = mgr.db().clone();
        assert!(live.conserved());
        let log = mgr.log_mut();
        log.crash();
        let recovered = RecoveryManager::recover(log, fresh_db()).unwrap();
        assert!(recovered.conserved());
        assert_eq!(recovered, live);
    }
}

#[cfg(test)]
mod savepoint_tests {
    use super::*;
    use crate::et1::{Et1Config, Et1Generator};

    fn fresh_db() -> BankDb {
        BankDb::new(1000, 50, 5)
    }

    fn generator() -> Et1Generator {
        Et1Generator::new(Et1Config {
            accounts: 1000,
            tellers: 50,
            branches: 5,
            seed: 21,
        })
    }

    #[test]
    fn rollback_to_savepoint_keeps_earlier_work() {
        let mut mgr = RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Split, 1 << 20);
        let mut gen = generator();
        let t = mgr.begin();

        // Phase 1: two steps, then a savepoint.
        let kept: Vec<_> = (0..2).map(|_| gen.next_txn()).collect();
        for s in &kept {
            mgr.step(t, s).unwrap();
        }
        mgr.savepoint(t, 1).unwrap();
        let state_at_savepoint = mgr.db().clone();

        // Phase 2: three steps that get rolled back.
        let undone: Vec<_> = (0..3).map(|_| gen.next_txn()).collect();
        for s in &undone {
            mgr.step(t, s).unwrap();
        }
        mgr.rollback_to_savepoint(t, 1, &undone).unwrap();
        assert_eq!(
            mgr.db(),
            &state_at_savepoint,
            "rollback restores the savepoint state"
        );

        // Phase 3: continue and commit.
        let after: Vec<_> = (0..2).map(|_| gen.next_txn()).collect();
        for s in &after {
            mgr.step(t, s).unwrap();
        }
        mgr.commit_txn(t).unwrap();
        let live = mgr.db().clone();
        assert!(live.conserved());

        // Crash and recover: the annulled phase-2 redos must not replay.
        let log = mgr.log_mut();
        log.crash();
        let recovered = RecoveryManager::recover(log, fresh_db()).unwrap();
        assert_eq!(recovered, live);
    }

    #[test]
    fn nested_savepoints_rewind_independently() {
        let mut mgr = RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Split, 1 << 20);
        let mut gen = generator();
        let t = mgr.begin();

        let s1 = gen.next_txn();
        mgr.step(t, &s1).unwrap();
        mgr.savepoint(t, 1).unwrap();
        let s2 = gen.next_txn();
        mgr.step(t, &s2).unwrap();
        mgr.savepoint(t, 2).unwrap();
        let s3 = gen.next_txn();
        mgr.step(t, &s3).unwrap();

        // Rewind to 2 (drops s3), then to 1 (drops s2).
        mgr.rollback_to_savepoint(t, 2, std::slice::from_ref(&s3))
            .unwrap();
        mgr.rollback_to_savepoint(t, 1, std::slice::from_ref(&s2))
            .unwrap();
        mgr.commit_txn(t).unwrap();

        let live = mgr.db().clone();
        let log = mgr.log_mut();
        log.crash();
        let recovered = RecoveryManager::recover(log, fresh_db()).unwrap();
        assert_eq!(recovered, live);
        // Only s1 survived.
        assert_eq!(recovered.history_len(), 1);
    }

    #[test]
    fn rollback_then_full_abort() {
        let mut mgr = RecoveryManager::new(MemLog::default(), fresh_db(), LogMode::Split, 1 << 20);
        let before = mgr.db().clone();
        let mut gen = generator();
        let t = mgr.begin();
        let s1 = gen.next_txn();
        mgr.step(t, &s1).unwrap();
        mgr.savepoint(t, 1).unwrap();
        let s2 = gen.next_txn();
        mgr.step(t, &s2).unwrap();
        mgr.rollback_to_savepoint(t, 1, std::slice::from_ref(&s2))
            .unwrap();
        // Abort the remainder entirely.
        mgr.abort_txn(t, std::slice::from_ref(&s1)).unwrap();
        assert_eq!(mgr.db(), &before);

        let log = mgr.log_mut();
        log.force().unwrap();
        let recovered = RecoveryManager::recover(log, fresh_db()).unwrap();
        assert_eq!(recovered, before);
    }

    #[test]
    fn recovery_rejects_rollback_to_unknown_savepoint() {
        // Hand-craft a log with a rollback naming a savepoint that was
        // never written: recovery must fail loudly, not guess.
        let mut log = MemLog::default();
        use dlog_core::split::{LogSink, SplitRecord};
        let t = TxnId(1);
        LogSink::write(
            &mut log,
            SplitRecord::Redo {
                txn: t,
                page: 0,
                data: Update::Account { id: 1, delta: 5 }.encode_padded(50).into(),
            }
            .encode(),
        )
        .unwrap();
        LogSink::write(
            &mut log,
            SplitRecord::RollbackTo { txn: t, ordinal: 9 }.encode(),
        )
        .unwrap();
        LogSink::write(&mut log, SplitRecord::Commit { txn: t }.encode()).unwrap();
        LogSink::force(&mut log).unwrap();
        assert!(RecoveryManager::recover(&mut log, fresh_db()).is_err());
    }
}
