//! Transaction workloads and a recovery manager over replicated logs.
//!
//! §2 of the paper names two client populations: multicomputer nodes
//! running short **ET1** transactions (the debit–credit benchmark of
//! "A Measure of Transaction Processing Power", a.k.a. TP1/DebitCredit),
//! and workstations running **long design transactions** with many
//! subtransactions or savepoints. §4.1 builds its whole capacity analysis
//! on the ET1 log profile: *700 bytes of log data in seven log records,
//! only the final commit record forced*.
//!
//! This crate provides:
//!
//! * [`et1`] — the ET1 transaction generator with exactly that log
//!   profile, plus a long-transaction generator for the workstation case;
//! * [`bank`] — the page-structured account/teller/branch/history
//!   database ET1 updates, with conservation invariants;
//! * [`recovery`] — a redo/undo recovery manager that runs transactions
//!   against the bank over any log ([`recovery::LogAccess`]), aborts from
//!   the §5.2 undo cache, and rebuilds the database from the log after a
//!   crash.

#![warn(missing_docs)]

pub mod bank;
pub mod et1;
pub mod recovery;

pub use bank::BankDb;
pub use et1::{Et1Config, Et1Generator, Et1Txn};
pub use recovery::{LogAccess, RecoveryManager};
