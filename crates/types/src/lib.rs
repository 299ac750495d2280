//! Common types for the `dlog` distributed logging system.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: log sequence numbers ([`Lsn`]), crash epochs ([`Epoch`]),
//! node identifiers, log records with *present flags* ([`LogRecord`]), and
//! the *interval lists* ([`IntervalList`]) that log servers report to
//! restarting clients.
//!
//! The terminology follows §3.1 of Daniels, Spector & Thompson,
//! *Distributed Logging for Transaction Processing* (SIGMOD 1987):
//!
//! * a **replicated log** is an append-only sequence of records identified
//!   by increasing [`Lsn`]s, used by exactly one client node;
//! * records stored on a log server additionally carry an [`Epoch`] number
//!   (non-decreasing across client restarts) and a boolean **present flag**;
//! * a record is uniquely identified by an `<LSN, Epoch>` pair
//!   ([`RecordId`]);
//! * log servers group records into consecutive sequences with equal epoch
//!   ([`Interval`]) and report them via the `IntervalList` operation.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]
#![warn(missing_docs)]

pub mod bytes;
pub mod config;
pub mod crc;
pub mod error;
pub mod ids;
pub mod interval;
pub mod lock;
pub mod namebuf;
pub mod record;

pub use config::ReplicationConfig;
pub use error::{DlogError, Result};
pub use ids::{ClientId, LogId, ServerId};
pub use interval::{Interval, IntervalList};
pub use lock::{unpoisoned, Rank, Ranked};
pub use record::{Epoch, LogData, LogRecord, Lsn, RecordId};
