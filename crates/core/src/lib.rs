//! **dlog-core** — the replicated log of Daniels, Spector & Thompson,
//! *Distributed Logging for Transaction Processing* (SIGMOD 1987).
//!
//! A [`ReplicatedLog`] is an append-only sequence of records used by a
//! *single* transaction-processing client and stored on **N of M** shared
//! log-server nodes. The replication algorithm is a specialized quorum
//! consensus (§3.1) that exploits the single-writer property:
//!
//! * `WriteLog` sends each record to N servers; consecutive records go to
//!   the same servers when possible, so servers hold long *intervals*;
//! * `ReadLog` contacts only **one** server, because all read-side voting
//!   was done once, at client restart: [`ReplicatedLog::initialize`]
//!   merges the interval lists of `M − N + 1` servers, keeping for each
//!   LSN only the entries with the highest *crash epoch*;
//! * the restart procedure makes interrupted writes atomic: the last δ
//!   records are re-copied under a fresh epoch (obtained from the
//!   Appendix I replicated identifier generator, [`epoch`]), δ records
//!   marked *not present* are appended after them, and an `InstallCopies`
//!   call publishes the rewrite atomically on each server.
//!
//! The client groups records and streams them to servers with the §4.2
//! protocol: buffered `WriteLog` messages, `ForceLog` when durability is
//! required, `NewHighLSN` acknowledgments, `MissingInterval` NAKs, and
//! server switching with `NewInterval` when a server fails or falls silent.
//!
//! Additional design elements from the paper:
//!
//! * [`split`] — §5.2 log-record splitting: redo components stream to the
//!   servers, undo components stay in a client-side cache until commit,
//!   abort, or page cleaning;
//! * [`assign`] — §5.4 load assignment strategies for picking the N
//!   target servers among the M available.

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

pub mod assign;
pub mod client;
pub mod epoch;
pub mod net;
pub mod repair;
pub mod split;

pub use client::{ClientOptions, ClientStats, ReplicatedLog};
pub use epoch::EpochGenerator;
