//! The **append forest** of Daniels, Spector & Thompson (SIGMOD 1987,
//! §4.3): an index over an append-only key sequence with *constant-time
//! append* and *logarithmic search*, designed so that nodes are never
//! modified after they are written — making the structure suitable for
//! write-once (optical) storage.
//!
//! A complete append forest with `2^{n+1} − 1` nodes is a single binary
//! search tree satisfying two properties:
//!
//! 1. the key of the root of any subtree is greater than all its
//!    descendants' keys;
//! 2. all keys in the right subtree of any node are greater than all keys
//!    in the left subtree.
//!
//! An incomplete forest is a sequence of complete trees of non-increasing
//! height, where only the two smallest trees may share a height. Each node
//! carries a **forest pointer** linking it to the root of the next tree to
//! its left, so every node is reachable from the most recently appended
//! node (the forest root). Appending never rewrites an existing node: when
//! the two smallest trees have equal height `h`, the new node becomes a
//! root of height `h + 1` adopting them as left and right sons; otherwise
//! the new node is a leaf.
//!
//! Three views are provided:
//!
//! * [`AppendForest`] — an in-memory arena-backed forest, generic over
//!   ordered keys;
//! * [`disk::DiskForest`] — the same structure serialized to an
//!   append-only file of immutable nodes, as a log server would keep it on
//!   write-once media;
//! * [`LsnIndex`] — the paper's intended use: nodes keyed by LSN *ranges*,
//!   each holding the storage positions of every record in its range.

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

pub mod disk;
mod forest;
mod lsn_index;

pub use forest::{AppendForest, SearchStats};
pub use lsn_index::LsnIndex;
