//! Segment archival & restore tier for bottomless log servers (§5.3).
//!
//! The paper's space-management story assumes old log data "moves offline"
//! before its segments are reused; this crate makes that concrete. A
//! per-server [`Archiver`] watches the storage engine for sealed segments
//! (full segment files that will never be written again), uploads them to
//! an [`ObjectStore`] together with a CRC-checked [`Manifest`] describing
//! the archived prefix — the exact byte range, the per-client interval
//! table a crash at that point would recover, and any staged `CopyLog`
//! state — and reports the archived watermark back to the store so
//! retention never drops the only durable copy of a record.
//!
//! The restore path ([`restore()`]) rebuilds a wiped server directory from
//! the manifest alone: it rewrites the segment files byte-for-byte,
//! fabricates the `intervals.ckpt` checkpoint, and lets the store's normal
//! crash recovery do the rest. [`ArchiveReader`] serves individual record
//! reads and interval lists straight from the object store, so a server
//! that has pruned its local head can still answer `ReadLog` for archived
//! LSNs.
//!
//! Crash safety hinges on write ordering: segment objects first, the
//! manifest last. Manifests are immutable, generation-numbered, and fully
//! deterministic from the store state they describe, so an upload that
//! crashes half-way is simply re-run — it converges to a byte-identical
//! manifest with no duplicate or torn entries. See `docs/ARCHIVE.md`.

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

pub mod archiver;
pub mod manifest;
pub mod object_store;
pub mod restore;

pub use archiver::{ArchiveStats, Archiver, RetryPolicy};
pub use manifest::{load_latest, Manifest, SegmentEntry};
pub use object_store::{LocalDirStore, MemStore, ObjectStore};
pub use restore::{merge_interval_lists, restore, restore_from, ArchiveReader};
