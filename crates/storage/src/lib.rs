//! Log-server storage engine for the `dlog` distributed logging system.
//!
//! §4.1 of the paper derives the storage design from a capacity analysis:
//! a log server handling ~170 forced writes per second cannot seek between
//! per-client files, nor wait out a disk rotation per force. The resulting
//! design, implemented here:
//!
//! * records from **all clients are interleaved** into a single
//!   sequentially written stream ([`stream`]), divided into fixed-capacity
//!   segment files so old log data can be spooled or dropped (§5.3);
//! * incoming records are buffered in **low-latency non-volatile memory**
//!   ([`nvram`]) and written to disk **a track at a time** — the battery-
//!   backed CMOS buffer of §5.1 is simulated by a device object whose
//!   contents survive a simulated crash of the store;
//! * every frame carries a CRC ([`frame`], [`crc`]) so torn track writes
//!   are detected and truncated during recovery;
//! * per-client **interval lists** are kept in volatile memory,
//!   checkpointed periodically, and rebuilt after a crash by scanning the
//!   stream tail (§4.3);
//! * per-interval **append-forest indexes** map LSNs to stream positions
//!   (kept inside [`intervals`]);
//! * `CopyLog` rewrites are staged and atomically published by an
//!   `InstallCopies` commit frame ([`store`]);
//! * a **duplexed local log** ([`duplex`]) implements the alternative the
//!   paper argues against — mirrored disks on the processing node — as the
//!   baseline for experiment E4.

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

pub mod crc;
pub mod duplex;
pub mod frame;
pub mod intervals;
pub mod nvram;
pub mod store;
pub mod stream;
pub mod verify;

pub use nvram::NvramDevice;
pub use store::{
    Durable, LogStore, ReadRun, ReplayState, RetentionReport, RunRead, StoreOptions, StoreStats,
    FRAME_READ_WINDOW,
};
