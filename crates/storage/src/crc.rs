//! The workspace's one CRC-32, re-exported where the storage layer's
//! callers have always found it. Frames carry it to detect torn track
//! writes: §4.1 requires tracks to be written as single large transfers,
//! and a power failure mid-transfer must be detectable at recovery.

pub use dlog_types::crc::*;
