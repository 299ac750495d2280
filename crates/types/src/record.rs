//! Log sequence numbers, epochs, and log records.

use std::fmt;
use std::sync::Arc;

/// A *log sequence number*: the position of a record in a replicated log.
///
/// LSNs are increasing integers assigned by `WriteLog` (§3.1). The first
/// record of a log has LSN 1; [`Lsn::ZERO`] is a sentinel meaning "before
/// the first record" and is never assigned to a record.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// Sentinel preceding the first valid LSN.
    pub const ZERO: Lsn = Lsn(0);
    /// The LSN of the first record ever written to a log.
    pub const FIRST: Lsn = Lsn(1);
    /// Largest representable LSN.
    pub const MAX: Lsn = Lsn(u64::MAX);

    /// The next LSN in sequence.
    ///
    /// # Panics
    /// Panics on overflow (an append-only log of 2^64 records is
    /// unreachable in practice; overflow indicates a logic error).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented LSN-overflow fail-stop: an append-only log of 2^64 records is unreachable, overflow means a logic error"
    )]
    pub fn next(self) -> Lsn {
        self.offset(1).expect("LSN overflow")
    }

    /// The previous LSN, or `None` at [`Lsn::ZERO`].
    #[must_use]
    pub fn prev(self) -> Option<Lsn> {
        self.back(1)
    }

    /// The LSN `k` places after `self`, or `None` past [`Lsn::MAX`].
    #[must_use]
    pub fn offset(self, k: u64) -> Option<Lsn> {
        self.0.checked_add(k).map(Lsn)
    }

    /// The LSN `k` places before `self`, or `None` below [`Lsn::ZERO`].
    #[must_use]
    pub fn back(self, k: u64) -> Option<Lsn> {
        self.0.checked_sub(k).map(Lsn)
    }

    /// How many places `to` lies after `self`, or `None` when `to`
    /// precedes `self`.
    #[must_use]
    pub fn distance(self, to: Lsn) -> Option<u64> {
        to.0.checked_sub(self.0)
    }

    /// True if `self` immediately precedes `other`.
    #[must_use]
    pub fn precedes(self, other: Lsn) -> bool {
        self.offset(1) == Some(other)
    }

    /// Number of LSNs in the closed range `self..=other`, or 0 if
    /// `other < self`.
    #[must_use]
    pub fn span_to(self, other: Lsn) -> u64 {
        self.distance(other).map_or(0, |d| d.saturating_add(1))
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lsn({})", self.0)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Lsn {
    fn from(v: u64) -> Self {
        Lsn(v)
    }
}

/// A *crash epoch* number.
///
/// All log records written between two client restarts carry the same epoch
/// (§3.1.1). Epochs are obtained from the replicated increasing
/// unique-identifier generator of Appendix I and are strictly increasing
/// across restarts of one client, though not necessarily consecutive.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// Sentinel: smaller than every epoch a generator can issue.
    pub const ZERO: Epoch = Epoch(0);

    /// The next epoch in sequence (generators may skip values; this is a
    /// convenience for tests and in-process generators).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented epoch-overflow fail-stop: 2^64 client incarnations are unreachable, overflow means a logic error"
    )]
    pub fn next(self) -> Epoch {
        Epoch(self.0.checked_add(1).expect("epoch overflow"))
    }
}

impl fmt::Debug for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Epoch({})", self.0)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Epoch {
    fn from(v: u64) -> Self {
        Epoch(v)
    }
}

/// Unique identifier of a stored record: the `<LSN, Epoch>` pair of §3.1.1.
///
/// Two stored records with the same LSN but different epochs can coexist on
/// one server (the higher epoch wins at merge time); the pair is unique.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Position in the replicated log.
    pub lsn: Lsn,
    /// Crash epoch the record was written in.
    pub epoch: Epoch,
}

impl RecordId {
    /// Construct a record id.
    #[must_use]
    pub fn new(lsn: Lsn, epoch: Epoch) -> Self {
        RecordId { lsn, epoch }
    }
}

impl fmt::Debug for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{},{}>", self.lsn, self.epoch)
    }
}

/// Ordering for record ids follows server storage order: non-decreasing
/// LSN, ties broken by epoch. This matches the order in which a single
/// server writes records (§3.1.1: "successive records on a log server are
/// written with non-decreasing LSNs and non-decreasing epoch numbers").
impl PartialOrd for RecordId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RecordId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.lsn, self.epoch).cmp(&(other.lsn, other.epoch))
    }
}

/// Immutable, cheaply clonable log-record payload.
///
/// Log data is opaque to the logging service: "the data stored in a log
/// record depends on the precise recovery and transaction management
/// algorithms used by the client node" (§3.1). Payloads are shared between
/// the client's in-flight queue, its undo cache, and the wire encoder, so
/// they are reference counted.
///
/// A payload is a *view* into a shared buffer: `(Arc<Vec<u8>>, start,
/// len)`. The wire decoder exploits this to borrow record payloads
/// directly out of a pooled receive buffer ([`LogData::slice_of`])
/// instead of copying each record — the zero-copy receive path. The
/// buffer behind a view returns to its pool once every view on it is
/// dropped (pools reuse buffers whose `Arc` refcount is back to one).
#[derive(Clone)]
pub struct LogData {
    buf: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

/// Shared empty buffer so [`LogData::empty`] (and `Default`) never
/// allocate — not-present records are constructed on the recovery hot
/// path.
fn empty_buf() -> Arc<Vec<u8>> {
    static EMPTY: std::sync::OnceLock<Arc<Vec<u8>>> = std::sync::OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::default())))
}

impl LogData {
    /// Wrap a byte vector as log data.
    #[must_use]
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        let v = bytes.into();
        let len = v.len();
        LogData {
            buf: Arc::new(v),
            start: 0,
            len,
        }
    }

    /// Empty payload (used for records marked *not present*). Never
    /// allocates: all empty payloads share one static buffer.
    #[must_use]
    pub fn empty() -> Self {
        LogData {
            buf: empty_buf(),
            start: 0,
            len: 0,
        }
    }

    /// A zero-copy view of `buf[start..start + len]`, sharing ownership
    /// of the buffer. Returns `None` when the range is out of bounds.
    ///
    /// This is the receive path's borrow: the wire decoder hands out
    /// views into the receive buffer instead of copying each record's
    /// bytes.
    #[must_use]
    pub fn slice_of(buf: &Arc<Vec<u8>>, start: usize, len: usize) -> Option<Self> {
        let end = start.checked_add(len)?;
        if end > buf.len() {
            return None;
        }
        Some(LogData {
            buf: Arc::clone(buf),
            start,
            len,
        })
    }

    /// Another view of the same shared bytes. Semantically identical to
    /// `clone()`, but named for what it is: a refcount bump, never a
    /// byte copy or heap allocation — the form the hot-path allocation
    /// lint budget expects on ingest and response-assembly paths.
    #[must_use]
    pub fn share(&self) -> Self {
        LogData {
            buf: Arc::clone(&self.buf),
            start: self.start,
            len: self.len,
        }
    }

    /// The payload bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        // The range was validated at construction; the guarded access
        // keeps this panic-free by contract anyway.
        self.buf
            .get(self.start..self.start.saturating_add(self.len))
            .unwrap_or(&[])
    }

    /// Payload length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for LogData {
    fn default() -> Self {
        LogData::empty()
    }
}

/// Equality is over the payload *bytes*: two views of different buffers
/// with the same contents are equal (records survive re-encoding).
impl PartialEq for LogData {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for LogData {}

impl std::hash::Hash for LogData {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for LogData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogData({} bytes)", self.len)
    }
}

impl From<Vec<u8>> for LogData {
    fn from(v: Vec<u8>) -> Self {
        LogData::new(v)
    }
}

impl From<&[u8]> for LogData {
    fn from(v: &[u8]) -> Self {
        LogData::new(v.to_vec())
    }
}

impl AsRef<[u8]> for LogData {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// A log record as stored on a log server (§3.1.1).
///
/// In addition to the client-visible `(lsn, data)` pair, stored records
/// carry the crash [`Epoch`] they were written in and a **present flag**.
/// Records with `present == false` are written by the client-restart
/// recovery procedure to mask possibly-partially-written records; no data
/// need be stored for them.
#[derive(Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Position in the replicated log.
    pub lsn: Lsn,
    /// Crash epoch the record was written in.
    pub epoch: Epoch,
    /// Whether the record is *present* in the replicated log. Not-present
    /// records exist only to win merge votes against partially written
    /// records of earlier epochs.
    pub present: bool,
    /// Opaque payload (empty when `present` is false).
    pub data: LogData,
}

impl LogRecord {
    /// A present record carrying `data`.
    #[must_use]
    pub fn present(lsn: Lsn, epoch: Epoch, data: impl Into<LogData>) -> Self {
        LogRecord {
            lsn,
            epoch,
            present: true,
            data: data.into(),
        }
    }

    /// A non-allocating copy of this record: scalars are `Copy` and the
    /// payload is shared ([`LogData::share`]) rather than duplicated.
    /// Semantically identical to `clone()` — spelled differently so the
    /// hot-path allocation lint can tell the two apart.
    #[must_use]
    pub fn share(&self) -> Self {
        LogRecord {
            lsn: self.lsn,
            epoch: self.epoch,
            present: self.present,
            data: self.data.share(),
        }
    }

    /// A record marked *not present* (empty payload).
    #[must_use]
    pub fn not_present(lsn: Lsn, epoch: Epoch) -> Self {
        LogRecord {
            lsn,
            epoch,
            present: false,
            data: LogData::empty(),
        }
    }

    /// The record's unique `<LSN, Epoch>` identifier.
    #[must_use]
    pub fn id(&self) -> RecordId {
        RecordId::new(self.lsn, self.epoch)
    }
}

impl fmt::Debug for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LogRecord(<{},{}> {} {}B)",
            self.lsn,
            self.epoch,
            if self.present {
                "present"
            } else {
                "not-present"
            },
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_next_prev() {
        assert_eq!(Lsn::ZERO.next(), Lsn::FIRST);
        assert_eq!(Lsn(41).next(), Lsn(42));
        assert_eq!(Lsn(42).prev(), Some(Lsn(41)));
        assert_eq!(Lsn::ZERO.prev(), None);
    }

    #[test]
    fn lsn_precedes() {
        assert!(Lsn(1).precedes(Lsn(2)));
        assert!(!Lsn(1).precedes(Lsn(3)));
        assert!(!Lsn(2).precedes(Lsn(2)));
        assert!(!Lsn(3).precedes(Lsn(2)));
    }

    #[test]
    fn nothing_follows_lsn_max() {
        // A wrapping `+ 1` made `MAX` precede `ZERO`.
        assert!(!Lsn::MAX.precedes(Lsn::ZERO));
        assert!(!Lsn::MAX.precedes(Lsn::MAX));
        assert!(Lsn(u64::MAX - 1).precedes(Lsn::MAX));
        assert!(Lsn::ZERO.precedes(Lsn::FIRST));
    }

    #[test]
    fn lsn_offset() {
        assert_eq!(Lsn::ZERO.offset(0), Some(Lsn::ZERO));
        assert_eq!(Lsn::ZERO.offset(1), Some(Lsn::FIRST));
        assert_eq!(Lsn::FIRST.offset(41), Some(Lsn(42)));
        assert_eq!(Lsn::ZERO.offset(u64::MAX), Some(Lsn::MAX));
        assert_eq!(Lsn::FIRST.offset(u64::MAX), None);
        assert_eq!(Lsn::MAX.offset(0), Some(Lsn::MAX));
        assert_eq!(Lsn::MAX.offset(1), None);
    }

    #[test]
    fn lsn_back() {
        assert_eq!(Lsn::ZERO.back(0), Some(Lsn::ZERO));
        assert_eq!(Lsn::ZERO.back(1), None);
        assert_eq!(Lsn::FIRST.back(1), Some(Lsn::ZERO));
        assert_eq!(Lsn::FIRST.back(2), None);
        assert_eq!(Lsn::MAX.back(u64::MAX), Some(Lsn::ZERO));
        assert_eq!(Lsn::MAX.back(1), Some(Lsn(u64::MAX - 1)));
        assert_eq!(Lsn::MAX.prev(), Some(Lsn(u64::MAX - 1)));
    }

    #[test]
    fn lsn_distance() {
        assert_eq!(Lsn::ZERO.distance(Lsn::ZERO), Some(0));
        assert_eq!(Lsn::ZERO.distance(Lsn::FIRST), Some(1));
        assert_eq!(Lsn::FIRST.distance(Lsn::ZERO), None);
        assert_eq!(Lsn::ZERO.distance(Lsn::MAX), Some(u64::MAX));
        assert_eq!(Lsn::FIRST.distance(Lsn::MAX), Some(u64::MAX - 1));
        assert_eq!(Lsn::MAX.distance(Lsn::FIRST), None);
        assert_eq!(Lsn::MAX.distance(Lsn::MAX), Some(0));
    }

    #[test]
    fn lsn_span() {
        assert_eq!(Lsn(3).span_to(Lsn(5)), 3);
        assert_eq!(Lsn(5).span_to(Lsn(5)), 1);
        assert_eq!(Lsn(6).span_to(Lsn(5)), 0);
        assert_eq!(Lsn::ZERO.span_to(Lsn::ZERO), 1);
        assert_eq!(Lsn::FIRST.span_to(Lsn::MAX), u64::MAX);
        assert_eq!(Lsn::ZERO.span_to(Lsn::MAX), u64::MAX);
        assert_eq!(Lsn::MAX.span_to(Lsn::ZERO), 0);
    }

    #[test]
    #[should_panic(expected = "LSN overflow")]
    fn lsn_overflow_panics() {
        let _ = Lsn::MAX.next();
    }

    #[test]
    fn record_id_orders_by_lsn_then_epoch() {
        let a = RecordId::new(Lsn(3), Epoch(1));
        let b = RecordId::new(Lsn(3), Epoch(3));
        let c = RecordId::new(Lsn(4), Epoch(1));
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn log_data_sharing() {
        let d = LogData::from(vec![1u8, 2, 3]);
        let e = d.clone();
        assert_eq!(d.as_bytes(), e.as_bytes());
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert!(LogData::empty().is_empty());
    }

    #[test]
    fn record_constructors() {
        let r = LogRecord::present(Lsn(7), Epoch(2), vec![9u8; 100]);
        assert!(r.present);
        assert_eq!(r.data.len(), 100);
        assert_eq!(r.id(), RecordId::new(Lsn(7), Epoch(2)));

        let np = LogRecord::not_present(Lsn(8), Epoch(4));
        assert!(!np.present);
        assert!(np.data.is_empty());
    }
}
