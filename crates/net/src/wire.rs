//! Packet wire format: the message set of Figure 4-1 plus the RPC
//! envelopes, CRC-protected, hand-encoded (no external serializer — a
//! 1987 log server could afford a thousand instructions per packet, and so
//! can we).
//!
//! A packet's envelope is 16 bytes: magic, a reserved word, the CRC and
//! the logical-log routing hint. It carries no connection state: duplicate
//! detection and flow control ride on the LSNs themselves (§4.2, final
//! paragraphs).
//!
//! Each message's byte layout is written once, as a row of its enum's
//! codec table (`wire_enum!` below); encode, exact length and decode are
//! all generated from that row. `docs/PROTOCOL.md` describes the same
//! layout in prose.
//!
//! The hot path is zero-copy in both directions:
//!
//! * **encode**: [`Packet::encode_into`] serializes in a single pass into
//!   a caller-provided (usually pooled) buffer and patches the CRC into
//!   the header afterwards — no intermediate body buffer, no copy into a
//!   framed output. [`Packet::encoded_len`] runs the same walk into a
//!   byte counter, so callers can reserve without encoding twice.
//! * **decode**: [`Packet::decode_shared`] borrows record payloads
//!   straight out of the shared receive buffer as [`LogData`] views — a
//!   refcount bump per record instead of a heap copy per record. The
//!   plain [`Packet::decode`] (from a transient `&[u8]`) copies the frame
//!   once and decodes that copy the same way.

use std::sync::Arc;

use dlog_types::crc::crc32;
use dlog_types::{ClientId, Epoch, Interval, IntervalList, LogData, LogId, LogRecord, Lsn};

/// Maximum encoded packet size. The client packs as many log records as
/// fit below this bound into each `WriteLog`/`ForceLog` message ("client
/// processes and log servers attempt to pack as many log records as will
/// fit in a network packet in each call", §4.2).
pub const MAX_PACKET_BYTES: usize = 8192;

/// Logical address of a node on the network (mapped to a socket address by
/// the UDP transport, to a queue by the in-memory network).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeAddr(pub u64);

impl std::fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A packet: a routing hint plus one message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Logical-log routing hint: the [`LogId`] this packet is about, or 0
    /// when the sender has none. The sharded server hashes this id to a
    /// shard at ingest *before* looking at the body; packets without a
    /// hint fall back to a body-derived key (see [`Packet::route_key`]).
    pub log: u64,
    /// The message.
    pub msg: Message,
}

impl Packet {
    /// A packet with no routing hint.
    #[must_use]
    pub fn bare(msg: Message) -> Self {
        Packet { log: 0, msg }
    }

    /// A packet stamped with a logical-log routing hint.
    #[must_use]
    pub fn routed(log: LogId, msg: Message) -> Self {
        Packet { log: log.0, msg }
    }

    /// Like [`Packet::bare`], but with the routing hint self-stamped
    /// from the body via [`Packet::route_key`] — what clients send, so
    /// a sharded server routes on the header without cracking the body.
    /// Shard-agnostic messages keep a zero hint.
    #[must_use]
    pub fn stamped(msg: Message) -> Self {
        let mut p = Packet::bare(msg);
        p.log = p.route_key().map_or(0, |l| l.0);
        p
    }

    /// The logical log this packet routes by: the header hint when the
    /// sender stamped one, otherwise a key derived from the body (the
    /// owning client for log traffic, the generator id for Appendix-I
    /// RPCs). `None` means the packet is shard-agnostic traffic
    /// (`Status`, `Stats`, RPC responses) and may be served by any shard.
    #[must_use]
    pub fn route_key(&self) -> Option<LogId> {
        if self.log != 0 {
            return Some(LogId(self.log));
        }
        let client = match &self.msg {
            Message::WriteLog { client, .. }
            | Message::ForceLog { client, .. }
            | Message::NewInterval { client, .. }
            | Message::NewHighLsn { client, .. }
            | Message::MissingInterval { client, .. } => *client,
            Message::Request { body, .. } => match body {
                Request::IntervalList { client, .. }
                | Request::ReadLogForward { client, .. }
                | Request::ReadLogBackward { client, .. }
                | Request::CopyLog { client, .. }
                | Request::InstallCopies { client, .. } => *client,
                Request::GenRead { generator } | Request::GenWrite { generator, .. } => {
                    return Some(LogId(*generator));
                }
                Request::Status | Request::Stats => return None,
            },
            Message::Response { .. } => return None,
        };
        Some(LogId::for_client(client))
    }

    /// The LSN this packet is "about", for trace keying (`dlog-obs`
    /// `PacketSend` events): the highest LSN of a write/force batch, the
    /// acked or missing LSN, or 0 for RPC traffic.
    #[must_use]
    pub fn lsn_hint(&self) -> u64 {
        match &self.msg {
            Message::WriteLog { records, .. } | Message::ForceLog { records, .. } => {
                records.last().map_or(0, |(lsn, _)| lsn.0)
            }
            Message::NewInterval { starting_lsn, .. } => starting_lsn.0,
            Message::NewHighLsn { lsn, .. } => lsn.0,
            Message::MissingInterval { lo, .. } => lo.0,
            _ => 0,
        }
    }
}

/// Every message of the client/log-server interface (Figure 4-1) and the
/// RPC envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Asynchronous buffered write of a batch of log records.
    WriteLog {
        /// Writing client.
        client: ClientId,
        /// Crash epoch of every record in the batch.
        epoch: Epoch,
        /// `(LSN, data)` pairs with consecutive LSNs.
        records: Vec<(Lsn, LogData)>,
    },
    /// Asynchronous write requiring prompt acknowledgment (`NewHighLSN`).
    ForceLog {
        /// Writing client.
        client: ClientId,
        /// Crash epoch of every record in the batch.
        epoch: Epoch,
        /// `(LSN, data)` pairs with consecutive LSNs.
        records: Vec<(Lsn, LogData)>,
    },
    /// Tells the server to abandon a missing range and start a new
    /// interval at `starting_lsn` (the records were written elsewhere).
    NewInterval {
        /// Writing client.
        client: ClientId,
        /// Epoch of the new interval.
        epoch: Epoch,
        /// First LSN of the new interval.
        starting_lsn: Lsn,
    },

    /// Server acknowledgment: all records up to `lsn` are durable.
    NewHighLsn {
        /// The client whose records are acknowledged.
        client: ClientId,
        /// Highest durable LSN.
        lsn: Lsn,
    },
    /// Server NAK: a gap was detected before `lo..=hi`; resend or declare
    /// a new interval.
    MissingInterval {
        /// The client with the gap.
        client: ClientId,
        /// First missing LSN.
        lo: Lsn,
        /// Last missing LSN.
        hi: Lsn,
    },

    /// Synchronous request.
    Request {
        /// Matches the response to the request across retries.
        id: u64,
        /// The call.
        body: Request,
    },
    /// Synchronous response.
    Response {
        /// Echoes the request id.
        id: u64,
        /// The result.
        body: Response,
    },
}

/// Bodies of the strict RPCs (client → server).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Intervals stored for the client (client initialization, §3.1.2).
    IntervalList {
        /// The restarting client.
        client: ClientId,
        /// Index of the first interval wanted: a list too long for one
        /// packet travels a page at a time.
        first: u32,
    },
    /// Records with LSN ≥ `lsn`, packed up to a packet.
    ReadLogForward {
        /// Owning client.
        client: ClientId,
        /// Starting LSN (inclusive).
        lsn: Lsn,
        /// Cap on records returned.
        max_records: u32,
    },
    /// Records with LSN ≤ `lsn`, packed up to a packet (descending).
    ReadLogBackward {
        /// Owning client.
        client: ClientId,
        /// Starting LSN (inclusive).
        lsn: Lsn,
        /// Cap on records returned.
        max_records: u32,
    },
    /// Stage recovery copies (may have LSNs below the server's high LSN).
    CopyLog {
        /// Recovering client.
        client: ClientId,
        /// The client's new epoch.
        epoch: Epoch,
        /// Full records including present flags.
        records: Vec<LogRecord>,
    },
    /// Atomically install all records staged with `epoch`.
    InstallCopies {
        /// Recovering client.
        client: ClientId,
        /// Epoch staged by preceding `CopyLog` calls.
        epoch: Epoch,
    },
    /// Read a replicated-identifier-generator state representative
    /// (Appendix I). Representatives are hosted on log-server nodes.
    GenRead {
        /// Generator identifier.
        generator: u64,
    },
    /// Write a generator state representative (Appendix I).
    GenWrite {
        /// Generator identifier.
        generator: u64,
        /// New value (must exceed the stored one to take effect).
        value: u64,
    },
    /// Operational status snapshot (observability; `dlog status`).
    Status,
    /// Per-stage latency histograms and trace counters (`dlog stats`).
    Stats,
}

/// One pipeline stage's latency summary inside [`Response::Stats`]: a
/// sparse log₂ histogram (only non-empty buckets travel) plus the raw
/// max, so clients can rebuild and merge `dlog-obs` snapshots from many
/// servers in any order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageStats {
    /// `dlog_obs::Stage` wire tag (0 = `ClientWrite` … 5 = `ArchiveTick`).
    pub stage: u8,
    /// Total observations recorded for the stage.
    pub count: u64,
    /// Largest latency sample observed, nanoseconds.
    pub max_ns: u64,
    /// Non-empty histogram buckets as `(bucket index, count)` pairs.
    pub buckets: Vec<(u8, u64)>,
}

/// RPC results (server → client).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Interval list for the requested client.
    Intervals {
        /// Stored intervals in storage order, from the requested index.
        intervals: IntervalList,
        /// More intervals follow this page.
        more: bool,
    },
    /// Records for a read call; empty when the server stores none in the
    /// requested direction.
    Records {
        /// The records, with epochs and present flags.
        records: Vec<LogRecord>,
    },
    /// Generic success (CopyLog, InstallCopies).
    Ok,
    /// Failure with a code and diagnostic.
    Err {
        /// Machine-readable code (see [`codes`]).
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
    /// Generator representative value.
    GenValue {
        /// Stored value.
        value: u64,
    },
    /// Server status snapshot.
    Status {
        /// Records stored (all clients, including staged copies).
        records_stored: u64,
        /// Duplicate records suppressed by LSN.
        duplicates_ignored: u64,
        /// `MissingInterval` NAKs sent.
        naks_sent: u64,
        /// Strict RPCs served.
        rpcs: u64,
        /// Forces acknowledged.
        forces_acked: u64,
        /// Distinct clients with stored records.
        clients: u64,
        /// Live bytes in the on-disk stream.
        on_disk_bytes: u64,
        /// Track flushes performed.
        tracks_flushed: u64,
        /// Bytes referenced by the newest archive manifest (0 when
        /// archival is not configured).
        archived_bytes: u64,
        /// Durable bytes not yet covered by an archive manifest.
        pending_upload_bytes: u64,
        /// Highest installed LSN covered by the newest manifest.
        last_manifest_lsn: u64,
        /// Failed archive put attempts (each triggered a retry).
        upload_retries: u64,
        /// `ForceLog` acks deferred into a group-commit batch.
        coalesced_forces: u64,
        /// Physical group-commit rounds flushed.
        group_commits: u64,
        /// Index of the shard that answered (0 on an unsharded server).
        shard: u64,
        /// Number of shards in the answering process (1 when unsharded).
        shards: u64,
    },
    /// Per-stage latency histograms (see [`StageStats`]) and trace-ring
    /// counters from the server's `dlog-obs` handle, plus the server's
    /// ingest allocation gauge (`dlog-alloc`). Histogram and trace fields
    /// are zero or empty when the server runs with observability off; the
    /// allocation gauge is always live.
    Stats {
        /// One summary per instrumented stage, in stage-tag order.
        stages: Vec<StageStats>,
        /// Trace events ever emitted.
        trace_events: u64,
        /// Trace events evicted from the ring.
        trace_dropped: u64,
        /// Allocations performed on the server's ingest thread while
        /// handling write/force traffic (numerator of `allocs_per_write`).
        ingest_allocs: u64,
        /// Log records ingested by write/force handling (denominator of
        /// `allocs_per_write`).
        ingest_records: u64,
        /// Index of the shard that answered (0 on an unsharded server).
        shard: u64,
        /// Number of shards in the answering process (1 when unsharded);
        /// tells a stats collector how many per-shard rows to merge.
        shards: u64,
    },
}

/// Error codes carried by [`Response::Err`].
pub mod codes {
    /// Epoch at or below the server's current one.
    pub const STALE_EPOCH: u16 = 1;
    /// Malformed or out-of-order request.
    pub const PROTOCOL: u16 = 2;
    /// Internal storage failure.
    pub const STORAGE: u16 = 4;
}

const MAGIC: u16 = 0xD10C;

/// Wire-format decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "packet decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Encoded frame header: magic (2) + reserved (2) + crc32 (4).
const HEADER_BYTES: usize = 8;

/// The envelope's `log` routing hint: the 8 bytes right behind the header.
const ROUTE_HINT: std::ops::Range<usize> = HEADER_BYTES..HEADER_BYTES + 8;

impl Packet {
    /// Encode to a fresh byte vector (with magic and CRC). Convenience
    /// wrapper over [`Packet::encode_into`] for cold paths and tests; the
    /// hot path reuses a pooled buffer instead.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Serialize into `out` in a single pass: the buffer is cleared, the
    /// header is laid down with a zero CRC placeholder, the body is
    /// written directly behind it, and the CRC is patched into the header
    /// at the end. No intermediate body buffer exists; when `out` has
    /// capacity (a pooled buffer), the call performs no allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.encoded_len());
        MAGIC.wire_write(out);
        0u16.wire_write(out); // reserved
        0u32.wire_write(out); // crc placeholder, patched below
        self.write_body(out);
        let crc = crc32(out.get(HEADER_BYTES..).unwrap_or(&[]));
        if let Some(slot) = out.get_mut(4..HEADER_BYTES) {
            slot.copy_from_slice(&crc.to_le_bytes());
        }
    }

    /// Exact encoded size in bytes: the encode walk run into a counter
    /// that adds up lengths and writes nothing, so
    /// `encoded_len() == encode().len()` for every packet by construction.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let mut len = Len(HEADER_BYTES);
        self.write_body(&mut len);
        len.0
    }

    /// Everything the CRC covers: the envelope, then the message.
    fn write_body<S: Sink>(&self, out: &mut S) {
        self.log.wire_write(out);
        self.msg.wire_write(out);
    }

    /// Decode from a transient byte slice: the bytes are copied once into
    /// a private buffer, and record payloads become views into it (the
    /// slice may be reused immediately).
    ///
    /// # Errors
    /// [`DecodeError`] on bad magic, CRC mismatch, or malformed body.
    pub fn decode(bytes: &[u8]) -> Result<Packet, DecodeError> {
        Packet::decode_shared(&Arc::new(bytes.to_vec()))
    }

    /// Decode from a shared receive buffer. Record payloads become
    /// zero-copy [`LogData`] views into `buf` (refcount bumps, no byte
    /// copies); the buffer stays alive until every view is dropped, at
    /// which point a pool can reuse it.
    ///
    /// # Errors
    /// [`DecodeError`] on bad magic, CRC mismatch, or malformed body.
    pub fn decode_shared(buf: &Arc<Vec<u8>>) -> Result<Packet, DecodeError> {
        let mut r = Reader {
            bytes: buf,
            buf,
            pos: 0,
        };
        let magic = u16::wire_read(&mut r)?;
        let reserved = u16::wire_read(&mut r)?;
        let crc = u32::wire_read(&mut r)?;
        if magic != MAGIC {
            return Err(DecodeError("bad magic".into()));
        }
        if reserved != 0 {
            return Err(DecodeError("nonzero reserved field".into()));
        }
        if crc32(buf.get(HEADER_BYTES..).unwrap_or(&[])) != crc {
            return Err(DecodeError("crc mismatch".into()));
        }
        let packet = Packet {
            log: Wire::wire_read(&mut r)?,
            msg: Wire::wire_read(&mut r)?,
        };
        if r.remaining() != 0 {
            return Err(DecodeError("trailing bytes".into()));
        }
        Ok(packet)
    }

    /// Read the routing hint straight out of an encoded frame: the
    /// header's `log` field, with no body decode and no CRC pass.
    /// Transports with native shard routing use this to pick a receive
    /// queue at delivery time; `None` (a zero hint, or a frame too short
    /// to carry one) means shard-agnostic.
    #[must_use]
    pub fn peek_route_hint(bytes: &[u8]) -> Option<LogId> {
        let raw: [u8; 8] = bytes.get(ROUTE_HINT)?.try_into().ok()?;
        let log = u64::from_le_bytes(raw);
        (log != 0).then_some(LogId(log))
    }
}

// ---------------------------------------------------------------------------
// The codec. Each field type implements `Wire` once, and each wire enum's
// layout is one table (`wire_enum!`) from which its write and its read
// are generated. Encoding and `encoded_len` are the same write walk into
// two `Sink`s (postcard's "flavors"), so the length cannot disagree with
// the bytes. The leaf codecs are `#[inline]`: without it, decoding a
// `Records` response measured ~7 % slower than the hand-written decoder.

/// Where an encode walk puts its bytes.
trait Sink {
    fn sink_bytes(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn sink_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that only adds up lengths: the walk behind `encoded_len`.
struct Len(usize);

impl Sink for Len {
    #[inline]
    fn sink_bytes(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A bounds-checked cursor over a shared receive buffer; payloads come
/// out of it as zero-copy views.
struct Reader<'a> {
    /// `buf`'s bytes, borrowed once so reads skip the `Arc` indirection.
    bytes: &'a [u8],
    buf: &'a Arc<Vec<u8>>,
    pos: usize,
}

fn truncated() -> DecodeError {
    DecodeError("truncated message".into())
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or_else(truncated)?;
        self.pos = end;
        Ok(s)
    }
}

/// One field type's wire encoding, written once for encode, length and
/// decode alike.
trait Wire: Sized {
    /// The fewest bytes any value of the type occupies on the wire. A
    /// list's count is checked against it before anything is allocated.
    const MIN_BYTES: usize;
    fn wire_write<S: Sink>(&self, out: &mut S);
    fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Little-endian fixed-width integers.
macro_rules! wire_scalar {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            #[inline]
            fn wire_write<S: Sink>(&self, out: &mut S) {
                out.sink_bytes(&self.to_le_bytes());
            }

            #[inline]
            fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let raw = r.take(Self::MIN_BYTES)?;
                raw.try_into().map(<$t>::from_le_bytes).map_err(|_| truncated())
            }
        }
    )*};
}
wire_scalar!(u8, u16, u32, u64);

/// `u64` newtypes travel as their `u64`.
macro_rules! wire_newtype {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = u64::MIN_BYTES;

            #[inline]
            fn wire_write<S: Sink>(&self, out: &mut S) {
                self.0.wire_write(out);
            }

            #[inline]
            fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                u64::wire_read(r).map($t)
            }
        }
    )*};
}
wire_newtype!(ClientId, Epoch, Lsn);

/// The `present` flag: one byte, nonzero is true.
impl Wire for bool {
    const MIN_BYTES: usize = u8::MIN_BYTES;

    fn wire_write<S: Sink>(&self, out: &mut S) {
        u8::from(*self).wire_write(out);
    }

    fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u8::wire_read(r)? != 0)
    }
}

/// A payload: u32 length, then the bytes, decoded as a view into the
/// receive buffer.
impl Wire for LogData {
    const MIN_BYTES: usize = u32::MIN_BYTES;

    #[inline]
    fn wire_write<S: Sink>(&self, out: &mut S) {
        (self.len() as u32).wire_write(out);
        out.sink_bytes(self.as_bytes());
    }

    #[inline]
    fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u32::wire_read(r)? as usize;
        let start = r.pos;
        r.take(len)?;
        LogData::slice_of(r.buf, start, len).ok_or_else(truncated)
    }
}

/// `Err`'s detail: u32 length, then the bytes (lossy UTF-8 on decode).
impl Wire for String {
    const MIN_BYTES: usize = u32::MIN_BYTES;

    fn wire_write<S: Sink>(&self, out: &mut S) {
        (self.len() as u32).wire_write(out);
        out.sink_bytes(self.as_bytes());
    }

    fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u32::wire_read(r)? as usize;
        Ok(String::from_utf8_lossy(r.take(len)?).into_owned())
    }
}

/// `(LSN, data)` batch entries and `(bucket, count)` histogram pairs.
impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    #[inline]
    fn wire_write<S: Sink>(&self, out: &mut S) {
        self.0.wire_write(out);
        self.1.wire_write(out);
    }

    #[inline]
    fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::wire_read(r)?, B::wire_read(r)?))
    }
}

impl Wire for LogRecord {
    const MIN_BYTES: usize =
        Lsn::MIN_BYTES + Epoch::MIN_BYTES + bool::MIN_BYTES + LogData::MIN_BYTES;

    fn wire_write<S: Sink>(&self, out: &mut S) {
        self.lsn.wire_write(out);
        self.epoch.wire_write(out);
        self.present.wire_write(out);
        self.data.wire_write(out);
    }

    fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(LogRecord {
            lsn: Wire::wire_read(r)?,
            epoch: Wire::wire_read(r)?,
            present: Wire::wire_read(r)?,
            data: Wire::wire_read(r)?,
        })
    }
}

impl Wire for Interval {
    const MIN_BYTES: usize = Epoch::MIN_BYTES + 2 * Lsn::MIN_BYTES;

    fn wire_write<S: Sink>(&self, out: &mut S) {
        self.epoch.wire_write(out);
        self.lo.wire_write(out);
        self.hi.wire_write(out);
    }

    fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let epoch = Epoch::wire_read(r)?;
        let lo = Lsn::wire_read(r)?;
        let hi = Lsn::wire_read(r)?;
        // `hi == Lsn::MAX` has no exclusive end for `MergedView::merge`.
        if lo > hi || lo == Lsn::ZERO || hi == Lsn::MAX {
            return Err(DecodeError("invalid interval bounds".into()));
        }
        Ok(Interval::new(epoch, lo, hi))
    }
}

impl Wire for IntervalList {
    const MIN_BYTES: usize = <Vec<Interval>>::MIN_BYTES;

    fn wire_write<S: Sink>(&self, out: &mut S) {
        write_list(self.intervals(), out);
    }

    fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        IntervalList::from_intervals(Wire::wire_read(r)?).map_err(DecodeError)
    }
}

impl Wire for StageStats {
    const MIN_BYTES: usize = u8::MIN_BYTES + 2 * u64::MIN_BYTES + <Vec<(u8, u64)>>::MIN_BYTES;

    fn wire_write<S: Sink>(&self, out: &mut S) {
        self.stage.wire_write(out);
        self.count.wire_write(out);
        self.max_ns.wire_write(out);
        self.buckets.wire_write(out);
    }

    fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(StageStats {
            stage: Wire::wire_read(r)?,
            count: Wire::wire_read(r)?,
            max_ns: Wire::wire_read(r)?,
            buckets: Wire::wire_read(r)?,
        })
    }
}

/// A list's count prefix. A longer list travels truncated to its first
/// `CAP` elements.
trait Count: Wire {
    const CAP: usize;
    /// `n` is at most `CAP`.
    fn from_len(n: usize) -> Self;
    fn to_len(self) -> usize;
}

macro_rules! count {
    ($($t:ty),*) => {$(
        impl Count for $t {
            const CAP: usize = <$t>::MAX as usize;

            fn from_len(n: usize) -> Self {
                n as $t
            }

            fn to_len(self) -> usize {
                self as usize
            }
        }
    )*};
}
count!(u8, u16, u32);

/// A type that travels in lists, and the width of its lists' count.
trait Listed: Wire {
    type Count: Count;
}

impl Listed for (Lsn, LogData) {
    type Count = u32;
}

impl Listed for LogRecord {
    type Count = u32;
}

impl Listed for Interval {
    type Count = u32;
}

// At most `Stage::COUNT` (9) stages ever travel; u8 is ample.
impl Listed for StageStats {
    type Count = u8;
}

impl Listed for (u8, u64) {
    type Count = u16;
}

fn write_list<T: Listed, S: Sink>(items: &[T], out: &mut S) {
    let n = items.len().min(T::Count::CAP);
    T::Count::from_len(n).wire_write(out);
    for item in items.iter().take(n) {
        item.wire_write(out);
    }
}

impl<T: Listed> Wire for Vec<T> {
    const MIN_BYTES: usize = T::Count::MIN_BYTES;

    fn wire_write<S: Sink>(&self, out: &mut S) {
        write_list(self, out);
    }

    /// The count is bounded by the bytes left before anything is
    /// allocated: a short frame cannot claim a large list.
    fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = T::Count::wire_read(r)?.to_len();
        let fits = n
            .checked_mul(T::MIN_BYTES)
            .is_some_and(|b| b <= r.remaining());
        if !fits {
            return Err(DecodeError("list count exceeds the bytes left".into()));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::wire_read(r)?);
        }
        Ok(out)
    }
}

/// One table per wire enum: each row is `tag => Variant { fields in wire
/// order }` (a unit variant is `Variant {}`), and the enum's write and
/// read are generated from it. A missing row leaves the write `match`
/// non-exhaustive and a duplicated tag is an unreachable read arm: both
/// fail the build. Tests see the rows themselves as `WIRE_ROWS`, which
/// is what keeps `docs/PROTOCOL.md` in step.
macro_rules! wire_enum {
    ($enum:ident { $($tag:literal => $variant:ident { $($field:ident),* }),* $(,)? }) => {
        #[cfg(test)]
        impl $enum {
            /// `(tag, variant, fields in wire order)`, one per table row.
            const WIRE_ROWS: &'static [(u8, &'static str, &'static [&'static str])] =
                &[$(($tag, stringify!($variant), &[$(stringify!($field)),*])),*];
        }

        #[deny(unreachable_patterns)]
        impl Wire for $enum {
            const MIN_BYTES: usize = u8::MIN_BYTES;

            fn wire_write<S: Sink>(&self, out: &mut S) {
                match self {
                    $($enum::$variant { $($field),* } => {
                        u8::wire_write(&$tag, out);
                        $($field.wire_write(out);)*
                    })*
                }
            }

            fn wire_read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                match u8::wire_read(r)? {
                    $($tag => Ok($enum::$variant { $($field: Wire::wire_read(r)?),* }),)*
                    other => Err(DecodeError(format!(
                        "unknown {} kind {other}",
                        stringify!($enum)
                    ))),
                }
            }
        }
    };
}

// Tags 1–3 are retired (a connection handshake no node used); the other
// tags kept their numbers, so `docs/PROTOCOL.md`'s tables did not move.
wire_enum!(Message {
    4 => WriteLog { client, epoch, records },
    5 => ForceLog { client, epoch, records },
    6 => NewInterval { client, epoch, starting_lsn },
    7 => NewHighLsn { client, lsn },
    8 => MissingInterval { client, lo, hi },
    9 => Request { id, body },
    10 => Response { id, body },
});

wire_enum!(Request {
    1 => IntervalList { client, first },
    2 => ReadLogForward { client, lsn, max_records },
    3 => ReadLogBackward { client, lsn, max_records },
    4 => CopyLog { client, epoch, records },
    5 => InstallCopies { client, epoch },
    6 => GenRead { generator },
    7 => GenWrite { generator, value },
    8 => Status {},
    9 => Stats {},
});

wire_enum!(Response {
    1 => Intervals { intervals, more },
    2 => Records { records },
    3 => Ok {},
    4 => Err { code, detail },
    5 => GenValue { value },
    6 => Status {
        records_stored, duplicates_ignored, naks_sent, rpcs, forces_acked, clients,
        on_disk_bytes, tracks_flushed, archived_bytes, pending_upload_bytes,
        last_manifest_lsn, upload_retries, coalesced_forces, group_commits, shard, shards
    },
    7 => Stats {
        trace_events, trace_dropped, ingest_allocs, ingest_records, shard, shards, stages
    },
});

/// Pack `(LSN, data)` records into batches whose encoded `WriteLog`
/// packets stay below [`MAX_PACKET_BYTES`]. Each batch holds at least one
/// record (an oversized record travels alone). Payloads are shared into
/// the batches ([`LogData::share`]) — one refcount bump per record, no
/// byte copies.
#[must_use]
pub fn pack_batches(records: &[(Lsn, LogData)]) -> Vec<Vec<(Lsn, LogData)>> {
    const HEADER_SLACK: usize = 64;
    let cost = |data: &LogData| 12 + data.len();
    // Pass 1: walk the cost model to count batch boundaries, so pass 2
    // can size every Vec exactly — 1 + batches allocations total, and
    // zero payload byte copies (records are shared into the batches).
    let mut nbatches = 0usize;
    let mut in_batch = 0usize;
    let mut bytes = HEADER_SLACK;
    for (_, data) in records {
        if in_batch > 0 && bytes + cost(data) > MAX_PACKET_BYTES {
            nbatches += 1;
            in_batch = 0;
            bytes = HEADER_SLACK;
        }
        in_batch += 1;
        bytes += cost(data);
    }
    if in_batch > 0 {
        nbatches += 1;
    }
    // Pass 2: replay the same boundaries, pushing into pre-sized Vecs.
    let mut batches: Vec<Vec<(Lsn, LogData)>> = Vec::with_capacity(nbatches);
    let mut start = 0usize;
    bytes = HEADER_SLACK;
    for (i, (_, data)) in records.iter().enumerate() {
        if i > start && bytes + cost(data) > MAX_PACKET_BYTES {
            batches.push(share_range(records, start, i));
            start = i;
            bytes = HEADER_SLACK;
        }
        bytes += cost(data);
    }
    if start < records.len() {
        batches.push(share_range(records, start, records.len()));
    }
    batches
}

/// Share `records[start..end]` into a new exactly-sized batch.
fn share_range(records: &[(Lsn, LogData)], start: usize, end: usize) -> Vec<(Lsn, LogData)> {
    let mut batch = Vec::with_capacity(end.saturating_sub(start));
    for (lsn, data) in records.get(start..end).unwrap_or(&[]) {
        batch.push((*lsn, data.share()));
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let p = Packet { log: 13, msg };
        let bytes = p.encode();
        assert_eq!(
            bytes.len(),
            p.encoded_len(),
            "encoded_len arithmetic disagrees with the writer"
        );
        let q = Packet::decode(&bytes).unwrap();
        assert_eq!(p, q);
        let shared = Arc::new(bytes);
        let s = Packet::decode_shared(&shared).unwrap();
        assert_eq!(p, s);
    }

    #[test]
    fn roundtrip_write_force() {
        let records = vec![
            (Lsn(5), LogData::from(vec![1u8; 100])),
            (Lsn(6), LogData::from(vec![2u8; 50])),
        ];
        roundtrip(Message::WriteLog {
            client: ClientId(1),
            epoch: Epoch(3),
            records: records.clone(),
        });
        roundtrip(Message::ForceLog {
            client: ClientId(1),
            epoch: Epoch(3),
            records,
        });
        roundtrip(Message::WriteLog {
            client: ClientId(1),
            epoch: Epoch(3),
            records: vec![],
        });
    }

    #[test]
    fn roundtrip_control() {
        roundtrip(Message::NewInterval {
            client: ClientId(2),
            epoch: Epoch(9),
            starting_lsn: Lsn(77),
        });
        roundtrip(Message::NewHighLsn {
            client: ClientId(2),
            lsn: Lsn(99),
        });
        roundtrip(Message::MissingInterval {
            client: ClientId(2),
            lo: Lsn(5),
            hi: Lsn(9),
        });
    }

    #[test]
    fn roundtrip_rpcs() {
        let recs = vec![
            LogRecord::present(Lsn(9), Epoch(4), vec![7u8; 30]),
            LogRecord::not_present(Lsn(10), Epoch(4)),
        ];
        for body in [
            Request::IntervalList {
                client: ClientId(3),
                first: 0,
            },
            Request::IntervalList {
                client: ClientId(3),
                first: 336,
            },
            Request::ReadLogForward {
                client: ClientId(3),
                lsn: Lsn(1),
                max_records: 16,
            },
            Request::ReadLogBackward {
                client: ClientId(3),
                lsn: Lsn(10),
                max_records: 16,
            },
            Request::CopyLog {
                client: ClientId(3),
                epoch: Epoch(4),
                records: recs,
            },
            Request::InstallCopies {
                client: ClientId(3),
                epoch: Epoch(4),
            },
            Request::GenRead { generator: 1 },
            Request::GenWrite {
                generator: 1,
                value: 12,
            },
        ] {
            roundtrip(Message::Request { id: 55, body });
        }
        let list = IntervalList::from_intervals(vec![
            Interval::new(Epoch(1), Lsn(1), Lsn(3)),
            Interval::new(Epoch(3), Lsn(3), Lsn(9)),
        ])
        .unwrap();
        for body in [
            Response::Intervals {
                intervals: list,
                more: true,
            },
            Response::Intervals {
                intervals: IntervalList::new(),
                more: false,
            },
            Response::Records {
                records: vec![LogRecord::present(Lsn(1), Epoch(1), vec![1])],
            },
            Response::Records { records: vec![] },
            Response::Ok,
            Response::Err {
                code: codes::STORAGE,
                detail: "disk full".into(),
            },
            Response::GenValue { value: 1234 },
            Response::Stats {
                stages: vec![StageStats {
                    stage: 2,
                    count: 40,
                    max_ns: 9000,
                    buckets: vec![(10, 30), (11, 10)],
                }],
                trace_events: 123,
                trace_dropped: 4,
                ingest_allocs: 77,
                ingest_records: 40,
                shard: 2,
                shards: 4,
            },
        ] {
            roundtrip(Message::Response { id: 55, body });
        }
    }

    #[test]
    fn decode_shared_borrows_payloads() {
        let payload = vec![0xAB; 256];
        let p = Packet::bare(Message::WriteLog {
            client: ClientId(1),
            epoch: Epoch(1),
            records: vec![(Lsn(1), LogData::from(payload))],
        });
        let buf = Arc::new(p.encode());
        let q = Packet::decode_shared(&buf).unwrap();
        // The decoded payload must be a view into `buf`, not a copy:
        // while it is alive the buffer is shared...
        assert!(
            Arc::strong_count(&buf) > 1,
            "payload did not share the buffer"
        );
        let Message::WriteLog { records, .. } = &q.msg else {
            panic!("wrong message kind");
        };
        let base = buf.as_ptr() as usize;
        let ptr = records[0].1.as_bytes().as_ptr() as usize;
        assert!(
            ptr >= base && ptr < base + buf.len(),
            "payload bytes live outside the receive buffer"
        );
        // ...and dropping the packet releases it for pool reuse.
        drop(q);
        assert_eq!(Arc::strong_count(&buf), 1);
    }

    #[test]
    fn corruption_rejected() {
        let p = Packet::bare(Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(5),
        });
        let mut bytes = p.encode();
        for i in 0..bytes.len() {
            if let Some(b) = bytes.get_mut(i) {
                *b ^= 0x40;
            }
            assert!(
                Packet::decode(&bytes).is_err(),
                "undetected corruption at byte {i}"
            );
            if let Some(b) = bytes.get_mut(i) {
                *b ^= 0x40;
            }
        }
        assert!(Packet::decode(bytes.get(..4).unwrap()).is_err());
        assert!(Packet::decode(&[]).is_err());
    }

    #[test]
    fn invalid_interval_list_rejected() {
        // Hand-craft a Response::Intervals with bad bounds: the CRC is
        // valid but the interval is not.
        let good = Packet::bare(Message::Response {
            id: 1,
            body: Response::Intervals {
                intervals: IntervalList::from_intervals(vec![Interval::new(
                    Epoch(1),
                    Lsn(1),
                    Lsn(2),
                )])
                .unwrap(),
                more: false,
            },
        });
        assert!(Packet::decode(&good.encode()).is_ok());
        // The frame ends with the interval's lo (1) and hi (2), then the
        // one-byte `more` flag. Raise lo
        // above hi; or raise hi to `Lsn::MAX`, which leaves
        // `MergedView::merge` no exclusive end. Then re-seal the CRC.
        for (at, word) in [(17, 5u64), (9, Lsn::MAX.0)] {
            let mut out = good.encode();
            let n = out.len();
            out[n - at..n - at + 8].copy_from_slice(&word.to_le_bytes());
            let crc = crc32(&out[HEADER_BYTES..]);
            out[4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                Packet::decode(&out),
                Err(DecodeError("invalid interval bounds".into()))
            );
        }
    }

    #[test]
    fn pack_batches_respects_packet_size() {
        let records: Vec<(Lsn, LogData)> = (1..=100u64)
            .map(|i| (Lsn(i), LogData::from(vec![0u8; 700])))
            .collect();
        let batches = pack_batches(&records);
        assert!(batches.len() > 1);
        let mut expected = 1u64;
        for batch in &batches {
            assert!(!batch.is_empty());
            let msg = Message::WriteLog {
                client: ClientId(1),
                epoch: Epoch(1),
                records: batch.clone(),
            };
            assert!(Packet::bare(msg).encoded_len() <= MAX_PACKET_BYTES);
            for (lsn, _) in batch {
                assert_eq!(lsn.0, expected);
                expected += 1;
            }
        }
        assert_eq!(expected, 101);
    }

    #[test]
    fn pack_batches_one_alloc_per_batch() {
        // Regression for the old double-copy response assembly: packing
        // must cost exactly one Vec per batch (plus the outer list) and
        // zero payload copies — payloads ride as refcount bumps.
        let records: Vec<(Lsn, LogData)> = (1..=60u64)
            .map(|i| (Lsn(i), LogData::from(vec![i as u8; 700])))
            .collect();
        let before = dlog_obs::gauge::thread_allocs();
        let batches = pack_batches(&records);
        let after = dlog_obs::gauge::thread_allocs();
        assert!(batches.len() > 1);
        assert!(
            after.wrapping_sub(before) <= 1 + batches.len() as u64,
            "pack_batches made {} allocations for {} batches",
            after.wrapping_sub(before),
            batches.len()
        );
        // And the payload bytes really are shared, not copied.
        let (_, first_src) = &records[0];
        let (_, first_packed) = &batches[0][0];
        assert_eq!(
            first_src.as_bytes().as_ptr(),
            first_packed.as_bytes().as_ptr()
        );
    }

    #[test]
    fn route_key_prefers_header_then_body() {
        let write = Message::WriteLog {
            client: ClientId(6),
            epoch: Epoch(1),
            records: vec![],
        };
        // Header hint wins.
        assert_eq!(
            Packet::routed(LogId(42), write.clone()).route_key(),
            Some(LogId(42))
        );
        // No hint: log traffic falls back to the owning client's log.
        assert_eq!(Packet::bare(write).route_key(), Some(LogId(6)));
        // Generator RPCs key by generator id.
        assert_eq!(
            Packet::bare(Message::Request {
                id: 1,
                body: Request::GenRead { generator: 9 },
            })
            .route_key(),
            Some(LogId(9))
        );
        // Control traffic is shard-agnostic.
        for body in [Request::Status, Request::Stats] {
            assert_eq!(
                Packet::bare(Message::Request { id: 1, body }).route_key(),
                None
            );
        }
    }

    #[test]
    fn an_ack_is_a_16_byte_envelope_and_17_bytes_of_message() {
        let ack = Packet::bare(Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(5),
        });
        // Header 8 + `log` 8, then kind 1 + client 8 + lsn 8.
        assert_eq!(ack.encode().len(), 33);
        assert_eq!(ack.encoded_len(), 33);
    }

    #[test]
    fn oversized_record_travels_alone() {
        let records = vec![
            (Lsn(1), LogData::from(vec![0u8; MAX_PACKET_BYTES * 2])),
            (Lsn(2), LogData::from(vec![0u8; 10])),
        ];
        let batches = pack_batches(&records);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 1);
    }

    const PROTOCOL_MD: &str = include_str!("../../../docs/PROTOCOL.md");

    /// One markdown table of `docs/PROTOCOL.md`: the heading it sits
    /// under, its header cells, and its body rows' cells, backticks
    /// trimmed.
    struct DocTable {
        heading: &'static str,
        header: Vec<&'static str>,
        rows: Vec<Vec<&'static str>>,
    }

    fn doc_tables() -> Vec<DocTable> {
        let mut tables: Vec<DocTable> = Vec::new();
        let mut heading = "";
        let mut in_table = false;
        for line in PROTOCOL_MD.lines() {
            let Some(row) = line.strip_prefix('|') else {
                if line.starts_with('#') {
                    heading = line.trim_start_matches('#').trim();
                }
                in_table = false;
                continue;
            };
            let cells: Vec<&str> = row
                .trim_end()
                .trim_end_matches('|')
                .split('|')
                .map(|c| c.trim().trim_matches('`'))
                .collect();
            if !in_table {
                tables.push(DocTable {
                    heading,
                    header: cells,
                    rows: Vec::new(),
                });
                in_table = true;
            } else if !cells[0].starts_with('-') {
                tables.last_mut().unwrap().rows.push(cells);
            }
        }
        tables
    }

    /// `docs/PROTOCOL.md` describes the codec tables exactly: each tag
    /// table lists its enum's variants with their tags, in tag order, and
    /// the Status and Stats tables list those variants' fields in wire
    /// order.
    #[test]
    fn protocol_doc_matches_the_codec_tables() {
        let tables = doc_tables();
        // Every body row of the tables whose second column is `kind`.
        let documented = |kind: &str| -> Vec<(u8, &'static str)> {
            let rows = tables.iter().filter(|t| t.header.get(1) == Some(&kind));
            rows.flat_map(|t| &t.rows)
                .map(|r| (r[0].parse().expect("numeric tag"), r[1]))
                .collect()
        };
        let tags = |rows: &[(u8, &'static str, &[&str])]| -> Vec<(u8, &'static str)> {
            rows.iter().map(|&(tag, name, _)| (tag, name)).collect()
        };

        // The two RPC envelopes are described in prose, not in a table.
        let (envelopes, logging): (Vec<_>, Vec<_>) = tags(Message::WIRE_ROWS)
            .into_iter()
            .partition(|(_, name)| matches!(*name, "Request" | "Response"));
        assert_eq!(documented("message"), logging, "Message tag tables");
        for (tag, name) in envelopes {
            let prose = format!("`{name}` (tag {tag}:");
            assert!(
                PROTOCOL_MD.contains(&prose),
                "no \"{prose}\" in PROTOCOL.md"
            );
        }
        assert_eq!(documented("request"), tags(Request::WIRE_ROWS));
        assert_eq!(documented("response"), tags(Response::WIRE_ROWS));

        for (variant, heading) in [("Status", "Status gauges"), ("Stats", "Stats fields")] {
            let (_, _, fields) = Response::WIRE_ROWS
                .iter()
                .find(|(_, name, _)| *name == variant)
                .unwrap();
            let table = tables.iter().find(|t| t.heading == heading).unwrap();
            let names: Vec<&str> = table.rows.iter().map(|r| r[0]).collect();
            assert_eq!(names, *fields, "the `{heading}` table, in wire order");
        }
    }
}
