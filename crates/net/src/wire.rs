//! Packet wire format: the message set of Figure 4-1 plus handshake and
//! RPC envelopes, CRC-protected, hand-encoded (no external serializer — a
//! 1987 log server could afford a thousand instructions per packet, and so
//! can we).
//!
//! The hot path is zero-copy in both directions:
//!
//! * **encode**: [`Packet::encode_into`] serializes in a single pass into
//!   a caller-provided (usually pooled) buffer and patches the CRC into
//!   the header afterwards — no intermediate body buffer, no copy into a
//!   framed output. [`Packet::encoded_len`] computes the exact size by
//!   arithmetic, so callers can reserve without encoding twice.
//! * **decode**: [`Packet::decode_shared`] borrows record payloads
//!   straight out of the shared receive buffer as [`LogData`] views — a
//!   refcount bump per record instead of a heap copy per record. The
//!   plain [`Packet::decode`] (from a transient `&[u8]`) still copies.

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

/// A packet: connection header plus message. In LSN-based mode (the
/// logging stream) `conn`, `seq`, and `alloc` are zero and duplicate
/// detection rides on the LSNs themselves; in connection mode they carry
/// the Watson-protocol state (§4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Connection identifier (0 = connectionless).
    pub conn: u64,
    /// Sequence number within the connection.
    pub seq: u64,
    /// Flow-control allocation: the highest sequence number the *other*
    /// party may send without waiting.
    pub alloc: u64,
    /// Logical-log routing hint: the [`LogId`] this packet is about, or 0
    /// when the sender has none. The sharded server hashes this id to a
    /// shard at ingest *before* looking at the body; packets without a
    /// hint fall back to a body-derived key (see [`Packet::route_key`]).
    pub log: u64,
    /// The message.
    pub msg: Message,
}

impl Packet {
    /// A connectionless packet (LSN-based mode) with no routing hint.
    #[must_use]
    pub fn bare(msg: Message) -> Self {
        Packet {
            conn: 0,
            seq: 0,
            alloc: 0,
            log: 0,
            msg,
        }
    }

    /// A connectionless packet stamped with a logical-log routing hint.
    #[must_use]
    pub fn routed(log: LogId, msg: Message) -> Self {
        Packet {
            conn: 0,
            seq: 0,
            alloc: 0,
            log: log.0,
            msg,
        }
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
    /// RPCs). `None` means the packet is shard-agnostic control traffic
    /// (handshake, `Status`, `Stats`) and may be served by any shard.
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
                Request::IntervalList { client }
                | Request::ReadLogForward { client, .. }
                | Request::ReadLogBackward { client, .. }
                | Request::CopyLog { client, .. }
                | Request::InstallCopies { client, .. } => *client,
                Request::GenRead { generator } | Request::GenWrite { generator, .. } => {
                    return Some(LogId(*generator));
                }
                Request::Status | Request::Stats => return None,
            },
            _ => return None,
        };
        Some(LogId::for_client(client))
    }

    /// The LSN this packet is "about", for trace keying (`dlog-obs`
    /// `PacketSend` events): the highest LSN of a write/force batch, the
    /// acked or missing LSN, or 0 for handshake/RPC traffic.
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

/// Every message of the client/log-server interface (Figure 4-1), the
/// three-way handshake, and the RPC envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Connection request (handshake step 1).
    Syn {
        /// Sender's incarnation (restart counter), making sequence numbers
        /// permanently unique across crashes.
        incarnation: u64,
        /// Initial sequence number.
        isn: u64,
    },
    /// Connection accept (handshake step 2).
    SynAck {
        /// Responder incarnation.
        incarnation: u64,
        /// Responder initial sequence number.
        isn: u64,
        /// Acknowledges the `Syn` isn.
        ack: u64,
    },
    /// Handshake completion (step 3).
    HandshakeAck {
        /// Acknowledges the `SynAck` isn.
        ack: u64,
    },

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
        /// Stored intervals in storage order.
        intervals: IntervalList,
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
        /// Write/force messages dropped by load shedding.
        writes_shed: u64,
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
    /// Server overloaded and shedding work.
    pub const OVERLOADED: u16 = 3;
    /// Internal storage failure.
    pub const STORAGE: u16 = 4;
}

const MAGIC: u16 = 0xD10C;

// Message kind tags.
const K_SYN: u8 = 1;
const K_SYNACK: u8 = 2;
const K_HSACK: u8 = 3;
const K_WRITELOG: u8 = 4;
const K_FORCELOG: u8 = 5;
const K_NEWINTERVAL: u8 = 6;
const K_NEWHIGHLSN: u8 = 7;
const K_MISSING: u8 = 8;
const K_REQUEST: u8 = 9;
const K_RESPONSE: u8 = 10;

// Request kind tags.
const R_INTERVALS: u8 = 1;
const R_READFWD: u8 = 2;
const R_READBWD: u8 = 3;
const R_COPYLOG: u8 = 4;
const R_INSTALL: u8 = 5;
const R_GENREAD: u8 = 6;
const R_GENWRITE: u8 = 7;
const R_STATUS: u8 = 8;
const R_STATS: u8 = 9;

// Response kind tags.
const S_INTERVALS: u8 = 1;
const S_RECORDS: u8 = 2;
const S_OK: u8 = 3;
const S_ERR: u8 = 4;
const S_GENVALUE: u8 = 5;
const S_STATUS: u8 = 6;
const S_STATS: u8 = 7;

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
        put_u16(out, MAGIC);
        put_u16(out, 0); // reserved
        put_u32(out, 0); // crc placeholder, patched below
        put_u64(out, self.conn);
        put_u64(out, self.seq);
        put_u64(out, self.alloc);
        put_u64(out, self.log);
        encode_message(&self.msg, out);
        let crc = crc32(out.get(HEADER_BYTES..).unwrap_or(&[]));
        if let Some(slot) = out.get_mut(4..HEADER_BYTES) {
            slot.copy_from_slice(&crc.to_le_bytes());
        }
    }

    /// Exact encoded size in bytes, computed by arithmetic (no encoding
    /// pass): `encoded_len() == encode().len()` for every packet.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES + 32 + message_len(&self.msg)
    }

    /// Decode from a transient byte slice. Record payloads are copied out
    /// of `bytes` (the slice may be reused immediately).
    ///
    /// # Errors
    /// [`DecodeError`] on bad magic, CRC mismatch, or malformed body.
    pub fn decode(bytes: &[u8]) -> Result<Packet, DecodeError> {
        decode_frame(bytes, None)
    }

    /// Decode from a shared receive buffer. Record payloads become
    /// zero-copy [`LogData`] views into `buf` (refcount bumps, no byte
    /// copies); the buffer stays alive until every view is dropped, at
    /// which point a pool can reuse it.
    ///
    /// # Errors
    /// [`DecodeError`] on bad magic, CRC mismatch, or malformed body.
    pub fn decode_shared(buf: &Arc<Vec<u8>>) -> Result<Packet, DecodeError> {
        decode_frame(buf.as_slice(), Some(buf))
    }

    /// Read the routing hint straight out of an encoded frame: the
    /// header's `log` field, with no body decode and no CRC pass.
    /// Transports with native shard routing use this to pick a receive
    /// queue at delivery time; `None` (a zero hint, or a frame too short
    /// to carry one) means shard-agnostic. Offset: magic (2) + reserved
    /// (2) + crc (4) + conn (8) + seq (8) + alloc (8) = 32.
    #[must_use]
    pub fn peek_route_hint(bytes: &[u8]) -> Option<LogId> {
        let raw: [u8; 8] = bytes.get(32..40)?.try_into().ok()?;
        let log = u64::from_le_bytes(raw);
        (log != 0).then_some(LogId(log))
    }
}

fn decode_frame(bytes: &[u8], share: Option<&Arc<Vec<u8>>>) -> Result<Packet, DecodeError> {
    let mut r = Reader::new(bytes, share);
    if r.remaining() < HEADER_BYTES {
        return Err(DecodeError("short packet".into()));
    }
    let magic = r.u16()?;
    let reserved = r.u16()?;
    let crc = r.u32()?;
    if magic != MAGIC {
        return Err(DecodeError("bad magic".into()));
    }
    if reserved != 0 {
        return Err(DecodeError("nonzero reserved field".into()));
    }
    if crc32(bytes.get(HEADER_BYTES..).unwrap_or(&[])) != crc {
        return Err(DecodeError("crc mismatch".into()));
    }
    if r.remaining() < 32 {
        return Err(DecodeError("short header".into()));
    }
    let conn = r.u64()?;
    let seq = r.u64()?;
    let alloc = r.u64()?;
    let log = r.u64()?;
    let msg = decode_message(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError("trailing bytes".into()));
    }
    Ok(Packet {
        conn,
        seq,
        alloc,
        log,
        msg,
    })
}

// ---------------------------------------------------------------------------
// Single-pass writers: append little-endian scalars straight onto the
// output vector. With a pre-reserved buffer none of these allocate.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_data(out: &mut Vec<u8>, d: &LogData) {
    put_u32(out, d.len() as u32);
    out.extend_from_slice(d.as_bytes());
}

fn put_lsn_batch(out: &mut Vec<u8>, records: &[(Lsn, LogData)]) {
    put_u32(out, records.len() as u32);
    for (lsn, data) in records {
        put_u64(out, lsn.0);
        put_data(out, data);
    }
}

fn put_records(out: &mut Vec<u8>, records: &[LogRecord]) {
    put_u32(out, records.len() as u32);
    for rec in records {
        put_u64(out, rec.lsn.0);
        put_u64(out, rec.epoch.0);
        put_u8(out, u8::from(rec.present));
        put_data(out, &rec.data);
    }
}

fn put_intervals(out: &mut Vec<u8>, list: &IntervalList) {
    put_u32(out, list.len() as u32);
    for iv in list {
        put_u64(out, iv.epoch.0);
        put_u64(out, iv.lo.0);
        put_u64(out, iv.hi.0);
    }
}

fn encode_message(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Syn { incarnation, isn } => {
            put_u8(out, K_SYN);
            put_u64(out, *incarnation);
            put_u64(out, *isn);
        }
        Message::SynAck {
            incarnation,
            isn,
            ack,
        } => {
            put_u8(out, K_SYNACK);
            put_u64(out, *incarnation);
            put_u64(out, *isn);
            put_u64(out, *ack);
        }
        Message::HandshakeAck { ack } => {
            put_u8(out, K_HSACK);
            put_u64(out, *ack);
        }
        Message::WriteLog {
            client,
            epoch,
            records,
        } => {
            put_u8(out, K_WRITELOG);
            put_u64(out, client.0);
            put_u64(out, epoch.0);
            put_lsn_batch(out, records);
        }
        Message::ForceLog {
            client,
            epoch,
            records,
        } => {
            put_u8(out, K_FORCELOG);
            put_u64(out, client.0);
            put_u64(out, epoch.0);
            put_lsn_batch(out, records);
        }
        Message::NewInterval {
            client,
            epoch,
            starting_lsn,
        } => {
            put_u8(out, K_NEWINTERVAL);
            put_u64(out, client.0);
            put_u64(out, epoch.0);
            put_u64(out, starting_lsn.0);
        }
        Message::NewHighLsn { client, lsn } => {
            put_u8(out, K_NEWHIGHLSN);
            put_u64(out, client.0);
            put_u64(out, lsn.0);
        }
        Message::MissingInterval { client, lo, hi } => {
            put_u8(out, K_MISSING);
            put_u64(out, client.0);
            put_u64(out, lo.0);
            put_u64(out, hi.0);
        }
        Message::Request { id, body } => {
            put_u8(out, K_REQUEST);
            put_u64(out, *id);
            encode_request(body, out);
        }
        Message::Response { id, body } => {
            put_u8(out, K_RESPONSE);
            put_u64(out, *id);
            encode_response(body, out);
        }
    }
}

fn encode_request(body: &Request, out: &mut Vec<u8>) {
    match body {
        Request::IntervalList { client } => {
            put_u8(out, R_INTERVALS);
            put_u64(out, client.0);
        }
        Request::ReadLogForward {
            client,
            lsn,
            max_records,
        } => {
            put_u8(out, R_READFWD);
            put_u64(out, client.0);
            put_u64(out, lsn.0);
            put_u32(out, *max_records);
        }
        Request::ReadLogBackward {
            client,
            lsn,
            max_records,
        } => {
            put_u8(out, R_READBWD);
            put_u64(out, client.0);
            put_u64(out, lsn.0);
            put_u32(out, *max_records);
        }
        Request::CopyLog {
            client,
            epoch,
            records,
        } => {
            put_u8(out, R_COPYLOG);
            put_u64(out, client.0);
            put_u64(out, epoch.0);
            put_records(out, records);
        }
        Request::InstallCopies { client, epoch } => {
            put_u8(out, R_INSTALL);
            put_u64(out, client.0);
            put_u64(out, epoch.0);
        }
        Request::GenRead { generator } => {
            put_u8(out, R_GENREAD);
            put_u64(out, *generator);
        }
        Request::GenWrite { generator, value } => {
            put_u8(out, R_GENWRITE);
            put_u64(out, *generator);
            put_u64(out, *value);
        }
        Request::Status => put_u8(out, R_STATUS),
        Request::Stats => put_u8(out, R_STATS),
    }
}

fn encode_response(body: &Response, out: &mut Vec<u8>) {
    match body {
        Response::Intervals { intervals } => {
            put_u8(out, S_INTERVALS);
            put_intervals(out, intervals);
        }
        Response::Records { records } => {
            put_u8(out, S_RECORDS);
            put_records(out, records);
        }
        Response::Ok => put_u8(out, S_OK),
        Response::Err { code, detail } => {
            put_u8(out, S_ERR);
            put_u16(out, *code);
            put_u32(out, detail.len() as u32);
            out.extend_from_slice(detail.as_bytes());
        }
        Response::GenValue { value } => {
            put_u8(out, S_GENVALUE);
            put_u64(out, *value);
        }
        Response::Status {
            records_stored,
            duplicates_ignored,
            naks_sent,
            writes_shed,
            rpcs,
            forces_acked,
            clients,
            on_disk_bytes,
            tracks_flushed,
            archived_bytes,
            pending_upload_bytes,
            last_manifest_lsn,
            upload_retries,
            coalesced_forces,
            group_commits,
            shard,
            shards,
        } => {
            put_u8(out, S_STATUS);
            for v in [
                records_stored,
                duplicates_ignored,
                naks_sent,
                writes_shed,
                rpcs,
                forces_acked,
                clients,
                on_disk_bytes,
                tracks_flushed,
                archived_bytes,
                pending_upload_bytes,
                last_manifest_lsn,
                upload_retries,
                coalesced_forces,
                group_commits,
                shard,
                shards,
            ] {
                put_u64(out, *v);
            }
        }
        Response::Stats {
            stages,
            trace_events,
            trace_dropped,
            ingest_allocs,
            ingest_records,
            shard,
            shards,
        } => {
            put_u8(out, S_STATS);
            put_u64(out, *trace_events);
            put_u64(out, *trace_dropped);
            put_u64(out, *ingest_allocs);
            put_u64(out, *ingest_records);
            put_u64(out, *shard);
            put_u64(out, *shards);
            // At most `Stage::COUNT` (9) stages ever travel; u8 is ample.
            put_u8(out, stages.len().min(u8::MAX as usize) as u8);
            for s in stages.iter().take(u8::MAX as usize) {
                put_u8(out, s.stage);
                put_u64(out, s.count);
                put_u64(out, s.max_ns);
                put_u16(out, s.buckets.len().min(u16::MAX as usize) as u16);
                for (bucket, count) in s.buckets.iter().take(u16::MAX as usize) {
                    put_u8(out, *bucket);
                    put_u64(out, *count);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Exact length arithmetic, mirroring the writers above byte for byte.

fn data_len(d: &LogData) -> usize {
    4 + d.len()
}

fn write_batch_len(records: &[(Lsn, LogData)]) -> usize {
    4 + records
        .iter()
        .map(|(_, data)| 8 + data_len(data))
        .sum::<usize>()
}

fn records_len(records: &[LogRecord]) -> usize {
    4 + records
        .iter()
        .map(|rec| 17 + data_len(&rec.data))
        .sum::<usize>()
}

fn intervals_len(list: &IntervalList) -> usize {
    4 + 24 * list.len()
}

fn message_len(msg: &Message) -> usize {
    1 + match msg {
        Message::Syn { .. } => 16,
        Message::SynAck { .. } => 24,
        Message::HandshakeAck { .. } => 8,
        Message::WriteLog { records, .. } | Message::ForceLog { records, .. } => {
            16 + write_batch_len(records)
        }
        Message::NewInterval { .. } => 24,
        Message::NewHighLsn { .. } => 16,
        Message::MissingInterval { .. } => 24,
        Message::Request { body, .. } => 8 + request_len(body),
        Message::Response { body, .. } => 8 + response_len(body),
    }
}

fn request_len(body: &Request) -> usize {
    1 + match body {
        Request::IntervalList { .. } => 8,
        Request::ReadLogForward { .. } | Request::ReadLogBackward { .. } => 20,
        Request::CopyLog { records, .. } => 16 + records_len(records),
        Request::InstallCopies { .. } => 16,
        Request::GenRead { .. } => 8,
        Request::GenWrite { .. } => 16,
        Request::Status | Request::Stats => 0,
    }
}

fn response_len(body: &Response) -> usize {
    1 + match body {
        Response::Intervals { intervals } => intervals_len(intervals),
        Response::Records { records } => records_len(records),
        Response::Ok => 0,
        Response::Err { detail, .. } => 6 + detail.len(),
        Response::GenValue { .. } => 8,
        Response::Status { .. } => 136,
        Response::Stats { stages, .. } => {
            // Mirrors the writer's caps: at most 255 stages, 65535 buckets.
            49 + stages
                .iter()
                .take(u8::MAX as usize)
                .map(|s| 19 + 9 * s.buckets.len().min(u16::MAX as usize))
                .sum::<usize>()
        }
    }
}

// ---------------------------------------------------------------------------
// Decode: a bounds-checked cursor that can hand out zero-copy payload
// views when the underlying buffer is shared.

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When decoding from a shared receive buffer: the buffer to slice
    /// payloads out of. `buf` is always `share[..]` in that case, so
    /// `pos` doubles as the offset into the shared buffer.
    share: Option<&'a Arc<Vec<u8>>>,
}

fn truncated() -> DecodeError {
    DecodeError("truncated message".into())
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], share: Option<&'a Arc<Vec<u8>>>) -> Self {
        Reader { buf, pos: 0, share }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        let s = self.buf.get(self.pos..end).ok_or_else(truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let s = self.take(1)?;
        s.first().copied().ok_or_else(truncated)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let s = self.take(2)?;
        let arr: [u8; 2] = s.try_into().map_err(|_| truncated())?;
        Ok(u16::from_le_bytes(arr))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4)?;
        let arr: [u8; 4] = s.try_into().map_err(|_| truncated())?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8)?;
        let arr: [u8; 8] = s.try_into().map_err(|_| truncated())?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Length-prefixed payload. Zero-copy (a view into the shared buffer)
    /// when decoding with [`Packet::decode_shared`]; a copy otherwise.
    fn data(&mut self) -> Result<LogData, DecodeError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(DecodeError("short data".into()));
        }
        match self.share {
            Some(arc) => {
                let start = self.pos;
                self.take(len)?;
                LogData::slice_of(arc, start, len).ok_or_else(|| DecodeError("short data".into()))
            }
            None => Ok(LogData::from(self.take(len)?)),
        }
    }
}

fn get_lsn_batch(r: &mut Reader<'_>) -> Result<Vec<(Lsn, LogData)>, DecodeError> {
    let n = r.u32()? as usize;
    if n > MAX_PACKET_BYTES {
        return Err(DecodeError("batch count absurd".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let lsn = Lsn(r.u64()?);
        let data = r.data()?;
        out.push((lsn, data));
    }
    Ok(out)
}

fn get_records(r: &mut Reader<'_>) -> Result<Vec<LogRecord>, DecodeError> {
    let n = r.u32()? as usize;
    if n > MAX_PACKET_BYTES {
        return Err(DecodeError("record count absurd".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let lsn = Lsn(r.u64()?);
        let epoch = Epoch(r.u64()?);
        let present = r.u8()? != 0;
        let data = r.data()?;
        out.push(LogRecord {
            lsn,
            epoch,
            present,
            data,
        });
    }
    Ok(out)
}

fn get_intervals(r: &mut Reader<'_>) -> Result<IntervalList, DecodeError> {
    let n = r.u32()? as usize;
    if n > MAX_PACKET_BYTES {
        return Err(DecodeError("interval count absurd".into()));
    }
    let mut intervals = Vec::with_capacity(n);
    for _ in 0..n {
        let epoch = Epoch(r.u64()?);
        let lo = Lsn(r.u64()?);
        let hi = Lsn(r.u64()?);
        if lo > hi || lo == Lsn::ZERO {
            return Err(DecodeError("invalid interval bounds".into()));
        }
        intervals.push(Interval::new(epoch, lo, hi));
    }
    IntervalList::from_intervals(intervals).map_err(DecodeError)
}

fn decode_message(r: &mut Reader<'_>) -> Result<Message, DecodeError> {
    let kind = r.u8()?;
    match kind {
        K_SYN => Ok(Message::Syn {
            incarnation: r.u64()?,
            isn: r.u64()?,
        }),
        K_SYNACK => Ok(Message::SynAck {
            incarnation: r.u64()?,
            isn: r.u64()?,
            ack: r.u64()?,
        }),
        K_HSACK => Ok(Message::HandshakeAck { ack: r.u64()? }),
        K_WRITELOG | K_FORCELOG => {
            let client = ClientId(r.u64()?);
            let epoch = Epoch(r.u64()?);
            let records = get_lsn_batch(r)?;
            Ok(if kind == K_WRITELOG {
                Message::WriteLog {
                    client,
                    epoch,
                    records,
                }
            } else {
                Message::ForceLog {
                    client,
                    epoch,
                    records,
                }
            })
        }
        K_NEWINTERVAL => Ok(Message::NewInterval {
            client: ClientId(r.u64()?),
            epoch: Epoch(r.u64()?),
            starting_lsn: Lsn(r.u64()?),
        }),
        K_NEWHIGHLSN => Ok(Message::NewHighLsn {
            client: ClientId(r.u64()?),
            lsn: Lsn(r.u64()?),
        }),
        K_MISSING => Ok(Message::MissingInterval {
            client: ClientId(r.u64()?),
            lo: Lsn(r.u64()?),
            hi: Lsn(r.u64()?),
        }),
        K_REQUEST => {
            let id = r.u64()?;
            let body = decode_request(r)?;
            Ok(Message::Request { id, body })
        }
        K_RESPONSE => {
            let id = r.u64()?;
            let body = decode_response(r)?;
            Ok(Message::Response { id, body })
        }
        other => Err(DecodeError(format!("unknown message kind {other}"))),
    }
}

fn decode_request(r: &mut Reader<'_>) -> Result<Request, DecodeError> {
    let kind = r.u8()?;
    match kind {
        R_INTERVALS => Ok(Request::IntervalList {
            client: ClientId(r.u64()?),
        }),
        R_READFWD | R_READBWD => {
            let client = ClientId(r.u64()?);
            let lsn = Lsn(r.u64()?);
            let max_records = r.u32()?;
            Ok(if kind == R_READFWD {
                Request::ReadLogForward {
                    client,
                    lsn,
                    max_records,
                }
            } else {
                Request::ReadLogBackward {
                    client,
                    lsn,
                    max_records,
                }
            })
        }
        R_COPYLOG => {
            let client = ClientId(r.u64()?);
            let epoch = Epoch(r.u64()?);
            let records = get_records(r)?;
            Ok(Request::CopyLog {
                client,
                epoch,
                records,
            })
        }
        R_INSTALL => Ok(Request::InstallCopies {
            client: ClientId(r.u64()?),
            epoch: Epoch(r.u64()?),
        }),
        R_GENREAD => Ok(Request::GenRead {
            generator: r.u64()?,
        }),
        R_GENWRITE => Ok(Request::GenWrite {
            generator: r.u64()?,
            value: r.u64()?,
        }),
        R_STATUS => Ok(Request::Status),
        R_STATS => Ok(Request::Stats),
        other => Err(DecodeError(format!("unknown request kind {other}"))),
    }
}

fn decode_response(r: &mut Reader<'_>) -> Result<Response, DecodeError> {
    let kind = r.u8()?;
    match kind {
        S_INTERVALS => Ok(Response::Intervals {
            intervals: get_intervals(r)?,
        }),
        S_RECORDS => Ok(Response::Records {
            records: get_records(r)?,
        }),
        S_OK => Ok(Response::Ok),
        S_ERR => {
            let code = r.u16()?;
            let len = r.u32()? as usize;
            if len > r.remaining() {
                return Err(truncated());
            }
            let detail = String::from_utf8_lossy(r.take(len)?).into_owned();
            Ok(Response::Err { code, detail })
        }
        S_GENVALUE => Ok(Response::GenValue { value: r.u64()? }),
        S_STATUS => Ok(Response::Status {
            records_stored: r.u64()?,
            duplicates_ignored: r.u64()?,
            naks_sent: r.u64()?,
            writes_shed: r.u64()?,
            rpcs: r.u64()?,
            forces_acked: r.u64()?,
            clients: r.u64()?,
            on_disk_bytes: r.u64()?,
            tracks_flushed: r.u64()?,
            archived_bytes: r.u64()?,
            pending_upload_bytes: r.u64()?,
            last_manifest_lsn: r.u64()?,
            upload_retries: r.u64()?,
            coalesced_forces: r.u64()?,
            group_commits: r.u64()?,
            shard: r.u64()?,
            shards: r.u64()?,
        }),
        S_STATS => {
            let trace_events = r.u64()?;
            let trace_dropped = r.u64()?;
            let ingest_allocs = r.u64()?;
            let ingest_records = r.u64()?;
            let shard = r.u64()?;
            let shards = r.u64()?;
            let nstages = r.u8()? as usize;
            let mut stages = Vec::with_capacity(nstages.min(16));
            for _ in 0..nstages {
                let stage = r.u8()?;
                let count = r.u64()?;
                let max_ns = r.u64()?;
                let nbuckets = r.u16()? as usize;
                let mut buckets = Vec::with_capacity(nbuckets.min(64));
                for _ in 0..nbuckets {
                    buckets.push((r.u8()?, r.u64()?));
                }
                stages.push(StageStats {
                    stage,
                    count,
                    max_ns,
                    buckets,
                });
            }
            Ok(Response::Stats {
                stages,
                trace_events,
                trace_dropped,
                ingest_allocs,
                ingest_records,
                shard,
                shards,
            })
        }
        other => Err(DecodeError(format!("unknown response kind {other}"))),
    }
}

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
        let p = Packet {
            conn: 7,
            seq: 42,
            alloc: 100,
            log: 13,
            msg,
        };
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
    fn roundtrip_handshake() {
        roundtrip(Message::Syn {
            incarnation: 3,
            isn: 1000,
        });
        roundtrip(Message::SynAck {
            incarnation: 5,
            isn: 2000,
            ack: 1000,
        });
        roundtrip(Message::HandshakeAck { ack: 2000 });
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
            Response::Intervals { intervals: list },
            Response::Intervals {
                intervals: IntervalList::new(),
            },
            Response::Records {
                records: vec![LogRecord::present(Lsn(1), Epoch(1), vec![1])],
            },
            Response::Records { records: vec![] },
            Response::Ok,
            Response::Err {
                code: codes::OVERLOADED,
                detail: "busy".into(),
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
        // Hand-craft a Response::Intervals with a reversed interval: the
        // CRC is valid but the interval bounds are not.
        let good = Packet::bare(Message::Response {
            id: 1,
            body: Response::Intervals {
                intervals: IntervalList::from_intervals(vec![Interval::new(
                    Epoch(1),
                    Lsn(1),
                    Lsn(2),
                )])
                .unwrap(),
            },
        });
        let mut body = Vec::new();
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u8(&mut body, K_RESPONSE);
        put_u64(&mut body, 1);
        put_u8(&mut body, S_INTERVALS);
        put_u32(&mut body, 1);
        put_u64(&mut body, 1); // epoch
        put_u64(&mut body, 5); // lo
        put_u64(&mut body, 2); // hi < lo!
        let mut out = Vec::new();
        put_u16(&mut out, MAGIC);
        put_u16(&mut out, 0);
        put_u32(&mut out, crc32(&body));
        out.extend_from_slice(&body);
        assert!(Packet::decode(&out).is_err());
        assert!(Packet::decode(&good.encode()).is_ok());
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
        assert_eq!(
            Packet::bare(Message::Request {
                id: 1,
                body: Request::Status,
            })
            .route_key(),
            None
        );
        assert_eq!(
            Packet::bare(Message::Syn {
                incarnation: 1,
                isn: 2,
            })
            .route_key(),
            None
        );
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
}
