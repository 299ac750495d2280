//! Frame encoding for the on-disk log stream.
//!
//! The stream interleaves records from many clients (§4.1), so every frame
//! is self-describing: a length, a CRC-32 over the frame body, a kind tag,
//! and a kind-specific body. Recovery scans frames sequentially and stops
//! at the first frame whose length or CRC is invalid — everything after a
//! torn track write is discarded.

use std::sync::Arc;

use dlog_types::bytes::{slice_at, u32_le_at, u64_le_at, u8_at};
use dlog_types::{ClientId, DlogError, Epoch, LogData, LogRecord, Lsn, Result};

use crate::crc::{crc32, crc32_each};

/// Upper bound on a single frame body; protects recovery scans from
/// reading absurd lengths out of corrupt headers.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Byte overhead of the frame envelope (`len` + `crc`).
pub const ENVELOPE_BYTES: usize = 8;

const KIND_RECORD: u8 = 1;
const KIND_INSTALL: u8 = 2;
// Kind 3 is retired (older streams may hold it): it decodes as unknown.

const FLAG_PRESENT: u8 = 0b01;
const FLAG_STAGED: u8 = 0b10;

/// Where a record frame's payload starts in its body: after the kind,
/// client, LSN, epoch, flags and payload length.
const RECORD_DATA_AT: usize = 1 + 8 + 8 + 8 + 1 + 4;

/// A frame in the log stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A log record stored for `client`. `staged` marks `CopyLog` rewrites
    /// that only take effect once an [`Frame::Install`] frame with the same
    /// epoch is seen (§4.2).
    Record {
        /// Owning client node.
        client: ClientId,
        /// The stored record.
        record: LogRecord,
        /// True for CopyLog frames awaiting InstallCopies.
        staged: bool,
    },
    /// Commit marker for all staged records `client` wrote with `epoch`.
    Install {
        /// Owning client node.
        client: ClientId,
        /// Epoch whose staged records become visible.
        epoch: Epoch,
    },
}

impl Frame {
    /// Serialize the frame (envelope included) onto `out`, returning the
    /// encoded length.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        match self {
            Frame::Record {
                client,
                record,
                staged,
            } => Self::encode_record_into(
                out,
                *client,
                record.lsn,
                record.epoch,
                Self::record_flags(record.present, *staged),
                record.data.as_bytes(),
            ),
            Frame::Install { client, epoch } => {
                let start = open_envelope(out);
                out.push(KIND_INSTALL);
                out.extend_from_slice(&client.0.to_le_bytes());
                out.extend_from_slice(&epoch.0.to_le_bytes());
                close_envelope(out, start)
            }
        }
    }

    /// The flags byte of a record frame.
    pub(crate) fn record_flags(present: bool, staged: bool) -> u8 {
        (if present { FLAG_PRESENT } else { 0 }) | (if staged { FLAG_STAGED } else { 0 })
    }

    /// Serialize a [`Frame::Record`] from its parts onto `out`, returning
    /// the encoded length.
    fn encode_record_into(
        out: &mut Vec<u8>,
        client: ClientId,
        lsn: Lsn,
        epoch: Epoch,
        flags: u8,
        data: &[u8],
    ) -> usize {
        let start = Self::open_record_into(out, client, lsn, epoch, flags, data);
        close_envelope(out, start)
    }

    /// Serialize a [`Frame::Record`] from its parts onto `out` with its
    /// envelope still open, returning where the frame starts: how the
    /// store frames a message's records without building a `Frame` (and
    /// bumping a payload refcount) per record, before [`close_envelopes`]
    /// seals them together.
    pub(crate) fn open_record_into(
        out: &mut Vec<u8>,
        client: ClientId,
        lsn: Lsn,
        epoch: Epoch,
        flags: u8,
        data: &[u8],
    ) -> usize {
        let start = open_envelope(out);
        out.push(KIND_RECORD);
        out.extend_from_slice(&client.0.to_le_bytes());
        out.extend_from_slice(&lsn.0.to_le_bytes());
        out.extend_from_slice(&epoch.0.to_le_bytes());
        out.push(flags);
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
        start
    }

    /// Serialized size of a record frame carrying `data_len` payload
    /// bytes, envelope included.
    #[must_use]
    pub const fn record_len(data_len: usize) -> usize {
        ENVELOPE_BYTES + RECORD_DATA_AT + data_len
    }

    /// Serialized size of the frame, envelope included.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        match self {
            Frame::Record { record, .. } => Self::record_len(record.data.len()),
            Frame::Install { .. } => ENVELOPE_BYTES + 1 + 8 + 8,
        }
    }

    /// Decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` does not begin with a complete, valid
    /// frame — recovery treats that as the end of the usable stream.
    ///
    /// # Errors
    /// Returns [`DlogError::Corrupt`] only for *structurally impossible*
    /// content within a CRC-valid frame (which indicates a software bug or
    /// deliberate tampering rather than a torn write).
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>> {
        let Some(body) = checked_body(buf) else {
            return Ok(None);
        };
        let frame = Self::decode_body(body)?;
        Ok(Some((frame, ENVELOPE_BYTES + body.len())))
    }

    /// Decode the record frame that starts `at` bytes into `buf`, under
    /// every check [`Frame::decode`] makes, with its payload a view of
    /// `buf` ([`LogData::slice_of`]) rather than a copy: the store's read
    /// path. Returns the owning client and the record.
    ///
    /// # Errors
    /// [`DlogError::Corrupt`] when no valid frame starts at `at`, or the
    /// frame there is not a record.
    pub(crate) fn decode_record_view(
        buf: &Arc<Vec<u8>>,
        at: usize,
    ) -> Result<(ClientId, LogRecord)> {
        let corrupt = |msg: &str| DlogError::Corrupt(msg.into());
        let body = buf
            .get(at..)
            .and_then(checked_body)
            .ok_or_else(|| corrupt("unreadable frame"))?;
        if u8_at(body, 0) != Some(KIND_RECORD) {
            return Err(corrupt("not a record frame"));
        }
        let body_at = at + ENVELOPE_BYTES;
        let (client, record, _) =
            decode_record(body, |off, len| LogData::slice_of(buf, body_at + off, len))?;
        Ok((client, record))
    }

    fn decode_body(body: &[u8]) -> Result<Frame> {
        let corrupt = |msg: &str| DlogError::Corrupt(msg.into());
        let kind = u8_at(body, 0).ok_or_else(|| corrupt("empty frame body"))?;
        let rest = body.get(1..).unwrap_or(&[]);
        match kind {
            KIND_RECORD => {
                let (client, record, staged) =
                    decode_record(body, |off, len| slice_at(body, off, len).map(LogData::from))?;
                Ok(Frame::Record {
                    client,
                    record,
                    staged,
                })
            }
            KIND_INSTALL => {
                if rest.len() != 16 {
                    return Err(corrupt("bad install frame length"));
                }
                let bad = || corrupt("bad install frame length");
                let client = ClientId(u64_le_at(rest, 0).ok_or_else(bad)?);
                let epoch = Epoch(u64_le_at(rest, 8).ok_or_else(bad)?);
                Ok(Frame::Install { client, epoch })
            }
            _ => Err(corrupt("unknown frame kind")),
        }
    }
}

/// The body of the frame at the front of `buf`, when `buf` begins with
/// a whole frame whose length is sane and whose CRC matches.
fn checked_body(buf: &[u8]) -> Option<&[u8]> {
    let body_len = u32_le_at(buf, 0)? as usize;
    if body_len == 0 || body_len > MAX_FRAME_BYTES {
        return None;
    }
    let body = slice_at(buf, ENVELOPE_BYTES, body_len)?;
    (crc32(body) == u32_le_at(buf, 4)?).then_some(body)
}

/// Decode a record frame's body (kind byte included) into its client,
/// record and staged flag. `payload(offset, len)` makes the payload from
/// where it sits in `body`, as a copy or as a view.
fn decode_record(
    body: &[u8],
    payload: impl FnOnce(usize, usize) -> Option<LogData>,
) -> Result<(ClientId, LogRecord, bool)> {
    let short = || DlogError::Corrupt("short record frame".into());
    let client = ClientId(u64_le_at(body, 1).ok_or_else(short)?);
    let lsn = Lsn(u64_le_at(body, 9).ok_or_else(short)?);
    let epoch = Epoch(u64_le_at(body, 17).ok_or_else(short)?);
    let flags = u8_at(body, 25).ok_or_else(short)?;
    let data_len = u32_le_at(body, 26).ok_or_else(short)? as usize;
    if body.len() != RECORD_DATA_AT + data_len {
        return Err(DlogError::Corrupt("record frame length mismatch".into()));
    }
    let record = LogRecord {
        lsn,
        epoch,
        present: flags & FLAG_PRESENT != 0,
        data: payload(RECORD_DATA_AT, data_len).ok_or_else(short)?,
    };
    Ok((client, record, flags & FLAG_STAGED != 0))
}

/// Reserve the envelope (`len` + `crc`) of a frame starting at the end of
/// `out`; [`close_envelope`] patches it once the body is written.
fn open_envelope(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; ENVELOPE_BYTES]);
    start
}

/// Patch the envelope of the frame that began at `start`; returns the
/// frame's encoded length.
fn close_envelope(out: &mut [u8], start: usize) -> usize {
    let body_len = out.len() - start - ENVELOPE_BYTES;
    let crc = crc32(out.get(start + ENVELOPE_BYTES..).unwrap_or(&[]));
    patch_envelope(out, start, body_len, crc);
    out.len() - start
}

/// Close the envelopes of the open frames that start at `starts` in
/// `out`, back to back with the last running to the end of `out`: the
/// same bytes as a [`close_envelope`] per frame, but the CRCs of a
/// message's frames are taken four at a time ([`crc32_each`]), so their
/// dependency chains overlap instead of running end to end.
pub(crate) fn close_envelopes(out: &mut [u8], starts: &[usize]) {
    let mut ends = starts.iter().skip(1).copied().chain([out.len()]);
    for group in starts.chunks(4) {
        let mut bodies: [&[u8]; 4] = [&[]; 4];
        for (body, &start) in bodies.iter_mut().zip(group) {
            let end = ends.next().unwrap_or(start);
            *body = out.get(start + ENVELOPE_BYTES..end).unwrap_or(&[]);
        }
        let mut crcs = [0u32; 4];
        crc32_each(bodies.get(..group.len()).unwrap_or(&[]), &mut crcs);
        let lens = bodies.map(<[u8]>::len);
        for ((&start, len), crc) in group.iter().zip(lens).zip(crcs) {
            patch_envelope(out, start, len, crc);
        }
    }
}

/// Write a frame's `len` and `crc` into its envelope at `start`.
fn patch_envelope(out: &mut [u8], start: usize, body_len: usize, crc: u32) {
    if let Some(slot) = out.get_mut(start..start + 4) {
        slot.copy_from_slice(&(body_len as u32).to_le_bytes());
    }
    if let Some(slot) = out.get_mut(start + 4..start + 8) {
        slot.copy_from_slice(&crc.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_frame(lsn: u64, staged: bool) -> Frame {
        Frame::Record {
            client: ClientId(7),
            record: LogRecord::present(Lsn(lsn), Epoch(3), vec![0xAB; 100]),
            staged,
        }
    }

    #[test]
    fn roundtrip_record() {
        for staged in [false, true] {
            let f = record_frame(42, staged);
            let mut buf = Vec::new();
            let n = f.encode_into(&mut buf);
            assert_eq!(n, buf.len());
            assert_eq!(n, f.encoded_len());
            let (decoded, consumed) = Frame::decode(&buf).unwrap().unwrap();
            assert_eq!(consumed, n);
            assert_eq!(decoded, f);
        }
    }

    #[test]
    fn roundtrip_not_present() {
        let f = Frame::Record {
            client: ClientId(1),
            record: LogRecord::not_present(Lsn(10), Epoch(4)),
            staged: false,
        };
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let (decoded, _) = Frame::decode(&buf).unwrap().unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn roundtrip_install_and_checkpoint() {
        let f = Frame::Install {
            client: ClientId(9),
            epoch: Epoch(12),
        };
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let (decoded, consumed) = Frame::decode(&buf).unwrap().unwrap();
        assert_eq!(decoded, f);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let frames = [
            record_frame(1, false),
            record_frame(2, true),
            record_frame(3, false),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.encode_into(&mut buf);
        }
        let mut off = 0;
        for f in &frames {
            let (decoded, n) = Frame::decode(&buf[off..]).unwrap().unwrap();
            assert_eq!(&decoded, f);
            off += n;
        }
        assert_eq!(off, buf.len());
        assert!(Frame::decode(&buf[off..]).unwrap().is_none());
    }

    #[test]
    fn torn_write_detected() {
        let f = record_frame(1, false);
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        // Truncations anywhere are detected as end-of-stream, not garbage.
        for cut in 0..buf.len() {
            assert!(
                Frame::decode(&buf[..cut]).unwrap().is_none(),
                "cut at {cut}"
            );
        }
        // Bit flips in the body fail the CRC.
        for i in ENVELOPE_BYTES..buf.len() {
            buf[i] ^= 0x01;
            assert!(Frame::decode(&buf).unwrap().is_none(), "flip at {i}");
            buf[i] ^= 0x01;
        }
    }

    #[test]
    fn a_record_view_is_the_decoded_record_without_a_copy() {
        let frames = [
            record_frame(1, false),
            record_frame(2, true),
            Frame::Install {
                client: ClientId(7),
                epoch: Epoch(3),
            },
        ];
        let mut buf = Vec::new();
        let starts: Vec<usize> = frames.iter().map(|f| f.encode_into(&mut buf)).collect();
        let buf = Arc::new(buf);
        let mut views = Vec::new();
        for at in [0, starts[0]] {
            let (client, record) = Frame::decode_record_view(&buf, at).unwrap();
            let (owned, _) = Frame::decode(&buf[at..]).unwrap().unwrap();
            assert!(matches!(owned, Frame::Record { client: c, record: r, .. }
                if c == client && r == record));
            views.push(record);
        }
        assert_eq!(Arc::strong_count(&buf), 3, "each payload shares the buffer");
        // An install frame, a position inside a frame and a torn tail are
        // refused, not decoded.
        for at in [starts[0] + starts[1], 1, buf.len() - 1] {
            assert!(Frame::decode_record_view(&buf, at).is_err(), "at {at}");
        }
    }

    #[test]
    fn zero_and_absurd_lengths_stop_scan() {
        let zeros = [0u8; 64];
        assert!(Frame::decode(&zeros).unwrap().is_none());
        let mut absurd = vec![0u8; 64];
        absurd[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Frame::decode(&absurd).unwrap().is_none());
    }
}
