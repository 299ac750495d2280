//! A frame whose list count claims more elements than its remaining
//! bytes could hold must be rejected before the decoder allocates room
//! for them. A count of 8192 passes a "no more than a packet's worth of
//! bytes" sanity check, yet reserving 8192 records is a quarter of a
//! megabyte for a 37-byte frame.
//!
//! This test binary holds one test on purpose: it reads the process-wide
//! allocated-bytes gauge, which no other test may move meanwhile.

use std::sync::Arc;

use dlog_net::wire::Packet;
use dlog_obs::gauge::process_alloc_bytes;
use dlog_types::crc::crc32;

/// Frame a message body behind a valid header and a zero `log` routing
/// hint, so decoding reaches the count under test.
fn frame(msg: &[u8]) -> Arc<Vec<u8>> {
    let mut body = vec![0u8; 8];
    body.extend_from_slice(msg);
    let mut out = Vec::new();
    out.extend_from_slice(&0xD10Cu16.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    Arc::new(out)
}

#[test]
fn list_counts_beyond_the_bytes_left_allocate_nothing() {
    let count = 8192u32.to_le_bytes();
    let (client, epoch, id) = (7u64.to_le_bytes(), 3u64.to_le_bytes(), 1u64.to_le_bytes());
    let cases = [
        // WriteLog (kind 4): client, epoch, then the batch count.
        ("WriteLog", [&[4u8][..], &client, &epoch, &count].concat()),
        // Request (9) CopyLog (4): client, epoch, then the record count.
        (
            "CopyLog",
            [&[9u8][..], &id, &[4], &client, &epoch, &count].concat(),
        ),
        // Response (10) Intervals (1): the interval count.
        ("Intervals", [&[10u8][..], &id, &[1], &count].concat()),
    ];
    for (name, msg) in cases {
        let bytes = frame(&msg);
        let before = process_alloc_bytes();
        let decoded = Packet::decode_shared(&bytes);
        let allocated = process_alloc_bytes() - before;
        // The count check itself must reject the frame: any other error
        // means the frame never reached it.
        let err = decoded.expect_err(&format!("{name}: decoded a frame of {} bytes", bytes.len()));
        assert_eq!(
            err.0, "list count exceeds the bytes left",
            "{name}: failed before its count was read"
        );
        assert!(
            allocated < 1024,
            "{name}: rejecting a {}-byte frame allocated {allocated} bytes",
            bytes.len()
        );
    }
}
