//! `LogStore::read` against the stream's own scan. The store reads a
//! frame's envelope and a window of the bytes after it in one read, and
//! reads again only for a frame longer than the window or one crossing a
//! segment boundary. Whatever the frame's size and place, the record read
//! must be the frame `scan_stream` decodes at the record's position, and
//! the record written. Payloads run from 1 byte to three windows, segments
//! from 1 to 4 KiB, and track flushes land at random points, so frames sit
//! in NVRAM, at the disk end, across segment boundaries, and with their
//! envelope split by one.

use std::path::PathBuf;

use proptest::prelude::*;

use dlog_storage::frame::Frame;
use dlog_storage::store::{Durability, LogStore, StoreOptions};
use dlog_storage::NvramDevice;
use dlog_storage::FRAME_READ_WINDOW as WINDOW;
use dlog_types::{ClientId, Epoch, LogRecord, Lsn};

/// Frame bytes around a record's payload.
const OVERHEAD: usize = Frame::record_len(0);

/// Holds the largest frame a step writes; a fuller track is flushed.
const DEVICE_BYTES: usize = 8192;

const CLIENT: ClientId = ClientId(1);

#[derive(Clone, Debug)]
enum Step {
    /// Write a record with this many payload bytes.
    Write(usize),
    /// Write a record whose frame ends this many bytes before a segment
    /// boundary: 0 ends the segment, 1–7 split the next frame's envelope.
    EndShortOfSegment(u64),
    /// Flush the NVRAM track to the stream.
    Flush,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        6 => (1usize..300).prop_map(Step::Write),
        2 => (WINDOW - OVERHEAD - 16..WINDOW - OVERHEAD + 16).prop_map(Step::Write),
        2 => (1usize..3 * WINDOW + 1).prop_map(Step::Write),
        2 => (0u64..9).prop_map(Step::EndShortOfSegment),
        2 => Just(Step::Flush),
    ];
    proptest::collection::vec(step, 1..60)
}

fn tmpdir(tag: u64) -> PathBuf {
    let d = std::env::temp_dir()
        .join("dlog-read-window-props")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Payload length that makes a frame at `pos` end `slack` bytes before
/// the next segment boundary that leaves room for a 1-byte payload.
fn payload_ending_short_of_segment(pos: u64, segment: u64, slack: u64) -> usize {
    let mut end = (pos / segment + 1) * segment - slack;
    while end < pos + Frame::record_len(1) as u64 {
        end += segment;
    }
    (end - pos) as usize - OVERHEAD
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_read_rule_reads_what_the_scan_decodes(
        steps in arb_steps(),
        segment in 1024u64..4097,
        tag in 0u64..1_000_000,
    ) {
        let dir = tmpdir(tag);
        let opts = StoreOptions {
            track_bytes: DEVICE_BYTES,
            segment_bytes: segment,
            fsync: false,
            durability: Durability::Nvram,
            checkpoint_every: 0,
        };
        let mut store = LogStore::open(&dir, opts, NvramDevice::new(DEVICE_BYTES)).unwrap();

        let mut written: Vec<(u64, LogRecord)> = Vec::new();
        for step in &steps {
            let pos = store.append_position();
            let len = match *step {
                Step::Write(len) => len,
                Step::EndShortOfSegment(slack) => payload_ending_short_of_segment(pos, segment, slack),
                Step::Flush => {
                    store.flush_track().unwrap();
                    continue;
                }
            };
            let lsn = written.len() as u64 + 1;
            let record = LogRecord::present(Lsn(lsn), Epoch(1), vec![(lsn % 251) as u8; len]);
            store.write(CLIENT, &record).unwrap();
            written.push((pos, record));
        }

        // Reads from both tiers, before the tail is flushed.
        for (_, record) in &written {
            let got = store.read(CLIENT, record.lsn).unwrap();
            prop_assert_eq!(got.as_ref(), Some(record), "lsn {} before sync", record.lsn);
        }

        store.sync().unwrap();
        let mut scanned = Vec::new();
        let end = store.scan_stream(0, |pos, frame| scanned.push((pos, frame))).unwrap();
        prop_assert_eq!(end, store.stream_end());
        prop_assert_eq!(scanned.len(), written.len());
        for ((pos, record), (scan_pos, frame)) in written.iter().zip(&scanned) {
            prop_assert_eq!(pos, scan_pos);
            let got = store.read(CLIENT, record.lsn).unwrap().expect("indexed record");
            let read = Frame::Record { client: CLIENT, record: got, staged: false };
            prop_assert_eq!(&read, frame, "lsn {} at {}", record.lsn, pos);
            let wrote = Frame::Record { client: CLIENT, record: record.share(), staged: false };
            prop_assert_eq!(&read, &wrote);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
