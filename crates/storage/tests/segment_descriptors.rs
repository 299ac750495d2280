//! The stream's open segment files. Over 40 segments written and then
//! read in random order, the stream never holds more descriptors than its
//! cap; dropping and truncating close the descriptors of the files they
//! delete; and every surviving record still reads back as the frame the
//! stream's scan decodes at its position.

use std::fs;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dlog_storage::frame::Frame;
use dlog_storage::stream::{segment_file_name, SegmentedStream};
use dlog_types::{ClientId, Epoch, LogRecord, Lsn};

/// The stream's descriptor cap (`MAX_OPEN_SEGMENTS` in stream.rs).
const CAP: usize = 16;

const SEGMENT: u64 = 1024;

const SEGMENTS: u64 = 40;

fn tmpdir() -> PathBuf {
    let d = std::env::temp_dir()
        .join("dlog-segment-descriptors")
        .join(std::process::id().to_string());
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d.canonicalize().unwrap()
}

/// Targets of this process's descriptors that link into `dir`; a deleted
/// file's target ends in ` (deleted)`.
fn open_in(dir: &Path) -> Vec<String> {
    let dir = dir.to_string_lossy().into_owned() + "/";
    fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| fs::read_link(e.ok()?.path()).ok())
        .map(|target| target.to_string_lossy().into_owned())
        .filter(|target| target.starts_with(&dir))
        .collect()
}

fn assert_capped(dir: &Path) {
    let open = open_in(dir);
    assert!(
        open.len() <= CAP,
        "{} descriptors open: {open:?}",
        open.len()
    );
}

fn frame(lsn: u64) -> Frame {
    // 50–249 payload bytes: frames straddle segment boundaries often.
    let len = 50 + (lsn * 37 % 200) as usize;
    Frame::Record {
        client: ClientId(1),
        record: LogRecord::present(Lsn(lsn), Epoch(1), vec![lsn as u8; len]),
        staged: false,
    }
}

fn read_frame(s: &mut SegmentedStream, pos: u64, len: usize, buf: &mut Vec<u8>) -> Frame {
    s.read_into(pos, len, buf).unwrap();
    Frame::decode(buf).unwrap().expect("a whole frame").0
}

#[test]
fn descriptors_stay_capped_and_close_with_their_files() {
    let dir = tmpdir();
    let mut s = SegmentedStream::open(&dir, SEGMENT).unwrap();
    let mut records: Vec<(u64, Frame)> = Vec::new();
    let mut encoded = Vec::new();
    while s.end() < SEGMENTS * SEGMENT {
        let f = frame(records.len() as u64 + 1);
        encoded.clear();
        f.encode_into(&mut encoded);
        records.push((s.append(&encoded).unwrap(), f));
        assert_capped(&dir);
    }
    let files = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension() == Some("seg".as_ref()))
        .count();
    assert!(files as u64 >= SEGMENTS);

    let mut order: Vec<usize> = (0..records.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(37));
    let mut buf = Vec::new();
    for i in order {
        let (pos, want) = &records[i];
        assert_eq!(
            &read_frame(&mut s, *pos, want.encoded_len(), &mut buf),
            want
        );
        assert_capped(&dir);
    }

    // Hold descriptors of segments both cuts delete, then cut. A miss
    // closes the lowest-index descriptor, so the low segment goes last.
    let dropped = 10;
    let kept_to = 30;
    for seg in [SEGMENTS - 1, dropped - 1] {
        s.read_into(seg * SEGMENT, 1, &mut buf).unwrap();
    }
    let open = open_in(&dir);
    for seg in [SEGMENTS - 1, dropped - 1] {
        let name = segment_file_name(seg);
        assert!(
            open.iter().any(|t| t.ends_with(name.as_str())),
            "segment {seg} not open: {open:?}"
        );
    }
    assert_eq!(s.drop_before(dropped * SEGMENT).unwrap(), dropped * SEGMENT);
    let open = open_in(&dir);
    assert!(!open.iter().any(|t| t.ends_with(" (deleted)")), "{open:?}");
    let cut = records
        .iter()
        .map(|(pos, _)| *pos)
        .find(|pos| *pos > kept_to * SEGMENT)
        .unwrap();
    s.truncate(cut).unwrap();
    let open = open_in(&dir);
    assert!(!open.iter().any(|t| t.ends_with(" (deleted)")), "{open:?}");

    let survivors: Vec<&(u64, Frame)> = records
        .iter()
        .filter(|(pos, _)| (s.start()..cut).contains(pos))
        .collect();
    let mut scanned = Vec::new();
    let end = s
        .scan_frames(survivors[0].0, |pos, f| scanned.push((pos, f)))
        .unwrap();
    assert_eq!(end, cut);
    assert_eq!(scanned.len(), survivors.len());
    for ((pos, wrote), (scan_pos, decoded)) in survivors.into_iter().zip(&scanned) {
        assert_eq!(pos, scan_pos);
        let read = read_frame(&mut s, *pos, wrote.encoded_len(), &mut buf);
        assert_eq!(&read, decoded, "frame at {pos}");
        assert_eq!(&read, wrote);
        assert_capped(&dir);
    }
    let _ = fs::remove_dir_all(&dir);
}
