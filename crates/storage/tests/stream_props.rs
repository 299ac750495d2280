//! Property tests for the segmented stream: random frame sequences
//! written through random flush patterns must read back exactly, across
//! segment boundaries, with torn tails cleanly truncated.

use std::path::PathBuf;

use proptest::prelude::*;

use dlog_storage::frame::Frame;
use dlog_storage::stream::SegmentedStream;
use dlog_types::{ClientId, Epoch, LogRecord, Lsn};

fn tmpdir(tag: u64) -> PathBuf {
    let d = std::env::temp_dir()
        .join("dlog-stream-props")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn frame(client: u64, lsn: u64, size: usize) -> Frame {
    Frame::Record {
        client: ClientId(client),
        record: LogRecord::present(Lsn(lsn), Epoch(1), vec![(lsn % 251) as u8; size]),
        staged: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Append frames of random sizes over a tiny segment capacity (so
    /// frames straddle boundaries constantly); scanning recovers exactly
    /// the appended sequence, also after reopening.
    #[test]
    fn scan_recovers_appended_frames(
        sizes in proptest::collection::vec(0usize..600, 1..40),
        seg_kb in 1u64..4,
        tag in 0u64..1_000_000,
    ) {
        let dir = tmpdir(tag);
        let seg_bytes = seg_kb * 1024;
        let mut expected = Vec::new();
        {
            let mut s = SegmentedStream::open(&dir, seg_bytes).unwrap();
            for (i, size) in sizes.iter().enumerate() {
                let f = frame(i as u64 % 3 + 1, i as u64 + 1, *size);
                let mut buf = Vec::new();
                f.encode_into(&mut buf);
                let pos = s.append(&buf).unwrap();
                expected.push((pos, f));
            }
            s.sync().unwrap();
            let mut seen = Vec::new();
            let end = s.scan_frames(0, |pos, f| seen.push((pos, f))).unwrap();
            prop_assert_eq!(&seen, &expected);
            prop_assert_eq!(end, s.end());
        }
        // Reopen: same result.
        let mut s = SegmentedStream::open(&dir, seg_bytes).unwrap();
        let mut seen = Vec::new();
        let end = s.scan_frames(0, |pos, f| seen.push((pos, f))).unwrap();
        prop_assert_eq!(&seen, &expected);
        prop_assert_eq!(end, s.end());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cutting the stream at any byte yields a valid prefix: the scan
    /// returns exactly the frames wholly before the cut.
    #[test]
    fn arbitrary_truncation_yields_clean_prefix(
        count in 1usize..20,
        cut_seed in any::<u64>(),
        tag in 0u64..1_000_000,
    ) {
        let dir = tmpdir(tag.wrapping_add(7_000_000));
        let mut s = SegmentedStream::open(&dir, 2048).unwrap();
        let mut boundaries = vec![0u64];
        for i in 0..count {
            let f = frame(1, i as u64 + 1, 100);
            let mut buf = Vec::new();
            f.encode_into(&mut buf);
            s.append(&buf).unwrap();
            boundaries.push(s.end());
        }
        let cut = cut_seed % (s.end() + 1);
        s.truncate(cut).unwrap();
        let mut seen = 0usize;
        let end = s.scan_frames(0, |_, _| seen += 1).unwrap();
        // Frames wholly before the cut survive.
        let expect = boundaries.iter().skip(1).filter(|&&b| b <= cut).count();
        prop_assert_eq!(seen, expect);
        prop_assert_eq!(end, boundaries[expect]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
