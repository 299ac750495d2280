//! Malformed-frame corpus: every file under `tests/corpus/` is a
//! hand-minimized broken wire frame that must decode to a clean
//! [`DecodeError`] — no panic, no unbounded allocation — through both
//! `Packet::decode` and `Packet::decode_shared`.
//!
//! Each frame is the smallest mutation of valid traffic that reaches one
//! specific failure arm of the decoder: header checks (magic, reserved,
//! CRC, length), unknown kind tags at all three dispatch levels, count
//! fields that overrun or exceed the absurdity cap, length prefixes that
//! run past the buffer, truncations at every fixed-width reader, and
//! semantic rejects (interval bounds). Each frame carries the error text
//! of the arm it targets, and the decode must fail with exactly that text, so a
//! frame that fails early for another reason (a stale envelope width,
//! say) does not pass. The corpus is committed; the `bless_corpus`
//! generator (`--ignored`) rewrites it deterministically, and
//! `committed_corpus_matches_its_generator` fails until it is rerun.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use dlog_net::wire::{Message, Packet};
use dlog_types::{ClientId, Epoch, LogData, LogId, Lsn};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Decode attempts on a malformed frame may allocate error strings and a
/// few capped `Vec::with_capacity` scratch vectors, but never more — the
/// decoder's absurdity caps are what this bound locks in.
const MAX_ALLOCS_PER_DECODE: u64 = 64;

#[test]
fn corpus_is_rejected_cleanly_and_cheaply() {
    let dir = corpus_dir();
    let corpus = corpus();
    assert!(
        corpus.len() >= 30,
        "corpus shrank to {} frames (expected at least 30)",
        corpus.len()
    );
    for (name, _, arm) in corpus {
        let bytes = std::fs::read(dir.join(format!("{name}.bin")))
            .expect("tests/corpus incomplete — run the bless_corpus test with --ignored");

        let before = dlog_obs::gauge::thread_allocs();
        let owned = Packet::decode(&bytes);
        let owned_allocs = dlog_obs::gauge::thread_allocs() - before;
        let err = owned.expect_err(&format!("{name}: owned decode accepted a malformed frame"));
        assert_eq!(err.0, arm, "{name}: failed outside the arm it targets");
        assert!(
            owned_allocs <= MAX_ALLOCS_PER_DECODE,
            "{name}: owned decode allocated {owned_allocs} times (cap {MAX_ALLOCS_PER_DECODE})"
        );

        let shared = Arc::new(bytes);
        let before = dlog_obs::gauge::thread_allocs();
        let borrowed = Packet::decode_shared(&shared);
        let shared_allocs = dlog_obs::gauge::thread_allocs() - before;
        let err = borrowed.expect_err(&format!("{name}: shared decode accepted a malformed frame"));
        assert_eq!(err.0, arm, "{name}: shared decode failed elsewhere");
        assert!(
            shared_allocs <= MAX_ALLOCS_PER_DECODE,
            "{name}: shared decode allocated {shared_allocs} times (cap {MAX_ALLOCS_PER_DECODE})"
        );
    }
}

/// Valid frames from the same seeds still decode — guards against the
/// corpus test passing vacuously because decode rejects everything.
#[test]
fn seed_frames_still_decode() {
    for p in seeds() {
        let bytes = p.encode();
        assert_eq!(Packet::decode(&bytes).expect("valid frame rejected"), p);
    }
}

// ---------------------------------------------------------------------------
// Corpus generator. Deterministic; run with
// `cargo test -p dlog-net --test malformed_corpus -- --ignored bless` to
// regenerate the committed files after a wire-format change.

const MAGIC: u16 = 0xD10C;

fn crc32(data: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for &b in data {
        state ^= u32::from(b);
        for _ in 0..8 {
            state = if state & 1 != 0 {
                (state >> 1) ^ 0xEDB8_8320
            } else {
                state >> 1
            };
        }
    }
    state ^ 0xFFFF_FFFF
}

/// Frame an arbitrary (possibly malformed) body with a *correct* header,
/// so the mutation under test is reached instead of tripping the CRC.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Body prefix shared by every message: the `log` routing hint, zero.
fn envelope(msg_bytes: &[u8]) -> Vec<u8> {
    let mut body = vec![0u8; 8];
    body.extend_from_slice(msg_bytes);
    body
}

fn seeds() -> Vec<Packet> {
    vec![
        Packet::bare(Message::WriteLog {
            client: ClientId(7),
            epoch: Epoch(3),
            records: vec![(Lsn(41), LogData::from(&b"seed-record"[..]))],
        }),
        Packet::routed(
            LogId(7),
            Message::NewHighLsn {
                client: ClientId(7),
                lsn: Lsn(41),
            },
        ),
    ]
}

// The decoder's error texts, one per failure arm a frame targets.
const TRUNCATED: &str = "truncated message";
const COUNT: &str = "list count exceeds the bytes left";
const BOUNDS: &str = "invalid interval bounds";

/// Every frame as `(name, bytes, the error text of the arm it reaches)`.
#[allow(clippy::too_many_lines)]
fn corpus() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let valid = seeds()[0].encode();

    let mut frames: Vec<(&'static str, Vec<u8>, &'static str)> = Vec::new();

    // --- Header-level rejects ---------------------------------------------
    frames.push(("01-empty", Vec::new(), TRUNCATED));
    frames.push(("02-one-byte", vec![0x0C], TRUNCATED));
    frames.push(("03-seven-bytes", valid[..7].to_vec(), TRUNCATED));
    let mut f = valid.clone();
    f[0] ^= 0xFF; // magic
    frames.push(("04-bad-magic", f, "bad magic"));
    let mut f = valid.clone();
    f[2] = 1; // reserved word must be zero
    frames.push(("05-reserved-nonzero", f, "nonzero reserved field"));
    let mut f = valid.clone();
    f[4..8].fill(0); // crc field zeroed
    frames.push(("06-crc-zeroed", f, "crc mismatch"));
    let mut f = valid.clone();
    let last = f.len() - 1;
    f[last] ^= 0x01; // body bit flip without fixing the crc
    frames.push(("07-body-bitflip", f, "crc mismatch"));
    frames.push(("08-header-only", frame(&[]), TRUNCATED));
    // Half of the 8-byte `log` routing hint.
    frames.push(("09-envelope-short", frame(&[0u8; 4]), TRUNCATED));

    // --- Message-level rejects --------------------------------------------
    frames.push(("10-no-kind-tag", frame(&envelope(&[])), TRUNCATED));
    frames.push((
        "11-kind-zero",
        frame(&envelope(&[0])),
        "unknown Message kind 0",
    ));
    frames.push((
        "12-kind-eleven",
        frame(&envelope(&[11])),
        "unknown Message kind 11",
    ));
    frames.push((
        "13-kind-255",
        frame(&envelope(&[255])),
        "unknown Message kind 255",
    ));
    // Tag 1, retired with the connection handshake, and one u64 behind it.
    let mut m = vec![1u8];
    m.extend_from_slice(&9u64.to_le_bytes());
    frames.push((
        "14-syn-truncated",
        frame(&envelope(&m)),
        "unknown Message kind 1",
    ));

    // WriteLog (kind 4): client u64, epoch u64, count u32, records.
    let writelog_hdr = |count: u32| {
        let mut m = vec![4u8];
        m.extend_from_slice(&7u64.to_le_bytes());
        m.extend_from_slice(&3u64.to_le_bytes());
        m.extend_from_slice(&count.to_le_bytes());
        m
    };
    let mut m = vec![4u8];
    m.extend_from_slice(&7u64.to_le_bytes());
    frames.push(("15-writelog-no-epoch", frame(&envelope(&m)), TRUNCATED));
    frames.push((
        "16-writelog-count-absurd",
        frame(&envelope(&writelog_hdr(u32::MAX))),
        COUNT,
    ));
    // Count claims two records; only one follows.
    let mut m = writelog_hdr(2);
    m.extend_from_slice(&41u64.to_le_bytes());
    m.extend_from_slice(&3u32.to_le_bytes());
    m.extend_from_slice(b"abc");
    frames.push(("17-writelog-count-overrun", frame(&envelope(&m)), COUNT));
    // Data length prefix runs past the buffer.
    let mut m = writelog_hdr(1);
    m.extend_from_slice(&41u64.to_le_bytes());
    m.extend_from_slice(&0xFFFFu32.to_le_bytes());
    m.extend_from_slice(b"abc");
    frames.push(("18-writelog-data-overrun", frame(&envelope(&m)), TRUNCATED));
    // Valid message plus trailing garbage.
    let mut m = writelog_hdr(1);
    m.extend_from_slice(&41u64.to_le_bytes());
    m.extend_from_slice(&3u32.to_le_bytes());
    m.extend_from_slice(b"abc");
    m.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
    frames.push((
        "19-writelog-trailing-bytes",
        frame(&envelope(&m)),
        "trailing bytes",
    ));
    // ForceLog (kind 5) with a u32::MAX data length.
    let mut m = vec![5u8];
    m.extend_from_slice(&7u64.to_le_bytes());
    m.extend_from_slice(&3u64.to_le_bytes());
    m.extend_from_slice(&1u32.to_le_bytes());
    m.extend_from_slice(&41u64.to_le_bytes());
    m.extend_from_slice(&u32::MAX.to_le_bytes());
    frames.push(("20-forcelog-data-len-max", frame(&envelope(&m)), TRUNCATED));

    // --- Request-level rejects (kind 9 = Request, id u64, then tag) -------
    let request = |tag_and_rest: &[u8]| {
        let mut m = vec![9u8];
        m.extend_from_slice(&77u64.to_le_bytes());
        m.extend_from_slice(tag_and_rest);
        frame(&envelope(&m))
    };
    frames.push((
        "21-request-tag-zero",
        request(&[0]),
        "unknown Request kind 0",
    ));
    frames.push((
        "22-request-tag-255",
        request(&[255]),
        "unknown Request kind 255",
    ));
    let mut m = vec![9u8];
    m.extend_from_slice(&77u32.to_le_bytes()); // id cut in half
    frames.push(("23-request-id-truncated", frame(&envelope(&m)), TRUNCATED));
    // CopyLog (tag 4): client, epoch, record count.
    let mut m = vec![4u8];
    m.extend_from_slice(&7u64.to_le_bytes());
    m.extend_from_slice(&3u64.to_le_bytes());
    m.extend_from_slice(&u32::MAX.to_le_bytes());
    frames.push(("24-copylog-count-absurd", request(&m), COUNT));
    // One record cut short inside its epoch: 12 bytes cannot hold a
    // record's 21 fixed bytes, so the count check rejects it.
    let mut m = vec![4u8];
    m.extend_from_slice(&7u64.to_le_bytes());
    m.extend_from_slice(&3u64.to_le_bytes());
    m.extend_from_slice(&1u32.to_le_bytes());
    m.extend_from_slice(&41u64.to_le_bytes());
    m.extend_from_slice(&3u32.to_le_bytes()); // epoch cut short
    frames.push(("25-copylog-record-truncated", request(&m), COUNT));
    // ReadLogForward (tag 2) missing max_records.
    let mut m = vec![2u8];
    m.extend_from_slice(&7u64.to_le_bytes());
    m.extend_from_slice(&41u64.to_le_bytes());
    frames.push(("26-readfwd-no-max", request(&m), TRUNCATED));

    // --- Response-level rejects (kind 10 = Response, id u64, then tag) ----
    let response = |tag_and_rest: &[u8]| {
        let mut m = vec![10u8];
        m.extend_from_slice(&77u64.to_le_bytes());
        m.extend_from_slice(tag_and_rest);
        frame(&envelope(&m))
    };
    frames.push((
        "27-response-tag-zero",
        response(&[0]),
        "unknown Response kind 0",
    ));
    frames.push((
        "28-response-tag-255",
        response(&[255]),
        "unknown Response kind 255",
    ));
    // Err (tag 4): code u16, detail length overruns the buffer.
    let mut m = vec![4u8];
    m.extend_from_slice(&2u16.to_le_bytes());
    m.extend_from_slice(&100u32.to_le_bytes());
    m.extend_from_slice(b"abc");
    frames.push(("29-err-detail-overrun", response(&m), TRUNCATED));
    // Status (tag 6) with 15 of its 16 counters.
    let mut m = vec![6u8];
    for i in 0..15u64 {
        m.extend_from_slice(&i.to_le_bytes());
    }
    frames.push(("30-status-truncated", response(&m), TRUNCATED));
    // Stats (tag 7): six gauges, then a stage count with no stages.
    let mut m = vec![7u8];
    for _ in 0..6 {
        m.extend_from_slice(&5u64.to_le_bytes());
    }
    m.push(3); // claims three stages, none follow
    frames.push(("31-stats-stage-overrun", response(&m), COUNT));
    // Stats with one stage claiming 500 buckets and none present.
    let mut m = vec![7u8];
    for _ in 0..6 {
        m.extend_from_slice(&5u64.to_le_bytes());
    }
    m.push(1);
    m.push(0); // stage id
    m.extend_from_slice(&1u64.to_le_bytes());
    m.extend_from_slice(&1u64.to_le_bytes());
    m.extend_from_slice(&500u16.to_le_bytes());
    frames.push(("32-stats-bucket-overrun", response(&m), COUNT));
    // Intervals (tag 1): lo > hi.
    let interval = |epoch: u64, lo: u64, hi: u64| {
        let mut m = vec![1u8];
        m.extend_from_slice(&1u32.to_le_bytes());
        m.extend_from_slice(&epoch.to_le_bytes());
        m.extend_from_slice(&lo.to_le_bytes());
        m.extend_from_slice(&hi.to_le_bytes());
        m
    };
    frames.push((
        "33-interval-lo-above-hi",
        response(&interval(1, 50, 10)),
        BOUNDS,
    ));
    frames.push(("34-interval-lo-zero", response(&interval(1, 0, 10)), BOUNDS));
    let mut m = vec![1u8];
    m.extend_from_slice(&u32::MAX.to_le_bytes());
    frames.push(("35-interval-count-absurd", response(&m), COUNT));
    // A valid one-interval page without its `more` flag.
    frames.push((
        "36-intervals-no-more",
        response(&interval(1, 1, 10)),
        TRUNCATED,
    ));
    // IntervalList (tag 1) missing the index of its first interval.
    let mut m = vec![1u8];
    m.extend_from_slice(&7u64.to_le_bytes());
    frames.push(("37-intervallist-no-first", request(&m), TRUNCATED));

    frames
}

/// The committed corpus is exactly what `corpus()` generates: the same
/// names and the same bytes. Frames 03–07 mutate an encoded seed, so
/// this also pins the encoder's output for that seed.
#[test]
fn committed_corpus_matches_its_generator() {
    let committed: BTreeMap<String, Vec<u8>> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus missing")
        .map(|e| e.expect("read_dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .map(|p| {
            let name = p
                .file_stem()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&p).expect("read corpus frame"))
        })
        .collect();
    let generated: BTreeMap<String, Vec<u8>> = corpus()
        .into_iter()
        .map(|(name, bytes, _)| (name.to_string(), bytes))
        .collect();
    assert_eq!(
        committed.keys().collect::<Vec<_>>(),
        generated.keys().collect::<Vec<_>>(),
        "committed frame names differ from the generator's"
    );
    for (name, bytes) in &generated {
        assert_eq!(
            &committed[name], bytes,
            "{name}.bin differs from its generator"
        );
    }
}

/// Regenerate `tests/corpus/` (run explicitly with `--ignored`).
#[test]
#[ignore = "corpus generator; run manually after a wire-format change"]
fn bless_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for (name, bytes, _) in corpus() {
        std::fs::write(dir.join(format!("{name}.bin")), &bytes).expect("write corpus frame");
    }
}
