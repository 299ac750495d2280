//! `ReadRun` against per-record `LogStore::read`. A run reads a window of
//! the stream and decodes every record it can out of it; it must return
//! exactly the records a loop of single reads returns under the same
//! reply budget, in the same order, and stop at the same LSN.
//!
//! Two clients' frames are interleaved, with CopyLog-staged and
//! not-present records among them. Segments are 1–4 KiB, tracks are
//! flushed at random points, and payloads run from 1 byte to three
//! single-record windows. Runs start at every LSN a client has, in both
//! directions, with random spans, record caps and budgets, so windows
//! meet the NVRAM/disk boundary, segment boundaries, other clients'
//! frames and frames longer than themselves.
//!
//! Two more properties hold what equal results cannot show: a run whose
//! records sit in one segment is one read syscall, and a run refuses a
//! frame its index entry misplaces.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlog_obs::gauge::thread_io;
use dlog_storage::frame::Frame;
use dlog_storage::intervals::IntervalTable;
use dlog_storage::store::{encode_checkpoint_image_into, Durability};
use dlog_storage::FRAME_READ_WINDOW as WINDOW;
use dlog_storage::{LogStore, NvramDevice, RunRead, StoreOptions};
use dlog_types::{ClientId, Epoch, LogRecord, Lsn};

/// The server's reply rule: a reply carries at most a budget of bytes,
/// counting this many on top of each payload.
const PER_RECORD: usize = 32;

/// Frame bytes around a record's payload.
const OVERHEAD: usize = Frame::record_len(0);

/// Holds the largest frame a step writes; a fuller track is flushed.
const DEVICE_BYTES: usize = 8192;

const CLIENTS: [ClientId; 2] = [ClientId(1), ClientId(2)];

#[derive(Clone, Debug)]
enum Step {
    /// The client writes a record with this many payload bytes.
    Write(usize, usize),
    /// The client writes a record marked not present.
    NotPresent(usize),
    /// The client rewrites its last `back` LSNs and `extra` more in a new
    /// epoch (the last one not present): staged copies, with one of the
    /// other client's records among them, then the install.
    Copy {
        client: usize,
        back: u64,
        extra: u64,
    },
    /// The client writes a record whose frame ends this many bytes before
    /// a segment boundary: 0 ends the segment, 1–7 split the next
    /// frame's envelope.
    EndShortOfSegment(usize, u64),
    /// Flush the NVRAM track to the stream.
    Flush,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let client = 0usize..2;
    let step = prop_oneof![
        6 => (client.clone(), 1usize..300).prop_map(|(c, len)| Step::Write(c, len)),
        2 => (client.clone(), 1usize..3 * WINDOW + 1).prop_map(|(c, len)| Step::Write(c, len)),
        1 => client.clone().prop_map(Step::NotPresent),
        1 => (client.clone(), 0u64..4, 0u64..3)
            .prop_map(|(client, back, extra)| Step::Copy { client, back, extra }),
        2 => (client, 0u64..9).prop_map(|(c, slack)| Step::EndShortOfSegment(c, slack)),
        2 => Just(Step::Flush),
    ];
    proptest::collection::vec(step, 1..60)
}

fn tmpdir(name: &str, tag: u64) -> PathBuf {
    let d = std::env::temp_dir()
        .join("dlog-read-run-props")
        .join(format!("{name}-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &Path, segment: u64) -> LogStore {
    let opts = StoreOptions {
        track_bytes: DEVICE_BYTES,
        segment_bytes: segment,
        fsync: false,
        durability: Durability::Nvram,
        checkpoint_every: 0,
    };
    LogStore::open(dir, opts, NvramDevice::new(DEVICE_BYTES)).unwrap()
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

/// Each client's current epoch and highest LSN.
#[derive(Clone, Copy, Default)]
struct Log {
    epoch: u64,
    hi: u64,
}

fn record(lsn: u64, epoch: u64, len: usize) -> LogRecord {
    LogRecord::present(Lsn(lsn), Epoch(epoch), vec![(lsn % 251) as u8; len])
}

/// Write the client's next record with `len` payload bytes.
fn append(store: &mut LogStore, logs: &mut [Log; 2], c: usize, len: usize) {
    let log = &mut logs[c];
    log.hi += 1;
    store
        .write(CLIENTS[c], &record(log.hi, log.epoch, len))
        .unwrap();
}

/// Apply `steps`; returns each client's highest LSN.
fn build(store: &mut LogStore, steps: &[Step], segment: u64) -> [u64; 2] {
    let mut logs = [Log { epoch: 1, hi: 0 }; 2];
    for step in steps {
        match *step {
            Step::Write(c, len) => append(store, &mut logs, c, len),
            Step::NotPresent(c) => {
                let log = &mut logs[c];
                log.hi += 1;
                let masked = LogRecord::not_present(Lsn(log.hi), Epoch(log.epoch));
                store.write(CLIENTS[c], &masked).unwrap();
            }
            Step::Copy {
                client: c,
                back,
                extra,
            } => {
                let Log { epoch, hi } = logs[c];
                let epoch = epoch + 1;
                let lo = hi.saturating_sub(back).max(1);
                let last = (hi + extra).max(lo);
                for lsn in lo..=last {
                    let copy = if lsn == last {
                        LogRecord::not_present(Lsn(lsn), Epoch(epoch))
                    } else {
                        record(lsn, epoch, (lsn as usize * 37) % 200 + 1)
                    };
                    store.stage_copy(CLIENTS[c], &copy).unwrap();
                    if lsn == lo {
                        append(store, &mut logs, 1 - c, 40);
                    }
                }
                store.install_copies(CLIENTS[c], Epoch(epoch)).unwrap();
                logs[c] = Log { epoch, hi: last };
            }
            Step::EndShortOfSegment(c, slack) => {
                let pos = store.append_position();
                append(
                    store,
                    &mut logs,
                    c,
                    payload_ending_short_of_segment(pos, segment, slack),
                );
            }
            Step::Flush => store.flush_track().unwrap(),
        }
    }
    [logs[0].hi, logs[1].hi]
}

/// A reply of at most `max` records from `lsn` under `budget`, each
/// record read through `next(lsn, room)`, by the server's rule: the first
/// record goes out whatever its size, a later one only if its payload
/// fits the room left. Returns the records and the LSN it stopped at.
fn reply(
    lsn: Lsn,
    forward: bool,
    max: usize,
    budget: usize,
    mut next: impl FnMut(Lsn, usize) -> RunRead,
) -> (Vec<LogRecord>, Lsn) {
    let mut records = Vec::new();
    let mut bytes = 0;
    let mut cursor = lsn;
    while records.len() < max {
        let room = if records.is_empty() {
            usize::MAX
        } else {
            match budget.checked_sub(bytes + PER_RECORD) {
                Some(room) => room,
                None => break,
            }
        };
        let RunRead::Record(record) = next(cursor, room) else {
            break;
        };
        bytes += record.data.len() + PER_RECORD;
        records.push(record);
        cursor = if forward {
            cursor.next()
        } else {
            match cursor.prev() {
                Some(p) if p > Lsn::ZERO => p,
                _ => break,
            }
        };
    }
    (records, cursor)
}

/// From every LSN each client has (and one past), both ways: a run
/// returns what single reads return, and counts a store read for each
/// record it returns and each LSN it finds not stored, none for a record
/// it leaves out for its length.
fn check_runs(store: &mut LogStore, his: [u64; 2], rng: &mut StdRng) {
    for (client, hi) in CLIENTS.into_iter().zip(his) {
        for lsn in (1..=hi + 1).map(Lsn) {
            for forward in [true, false] {
                let max = rng.gen_range(1..=70usize);
                let budget = rng.gen_range(0..=10_000usize);
                let span = rng.gen_range(1..=12_000usize);
                let want = reply(lsn, forward, max, budget, |lsn, room| {
                    match store.read(client, lsn).unwrap() {
                        Some(r) if r.data.len() <= room => RunRead::Record(r),
                        Some(_) => RunRead::TooLong,
                        None => RunRead::NotStored,
                    }
                });
                let reads = store.stats().reads;
                let mut not_stored = 0;
                let mut run = store.read_run(client, forward, span);
                let got = reply(lsn, forward, max, budget, |lsn, room| {
                    let read = run.next(lsn, room).unwrap();
                    not_stored += u64::from(read == RunRead::NotStored);
                    read
                });
                let case = format!(
                    "{client:?} from {lsn} forward {forward} max {max} budget {budget} span {span}"
                );
                assert_eq!(got, want, "{case}");
                let counted = store.stats().reads - reads;
                assert_eq!(counted, got.0.len() as u64 + not_stored, "{case}");
            }
        }
    }
}

/// Read syscalls `f` costs, net of sampling them.
fn read_syscalls(f: impl FnOnce()) -> u64 {
    let empty = {
        let before = thread_io().unwrap();
        thread_io().unwrap().syscr - before.syscr
    };
    let before = thread_io().unwrap();
    f();
    thread_io().unwrap().syscr - before.syscr - empty
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_run_reads_what_single_reads_read(
        steps in arb_steps(),
        segment in 1024u64..4097,
        seed in any::<u64>(),
    ) {
        let dir = tmpdir("runs", seed);
        let mut store = open(&dir, segment);
        let his = build(&mut store, &steps, segment);
        let mut rng = StdRng::seed_from_u64(seed);
        // With the unflushed track in NVRAM, then with all of it on disk.
        check_runs(&mut store, his, &mut rng);
        store.sync().unwrap();
        check_runs(&mut store, his, &mut rng);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_run_inside_one_segment_is_one_read_syscall(
        lens in proptest::collection::vec(1usize..WINDOW - OVERHEAD, 8..80),
        segment in 1024u64..4097,
        seed in any::<u64>(),
    ) {
        if thread_io().is_none() {
            return; // no /proc/thread-self/io to count with
        }
        let dir = tmpdir("syscalls", seed);
        let mut store = open(&dir, segment);
        let mut frames = Vec::new();
        for (lsn, len) in (1u64..).zip(&lens) {
            let pos = store.append_position();
            store.write(CLIENTS[0], &record(lsn, 1, *len)).unwrap();
            frames.push((pos, store.append_position()));
        }
        store.sync().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for first in 0..frames.len() {
            let seg = frames[first].0 / segment;
            let inside = |f: &&(u64, u64)| f.0 / segment == seg && (f.1 - 1) / segment == seg;
            for forward in [true, false] {
                // The frames from `first` on, in the run's direction, that
                // lie wholly in its segment.
                let reach = if forward {
                    frames[first..].iter().take_while(inside).count()
                } else {
                    frames[..=first].iter().rev().take_while(inside).count()
                };
                if reach == 0 {
                    continue;
                }
                let max = rng.gen_range(1..=reach);
                // Past the segment both ways: unclipped, the window would
                // read a neighbouring segment too.
                let span = rng.gen_range(segment as usize..=4 * segment as usize);
                let run = |store: &mut LogStore| {
                    let mut run = store.read_run(CLIENTS[0], forward, span);
                    for k in 0..max as u64 {
                        let lsn = if forward { first as u64 + 1 + k } else { first as u64 + 1 - k };
                        let read = run.next(Lsn(lsn), usize::MAX).unwrap();
                        assert!(matches!(read, RunRead::Record(r) if r.lsn == Lsn(lsn)));
                    }
                };
                let syscalls = read_syscalls(|| run(&mut store));
                assert_eq!(
                    syscalls, 1,
                    "{max} records from {} forward {forward}, segment {seg} of {segment} B",
                    first + 1
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_run_refuses_a_frame_its_index_entry_misplaces(
        writes in proptest::collection::vec((0usize..2, 1usize..400), 8..60),
        segment in 1024u64..4097,
        pick in any::<u64>(),
        span in 1usize..12_000,
    ) {
        let dir = tmpdir("misplaced", pick);
        let mut store = open(&dir, segment);
        let mut positions: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for (c, len) in &writes {
            let lsn = positions[*c].len() as u64 + 1;
            positions[*c].push(store.append_position());
            store.write(CLIENTS[*c], &record(lsn, 1, *len)).unwrap();
        }
        prop_assume!(positions.iter().all(|p| p.len() >= 2));
        store.sync().unwrap();
        let end = store.stream_end();
        drop(store);

        // Client 1's entry for LSN `k + 1` points at another frame: client
        // 2's record at the same LSN, client 1's own at another LSN, or
        // the middle of a frame.
        let ours = &positions[0];
        let k = (pick % ours.len() as u64) as usize;
        let other = (k + 1) % ours.len();
        let target = match pick / 7 % 3 {
            0 => positions[1].get(k).copied().unwrap_or(positions[1][0]),
            1 => ours[other],
            _ => ours[k] + 1,
        };
        let mut table = IntervalTable::new();
        for (c, client) in CLIENTS.into_iter().enumerate() {
            for (i, pos) in positions[c].iter().enumerate() {
                let pos = if c == 0 && i == k { target } else { *pos };
                table.append(client, Lsn(i as u64 + 1), Epoch(1), pos).unwrap();
            }
        }
        let mut image = Vec::new();
        encode_checkpoint_image_into(&table, end, &mut image);
        std::fs::write(dir.join("intervals.ckpt"), &image).unwrap();

        // The records before it still read; it is refused, in the middle
        // of a run and by a single read.
        let mut store = open(&dir, segment);
        let mut run = store.read_run(CLIENTS[0], true, span);
        for lsn in (1..=k as u64).map(Lsn) {
            let read = run.next(lsn, usize::MAX).unwrap();
            prop_assert!(matches!(read, RunRead::Record(r) if r.lsn == lsn));
        }
        let misplaced = Lsn(k as u64 + 1);
        prop_assert!(run.next(misplaced, usize::MAX).is_err(), "{misplaced} at {target}");
        prop_assert!(store.read(CLIENTS[0], misplaced).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
