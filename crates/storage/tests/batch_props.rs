//! `LogStore::write_batch(run)` against `LogStore::write` × n on a twin
//! store: one append per message must leave the same log as one append
//! per record — the same stream bytes, the same interval table, the same
//! counters — whatever the run straddles (a track flush, a segment roll,
//! a full device, a frame larger than the device). Only
//! `tracks_flushed` may differ: a batch checks the track once, not once
//! per record.

use std::path::PathBuf;

use proptest::prelude::*;

use dlog_storage::frame::Frame;
use dlog_storage::store::{Durability, LogStore, StoreOptions, StoreStats};
use dlog_storage::NvramDevice;
use dlog_types::{ClientId, Epoch, LogData, LogRecord, Lsn};

/// One message: `lens.len()` records for `client`, continuing its LSN
/// sequence after skipping `gap` LSNs, in its current epoch plus `bump`.
#[derive(Clone, Debug)]
struct Run {
    client: u8,
    gap: u64,
    bump: u64,
    lens: Vec<usize>,
}

fn arb_runs() -> impl Strategy<Value = Vec<Run>> {
    let len = prop_oneof![
        12 => 0usize..300,
        2 => 600usize..1_500,
        1 => Just(5_000usize), // a frame larger than the device
    ];
    let run = (
        0u8..3,
        prop_oneof![5 => Just(0u64), 1 => 1u64..4],
        prop_oneof![8 => Just(0u64), 1 => 1u64..3],
        proptest::collection::vec(len, 1..12),
    )
        .prop_map(|(client, gap, bump, lens)| Run {
            client,
            gap,
            bump,
            lens,
        });
    proptest::collection::vec(run, 1..40)
}

fn tmpdir(side: &str, tag: u64) -> PathBuf {
    let d = std::env::temp_dir()
        .join("dlog-batch-props")
        .join(format!("{side}-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts() -> StoreOptions {
    StoreOptions {
        track_bytes: 700,
        segment_bytes: 4096,
        fsync: false,
        durability: Durability::Nvram,
        checkpoint_every: 0,
    }
}

/// The device holds two tracks and a bit: runs regularly overflow it.
const DEVICE_BYTES: usize = 1_800;

fn frames(store: &mut LogStore) -> Vec<(u64, Frame)> {
    store.sync().unwrap();
    let mut out = Vec::new();
    let end = store
        .scan_stream(0, |pos, frame| out.push((pos, frame)))
        .unwrap();
    assert_eq!(end, store.stream_end(), "the whole stream decodes");
    out
}

/// `intervals.ckpt` is the encoded interval table plus the stream end.
fn checkpoint_image(store: &mut LogStore, dir: &std::path::Path) -> Vec<u8> {
    store.checkpoint().unwrap();
    std::fs::read(dir.join("intervals.ckpt")).unwrap()
}

fn without_flush_counts(mut stats: StoreStats) -> StoreStats {
    stats.tracks_flushed = 0;
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_batch_is_write_per_record(
        runs in arb_runs(),
        tag in 0u64..1_000_000,
    ) {
        let (dir_b, dir_r) = (tmpdir("batch", tag), tmpdir("record", tag));
        let mut batched =
            LogStore::open(&dir_b, opts(), NvramDevice::new(DEVICE_BYTES)).unwrap();
        let mut per_record =
            LogStore::open(&dir_r, opts(), NvramDevice::new(DEVICE_BYTES)).unwrap();

        let mut next = [1u64; 3];
        let mut epoch = [1u64; 3];
        let mut written: Vec<(ClientId, Lsn, Epoch, LogData)> = Vec::new();
        for run in &runs {
            let c = usize::from(run.client);
            let client = ClientId(u64::from(run.client));
            epoch[c] += run.bump;
            next[c] += run.gap;
            let records: Vec<(Lsn, LogData)> = run
                .lens
                .iter()
                .enumerate()
                .map(|(i, len)| {
                    let lsn = next[c] + i as u64;
                    (Lsn(lsn), LogData::from(vec![(lsn % 251) as u8; *len]))
                })
                .collect();
            next[c] += records.len() as u64;

            batched.write_batch(client, Epoch(epoch[c]), &records).unwrap();
            for (lsn, data) in &records {
                let record = LogRecord::present(*lsn, Epoch(epoch[c]), data.share());
                per_record.write(client, &record).unwrap();
                written.push((client, *lsn, Epoch(epoch[c]), data.share()));
            }
            prop_assert_eq!(batched.append_position(), per_record.append_position());
            prop_assert_eq!(batched.last_interval(client), per_record.last_interval(client));
        }

        // Every record reads back the same from both, before any sync.
        for (client, lsn, epoch, data) in &written {
            let got = batched.read(*client, *lsn).unwrap().expect("batched store holds it");
            prop_assert_eq!(Some(&got), per_record.read(*client, *lsn).unwrap().as_ref());
            prop_assert_eq!((got.epoch, &got.data), (*epoch, data));
        }

        prop_assert_eq!(
            without_flush_counts(batched.stats()),
            without_flush_counts(per_record.stats())
        );
        prop_assert_eq!(frames(&mut batched), frames(&mut per_record));
        prop_assert_eq!(
            checkpoint_image(&mut batched, &dir_b),
            checkpoint_image(&mut per_record, &dir_r)
        );
        let _ = std::fs::remove_dir_all(&dir_b);
        let _ = std::fs::remove_dir_all(&dir_r);
    }
}
