//! Crash-consistency property tests for the log-server store.
//!
//! Random workloads of writes, message-sized batches, forces, track
//! flushes, and simulated crashes (drop the store, keep the NVRAM device)
//! must never lose a record that was accepted by `write` or
//! `write_batch` — the store's durability point is the NVRAM insert
//! (§4.1).

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;

use dlog_storage::store::{Durability, LogStore, StoreOptions};
use dlog_storage::verify::verify_dir;
use dlog_storage::NvramDevice;
use dlog_types::{ClientId, Epoch, LogData, LogRecord, Lsn};

#[derive(Clone, Debug)]
enum Op {
    /// Write the next record for client (0..3).
    Write {
        client: u8,
        len: u16,
    },
    /// Write the next `n` records for client as one `write_batch`.
    Batch {
        client: u8,
        n: u8,
        len: u16,
    },
    Force {
        client: u8,
    },
    Flush,
    Crash,
    Checkpoint,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0u8..3, 1u16..300).prop_map(|(client, len)| Op::Write { client, len }),
            4 => (0u8..3, 1u8..10, 1u16..300)
                .prop_map(|(client, n, len)| Op::Batch { client, n, len }),
            2 => (0u8..3).prop_map(|client| Op::Force { client }),
            1 => Just(Op::Flush),
            1 => Just(Op::Crash),
            1 => Just(Op::Checkpoint),
        ],
        1..120,
    )
}

fn tmpdir(tag: u64) -> PathBuf {
    let d = std::env::temp_dir()
        .join("dlog-crash-props")
        .join(format!("case-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_accepted_write_is_ever_lost(ops in arb_ops(), tag in 0u64..1_000_000) {
        let dir = tmpdir(tag);
        let nvram = NvramDevice::new(1 << 16);
        let mut store = LogStore::open(&dir, opts(), nvram.clone()).unwrap();

        // Model: per client, every accepted (lsn -> payload byte pattern).
        let mut model: BTreeMap<u8, BTreeMap<u64, u16>> = BTreeMap::new();
        let mut next_lsn: BTreeMap<u8, u64> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Write { client, len } => {
                    let lsn = next_lsn.entry(client).or_insert(1);
                    let record = LogRecord::present(
                        Lsn(*lsn),
                        Epoch(1),
                        vec![(len % 251) as u8; len as usize],
                    );
                    store.write(ClientId(u64::from(client)), &record).unwrap();
                    model.entry(client).or_default().insert(*lsn, len);
                    *lsn += 1;
                }
                Op::Batch { client, n, len } => {
                    let lsn = next_lsn.entry(client).or_insert(1);
                    let records: Vec<(Lsn, LogData)> = (*lsn..*lsn + u64::from(n))
                        .map(|l| (Lsn(l), LogData::from(vec![(len % 251) as u8; len as usize])))
                        .collect();
                    store
                        .write_batch(ClientId(u64::from(client)), Epoch(1), &records)
                        .unwrap();
                    for (l, _) in &records {
                        model.entry(client).or_default().insert(l.0, len);
                    }
                    *lsn += u64::from(n);
                }
                Op::Force { client } => {
                    store.force(ClientId(u64::from(client))).unwrap();
                }
                Op::Flush => store.flush_track().unwrap(),
                Op::Checkpoint => store.checkpoint().unwrap(),
                Op::Crash => {
                    drop(store); // power failure; NVRAM device survives
                    store = LogStore::open(&dir, opts(), nvram.clone()).unwrap();
                }
            }
        }

        // Final crash + recovery, then audit everything.
        drop(store);
        let mut store = LogStore::open(&dir, opts(), nvram).unwrap();
        for (client, records) in &model {
            let cid = ClientId(u64::from(*client));
            for (&lsn, &len) in records {
                let got = store.read(cid, Lsn(lsn)).unwrap();
                let got = got.unwrap_or_else(|| panic!("client {client} lost LSN {lsn}"));
                prop_assert_eq!(got.data.len(), len as usize);
                prop_assert_eq!(got.data.as_bytes().first().copied(),
                    Some((len % 251) as u8));
            }
            // The interval list covers exactly 1..=max.
            let list = store.interval_list(cid);
            if let Some(&max) = records.keys().next_back() {
                prop_assert_eq!(list.last().unwrap().hi, Lsn(max));
                prop_assert_eq!(list.len(), 1, "single gap-free interval expected");
            }
            // Nothing beyond the model exists.
            let beyond = records.keys().next_back().map_or(1, |m| m + 1);
            prop_assert!(store.read(cid, Lsn(beyond)).unwrap().is_none());
        }
        // The offline audit agrees with recovery, client for client.
        let report = verify_dir(&dir, &opts()).unwrap();
        prop_assert!(report.healthy(), "{:?}", report);
        prop_assert_eq!(report.clients.len(), store.clients().len());
        for cid in store.clients() {
            prop_assert_eq!(report.clients.get(&cid), Some(&store.interval_list(cid)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A preload far larger than the device, written a message at a time
    /// and cut by crashes at arbitrary message boundaries: every batch
    /// `write_batch` acknowledged is there after recovery, whole.
    #[test]
    fn a_crash_mid_preload_keeps_every_acknowledged_batch(
        crash_after in proptest::collection::vec(1usize..40, 1..6),
        per_batch in 1u64..9,
        tag in 0u64..1_000_000,
    ) {
        let dir = tmpdir(tag);
        let nvram = NvramDevice::new(2_048);
        let mut store = LogStore::open(&dir, opts(), nvram.clone()).unwrap();
        let client = ClientId(7);
        let mut next = 1u64;
        for batches in crash_after {
            for _ in 0..batches {
                let records: Vec<(Lsn, LogData)> = (next..next + per_batch)
                    .map(|l| (Lsn(l), LogData::from(vec![(l % 251) as u8; 256])))
                    .collect();
                store.write_batch(client, Epoch(1), &records).unwrap();
                next += per_batch;
            }
            drop(store); // crash between two batches; the device survives
            store = LogStore::open(&dir, opts(), nvram.clone()).unwrap();
            prop_assert_eq!(
                store.last_interval(client).map(|iv| (iv.lo, iv.hi)),
                Some((Lsn(1), Lsn(next - 1)))
            );
        }
        for l in 1..next {
            let got = store.read(client, Lsn(l)).unwrap();
            let got = got.unwrap_or_else(|| panic!("lost LSN {l}"));
            prop_assert_eq!(got.data.as_bytes(), &[(l % 251) as u8; 256][..]);
        }
        prop_assert!(store.read(client, Lsn(next)).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
