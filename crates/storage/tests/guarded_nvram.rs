//! The §5.1 guarded-write protocol end to end: every store insert presents
//! the device seal, so a store operates normally across crashes, while a
//! foreign write to the NVRAM device is detected on the store's next
//! insert instead of silently corrupting the log.

use std::path::PathBuf;

use dlog_storage::store::{LogStore, StoreOptions};
use dlog_storage::NvramDevice;
use dlog_types::{ClientId, DlogError, Epoch, LogRecord, Lsn};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("dlog-guard-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts() -> StoreOptions {
    StoreOptions {
        fsync: false,
        checkpoint_every: 0,
        track_bytes: 512,
        ..StoreOptions::default()
    }
}

fn rec(lsn: u64) -> LogRecord {
    LogRecord::present(Lsn(lsn), Epoch(1), vec![lsn as u8; 64])
}

#[test]
fn guarded_store_operates_normally() {
    let dir = tmpdir("normal");
    let nvram = NvramDevice::new(1 << 16);
    {
        let mut store = LogStore::open(&dir, opts(), nvram.clone()).unwrap();
        for i in 1..=40u64 {
            store.write(ClientId(1), &rec(i)).unwrap();
        }
        store.force(ClientId(1)).unwrap();
        // Crash and recover with the same device.
    }
    let mut store = LogStore::open(&dir, opts(), nvram).unwrap();
    for i in 1..=40u64 {
        assert!(
            store.read(ClientId(1), Lsn(i)).unwrap().is_some(),
            "lsn {i}"
        );
    }
    // And keep writing in guarded mode after recovery.
    for i in 41..=50u64 {
        store.write(ClientId(1), &rec(i)).unwrap();
    }
    assert!(store.read(ClientId(1), Lsn(50)).unwrap().is_some());
}

#[test]
fn foreign_write_is_detected() {
    let dir = tmpdir("foreign");
    let nvram = NvramDevice::new(1 << 16);
    let mut store = LogStore::open(&dir, opts(), nvram.clone()).unwrap();
    store.write(ClientId(1), &rec(1)).unwrap();

    // A stray component scribbles on the device directly (it cannot know
    // the store's seal chain).
    nvram.insert(b"wild pointer garbage").unwrap();

    match store.write(ClientId(1), &rec(2)) {
        Err(e @ DlogError::GuardViolation { .. }) => {
            assert!(e.to_string().contains("guard violation"), "{e}");
        }
        other => panic!("expected guard violation, got {other:?}"),
    }
}

#[test]
fn unguarded_store_ignores_seals() {
    // The default mode must be unaffected by seal bookkeeping.
    let dir = tmpdir("unguarded");
    let nvram = NvramDevice::new(1 << 16);
    let mut store = LogStore::open(
        &dir,
        StoreOptions {
            fsync: false,
            checkpoint_every: 0,
            ..StoreOptions::default()
        },
        nvram.clone(),
    )
    .unwrap();
    store.write(ClientId(1), &rec(1)).unwrap();
    // Direct device traffic does not bother an unguarded store... though
    // it would corrupt a real one — which is exactly §5.1's argument for
    // the guard.
    let seal_before = nvram.seal();
    let _ = seal_before;
    store.write(ClientId(1), &rec(2)).unwrap();
    assert!(store.read(ClientId(1), Lsn(2)).unwrap().is_some());
}
