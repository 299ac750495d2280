//! Replay loops: one public function of one layer, called in a tight
//! loop over inputs taken from the workload's op stream or captured in
//! the inline pass. They give the costs the traced passes cannot
//! isolate (a hop between two threads, one `LogStore::write`, one CRC
//! pass) and omit all waiting.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use append_forest::{AppendForest, LsnIndex};
use dlog_net::udp::UdpEndpoint;
use dlog_net::wire::{pack_batches, Message, NodeAddr, Packet};
use dlog_net::{Endpoint, FaultPlan, MemNetwork};
use dlog_storage::crc::crc32;
use dlog_storage::frame::Frame;
use dlog_storage::store::Durability;
use dlog_storage::{LogStore, NvramDevice};
use dlog_types::{ClientId, Epoch, LogData, LogRecord, Lsn};

use crate::cluster::{store_options, NVRAM_BYTES};
use crate::gen::{OpStream, Stream};

/// Index entries for the forest loops, and records in the read store:
/// the size of `restart_read`'s preload.
const INDEX_ENTRIES: u64 = 200_000;
const READ_STORE_RECORDS: u64 = 60_000;
const CLIENT: ClientId = ClientId(1);

#[derive(Debug, Default)]
pub struct Replay {
    pub pack_ns_per_rec: f64,
    pub store_write_ns_per_rec: f64,
    pub nvram_insert_ns_per_rec: f64,
    pub frame_encode_ns_per_rec: f64,
    pub crc_gb_per_s: f64,
    pub force_batch_us: f64,
    pub flush_track_us: f64,
    pub read_hot_ns: f64,
    pub read_cold_ns: f64,
    pub open_recover_ms: f64,
    pub forest_append_ns: f64,
    pub forest_lookup_ns: f64,
    pub forest_nodes_per_lookup: f64,
    pub mem_hop_ns: f64,
    pub udp_hop_ns: f64,
    /// `Endpoint::send` of the ping, per call, on each transport.
    pub mem_send_ns: f64,
    pub udp_send_ns: f64,
}

/// Call `f` (which returns how many units it did) until `budget` is
/// spent; nanoseconds per unit.
fn per_unit(budget: Duration, mut f: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut units = 0u64;
    while started.elapsed() < budget {
        units += f();
    }
    started.elapsed().as_nanos() as f64 / units.max(1) as f64
}

fn record(ops: &OpStream, index: u64) -> LogRecord {
    LogRecord::present(Lsn(index + 1), Epoch(1), ops.record(index))
}

/// Round trips between two threads over `a` and `b`, halved, and the
/// time inside the pinging side's `send`, per call.
fn hop_ns<E: Endpoint + 'static>(a: E, b: E, budget: Duration) -> (f64, f64) {
    let b_addr = b.local_addr();
    let ping = Packet::bare(Message::NewHighLsn {
        client: CLIENT,
        lsn: Lsn(1),
    });
    let stop = Packet::bare(Message::NewHighLsn {
        client: CLIENT,
        lsn: Lsn(0),
    });
    let echo = std::thread::spawn(move || loop {
        match b.recv(Duration::from_millis(50)) {
            Ok(Some((_, p))) if p.lsn_hint() == 0 => break,
            Ok(Some((from, p))) => {
                let _ = b.send(from, &p);
            }
            Ok(None) => {}
            Err(_) => break,
        }
    });
    let started = Instant::now();
    let mut trips = 0u64;
    let mut sending = Duration::ZERO;
    while started.elapsed() < budget {
        let t = Instant::now();
        if a.send(b_addr, &ping).is_err() {
            break;
        }
        sending += t.elapsed();
        while let Ok(None) = a.recv(Duration::from_millis(50)) {}
        trips += 1;
    }
    let nanos = started.elapsed().as_nanos() as f64;
    let _ = a.send(b_addr, &stop);
    echo.join().expect("echo thread");
    let trips = trips.max(1) as f64;
    (nanos / (2.0 * trips), sending.as_nanos() as f64 / trips)
}

fn udp_pair() -> std::io::Result<(UdpEndpoint, UdpEndpoint)> {
    let any: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let a = UdpEndpoint::bind(NodeAddr(1), any)?;
    let b = UdpEndpoint::bind(NodeAddr(2), any)?;
    a.add_peer(NodeAddr(2), b.socket_addr()?);
    b.add_peer(NodeAddr(1), a.socket_addr()?);
    Ok((a, b))
}

/// Run every loop; `scale` stretches the per-loop time budget and
/// `dir` is an empty scratch directory on the benchmark's filesystem.
pub fn run(ops: &OpStream, dir: &Path, scale: f64) -> Replay {
    let budget = Duration::from_secs_f64(0.1 * scale);
    let per_commit = ops.shape.records_per_commit() as u64;
    let mut r = Replay::default();

    // wire: packing one commit's records into packet-sized batches.
    let group: Vec<(Lsn, LogData)> = (0..per_commit)
        .map(|i| (Lsn(i + 1), LogData::new(ops.record(i))))
        .collect();
    r.pack_ns_per_rec = per_unit(budget, || {
        black_box(pack_batches(black_box(&group)));
        per_commit
    });

    // storage: the write path of one record, and its parts.
    {
        let mut store = LogStore::open(
            dir.join("write"),
            store_options(Durability::Nvram, false),
            NvramDevice::new(NVRAM_BYTES),
        )
        .expect("open store");
        let mut next = 0u64;
        let batch: Vec<Vec<u8>> = (0..512).map(|i| ops.record(i)).collect();
        r.store_write_ns_per_rec = per_unit(budget, || {
            for data in &batch {
                let rec = LogRecord::present(Lsn(next + 1), Epoch(1), data.clone());
                store.write(CLIENT, &rec).expect("store write");
                next += 1;
            }
            batch.len() as u64
        });
        // A full track, flushed explicitly (the periodic stall a commit
        // at the wrong moment waits behind).
        let opts = store_options(Durability::Nvram, false);
        let filler = vec![0xA5u8; 1024];
        let mut flushes = 0u64;
        let mut flush_ns = 0u128;
        let started = Instant::now();
        while started.elapsed() < budget {
            store.flush_track().expect("flush");
            for _ in 0..(opts.track_bytes / 1100) {
                let rec = LogRecord::present(Lsn(next + 1), Epoch(1), filler.clone());
                store.write(CLIENT, &rec).expect("store write");
                next += 1;
            }
            let t = Instant::now();
            store.flush_track().expect("flush");
            flush_ns += t.elapsed().as_nanos();
            flushes += 1;
        }
        r.flush_track_us = flush_ns as f64 / 1e3 / flushes.max(1) as f64;
    }
    let sample = Frame::Record {
        client: CLIENT,
        record: record(ops, 0),
        staged: false,
    };
    let mut frame = Vec::new();
    r.frame_encode_ns_per_rec = per_unit(budget / 2, || {
        frame.clear();
        black_box(sample.encode_into(&mut frame));
        1
    });
    let nvram = NvramDevice::new(NVRAM_BYTES);
    r.nvram_insert_ns_per_rec = per_unit(budget / 2, || {
        if nvram.insert(&frame).is_err() {
            nvram.retire(nvram.pending_len());
            return 0;
        }
        1
    });
    let block = vec![0x5Au8; 64 * 1024];
    let ns_per_block = per_unit(budget / 2, || {
        black_box(crc32(black_box(&block)));
        1
    });
    r.crc_gb_per_s = block.len() as f64 / ns_per_block;

    // storage: a force that must reach the file (FsyncPerForce).
    {
        let mut store = LogStore::open(
            dir.join("force"),
            store_options(Durability::FsyncPerForce, true),
            NvramDevice::new(NVRAM_BYTES),
        )
        .expect("open store");
        let mut next = 0u64;
        let (mut forces, mut force_ns) = (0u64, 0u128);
        let started = Instant::now();
        while started.elapsed() < budget * 2 {
            for _ in 0..per_commit {
                store
                    .write(CLIENT, &record(ops, next))
                    .expect("store write");
                next += 1;
            }
            let t = Instant::now();
            store.force_batch(&[CLIENT]).expect("force");
            force_ns += t.elapsed().as_nanos();
            forces += 1;
        }
        r.force_batch_us = force_ns as f64 / 1e3 / forces.max(1) as f64;
    }

    // storage: reads from the NVRAM tail and from a sealed segment, and
    // recovery of the same directory.
    {
        let opts = store_options(Durability::Nvram, false);
        let read_dir = dir.join("read");
        let wide = OpStream {
            shape: crate::gen::Shape::Fixed {
                bytes: 256,
                per_force: 8,
            },
            ..*ops
        };
        let mut store =
            LogStore::open(&read_dir, opts.clone(), NvramDevice::new(NVRAM_BYTES)).expect("open");
        for i in 0..READ_STORE_RECORDS {
            store.write(CLIENT, &record(&wide, i)).expect("store write");
        }
        let mut pos = Stream::new(ops.seed, 7);
        // The newest 64 records sit in the unflushed track; the first
        // 8 MiB segment (about 27k of these records) is sealed.
        r.read_hot_ns = per_unit(budget, || {
            let lsn = Lsn(READ_STORE_RECORDS - pos.below(64));
            black_box(store.read(CLIENT, lsn).expect("read"));
            1
        });
        r.read_cold_ns = per_unit(budget, || {
            let lsn = Lsn(1 + pos.below(20_000));
            black_box(store.read(CLIENT, lsn).expect("read"));
            1
        });
        store.sync().expect("sync");
        drop(store);
        let t = Instant::now();
        let store = LogStore::open(&read_dir, opts, NvramDevice::new(NVRAM_BYTES)).expect("reopen");
        r.open_recover_ms = t.elapsed().as_secs_f64() * 1e3;
        black_box(store.stats());
    }

    // forest: the LSN index at the size of restart_read's preload.
    {
        let mut index = LsnIndex::new(dlog_storage::intervals::INDEX_FANOUT);
        let t = Instant::now();
        for i in 1..=INDEX_ENTRIES {
            index.append(Lsn(i), i * 300).expect("append");
        }
        r.forest_append_ns = t.elapsed().as_nanos() as f64 / INDEX_ENTRIES as f64;
        let mut pos = Stream::new(ops.seed, 8);
        r.forest_lookup_ns = per_unit(budget, || {
            black_box(index.lookup(Lsn(1 + pos.below(INDEX_ENTRIES))));
            1
        });
        // Pointer traversals per lookup in a forest holding one node per
        // sealed index node.
        let nodes = INDEX_ENTRIES / dlog_storage::intervals::INDEX_FANOUT as u64;
        let mut forest = AppendForest::new();
        for k in 1..=nodes {
            forest.append(k, k).expect("append");
        }
        let hops: usize = (1..=nodes)
            .map(|k| forest.get_with_stats(&k).1.total())
            .sum();
        r.forest_nodes_per_lookup = hops as f64 / nodes as f64;
    }

    // transports: one hop between two threads.
    let net = MemNetwork::new(FaultPlan::reliable());
    (r.mem_hop_ns, r.mem_send_ns) = hop_ns(
        net.endpoint(NodeAddr(1)),
        net.endpoint(NodeAddr(2)),
        budget * 2,
    );
    if let Ok((a, b)) = udp_pair() {
        (r.udp_hop_ns, r.udp_send_ns) = hop_ns(a, b, budget * 2);
    }
    r
}
