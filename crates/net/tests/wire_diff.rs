//! Differential wire-format battery: the zero-copy single-pass encoder
//! (`Packet::encode_into`) against an independent reference encoder.
//!
//! The reference below re-implements the *legacy* two-buffer scheme the
//! crate used before the zero-copy rewrite — build the body in one
//! `Vec<u8>`, then prepend a header around it — sharing **no code** with
//! `dlog_net::wire` (its own CRC, its own writers). Any divergence in
//! framing, field order, endianness, truncation caps, or CRC between the
//! two paths shows up as a byte mismatch on some generated message.
//!
//! Four properties, over arbitrary packets from the shared generators
//! (`common/mod.rs`, whose coverage `wire_props.rs` pins):
//!   1. reference encoding == `encode_into` output, byte for byte;
//!   2. `decode(encode(m)) == m` (and `decode_shared` agrees);
//!   3. `encoded_len()` predicts the exact length, before encoding;
//!   4. batches from `pack_batches` re-encode identically too.

use proptest::prelude::*;

use dlog_net::wire::{pack_batches, Message, Packet, Request, Response};
use dlog_types::{ClientId, Epoch, IntervalList, LogData, LogRecord, Lsn};

mod common;
use common::{arb_data, arb_packet};

// ---------------------------------------------------------------------------
// Reference encoder (legacy two-buffer layout; independent of dlog_net).

const MAGIC: u16 = 0xD10C;

// The reference's own little-endian writers, one per width.
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn ref_crc32(data: &[u8]) -> u32 {
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

fn ref_encode(p: &Packet) -> Vec<u8> {
    let mut body = Vec::with_capacity(256);
    put_u64(&mut body, p.log);
    ref_message(&p.msg, &mut body);

    let mut out = Vec::with_capacity(body.len() + 8);
    put_u16(&mut out, MAGIC);
    put_u16(&mut out, 0); // reserved
    put_u32(&mut out, ref_crc32(&body));
    out.extend_from_slice(&body);
    out
}

fn ref_data(out: &mut Vec<u8>, d: &LogData) {
    put_u32(out, d.len() as u32);
    out.extend_from_slice(d.as_bytes());
}

fn ref_lsn_batch(out: &mut Vec<u8>, records: &[(Lsn, LogData)]) {
    put_u32(out, records.len() as u32);
    for (lsn, data) in records {
        put_u64(out, lsn.0);
        ref_data(out, data);
    }
}

fn ref_records(out: &mut Vec<u8>, records: &[LogRecord]) {
    put_u32(out, records.len() as u32);
    for rec in records {
        put_u64(out, rec.lsn.0);
        put_u64(out, rec.epoch.0);
        out.push(u8::from(rec.present));
        ref_data(out, &rec.data);
    }
}

fn ref_intervals(out: &mut Vec<u8>, list: &IntervalList) {
    put_u32(out, list.len() as u32);
    for iv in list {
        put_u64(out, iv.epoch.0);
        put_u64(out, iv.lo.0);
        put_u64(out, iv.hi.0);
    }
}

fn ref_message(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::WriteLog {
            client,
            epoch,
            records,
        } => {
            out.push(4);
            put_u64(out, client.0);
            put_u64(out, epoch.0);
            ref_lsn_batch(out, records);
        }
        Message::ForceLog {
            client,
            epoch,
            records,
        } => {
            out.push(5);
            put_u64(out, client.0);
            put_u64(out, epoch.0);
            ref_lsn_batch(out, records);
        }
        Message::NewInterval {
            client,
            epoch,
            starting_lsn,
        } => {
            out.push(6);
            put_u64(out, client.0);
            put_u64(out, epoch.0);
            put_u64(out, starting_lsn.0);
        }
        Message::NewHighLsn { client, lsn } => {
            out.push(7);
            put_u64(out, client.0);
            put_u64(out, lsn.0);
        }
        Message::MissingInterval { client, lo, hi } => {
            out.push(8);
            put_u64(out, client.0);
            put_u64(out, lo.0);
            put_u64(out, hi.0);
        }
        Message::Request { id, body } => {
            out.push(9);
            put_u64(out, *id);
            ref_request(body, out);
        }
        Message::Response { id, body } => {
            out.push(10);
            put_u64(out, *id);
            ref_response(body, out);
        }
    }
}

fn ref_request(body: &Request, out: &mut Vec<u8>) {
    match body {
        Request::IntervalList { client, first } => {
            out.push(1);
            put_u64(out, client.0);
            put_u32(out, *first);
        }
        Request::ReadLogForward {
            client,
            lsn,
            max_records,
        } => {
            out.push(2);
            put_u64(out, client.0);
            put_u64(out, lsn.0);
            put_u32(out, *max_records);
        }
        Request::ReadLogBackward {
            client,
            lsn,
            max_records,
        } => {
            out.push(3);
            put_u64(out, client.0);
            put_u64(out, lsn.0);
            put_u32(out, *max_records);
        }
        Request::CopyLog {
            client,
            epoch,
            records,
        } => {
            out.push(4);
            put_u64(out, client.0);
            put_u64(out, epoch.0);
            ref_records(out, records);
        }
        Request::InstallCopies { client, epoch } => {
            out.push(5);
            put_u64(out, client.0);
            put_u64(out, epoch.0);
        }
        Request::GenRead { generator } => {
            out.push(6);
            put_u64(out, *generator);
        }
        Request::GenWrite { generator, value } => {
            out.push(7);
            put_u64(out, *generator);
            put_u64(out, *value);
        }
        Request::Status => out.push(8),
        Request::Stats => out.push(9),
    }
}

fn ref_response(body: &Response, out: &mut Vec<u8>) {
    match body {
        Response::Intervals { intervals, more } => {
            out.push(1);
            ref_intervals(out, intervals);
            out.push(u8::from(*more));
        }
        Response::Records { records } => {
            out.push(2);
            ref_records(out, records);
        }
        Response::Ok => out.push(3),
        Response::Err { code, detail } => {
            out.push(4);
            put_u16(out, *code);
            put_u32(out, detail.len() as u32);
            out.extend_from_slice(detail.as_bytes());
        }
        Response::GenValue { value } => {
            out.push(5);
            put_u64(out, *value);
        }
        Response::Status {
            records_stored,
            duplicates_ignored,
            naks_sent,
            rpcs,
            forces_acked,
            clients,
            on_disk_bytes,
            tracks_flushed,
            archived_bytes,
            pending_upload_bytes,
            last_manifest_lsn,
            upload_retries,
            coalesced_forces,
            group_commits,
            shard,
            shards,
        } => {
            out.push(6);
            for v in [
                records_stored,
                duplicates_ignored,
                naks_sent,
                rpcs,
                forces_acked,
                clients,
                on_disk_bytes,
                tracks_flushed,
                archived_bytes,
                pending_upload_bytes,
                last_manifest_lsn,
                upload_retries,
                coalesced_forces,
                group_commits,
                shard,
                shards,
            ] {
                put_u64(out, *v);
            }
        }
        Response::Stats {
            stages,
            trace_events,
            trace_dropped,
            ingest_allocs,
            ingest_records,
            shard,
            shards,
        } => {
            out.push(7);
            put_u64(out, *trace_events);
            put_u64(out, *trace_dropped);
            put_u64(out, *ingest_allocs);
            put_u64(out, *ingest_records);
            put_u64(out, *shard);
            put_u64(out, *shards);
            out.push(stages.len().min(u8::MAX as usize) as u8);
            for s in stages.iter().take(u8::MAX as usize) {
                out.push(s.stage);
                put_u64(out, s.count);
                put_u64(out, s.max_ns);
                put_u16(out, s.buckets.len().min(u16::MAX as usize) as u16);
                for (bucket, count) in s.buckets.iter().take(u16::MAX as usize) {
                    out.push(*bucket);
                    put_u64(out, *count);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The differential properties.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The single-pass zero-copy encoder and the independent two-buffer
    /// reference produce identical bytes for every message.
    #[test]
    fn encode_into_matches_reference(p in arb_packet()) {
        let reference = ref_encode(&p);
        let mut single_pass = Vec::new();
        p.encode_into(&mut single_pass);
        prop_assert_eq!(&reference, &single_pass);
        // And the owned-wrapper path is the same bytes again.
        prop_assert_eq!(&reference, &p.encode());
    }

    /// Round trip through both decode paths reproduces the message.
    #[test]
    fn decode_roundtrips(p in arb_packet()) {
        let bytes = p.encode();
        let owned = Packet::decode(&bytes).expect("decode");
        prop_assert_eq!(&owned, &p);
        let shared = std::sync::Arc::new(bytes);
        let borrowed = Packet::decode_shared(&shared).expect("decode_shared");
        prop_assert_eq!(&borrowed, &p);
    }

    /// `encoded_len` predicts the exact output length without encoding.
    #[test]
    fn encoded_len_is_exact(p in arb_packet()) {
        let mut out = Vec::new();
        p.encode_into(&mut out);
        prop_assert_eq!(out.len(), p.encoded_len());
    }

    /// Batches packed for the wire re-encode byte-identically through the
    /// reference too (exercises shared, non-zero-offset payload views).
    #[test]
    fn packed_batches_stay_differential(records in proptest::collection::vec((1u64..10_000, arb_data()), 0..40)) {
        let records: Vec<(Lsn, LogData)> = records.into_iter().map(|(l, d)| (Lsn(l), d)).collect();
        for batch in pack_batches(&records) {
            let p = Packet::bare(Message::WriteLog {
                client: ClientId(3),
                epoch: Epoch(2),
                records: batch,
            });
            let mut single_pass = Vec::new();
            p.encode_into(&mut single_pass);
            prop_assert_eq!(ref_encode(&p), single_pass);
        }
    }
}
