//! Property tests for the wire format: arbitrary messages survive
//! encode/decode, corruption never yields a wrong packet (it fails), and
//! batch packing always respects the packet size.

use proptest::prelude::*;

use dlog_net::wire::{
    pack_batches, Message, Packet, Request, Response, StageStats, MAX_PACKET_BYTES,
};
use dlog_types::{ClientId, Epoch, Interval, IntervalList, LogData, LogRecord, Lsn};

fn arb_data() -> impl Strategy<Value = LogData> {
    proptest::collection::vec(any::<u8>(), 0..300).prop_map(LogData::from)
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (1u64..1000, 1u64..100, any::<bool>(), arb_data()).prop_map(|(lsn, epoch, present, data)| {
        LogRecord {
            lsn: Lsn(lsn),
            epoch: Epoch(epoch),
            present,
            data: if present { data } else { LogData::empty() },
        }
    })
}

fn arb_lsn_batch() -> impl Strategy<Value = Vec<(Lsn, LogData)>> {
    proptest::collection::vec((1u64..10_000, arb_data()), 0..8)
        .prop_map(|v| v.into_iter().map(|(l, d)| (Lsn(l), d)).collect())
}

fn arb_interval_list() -> impl Strategy<Value = IntervalList> {
    proptest::collection::vec((1u64..6, 1u64..8), 0..5).prop_map(|steps| {
        let mut list = IntervalList::new();
        let mut epoch = 0u64;
        let mut lo = 1u64;
        for (de, len) in steps {
            epoch += de;
            let hi = lo + len;
            list.push(Interval::new(Epoch(epoch), Lsn(lo), Lsn(hi)))
                .unwrap();
            lo = hi + 2;
        }
        list
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    let client = (1u64..50).prop_map(ClientId);
    prop_oneof![
        client
            .clone()
            .prop_map(|c| Request::IntervalList { client: c }),
        (client.clone(), 1u64..9999, 1u32..512).prop_map(|(c, l, m)| Request::ReadLogForward {
            client: c,
            lsn: Lsn(l),
            max_records: m
        }),
        (client.clone(), 1u64..9999, 1u32..512).prop_map(|(c, l, m)| Request::ReadLogBackward {
            client: c,
            lsn: Lsn(l),
            max_records: m
        }),
        (
            client.clone(),
            1u64..100,
            proptest::collection::vec(arb_record(), 0..5)
        )
            .prop_map(|(c, e, records)| Request::CopyLog {
                client: c,
                epoch: Epoch(e),
                records
            }),
        (client, 1u64..100).prop_map(|(c, e)| Request::InstallCopies {
            client: c,
            epoch: Epoch(e)
        }),
        (1u64..50).prop_map(|g| Request::GenRead { generator: g }),
        (1u64..50, 1u64..10_000).prop_map(|(g, v)| Request::GenWrite {
            generator: g,
            value: v
        }),
        Just(Request::Status),
        Just(Request::Stats),
    ]
}

fn arb_stage_stats() -> impl Strategy<Value = StageStats> {
    (
        0u8..7,
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec((0u8..64, any::<u64>()), 0..6),
    )
        .prop_map(|(stage, count, max_ns, buckets)| StageStats {
            stage,
            count,
            max_ns,
            buckets,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        arb_interval_list().prop_map(|intervals| Response::Intervals { intervals }),
        proptest::collection::vec(arb_record(), 0..6)
            .prop_map(|records| Response::Records { records }),
        Just(Response::Ok),
        (0u16..10, "[a-z ]{0,40}").prop_map(|(code, detail)| Response::Err { code, detail }),
        (0u64..u64::MAX).prop_map(|value| Response::GenValue { value }),
        proptest::collection::vec(any::<u64>(), 17).prop_map(|v| Response::Status {
            records_stored: v[0],
            duplicates_ignored: v[1],
            naks_sent: v[2],
            writes_shed: v[3],
            rpcs: v[4],
            forces_acked: v[5],
            clients: v[6],
            on_disk_bytes: v[7],
            tracks_flushed: v[8],
            archived_bytes: v[9],
            pending_upload_bytes: v[10],
            last_manifest_lsn: v[11],
            upload_retries: v[12],
            coalesced_forces: v[13],
            group_commits: v[14],
            shard: v[15],
            shards: v[16],
        }),
        (
            proptest::collection::vec(arb_stage_stats(), 0..7),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(
                |(
                    stages,
                    trace_events,
                    trace_dropped,
                    ingest_allocs,
                    ingest_records,
                    shard,
                    shards,
                )| {
                    Response::Stats {
                        stages,
                        trace_events,
                        trace_dropped,
                        ingest_allocs,
                        ingest_records,
                        shard,
                        shards,
                    }
                },
            ),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    let client = (1u64..50).prop_map(ClientId);
    prop_oneof![
        (any::<u64>(), any::<u64>())
            .prop_map(|(incarnation, isn)| Message::Syn { incarnation, isn }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(incarnation, isn, ack)| {
            Message::SynAck {
                incarnation,
                isn,
                ack,
            }
        }),
        any::<u64>().prop_map(|ack| Message::HandshakeAck { ack }),
        (client.clone(), 1u64..100, arb_lsn_batch()).prop_map(|(c, e, records)| {
            Message::WriteLog {
                client: c,
                epoch: Epoch(e),
                records,
            }
        }),
        (client.clone(), 1u64..100, arb_lsn_batch()).prop_map(|(c, e, records)| {
            Message::ForceLog {
                client: c,
                epoch: Epoch(e),
                records,
            }
        }),
        (client.clone(), 1u64..100, 1u64..9999).prop_map(|(c, e, l)| Message::NewInterval {
            client: c,
            epoch: Epoch(e),
            starting_lsn: Lsn(l)
        }),
        (client.clone(), 1u64..9999).prop_map(|(c, l)| Message::NewHighLsn {
            client: c,
            lsn: Lsn(l)
        }),
        (client, 1u64..500, 0u64..500).prop_map(|(c, lo, extra)| Message::MissingInterval {
            client: c,
            lo: Lsn(lo),
            hi: Lsn(lo + extra)
        }),
        (any::<u64>(), arb_request()).prop_map(|(id, body)| Message::Request { id, body }),
        (any::<u64>(), arb_response()).prop_map(|(id, body)| Message::Response { id, body }),
    ]
}

/// The message kind and, for RPC envelopes, the body kind. The matches
/// name every variant and have no wildcard, so a new variant does not
/// compile here until it is named; `arb_message_generates_every_kind`
/// then fails until `arb_message` generates it.
fn kind(msg: &Message) -> (&'static str, Option<&'static str>) {
    match msg {
        Message::Syn { .. } => ("Syn", None),
        Message::SynAck { .. } => ("SynAck", None),
        Message::HandshakeAck { .. } => ("HandshakeAck", None),
        Message::WriteLog { .. } => ("WriteLog", None),
        Message::ForceLog { .. } => ("ForceLog", None),
        Message::NewInterval { .. } => ("NewInterval", None),
        Message::NewHighLsn { .. } => ("NewHighLsn", None),
        Message::MissingInterval { .. } => ("MissingInterval", None),
        Message::Request { body, .. } => (
            "Request",
            Some(match body {
                Request::IntervalList { .. } => "IntervalList",
                Request::ReadLogForward { .. } => "ReadLogForward",
                Request::ReadLogBackward { .. } => "ReadLogBackward",
                Request::CopyLog { .. } => "CopyLog",
                Request::InstallCopies { .. } => "InstallCopies",
                Request::GenRead { .. } => "GenRead",
                Request::GenWrite { .. } => "GenWrite",
                Request::Status => "Status",
                Request::Stats => "Stats",
            }),
        ),
        Message::Response { body, .. } => (
            "Response",
            Some(match body {
                Response::Intervals { .. } => "Intervals",
                Response::Records { .. } => "Records",
                Response::Ok => "Ok",
                Response::Err { .. } => "Err",
                Response::GenValue { .. } => "GenValue",
                Response::Status { .. } => "Status",
                Response::Stats { .. } => "Stats",
            }),
        ),
    }
}

/// The properties below cover every kind: 512 cases of `arb_message`
/// (the same deterministic seeds the properties draw) produce all 10
/// message kinds, 9 request kinds and 7 response kinds.
#[test]
fn arb_message_generates_every_kind() {
    let mut seen = std::collections::BTreeSet::new();
    proptest::run_cases(&ProptestConfig::with_cases(512), &arb_message(), |msg| {
        let (kind, body) = kind(&msg);
        seen.insert(kind.to_string());
        if let Some(body) = body {
            seen.insert(format!("{kind}::{body}"));
        }
    });
    assert_eq!(seen.len(), 10 + 9 + 7, "kinds generated: {seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn roundtrip(msg in arb_message(), conn in any::<u64>(), seq in any::<u64>(), alloc in any::<u64>(), log in any::<u64>()) {
        let p = Packet { conn, seq, alloc, log, msg };
        let bytes = p.encode();
        let q = Packet::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(p, q);
    }

    /// Any single-byte corruption is either detected (decode error) —
    /// never silently accepted as a *different* packet.
    #[test]
    fn corruption_detected(msg in arb_message(), idx_seed in any::<usize>(), flip in 1u8..=255) {
        let p = Packet::bare(msg);
        let mut bytes = p.encode().to_vec();
        let idx = idx_seed % bytes.len();
        bytes[idx] ^= flip;
        match Packet::decode(&bytes) {
            Err(_) => {}
            Ok(q) => prop_assert_eq!(&q, &p, "corruption at {} yielded a different packet", idx),
        }
    }

    /// Truncations never decode.
    #[test]
    fn truncation_detected(msg in arb_message(), cut_seed in any::<usize>()) {
        let p = Packet::bare(msg);
        let bytes = p.encode();
        let cut = cut_seed % bytes.len();
        prop_assert!(Packet::decode(&bytes[..cut]).is_err());
    }

    /// pack_batches: preserves order and content, respects the MTU for
    /// normally-sized records, never emits an empty batch.
    #[test]
    fn packing_invariants(records in proptest::collection::vec((1u64..100_000, arb_data()), 0..60)) {
        let records: Vec<(Lsn, LogData)> = records.into_iter().map(|(l, d)| (Lsn(l), d)).collect();
        let batches = pack_batches(&records);
        let flat: Vec<(Lsn, LogData)> = batches.iter().flatten().cloned().collect();
        prop_assert_eq!(flat, records.clone());
        for batch in &batches {
            prop_assert!(!batch.is_empty());
            let msg = Message::WriteLog {
                client: ClientId(1),
                epoch: Epoch(1),
                records: batch.clone(),
            };
            let len = Packet::bare(msg).encoded_len();
            // Oversized single records may exceed the MTU alone; batches
            // of 2+ never do.
            if batch.len() > 1 {
                prop_assert!(len <= MAX_PACKET_BYTES, "batch of {} is {} bytes", batch.len(), len);
            }
        }
    }
}
