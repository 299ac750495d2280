//! The one set of wire-message generators, shared by the property suite
//! (`wire_props.rs`, whose `arb_message_generates_every_kind` pins that
//! [`arb_message`] reaches every message, request and response kind) and
//! the differential battery (`wire_diff.rs`).

use proptest::prelude::*;

use dlog_net::wire::{Message, Packet, Request, Response, StageStats};
use dlog_types::{ClientId, Epoch, Interval, IntervalList, LogData, LogRecord, Lsn};

pub fn arb_data() -> impl Strategy<Value = LogData> {
    proptest::collection::vec(any::<u8>(), 0..300).prop_map(LogData::from)
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (1u64..1000, 1u64..100, any::<bool>(), arb_data()).prop_map(|(lsn, epoch, present, data)| {
        if present {
            LogRecord::present(Lsn(lsn), Epoch(epoch), data)
        } else {
            LogRecord::not_present(Lsn(lsn), Epoch(epoch))
        }
    })
}

fn arb_batch() -> impl Strategy<Value = Vec<(Lsn, LogData)>> {
    proptest::collection::vec((1u64..10_000, arb_data()), 0..8)
        .prop_map(|v| v.into_iter().map(|(l, d)| (Lsn(l), d)).collect())
}

fn arb_interval_list() -> impl Strategy<Value = IntervalList> {
    proptest::collection::vec((1u64..5, 1u64..500, 0u64..40), 0..6).prop_map(|triples| {
        let mut list = IntervalList::new();
        let mut lo = 1u64;
        let mut epoch = 1u64;
        for (de, dlo, span) in triples {
            epoch += de;
            lo += dlo;
            let hi = lo + span;
            list.push(Interval::new(Epoch(epoch), Lsn(lo), Lsn(hi)))
                .expect("epochs strictly increase");
            lo = hi;
        }
        list
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    let client = (1u64..50).prop_map(ClientId);
    prop_oneof![
        (client.clone(), any::<u32>())
            .prop_map(|(client, first)| Request::IntervalList { client, first }),
        (client.clone(), 1u64..10_000, 1u32..512).prop_map(|(client, l, m)| {
            Request::ReadLogForward {
                client,
                lsn: Lsn(l),
                max_records: m,
            }
        }),
        (client.clone(), 1u64..10_000, 1u32..512).prop_map(|(client, l, m)| {
            Request::ReadLogBackward {
                client,
                lsn: Lsn(l),
                max_records: m,
            }
        }),
        (
            client.clone(),
            1u64..100,
            proptest::collection::vec(arb_record(), 0..5)
        )
            .prop_map(|(client, e, records)| Request::CopyLog {
                client,
                epoch: Epoch(e),
                records
            }),
        (client, 1u64..100).prop_map(|(client, e)| Request::InstallCopies {
            client,
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
        0u8..9,
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
        (arb_interval_list(), any::<bool>())
            .prop_map(|(intervals, more)| Response::Intervals { intervals, more }),
        proptest::collection::vec(arb_record(), 0..6)
            .prop_map(|records| Response::Records { records }),
        Just(Response::Ok),
        (0u16..10, "[a-zA-Z0-9 :_-]{0,40}")
            .prop_map(|(code, detail)| Response::Err { code, detail }),
        any::<u64>().prop_map(|value| Response::GenValue { value }),
        proptest::collection::vec(any::<u64>(), 16).prop_map(|v| Response::Status {
            records_stored: v[0],
            duplicates_ignored: v[1],
            naks_sent: v[2],
            rpcs: v[3],
            forces_acked: v[4],
            clients: v[5],
            on_disk_bytes: v[6],
            tracks_flushed: v[7],
            archived_bytes: v[8],
            pending_upload_bytes: v[9],
            last_manifest_lsn: v[10],
            upload_retries: v[11],
            coalesced_forces: v[12],
            group_commits: v[13],
            shard: v[14],
            shards: v[15],
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

pub fn arb_message() -> impl Strategy<Value = Message> {
    let client = (1u64..50).prop_map(ClientId);
    prop_oneof![
        (client.clone(), 1u64..100, arb_batch()).prop_map(|(client, e, records)| {
            Message::WriteLog {
                client,
                epoch: Epoch(e),
                records,
            }
        }),
        (client.clone(), 1u64..100, arb_batch()).prop_map(|(client, e, records)| {
            Message::ForceLog {
                client,
                epoch: Epoch(e),
                records,
            }
        }),
        (client.clone(), 1u64..100, 1u64..10_000).prop_map(|(client, e, l)| {
            Message::NewInterval {
                client,
                epoch: Epoch(e),
                starting_lsn: Lsn(l),
            }
        }),
        (client.clone(), 1u64..10_000).prop_map(|(client, l)| Message::NewHighLsn {
            client,
            lsn: Lsn(l)
        }),
        (client, 1u64..10_000, 0u64..500).prop_map(|(client, lo, span)| {
            Message::MissingInterval {
                client,
                lo: Lsn(lo),
                hi: Lsn(lo + span),
            }
        }),
        (any::<u64>(), arb_request()).prop_map(|(id, body)| Message::Request { id, body }),
        (any::<u64>(), arb_response()).prop_map(|(id, body)| Message::Response { id, body }),
    ]
}

/// Half the packets carry no routing hint (`log` 0), as a bare packet does.
pub fn arb_packet() -> impl Strategy<Value = Packet> {
    (prop_oneof![Just(0u64), any::<u64>()], arb_message())
        .prop_map(|(log, msg)| Packet { log, msg })
}
