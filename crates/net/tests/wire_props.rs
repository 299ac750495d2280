//! Property tests for the wire format: arbitrary messages survive
//! encode/decode, corruption never yields a wrong packet (it fails), and
//! batch packing always respects the packet size.

use proptest::prelude::*;

use dlog_net::wire::{pack_batches, Message, Packet, Request, Response, MAX_PACKET_BYTES};
use dlog_types::{ClientId, Epoch, LogData, LogId, Lsn};

mod common;
use common::{arb_data, arb_message, arb_packet};

/// The message kind and, for RPC envelopes, the body kind. The matches
/// name every variant and have no wildcard, so a new variant does not
/// compile here until it is named; `arb_message_generates_every_kind`
/// then fails until `arb_message` generates it.
fn kind(msg: &Message) -> (&'static str, Option<&'static str>) {
    match msg {
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

/// The properties here and in `wire_diff.rs` cover every kind: 512 cases
/// of `arb_message`, and of `arb_packet` (the same deterministic seeds
/// the properties draw), each produce all 7 message kinds, 9 request
/// kinds and 7 response kinds; and the packets carry both zero and
/// nonzero routing hints.
#[test]
fn arb_message_generates_every_kind() {
    let config = ProptestConfig::with_cases(512);
    let mut messages = Vec::new();
    proptest::run_cases(&config, &arb_message(), |msg| messages.push(msg));
    let mut packets = Vec::new();
    let mut hints = std::collections::BTreeSet::new();
    proptest::run_cases(&config, &arb_packet(), |p| {
        hints.insert(p.log != 0);
        packets.push(p.msg);
    });
    assert_eq!(hints.len(), 2, "routing hints drawn: only {hints:?}");
    for drawn in [messages, packets] {
        let mut seen = std::collections::BTreeSet::new();
        for msg in &drawn {
            let (kind, body) = kind(msg);
            seen.insert(kind.to_string());
            if let Some(body) = body {
                seen.insert(format!("{kind}::{body}"));
            }
        }
        assert_eq!(seen.len(), 7 + 9 + 7, "kinds generated: {seen:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn roundtrip(p in arb_packet()) {
        let bytes = p.encode();
        let q = Packet::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(p, q);
    }

    /// The fixed-offset hint read a routed transport does before decode
    /// agrees with the decoded header.
    #[test]
    fn peek_route_hint_reads_the_log_field(p in arb_packet()) {
        let want = (p.log != 0).then_some(LogId(p.log));
        prop_assert_eq!(Packet::peek_route_hint(&p.encode()), want);
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
