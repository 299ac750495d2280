//! The deterministic stage-event trace: a bounded ring of typed events
//! keyed by LSN, so one record's full path — client write, packet send,
//! server ingest, force, acknowledgment, archive tick — can be
//! reconstructed after the fact.
//!
//! Events carry **no wall-clock data**: a sequence number, a stage tag,
//! an LSN, and a stage-specific detail word. Under a deterministic
//! schedule (seeded faults, synchronous pumping) two runs therefore
//! produce byte-identical traces — which `tests/trace_determinism.rs`
//! asserts, and which makes trace diffs a usable debugging tool.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// A pipeline stage that can emit trace events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Client buffered a record (`lsn` = assigned LSN, `detail` = bytes).
    ClientWrite,
    /// An endpoint sent a packet (`lsn` = the packet's LSN hint,
    /// `detail` = destination node address).
    PacketSend,
    /// Server ingested a write/force batch (`lsn` = highest LSN in the
    /// batch, `detail` = records accepted).
    ServerIngest,
    /// Storage forced a client's records durable (`lsn` = the client's
    /// stored high LSN, `detail` = client id).
    Force,
    /// Server acknowledged with `NewHighLsn` (`lsn` = acked LSN,
    /// `detail` = `client_id << 1 | forced`, where `forced` is 1 for a
    /// `ForceLog` reply and 0 for an unsolicited lazy ack).
    AckHighLsn,
    /// Archive tier uploaded during an idle tick (`lsn` = last manifest
    /// LSN, `detail` = archived bytes).
    ArchiveTick,
    /// Group-commit round: one physical force covering every client
    /// whose `ForceLog` arrived within the coalescing window (`lsn` =
    /// highest LSN forced in the round, `detail` = batch size in
    /// clients). The stage histogram records **batch sizes**, not
    /// latencies — each round samples its client count.
    GroupCommit,
    /// A server crashed, losing volatile state — sessions, unacked
    /// counters, and pending group-commit obligations — while NVRAM and
    /// the on-disk stream survive (`lsn` = durable stream end position,
    /// `detail` = server id). Emitted by harnesses that simulate
    /// crashes (the model checker, the soak cluster), so counterexample
    /// traces show exactly where volatile state was lost.
    Crash,
    /// A crashed server completed recovery — checkpoint load, tail
    /// scan, NVRAM replay — and is serving again (`lsn` = durable
    /// stream end after recovery, `detail` = server id).
    Recover,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 9;

    /// Every stage, in tag order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::ClientWrite,
        Stage::PacketSend,
        Stage::ServerIngest,
        Stage::Force,
        Stage::AckHighLsn,
        Stage::ArchiveTick,
        Stage::GroupCommit,
        Stage::Crash,
        Stage::Recover,
    ];

    /// Dense index (also the wire tag).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Stage::ClientWrite => 0,
            Stage::PacketSend => 1,
            Stage::ServerIngest => 2,
            Stage::Force => 3,
            Stage::AckHighLsn => 4,
            Stage::ArchiveTick => 5,
            Stage::GroupCommit => 6,
            Stage::Crash => 7,
            Stage::Recover => 8,
        }
    }

    /// Wire tag.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self.index() as u8
    }

    /// Decode a wire tag.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<Stage> {
        Stage::ALL.get(v as usize).copied()
    }

    /// Human-readable stage name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::ClientWrite => "client_write",
            Stage::PacketSend => "packet_send",
            Stage::ServerIngest => "server_ingest",
            Stage::Force => "force",
            Stage::AckHighLsn => "ack_high_lsn",
            Stage::ArchiveTick => "archive_tick",
            Stage::GroupCommit => "group_commit",
            Stage::Crash => "crash",
            Stage::Recover => "recover",
        }
    }
}

/// One trace event. Deliberately `Copy` and wall-clock-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global emission order within one [`crate::Obs`] handle.
    pub seq: u64,
    /// Which stage emitted it.
    pub stage: Stage,
    /// The LSN the event is keyed by (0 when not applicable).
    pub lsn: u64,
    /// Stage-specific detail word (see [`Stage`] docs).
    pub detail: u64,
}

struct Ring {
    buf: VecDeque<TraceEvent>,
    pushed: u64,
    dropped: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s. The buffer is preallocated
/// at construction, so pushes never allocate; when full, the oldest
/// event is dropped and counted.
pub struct TraceLog {
    cap: usize,
    ring: Mutex<Ring>,
}

impl TraceLog {
    /// A ring holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> TraceLog {
        let cap = capacity.max(1);
        TraceLog {
            cap,
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(cap),
                pushed: 0,
                dropped: 0,
            }),
        }
    }

    /// Append an event, evicting the oldest when full. A poisoned ring is
    /// used anyway (`dlog_types::unpoisoned`'s policy, inline to keep
    /// this crate's one dependency): a post-mortem needs its events.
    pub fn push(&self, ev: TraceEvent) {
        let mut g = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if g.buf.len() == self.cap {
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(ev);
        g.pushed += 1;
    }

    /// The retained events ordered by `seq`, plus lifetime totals
    /// `(events, dropped)`.
    #[must_use]
    pub fn snapshot(&self) -> (Vec<TraceEvent>, u64, u64) {
        let g = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let mut events: Vec<TraceEvent> = g.buf.iter().copied().collect();
        events.sort_by_key(|e| e.seq);
        (events, g.pushed, g.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, stage: Stage, lsn: u64, detail: u64) -> TraceEvent {
        TraceEvent {
            seq,
            stage,
            lsn,
            detail,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let t = TraceLog::new(2);
        for i in 0..5u64 {
            t.push(ev(i, Stage::ClientWrite, i, 0));
        }
        let (events, pushed, dropped) = t.snapshot();
        assert_eq!(pushed, 5);
        assert_eq!(dropped, 3);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [3, 4]);
    }

    #[test]
    fn a_poisoned_ring_still_records_and_reports() {
        let t = TraceLog::new(4);
        t.push(ev(0, Stage::AckHighLsn, 10, (3 << 1) | 1));
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = t.ring.lock().unwrap();
                panic!("dies holding the ring");
            })
            .join()
        });
        assert!(died.is_err() && t.ring.is_poisoned());
        t.push(ev(1, Stage::Force, 10, 3));
        let (events, pushed, _) = t.snapshot();
        assert_eq!(pushed, 2);
        // The forced ack that no force precedes is still there to be
        // caught, not hidden by an empty snapshot.
        let stages: Vec<Stage> = events.iter().map(|e| e.stage).collect();
        assert_eq!(stages, [Stage::AckHighLsn, Stage::Force]);
    }

    #[test]
    fn stage_tags_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_u8(s.as_u8()), Some(s));
        }
        assert_eq!(Stage::from_u8(9), None);
    }
}
