//! The safety spec every checked run refines: §3.1's holdings per
//! server, §4.2's force-then-acknowledge, the δ window and the
//! group-commit obligation rule, as one abstract state and the guarded
//! steps that move it. `McWorld` maps each action, and each `Force` and
//! forced ack its shards trace, onto `Step`s; the server world maps
//! every ack it sends; [`check_trace`] maps one recorded trace. A step
//! whose guard fails is refused under the guard's stable id
//! (docs/MODELCHECK.md has the table). `Hold` and `Complete` are
//! per-state projections, so a replayed prefix that was checked when
//! first explored may skip them; every other step runs on every replay.

use std::collections::{BTreeMap, BTreeSet};

use dlog_net::wire::{Message, NodeAddr, Packet};
use dlog_obs::{Stage, TraceEvent};
use dlog_types::{ClientId, Interval, LogId, Lsn};

use crate::model::{mc_payload, McConfig};

/// One client's durable holdings on one shard: client id, interval
/// list, and `(lsn, bytes)` for each present record its intervals
/// cover, in interval order.
pub(crate) type ClientImage = (u64, Vec<Interval>, Vec<(u64, Vec<u8>)>);

/// A refused step: the guard that failed, with enough detail to act on.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The guard's stable id.
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

type Checked = Result<(), Violation>;

/// One abstract transition. Servers and clients are ids, shards are
/// indices, and a server's row sets are by shard.
pub(crate) enum Step {
    /// `(client, lsn)`: the client wrote a record at `lsn`.
    Write(u64, Lsn),
    /// `(server, shard, rows, pending)`: a live shard durably holds
    /// `rows` and owes `pending` deferred force acks.
    Hold(u64, u64, Vec<ClientImage>, usize),
    /// `(server, client, lsn)`: the server forced the client to `lsn`.
    Force(u64, u64, Lsn),
    /// `(server, client, lsn, forced)`: the server acked the client
    /// through `lsn`. The wire shows every ack and the trace marks each
    /// forced one (`forced`), so a forced ack is stepped once per view.
    Ack(u64, u64, Lsn, bool),
    /// `(server, shard, owed, acked)`: a group-commit round acked the
    /// `acked` clients and owed an ack to each `owed` one.
    Flush(u64, u64, Vec<u64>, Vec<u64>),
    /// `(server, image)`: the server crashed holding `image`.
    Crash(u64, Vec<Vec<ClientImage>>),
    /// `(server, rows)`: the server recovered holding `rows`.
    Recover(u64, Vec<Vec<ClientImage>>),
    /// `(client, lsn)`: the client's completion point is `lsn`.
    Complete(u64, Lsn),
}

/// The abstract state. Completion points and pending obligations are
/// not kept: `Complete` and `Hold` bring them fresh to every check.
#[derive(Default)]
pub(crate) struct Spec {
    cfg: McConfig,
    /// Per (server, shard): its durable rows, frozen as the crash image
    /// while the server is down.
    held: BTreeMap<(u64, u64), Vec<ClientImage>>,
    /// (server, client, LSN) triples a server has forced.
    forced: BTreeSet<(u64, u64, Lsn)>,
    /// The cumulative ack each (server, client) pair has sent.
    pub(crate) acks: BTreeMap<(u64, u64), Lsn>,
    /// Each client's highest write.
    written: BTreeMap<u64, Lsn>,
}

/// `Ok` when `ok`, else a violation of `invariant`.
fn guard(ok: bool, invariant: &'static str, why: impl FnOnce() -> String) -> Checked {
    ok.then_some(()).ok_or_else(|| Violation {
        invariant,
        detail: why(),
    })
}

impl Spec {
    /// The initial state for a world shaped by `cfg`.
    pub(crate) fn new(cfg: &McConfig) -> Spec {
        let cfg = cfg.clone();
        Spec {
            cfg,
            ..Spec::default()
        }
    }

    /// Take `step` if its guard holds; after a refusal the state is
    /// unspecified.
    pub(crate) fn step(&mut self, step: Step) -> Checked {
        match step {
            Step::Write(client, lsn) => {
                let hi = self.written.entry(client).or_insert(lsn);
                *hi = (*hi).max(lsn);
            }
            Step::Hold(server, shard, rows, pending) => {
                self.check_rows(server, shard, &rows)?;
                let cap = self.cfg.coalesce_max_batch;
                guard(pending <= cap, "obligation-cap", || {
                    format!(
                        "server {server} shard {shard}: {pending} obligations over the cap {cap}"
                    )
                })?;
                self.held.insert((server, shard), rows);
            }
            Step::Force(server, client, lsn) => {
                self.forced.insert((server, client, lsn));
            }
            Step::Ack(server, client, lsn, true) => {
                let forced = self.forced.contains(&(server, client, lsn));
                guard(forced, "ack-after-force", || {
                    format!("server {server}: forced ack {lsn} to client {client} before its force")
                })?;
            }
            Step::Ack(server, client, lsn, false) => {
                let prev = self.acks.insert((server, client), lsn).unwrap_or(Lsn::ZERO);
                guard(lsn >= prev, "ack-monotonicity", || {
                    format!("server {server} acked {lsn:?} for client {client} after {prev:?}")
                })?;
            }
            Step::Flush(server, shard, owed, acked) => owed.iter().try_for_each(|c| {
                guard(acked.contains(c), "obligation-safety", || {
                    format!(
                        "server {server} shard {shard}: client {c}'s obligation dropped unacked"
                    )
                })
            })?,
            Step::Crash(server, image) => self.held.extend((0..).map(|k| (server, k)).zip(image)),
            Step::Recover(server, rows) => {
                for (k, now) in (0..).zip(rows) {
                    self.check_recovered(server, k, &now)?;
                    self.held.insert((server, k), now);
                }
            }
            Step::Complete(client, lsn) => self.check_completion(client, lsn)?,
        }
        Ok(())
    }

    /// Step the acks among the packets server `server` sent (the wire
    /// view).
    pub(crate) fn wire(&mut self, server: u64, out: &[(NodeAddr, Packet)]) -> Checked {
        out.iter().try_for_each(|(_, pkt)| match &pkt.msg {
            Message::NewHighLsn { client, lsn } => {
                self.step(Step::Ack(server, client.0, *lsn, false))
            }
            _ => Ok(()),
        })
    }

    /// Step one event of server `server`'s trace: a `Force`, or a forced
    /// `AckHighLsn` (detail low bit set). Other events move nothing.
    pub(crate) fn traced(&mut self, server: u64, e: &TraceEvent) -> Checked {
        match e.stage {
            Stage::Force => self.step(Step::Force(server, e.detail, Lsn(e.lsn))),
            Stage::AckHighLsn if e.detail & 1 == 1 => {
                self.step(Step::Ack(server, e.detail >> 1, Lsn(e.lsn), true))
            }
            _ => Ok(()),
        }
    }

    /// A shard holds only logs that hash to it (`router-stability`: one
    /// log, one shard, one ordered event loop), and each record present
    /// and byte-identical to the write (`readback-atomicity`: a packet's
    /// records become durable together or not at all).
    fn check_rows(&self, server: u64, shard: u64, rows: &[ClientImage]) -> Checked {
        for (client, intervals, records) in rows {
            let home = LogId::for_client(ClientId(*client)).shard(self.cfg.shards as usize) as u64;
            guard(home == shard, "router-stability", || {
                format!(
                    "server {server}: client {client} on shard {shard}, its log hashes to {home}"
                )
            })?;
            let mut stored = records.iter();
            for at in intervals.iter().flat_map(|iv| iv.lo.0..=iv.hi.0) {
                let want = mc_payload(*client, at, self.cfg.payload_len);
                let ok = stored.next() == Some(&(at, want));
                guard(ok, "readback-atomicity", || {
                    format!(
                        "server {server} shard {shard} client {client} lsn {at}: not as written"
                    )
                })?;
            }
        }
        Ok(())
    }

    /// Recovery reproduces exactly the image the crash froze: the same
    /// interval lists and byte-identical records.
    fn check_recovered(&self, server: u64, k: u64, now: &[ClientImage]) -> Checked {
        let image = self.held.get(&(server, k)).map_or(&[][..], Vec::as_slice);
        for (client, intervals, records) in image {
            let got = now.iter().find(|(c, _, _)| c == client);
            let got_ivs = got.map_or(&[][..], |(_, ivs, _)| ivs.as_slice());
            guard(got_ivs == intervals, "recovery-consistency", || {
                format!(
                    "server {server} shard {k} client {client}: intervals {got_ivs:?} after \
                     recovery, expected {intervals:?}"
                )
            })?;
            let lost = records
                .iter()
                .find(|r| !got.is_some_and(|(_, _, recs)| recs.contains(r)));
            guard(lost.is_none(), "recovery-consistency", || {
                format!("server {server} shard {k} client {client}: lost or corrupted {lost:?}")
            })?;
        }
        Ok(())
    }

    /// A client keeps at most δ writes beyond its completion point
    /// (`delta-window`), and every LSN through that point is one it
    /// wrote and is held by at least `need_n` servers, up or down
    /// (`durable-prefix`).
    fn check_completion(&self, client: u64, done: Lsn) -> Checked {
        let (delta, need) = (self.cfg.delta, self.cfg.need_n);
        let written = self.written.get(&client).copied().unwrap_or(Lsn::ZERO);
        let outstanding = done.distance(written).unwrap_or(0);
        guard(outstanding <= delta, "delta-window", || {
            format!("client {client}: {outstanding} records outstanding exceeds δ = {delta}")
        })?;
        guard(done <= written, "durable-prefix", || {
            format!("client {client}: completion {done:?} beyond highest write {written}")
        })?;
        (1..=done.0).map(Lsn).try_for_each(|at| {
            let holds = |s: &u64| {
                let mut rows = self
                    .held
                    .range((*s, 0)..=(*s, u64::MAX))
                    .flat_map(|(_, r)| r);
                rows.any(|(c, ivs, _)| *c == client && ivs.iter().any(|iv| iv.contains(at)))
            };
            let holders = (1..=self.cfg.servers).filter(holds).count();
            guard(holders >= need, "durable-prefix", || {
                format!(
                    "client {client}: lsn {at} completed but held by {holders} of {need} servers"
                )
            })
        })
    }
}

/// §4.2's force-before-ack over one ordered trace of server `server`
/// (or of every server, when they share one handle): each forced
/// `AckHighLsn` event must follow a `Force` event for the same client
/// and LSN. The run-time check of the `Durable` token that forced acks
/// are built from.
///
/// # Errors
/// The first forced ack without its force.
pub fn check_trace(server: u64, events: &[TraceEvent]) -> Result<(), Violation> {
    let mut spec = Spec::default();
    events.iter().try_for_each(|e| spec.traced(server, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlog_types::Epoch;

    const C: u64 = 1;

    fn spec() -> Spec {
        Spec::new(&McConfig::default())
    }

    /// Client `client`'s row holding `lo..=hi`, bytes as written.
    fn row(client: u64, lo: u64, hi: u64) -> ClientImage {
        let iv = Interval::new(Epoch(1), Lsn(lo), Lsn(hi));
        let records = (lo..=hi).map(|l| (l, mc_payload(client, l, 8))).collect();
        (client, vec![iv], records)
    }

    /// Feed `steps` to `spec`: every one but the last passes, and the
    /// last is refused by `guard`.
    fn refused(mut spec: Spec, steps: Vec<Step>, guard: &str) -> Violation {
        let n = steps.len();
        for (i, step) in steps.into_iter().enumerate() {
            if let Err(v) = spec.step(step) {
                assert_eq!((i + 1, v.invariant), (n, guard), "{}", v.detail);
                return v;
            }
        }
        panic!("no guard refused the steps; wanted {guard}");
    }

    /// write → hold → force → ack → flush → complete → crash →
    /// recover passes every guard.
    #[test]
    fn a_full_cycle_passes_every_guard() {
        let mut s = spec();
        let image = vec![vec![row(C, 1, 1)]];
        let cycle = [
            Step::Write(C, Lsn(1)),
            Step::Hold(1, 0, vec![row(C, 1, 1)], 1),
            Step::Hold(2, 0, vec![row(C, 1, 1)], 0),
            Step::Force(1, C, Lsn(1)),
            Step::Ack(1, C, Lsn(1), false),
            Step::Ack(1, C, Lsn(1), true),
            Step::Flush(1, 0, vec![C], vec![C]),
            Step::Complete(C, Lsn(1)),
            Step::Crash(1, image.clone()),
            // A down server's crash image still counts as a holder.
            Step::Complete(C, Lsn(1)),
            Step::Recover(1, image),
            Step::Complete(C, Lsn(1)),
        ];
        for (i, step) in cycle.into_iter().enumerate() {
            s.step(step).unwrap_or_else(|v| panic!("step {i}: {v:?}"));
        }
    }

    #[test]
    fn ack_after_force_refuses_a_forced_ack_no_force_covers() {
        // A force of a lower LSN does not cover the ack, nor does
        // another server's force.
        for force in [Step::Force(1, C, Lsn(1)), Step::Force(2, C, Lsn(2))] {
            let steps = vec![force, Step::Ack(1, C, Lsn(2), true)];
            refused(spec(), steps, "ack-after-force");
        }
    }

    #[test]
    fn ack_monotonicity_refuses_a_falling_ack() {
        let steps = vec![
            Step::Ack(1, C, Lsn(2), false),
            Step::Ack(1, C, Lsn(1), false),
        ];
        refused(spec(), steps, "ack-monotonicity");
    }

    #[test]
    fn durable_prefix_refuses_overstated_and_underheld_completions() {
        let v = refused(spec(), vec![Step::Complete(C, Lsn(1))], "durable-prefix");
        assert!(v.detail.contains("beyond highest write"), "{}", v.detail);
        // Written, but held by one server of the two it needs.
        let steps = vec![
            Step::Write(C, Lsn(1)),
            Step::Hold(1, 0, vec![row(C, 1, 1)], 0),
            Step::Complete(C, Lsn(1)),
        ];
        let v = refused(spec(), steps, "durable-prefix");
        assert!(v.detail.contains("held by 1 of 2"), "{}", v.detail);
    }

    #[test]
    fn readback_atomicity_refuses_a_missing_or_altered_record() {
        let (client, ivs, mut records) = row(C, 1, 2);
        records.truncate(1);
        let hold = Step::Hold(1, 0, vec![(client, ivs.clone(), records.clone())], 0);
        refused(spec(), vec![hold], "readback-atomicity");
        records.push((2, b"torn".to_vec()));
        let hold = Step::Hold(1, 0, vec![(client, ivs, records)], 0);
        refused(spec(), vec![hold], "readback-atomicity");
    }

    #[test]
    fn delta_window_refuses_a_write_past_the_window() {
        let mut steps: Vec<Step> = (1..=3).map(|l| Step::Write(C, Lsn(l))).collect();
        steps.push(Step::Complete(C, Lsn::ZERO));
        refused(spec(), steps, "delta-window");
    }

    #[test]
    fn obligation_safety_refuses_a_silent_discharge() {
        let flush = Step::Flush(1, 0, vec![C], vec![]);
        refused(spec(), vec![flush], "obligation-safety");
    }

    #[test]
    fn obligation_cap_refuses_an_overfull_batch() {
        let cap = McConfig::default().coalesce_max_batch;
        refused(
            spec(),
            vec![Step::Hold(1, 0, vec![], cap + 1)],
            "obligation-cap",
        );
    }

    #[test]
    fn recovery_consistency_refuses_a_lost_tail() {
        let steps = vec![
            Step::Crash(1, vec![vec![row(C, 1, 2)]]),
            Step::Recover(1, vec![vec![row(C, 1, 1)]]),
        ];
        let v = refused(spec(), steps, "recovery-consistency");
        assert!(v.detail.contains("intervals"), "{}", v.detail);
    }

    #[test]
    fn router_stability_refuses_a_log_on_a_foreign_shard() {
        let spec = Spec::new(&McConfig {
            shards: 2,
            ..McConfig::default()
        });
        let foreign = 1 - LogId::for_client(ClientId(C)).shard(2) as u64;
        let hold = Step::Hold(1, foreign, vec![row(C, 1, 1)], 0);
        refused(spec, vec![hold], "router-stability");
    }

    fn ev(seq: u64, stage: Stage, lsn: u64, detail: u64) -> TraceEvent {
        TraceEvent {
            seq,
            stage,
            lsn,
            detail,
        }
    }

    #[test]
    fn the_trace_check_wants_a_force_before_each_forced_ack_only() {
        // client 3, lsn 10: forced ack preceded by its force; an
        // unsolicited (lazy) ack needs no force.
        let good = [
            ev(0, Stage::Force, 10, 3),
            ev(1, Stage::AckHighLsn, 10, (3 << 1) | 1),
            ev(2, Stage::AckHighLsn, 11, 3 << 1),
        ];
        assert!(check_trace(1, &good).is_ok());
        // A force that comes after its ack does not cover it.
        let bad = [
            ev(0, Stage::AckHighLsn, 10, (3 << 1) | 1),
            ev(1, Stage::Force, 10, 3),
        ];
        let v = check_trace(1, &bad).unwrap_err();
        assert_eq!(v.invariant, "ack-after-force");
        assert!(v.detail.contains("client 3"), "{}", v.detail);
    }
}
