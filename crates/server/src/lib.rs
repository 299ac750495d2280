//! The log-server node: protocol handling on top of the storage engine.
//!
//! A log server implements the interface of Figure 4-1 (§4.2):
//!
//! * asynchronous `WriteLog` / `ForceLog` messages carrying batches of log
//!   records, acknowledged (for forces) by `NewHighLSN`;
//! * **gap detection**: a batch whose LSNs are not contiguous with the
//!   client's stored records is refused and answered with a prompt
//!   `MissingInterval` NAK; the client either resends the gap or
//!   authorizes a fresh interval with `NewInterval`;
//! * **duplicate suppression by LSN**: re-delivered records at or below
//!   the stored high LSN are ignored, which is the paper's lightweight
//!   alternative to connection state for small records;
//! * strict RPCs for the rare operations: `IntervalList`,
//!   `ReadLogForward` / `ReadLogBackward`, and the recovery pair
//!   `CopyLog` / `InstallCopies`;
//! * **every batch is ingested**: §4.2 permits an overloaded server to
//!   ignore `WriteLog`/`ForceLog`, and this server never does;
//! * hosting of **generator state representatives** (Appendix I) so the
//!   replicated epoch generator needs no extra nodes.
//!
//! [`LogServer::handle`] is sans-I/O — it maps one incoming packet to a
//! list of outgoing packets — so the full protocol is unit-testable
//! without threads; the one event loop in [`shard`] drives it over any
//! [`dlog_net::Endpoint`], once per shard ([`runner::ServerRunner`] is the
//! one-shard case).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]
#![warn(missing_docs)]

pub mod gen;
pub mod runner;
pub mod shard;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlog_archive::{merge_interval_lists, ArchiveReader, Archiver, ObjectStore};
use dlog_net::wire::{codes, Message, NodeAddr, Packet, Request, Response, MAX_PACKET_BYTES};
use dlog_storage::frame::{Frame, ENVELOPE_BYTES};
use dlog_storage::{Durable, LogStore, RunRead, FRAME_READ_WINDOW};
use dlog_types::{ClientId, DlogError, Epoch, IntervalList, LogData, Lsn, Result, ServerId};

use crate::gen::GenStore;

/// Per-client protocol state kept by the server.
#[derive(Debug, Default)]
struct Session {
    /// A `NewInterval` authorization: the next noncontiguous record the
    /// server will accept as the start of a fresh interval.
    pending_interval: Option<(Epoch, Lsn)>,
    /// Where acknowledgments should be sent (last address seen).
    last_addr: Option<NodeAddr>,
}

/// Cap on records packed into one read response.
const READ_BATCH: u32 = 512;

/// Bytes a `Records` or `Intervals` reply carries, leaving room for the
/// packet and response headers under [`MAX_PACKET_BYTES`].
const REPLY_BUDGET: usize = MAX_PACKET_BYTES - 128;

/// Intervals in one `Intervals` page: each is three u64s on the wire.
const INTERVALS_PER_PAGE: usize = REPLY_BUDGET / 24;

/// Server behaviour knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// This server's identity.
    pub id: ServerId,
    /// Push an unsolicited `NewHighLSN` after this many buffered (unforced)
    /// records from a client ("asynchronously requested positive
    /// acknowledgments", §4.2). 0 disables.
    pub ack_every: u64,
    /// Group-commit coalescing window: a `ForceLog` ack may be deferred
    /// up to this long so forces from concurrently-waiting clients share
    /// one physical durability round. The window is the *maximum* extra
    /// latency under sustained load — the event loop flushes the pending
    /// batch as soon as its inbox drains. Zero (the default) commits
    /// each force before the handler returns: the same group commit,
    /// with nothing deferred.
    pub coalesce_window: Duration,
    /// Flush the pending group-commit batch early once this many clients
    /// are waiting, regardless of the window.
    pub coalesce_max_batch: usize,
    /// Index of the shard this instance serves (0 when unsharded). Only
    /// identity: routing happens in the [`shard`] supervisor before a
    /// packet reaches [`LogServer::handle_into`].
    pub shard: u64,
    /// Total shards in the owning process (1 when unsharded). Reported in
    /// `Status`/`Stats` so operators can tell a shard row from a whole
    /// server.
    pub shards: u64,
}

impl ServerConfig {
    /// Defaults for a server with the given id.
    #[must_use]
    pub fn new(id: ServerId) -> Self {
        ServerConfig {
            id,
            ack_every: 64,
            coalesce_window: Duration::ZERO,
            coalesce_max_batch: 64,
            shard: 0,
            shards: 1,
        }
    }

    /// The same configuration rebadged for shard `shard` of `shards`.
    #[must_use]
    pub fn for_shard(mut self, shard: u64, shards: u64) -> Self {
        self.shard = shard;
        self.shards = shards.max(1);
        self
    }
}

/// Protocol-level counters (fed into the E3 capacity experiment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Packets handled.
    pub packets_in: u64,
    /// Packets emitted.
    pub packets_out: u64,
    /// Records accepted and stored.
    pub records_stored: u64,
    /// Duplicate records ignored (LSN-based duplicate suppression).
    pub duplicates_ignored: u64,
    /// `MissingInterval` NAKs sent.
    pub naks_sent: u64,
    /// RPC requests served.
    pub rpcs: u64,
    /// Forces acknowledged.
    pub forces_acked: u64,
    /// `ForceLog` requests taken into a group-commit obligation: every
    /// one, at any window.
    pub coalesced_forces: u64,
    /// Physical group-commit rounds flushed. Amortization shows as
    /// `coalesced_forces / group_commits` > 1; at a zero window every
    /// force is a round of its own and the ratio is 1.0.
    pub group_commits: u64,
    /// Replies the transport failed to send, as network loss: on UDP, a
    /// full send buffer (`WouldBlock`).
    pub replies_shed: u64,
    /// Replies the transport refused as over-size; an RPC's client got
    /// a `PROTOCOL` error instead.
    pub replies_refused: u64,
}

/// The archive tier attached to a server: the background archiver, a
/// reader over the newest manifest for serving pruned positions, and the
/// tick throttle.
struct ArchiveTier {
    archiver: Archiver,
    objects: Arc<dyn ObjectStore>,
    reader: Option<ArchiveReader>,
    interval: Duration,
    last_tick: Option<Instant>,
}

/// A log-server node.
pub struct LogServer {
    config: ServerConfig,
    store: LogStore,
    gens: GenStore,
    sessions: HashMap<ClientId, Session>,
    /// Unforced records per client since the last ack.
    unacked: HashMap<ClientId, u64>,
    stats: ServerStats,
    archive: Option<ArchiveTier>,
    obs: dlog_obs::Obs,
    /// Clients whose `ForceLog` ack is deferred into the next group
    /// commit, with the address each ack must go to. A `Vec` (not a map)
    /// keeps the fan-out order deterministic: first-force order.
    pending_forces: Vec<(ClientId, NodeAddr)>,
    /// When the oldest deferred force arrived; the coalescing window is
    /// measured from here. A zero window defers nothing and never sets it.
    coalesce_since: Option<Instant>,
    /// The clients of the round being flushed, as `force_batch` takes
    /// them; kept so that a round allocates nothing after warm-up.
    force_clients: Vec<ClientId>,
    /// Allocations observed on the handling thread during write/force
    /// ingest (`dlog-alloc` thread gauge deltas): the numerator of the
    /// `allocs_per_write` gauge served by `Request::Stats`.
    ingest_allocs: u64,
    /// Records offered to ingest (accepted + duplicates): the
    /// denominator of `allocs_per_write`.
    ingest_records: u64,
}

impl LogServer {
    /// Wrap a recovered [`LogStore`] with protocol state.
    ///
    /// # Errors
    /// Propagates generator-state load failures.
    pub fn new(config: ServerConfig, store: LogStore, gens: GenStore) -> Result<LogServer> {
        Ok(LogServer {
            config,
            store,
            gens,
            sessions: HashMap::new(),
            unacked: HashMap::new(),
            stats: ServerStats::default(),
            archive: None,
            obs: dlog_obs::Obs::off(),
            pending_forces: Vec::default(),
            coalesce_since: None,
            force_clients: Vec::default(),
            ingest_allocs: 0,
            ingest_records: 0,
        })
    }

    /// Attach an observability handle. The same handle is propagated to
    /// the storage engine so `Force` trace events interleave coherently
    /// with the `AckHighLsn` events this layer emits.
    pub fn set_obs(&mut self, obs: dlog_obs::Obs) {
        self.store.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The observability handle attached to this server (off by default).
    #[must_use]
    pub fn obs(&self) -> &dlog_obs::Obs {
        &self.obs
    }

    /// Attach an archive tier: sealed segments are uploaded to `objects`
    /// from [`LogServer::archive_tick`] (throttled to once per
    /// `interval`), retention is clamped to the archived watermark, and
    /// reads of positions the local store has pruned fall back to the
    /// archive.
    ///
    /// # Errors
    /// Propagates backend I/O failures and manifest corruption.
    pub fn attach_archive(
        &mut self,
        objects: Arc<dyn ObjectStore>,
        interval: Duration,
    ) -> Result<()> {
        let archiver = Archiver::new(objects.clone())?;
        self.store.enable_archival();
        let reader = match archiver.manifest() {
            Some(m) => {
                // A restarted server re-learns how far the archive got.
                self.store
                    .note_archived(m.restore_end.min(self.store.stream_end()));
                Some(ArchiveReader::from_manifest(objects.clone(), m.clone())?)
            }
            None => None,
        };
        self.archive = Some(ArchiveTier {
            archiver,
            objects,
            reader,
            interval,
            last_tick: None,
        });
        Ok(())
    }

    /// One background archival round, throttled to the attach interval;
    /// a no-op when no archive is attached or the interval has not
    /// elapsed. Called from the event loop's idle arm.
    ///
    /// # Errors
    /// Propagates upload failures after the archiver's bounded retries;
    /// the round is re-runnable verbatim.
    pub fn archive_tick(&mut self) -> Result<()> {
        let Some(tier) = &mut self.archive else {
            return Ok(());
        };
        if tier.last_tick.is_some_and(|t| t.elapsed() < tier.interval) {
            return Ok(());
        }
        tier.last_tick = Some(Instant::now());
        let span = self.obs.start();
        if let Some(m) = tier.archiver.tick(&mut self.store)? {
            tier.reader = Some(ArchiveReader::from_manifest(tier.objects.clone(), m)?);
        }
        let ar = self.archive_stats();
        self.obs.event(
            dlog_obs::Stage::ArchiveTick,
            ar.last_manifest_lsn,
            ar.archived_bytes,
        );
        self.obs.sample_since(dlog_obs::Stage::ArchiveTick, span);
        Ok(())
    }

    /// Archiver gauges; zero when no archive is attached.
    #[must_use]
    pub fn archive_stats(&self) -> dlog_archive::ArchiveStats {
        self.archive
            .as_ref()
            .map(|t| t.archiver.stats())
            .unwrap_or_default()
    }

    /// This server's id.
    #[must_use]
    pub fn id(&self) -> ServerId {
        self.config.id
    }

    /// Protocol counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Count what became of a reply of this server's that the caller
    /// sent by [`shard::send_reply`].
    pub fn count_reply(&mut self, fate: shard::ReplyFate) {
        match fate {
            shard::ReplyFate::Sent => {}
            shard::ReplyFate::Shed => self.stats.replies_shed += 1,
            shard::ReplyFate::Refused => self.stats.replies_refused += 1,
        }
    }

    /// Storage counters.
    #[must_use]
    pub fn store_stats(&self) -> dlog_storage::StoreStats {
        self.store.stats()
    }

    /// Direct store access (tests and experiments).
    pub fn store_mut(&mut self) -> &mut LogStore {
        &mut self.store
    }

    /// The ingest allocation gauge: `(allocations, records)` observed by
    /// write/force handling since startup. `allocations / records` is the
    /// `allocs_per_write` figure reported by `dlog stats` and the bench
    /// gate; the gauge is live even with observability off.
    #[must_use]
    pub fn ingest_alloc_gauge(&self) -> (u64, u64) {
        (self.ingest_allocs, self.ingest_records)
    }

    /// Handle one packet; returns the packets to transmit. Convenience
    /// wrapper over [`LogServer::handle_into`] — the event loop
    /// calls `handle_into` with a reused reply buffer instead.
    pub fn handle(&mut self, from: NodeAddr, pkt: &Packet) -> Vec<(NodeAddr, Packet)> {
        let mut out = Vec::default();
        self.handle_into(from, pkt, &mut out);
        out
    }

    /// Handle one packet, appending the packets to transmit onto `out`
    /// (which is *not* cleared — the caller owns its lifecycle, so a
    /// reused buffer adds no per-packet allocation).
    pub fn handle_into(&mut self, from: NodeAddr, pkt: &Packet, out: &mut Vec<(NodeAddr, Packet)>) {
        self.stats.packets_in += 1;
        // Ownership guard: a shard drops (never answers) traffic for
        // another shard's logical log. Both transports steer by the wire
        // header alone and *broadcast* a zero hint, so an unstamped
        // body-routed packet reaches every shard — without this guard a
        // non-owning shard would answer e.g. `IntervalList` with an empty
        // table and race the owning shard's real reply.
        if self.config.shards > 1
            && pkt.route_key().is_some_and(|id| {
                id.shard(self.config.shards as usize) != self.config.shard as usize
            })
        {
            return;
        }
        let out_before = out.len();
        match &pkt.msg {
            Message::WriteLog {
                client,
                epoch,
                records,
            } => self.ingest(from, *client, *epoch, records, false, out),
            Message::ForceLog {
                client,
                epoch,
                records,
            } => self.ingest(from, *client, *epoch, records, true, out),
            Message::NewInterval {
                client,
                epoch,
                starting_lsn,
            } => {
                let session = self.sessions.entry(*client).or_default();
                session.pending_interval = Some((*epoch, *starting_lsn));
                session.last_addr = Some(from);
            }
            Message::Request { id, body } => {
                self.stats.rpcs += 1;
                let body = self.serve(body);
                out.push((from, Packet::bare(Message::Response { id: *id, body })));
            }
            // Client-bound messages (acks, NAKs, responses) are not for
            // the server; ignore.
            _ => {}
        }
        self.stats.packets_out += (out.len() - out_before) as u64;
    }

    /// Ingest a write/force message — one store append for the records it
    /// carries — producing NAKs or acks.
    fn ingest(
        &mut self,
        from: NodeAddr,
        client: ClientId,
        epoch: Epoch,
        records: &[(Lsn, LogData)],
        force: bool,
        out: &mut Vec<(NodeAddr, Packet)>,
    ) {
        let span = self.obs.start();
        let allocs_at_entry = dlog_obs::gauge::thread_allocs();
        let session = self.sessions.entry(client).or_default();
        session.last_addr = Some(from);
        let pending = session.pending_interval;

        // Classify the packet once against what the store holds, advancing
        // `last` as records are accepted; every maximal run of accepted
        // records reaches the store as one append (§4.1: the server pays
        // per message, not per record). A well-formed packet is one run.
        let mut last = self.store.last_interval(client).map(|iv| (iv.epoch, iv.hi));
        let store = &mut self.store;
        #[expect(
            clippy::panic,
            reason = "deliberate fail-stop (§3.1): acking a record the store rejected would violate durability promises — crashing is safer than lying"
        )]
        let mut store_run = |first: usize, len: usize| {
            let run = records.get(first..first.saturating_add(len)).unwrap_or(&[]);
            if run.is_empty() {
                return;
            }
            if let Err(e) = store.write_batch(client, epoch, run) {
                // Storage order violations cannot happen for accepted
                // records; treat as fatal corruption.
                panic!("store rejected validated record: {e}");
            }
        };
        let (mut run_first, mut run_len) = (0usize, 0usize);
        let (mut accepted, mut duplicates) = (0u64, 0u64);
        let mut naked = false;
        let mut grant_used = false;
        for (i, (lsn, _)) in records.iter().enumerate() {
            let granted = pending == Some((epoch, *lsn));
            let accept = match last {
                // First contact: only the canonical origin, or a start
                // the client explicitly declared via `NewInterval`, may
                // open the log. Accepting an arbitrary first LSN would
                // let a lossy/reordered first contact open the log past
                // a dropped record — the hole is then invisible
                // (duplicate suppression swallows the straggler when it
                // arrives) and the cumulative `NewHighLSN` ack
                // overstates what this server holds. NAKing instead
                // makes the client resend from the origin; dlog-mc's
                // spec guard on completed prefixes exists to catch
                // exactly the ack-overstatement this guard prevents.
                None => *lsn == Lsn::FIRST || granted,
                // Stale epoch (a pre-crash straggler) or LSN-based
                // duplicate suppression (§4.2): ignore.
                Some((stored, hi)) if epoch < stored || (epoch == stored && *lsn <= hi) => {
                    duplicates += 1;
                    continue;
                }
                // A contiguous extension; anything else only a
                // NewInterval authorization admits.
                Some((stored, hi)) => (epoch == stored && hi.precedes(*lsn)) || granted,
            };
            if accept {
                if run_first.saturating_add(run_len) != i {
                    store_run(run_first, run_len);
                    (run_first, run_len) = (i, 0);
                }
                run_len = run_len.saturating_add(1);
                accepted += 1;
                grant_used |= granted;
                last = Some((epoch, *lsn));
            } else if !naked {
                // Prompt NAK for the first gap (§4.2: "it notifies the
                // client of the missing interval immediately").
                let gap_lo = last.map_or(Lsn::FIRST, |(_, hi)| hi.next());
                let gap_hi = lsn.prev().unwrap_or(Lsn::FIRST);
                out.push((
                    from,
                    Packet::bare(Message::MissingInterval {
                        client,
                        lo: gap_lo,
                        hi: gap_hi,
                    }),
                ));
                naked = true;
            }
        }
        store_run(run_first, run_len);
        self.stats.records_stored += accepted;
        self.stats.duplicates_ignored += duplicates;
        self.stats.naks_sent += u64::from(naked);
        if grant_used {
            self.sessions.entry(client).or_default().pending_interval = None;
        }
        // What the store now holds for the client: the acks below speak
        // for exactly this.
        debug_assert_eq!(
            last,
            self.store.last_interval(client).map(|iv| (iv.epoch, iv.hi))
        );
        let stored_hi = last.map(|(_, hi)| hi);

        if force {
            // The group commit owns every force ack. A repeat force from
            // the same client just refreshes its reply address; the
            // durability obligation is already queued. A zero window
            // commits before the handler returns.
            self.stats.coalesced_forces += 1;
            match self.pending_forces.iter_mut().find(|(c, _)| *c == client) {
                Some(slot) => slot.1 = from,
                None => self.pending_forces.push((client, from)),
            }
            if self.config.coalesce_window.is_zero()
                || self.pending_forces.len() >= self.config.coalesce_max_batch
            {
                self.flush_forces(out);
            } else if self.coalesce_since.is_none() {
                self.coalesce_since = Some(Instant::now());
            }
        } else if self.config.ack_every > 0 {
            let n = self.unacked.entry(client).or_insert(0);
            *n += records.len() as u64;
            if *n >= self.config.ack_every {
                *n = 0;
                if let Some(hi) = stored_hi {
                    // Unsolicited lazy ack: bit 0 clear, no Force required.
                    self.obs
                        .event(dlog_obs::Stage::AckHighLsn, hi.0, client.0 << 1);
                    out.push((from, Packet::bare(Message::NewHighLsn { client, lsn: hi })));
                }
            }
        }

        let batch_hi = records.last().map_or(0, |(lsn, _)| lsn.0);
        self.obs
            .event(dlog_obs::Stage::ServerIngest, batch_hi, accepted);
        self.obs.sample_since(dlog_obs::Stage::ServerIngest, span);
        self.ingest_allocs = self
            .ingest_allocs
            .wrapping_add(dlog_obs::gauge::thread_allocs().wrapping_sub(allocs_at_entry));
        self.ingest_records += records.len() as u64;
    }

    /// True when at least one `ForceLog` ack is waiting on the next group
    /// commit. The event loop uses this to shrink its receive timeout so a
    /// pending batch is never stranded behind a quiet socket.
    #[must_use]
    pub fn has_pending_forces(&self) -> bool {
        !self.pending_forces.is_empty()
    }

    /// Clients whose `ForceLog` ack is deferred into the next group
    /// commit, in first-force order (the order the ack fan-out will
    /// use). The model checker folds this into its state fingerprint —
    /// two states differing only in deferred obligations must not be
    /// merged — and checks every obligation is acked by a flush.
    #[must_use]
    pub fn coalescing_obligations(&self) -> Vec<ClientId> {
        self.pending_forces.iter().map(|(c, _)| *c).collect()
    }

    /// Outstanding `NewInterval` authorizations, sorted by client: the
    /// next noncontiguous record each client is allowed to open a fresh
    /// interval with. Part of the model checker's state fingerprint —
    /// an unconsumed grant changes which future writes are accepted.
    #[must_use]
    pub fn interval_grants(&self) -> Vec<(ClientId, Epoch, Lsn)> {
        let mut grants: Vec<(ClientId, Epoch, Lsn)> = self
            .sessions
            .iter()
            .filter_map(|(c, s)| s.pending_interval.map(|(e, l)| (*c, e, l)))
            .collect();
        grants.sort_unstable();
        grants
    }

    /// Flush the pending group-commit batch if its coalescing window has
    /// expired, returning the `NewHighLSN` fan-out to transmit. (A batch
    /// that reaches the size cap never waits here: `ingest` flushes it.)
    #[must_use]
    pub fn force_tick(&mut self) -> Vec<(NodeAddr, Packet)> {
        let mut out = Vec::new();
        if self
            .coalesce_since
            .is_some_and(|t| t.elapsed() >= self.config.coalesce_window)
        {
            self.flush_forces(&mut out);
        }
        self.stats.packets_out += out.len() as u64;
        out
    }

    /// Flush the pending batch *now*, regardless of the window. The event
    /// loop calls this when its inbox drains: the window is the maximum
    /// extra latency under sustained load, while an otherwise-idle server
    /// acks a lone client's force immediately.
    #[must_use]
    pub fn flush_pending_forces(&mut self) -> Vec<(NodeAddr, Packet)> {
        let mut out = Vec::new();
        self.flush_forces(&mut out);
        self.stats.packets_out += out.len() as u64;
        out
    }

    /// One group commit, the only place the server forces and builds a
    /// forced ack: a single physical durability round covering every
    /// waiting client, then per-client `NewHighLSN` fan-out.
    fn flush_forces(&mut self, out: &mut Vec<(NodeAddr, Packet)>) {
        if self.pending_forces.is_empty() {
            return;
        }
        self.coalesce_since = None;
        self.force_clients.clear();
        self.force_clients
            .extend(self.pending_forces.iter().map(|(c, _)| *c));
        #[expect(
            clippy::panic,
            reason = "deliberate fail-stop (§3.1): acking a force the store lost would violate durability promises, and a retried force can succeed on pages the kernel already dropped — crashing is safer than lying"
        )]
        let durable = match self.store.force_batch(&self.force_clients) {
            Ok(durable) => durable,
            Err(e) => panic!("group commit failed: {e}"),
        };
        self.stats.group_commits += 1;
        let batch_size = self.pending_forces.len() as u64;
        let mut round_hi = 0u64;
        for (client, addr) in self.pending_forces.drain(..) {
            self.stats.forces_acked += 1;
            self.unacked.insert(client, 0);
            if let Some(iv) = self.store.last_interval(client) {
                round_hi = round_hi.max(iv.hi.0);
                // Forced ack (bit 0 set): the runtime checker demands the
                // Force event `force_batch` just emitted for this client.
                self.obs
                    .event(dlog_obs::Stage::AckHighLsn, iv.hi.0, (client.0 << 1) | 1);
                out.push((addr, forced_ack(&durable, client, iv.hi)));
            }
        }
        // The GroupCommit histogram records batch sizes, not latencies:
        // amortization is the quantity of interest here.
        self.obs
            .event(dlog_obs::Stage::GroupCommit, round_hi, batch_size);
        self.obs.sample(dlog_obs::Stage::GroupCommit, batch_size);
    }

    /// Serve a strict RPC.
    fn serve(&mut self, req: &Request) -> Response {
        match req {
            Request::IntervalList { client, first } => {
                let live = self.store.interval_list(*client);
                let list = match self.archive.as_ref().and_then(|t| t.reader.as_ref()) {
                    // The archive holds the head retention may have pruned
                    // locally; clients see the union.
                    Some(reader) => merge_interval_lists(&reader.interval_list(*client), &live),
                    None => live,
                };
                interval_page(list, *first as usize)
            }
            Request::ReadLogForward {
                client,
                lsn,
                max_records,
            } => self.read_batch(*client, *lsn, *max_records, true),
            Request::ReadLogBackward {
                client,
                lsn,
                max_records,
            } => self.read_batch(*client, *lsn, *max_records, false),
            Request::CopyLog {
                client,
                epoch,
                records,
            } => {
                for r in records {
                    if r.epoch != *epoch {
                        // Static detail strings: the code is the machine-
                        // readable part, and a formatted epoch would be
                        // the only allocation on this path.
                        return Response::Err {
                            code: codes::PROTOCOL,
                            detail: "CopyLog record epoch differs from call epoch".into(),
                        };
                    }
                    match self.store.stage_copy(*client, r) {
                        Ok(()) => {}
                        Err(DlogError::StaleEpoch { .. }) => {
                            return Response::Err {
                                code: codes::STALE_EPOCH,
                                detail: "server epoch already at or past the staged epoch".into(),
                            }
                        }
                        Err(_) => {
                            return Response::Err {
                                code: codes::STORAGE,
                                detail: "storage failure staging recovery copy".into(),
                            }
                        }
                    }
                }
                Response::Ok
            }
            Request::InstallCopies { client, epoch } => {
                match self.store.install_copies(*client, *epoch) {
                    Ok(()) => Response::Ok,
                    Err(_)
                        if self
                            .store
                            .last_interval(*client)
                            .is_some_and(|iv| iv.epoch == *epoch) =>
                    {
                        // Retried install after a lost response: the epoch
                        // is already installed. Idempotent success.
                        Response::Ok
                    }
                    Err(_) => Response::Err {
                        code: codes::STORAGE,
                        detail: "storage failure installing recovery copies".into(),
                    },
                }
            }
            Request::Status => {
                let st = self.stats;
                let ar = self.archive_stats();
                let pending = self
                    .archive
                    .as_ref()
                    .map_or(0, |t| t.archiver.pending_bytes(&self.store));
                Response::Status {
                    records_stored: st.records_stored,
                    duplicates_ignored: st.duplicates_ignored,
                    naks_sent: st.naks_sent,
                    rpcs: st.rpcs,
                    forces_acked: st.forces_acked,
                    clients: self.store.clients().len() as u64,
                    on_disk_bytes: self.store.on_disk_bytes(),
                    tracks_flushed: self.store.stats().tracks_flushed,
                    archived_bytes: ar.archived_bytes,
                    pending_upload_bytes: pending,
                    last_manifest_lsn: ar.last_manifest_lsn,
                    upload_retries: ar.upload_retries,
                    coalesced_forces: st.coalesced_forces,
                    group_commits: st.group_commits,
                    shard: self.config.shard,
                    shards: self.config.shards,
                }
            }
            Request::Stats => {
                // The allocation gauge is served even with observability
                // off: dlog-alloc counts unconditionally.
                let (ingest_allocs, ingest_records) = self.ingest_alloc_gauge();
                let Some(snap) = self.obs.snapshot() else {
                    return Response::Stats {
                        stages: Vec::default(),
                        trace_events: 0,
                        trace_dropped: 0,
                        ingest_allocs,
                        ingest_records,
                        shard: self.config.shard,
                        shards: self.config.shards,
                    };
                };
                let stages = snap
                    .stages
                    .iter()
                    .map(|s| dlog_net::wire::StageStats {
                        stage: s.stage.as_u8(),
                        count: s.hist.count(),
                        max_ns: s.hist.max,
                        buckets: s.hist.sparse(),
                    })
                    .collect();
                Response::Stats {
                    stages,
                    trace_events: snap.trace_events,
                    trace_dropped: snap.trace_dropped,
                    ingest_allocs,
                    ingest_records,
                    shard: self.config.shard,
                    shards: self.config.shards,
                }
            }
            Request::GenRead { generator } => Response::GenValue {
                value: self.gens.read(*generator),
            },
            Request::GenWrite { generator, value } => match self.gens.write(*generator, *value) {
                Ok(()) => Response::Ok,
                Err(_) => Response::Err {
                    code: codes::STORAGE,
                    detail: "storage failure persisting generator state".into(),
                },
            },
        }
    }

    fn read_batch(&mut self, client: ClientId, lsn: Lsn, max: u32, forward: bool) -> Response {
        // One pre-sized allocation for the whole batch: the loop below
        // never pushes past `max.min(READ_BATCH)` entries.
        let cap = max.min(READ_BATCH) as usize;
        let mut records = Vec::with_capacity(cap);
        // The reply carries at most `budget` bytes, counting `per_record`
        // on top of each payload. A record's frame is longer than that
        // estimate by a fixed amount, so the stream bytes a full reply
        // spans, plus the envelope of the frame that would overflow it,
        // come to `span`: one window of the stream serves the request.
        // A request for fewer records reads a store read's window per
        // record, so a point read reads 1 KiB, not a full reply's bytes.
        let budget = REPLY_BUDGET;
        let per_record = 32;
        let span = (budget + cap * (Frame::record_len(0) - per_record) + ENVELOPE_BYTES)
            .min(cap * FRAME_READ_WINDOW);
        let mut run = self.store.read_run(client, forward, span);
        let mut bytes = 0usize;
        let mut cursor = lsn;
        // "A log server does not respond to ServerReadLog requests for
        // records that it does not store" (§3.1.1) — at the batch level an
        // empty response tells the client to ask elsewhere, while records
        // marked not-present ARE returned.
        loop {
            if records.len() >= cap {
                break;
            }
            // The first record goes out whatever its size; a later one
            // only if its payload fits what is left of the budget.
            let room = if records.is_empty() {
                usize::MAX
            } else {
                match budget.checked_sub(bytes + per_record) {
                    Some(room) => room,
                    None => break,
                }
            };
            // Live store first; a position retention has pruned falls back
            // to the archive tier, making the log bottomless for readers.
            let rec = match run.next(cursor, room) {
                Ok(RunRead::Record(rec)) => rec,
                Ok(RunRead::TooLong) => break,
                Ok(RunRead::NotStored) => {
                    match self.archive.as_mut().and_then(|t| t.reader.as_mut()) {
                        Some(reader) => match reader.read(client, cursor) {
                            Ok(Some(rec)) if rec.data.len() <= room => rec,
                            Ok(_) => break,
                            Err(_) => {
                                return Response::Err {
                                    code: codes::STORAGE,
                                    detail: "archive read failure".into(),
                                }
                            }
                        },
                        None => break,
                    }
                }
                Err(_) => {
                    return Response::Err {
                        code: codes::STORAGE,
                        detail: "storage read failure".into(),
                    }
                }
            };
            bytes += rec.data.len() + per_record;
            records.push(rec);
            cursor = if forward {
                cursor.next()
            } else {
                match cursor.prev() {
                    Some(p) if p > Lsn::ZERO => p,
                    _ => break,
                }
            };
        }
        Response::Records { records }
    }
}

/// The page of `list` that starts at index `first`: as many intervals as
/// fit one reply, and whether more follow.
fn interval_page(list: IntervalList, first: usize) -> Response {
    let all = list.intervals();
    let end = all.len().min(first.saturating_add(INTERVALS_PER_PAGE));
    // A run of a valid list keeps the list's ordering invariants.
    match IntervalList::from_intervals(all.get(first..end).unwrap_or_default().to_vec()) {
        Ok(intervals) => Response::Intervals {
            intervals,
            more: end < all.len(),
        },
        Err(_) => Response::Err {
            code: codes::STORAGE,
            detail: "stored interval list violates its ordering".into(),
        },
    }
}

/// A forced `NewHighLSN` (§4.2): it takes the [`Durable`] proof of the
/// round that covered `client`, so it can be built only after the force.
/// The lazy `ack_every` ack is not forced and is built without one.
fn forced_ack(_: &Durable, client: ClientId, lsn: Lsn) -> Packet {
    Packet::bare(Message::NewHighLsn { client, lsn })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlog_storage::{NvramDevice, StoreOptions};
    use dlog_types::{Interval, LogRecord};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("dlog-server-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn server(name: &str) -> LogServer {
        let dir = tmpdir(name);
        let opts = StoreOptions {
            fsync: false,
            checkpoint_every: 0,
            ..StoreOptions::default()
        };
        let store = LogStore::open(&dir, opts, NvramDevice::new(1 << 20)).unwrap();
        let gens = GenStore::open(dir.join("gens")).unwrap();
        LogServer::new(ServerConfig::new(ServerId(1)), store, gens).unwrap()
    }

    fn batch(lo: u64, hi: u64) -> Vec<(Lsn, LogData)> {
        (lo..=hi)
            .map(|i| (Lsn(i), LogData::from(vec![i as u8; 50])))
            .collect()
    }

    const CL: ClientId = ClientId(7);
    const FROM: NodeAddr = NodeAddr(99);

    fn force(s: &mut LogServer, epoch: u64, lo: u64, hi: u64) -> Vec<(NodeAddr, Packet)> {
        s.handle(
            FROM,
            &Packet::bare(Message::ForceLog {
                client: CL,
                epoch: Epoch(epoch),
                records: batch(lo, hi),
            }),
        )
    }

    #[test]
    fn force_acks_with_new_high_lsn() {
        let mut s = server("ack");
        let out = force(&mut s, 1, 1, 7);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, FROM);
        assert_eq!(
            out[0].1.msg,
            Message::NewHighLsn {
                client: CL,
                lsn: Lsn(7)
            },
        );
        assert_eq!(s.stats().records_stored, 7);
        assert_eq!(s.stats().forces_acked, 1);
    }

    #[test]
    fn gap_triggers_missing_interval_nak() {
        let mut s = server("nak");
        force(&mut s, 1, 1, 3);
        // Records 4..5 lost; 6..7 arrive.
        let out = force(&mut s, 1, 6, 7);
        // First reply: the NAK; then the ack for what IS stored (3).
        assert_eq!(
            out[0].1.msg,
            Message::MissingInterval {
                client: CL,
                lo: Lsn(4),
                hi: Lsn(5)
            }
        );
        assert_eq!(
            out[1].1.msg,
            Message::NewHighLsn {
                client: CL,
                lsn: Lsn(3)
            }
        );
        assert_eq!(s.stats().naks_sent, 1);
        // Resending the full gap completes the log.
        let out = force(&mut s, 1, 4, 7);
        assert_eq!(
            out.last().unwrap().1.msg,
            Message::NewHighLsn {
                client: CL,
                lsn: Lsn(7)
            }
        );
    }

    #[test]
    fn duplicates_ignored_by_lsn() {
        let mut s = server("dup");
        force(&mut s, 1, 1, 5);
        let out = force(&mut s, 1, 3, 5); // retransmission
        assert_eq!(s.stats().duplicates_ignored, 3);
        assert_eq!(s.stats().records_stored, 5);
        assert_eq!(
            out.last().unwrap().1.msg,
            Message::NewHighLsn {
                client: CL,
                lsn: Lsn(5)
            }
        );
    }

    #[test]
    fn new_interval_authorizes_gap() {
        let mut s = server("newint");
        force(&mut s, 1, 1, 3);
        s.handle(
            FROM,
            &Packet::bare(Message::NewInterval {
                client: CL,
                epoch: Epoch(1),
                starting_lsn: Lsn(10),
            }),
        );
        let out = force(&mut s, 1, 10, 12);
        assert_eq!(
            out.last().unwrap().1.msg,
            Message::NewHighLsn {
                client: CL,
                lsn: Lsn(12)
            }
        );
        assert_eq!(s.stats().naks_sent, 0);
        // Two intervals now.
        let resp = s.serve(&Request::IntervalList {
            client: CL,
            first: 0,
        });
        match resp {
            Response::Intervals {
                intervals,
                more: false,
            } => assert_eq!(intervals.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A full page fits a packet, and the pages, asked for from the index
    /// after the last interval received, add up to the whole list.
    #[test]
    fn interval_pages_fit_a_packet_and_add_up_to_the_list() {
        let list = IntervalList::from_intervals(
            (1..=1_000u64)
                .map(|e| Interval::new(Epoch(e), Lsn(e), Lsn(e + 8)))
                .collect(),
        )
        .unwrap();
        let mut got: Vec<Interval> = Vec::new();
        loop {
            let reply = interval_page(list.clone(), got.len());
            let pkt = Packet::bare(Message::Response { id: 1, body: reply });
            assert!(pkt.encoded_len() <= MAX_PACKET_BYTES);
            let Message::Response {
                body: Response::Intervals { intervals, more },
                ..
            } = pkt.msg
            else {
                panic!("unexpected {pkt:?}");
            };
            assert_eq!(intervals.len(), INTERVALS_PER_PAGE.min(1_000 - got.len()));
            got.extend_from_slice(intervals.intervals());
            if !more {
                break;
            }
        }
        assert_eq!(got, list.intervals());
    }

    #[test]
    fn read_forward_and_backward() {
        let mut s = server("read");
        force(&mut s, 1, 1, 20);
        match s.serve(&Request::ReadLogForward {
            client: CL,
            lsn: Lsn(5),
            max_records: 3,
        }) {
            Response::Records { records } => {
                let lsns: Vec<u64> = records.iter().map(|r| r.lsn.0).collect();
                assert_eq!(lsns, vec![5, 6, 7]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match s.serve(&Request::ReadLogBackward {
            client: CL,
            lsn: Lsn(5),
            max_records: 3,
        }) {
            Response::Records { records } => {
                let lsns: Vec<u64> = records.iter().map(|r| r.lsn.0).collect();
                assert_eq!(lsns, vec![5, 4, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unstored LSN: empty response.
        match s.serve(&Request::ReadLogForward {
            client: CL,
            lsn: Lsn(21),
            max_records: 3,
        }) {
            Response::Records { records } => assert!(records.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn copylog_install_flow() {
        let mut s = server("copy");
        force(&mut s, 1, 1, 5);
        // Recovery: copy LSN 5 with epoch 3, append not-present 6.
        let records = vec![
            LogRecord::present(Lsn(5), Epoch(3), vec![9u8; 10]),
            LogRecord::not_present(Lsn(6), Epoch(3)),
        ];
        let r = s.serve(&Request::CopyLog {
            client: CL,
            epoch: Epoch(3),
            records,
        });
        assert_eq!(r, Response::Ok);
        let r = s.serve(&Request::InstallCopies {
            client: CL,
            epoch: Epoch(3),
        });
        assert_eq!(r, Response::Ok);
        // Idempotent retry.
        let r = s.serve(&Request::InstallCopies {
            client: CL,
            epoch: Epoch(3),
        });
        assert_eq!(r, Response::Ok);
        // The rewrite is visible.
        match s.serve(&Request::ReadLogForward {
            client: CL,
            lsn: Lsn(5),
            max_records: 2,
        }) {
            Response::Records { records } => {
                assert_eq!(records[0].epoch, Epoch(3));
                assert!(!records[1].present);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn copylog_stale_epoch_rejected() {
        let mut s = server("copystale");
        force(&mut s, 5, 1, 3);
        let r = s.serve(&Request::CopyLog {
            client: CL,
            epoch: Epoch(4),
            records: vec![LogRecord::present(Lsn(3), Epoch(4), vec![1])],
        });
        assert!(matches!(
            r,
            Response::Err {
                code: codes::STALE_EPOCH,
                ..
            }
        ));
    }

    #[test]
    fn copylog_epoch_mismatch_rejected() {
        let mut s = server("copymis");
        let r = s.serve(&Request::CopyLog {
            client: CL,
            epoch: Epoch(4),
            records: vec![LogRecord::present(Lsn(3), Epoch(5), vec![1])],
        });
        assert!(matches!(
            r,
            Response::Err {
                code: codes::PROTOCOL,
                ..
            }
        ));
    }

    /// A payload-carrying request decoded zero-copy leaves no view of its
    /// receive buffer behind: once the packet and its replies are
    /// dropped, the receiver is the buffer's only owner again, so a
    /// pooled buffer can be reissued. One case per request whose wire
    /// row carries `records`.
    #[test]
    fn handled_packets_keep_no_view_of_the_receive_buffer() {
        let mut s = server("retain");
        let cases = [
            (
                "WriteLog",
                Message::WriteLog {
                    client: CL,
                    epoch: Epoch(1),
                    records: batch(1, 3),
                },
            ),
            (
                "ForceLog",
                Message::ForceLog {
                    client: CL,
                    epoch: Epoch(1),
                    records: batch(4, 5),
                },
            ),
            (
                "CopyLog",
                Message::Request {
                    id: 1,
                    body: Request::CopyLog {
                        client: CL,
                        epoch: Epoch(3),
                        records: vec![LogRecord::present(Lsn(5), Epoch(3), vec![9u8; 40])],
                    },
                },
            ),
        ];
        for (name, msg) in cases {
            let buf = Arc::new(Packet::bare(msg).encode());
            let pkt = Packet::decode_shared(&buf).unwrap();
            let replies = s.handle(FROM, &pkt);
            assert!(
                !replies.iter().any(|(_, r)| matches!(
                    r.msg,
                    Message::Response {
                        body: Response::Err { .. },
                        ..
                    }
                )),
                "{name}: {replies:?}"
            );
            drop((pkt, replies));
            assert_eq!(
                Arc::strong_count(&buf),
                1,
                "{name}: the server kept a view of the receive buffer"
            );
        }
        assert_eq!(s.stats().records_stored, 5);
    }

    #[test]
    fn stale_epoch_writes_ignored() {
        let mut s = server("stale");
        force(&mut s, 5, 1, 3);
        let out = force(&mut s, 4, 4, 5); // pre-crash stragglers
        assert_eq!(s.stats().duplicates_ignored, 2);
        assert_eq!(s.stats().records_stored, 3);
        // Force still acks the stored high.
        assert_eq!(
            out.last().unwrap().1.msg,
            Message::NewHighLsn {
                client: CL,
                lsn: Lsn(3)
            }
        );
    }

    #[test]
    fn unsolicited_acks_every_n_buffered_records() {
        let mut s = server("periodic");
        s.config.ack_every = 10;
        let mut acks = 0;
        for chunk in 0..5u64 {
            let lo = chunk * 5 + 1;
            let out = s.handle(
                FROM,
                &Packet::bare(Message::WriteLog {
                    client: CL,
                    epoch: Epoch(1),
                    records: batch(lo, lo + 4),
                }),
            );
            acks += out.len();
        }
        // 25 buffered records with ack_every=10: the counter crosses the
        // threshold (and resets) after batches 2 and 4 → 2 unsolicited acks.
        assert_eq!(acks, 2);
    }

    #[test]
    fn coalescing_defers_ack_until_flush() {
        let mut s = server("coalesce");
        s.config.coalesce_window = Duration::from_millis(250);
        let out = force(&mut s, 1, 1, 7);
        assert!(out.is_empty(), "ack must wait for the group commit");
        assert!(s.has_pending_forces());
        assert_eq!(s.stats().coalesced_forces, 1);
        assert_eq!(s.stats().forces_acked, 0);
        // Window not expired: force_tick is a no-op.
        assert!(s.force_tick().is_empty());
        assert!(s.has_pending_forces());
        // Idle flush commits immediately.
        let out = s.flush_pending_forces();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].1.msg,
            Message::NewHighLsn {
                client: CL,
                lsn: Lsn(7)
            }
        );
        assert!(!s.has_pending_forces());
        assert_eq!(s.stats().forces_acked, 1);
        assert_eq!(s.stats().group_commits, 1);
    }

    #[test]
    fn repeat_force_refreshes_slot_not_batch() {
        let mut s = server("refresh");
        s.config.coalesce_window = Duration::from_millis(250);
        force(&mut s, 1, 1, 3);
        // A retried force (same client, new address) must not grow the
        // batch — and the ack must go to the newest address.
        let out = s.handle(
            NodeAddr(55),
            &Packet::bare(Message::ForceLog {
                client: CL,
                epoch: Epoch(1),
                records: batch(1, 3),
            }),
        );
        assert!(out.is_empty());
        assert_eq!(s.stats().coalesced_forces, 2);
        let out = s.flush_pending_forces();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeAddr(55));
        assert_eq!(s.stats().group_commits, 1);
    }

    #[test]
    fn batch_cap_flushes_inline() {
        let mut s = server("cap");
        s.config.coalesce_window = Duration::from_secs(3600);
        s.config.coalesce_max_batch = 2;
        let out = force(&mut s, 1, 1, 2);
        assert!(out.is_empty());
        // A second client's force hits the cap: one physical round, two
        // fan-out acks, in first-force order.
        let out = s.handle(
            NodeAddr(42),
            &Packet::bare(Message::ForceLog {
                client: ClientId(8),
                epoch: Epoch(1),
                records: vec![(Lsn(1), LogData::from(vec![1u8; 10]))],
            }),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, FROM);
        assert_eq!(out[1].0, NodeAddr(42));
        assert_eq!(s.stats().group_commits, 1);
        assert_eq!(s.stats().forces_acked, 2);
        assert!(!s.has_pending_forces());
    }

    #[test]
    fn force_tick_flushes_after_window() {
        let mut s = server("tick");
        s.config.coalesce_window = Duration::from_millis(1);
        force(&mut s, 1, 1, 4);
        std::thread::sleep(Duration::from_millis(5));
        let out = s.force_tick();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].1.msg,
            Message::NewHighLsn {
                client: CL,
                lsn: Lsn(4)
            }
        );
    }

    /// A failed group-commit round fail-stops at every window, and no
    /// `NewHighLsn` leaves for it: neither the round a zero window runs
    /// inside the handler nor a deferred one drops its obligations for
    /// the clients to retry. A directory where segment 1's file belongs
    /// makes the round's track flush fail to open it.
    #[test]
    fn a_failed_round_fail_stops_at_every_window() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for window in [Duration::ZERO, Duration::from_secs(3600)] {
            let dir = tmpdir(&format!("fail-stop-{}", window.as_secs()));
            let opts = StoreOptions {
                fsync: false,
                checkpoint_every: 0,
                segment_bytes: 1024,
                durability: dlog_storage::store::Durability::FsyncPerForce,
                ..StoreOptions::default()
            };
            let store = LogStore::open(&dir, opts, NvramDevice::new(1 << 20)).unwrap();
            let gens = GenStore::open(dir.join("gens")).unwrap();
            let mut config = ServerConfig::new(ServerId(1));
            config.coalesce_window = window;
            let mut s = LogServer::new(config, store, gens).unwrap();

            // Six 88-byte frames fit segment 0; the next six reach into
            // segment 1.
            let mut acks = force(&mut s, 1, 1, 6);
            acks.extend(s.flush_pending_forces());
            assert_eq!(acks.len(), 1, "{window:?}: the good round is acked");
            std::fs::create_dir(dir.join(dlog_storage::stream::segment_file_name(1))).unwrap();

            let failed = if window.is_zero() {
                catch_unwind(AssertUnwindSafe(|| force(&mut s, 1, 7, 12)))
            } else {
                assert!(force(&mut s, 1, 7, 12).is_empty(), "{window:?}: deferred");
                catch_unwind(AssertUnwindSafe(|| s.flush_pending_forces()))
            };
            assert!(
                failed.is_err(),
                "{window:?}: a failed round returned {:?}",
                failed.ok()
            );
            assert_eq!(s.stats().forces_acked, 1, "{window:?}");
        }
    }

    #[test]
    fn generator_rpcs() {
        let mut s = server("gen");
        assert_eq!(
            s.serve(&Request::GenRead { generator: 1 }),
            Response::GenValue { value: 0 }
        );
        assert_eq!(
            s.serve(&Request::GenWrite {
                generator: 1,
                value: 42
            }),
            Response::Ok
        );
        assert_eq!(
            s.serve(&Request::GenRead { generator: 1 }),
            Response::GenValue { value: 42 }
        );
        // Writes are monotonic: a lower write does not regress the value.
        assert_eq!(
            s.serve(&Request::GenWrite {
                generator: 1,
                value: 17
            }),
            Response::Ok
        );
        assert_eq!(
            s.serve(&Request::GenRead { generator: 1 }),
            Response::GenValue { value: 42 }
        );
    }

    // ---- one append per packet: the per-record rule as the oracle ----

    /// The write/force ingest of the parent commit, kept verbatim as the
    /// reference: it decides record by record against the store and makes
    /// one `LogStore::write` per accepted record. The batched `ingest`
    /// must be indistinguishable from it for every packet.
    fn reference_ingest(
        s: &mut LogServer,
        from: NodeAddr,
        client: ClientId,
        epoch: Epoch,
        records: &[(Lsn, LogData)],
        force: bool,
        out: &mut Vec<(NodeAddr, Packet)>,
    ) {
        let session = s.sessions.entry(client).or_default();
        session.last_addr = Some(from);
        let pending = session.pending_interval;

        let mut naked = false;
        for (lsn, data) in records {
            let last = s.store.last_interval(client);
            let accept = match last {
                None => *lsn == Lsn::FIRST || pending == Some((epoch, *lsn)),
                Some(iv) => {
                    if epoch < iv.epoch {
                        s.stats.duplicates_ignored += 1;
                        continue;
                    }
                    if epoch == iv.epoch && *lsn <= iv.hi {
                        s.stats.duplicates_ignored += 1;
                        continue;
                    }
                    if epoch == iv.epoch && iv.hi.precedes(*lsn) {
                        true
                    } else {
                        pending == Some((epoch, *lsn))
                    }
                }
            };
            if accept {
                let record = LogRecord::present(*lsn, epoch, data.share());
                s.store
                    .write(client, &record)
                    .expect("store rejected validated record");
                s.stats.records_stored += 1;
                if pending == Some((epoch, *lsn)) {
                    s.sessions.entry(client).or_default().pending_interval = None;
                }
            } else if !naked {
                let gap_lo = s
                    .store
                    .last_interval(client)
                    .map_or(Lsn::FIRST, |iv| iv.hi.next());
                let gap_hi = lsn.prev().unwrap_or(Lsn::FIRST);
                out.push((
                    from,
                    Packet::bare(Message::MissingInterval {
                        client,
                        lo: gap_lo,
                        hi: gap_hi,
                    }),
                ));
                s.stats.naks_sent += 1;
                naked = true;
            }
        }

        if force {
            let durable = s.store.force(client).expect("force failed");
            s.stats.forces_acked += 1;
            s.unacked.insert(client, 0);
            if let Some(iv) = s.store.last_interval(client) {
                out.push((from, forced_ack(&durable, client, iv.hi)));
            }
        } else if s.config.ack_every > 0 {
            let n = s.unacked.entry(client).or_insert(0);
            *n += records.len() as u64;
            if *n >= s.config.ack_every {
                *n = 0;
                if let Some(iv) = s.store.last_interval(client) {
                    out.push((
                        from,
                        Packet::bare(Message::NewHighLsn { client, lsn: iv.hi }),
                    ));
                }
            }
        }
    }

    #[derive(Clone, Debug)]
    enum Step {
        /// `NewInterval`: authorize `lsn` as the start of a fresh interval.
        Grant { client: u64, epoch: u64, lsn: u64 },
        /// `WriteLog` / `ForceLog` carrying these LSNs in this order.
        Send {
            client: u64,
            epoch: u64,
            force: bool,
            lsns: Vec<u64>,
        },
    }

    /// Packets over a small LSN and epoch domain, so that runs collide
    /// with what is stored: duplicates, stale epochs, overlap with the
    /// stored tail, gaps in the middle, repeats and steps backwards inside
    /// a packet, granted and ungranted first LSNs, first contact away from
    /// `Lsn::FIRST`.
    fn arb_steps() -> impl proptest::prelude::Strategy<Value = Vec<Step>> {
        use proptest::prelude::*;
        let step = prop_oneof![
            70 => 1u64..=2,
            12 => Just(0u64),
            10 => 2u64..=4,
            8 => Just(u64::MAX), // a step back by two
        ];
        let lsns = (
            prop_oneof![2 => Just(1u64), 3 => 1u64..14],
            proptest::collection::vec(step, 0..9),
        )
            .prop_map(|(first, steps)| {
                let mut lsns = vec![first];
                for step in steps {
                    let prev = *lsns.last().expect("nonempty");
                    lsns.push(if step == u64::MAX {
                        prev.saturating_sub(2).max(1)
                    } else {
                        prev + step.min(3)
                    });
                }
                lsns
            });
        let one = prop_oneof![
            1 => (1u64..=2, 1u64..=3, 1u64..16)
                .prop_map(|(client, epoch, lsn)| Step::Grant { client, epoch, lsn }),
            5 => (1u64..=2, 1u64..=3, any::<bool>(), lsns).prop_map(
                |(client, epoch, force, lsns)| Step::Send { client, epoch, force, lsns }
            ),
        ];
        proptest::collection::vec(one, 1..24)
    }

    fn stored_frames(s: &mut LogServer) -> Vec<(u64, dlog_storage::frame::Frame)> {
        s.store_mut().sync().unwrap();
        let mut frames = Vec::new();
        s.store_mut()
            .scan_stream(0, |pos, frame| frames.push((pos, frame)))
            .unwrap();
        frames
    }

    proptest::proptest! {
        #[test]
        fn batched_ingest_matches_the_per_record_rule(
            steps in arb_steps(),
            tag in 0u64..1_000_000,
        ) {
            let mut batched = server(&format!("diff-batched-{tag}"));
            let mut reference = server(&format!("diff-reference-{tag}"));
            for s in [&mut batched, &mut reference] {
                s.config.ack_every = 5;
            }
            for step in &steps {
                let (got, want) = match step {
                    Step::Grant { client, epoch, lsn } => {
                        let pkt = Packet::bare(Message::NewInterval {
                            client: ClientId(*client),
                            epoch: Epoch(*epoch),
                            starting_lsn: Lsn(*lsn),
                        });
                        (batched.handle(FROM, &pkt), reference.handle(FROM, &pkt))
                    }
                    Step::Send { client, epoch, force, lsns } => {
                        let client = ClientId(*client);
                        let epoch = Epoch(*epoch);
                        let records: Vec<(Lsn, LogData)> = lsns
                            .iter()
                            .map(|l| (Lsn(*l), LogData::from(vec![*l as u8; 40 + *l as usize])))
                            .collect();
                        let msg = if *force {
                            Message::ForceLog { client, epoch, records: records.clone() }
                        } else {
                            Message::WriteLog { client, epoch, records: records.clone() }
                        };
                        let got = batched.handle(FROM, &Packet::bare(msg));
                        let mut want = Vec::new();
                        reference.stats.packets_in += 1;
                        reference_ingest(
                            &mut reference, FROM, client, epoch, &records, *force, &mut want,
                        );
                        reference.stats.packets_out += want.len() as u64;
                        (got, want)
                    }
                };
                let msgs = |out: &[(NodeAddr, Packet)]| -> Vec<(NodeAddr, Message)> {
                    out.iter().map(|(to, p)| (*to, p.msg.clone())).collect()
                };
                proptest::prop_assert_eq!(msgs(&got), msgs(&want), "replies to {:?}", step);
                // `reference_ingest` never modelled group commit: at a
                // zero window every force is a round of its own.
                let ungrouped = |st: ServerStats| ServerStats {
                    coalesced_forces: 0,
                    group_commits: 0,
                    ..st
                };
                proptest::prop_assert_eq!(
                    ungrouped(batched.stats()),
                    ungrouped(reference.stats()),
                    "after {:?}", step
                );
                proptest::prop_assert_eq!(
                    batched.stats().coalesced_forces,
                    batched.stats().group_commits,
                    "rounds after {:?}", step
                );
                proptest::prop_assert_eq!(
                    batched.interval_grants(),
                    reference.interval_grants(),
                    "grants after {:?}", step
                );
                for client in [ClientId(1), ClientId(2)] {
                    proptest::prop_assert_eq!(
                        batched.store_mut().interval_list(client),
                        reference.store_mut().interval_list(client)
                    );
                }
            }
            proptest::prop_assert_eq!(
                batched.store_stats().records_written,
                reference.store_stats().records_written
            );
            proptest::prop_assert_eq!(stored_frames(&mut batched), stored_frames(&mut reference));
        }
    }

    /// A contiguous packet is one `write_batch`: the store sees one append
    /// per packet, and what a steady stream of them allocates on the
    /// server thread is the growth of the LSN index and nothing else.
    #[test]
    fn contiguous_force_allocates_only_index_growth() {
        const PER_PACKET: u64 = 8;
        const PACKETS: u64 = 1_000;
        let mut s = server("alloc-budget");
        let packet = |n: u64| {
            Packet::bare(Message::ForceLog {
                client: CL,
                epoch: Epoch(1),
                records: batch(n * PER_PACKET + 1, (n + 1) * PER_PACKET),
            })
        };
        let mut out = Vec::with_capacity(4);
        // Warm-up: reply buffer, frame scratch, NVRAM track, session maps.
        for n in 0..64 {
            s.handle_into(FROM, &packet(n), &mut out);
            out.clear();
        }
        let packets: Vec<Packet> = (64..64 + PACKETS).map(packet).collect();
        let before = dlog_obs::gauge::thread_allocs();
        for pkt in &packets {
            s.handle_into(FROM, pkt, &mut out);
            assert_eq!(out.len(), 1, "one ack per ForceLog");
            out.clear();
        }
        let allocs = dlog_obs::gauge::thread_allocs() - before;
        assert_eq!(s.stats().records_stored, (64 + PACKETS) * PER_PACKET);
        // 8 000 records fill 31 index nodes of INDEX_FANOUT = 256 and part
        // of a 32nd: per node, the position vector's doublings up to 256
        // entries and the node's move into the forest (`LsnIndex::append`
        // in append-forest's lsn_index.rs). The 11 track flushes (88-byte
        // frames, 64 KiB tracks; the first falls after the warm-up) write
        // through the segment's kept descriptor; the first flush opens
        // it, which builds its path (2) and the descriptor map's node (1).
        assert_eq!(s.store_stats().tracks_flushed, 11);
        assert_eq!(allocs, 231, "allocations over {PACKETS} packets");
    }

    /// What one `ReadLogForward`/`ReadLogBackward` of eight records
    /// allocates on the server thread, pinned per request: the reply's
    /// record vector, and the one window of the stream the eight records
    /// are read from and its `Arc` (3), whether the records sit in NVRAM
    /// or, after a reopen, in sealed segments. Every payload is a view of
    /// the window. A segment window is one positional read through a
    /// descriptor the stream keeps (the reopen's recovery scan opened all
    /// eight), so it allocates nothing more.
    #[test]
    fn read_batches_allocate_a_fixed_count_per_request() {
        const RECORDS: u64 = 256;
        const MAX: u32 = 8;
        let dir = tmpdir("read-alloc-budget");
        // 90-byte payloads make 128-byte frames, 32 to a 4 KiB segment:
        // no frame straddles two segment files.
        let opts = StoreOptions {
            fsync: false,
            checkpoint_every: 0,
            segment_bytes: 4096,
            ..StoreOptions::default()
        };
        let open = |nvram: NvramDevice| {
            let store = LogStore::open(&dir, opts.clone(), nvram).unwrap();
            let gens = GenStore::open(dir.join("gens")).unwrap();
            LogServer::new(ServerConfig::new(ServerId(1)), store, gens).unwrap()
        };
        let requests: Vec<Packet> = (1..=RECORDS - u64::from(MAX))
            .step_by(MAX as usize)
            .flat_map(|lsn| {
                let forward = Request::ReadLogForward {
                    client: CL,
                    lsn: Lsn(lsn),
                    max_records: MAX,
                };
                let backward = Request::ReadLogBackward {
                    client: CL,
                    lsn: Lsn(lsn + u64::from(MAX) - 1),
                    max_records: MAX,
                };
                [forward, backward].map(|body| Packet::bare(Message::Request { id: lsn, body }))
            })
            .collect();
        let mut out = Vec::with_capacity(4);
        let mut allocs_per_request = |s: &mut LogServer, want: u64| {
            // Warm-up: reply buffer and store scratch.
            for pkt in &requests[..4] {
                s.handle_into(FROM, pkt, &mut out);
                out.clear();
            }
            for pkt in &requests {
                let before = dlog_obs::gauge::thread_allocs();
                s.handle_into(FROM, pkt, &mut out);
                let allocs = dlog_obs::gauge::thread_allocs() - before;
                let [(_, reply)] = &out[..] else {
                    panic!("one reply expected, got {out:?}");
                };
                let Message::Response {
                    body: Response::Records { records },
                    ..
                } = &reply.msg
                else {
                    panic!("unexpected reply {reply:?}");
                };
                assert_eq!(records.len(), MAX as usize);
                assert_eq!(allocs, want, "allocations serving {:?}", pkt.msg);
                out.clear();
            }
        };

        let mut s = open(NvramDevice::new(1 << 20));
        let records = (1..=RECORDS)
            .map(|i| (Lsn(i), LogData::from(vec![i as u8; 90])))
            .collect();
        s.handle(
            FROM,
            &Packet::bare(Message::ForceLog {
                client: CL,
                epoch: Epoch(1),
                records,
            }),
        );
        assert_eq!(s.store_stats().tracks_flushed, 0, "records still in NVRAM");
        allocs_per_request(&mut s, 3);

        let nvram = s.store_mut().nvram();
        drop(s);
        let mut s = open(nvram);
        assert_eq!(s.store_mut().sealed_segments(), (0..8).collect::<Vec<_>>());
        allocs_per_request(&mut s, 3);
    }

    /// What a full read reply costs from sealed segments, pinned by
    /// count: one read syscall when its frames sit in one segment,
    /// forward or backward, and one store read per record it returns (the
    /// frame that would overflow the reply is sized from its envelope and
    /// never decoded). A request for one record reads one store read's
    /// window, not a full reply's bytes. A single `LogStore::read` of a
    /// cold frame is one read syscall too.
    #[test]
    fn a_full_reply_from_one_segment_is_one_read_syscall() {
        // 256-byte payloads make `restart_read`'s 294-byte frames: a full
        // reply is 28 records and 8 232 bytes, and a 64 KiB segment holds
        // 222 whole frames.
        const FULL: usize = 28;
        const FRAME: u64 = 294;
        let dir = tmpdir("read-syscalls");
        let opts = StoreOptions {
            fsync: false,
            checkpoint_every: 0,
            segment_bytes: 64 << 10,
            ..StoreOptions::default()
        };
        let open = |nvram: NvramDevice| {
            let store = LogStore::open(&dir, opts.clone(), nvram).unwrap();
            let gens = GenStore::open(dir.join("gens")).unwrap();
            LogServer::new(ServerConfig::new(ServerId(1)), store, gens).unwrap()
        };
        let nvram = NvramDevice::new(1 << 20);
        let mut s = open(nvram.clone());
        let records = (1..=500u64)
            .map(|i| (Lsn(i), LogData::from(vec![i as u8; 256])))
            .collect();
        s.handle(
            FROM,
            &Packet::bare(Message::ForceLog {
                client: CL,
                epoch: Epoch(1),
                records,
            }),
        );
        drop(s);
        // The reopen replays the NVRAM to disk and its recovery scan opens
        // every segment's descriptor.
        let mut s = open(nvram);
        assert_eq!(s.store_mut().sealed_segments(), vec![0, 1]);
        let Some(_) = dlog_obs::gauge::thread_io() else {
            return; // no /proc/thread-self/io to count with
        };
        // Read syscalls and bytes read, less what sampling itself reads.
        let read_io = |f: &mut dyn FnMut()| {
            let before = dlog_obs::gauge::thread_io().unwrap();
            f();
            let after = dlog_obs::gauge::thread_io().unwrap();
            (after.syscr - before.syscr, after.rchar - before.rchar)
        };
        let (empty, empty_bytes) = read_io(&mut || {});

        let mut out = Vec::with_capacity(4);
        // Forward from the head of segments 0 and 1; backward from the
        // middle of segment 0, so its window reaches below the reply; and
        // one record from the middle of segment 0.
        for (lsn, forward, max_records) in [
            (1, true, 64),
            (250, true, 64),
            (200, false, 64),
            (100, true, 1),
        ] {
            let body = if forward {
                Request::ReadLogForward {
                    client: CL,
                    lsn: Lsn(lsn),
                    max_records,
                }
            } else {
                Request::ReadLogBackward {
                    client: CL,
                    lsn: Lsn(lsn),
                    max_records,
                }
            };
            let full = FULL.min(max_records as usize);
            let request = Packet::bare(Message::Request { id: lsn, body });
            let reads = s.store_stats().reads;
            let (syscalls, bytes) = read_io(&mut || s.handle_into(FROM, &request, &mut out));
            let [(_, reply)] = &out[..] else {
                panic!("one reply expected, got {out:?}");
            };
            let Message::Response {
                body: Response::Records { records },
                ..
            } = &reply.msg
            else {
                panic!("unexpected reply {reply:?}");
            };
            let lsns: Vec<u64> = records.iter().map(|r| r.lsn.0).collect();
            let want: Vec<u64> = if forward {
                (lsn..lsn + full as u64).collect()
            } else {
                (lsn + 1 - full as u64..=lsn).rev().collect()
            };
            assert_eq!(lsns, want, "a full reply from {lsn}");
            assert_eq!(syscalls - empty, 1, "read syscalls serving {request:?}");
            assert_eq!(s.store_stats().reads - reads, full as u64, "store reads");
            if max_records == 1 {
                assert!(
                    bytes - empty_bytes <= FRAME_READ_WINDOW as u64 + FRAME,
                    "{} bytes read serving {request:?}",
                    bytes - empty_bytes
                );
            }
            out.clear();
        }

        let store = s.store_mut();
        let (syscalls, _) = read_io(&mut || {
            assert!(store.read(CL, Lsn(100)).unwrap().is_some());
        });
        assert_eq!(syscalls - empty, 1, "read syscalls of one cold frame");
    }
}
