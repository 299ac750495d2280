//! **dlog-obs** — end-to-end observability for the dlog reproduction.
//!
//! The paper sizes the log service analytically (§4.1 capacity, §4.2
//! flow control); this crate is how the reproduction *measures* itself:
//!
//! * [`LatencyHistogram`] — log₂-bucketed, mergeable latency histograms
//!   with p50/p95/p99/max extraction;
//! * [`TraceLog`] — a bounded ring of typed, wall-clock-free
//!   [`TraceEvent`]s keyed by LSN, so a record's path from
//!   `ClientWrite` through `PacketSend`, `ServerIngest`, `Force`, and
//!   `AckHighLsn` is reconstructable (and, under a deterministic
//!   schedule, byte-identical across runs).
//!
//! The [`Obs`] handle bundles one histogram per [`Stage`] with one trace
//! ring behind an `Option<Arc<…>>`: a disabled handle
//! ([`ObsOptions::off`]) is a `None` and every probe is a single branch,
//! so instrumentation compiles down to near-zero cost when off, and is
//! allocation-free on the hot path when on.
//!
//! This crate depends only on `dlog-alloc` (the counting global
//! allocator behind [`gauge`]) so every layer of the workspace can
//! carry a handle.

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

pub mod gauge;
pub mod hist;
pub mod trace;

pub use hist::{bucket_ceiling, bucket_index, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use trace::{Stage, TraceEvent, TraceLog};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How much observability a component should carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsOptions {
    /// Collect anything at all.
    pub enabled: bool,
    /// Trace ring capacity in events.
    pub trace_capacity: usize,
}

impl ObsOptions {
    /// Observability disabled: probes are single-branch no-ops.
    #[must_use]
    pub fn off() -> ObsOptions {
        ObsOptions {
            enabled: false,
            trace_capacity: 0,
        }
    }

    /// Observability on with the default trace ring (65 536 events).
    #[must_use]
    pub fn on() -> ObsOptions {
        ObsOptions {
            enabled: true,
            trace_capacity: 1 << 16,
        }
    }
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions::off()
    }
}

struct ObsCore {
    seq: AtomicU64,
    stages: [LatencyHistogram; Stage::COUNT],
    trace: TraceLog,
}

/// A cloneable observability handle. Clones share the same counters,
/// histograms, and trace ring, so a server, its store, and its endpoint
/// can feed one coherent trace.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<ObsCore>>);

impl Obs {
    /// Build a handle per `opts` (disabled options give a no-op handle).
    #[must_use]
    pub fn new(opts: &ObsOptions) -> Obs {
        if !opts.enabled {
            return Obs(None);
        }
        Obs(Some(Arc::new(ObsCore {
            seq: AtomicU64::new(0),
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            trace: TraceLog::new(opts.trace_capacity),
        })))
    }

    /// A permanently disabled handle.
    #[must_use]
    pub fn off() -> Obs {
        Obs(None)
    }

    /// Is anything being collected?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emit a trace event. The sequence number is drawn from a shared
    /// atomic, so events from every clone of this handle interleave into
    /// one total order.
    pub fn event(&self, stage: Stage, lsn: u64, detail: u64) {
        let Some(core) = &self.0 else { return };
        let seq = core.seq.fetch_add(1, Ordering::Relaxed);
        core.trace.push(TraceEvent {
            seq,
            stage,
            lsn,
            detail,
        });
    }

    /// Record a latency sample (nanoseconds) against a stage.
    pub fn sample(&self, stage: Stage, nanos: u64) {
        let Some(core) = &self.0 else { return };
        if let Some(h) = core.stages.get(stage.index()) {
            h.record(nanos);
        }
    }

    /// Start a timing span — `None` (and therefore free) when disabled.
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        if self.0.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a timing span opened by [`Obs::start`].
    pub fn sample_since(&self, stage: Stage, started: Option<Instant>) {
        if let Some(t) = started {
            self.sample(stage, t.elapsed().as_nanos() as u64);
        }
    }

    /// Copy out everything collected so far (`None` when disabled).
    #[must_use]
    pub fn snapshot(&self) -> Option<ObsSnapshot> {
        let core = self.0.as_ref()?;
        let stages = Stage::ALL
            .iter()
            .map(|s| StageSnapshot {
                stage: *s,
                hist: core
                    .stages
                    .get(s.index())
                    .map(LatencyHistogram::snapshot)
                    .unwrap_or_default(),
            })
            .collect();
        let (trace, trace_events, trace_dropped) = core.trace.snapshot();
        Some(ObsSnapshot {
            stages,
            trace,
            trace_events,
            trace_dropped,
        })
    }
}

/// One stage's latency histogram in a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSnapshot {
    /// The stage.
    pub stage: Stage,
    /// Its latency distribution.
    pub hist: HistogramSnapshot,
}

/// A point-in-time copy of an [`Obs`] handle's state.
#[derive(Clone, Debug)]
pub struct ObsSnapshot {
    /// One histogram per stage, in [`Stage::ALL`] order.
    pub stages: Vec<StageSnapshot>,
    /// Retained trace events ordered by sequence number.
    pub trace: Vec<TraceEvent>,
    /// Events ever emitted.
    pub trace_events: u64,
    /// Events evicted from the ring.
    pub trace_dropped: u64,
}

impl ObsSnapshot {
    /// The histogram for one stage (empty when absent).
    #[must_use]
    pub fn stage(&self, stage: Stage) -> HistogramSnapshot {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.hist)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::new(&ObsOptions::off());
        assert!(!obs.enabled());
        assert!(obs.start().is_none());
        obs.event(Stage::Force, 1, 2);
        obs.sample(Stage::Force, 3);
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn clones_share_one_trace() {
        let obs = Obs::new(&ObsOptions {
            trace_capacity: 16,
            ..ObsOptions::on()
        });
        let other = obs.clone();
        obs.event(Stage::ClientWrite, 1, 0);
        other.event(Stage::Force, 1, 7);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.trace_events, 2);
        assert_eq!(snap.trace.len(), 2);
        assert_eq!(snap.trace[0].stage, Stage::ClientWrite);
        assert_eq!(snap.trace[1].stage, Stage::Force);
    }

    #[test]
    fn samples_land_in_stage_histograms() {
        let obs = Obs::new(&ObsOptions::on());
        obs.sample(Stage::PacketSend, 100);
        obs.sample(Stage::PacketSend, 200);
        let span = obs.start();
        obs.sample_since(Stage::Force, span);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.stage(Stage::PacketSend).count(), 2);
        assert_eq!(snap.stage(Stage::PacketSend).max, 200);
        assert_eq!(snap.stage(Stage::Force).count(), 1);
        assert_eq!(snap.stage(Stage::ClientWrite).count(), 0);
    }
}
