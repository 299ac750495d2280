//! The per-server archiver: watches a [`LogStore`] for sealed segments
//! and publishes consistent prefixes of the stream to an object store.
//!
//! Each publish round is deterministic from the store state it observes:
//! segment objects are uploaded first (skipping immutable full segments
//! already listed by the previous manifest), then a new generation-
//! numbered manifest is written last. A crash anywhere in the round
//! leaves either the old manifest (the re-run re-uploads and converges
//! to byte-identical objects) or the new one (the re-run is a no-op), so
//! uploads are idempotent end to end.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dlog_storage::crc::crc32;
use dlog_storage::{LogStore, ReplayState};
use dlog_types::{DlogError, Result};

use crate::manifest::{load_latest, Manifest, SegmentEntry};
use crate::object_store::ObjectStore;

/// Bounded-retry policy for object puts: `attempts` tries per object with
/// exponential backoff starting at `base_delay`.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total put attempts per object (≥ 1).
    pub attempts: u32,
    /// Delay before the first retry; doubles per retry.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(10),
        }
    }
}

/// Archiver gauges, surfaced through the server `Status` RPC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Total bytes referenced by the newest manifest.
    pub archived_bytes: u64,
    /// Highest installed LSN covered by the newest manifest.
    pub last_manifest_lsn: u64,
    /// Failed put attempts (each triggers a retry or an error).
    pub upload_retries: u64,
    /// Segment objects uploaded over this archiver's lifetime.
    pub segments_uploaded: u64,
    /// Manifests published over this archiver's lifetime.
    pub manifests_written: u64,
}

/// Publishes consistent prefixes of one server's log stream to an object
/// store. See the crate docs for the protocol.
pub struct Archiver {
    objects: Arc<dyn ObjectStore>,
    policy: RetryPolicy,
    /// Replay of every frame wholly below `cut`.
    state: ReplayState,
    /// Frame-aligned high-water mark of `state`.
    cut: u64,
    /// `cut` initialised from the store's frame anchor (first publish).
    primed: bool,
    manifest: Option<Manifest>,
    stats: ArchiveStats,
}

impl Archiver {
    /// Create an archiver over `objects`, resuming from the newest valid
    /// manifest if one exists.
    ///
    /// # Errors
    /// Propagates backend I/O failures and manifest corruption.
    pub fn new(objects: Arc<dyn ObjectStore>) -> Result<Archiver> {
        let manifest = load_latest(&*objects)?;
        let (state, cut, primed) = match &manifest {
            Some(m) => (m.replay_state()?, m.cut, true),
            None => (ReplayState::new(), 0, false),
        };
        let mut stats = ArchiveStats::default();
        if let Some(m) = &manifest {
            stats.archived_bytes = m.archived_bytes();
            stats.last_manifest_lsn = m.last_lsn()?.0;
        }
        Ok(Archiver {
            objects,
            policy: RetryPolicy::default(),
            state,
            cut,
            primed,
            manifest,
            stats,
        })
    }

    /// Test hook: replace the retry policy (fault tests drop the backoff).
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Archiver {
        self.policy = policy;
        self
    }

    /// The newest manifest this archiver has observed or published.
    #[must_use]
    pub fn manifest(&self) -> Option<&Manifest> {
        self.manifest.as_ref()
    }

    /// Frame-aligned position up to which the archive is caught up.
    #[must_use]
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Current gauges.
    #[must_use]
    pub fn stats(&self) -> ArchiveStats {
        self.stats
    }

    /// Durable bytes not yet covered by a manifest.
    #[must_use]
    pub fn pending_bytes(&self, store: &LogStore) -> u64 {
        let covered = self.manifest.as_ref().map_or(0, |m| m.restore_end);
        store.append_position().saturating_sub(covered)
    }

    /// One background round: if the store has sealed segments beyond the
    /// newest manifest, publish a manifest covering them. Returns the new
    /// manifest, or `None` when the archive is already caught up. Partial
    /// tail segments are left alone (see [`Archiver::archive_now`]).
    ///
    /// # Errors
    /// Propagates I/O failures; the round may be retried verbatim.
    pub fn tick(&mut self, store: &mut LogStore) -> Result<Option<Manifest>> {
        let Some(&last) = store.sealed_segments().last() else {
            return Ok(None);
        };
        let upto = (last + 1) * store.segment_bytes();
        if self
            .manifest
            .as_ref()
            .is_some_and(|m| m.restore_end >= upto)
        {
            // Caught up; still refresh the store's watermark (a restarted
            // server re-learns it from the loaded manifest).
            if let Some(m) = &self.manifest {
                store.note_archived(m.restore_end.min(store.stream_end()));
            }
            return Ok(None);
        }
        self.publish(store, upto).map(Some)
    }

    /// Push mode (`dlog archive push`): flush the store and archive
    /// everything on disk, including a partial tail segment, so the
    /// archive captures every durable record right now.
    ///
    /// # Errors
    /// Propagates I/O failures; the round may be retried verbatim.
    pub fn archive_now(&mut self, store: &mut LogStore) -> Result<Manifest> {
        store.sync()?;
        let upto = store.stream_end();
        if let Some(m) = &self.manifest {
            if m.restore_end == upto {
                store.note_archived(upto);
                return Ok(m.clone());
            }
        }
        self.publish(store, upto)
    }

    /// Publish a manifest covering stream bytes `[archive start, upto)`.
    fn publish(&mut self, store: &mut LogStore, upto: u64) -> Result<Manifest> {
        if !self.primed {
            // First contact with this store: positions below its frame
            // anchor are unreachable by a frame scan, so archival of this
            // stream starts there.
            self.cut = store.frame_anchor();
            self.primed = true;
        }

        // 1. Advance the replay state over every frame wholly below
        //    `upto`; the last such frame's end is the new cut. Frames
        //    spilling past `upto` stay un-applied — after a restore they
        //    are the torn tail recovery truncates. Work on a scratch copy
        //    so a failed upload leaves the archiver re-runnable verbatim.
        let mut batch: Vec<(u64, u64, _)> = Vec::new();
        store.scan_stream(self.cut, |pos, frame| {
            let end = pos + frame.encoded_len() as u64;
            if end <= upto {
                batch.push((pos, end, frame));
            }
        })?;
        let mut state = self.state.clone();
        let mut new_cut = self.cut;
        for (pos, end, frame) in batch {
            state
                .apply(pos, frame)
                .map_err(|e| DlogError::Corrupt(format!("archive replay at {pos}: {e}")))?;
            new_cut = end;
        }

        // 2. Upload segment objects. Full segments already listed by the
        //    previous manifest are immutable and skipped; entries below
        //    the live stream start are carried over verbatim (the live
        //    store pruned them after archival — the archive keeps them).
        let sb = store.segment_bytes();
        let prev: HashMap<u64, SegmentEntry> = self
            .manifest
            .as_ref()
            .map(|m| m.segments.iter().map(|e| (e.index, *e)).collect())
            .unwrap_or_default();
        let first_live = store.stream_start() / sb;
        let mut segments: Vec<SegmentEntry> = prev
            .values()
            .filter(|e| e.index < first_live)
            .copied()
            .collect();
        let last_full = upto / sb;
        for index in first_live..last_full {
            if let Some(e) = prev.get(&index) {
                if e.len == sb {
                    segments.push(*e);
                    continue;
                }
            }
            let bytes = store.read_stream(index * sb, sb as usize)?;
            let entry = SegmentEntry {
                index,
                len: sb,
                crc: crc32(&bytes),
            };
            self.put_with_retry(Manifest::segment_key(index).as_str(), &bytes)?;
            self.stats.segments_uploaded += 1;
            segments.push(entry);
        }
        let tail_len = upto % sb;
        if tail_len != 0 {
            let bytes = store.read_stream(last_full * sb, tail_len as usize)?;
            let entry = SegmentEntry {
                index: last_full,
                len: tail_len,
                crc: crc32(&bytes),
            };
            if prev.get(&last_full) != Some(&entry) {
                self.put_with_retry(Manifest::segment_key(last_full).as_str(), &bytes)?;
                self.stats.segments_uploaded += 1;
            }
            segments.push(entry);
        }
        segments.sort_unstable_by_key(|e| e.index);

        // 3. The manifest is written last: its existence certifies every
        //    object it references.
        let generation = self
            .manifest
            .as_ref()
            .map_or(1, |m| m.generation.saturating_add(1));
        let manifest = Manifest {
            generation,
            segment_bytes: sb,
            restore_end: upto,
            cut: new_cut,
            segments,
            state: state.encode(),
        };
        self.put_with_retry(&Manifest::key(generation), &manifest.encode())?;

        self.state = state;
        self.cut = new_cut;
        self.stats.archived_bytes = manifest.archived_bytes();
        self.stats.last_manifest_lsn = manifest.last_lsn()?.0;
        self.stats.manifests_written += 1;
        store.note_archived(upto);
        self.manifest = Some(manifest.clone());
        Ok(manifest)
    }

    fn put_with_retry(&mut self, key: &str, bytes: &[u8]) -> Result<()> {
        dlog_types::lock::assert_unlocked();
        let attempts = self.policy.attempts.max(1);
        let mut delay = self.policy.base_delay;
        let mut last_err = None;
        for attempt in 0..attempts {
            match self.objects.put(key, bytes) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.stats.upload_retries += 1;
                    last_err = Some(e);
                    if attempt + 1 < attempts && !delay.is_zero() {
                        std::thread::sleep(delay);
                        delay = delay.saturating_mul(2);
                    }
                }
            }
        }
        Err(DlogError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::other("upload failed with zero attempts")
        })))
    }
}
