//! Restore: rebuild a wiped server directory from the archive, and serve
//! archived records directly from the object store.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use dlog_storage::crc::crc32;
use dlog_storage::frame::Frame;
use dlog_storage::intervals::IntervalTable;
use dlog_storage::store::encode_checkpoint_image_into;
use dlog_types::{ClientId, DlogError, Interval, IntervalList, LogRecord, Lsn, Result};

use crate::manifest::{load_latest, Manifest};
use crate::object_store::ObjectStore;

/// Rebuild `dir` from the newest valid manifest in `objects`: segment
/// files are rewritten byte-for-byte (verified against the manifest
/// CRCs) and the `intervals.ckpt` checkpoint is fabricated from the
/// manifest's replay state, so a normal `LogStore::open` recovers the
/// archived prefix — including truncating the partial frame, if any,
/// between the manifest's cut and its restore end.
///
/// # Errors
/// Fails when no manifest exists, when `dir` already holds a stream, or
/// on any corruption or I/O failure.
pub fn restore(objects: &dyn ObjectStore, dir: impl AsRef<Path>) -> Result<Manifest> {
    let manifest = load_latest(objects)?
        .ok_or_else(|| DlogError::Protocol("archive holds no valid manifest".into()))?;
    restore_from(objects, &manifest, dir)?;
    Ok(manifest)
}

/// [`restore`] from a specific manifest.
///
/// # Errors
/// See [`restore`].
pub fn restore_from(
    objects: &dyn ObjectStore,
    manifest: &Manifest,
    dir: impl AsRef<Path>,
) -> Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".seg") || name == "intervals.ckpt" {
            return Err(DlogError::Protocol(format!(
                "refusing to restore into {}: it already holds a stream ({name})",
                dir.display()
            )));
        }
    }
    for e in &manifest.segments {
        let key = Manifest::segment_key(e.index);
        let bytes = objects
            .get(key.as_str())?
            .ok_or_else(|| DlogError::Corrupt(format!("archive object {key} missing")))?;
        // A later round may have re-uploaded this segment with more
        // appended bytes; the stream is append-only, so this manifest's
        // view is the object's prefix.
        let view = bytes.get(..e.len as usize).ok_or_else(|| {
            DlogError::Corrupt(format!("archive object {key} shorter than manifest entry"))
        })?;
        if crc32(view) != e.crc {
            return Err(DlogError::Corrupt(format!(
                "archive object {key} does not match its manifest entry"
            )));
        }
        write_file(dir, key.as_str(), view)?;
    }
    let state = manifest.replay_state()?;
    let mut image = Vec::new();
    encode_checkpoint_image_into(state.table(), manifest.cut, &mut image);
    write_file(dir, "intervals.ckpt", &image)?;
    // Restored files must survive a crash before we report success;
    // a failed directory sync would leave the restore only probably
    // durable (§4.2 force-before-ack).
    File::open(dir)?.sync_data()?;
    Ok(())
}

fn write_file(dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
    let mut f = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(dir.join(name))?;
    f.write_all(bytes)?;
    f.sync_data()?;
    Ok(())
}

/// Serves `ReadLog` and `IntervalList` for archived records straight from
/// the object store, with no local copy of the stream. A server whose
/// retention has pruned its local head attaches one of these and falls
/// back to it for positions it no longer stores.
pub struct ArchiveReader {
    objects: Arc<dyn ObjectStore>,
    manifest: Manifest,
    table: IntervalTable,
    /// Tiny segment cache: archived reads cluster in the same segment.
    cache: HashMap<u64, Vec<u8>>,
}

impl ArchiveReader {
    /// Open a reader over the newest valid manifest; `None` when the
    /// archive is empty.
    ///
    /// # Errors
    /// Propagates backend I/O failures and manifest corruption.
    pub fn open(objects: Arc<dyn ObjectStore>) -> Result<Option<ArchiveReader>> {
        match load_latest(&*objects)? {
            Some(m) => Ok(Some(ArchiveReader::from_manifest(objects, m)?)),
            None => Ok(None),
        }
    }

    /// Open a reader over a specific manifest.
    ///
    /// # Errors
    /// Fails when the manifest's replay state is corrupt.
    pub fn from_manifest(
        objects: Arc<dyn ObjectStore>,
        manifest: Manifest,
    ) -> Result<ArchiveReader> {
        let table = manifest.replay_state()?.table().clone();
        Ok(ArchiveReader {
            objects,
            manifest,
            table,
            cache: HashMap::new(),
        })
    }

    /// The manifest this reader serves.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Archived installed intervals for `client`.
    #[must_use]
    pub fn interval_list(&self, client: ClientId) -> IntervalList {
        self.table.interval_list(client)
    }

    /// All clients with archived records.
    #[must_use]
    pub fn clients(&self) -> Vec<ClientId> {
        let mut v: Vec<_> = self.table.clients().collect();
        v.sort_unstable();
        v
    }

    /// Read the archived record with the highest epoch at `lsn` for
    /// `client`; `Ok(None)` when the archive does not hold it.
    ///
    /// # Errors
    /// Propagates backend I/O failures and frame corruption.
    pub fn read(&mut self, client: ClientId, lsn: Lsn) -> Result<Option<LogRecord>> {
        let Some((_, pos)) = self.table.lookup(client, lsn) else {
            return Ok(None);
        };
        let envelope = self.read_bytes(pos, 8)?;
        let body_len = envelope
            .get(0..4)
            .and_then(|s| <[u8; 4]>::try_from(s).ok())
            .map(u32::from_le_bytes)
            .ok_or_else(|| DlogError::Corrupt("archived envelope truncated".into()))?
            as usize;
        let bytes = self.read_bytes(pos, 8 + body_len)?;
        match Frame::decode(&bytes)? {
            Some((
                Frame::Record {
                    client: c, record, ..
                },
                _,
            )) if c == client && record.lsn == lsn => Ok(Some(record)),
            _ => Err(DlogError::Corrupt(
                "archive index points at a foreign frame".into(),
            )),
        }
    }

    /// Read raw archived stream bytes, spanning segment objects.
    fn read_bytes(&mut self, pos: u64, len: usize) -> Result<Vec<u8>> {
        let sb = self.manifest.segment_bytes;
        let mut out = Vec::with_capacity(len);
        let mut cursor = pos;
        while out.len() < len {
            let seg = cursor / sb;
            let off = (cursor % sb) as usize;
            let take = (sb as usize - off).min(len - out.len());
            let bytes = self.segment(seg)?;
            let Some(chunk) = bytes.get(off..off + take) else {
                return Err(DlogError::Corrupt(
                    "archived read runs past its segment".into(),
                ));
            };
            out.extend_from_slice(chunk);
            cursor += take as u64;
        }
        Ok(out)
    }

    fn segment(&mut self, seg: u64) -> Result<&Vec<u8>> {
        if !self.cache.contains_key(&seg) {
            let key = Manifest::segment_key(seg);
            let bytes = self
                .objects
                .get(key.as_str())?
                .ok_or_else(|| DlogError::Corrupt("archive segment object missing".into()))?;
            if self.cache.len() >= 4 {
                self.cache.clear();
            }
            self.cache.insert(seg, bytes);
        }
        self.cache
            .get(&seg)
            .ok_or_else(|| DlogError::Corrupt("archive segment evicted mid-read".into()))
    }
}

/// Merge a server's live interval list with the archived prefix list for
/// the same client. The two lists describe overlapping views of one
/// history (the archive holds the head the live store may have pruned;
/// the live store holds the tail the archive has not caught up to), so
/// merging is coalescing: sort by (epoch, lo) and fuse overlapping or
/// adjacent same-epoch runs.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "runs are sorted and coalesced by construction; a push rejection means corrupted state, fail-stop is correct"
)]
pub fn merge_interval_lists(archived: &IntervalList, live: &IntervalList) -> IntervalList {
    let mut all: Vec<Interval> = archived
        .intervals()
        .iter()
        .chain(live.intervals().iter())
        .copied()
        .collect();
    all.sort_unstable_by_key(|iv| (iv.epoch, iv.lo));
    let mut out = IntervalList::new();
    let mut run: Option<Interval> = None;
    for iv in all {
        match &mut run {
            Some(r) if r.epoch == iv.epoch && (iv.lo <= r.hi || r.hi.precedes(iv.lo)) => {
                r.hi = r.hi.max(iv.hi);
            }
            Some(r) => {
                out.push(*r).expect("sorted coalesced runs are well-formed");
                run = Some(iv);
            }
            None => run = Some(iv),
        }
    }
    if let Some(r) = run {
        out.push(r).expect("sorted coalesced runs are well-formed");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlog_types::Epoch;

    fn list(ivs: &[(u64, u64, u64)]) -> IntervalList {
        let v = ivs
            .iter()
            .map(|&(e, lo, hi)| Interval::new(Epoch(e), Lsn(lo), Lsn(hi)))
            .collect();
        IntervalList::from_intervals(v).unwrap()
    }

    #[test]
    fn merge_overlapping_prefix() {
        let archived = list(&[(1, 1, 40)]);
        let live = list(&[(1, 30, 55)]);
        let m = merge_interval_lists(&archived, &live);
        assert_eq!(m.intervals(), list(&[(1, 1, 55)]).intervals());
    }

    #[test]
    fn merge_disjoint_epochs() {
        let archived = list(&[(1, 1, 10), (2, 10, 12)]);
        let live = list(&[(2, 13, 20), (3, 18, 25)]);
        let m = merge_interval_lists(&archived, &live);
        assert_eq!(
            m.intervals(),
            list(&[(1, 1, 10), (2, 10, 20), (3, 18, 25)]).intervals()
        );
    }

    #[test]
    fn merge_with_empty_sides() {
        let only = list(&[(1, 5, 9)]);
        assert_eq!(
            merge_interval_lists(&only, &IntervalList::new()).intervals(),
            only.intervals()
        );
        assert_eq!(
            merge_interval_lists(&IntervalList::new(), &only).intervals(),
            only.intervals()
        );
        assert!(merge_interval_lists(&IntervalList::new(), &IntervalList::new()).is_empty());
    }
}
