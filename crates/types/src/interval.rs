//! Intervals of consecutive log records, per-server interval lists, and the
//! highest-epoch-wins merge used at client initialization (§3.1.2).
//!
//! A log server groups the records it stores for one client into
//! *intervals*: maximal sequences with the same epoch number and
//! consecutive LSNs (§3.1.1). The `IntervalList` server operation reports
//! these, and a restarting client merges the lists of at least `M − N + 1`
//! servers, keeping for each LSN only entries with the highest epoch. The
//! merge result ([`MergedView`]) is the client's read cache: it tells the
//! client the end of the log and which server to ask for any record.

use std::collections::BTreeMap;
use std::fmt;

use crate::{Epoch, Lsn, ServerId};

/// A maximal run of records with equal epoch and consecutive LSNs, stored
/// on one log server. The range is closed: `lo..=hi`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Epoch of every record in the run.
    pub epoch: Epoch,
    /// First LSN of the run.
    pub lo: Lsn,
    /// Last LSN of the run (inclusive).
    pub hi: Lsn,
}

impl Interval {
    /// Construct an interval.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `lo` is the [`Lsn::ZERO`] sentinel.
    #[must_use]
    pub fn new(epoch: Epoch, lo: Lsn, hi: Lsn) -> Self {
        assert!(lo <= hi, "interval lo {lo} > hi {hi}");
        assert!(
            lo > Lsn::ZERO,
            "interval may not contain the LSN 0 sentinel"
        );
        Interval { epoch, lo, hi }
    }

    /// A single-record interval.
    #[must_use]
    pub fn point(epoch: Epoch, lsn: Lsn) -> Self {
        Interval::new(epoch, lsn, lsn)
    }

    /// Number of records in the interval.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.lo.span_to(self.hi)
    }

    /// Intervals are never empty; provided for API symmetry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if `lsn` falls within the interval.
    #[must_use]
    pub fn contains(&self, lsn: Lsn) -> bool {
        self.lo <= lsn && lsn <= self.hi
    }

    /// Server storage order (§3.1.1) for the record `<lsn, epoch>` stored
    /// right after this interval: `Ok(true)` when it extends the interval,
    /// `Ok(false)` when it starts a new one (§3.1.2: "if a server has
    /// received a log record in the same epoch with an LSN immediately
    /// preceding the sequence number of the new log record, it extends its
    /// current sequence ... otherwise it creates a new sequence").
    ///
    /// # Errors
    /// Rejects a record with a lower epoch, or with a non-increasing LSN
    /// within the interval's epoch.
    pub fn extended_by(self, epoch: Epoch, lsn: Lsn) -> Result<bool, &'static str> {
        if epoch < self.epoch {
            return Err("epoch regression in server storage order");
        }
        if epoch == self.epoch && lsn <= self.hi {
            return Err("non-increasing LSN within an epoch");
        }
        Ok(epoch == self.epoch && self.hi.precedes(lsn))
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(<{},{}>..<{},{}>)",
            self.lo, self.epoch, self.hi, self.epoch
        )
    }
}

/// The ordered list of intervals a log server stores for one client, in
/// storage (write) order.
///
/// Invariants maintained by [`IntervalList::push`] (from §3.1.1,
/// "successive records on a log server are written with non-decreasing
/// LSNs and non-decreasing epoch numbers"):
///
/// * epochs are non-decreasing along the list;
/// * two intervals with the same epoch do not overlap and appear in
///   increasing LSN order.
///
/// Note that an interval with a *higher* epoch may cover LSNs lower than
/// its predecessors (the recovery procedure's `CopyLog` rewrites do this,
/// cf. Figure 3-3).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct IntervalList {
    intervals: Vec<Interval>,
}

impl IntervalList {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        IntervalList::default()
    }

    /// Build from a vector of intervals, validating the invariants.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn from_intervals(intervals: Vec<Interval>) -> Result<Self, String> {
        let mut list = IntervalList::new();
        for iv in intervals {
            list.push(iv)?;
        }
        Ok(list)
    }

    /// Append a whole interval, validating ordering invariants.
    ///
    /// # Errors
    /// Returns a description of the violated invariant, leaving the list
    /// unchanged.
    pub fn push(&mut self, iv: Interval) -> Result<(), String> {
        // Static violation descriptions: the caller knows the interval.
        if let Some(last) = self.intervals.last() {
            if iv.epoch < last.epoch {
                return Err("epoch regression between intervals".into());
            }
            if iv.epoch == last.epoch && iv.lo <= last.hi {
                return Err("interval overlap within an epoch".into());
            }
        }
        self.intervals.push(iv);
        Ok(())
    }

    /// The intervals in storage order.
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Number of intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True if the server stores nothing for the client.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Total number of records covered (LSNs may be counted once per epoch).
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.intervals.iter().map(Interval::len).sum()
    }

    /// Highest `<LSN, epoch>` stored, i.e. the most recently written record.
    #[must_use]
    pub fn last(&self) -> Option<Interval> {
        self.intervals.last().copied()
    }

    /// The highest-epoch entry covering `lsn`, if any.
    #[must_use]
    pub fn lookup(&self, lsn: Lsn) -> Option<Epoch> {
        // Later intervals have higher (or equal) epochs, so scan backwards
        // and take the first hit.
        self.intervals
            .iter()
            .rev()
            .find(|iv| iv.contains(lsn))
            .map(|iv| iv.epoch)
    }
}

impl fmt::Debug for IntervalList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.intervals).finish()
    }
}

impl<'a> IntoIterator for &'a IntervalList {
    type Item = &'a Interval;
    type IntoIter = std::slice::Iter<'a, Interval>;
    fn into_iter(self) -> Self::IntoIter {
        self.intervals.iter()
    }
}

/// A maximal LSN range over which the winning epoch and server set are
/// constant, in a [`MergedView`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MergedSegment {
    /// First LSN of the segment.
    pub lo: Lsn,
    /// Last LSN of the segment (inclusive).
    pub hi: Lsn,
    /// The winning (highest) epoch over this range.
    pub epoch: Epoch,
    /// Servers storing the records of this range at the winning epoch,
    /// sorted by id.
    pub servers: Vec<ServerId>,
}

/// The client's merged read cache: the result of merging the interval
/// lists of `M − N + 1` (or more) servers, keeping for each LSN only the
/// entries with the highest epoch (§3.1.2).
///
/// "In effect, this replication algorithm performs the voting needed to
/// achieve quorum consensus for all ReadLog operations at client node
/// initialization time."
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct MergedView {
    /// Disjoint segments in increasing LSN order.
    segments: Vec<MergedSegment>,
}

impl MergedView {
    /// An empty view (fresh log).
    #[must_use]
    pub fn new() -> Self {
        MergedView::default()
    }

    /// Merge per-server interval lists into a view.
    ///
    /// For every LSN covered by any list, the entry (or entries) with the
    /// highest epoch win; all servers reporting that `<LSN, epoch>` are
    /// retained as read candidates.
    #[must_use]
    pub fn merge(lists: &[(ServerId, IntervalList)]) -> Self {
        // Sweep the LSN line. Each interval opens at its `lo` and closes
        // at its exclusive end; `open` counts the open intervals per
        // (epoch, server). On each elementary range between two event
        // points, the highest open epoch wins, with every server open at
        // it. O(E log E) for E intervals: a long-lived client's lists
        // grow by an interval per incarnation (§5.4).
        let mut events: Vec<(Lsn, bool, Epoch, ServerId)> = Vec::new();
        for (sid, list) in lists {
            for iv in list {
                // Exclusive end. Both decoders of an interval refuse
                // `hi == Lsn::MAX`, so only a logic error can overflow here.
                events.push((iv.lo, true, iv.epoch, *sid));
                events.push((iv.hi.next(), false, iv.epoch, *sid));
            }
        }
        events.sort_unstable_by_key(|e| e.0);

        let mut open: BTreeMap<(Epoch, ServerId), u32> = BTreeMap::new();
        let mut segments: Vec<MergedSegment> = Vec::new();
        let mut events = events.into_iter().peekable();
        while let Some((lo, opens, epoch, sid)) = events.next() {
            let count = open.entry((epoch, sid)).or_insert(0);
            if opens {
                *count += 1;
            } else {
                *count -= 1;
                if *count == 0 {
                    open.remove(&(epoch, sid));
                }
            }
            // Apply every event at this point before deciding the range.
            let Some(&(end, ..)) = events.peek() else {
                break;
            };
            if end == lo {
                continue;
            }
            let Some(hi) = end.prev() else { continue };
            let Some((&(epoch, _), _)) = open.last_key_value() else {
                continue;
            };
            let servers: Vec<ServerId> = open
                .range((epoch, ServerId(0))..)
                .map(|(&(_, sid), _)| sid)
                .collect();

            // Coalesce with the previous segment when contiguous and equal.
            if let Some(prev) = segments.last_mut() {
                if prev.hi.precedes(lo) && prev.epoch == epoch && prev.servers == servers {
                    prev.hi = hi;
                    continue;
                }
            }
            segments.push(MergedSegment {
                lo,
                hi,
                epoch,
                servers,
            });
        }
        MergedView { segments }
    }

    /// The segments of the view, in increasing LSN order.
    #[must_use]
    pub fn segments(&self) -> &[MergedSegment] {
        &self.segments
    }

    /// The high LSN of the merged list — what `EndOfLog` returns
    /// (§3.1.2). [`Lsn::ZERO`] for an empty log.
    #[must_use]
    pub fn end_of_log(&self) -> Lsn {
        self.segments.last().map_or(Lsn::ZERO, |s| s.hi)
    }

    /// The winning epoch and candidate servers for `lsn`, or `None` when no
    /// merged entry covers it.
    #[must_use]
    pub fn locate(&self, lsn: Lsn) -> Option<(&[ServerId], Epoch)> {
        let idx = self.segments.partition_point(|s| s.hi < lsn);
        let seg = self.segments.get(idx)?;
        seg.contains(lsn)
            .then_some((seg.servers.as_slice(), seg.epoch))
    }

    /// True when some merged entry covers `lsn`.
    #[must_use]
    pub fn contains(&self, lsn: Lsn) -> bool {
        self.locate(lsn).is_some()
    }

    /// Extend the cached view after the client writes `<lsn, epoch>` to
    /// `servers` — keeps the cache current without re-merging.
    pub fn note_write(&mut self, lsn: Lsn, epoch: Epoch, servers: &[ServerId]) {
        self.note_write_range(lsn, lsn, epoch, servers);
    }

    /// [`MergedView::note_write`] for every LSN of `lo..=hi` at once: the
    /// records one acknowledgment completed, all on the same `servers`.
    /// Extending the last segment — the steady state of a client writing
    /// to fixed targets — allocates nothing.
    pub fn note_write_range(&mut self, lo: Lsn, hi: Lsn, epoch: Epoch, servers: &[ServerId]) {
        debug_assert!(lo <= hi, "note_write_range needs lo <= hi");
        if let Some(last) = self.segments.last_mut() {
            debug_assert!(last.hi < lo, "note_write must move forward");
            if last.hi.precedes(lo) && last.epoch == epoch && same_set(&last.servers, servers) {
                last.hi = hi;
                return;
            }
        }
        let mut sv = servers.to_vec();
        sv.sort_unstable();
        sv.dedup();
        self.segments.push(MergedSegment {
            lo,
            hi,
            epoch,
            servers: sv,
        });
    }

    /// True when the view covers no LSNs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// True when `servers` (any order, repeats allowed) names exactly the
/// servers of `sorted`, a sorted and deduplicated segment server list.
fn same_set(sorted: &[ServerId], servers: &[ServerId]) -> bool {
    servers.iter().all(|s| sorted.binary_search(s).is_ok())
        && sorted.iter().all(|s| servers.contains(s))
}

impl MergedSegment {
    /// True if `lsn` falls inside the segment.
    #[must_use]
    pub fn contains(&self, lsn: Lsn) -> bool {
        self.lo <= lsn && lsn <= self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn il(entries: &[(u64, u64, u64)]) -> IntervalList {
        // (epoch, lo, hi)
        IntervalList::from_intervals(
            entries
                .iter()
                .map(|&(e, lo, hi)| Interval::new(Epoch(e), Lsn(lo), Lsn(hi)))
                .collect(),
        )
        .expect("valid test interval list")
    }

    #[test]
    fn interval_basics() {
        let iv = Interval::new(Epoch(3), Lsn(3), Lsn(9));
        assert_eq!(iv.len(), 7);
        assert!(iv.contains(Lsn(3)));
        assert!(iv.contains(Lsn(9)));
        assert!(!iv.contains(Lsn(10)));
        assert!(!iv.is_empty());
    }

    #[test]
    #[should_panic(expected = "lo")]
    fn interval_rejects_reversed_range() {
        let _ = Interval::new(Epoch(1), Lsn(5), Lsn(4));
    }

    #[test]
    fn push_rejects_epoch_regression() {
        let mut l = il(&[(3, 1, 5)]);
        assert!(l.push(Interval::new(Epoch(2), Lsn(6), Lsn(7))).is_err());
    }

    #[test]
    fn push_rejects_same_epoch_overlap() {
        let mut l = il(&[(3, 1, 5)]);
        assert!(l.push(Interval::new(Epoch(3), Lsn(5), Lsn(7))).is_err());
        // A gap in the same epoch is fine (client switched servers and came
        // back — cf. Server 3 in Figure 3-1).
        assert!(l.push(Interval::new(Epoch(3), Lsn(8), Lsn(9))).is_ok());
    }

    #[test]
    fn higher_epoch_may_rewind_lsn() {
        // Figure 3-3, Server 1: ... <9,3> then <9,4>, <10,4>.
        let mut l = il(&[(1, 1, 3), (3, 3, 9)]);
        assert!(l.push(Interval::new(Epoch(4), Lsn(9), Lsn(10))).is_ok());
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn append_record_extends_and_breaks() {
        let iv = Interval::new(Epoch(1), Lsn(1), Lsn(3));
        assert_eq!(iv.extended_by(Epoch(1), Lsn(4)), Ok(true));
        // Same LSN, new epoch: new interval (Figure 3-1, Server 1).
        assert_eq!(iv.extended_by(Epoch(3), Lsn(3)), Ok(false));
        // Gap within an epoch: new interval.
        assert_eq!(iv.extended_by(Epoch(1), Lsn(9)), Ok(false));
        // Out of server storage order.
        assert!(iv.extended_by(Epoch(0), Lsn(4)).is_err());
        assert!(iv.extended_by(Epoch(1), Lsn(3)).is_err());
        assert!(iv.extended_by(Epoch(1), Lsn(2)).is_err());
    }

    #[test]
    fn lookup_prefers_higher_epoch() {
        let l = il(&[(1, 1, 3), (3, 3, 9)]);
        assert_eq!(l.lookup(Lsn(3)), Some(Epoch(3)));
        assert_eq!(l.lookup(Lsn(2)), Some(Epoch(1)));
        assert_eq!(l.lookup(Lsn(10)), None);
    }

    /// The exact configuration of Figure 3-1: the replicated log must
    /// consist of (<1,1>..<2,1>), (<3,3>), (<5,3>..<9,3>) — record 4 is
    /// marked not-present (presence is checked at read time, not here) and
    /// every record appears on N=2 servers.
    #[test]
    fn figure_3_1_merge() {
        let s1 = il(&[(1, 1, 3), (3, 3, 9)]);
        let s2 = il(&[(1, 1, 3), (3, 6, 7)]);
        let s3 = il(&[(3, 3, 5), (3, 8, 9)]);
        let v = MergedView::merge(&[(ServerId(1), s1), (ServerId(2), s2), (ServerId(3), s3)]);

        assert_eq!(v.end_of_log(), Lsn(9));
        // LSNs 1..2: epoch 1 on servers 1 and 2.
        let (srv, ep) = v.locate(Lsn(1)).unwrap();
        assert_eq!(ep, Epoch(1));
        assert_eq!(srv, &[ServerId(1), ServerId(2)]);
        // LSN 3: epoch 3 wins (servers 1 and 3), epoch-1 copies lose.
        let (srv, ep) = v.locate(Lsn(3)).unwrap();
        assert_eq!(ep, Epoch(3));
        assert_eq!(srv, &[ServerId(1), ServerId(3)]);
        // LSN 6: epoch 3 on servers 1 and 2... and not 3 (gap there).
        let (srv, ep) = v.locate(Lsn(6)).unwrap();
        assert_eq!(ep, Epoch(3));
        assert_eq!(srv, &[ServerId(1), ServerId(2)]);
        // LSN 8: servers 1 and 3.
        let (srv, _) = v.locate(Lsn(8)).unwrap();
        assert_eq!(srv, &[ServerId(1), ServerId(3)]);
        assert!(!v.contains(Lsn(10)));
    }

    /// Figure 3-2 ⇒ 3-3: the partially written record 10 (only on server 3)
    /// is invisible when merging servers 1 and 2, and after recovery the
    /// epoch-4 rewrite of LSNs 9–10 wins over server 3's epoch-3 copy.
    #[test]
    fn figure_3_2_and_3_3_merge() {
        // Before recovery, merging only servers 1 and 2 (a legal quorum for
        // M=3, N=2: M−N+1 = 2):
        let s1 = il(&[(1, 1, 3), (3, 3, 9)]);
        let s2 = il(&[(1, 1, 3), (3, 6, 7)]);
        let v = MergedView::merge(&[(ServerId(1), s1), (ServerId(2), s2)]);
        assert_eq!(v.end_of_log(), Lsn(9)); // record 10 invisible

        // After the recovery procedure (Figure 3-3): servers 1 and 2 hold
        // <9,4> and the not-present <10,4>; server 3 still has <10,3>.
        let s1 = il(&[(1, 1, 3), (3, 3, 9), (4, 9, 10)]);
        let s2 = il(&[(1, 1, 3), (3, 6, 7), (4, 9, 10)]);
        let s3 = il(&[(3, 3, 5), (3, 8, 10)]);
        let v = MergedView::merge(&[(ServerId(1), s1), (ServerId(2), s2), (ServerId(3), s3)]);
        // Epoch 4 wins at LSNs 9 and 10 regardless of server 3's stale copy.
        let (srv, ep) = v.locate(Lsn(9)).unwrap();
        assert_eq!(ep, Epoch(4));
        assert_eq!(srv, &[ServerId(1), ServerId(2)]);
        let (_, ep) = v.locate(Lsn(10)).unwrap();
        assert_eq!(ep, Epoch(4));
        assert_eq!(v.end_of_log(), Lsn(10));
    }

    #[test]
    fn merge_empty() {
        let v = MergedView::merge(&[]);
        assert!(v.is_empty());
        assert_eq!(v.end_of_log(), Lsn::ZERO);
        assert!(v.locate(Lsn(1)).is_none());

        let v = MergedView::merge(&[(ServerId(1), IntervalList::new())]);
        assert!(v.is_empty());
    }

    #[test]
    fn note_write_extends_cache() {
        let mut v = MergedView::new();
        v.note_write(Lsn(1), Epoch(2), &[ServerId(1), ServerId(2)]);
        v.note_write(Lsn(2), Epoch(2), &[ServerId(2), ServerId(1)]);
        assert_eq!(
            v.segments().len(),
            1,
            "contiguous same-config writes coalesce"
        );
        v.note_write(Lsn(3), Epoch(2), &[ServerId(1), ServerId(3)]);
        assert_eq!(v.segments().len(), 2);
        assert_eq!(v.end_of_log(), Lsn(3));
        let (srv, _) = v.locate(Lsn(3)).unwrap();
        assert_eq!(srv, &[ServerId(1), ServerId(3)]);
    }
}
