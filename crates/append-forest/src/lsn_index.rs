//! The paper's intended use of the append forest (§4.3): indexing one
//! client's log records by LSN, where "the keys will be ranges of log
//! sequence numbers" and "each node of the append forest will contain
//! pointers to each log record in its range".

use dlog_types::Lsn;

use crate::AppendForest;

/// A page-sized batch of record pointers covering one LSN range.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RangeNode {
    /// First LSN covered by the node.
    lo: Lsn,
    /// Storage position (e.g. byte offset in the log stream) of each record
    /// in `lo..=lo + positions.len() - 1`.
    positions: Vec<u64>,
}

/// An LSN → storage-position index built on an [`AppendForest`] keyed by
/// the *high* LSN of each range node.
///
/// Records are added in strictly increasing LSN order (the order the log
/// stream is written); every `fanout` records the open node is sealed and
/// appended to the forest. Lookups find the sealed or open node covering an
/// LSN with `O(log n)` traversals and then index directly into it.
#[derive(Clone, Debug)]
pub struct LsnIndex {
    forest: AppendForest<u64, RangeNode>,
    /// Records accumulating toward the next sealed node.
    open: Option<RangeNode>,
    /// Records per sealed node ("each page sized node of the tree can index
    /// one thousand or more records").
    fanout: usize,
    next_lsn: Option<Lsn>,
}

impl LsnIndex {
    /// An empty index sealing nodes of `fanout` records.
    ///
    /// # Panics
    /// Panics if `fanout` is zero.
    #[must_use]
    pub fn new(fanout: usize) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        LsnIndex {
            forest: AppendForest::new(),
            open: None,
            fanout,
            next_lsn: None,
        }
    }

    /// Number of records indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.forest
            .iter()
            .map(|(_, n)| n.positions.len())
            .sum::<usize>()
            + self.open.as_ref().map_or(0, |n| n.positions.len())
    }

    /// True when no record has been indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record that the record at `lsn` lives at `position` in the stream.
    ///
    /// # Errors
    /// Returns `Err(lsn)` when `lsn` is not the successor of the last
    /// indexed LSN (the index covers one gap-free sequence; gaps start a
    /// new index in the storage layer).
    #[expect(
        clippy::expect_used,
        reason = "the open node was created two statements above and high LSNs are strictly increasing by construction"
    )]
    pub fn append(&mut self, lsn: Lsn, position: u64) -> Result<(), Lsn> {
        if let Some(expected) = self.next_lsn {
            if lsn != expected {
                return Err(lsn);
            }
        }
        let node = self.open.get_or_insert_with(|| RangeNode {
            lo: lsn,
            positions: Vec::new(),
        });
        node.positions.push(position);
        self.next_lsn = Some(lsn.next());
        if node.positions.len() >= self.fanout {
            let sealed = self.open.take().expect("open node exists");
            // Appends are consecutive, so `lsn` is the sealed node's last key.
            let hi = lsn.0;
            self.forest
                .append(hi, sealed)
                .expect("high LSNs are strictly increasing");
        }
        Ok(())
    }

    /// Look up the storage position of the record at `lsn`.
    #[must_use]
    pub fn lookup(&self, lsn: Lsn) -> Option<u64> {
        if let Some(open) = &self.open {
            if let Some(idx) = open.lo.distance(lsn) {
                return open.positions.get(idx as usize).copied();
            }
        }
        // The sealed node covering `lsn` is the one with the smallest high
        // key ≥ lsn; since nodes tile the LSN space, it is also the
        // predecessor-or-self of `lsn + fanout`, but a direct walk is
        // simpler: find the first node whose high key ≥ lsn.
        let (hi, node) = self.forest_node_covering(lsn)?;
        if lsn.0 > *hi {
            return None;
        }
        let idx = node.lo.distance(lsn)?;
        node.positions.get(idx as usize).copied()
    }

    /// First and last LSN currently indexed.
    #[must_use]
    pub fn bounds(&self) -> Option<(Lsn, Lsn)> {
        let last = self.next_lsn?.prev()?;
        let first = self
            .forest
            .iter()
            .next()
            .map(|(_, n)| n.lo)
            .or_else(|| self.open.as_ref().map(|n| n.lo))?;
        Some((first, last))
    }

    /// All indexed positions in LSN order, streamed without allocating
    /// (used for checkpoint encoding).
    pub fn positions_iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.forest
            .iter()
            .flat_map(|(_, n)| n.positions.iter().copied())
            .chain(self.open.iter().flat_map(|n| n.positions.iter().copied()))
    }

    /// Collect every indexed position into `out` (cleared first); callers
    /// that need a contiguous slice reuse one scratch vector.
    pub fn positions_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.positions_iter());
    }

    /// Rebuild an index from its first LSN and the positions of each
    /// consecutive record (checkpoint decoding).
    ///
    /// # Panics
    /// Panics if `fanout` is zero or the range passes [`Lsn::MAX`].
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "LSNs are generated consecutively in the loop, so append cannot reject them; decoders bound the range below Lsn::MAX"
    )]
    pub fn from_parts(fanout: usize, lo: Lsn, positions: &[u64]) -> Self {
        let mut idx = LsnIndex::new(fanout);
        for (i, &p) in positions.iter().enumerate() {
            let lsn = lo.offset(i as u64).expect("LSN overflow");
            idx.append(lsn, p).expect("consecutive LSNs");
        }
        idx
    }

    fn forest_node_covering(&self, lsn: Lsn) -> Option<(&u64, &RangeNode)> {
        // All sealed nodes have hi = lo + fanout - 1 and tile the space, so
        // the covering node has hi in [lsn, lsn + fanout - 1]: use floor on
        // lsn + fanout - 1 (capped to avoid overflow).
        let probe = lsn.offset(self.fanout as u64 - 1).unwrap_or(Lsn::MAX).0;
        let (hi, node) = self.forest.floor(&probe)?;
        (*hi >= lsn.0).then_some((hi, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_lookup() {
        let mut idx = LsnIndex::new(8);
        for i in 1..=100u64 {
            idx.append(Lsn(i), i * 1000).unwrap();
        }
        assert_eq!(idx.len(), 100);
        for i in 1..=100u64 {
            assert_eq!(idx.lookup(Lsn(i)), Some(i * 1000), "lsn {i}");
        }
        assert_eq!(idx.lookup(Lsn(0)), None);
        assert_eq!(idx.lookup(Lsn(101)), None);
        assert_eq!(idx.bounds(), Some((Lsn(1), Lsn(100))));
    }

    #[test]
    fn starts_anywhere() {
        let mut idx = LsnIndex::new(4);
        for i in 50..=60u64 {
            idx.append(Lsn(i), i).unwrap();
        }
        assert_eq!(idx.lookup(Lsn(49)), None);
        assert_eq!(idx.lookup(Lsn(50)), Some(50));
        assert_eq!(idx.lookup(Lsn(60)), Some(60));
        assert_eq!(idx.bounds(), Some((Lsn(50), Lsn(60))));
    }

    #[test]
    fn rejects_gaps() {
        let mut idx = LsnIndex::new(4);
        idx.append(Lsn(1), 0).unwrap();
        assert_eq!(idx.append(Lsn(3), 0), Err(Lsn(3)));
        assert_eq!(idx.append(Lsn(1), 0), Err(Lsn(1)));
        idx.append(Lsn(2), 0).unwrap();
    }

    #[test]
    fn fanout_one() {
        let mut idx = LsnIndex::new(1);
        for i in 1..=20u64 {
            idx.append(Lsn(i), i + 7).unwrap();
        }
        for i in 1..=20u64 {
            assert_eq!(idx.lookup(Lsn(i)), Some(i + 7));
        }
    }

    #[test]
    fn empty_index() {
        let idx = LsnIndex::new(16);
        assert!(idx.is_empty());
        assert_eq!(idx.lookup(Lsn(1)), None);
        assert_eq!(idx.bounds(), None);
    }
}
