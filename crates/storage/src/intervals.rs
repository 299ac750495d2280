//! The in-memory interval table: per-client interval lists paired with
//! LSN → stream-position indexes.
//!
//! §4.3: "the server must store the interval lists describing the
//! consecutive sequences of log records stored for each client node. ...
//! Because interval lists are short, it is reasonable for a server to keep
//! them in volatile memory during normal operation." The table is
//! checkpointed (here: together with its record positions) and rebuilt
//! after a crash by scanning the stream tail from the checkpoint position.

use std::collections::HashMap;

use append_forest::LsnIndex;
use dlog_types::{ClientId, Epoch, Interval, IntervalList, Lsn};

/// Records indexed per append-forest node ("each page sized node of the
/// tree can index one thousand or more records", §4.3; kept small here so
/// tests exercise multi-node forests).
pub const INDEX_FANOUT: usize = 256;

/// One consecutive sequence of records and its position index.
#[derive(Clone, Debug)]
pub struct TableEntry {
    /// The interval `<epoch, lo..=hi>` this entry covers.
    pub interval: Interval,
    index: LsnIndex,
}

impl TableEntry {
    /// Stream position of the record at `lsn`, if this entry covers it.
    #[must_use]
    pub fn position(&self, lsn: Lsn) -> Option<u64> {
        self.index.lookup(lsn)
    }
}

/// Per-client interval lists with record positions.
#[derive(Clone, Debug, Default)]
pub struct IntervalTable {
    clients: HashMap<ClientId, Vec<TableEntry>>,
}

impl IntervalTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        IntervalTable::default()
    }

    /// Record that `client`'s record `<lsn, epoch>` lives at stream
    /// position `pos`. Extends the client's last interval when contiguous
    /// in the same epoch, otherwise starts a new interval (§3.1.2).
    ///
    /// # Errors
    /// Rejects records that violate server storage order (decreasing epoch,
    /// or non-increasing LSN within an epoch).
    pub fn append(
        &mut self,
        client: ClientId,
        lsn: Lsn,
        epoch: Epoch,
        pos: u64,
    ) -> Result<(), String> {
        self.append_run(client, epoch, std::iter::once((lsn, pos)))
    }

    /// [`IntervalTable::append`] for a run of `(lsn, position)` pairs one
    /// client wrote in one epoch, finding the client's entry once.
    ///
    /// # Errors
    /// As [`IntervalTable::append`]; records before the offending one stay
    /// appended, so callers that must not half-apply a run validate it with
    /// [`IntervalTable::check_run`] first.
    pub fn append_run(
        &mut self,
        client: ClientId,
        epoch: Epoch,
        run: impl Iterator<Item = (Lsn, u64)>,
    ) -> Result<(), String> {
        // Static rejection reasons: append sits on the write hot path,
        // and callers log the offending <LSN, epoch> themselves.
        let entries = self.clients.entry(client).or_default();
        let gap = |_| "index gap within an interval";
        for (lsn, pos) in run {
            match entries.last_mut() {
                Some(last) if last.interval.extended_by(epoch, lsn)? => {
                    last.index.append(lsn, pos).map_err(gap)?;
                    last.interval.hi = lsn;
                }
                _ => {
                    let mut index = LsnIndex::new(INDEX_FANOUT);
                    index.append(lsn, pos).map_err(gap)?;
                    entries.push(TableEntry {
                        interval: Interval::point(epoch, lsn),
                        index,
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether [`IntervalTable::append_run`] would accept `lsns` from
    /// `client` in `epoch`, without changing the table.
    ///
    /// # Errors
    /// The rejection `append_run` would give.
    pub fn check_run(
        &self,
        client: ClientId,
        epoch: Epoch,
        lsns: impl Iterator<Item = Lsn>,
    ) -> Result<(), String> {
        let mut last = self.last(client);
        for lsn in lsns {
            last = Some(match last {
                Some(iv) if iv.extended_by(epoch, lsn)? => Interval::new(epoch, iv.lo, lsn),
                _ => Interval::point(epoch, lsn),
            });
        }
        Ok(())
    }

    /// The stream position and epoch of the *highest-epoch* record stored
    /// for `client` at `lsn` — the `ServerReadLog` lookup rule (§3.1.1).
    #[must_use]
    pub fn lookup(&self, client: ClientId, lsn: Lsn) -> Option<(Epoch, u64)> {
        let entries = self.clients.get(&client)?;
        // Later entries never have smaller epochs, so scan backwards.
        for e in entries.iter().rev() {
            if e.interval.contains(lsn) {
                let pos = e.position(lsn)?;
                return Some((e.interval.epoch, pos));
            }
        }
        None
    }

    /// The client's interval list as reported by the `IntervalList`
    /// operation.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the table maintains the interval-list ordering invariant; a push failure here is a corrupted table, fail-stop is correct"
    )]
    pub fn interval_list(&self, client: ClientId) -> IntervalList {
        let mut list = IntervalList::new();
        if let Some(entries) = self.clients.get(&client) {
            for e in entries {
                list.push(e.interval)
                    .expect("table maintains interval order");
            }
        }
        list
    }

    /// Highest `<LSN, epoch>` stored for `client`.
    #[must_use]
    pub fn last(&self, client: ClientId) -> Option<Interval> {
        self.clients.get(&client)?.last().map(|e| e.interval)
    }

    /// All clients with stored records.
    pub fn clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.clients.keys().copied()
    }

    /// Total records stored (LSNs may be counted once per epoch).
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.clients
            .values()
            .flat_map(|es| es.iter())
            .map(|e| e.interval.len())
            .sum()
    }

    /// The lowest stream position the table indexes, if it indexes any.
    #[must_use]
    pub fn lowest_position(&self) -> Option<u64> {
        // Positions ascend within an entry, so its first record is its
        // lowest.
        self.clients
            .values()
            .flatten()
            .filter_map(|e| e.position(e.interval.lo))
            .min()
    }

    /// Drop every record whose stream position is below `pos` (log space
    /// management, §5.3: old segments spooled off or deleted). Entries
    /// straddling the cut are shrunk; emptied entries are removed.
    pub fn prune_below(&mut self, pos: u64) {
        let mut positions: Vec<u64> = Vec::new();
        for entries in self.clients.values_mut() {
            let mut kept = Vec::with_capacity(entries.len());
            for e in entries.drain(..) {
                // Positions ascend within an entry (appends are in stream
                // order), so the survivors are a suffix.
                e.index.positions_into(&mut positions);
                let first_kept = positions.partition_point(|&p| p < pos);
                if first_kept >= positions.len() {
                    continue; // wholly below the cut
                }
                // `first_kept` is below the entry's record count, so the
                // offset stays within the interval.
                let Some(new_lo) = e.interval.lo.offset(first_kept as u64) else {
                    continue;
                };
                let kept_positions = positions.get(first_kept..).unwrap_or(&[]);
                kept.push(TableEntry {
                    interval: Interval::new(e.interval.epoch, new_lo, e.interval.hi),
                    index: LsnIndex::from_parts(INDEX_FANOUT, new_lo, kept_positions),
                });
            }
            *entries = kept;
        }
        self.clients.retain(|_, es| !es.is_empty());
    }

    /// Serialize the table (intervals and positions) for a checkpoint.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`IntervalTable::encode`] appended to a caller-supplied buffer
    /// (not cleared — checkpoint images embed the table after a header),
    /// so periodic checkpoints reuse one scratch vector instead of
    /// allocating per snapshot.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut clients: Vec<_> = self.clients.iter().collect();
        clients.sort_by_key(|(c, _)| **c);
        out.extend_from_slice(&(clients.len() as u32).to_le_bytes());
        for (client, entries) in clients {
            out.extend_from_slice(&client.0.to_le_bytes());
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for e in entries {
                out.extend_from_slice(&e.interval.epoch.0.to_le_bytes());
                out.extend_from_slice(&e.interval.lo.0.to_le_bytes());
                out.extend_from_slice(&e.interval.hi.0.to_le_bytes());
                for p in e.index.positions_iter() {
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
        }
    }

    /// Rebuild a table from [`IntervalTable::encode`] output.
    ///
    /// # Errors
    /// Returns a description of the corruption on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<IntervalTable, String> {
        let mut r = Reader { buf: bytes, off: 0 };
        let mut table = IntervalTable::new();
        let nclients = r.u32()?;
        for _ in 0..nclients {
            let client = ClientId(r.u64()?);
            let nentries = r.u32()?;
            let mut entries = Vec::with_capacity(nentries as usize);
            for _ in 0..nentries {
                let epoch = Epoch(r.u64()?);
                let lo = Lsn(r.u64()?);
                let hi = Lsn(r.u64()?);
                if lo > hi || lo == Lsn::ZERO || hi == Lsn::MAX {
                    return Err("corrupt interval bounds".into());
                }
                let count = lo.span_to(hi);
                let mut positions = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    positions.push(r.u64()?);
                }
                entries.push(TableEntry {
                    interval: Interval::new(epoch, lo, hi),
                    index: LsnIndex::from_parts(INDEX_FANOUT, lo, &positions),
                });
            }
            // Re-validate ordering via interval list rules.
            let mut check = IntervalList::new();
            for e in &entries {
                check.push(e.interval)?;
            }
            table.clients.insert(client, entries);
        }
        if r.off != bytes.len() {
            return Err("trailing bytes in checkpoint".into());
        }
        Ok(table)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl Reader<'_> {
    fn u32(&mut self) -> Result<u32, String> {
        let v = dlog_types::bytes::u32_le_at(self.buf, self.off).ok_or("truncated checkpoint")?;
        self.off += 4;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let v = dlog_types::bytes::u64_le_at(self.buf, self.off).ok_or("truncated checkpoint")?;
        self.off += 8;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_extends_and_lookup() {
        let mut t = IntervalTable::new();
        let c = ClientId(1);
        t.append(c, Lsn(1), Epoch(1), 100).unwrap();
        t.append(c, Lsn(2), Epoch(1), 200).unwrap();
        t.append(c, Lsn(3), Epoch(1), 300).unwrap();
        assert_eq!(t.interval_list(c).len(), 1);
        assert_eq!(t.lookup(c, Lsn(2)), Some((Epoch(1), 200)));
        assert_eq!(t.lookup(c, Lsn(4)), None);
        assert_eq!(t.lookup(ClientId(9), Lsn(1)), None);
    }

    #[test]
    fn higher_epoch_shadows() {
        // Figure 3-1, Server 1: epoch 3 rewrites LSN 3 in a new interval,
        // which then extends like any other.
        let mut t = IntervalTable::new();
        let c = ClientId(1);
        for l in 1..=3u64 {
            t.append(c, Lsn(l), Epoch(1), l * 10).unwrap();
        }
        t.append(c, Lsn(3), Epoch(3), 999).unwrap();
        t.append(c, Lsn(4), Epoch(3), 1000).unwrap();
        assert_eq!(t.lookup(c, Lsn(3)), Some((Epoch(3), 999)));
        assert_eq!(t.lookup(c, Lsn(2)), Some((Epoch(1), 20)));
        assert_eq!(t.interval_list(c).len(), 2);
    }

    #[test]
    fn rejects_disorder() {
        let mut t = IntervalTable::new();
        let c = ClientId(1);
        t.append(c, Lsn(5), Epoch(2), 0).unwrap();
        assert!(t.append(c, Lsn(5), Epoch(1), 0).is_err()); // epoch regression
        assert!(t.append(c, Lsn(5), Epoch(2), 0).is_err()); // duplicate LSN
        assert!(t.append(c, Lsn(4), Epoch(2), 0).is_err()); // LSN regression
        t.append(c, Lsn(8), Epoch(2), 0).unwrap(); // gap is fine: new interval
        assert_eq!(t.interval_list(c).len(), 2);
    }

    #[test]
    fn multiple_clients_are_independent() {
        let mut t = IntervalTable::new();
        t.append(ClientId(1), Lsn(1), Epoch(1), 11).unwrap();
        t.append(ClientId(2), Lsn(7), Epoch(4), 22).unwrap();
        assert_eq!(t.lookup(ClientId(1), Lsn(1)), Some((Epoch(1), 11)));
        assert_eq!(t.lookup(ClientId(2), Lsn(7)), Some((Epoch(4), 22)));
        assert_eq!(t.lookup(ClientId(1), Lsn(7)), None);
        let mut cs: Vec<_> = t.clients().collect();
        cs.sort_unstable();
        assert_eq!(cs, vec![ClientId(1), ClientId(2)]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut t = IntervalTable::new();
        for l in 1..=600u64 {
            t.append(ClientId(1), Lsn(l), Epoch(1), l * 7).unwrap();
        }
        t.append(ClientId(1), Lsn(600), Epoch(5), 99_999).unwrap();
        t.append(ClientId(2), Lsn(10), Epoch(2), 1).unwrap();
        t.append(ClientId(2), Lsn(11), Epoch(2), 2).unwrap();

        let bytes = t.encode();
        let back = IntervalTable::decode(&bytes).unwrap();
        assert_eq!(back.record_count(), t.record_count());
        for l in 1..=600u64 {
            assert_eq!(
                back.lookup(ClientId(1), Lsn(l)),
                t.lookup(ClientId(1), Lsn(l))
            );
        }
        assert_eq!(back.lookup(ClientId(2), Lsn(11)), Some((Epoch(2), 2)));
        assert_eq!(
            back.interval_list(ClientId(1)).intervals(),
            t.interval_list(ClientId(1)).intervals()
        );
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut t = IntervalTable::new();
        t.append(ClientId(1), Lsn(1), Epoch(1), 0).unwrap();
        let bytes = t.encode();
        assert!(IntervalTable::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(IntervalTable::decode(&extra).is_err());
        assert!(IntervalTable::decode(&[]).is_err());
    }

    #[test]
    fn decode_rejects_an_interval_ending_at_lsn_max() {
        // One client, one entry: epoch 1, `MAX..=MAX`, one position.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        for word in [1, u64::MAX, u64::MAX, 0] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(
            IntervalTable::decode(&bytes).err().as_deref(),
            Some("corrupt interval bounds")
        );
    }

    #[test]
    fn record_count_counts_epoch_copies() {
        let mut t = IntervalTable::new();
        t.append(ClientId(1), Lsn(1), Epoch(1), 0).unwrap();
        t.append(ClientId(1), Lsn(1), Epoch(2), 0).unwrap();
        assert_eq!(t.record_count(), 2);
    }
}
