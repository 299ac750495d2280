//! Write-once on-disk append forest.
//!
//! §4.3 motivates the append forest with write-once (optical) storage:
//! nodes, once written, are never modified, and all linkage is backwards
//! (to lower file offsets). [`DiskForest`] serializes each node to an
//! append-only file; node identifiers are byte offsets. A trailing length
//! word after each node lets [`DiskForest::open`] locate the most recently
//! written node (the forest root) from the end of the file and rebuild the
//! root chain, so no separate superblock is required — exactly what a log
//! server recovering its index from an intact medium would do.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use dlog_types::Lsn;

const NIL: u64 = u64::MAX;
const MAGIC: u32 = 0x4146_5354; // "AFST"

/// Header of an on-disk node (fixed-size prefix before the positions).
#[derive(Clone, Copy, Debug)]
struct NodeHeader {
    height: u8,
    /// High LSN of the node's range (the search key).
    key: u64,
    /// Smallest key in the subtree rooted here.
    min_key: u64,
    left: u64,
    right: u64,
    forest: u64,
    /// Low LSN of the node's range.
    lo: u64,
    count: u32,
}

const HEADER_BYTES: usize = 4 + 1 + 8 * 6 + 4;

impl NodeHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(self.height);
        for v in [
            self.key,
            self.min_key,
            self.left,
            self.right,
            self.forest,
            self.lo,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.count.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> io::Result<NodeHeader> {
        use dlog_types::bytes::{u32_le_at, u64_le_at, u8_at};
        let short = || io::Error::new(io::ErrorKind::UnexpectedEof, "short node header");
        let magic = u32_le_at(buf, 0).ok_or_else(short)?;
        if magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad node magic"));
        }
        let height = u8_at(buf, 4).ok_or_else(short)?;
        let mut fields = [0u64; 6];
        for (i, f) in fields.iter_mut().enumerate() {
            *f = u64_le_at(buf, 5 + i * 8).ok_or_else(short)?;
        }
        let count = u32_le_at(buf, 53).ok_or_else(short)?;
        let [key, min_key, left, right, forest, lo] = fields;
        Ok(NodeHeader {
            height,
            key,
            min_key,
            left,
            right,
            forest,
            lo,
            count,
        })
    }
}

/// An append forest stored in an append-only file, mapping LSN ranges to
/// the storage positions of their records.
///
/// ```no_run
/// use append_forest::disk::DiskForest;
/// use dlog_types::Lsn;
///
/// let mut f = DiskForest::create("client-7.afst")?;
/// f.append_node(Lsn(1), &[0, 700, 1400])?; // records 1..=3
/// f.sync()?;
/// assert_eq!(f.lookup(Lsn(2))?, Some(700));
/// # std::io::Result::Ok(())
/// ```
pub struct DiskForest {
    file: File,
    /// Current file length (= offset of the next node).
    end: u64,
    /// Root chain, newest first: (offset, height, min_key, forest offset).
    roots: Vec<(u64, u8, u64, u64)>,
    /// High key of the most recent node.
    last_key: Option<u64>,
}

impl DiskForest {
    /// Create a new, empty forest file (truncating any existing file).
    ///
    /// # Errors
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<DiskForest> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(DiskForest {
            file,
            end: 0,
            roots: Vec::new(),
            last_key: None,
        })
    }

    /// Open an existing forest file and rebuild the root chain by reading
    /// the trailing length word and following forest pointers.
    ///
    /// # Errors
    /// Fails on I/O errors or a structurally corrupt file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<DiskForest> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let end = file.metadata()?.len();
        let mut forest = DiskForest {
            file,
            end,
            roots: Vec::new(),
            last_key: None,
        };
        if end == 0 {
            return Ok(forest);
        }
        if end < 4 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated forest file",
            ));
        }
        // Trailing u32 holds the full length of the last node record
        // (header + positions + trailer).
        let mut trailer = [0u8; 4];
        forest.file.seek(SeekFrom::Start(end - 4))?;
        forest.file.read_exact(&mut trailer)?;
        let node_len = u64::from(u32::from_le_bytes(trailer));
        if node_len > end {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad node trailer",
            ));
        }
        let root_off = end - node_len;
        // Rebuild the root chain.
        let mut off = root_off;
        let mut first = true;
        while off != NIL {
            let h = forest.read_header(off)?;
            forest.roots.push((off, h.height, h.min_key, h.forest));
            if first {
                forest.last_key = Some(h.key);
                first = false;
            }
            off = h.forest;
        }
        Ok(forest)
    }

    /// Number of root trees (for structural inspection).
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// High key of the most recently appended node.
    #[must_use]
    pub fn last_key(&self) -> Option<Lsn> {
        self.last_key.map(Lsn)
    }

    /// Append a node covering `lo..=lo + positions.len() − 1` whose records
    /// live at the given stream positions.
    ///
    /// # Errors
    /// Fails when the range does not extend the key space or on I/O error.
    pub fn append_node(&mut self, lo: Lsn, positions: &[u64]) -> io::Result<()> {
        if positions.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty node"));
        }
        let key = lo
            .offset(positions.len() as u64 - 1)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "node passes Lsn::MAX"))?
            .0;
        if let Some(last) = self.last_key {
            if lo.0 <= last {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("node lo {lo} does not extend last key {last}"),
                ));
            }
        }
        // Shape decision mirrors the in-memory forest.
        let (height, left, right, forest_ptr, min_key) = match self.roots.first().copied() {
            None => (0u8, NIL, NIL, NIL, lo.0),
            Some((r_off, r_h, _, _)) => match self.roots.get(1).copied() {
                Some((f_off, f_h, f_min, f_forest)) if f_h == r_h => {
                    (r_h + 1, f_off, r_off, f_forest, f_min)
                }
                _ => (0, NIL, NIL, r_off, lo.0),
            },
        };

        let header = NodeHeader {
            height,
            key,
            min_key,
            left,
            right,
            forest: forest_ptr,
            lo: lo.0,
            count: positions.len() as u32,
        };
        let mut buf = Vec::with_capacity(HEADER_BYTES + positions.len() * 8 + 4);
        header.encode(&mut buf);
        for p in positions {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        let total = (buf.len() + 4) as u32;
        buf.extend_from_slice(&total.to_le_bytes());

        let off = self.end;
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(&buf)?;
        self.end += u64::from(total);

        // Update the root chain.
        if height == 0 {
            self.roots.insert(0, (off, 0, min_key, forest_ptr));
        } else {
            // The new node replaces the two newest roots.
            self.roots.drain(0..2);
            self.roots.insert(0, (off, height, min_key, forest_ptr));
        }
        self.last_key = Some(key);
        Ok(())
    }

    /// Flush node data to stable storage.
    ///
    /// # Errors
    /// Propagates `fsync` failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Look up the storage position of the record at `lsn`.
    ///
    /// # Errors
    /// Fails only on I/O or corruption; a missing LSN is `Ok(None)`.
    pub fn lookup(&mut self, lsn: Lsn) -> io::Result<Option<u64>> {
        // Phase 1: pick the containing tree from the root chain. Indexed
        // access (the entries are Copy) instead of iteration, because
        // `read_header` needs `&mut self` mid-walk.
        let mut tree: Option<u64> = None;
        let mut i = 0;
        while let Some(&(off, _, min_key, _)) = self.roots.get(i) {
            i += 1;
            let h = self.read_header(off)?;
            if lsn.0 > h.key {
                return Ok(None); // beyond the newest tree that could hold it
            }
            if lsn.0 >= min_key {
                tree = Some(off);
                break;
            }
        }
        let Some(mut off) = tree else { return Ok(None) };
        // Phase 2: binary descent.
        loop {
            let h = self.read_header(off)?;
            if let Some(idx) = Lsn(h.lo).distance(lsn).filter(|_| lsn.0 <= h.key) {
                return Ok(Some(self.read_position(off, idx)?));
            }
            let next = if h.right != NIL {
                let r = self.read_header(h.right)?;
                if lsn.0 >= r.min_key {
                    h.right
                } else {
                    h.left
                }
            } else {
                NIL
            };
            if next == NIL {
                return Ok(None);
            }
            off = next;
        }
    }

    fn read_header(&mut self, off: u64) -> io::Result<NodeHeader> {
        let mut buf = [0u8; HEADER_BYTES];
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(&mut buf)?;
        NodeHeader::decode(&buf)
    }

    fn read_position(&mut self, node_off: u64, idx: u64) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        self.file
            .seek(SeekFrom::Start(node_off + HEADER_BYTES as u64 + idx * 8))?;
        self.file.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }
}

impl std::fmt::Debug for DiskForest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DiskForest({} bytes, {} trees)",
            self.end,
            self.roots.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("append-forest-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.afst", std::process::id()))
    }

    #[test]
    fn roundtrip_single_node() {
        let path = tmp("single");
        let mut f = DiskForest::create(&path).unwrap();
        f.append_node(Lsn(1), &[10, 20, 30]).unwrap();
        assert_eq!(f.lookup(Lsn(1)).unwrap(), Some(10));
        assert_eq!(f.lookup(Lsn(3)).unwrap(), Some(30));
        assert_eq!(f.lookup(Lsn(4)).unwrap(), None);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn many_nodes_and_reopen() {
        let path = tmp("many");
        let fanout = 8u64;
        {
            let mut f = DiskForest::create(&path).unwrap();
            for node in 0..100u64 {
                let lo = node * fanout + 1;
                let positions: Vec<u64> = (0..fanout).map(|i| (lo + i) * 100).collect();
                f.append_node(Lsn(lo), &positions).unwrap();
            }
            f.sync().unwrap();
            for lsn in 1..=(100 * fanout) {
                assert_eq!(
                    f.lookup(Lsn(lsn)).unwrap(),
                    Some(lsn * 100),
                    "pre-reopen {lsn}"
                );
            }
        }
        // Reopen and verify the rebuilt root chain serves all lookups.
        let mut f = DiskForest::open(&path).unwrap();
        assert_eq!(f.last_key(), Some(Lsn(800)));
        for lsn in 1..=(100 * fanout) {
            assert_eq!(
                f.lookup(Lsn(lsn)).unwrap(),
                Some(lsn * 100),
                "post-reopen {lsn}"
            );
        }
        assert_eq!(f.lookup(Lsn(801)).unwrap(), None);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_non_extending_nodes() {
        let path = tmp("reject");
        let mut f = DiskForest::create(&path).unwrap();
        f.append_node(Lsn(1), &[1, 2]).unwrap();
        assert!(f.append_node(Lsn(2), &[9]).is_err());
        assert!(f.append_node(Lsn(1), &[9]).is_err());
        assert!(f.append_node(Lsn(3), &[]).is_err());
        assert!(f.append_node(Lsn(3), &[9]).is_ok());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn open_empty_file() {
        let path = tmp("empty");
        DiskForest::create(&path).unwrap();
        let mut f = DiskForest::open(&path).unwrap();
        assert_eq!(f.lookup(Lsn(1)).unwrap(), None);
        assert_eq!(f.last_key(), None);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn tree_count_stays_logarithmic() {
        let path = tmp("treecount");
        let mut f = DiskForest::create(&path).unwrap();
        for node in 0..1000u64 {
            f.append_node(Lsn(node * 4 + 1), &[0, 0, 0, 0]).unwrap();
            let bound = 64 - (node + 1).leading_zeros() as usize + 1;
            assert!(
                f.tree_count() <= bound,
                "{} trees after {}",
                f.tree_count(),
                node + 1
            );
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn detects_corrupt_trailer() {
        let path = tmp("corrupt");
        {
            let mut f = DiskForest::create(&path).unwrap();
            f.append_node(Lsn(1), &[5]).unwrap();
            f.sync().unwrap();
        }
        // Overwrite the trailer with an absurd length.
        {
            let mut file = OpenOptions::new().write(true).open(&path).unwrap();
            let len = file.metadata().unwrap().len();
            file.seek(SeekFrom::Start(len - 4)).unwrap();
            file.write_all(&u32::MAX.to_le_bytes()).unwrap();
        }
        assert!(DiskForest::open(&path).is_err());
        std::fs::remove_file(path).unwrap();
    }
}
