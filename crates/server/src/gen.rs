//! Generator state representatives (Appendix I).
//!
//! "The state of the replicated identifier generator is replicated on N
//! generator state representative nodes that each store an integer in
//! non-volatile storage. Generator state representatives provide Read and
//! Write operations that are atomic at individual representatives."
//!
//! Representatives are hosted on log-server nodes ("representatives of a
//! replicated identifier generator's state will normally be implemented on
//! log server nodes", §3.2 fn. 3). Each representative's integer is kept
//! in a small file rewritten atomically (write-temp + rename + fsync).

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// File-backed store of generator representative values.
#[derive(Debug)]
pub struct GenStore {
    dir: PathBuf,
    values: HashMap<u64, u64>,
}

impl GenStore {
    /// Open (or create) the representative store in `dir`, loading every
    /// stored value.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<GenStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut values = HashMap::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("gen-")
                .and_then(|s| s.strip_suffix(".val"))
            {
                if let Ok(id) = id.parse::<u64>() {
                    // A valid value file is exactly 8 bytes; read into a
                    // 9-byte stack buffer so an oversized file is detected
                    // (9 bytes read) without heap-allocating per file.
                    let mut buf = [0u8; 9];
                    let n = read_up_to(&mut File::open(entry.path())?, &mut buf)?;
                    if n == 8 {
                        if let Some(v) = dlog_types::bytes::u64_le_at(&buf, 0) {
                            values.insert(id, v);
                        }
                    }
                }
            }
        }
        Ok(GenStore { dir, values })
    }

    /// Atomic read of representative `id` (0 if never written — smaller
    /// than any identifier the generator issues).
    #[must_use]
    pub fn read(&self, id: u64) -> u64 {
        self.values.get(&id).copied().unwrap_or(0)
    }

    /// Atomic, monotonic write of representative `id`: the stored value
    /// only ever increases (NewID always writes "a value higher than any
    /// read", so regressions can only be stale retries).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write(&mut self, id: u64, value: u64) -> io::Result<()> {
        dlog_types::lock::assert_unlocked();
        let current = self.read(id);
        if value <= current {
            return Ok(()); // stale retry; ignore
        }
        let tmp = self.dir.join(format!("gen-{id}.val.tmp"));
        let fin = self.dir.join(format!("gen-{id}.val"));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&value.to_le_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &fin)?;
        self.values.insert(id, value);
        Ok(())
    }
}

/// Read as many bytes as `buf` holds (or until EOF), returning the count.
fn read_up_to(f: &mut File, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while let Some(slot) = buf.get_mut(n..) {
        if slot.is_empty() {
            break;
        }
        let k = f.read(slot)?;
        if k == 0 {
            break;
        }
        n += k;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("dlog-gen-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn read_default_zero() {
        let g = GenStore::open(tmpdir("zero")).unwrap();
        assert_eq!(g.read(1), 0);
        assert_eq!(g.read(999), 0);
    }

    #[test]
    fn write_read_persist() {
        let dir = tmpdir("persist");
        {
            let mut g = GenStore::open(&dir).unwrap();
            g.write(1, 100).unwrap();
            g.write(2, 7).unwrap();
        }
        let g = GenStore::open(&dir).unwrap();
        assert_eq!(g.read(1), 100);
        assert_eq!(g.read(2), 7);
    }

    #[test]
    fn writes_are_monotonic() {
        let mut g = GenStore::open(tmpdir("mono")).unwrap();
        g.write(1, 50).unwrap();
        g.write(1, 30).unwrap(); // stale retry
        assert_eq!(g.read(1), 50);
        g.write(1, 60).unwrap();
        assert_eq!(g.read(1), 60);
    }
}
