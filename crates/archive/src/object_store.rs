//! Object-store backends for the archive tier.
//!
//! The archiver only needs four flat-namespace operations, so the trait is
//! deliberately tiny: any blob store (a cloud bucket, a tape robot, an
//! NFS mount) can back it. Two implementations ship with the crate:
//! [`LocalDirStore`], which maps keys to files in a directory with
//! atomic-rename puts, and [`MemStore`], an in-memory backend with
//! deterministic fault injection for crash-mid-upload tests.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dlog_types::{Rank, Ranked};

/// A flat key → blob store. Keys are short path-safe names (the archiver
/// uses `seg-NNNNNNNN.seg` and `manifest-NNNNNNNN`). `put` must be
/// all-or-nothing per key: a reader never observes a partially written
/// object under the final key.
pub trait ObjectStore: Send + Sync {
    /// Store `bytes` under `key`, replacing any existing object.
    ///
    /// # Errors
    /// Propagates backend I/O failures.
    fn put(&self, key: &str, bytes: &[u8]) -> io::Result<()>;

    /// Fetch the object stored under `key`, or `None` if absent.
    ///
    /// # Errors
    /// Propagates backend I/O failures.
    fn get(&self, key: &str) -> io::Result<Option<Vec<u8>>>;

    /// All keys starting with `prefix`, sorted ascending.
    ///
    /// # Errors
    /// Propagates backend I/O failures.
    fn list(&self, prefix: &str) -> io::Result<Vec<String>>;

    /// Remove the object under `key` (absent keys are not an error).
    ///
    /// # Errors
    /// Propagates backend I/O failures.
    fn delete(&self, key: &str) -> io::Result<()>;
}

/// Directory-backed object store: each key is a file, written to a
/// temporary name and renamed into place so readers never see torn
/// objects.
#[derive(Debug)]
pub struct LocalDirStore {
    dir: PathBuf,
}

impl LocalDirStore {
    /// Open (or create) the store rooted at `dir`.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<LocalDirStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(LocalDirStore { dir })
    }

    /// The backing directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl ObjectStore for LocalDirStore {
    fn put(&self, key: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{key}.tmp"));
        let fin = self.dir.join(key);
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &fin)?;
        // A failed directory sync means the rename itself may not be
        // durable — propagate rather than ack an object that could
        // vanish on crash (§4.2 force-before-ack).
        File::open(&self.dir)?.sync_data()?;
        Ok(())
    }

    fn get(&self, key: &str) -> io::Result<Option<Vec<u8>>> {
        match File::open(self.dir.join(key)) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy().into_owned();
            if name.starts_with(prefix) && !name.ends_with(".tmp") {
                keys.push(name);
            }
        }
        keys.sort_unstable();
        Ok(keys)
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        match fs::remove_file(self.dir.join(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[derive(Default)]
struct MemInner {
    objects: BTreeMap<String, Vec<u8>>,
    /// Successful puts observed.
    puts: u64,
    /// `Some(n)`: the next `n` puts succeed, then every put fails until
    /// the fault is cleared.
    puts_until_fault: Option<u64>,
    /// When faulting, leave a torn (half-written) object behind instead
    /// of failing cleanly — models a crash mid-upload on a backend
    /// without atomic puts.
    tear_on_fault: bool,
}

/// In-memory object store with deterministic fault injection, for tests:
/// arm it to start failing after a chosen number of puts, optionally
/// leaving a torn object behind, and verify the archiver converges once
/// the fault clears.
#[derive(Clone)]
pub struct MemStore {
    inner: Arc<Ranked<MemInner>>,
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore {
            inner: Arc::new(Ranked::new(Rank::ObjectStore, MemInner::default())),
        }
    }
}

impl MemStore {
    /// An empty store with no faults armed.
    #[must_use]
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Test hook: arm the fault. The next `n` puts succeed, after which
    /// every put fails (leaving a torn object when `tear` is set) until
    /// [`MemStore::clear_faults`].
    pub fn fail_after_puts(&self, n: u64, tear: bool) {
        let mut inner = self.inner.lock();
        inner.puts_until_fault = Some(n);
        inner.tear_on_fault = tear;
    }

    /// Test hook: disarm any injected fault.
    pub fn clear_faults(&self) {
        let mut inner = self.inner.lock();
        inner.puts_until_fault = None;
        inner.tear_on_fault = false;
    }

    /// Test hook: successful puts observed so far.
    #[must_use]
    pub fn put_count(&self) -> u64 {
        self.inner.lock().puts
    }

    /// Snapshot of the object under `key` (test assertions).
    #[must_use]
    pub fn object(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.lock().objects.get(key).cloned()
    }

    /// All keys currently stored, sorted.
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        self.inner.lock().objects.keys().cloned().collect()
    }
}

impl ObjectStore for MemStore {
    fn put(&self, key: &str, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        let faulting = match inner.puts_until_fault.as_mut() {
            Some(0) => true,
            Some(n) => {
                *n -= 1;
                false
            }
            None => false,
        };
        if faulting {
            if inner.tear_on_fault {
                let torn: Vec<u8> = bytes.iter().copied().take(bytes.len() / 2).collect();
                inner.objects.insert(key.to_string(), torn);
            }
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("injected put failure for {key}"),
            ));
        }
        inner.objects.insert(key.to_string(), bytes.to_vec());
        inner.puts += 1;
        Ok(())
    }

    fn get(&self, key: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.inner.lock().objects.get(key).cloned())
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        Ok(self
            .inner
            .lock()
            .objects
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        self.inner.lock().objects.remove(key);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("dlog-objstore-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn local_dir_roundtrip() {
        let store = LocalDirStore::open(tmpdir("roundtrip")).unwrap();
        assert_eq!(store.get("a").unwrap(), None);
        store.put("a", b"one").unwrap();
        store.put("a", b"two").unwrap();
        store.put("b", b"three").unwrap();
        assert_eq!(store.get("a").unwrap().unwrap(), b"two");
        assert_eq!(store.list("").unwrap(), vec!["a", "b"]);
        assert_eq!(store.list("a").unwrap(), vec!["a"]);
        store.delete("a").unwrap();
        store.delete("a").unwrap();
        assert_eq!(store.get("a").unwrap(), None);
    }

    #[test]
    fn mem_store_faults_then_recovers() {
        let store = MemStore::new();
        store.fail_after_puts(1, false);
        store.put("ok", b"x").unwrap();
        assert!(store.put("fails", b"y").is_err());
        assert_eq!(store.get("fails").unwrap(), None, "clean failure");
        store.clear_faults();
        store.put("fails", b"y").unwrap();
        assert_eq!(store.put_count(), 2);
    }

    #[test]
    fn mem_store_torn_fault_leaves_prefix() {
        let store = MemStore::new();
        store.fail_after_puts(0, true);
        assert!(store.put("torn", b"0123456789").is_err());
        assert_eq!(store.object("torn").unwrap(), b"01234");
        store.clear_faults();
        store.put("torn", b"0123456789").unwrap();
        assert_eq!(store.object("torn").unwrap(), b"0123456789");
    }
}
