//! The store's I/O seam: a [`StoreBackend`] is the small set of file
//! operations the [`crate::ModelStore`] needs, so the same ledger logic
//! runs over a real directory ([`DiskBackend`]), an in-memory map
//! ([`MemBackend`], used by unit tests), or a fault-injecting wrapper
//! (the simtest store world tears appends and crashes between the blob
//! write and the metadata append).
//!
//! Names are relative, `/`-separated paths inside the store —
//! `journal.wal` for the ledger, `blobs/<hex>` for content-addressed
//! blobs.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// The file operations a [`crate::ModelStore`] performs, in the order
/// its write-ahead discipline requires them.
pub trait StoreBackend: Send + Sync {
    /// Reads a whole file, `None` if it does not exist.
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>>;
    /// Appends `bytes` to the end of a file, creating it if missing. A
    /// crash mid-append may leave any prefix of `bytes` behind — the
    /// journal codec is built to survive exactly that.
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Replaces a file's contents atomically (write-then-rename on
    /// disk): afterwards the file holds either the old or the new
    /// bytes, never a mix.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Lists file names under a `/`-separated directory prefix, sorted.
    fn list(&self, prefix: &str) -> io::Result<Vec<String>>;
}

/// A [`StoreBackend`] rooted at a real directory.
pub struct DiskBackend {
    root: PathBuf,
}

impl DiskBackend {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(root.as_ref())?;
        Ok(DiskBackend { root: root.as_ref().to_path_buf() })
    }

    /// The directory this backend stores under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, name: &str) -> PathBuf {
        let mut path = self.root.clone();
        for part in name.split('/') {
            path.push(part);
        }
        path
    }
}

impl StoreBackend for DiskBackend {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.resolve(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let path = self.resolve(name);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(bytes)?;
        file.sync_data()
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let path = self.resolve(name);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // a temp name of its own per write, synced before the rename;
        // `list` skips the `.tmp` a crash can leave behind
        chronus::integrations::storage::publish(&path, bytes, true)
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        let dir = self.resolve(prefix);
        let mut names = Vec::new();
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    if !name.ends_with(".tmp") {
                        names.push(name.to_string());
                    }
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// An in-memory [`StoreBackend`]: a shared map of name → bytes.
///
/// Clones share the same map, so a "restarted" store can reopen the
/// bytes its previous incarnation wrote — which is exactly how the
/// simtest store world models a daemon crash that spares the disk.
#[derive(Clone, Default)]
pub struct MemBackend {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemBackend {
    /// A fresh, empty in-memory store.
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// Overwrites a file's raw bytes directly — the test hook for
    /// corrupting a blob or tearing a journal behind the store's back.
    pub fn put_raw(&self, name: &str, bytes: Vec<u8>) {
        self.files.lock().insert(name.to_string(), bytes);
    }

    /// Reads a file's raw bytes directly (test hook).
    pub fn get_raw(&self, name: &str) -> Option<Vec<u8>> {
        self.files.lock().get(name).cloned()
    }
}

impl StoreBackend for MemBackend {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.files.lock().get(name).cloned())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files.lock().entry(name.to_string()).or_default().extend_from_slice(bytes);
        Ok(())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files.lock().insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        let want = format!("{prefix}/");
        Ok(self
            .files
            .lock()
            .keys()
            .filter_map(|name| name.strip_prefix(&want))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_appends_and_lists() {
        let mem = MemBackend::new();
        mem.append("journal.wal", b"ab").unwrap();
        mem.append("journal.wal", b"cd").unwrap();
        assert_eq!(mem.read("journal.wal").unwrap().unwrap(), b"abcd");
        mem.write_atomic("blobs/aa", b"x").unwrap();
        mem.write_atomic("blobs/bb", b"y").unwrap();
        assert_eq!(mem.list("blobs").unwrap(), vec!["aa".to_string(), "bb".to_string()]);
        assert_eq!(mem.read("missing").unwrap(), None);
    }

    #[test]
    fn mem_backend_clones_share_files() {
        let a = MemBackend::new();
        let b = a.clone();
        a.append("journal.wal", b"hello").unwrap();
        assert_eq!(b.read("journal.wal").unwrap().unwrap(), b"hello");
    }

    #[test]
    fn disk_backend_roundtrips() {
        let dir = std::env::temp_dir().join(format!("eco-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let disk = DiskBackend::open(&dir).unwrap();
        disk.append("journal.wal", b"ab").unwrap();
        disk.append("journal.wal", b"cd").unwrap();
        assert_eq!(disk.read("journal.wal").unwrap().unwrap(), b"abcd");
        disk.write_atomic("blobs/aa", b"x").unwrap();
        disk.write_atomic("blobs/aa", b"xx").unwrap();
        assert_eq!(disk.read("blobs/aa").unwrap().unwrap(), b"xx");
        assert_eq!(disk.list("blobs").unwrap(), vec!["aa".to_string()]);
        assert_eq!(disk.list("nothing").unwrap(), Vec::<String>::new());
        fs::remove_dir_all(&dir).unwrap();
    }
}
