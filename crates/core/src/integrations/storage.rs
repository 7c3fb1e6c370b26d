//! Local Storage (etc-storage) and File Repository (local blob store)
//! integrations.

use crate::domain::Settings;
use crate::error::{ChronusError, Result};
use crate::interfaces::{FileRepository, LocalStorage};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// What one `stat` says about which version of a file is published. A
/// value derived from the file is held beside the stamp taken *before*
/// the file was read, and is good for as long as the stamp reads the
/// same: [`publish`] gives every version a fresh inode, a new ctime and
/// a strictly later mtime, so no two versions a reader can meet in a row
/// carry one stamp — not inside one timestamp tick, not at equal length,
/// not when the filesystem hands a freed inode number out again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FileStamp {
    len: u64,
    modified: Option<SystemTime>,
    #[cfg(unix)]
    inode: u64,
    #[cfg(unix)]
    changed: (i64, i64),
}

impl FileStamp {
    /// Stamps the file at `path` as it is published right now.
    pub(crate) fn of(path: &Path) -> io::Result<FileStamp> {
        #[cfg(unix)]
        use std::os::unix::fs::MetadataExt;
        let meta = std::fs::metadata(path)?;
        Ok(FileStamp {
            len: meta.len(),
            modified: meta.modified().ok(),
            #[cfg(unix)]
            inode: meta.ino(),
            #[cfg(unix)]
            changed: (meta.ctime(), meta.ctime_nsec()),
        })
    }
}

/// Publishes `bytes` at `path` as a whole new file: written beside the
/// target under a name no other save shares (pid and a process-wide
/// counter — two writers on one temp name publish each other's
/// half-written file), given an mtime strictly later than the version it
/// replaces, and renamed over it. A reader sees the old version or the
/// new, never an empty or torn one, and never two versions under one
/// file stamp. With `sync` the bytes are on disk before the rename.
/// The temp name ends in `.tmp`.
pub fn publish(path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.{}.tmp", std::process::id(), SAVES.fetch_add(1, Ordering::Relaxed)));
    let tmp = path.with_file_name(name);
    let written = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        let replaced = std::fs::metadata(path).and_then(|m| m.modified()).unwrap_or(SystemTime::UNIX_EPOCH);
        file.set_modified(SystemTime::now().max(replaced + Duration::from_nanos(1)))?;
        if sync {
            file.sync_data()?;
        }
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// The etc-storage implementation of Local Storage: a `settings.json`
/// under a root directory (the paper's `/etc/chronus/settings.json`).
///
/// The plugin asks for the settings on every submission, so the parsed
/// value is held beside the file stamp it was read under (length, mtime,
/// and on unix inode and ctime): a load is one `stat`, and the file is
/// read and parsed again only when the stamp has moved — whoever moved
/// it, this process or another.
#[derive(Debug)]
pub struct EtcStorage {
    root: PathBuf,
    settings: PathBuf,
    held: Mutex<Option<(FileStamp, Settings)>>,
}

/// A clone starts cold: it reads the file on its first load.
impl Clone for EtcStorage {
    fn clone(&self) -> Self {
        EtcStorage::new(&self.root)
    }
}

impl EtcStorage {
    /// Uses `root` as the filesystem root (`root/etc/chronus/settings.json`).
    pub fn new(root: impl AsRef<Path>) -> Self {
        let root = root.as_ref().to_path_buf();
        EtcStorage { settings: root.join("etc/chronus/settings.json"), root, held: Mutex::new(None) }
    }

    /// Full path of the settings file.
    pub fn settings_path(&self) -> PathBuf {
        self.settings.clone()
    }
}

impl LocalStorage for EtcStorage {
    fn load_settings(&self) -> Result<Settings> {
        // stat first, read second: a held value is never older than its stamp
        let stamp = match FileStamp::of(&self.settings) {
            Ok(stamp) => stamp,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Settings::default()),
            Err(e) => return Err(e.into()),
        };
        let mut held = self.held.lock();
        if let Some((_, settings)) = held.as_ref().filter(|(at, _)| *at == stamp) {
            return Ok(settings.clone());
        }
        let settings: Settings = serde_json::from_str(&std::fs::read_to_string(&self.settings)?)?;
        *held = Some((stamp, settings.clone()));
        Ok(settings)
    }

    fn save_settings(&self, settings: &Settings) -> Result<()> {
        if let Some(parent) = self.settings.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // The plugin stats this file on every submission and reads it again
        // only when the stamp has moved, so every save must move it — and a
        // reader that does read must find the old file or the new one,
        // never an empty or half-written one.
        Ok(publish(&self.settings, serde_json::to_string_pretty(settings)?.as_bytes(), false)?)
    }

    fn resolve(&self, path: &str) -> PathBuf {
        let p = Path::new(path);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            self.root.join(p.strip_prefix("./").unwrap_or(p))
        }
    }
}

/// The local-directory implementation of File Repository — the paper's
/// "saves models to a folder called ./optimizers"; NFS or S3 would be
/// alternative implementations of the same interface.
#[derive(Debug, Clone)]
pub struct LocalBlobStore {
    root: PathBuf,
}

impl LocalBlobStore {
    /// Stores blobs under `root`.
    pub fn new(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(LocalBlobStore { root })
    }

    fn full(&self, path: &str) -> Result<PathBuf> {
        if path.contains("..") || Path::new(path).is_absolute() {
            return Err(ChronusError::InvalidInput(format!("blob path must be relative and clean: {path}")));
        }
        Ok(self.root.join(path))
    }
}

impl FileRepository for LocalBlobStore {
    fn put(&mut self, path: &str, bytes: &[u8]) -> Result<()> {
        let full = self.full(path)?;
        if let Some(parent) = full.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(full, bytes)?;
        Ok(())
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        let full = self.full(path)?;
        if !full.exists() {
            return Err(ChronusError::NotFound(format!("blob {path}")));
        }
        Ok(std::fs::read(full)?)
    }

    fn exists(&self, path: &str) -> bool {
        self.full(path).map(|p| p.exists()).unwrap_or(false)
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if let Ok(rel) = path.strip_prefix(&self.root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::PluginState;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("eco-storage-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn settings_default_when_missing() {
        let etc = EtcStorage::new(tmpdir("defaults"));
        let s = etc.load_settings().unwrap();
        assert_eq!(s, Settings::default());
    }

    #[test]
    fn settings_roundtrip() {
        let etc = EtcStorage::new(tmpdir("roundtrip"));
        let s = Settings {
            state: PluginState::Active,
            database: "/var/lib/chronus/data.db".into(),
            ..Settings::default()
        };
        etc.save_settings(&s).unwrap();
        assert_eq!(etc.load_settings().unwrap(), s);
        assert!(etc.settings_path().ends_with("etc/chronus/settings.json"));
    }

    /// What the stamp stands on where the kernel's own timestamps tick
    /// coarsely and the filesystem reuses inode numbers: every published
    /// version is strictly later than the one it replaced.
    #[test]
    fn every_published_version_carries_its_own_stamp_and_a_later_mtime() {
        let path = tmpdir("publish").join("settings.json");
        let mut seen: Vec<FileStamp> = Vec::new();
        for _ in 0..200 {
            publish(&path, b"same bytes, same length", false).unwrap();
            let stamp = FileStamp::of(&path).unwrap();
            assert!(seen.last().is_none_or(|before| before.modified < stamp.modified));
            assert!(!seen.contains(&stamp), "two versions under one stamp");
            seen.push(stamp);
        }
    }

    #[test]
    fn a_file_that_does_not_parse_is_an_error_every_time_and_is_never_held() {
        let etc = EtcStorage::new(tmpdir("corrupt"));
        let active = Settings { state: PluginState::Active, ..Settings::default() };
        etc.save_settings(&active).unwrap();
        assert_eq!(etc.load_settings().unwrap(), active);
        publish(&etc.settings_path(), b"{ not json", false).unwrap();
        assert!(etc.load_settings().is_err());
        assert!(etc.load_settings().is_err(), "neither the error nor the value before it is served");
        etc.save_settings(&active).unwrap();
        assert_eq!(etc.load_settings().unwrap(), active);
    }

    #[test]
    fn resolve_relative_and_absolute() {
        let root = tmpdir("resolve");
        let etc = EtcStorage::new(&root);
        assert_eq!(etc.resolve("./database/data.db"), root.join("database/data.db"));
        assert_eq!(etc.resolve("optimizers"), root.join("optimizers"));
        assert_eq!(etc.resolve("/abs/path"), PathBuf::from("/abs/path"));
    }

    #[test]
    fn blob_put_get_exists_list() {
        let mut store = LocalBlobStore::new(tmpdir("blob")).unwrap();
        assert!(!store.exists("models/a.json"));
        store.put("models/a.json", b"hello").unwrap();
        store.put("models/sub/b.json", b"world").unwrap();
        assert!(store.exists("models/a.json"));
        assert_eq!(store.get("models/a.json").unwrap(), b"hello");
        assert_eq!(store.list().unwrap(), vec!["models/a.json".to_string(), "models/sub/b.json".to_string()]);
    }

    #[test]
    fn blob_missing_is_not_found() {
        let store = LocalBlobStore::new(tmpdir("missing")).unwrap();
        assert!(matches!(store.get("nope.bin"), Err(ChronusError::NotFound(_))));
    }

    #[test]
    fn blob_rejects_escaping_paths() {
        let mut store = LocalBlobStore::new(tmpdir("escape")).unwrap();
        assert!(store.put("../evil", b"x").is_err());
        assert!(store.put("/abs", b"x").is_err());
        assert!(!store.exists("../evil"));
    }

    #[test]
    fn blob_overwrite() {
        let mut store = LocalBlobStore::new(tmpdir("overwrite")).unwrap();
        store.put("a", b"1").unwrap();
        store.put("a", b"2").unwrap();
        assert_eq!(store.get("a").unwrap(), b"2");
    }
}
