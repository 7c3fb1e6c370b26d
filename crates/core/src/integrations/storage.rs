//! Local Storage (etc-storage) and File Repository (local blob store)
//! integrations.

use crate::domain::Settings;
use crate::error::{ChronusError, Result};
use crate::interfaces::{FileRepository, LocalStorage};
use std::path::{Path, PathBuf};

/// The etc-storage implementation of Local Storage: a `settings.json`
/// under a root directory (the paper's `/etc/chronus/settings.json`).
#[derive(Debug, Clone)]
pub struct EtcStorage {
    root: PathBuf,
}

impl EtcStorage {
    /// Uses `root` as the filesystem root (`root/etc/chronus/settings.json`).
    pub fn new(root: impl AsRef<Path>) -> Self {
        EtcStorage { root: root.as_ref().to_path_buf() }
    }

    /// Full path of the settings file.
    pub fn settings_path(&self) -> PathBuf {
        self.root.join("etc/chronus/settings.json")
    }
}

impl LocalStorage for EtcStorage {
    fn load_settings(&self) -> Result<Settings> {
        let path = self.settings_path();
        if !path.exists() {
            return Ok(Settings::default());
        }
        let content = std::fs::read_to_string(path)?;
        Ok(serde_json::from_str(&content)?)
    }

    fn save_settings(&self, settings: &Settings) -> Result<()> {
        let path = self.settings_path();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // The plugin re-reads this file on every submission: write beside
        // it and rename over it, so a reader sees the old file or the new
        // one, never an empty or half-written one.
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, serde_json::to_string_pretty(settings)?)?;
        std::fs::rename(tmp, path)?;
        Ok(())
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

    /// `chronus set state …` under a live slurmctld: the plugin loads
    /// settings on every submission, and a torn read is a silently
    /// untuned job (`Err`) or a silently skipped one (a missing file
    /// reads as the default, `PluginState::User`).
    #[test]
    fn a_concurrent_reader_sees_the_old_settings_or_the_new_never_a_torn_file() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let etc = EtcStorage::new(tmpdir("atomic-save"));
        let active = Settings { state: PluginState::Active, ..Settings::default() };
        let off = Settings { state: PluginState::Deactivated, database: "x".repeat(4096), ..Settings::default() };
        etc.save_settings(&active).unwrap();
        let writing = AtomicBool::new(true);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut reads = 0u64;
                while writing.load(Ordering::SeqCst) {
                    let seen = etc.load_settings().expect("a save in flight must never surface as a read error");
                    assert!(seen == active || seen == off, "read neither saved value: {:?}", seen.state);
                    reads += 1;
                }
                reads
            });
            for i in 0..4000 {
                etc.save_settings(if i % 2 == 0 { &off } else { &active }).unwrap();
            }
            writing.store(false, Ordering::SeqCst);
            assert!(reader.join().expect("reader saw only whole files") > 0);
        });
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
