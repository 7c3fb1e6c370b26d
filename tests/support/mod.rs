//! What the root integration tests share.

use std::path::{Path, PathBuf};

/// A test's own directory under the system temp dir, `eco-{name}-{pid}`,
/// created empty. It is removed when it drops after a passing test and
/// kept for inspection when the test panicked.
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn new(name: &str) -> TempRoot {
        let root = std::env::temp_dir().join(format!("eco-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        TempRoot(root)
    }
}

impl std::ops::Deref for TempRoot {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempRoot {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
