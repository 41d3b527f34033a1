//! Helpers shared by the integration tests.

use std::path::{Path, PathBuf};

/// A per-test directory under the system temp dir, removed on drop.
///
/// Tests in one binary run in parallel, so each must own its directory:
/// the name carries the test's tag and the process id.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create (empty) `louvain-<tag>-<pid>` under the system temp dir.
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("louvain-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test temp dir");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
