//! The one guard for a test's state directory, shared by the library's
//! unit tests and the integration suites.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A test's state directory under the system temp dir, named for the
/// test and the process. It is emptied when made and removed when the
/// guard drops.
///
/// Whatever writes into the directory has to be gone first: a core or a
/// node joins its snapshot helper when it drops, and a helper still
/// running after the removal would write the directory back. Locals drop
/// in reverse order, so state declared after the guard goes first; state
/// that outlives that order is handed to [`close`](Self::close).
#[derive(Debug)]
pub struct TestDir(PathBuf);

impl TestDir {
    /// The directory `<temp>/<name>_<pid>`, with nothing in it.
    pub fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        Self(path)
    }

    /// Drop `state` (a core, node or cluster writing here), then remove
    /// the directory.
    pub fn close<T>(self, state: T) {
        drop(state);
    }
}

impl Deref for TestDir {
    type Target = PathBuf;

    fn deref(&self) -> &PathBuf {
        &self.0
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl From<&TestDir> for PathBuf {
    fn from(dir: &TestDir) -> Self {
        dir.0.clone()
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
