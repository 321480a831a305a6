//! Background scrubbing: proactive CRC verification of every durable
//! artifact in a node's state directory.
//!
//! Crash recovery only validates the artifacts it happens to read; a
//! bit that rots in a snapshot generation nobody has opened since last
//! month stays silent until the worst possible moment — the restart
//! that needs it. [`scrub_dir`] walks the state directory on demand and
//! re-checks every CRC (WAL records, snapshot frames, election
//! metadata), returning a typed [`ScrubReport`] of what it found.
//!
//! The scrubber only *detects*; repair policy lives in
//! [`ReplicaNode::scrub_and_repair`](crate::replicate::ReplicaNode::scrub_and_repair),
//! which knows which artifacts can be rebuilt from memory, which must
//! be re-synced from the quorum, and — critically — which files have
//! open handles and therefore must not be renamed out from under their
//! owner. [`quarantine`] is the detect-side helper that parks a corrupt
//! file at `<name>.corrupt` so the repair path can lay down a clean
//! replacement without destroying the evidence.

use std::path::{Path, PathBuf};

use crate::core::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use crate::error::ServeError;
use crate::vfs::Vfs;
use crh_core::persist::decode_frame;

/// One corrupt (or torn) artifact found by a scrub pass.
#[derive(Debug, Clone)]
pub struct ScrubFinding {
    /// The artifact that failed verification.
    pub path: PathBuf,
    /// Human-readable description of what failed (CRC mismatch, torn
    /// tail, bad magic, ...).
    pub reason: String,
}

/// Outcome of one [`scrub_dir`] pass.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Number of artifacts whose integrity was actually verified.
    pub files_checked: usize,
    /// Every artifact that failed verification.
    pub findings: Vec<ScrubFinding>,
}

impl ScrubReport {
    /// True when every checked artifact verified clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Verify the CRCs of every recognized durable artifact directly under
/// `dir`, reading through `vfs` (so an injected fault plan exercises
/// the scrubber too). Recognized artifacts:
///
/// - `*.wal` — record-by-record CRC scan; a mid-log mismatch or a torn
///   tail is a finding (a torn tail is survivable at recovery, but a
///   scrub-time tear means bytes already rotted at rest),
/// - `*.crh` — snapshot frame (magic + version + length + CRC),
/// - `election.meta` — election-state frame.
///
/// Quarantined debris (`*.corrupt`), atomic-write temporaries (`*.tmp`)
/// and unrecognized names are skipped, not findings. A missing `dir`
/// yields an empty, clean report.
pub fn scrub_dir(dir: &Path, vfs: &Vfs) -> Result<ScrubReport, ServeError> {
    let mut report = ScrubReport::default();
    for path in vfs.read_dir_files(dir)? {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".corrupt") || name.ends_with(".tmp") {
            continue;
        }
        let verdict: Option<String> = if name.ends_with(".wal") {
            let bytes = vfs.read(&path)?;
            let role = if crate::core::is_kept_log(name) {
                crate::wal::LogRole::Kept
            } else {
                crate::wal::LogRole::Live
            };
            match crate::wal::scan(&bytes, role) {
                Err(e) => Some(e.to_string()),
                Ok(s) if s.torn > 0 => Some(format!("torn tail: {} trailing bytes", s.torn)),
                Ok(_) => None,
            }
        } else if name.ends_with(".crh") {
            let bytes = vfs.read(&path)?;
            match decode_frame(&bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION) {
                Err(e) => Some(e.to_string()),
                Ok(_) => None,
            }
        } else if name == "election.meta" {
            let bytes = vfs.read(&path)?;
            match crate::replicate::verify_election_meta(&bytes) {
                Err(e) => Some(e.to_string()),
                Ok(()) => None,
            }
        } else {
            continue;
        };
        report.files_checked += 1;
        if let Some(reason) = verdict {
            report.findings.push(ScrubFinding { path, reason });
        }
    }
    Ok(report)
}

/// Rename a corrupt artifact to `<name>.corrupt`, preserving the bytes
/// for post-mortem while freeing the canonical path for a clean
/// rewrite. Never call this on a file something still holds open — the
/// open handle would follow the rename. Returns the quarantine path.
pub fn quarantine(vfs: &Vfs, path: &Path) -> Result<PathBuf, ServeError> {
    let mut name = path.as_os_str().to_os_string();
    name.push(".corrupt");
    let dest = PathBuf::from(name);
    vfs.rename(path, &dest)?;
    vfs.sync_parent_dir(path)?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use crate::wal::Wal;

    fn dir(tag: &str) -> TestDir {
        let d = TestDir::new(&format!("crh-scrub-{tag}"));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn clean_dir_reports_clean() {
        let d = dir("clean");
        let vfs = Vfs::passthrough();
        let (mut wal, _) = Wal::open(d.join("ingest.wal"), &vfs).unwrap();
        wal.append(b"record one").unwrap();
        let report = scrub_dir(&d, &vfs).unwrap();
        assert!(report.is_clean(), "findings: {:?}", report.findings);
        assert_eq!(report.files_checked, 1);
    }

    #[test]
    fn missing_dir_is_clean() {
        let d = dir("missing");
        let report = scrub_dir(&d.join("never-created"), &Vfs::passthrough()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.files_checked, 0);
    }

    #[test]
    fn bit_flip_in_wal_is_found() {
        let d = dir("rot");
        let vfs = Vfs::passthrough();
        let p = d.join("ingest.wal");
        let (mut wal, _) = Wal::open(&p, &vfs).unwrap();
        wal.append(b"this record will rot").unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() - 4; // inside the record payload
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let report = scrub_dir(&d, &vfs).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].path, p);
    }

    #[test]
    fn corrupt_snapshot_is_found_and_quarantine_frees_the_path() {
        let d = dir("snap");
        let vfs = Vfs::passthrough();
        let p = d.join("snapshot.crh");
        std::fs::write(&p, b"CRHVnot-actually-a-frame").unwrap();
        let report = scrub_dir(&d, &vfs).unwrap();
        assert_eq!(report.findings.len(), 1);
        let parked = quarantine(&vfs, &p).unwrap();
        assert!(!p.exists());
        assert!(parked.exists());
        assert!(parked.to_string_lossy().ends_with("snapshot.crh.corrupt"));
        // debris is skipped on the next pass
        let report = scrub_dir(&d, &vfs).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.files_checked, 0);
    }

    #[test]
    fn tmp_files_and_unknown_names_are_skipped() {
        let d = dir("skip");
        std::fs::write(d.join("snapshot.crh.tmp"), b"half-written").unwrap();
        std::fs::write(d.join("notes.txt"), b"operator scribbles").unwrap();
        let report = scrub_dir(&d, &Vfs::passthrough()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.files_checked, 0);
    }
}
