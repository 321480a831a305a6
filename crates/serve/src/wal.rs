//! The append-only write-ahead log for accepted observation chunks.
//!
//! Crash-only durability discipline: a chunk is *accepted* the moment its
//! WAL record is appended and fsync'd — everything downstream (the fold
//! into [`ICrhState`](crh_stream::ICrhState), the truth cache, the
//! periodic snapshot) is reconstructible by replay. Records are framed
//! individually:
//!
//! ```text
//! file   := header record*
//! header := b"CRHWAL01"                      (8 bytes)
//! record := len:u32 LE | crc32:u32 LE | payload[len]
//! ```
//!
//! Creating a log syncs nothing: the header is written and the log
//! becomes durable with its first record. The first append through a
//! handle runs `sync_data` and then fsyncs the parent directory, because
//! the file's directory entry may never have been synced: the handle
//! created the file, or found it after a crash that came before any
//! directory fsync (right after a cut, or between an earlier first
//! append's data sync and its directory fsync). Every later append runs
//! `sync_data` alone. No record is acked before its own data sync, and
//! that sync persists the header with it, so an unsynced empty log holds
//! nothing anyone was promised.
//!
//! A `kill -9` can tear the last record (partial write, no fsync). On
//! open, the reader walks the records and **truncates** a torn tail — a
//! record whose bytes run past end-of-file, or whose CRC fails at the
//! very end of the file — because that is the expected crash signature,
//! not an error. A torn *header* (the crash landed inside the very first
//! write) is likewise recreated, and so is a live log whose image is
//! zero bytes only: power loss can persist a file's size without its
//! data. A sealed or retired log (`Wal::open_kept`) was synced before
//! it was cut, so zero bytes only there are corruption. Zero bytes
//! after the last record are a torn tail for the same reason; no writer
//! appends an empty payload, so a record header whose length is 0 ends
//! the intact prefix. A bad record *followed by further data* is genuine
//! corruption and is surfaced as a typed [`ServeError::WalCorrupt`]; the
//! daemon refuses to guess which records to trust.
//!
//! All I/O goes through the [`Vfs`] seam, so a seeded
//! [`DiskFaultPlan`](crate::vfs::DiskFaultPlan) can tear appends, rot
//! reads, and fail fsyncs here without any test-only API on the log
//! itself.

use std::path::Path;

use crh_core::persist::crc32;

use crate::error::ServeError;
use crate::vfs::{DiskFile, Vfs};

pub use crate::vfs::sync_parent_dir;

pub(crate) const WAL_HEADER: [u8; 8] = *b"CRHWAL01";
pub(crate) const RECORD_HEADER: usize = 8; // len u32 + crc u32

/// Whether `bytes` holds zero bytes only (true of an empty slice).
fn all_zero(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == 0)
}

/// Bounds-checked little-endian `u32` read; `None` when `bytes` is too
/// short (a torn tail), so log recovery never indexes past EOF.
fn le_u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// The outcome of scanning a WAL byte image: decoded records, the byte
/// length of the intact prefix, and how much torn tail follows it.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Decoded record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Length of the intact prefix (header + whole records).
    pub keep: u64,
    /// Torn-tail bytes past the intact prefix (0 on a clean log).
    pub torn: u64,
}

/// Which kind of log an image belongs to, for the one recovery rule
/// that tells them apart: what an image of zero bytes only means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogRole {
    /// A log that takes appends. It may be fresh, its header never
    /// synced, so zero bytes only are an empty log.
    Live,
    /// A sealed or retired log: it was synced before it was cut, so
    /// zero bytes only are corruption.
    Kept,
}

/// Walk a WAL byte image, validating the header and every record CRC.
/// Shared between [`Wal::open`] (which then truncates the torn tail) and
/// the scrubber (which only inspects). A torn header — a strict prefix
/// of [`WAL_HEADER`], the signature of a crash inside log creation — is
/// reported as `keep == 0` with the whole image as torn tail, and so is
/// a live log's image of zero bytes only. A record header whose length
/// is 0 ends the intact prefix: zero bytes from there to EOF are a torn
/// tail, and any non-zero byte among them is corruption.
pub(crate) fn scan(bytes: &[u8], role: LogRole) -> Result<WalScan, ServeError> {
    let torn_header = bytes.len() < WAL_HEADER.len() && WAL_HEADER.starts_with(bytes);
    if torn_header || role == LogRole::Live && all_zero(bytes) {
        return Ok(WalScan {
            records: Vec::new(),
            keep: 0,
            torn: bytes.len() as u64,
        });
    }
    if !bytes.starts_with(&WAL_HEADER) {
        return Err(ServeError::WalCorrupt {
            offset: 0,
            reason: "missing or wrong WAL header",
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER.len();
    let mut torn = 0u64;
    while pos < bytes.len() {
        let rest = bytes.get(pos..).unwrap_or(&[]);
        // A record header or body running past EOF is a torn tail;
        // every read below is bounds-checked so a torn byte count
        // can never panic the recovery path.
        let (Some(len), Some(stored_crc)) = (le_u32_at(rest, 0), le_u32_at(rest, 4)) else {
            torn = rest.len() as u64;
            break;
        };
        if len == 0 {
            if all_zero(rest) {
                torn = rest.len() as u64;
                break;
            }
            return Err(ServeError::WalCorrupt {
                offset: pos as u64,
                reason: "empty record mid-log",
            });
        }
        let len = len as usize;
        let Some(payload) = rest.get(RECORD_HEADER..RECORD_HEADER + len) else {
            torn = rest.len() as u64;
            break;
        };
        if crc32(payload) != stored_crc {
            let record_end = pos + RECORD_HEADER + len;
            if record_end == bytes.len() {
                // CRC failure on the final record: torn write caught
                // before the length field settled — treat as tail.
                torn = (bytes.len() - pos) as u64;
                break;
            }
            return Err(ServeError::WalCorrupt {
                offset: pos as u64,
                reason: "record CRC mismatch mid-log",
            });
        }
        records.push(payload.to_vec());
        pos += RECORD_HEADER + len;
    }
    Ok(WalScan {
        records,
        keep: pos as u64,
        torn,
    })
}

/// What `Wal::open` found on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// The decoded record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn tail that were truncated away (0 on a clean log).
    pub truncated_bytes: u64,
}

/// Whether the file behind a [`Wal`] still matches what it acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// The file holds exactly `len` bytes of intact records.
    Clean,
    /// A refused append may have left bytes past `len` that could not be
    /// cut off yet.
    Stray,
    /// A rotation retired the file but the fresh log is not in place yet.
    Retired,
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: DiskFile,
    len: u64,
    records: u64,
    tail: Tail,
    /// Whether the file's directory entry is known durable: set by the
    /// first append through this handle, which fsyncs the directory, and
    /// unset again when a rotation puts a fresh file in place.
    durable: bool,
}

impl Wal {
    /// Open (or create) the log at `path` through the `vfs` seam,
    /// replaying existing records and truncating a torn tail. Returns
    /// the log positioned for appending plus everything recovered.
    pub fn open(path: impl AsRef<Path>, vfs: &Vfs) -> Result<(Self, WalRecovery), ServeError> {
        Self::open_as(path.as_ref(), vfs, LogRole::Live)
    }

    /// [`open`](Self::open) a sealed or retired log, one that was synced
    /// before it was cut: an image of zero bytes only is
    /// [`ServeError::WalCorrupt`], not an empty log.
    pub(crate) fn open_kept(
        path: impl AsRef<Path>,
        vfs: &Vfs,
    ) -> Result<(Self, WalRecovery), ServeError> {
        Self::open_as(path.as_ref(), vfs, LogRole::Kept)
    }

    fn open_as(path: &Path, vfs: &Vfs, role: LogRole) -> Result<(Self, WalRecovery), ServeError> {
        // truncate(false) inside open_log: an existing log is the
        // recovery source, never clobber
        let mut file = vfs.open_log(path)?;
        let WalScan {
            records,
            keep,
            torn,
        } = read_settled(&mut file, role)?;

        if keep == 0 {
            // empty, a torn header or zero bytes only: no record was ever
            // durable here, so the log starts afresh
            start_log(&mut file)?;
            return Ok((
                Self {
                    file,
                    len: WAL_HEADER.len() as u64,
                    records: 0,
                    tail: Tail::Clean,
                    durable: false,
                },
                WalRecovery {
                    records: Vec::new(),
                    truncated_bytes: torn,
                },
            ));
        }

        if torn > 0 {
            file.set_len(keep)?;
            file.sync_all()?;
        }
        file.seek_to(keep)?;
        let n = records.len() as u64;
        Ok((
            Self {
                file,
                len: keep,
                records: n,
                tail: Tail::Clean,
                durable: false,
            },
            WalRecovery {
                records,
                truncated_bytes: torn,
            },
        ))
    }

    /// Append one record and fsync. Returns the record's index within
    /// this log (0-based). The first append through this handle, and the
    /// first after a rotation, also fsyncs the log's directory; a failure
    /// of either sync refuses the append. An empty payload is refused: recovery reads a
    /// zero-length record as the start of a torn tail.
    ///
    /// A refused append leaves no trace: on a write or fsync error the
    /// file is cut back to its last good length, so the next record (which
    /// may reuse the refused one's sequence number) is the one recovery
    /// finds. If the cut fails too, `has_stray_tail`
    /// reports it and the next append retries the cut before writing. An
    /// injected crash is left as it is: a killed process cleans up nothing.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, ServeError> {
        self.append_parts(&[payload])
    }

    /// [`append`](Self::append) of the record whose payload is `parts`
    /// joined, framed without joining them first.
    pub(crate) fn append_parts(&mut self, parts: &[&[u8]]) -> Result<u64, ServeError> {
        if parts.iter().all(|p| p.is_empty()) {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "empty WAL record",
            )));
        }
        self.repair()?;
        let frame = Self::frame(parts);
        let written = self.file.write_all(&frame).and_then(|()| {
            self.file.sync_data()?;
            if self.durable {
                return Ok(());
            }
            self.file.vfs().sync_parent_dir(self.file.path())
        });
        if let Err(e) = written {
            if !matches!(e, ServeError::InjectedCrash(_)) {
                self.tail = Tail::Stray;
                // a failed cut keeps the tail stray; the refusal is the
                // error the caller needs to see
                let _ = self.repair();
            }
            return Err(e);
        }
        self.len += frame.len() as u64;
        self.durable = true;
        let idx = self.records;
        self.records += 1;
        Ok(idx)
    }

    /// Whether a refused append left bytes in the file that could not be
    /// cut off. Recovery would read them as a record, so a caller that
    /// cannot wait for the next append to cut them must stop instead.
    pub(crate) fn has_stray_tail(&self) -> bool {
        self.tail == Tail::Stray
    }

    /// Bring the file back in step with `len` after a failed append or
    /// rotation: cut a stray tail, or put the fresh log in place.
    fn repair(&mut self) -> Result<(), ServeError> {
        match self.tail {
            Tail::Clean => return Ok(()),
            Tail::Stray => {
                if self.file.size()? != self.len {
                    self.file.set_len(self.len)?;
                }
                self.file.seek_to(self.len)?;
            }
            Tail::Retired => {
                let mut file = self.file.vfs().open_log(self.file.path())?;
                start_log(&mut file)?;
                self.file = file;
                self.len = WAL_HEADER.len() as u64;
                self.durable = false;
            }
        }
        self.tail = Tail::Clean;
        Ok(())
    }

    /// Simulate a `kill -9` mid-append: write only `keep_frac` of the
    /// record's bytes (at least 1, strictly fewer than all) and make the
    /// partial write visible on disk, leaving a torn tail for the next
    /// [`open`](Self::open). The log is unusable afterwards — the caller
    /// must drop it, exactly as a crashed process would. Reachable only
    /// from the injected-fault paths (`ServeFate::TornWal` and the
    /// [`DiskFaultPlan`](crate::vfs::DiskFaultPlan) torn-write fate),
    /// never from the production API.
    pub(crate) fn append_torn(&mut self, payload: &[u8], keep_frac: f64) -> Result<(), ServeError> {
        self.repair()?;
        let frame = Self::frame(&[payload]);
        let kept = self.file.write_torn(&frame, keep_frac)?;
        self.len += kept;
        Ok(())
    }

    /// Retire this log into `prev_path` and start a fresh one at the same
    /// path. Used on the snapshot cadence: the retired generation keeps
    /// the records between the previous snapshot and the one just
    /// written, so recovery can still fall back one snapshot generation
    /// and bridge the gap by replay (sequence-number skips make the
    /// extra records idempotent).
    ///
    /// If the fresh log cannot be put in place once the old one is
    /// retired, the next append (or rotation) puts it in place first.
    pub fn rotate(&mut self, prev_path: impl AsRef<Path>) -> Result<(), ServeError> {
        self.repair()?;
        self.file
            .vfs()
            .rename(self.file.path(), prev_path.as_ref())?;
        self.tail = Tail::Retired;
        self.len = 0;
        self.records = 0;
        self.repair()
    }

    /// Drop every record: truncate back to the bare header (used after a
    /// successful snapshot has made the log's contents redundant).
    pub fn truncate_all(&mut self) -> Result<(), ServeError> {
        self.repair()?;
        self.file.set_len(WAL_HEADER.len() as u64)?;
        self.file.sync_all()?;
        self.file.seek_to(WAL_HEADER.len() as u64)?;
        self.len = WAL_HEADER.len() as u64;
        self.records = 0;
        Ok(())
    }

    /// Records appended since the last truncation.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Current file length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// One record: the length and CRC of `parts` joined, then the parts.
    fn frame(parts: &[&[u8]]) -> Vec<u8> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let mut out = Vec::with_capacity(RECORD_HEADER + len);
        out.extend_from_slice(&[0; RECORD_HEADER]);
        for part in parts {
            out.extend_from_slice(part);
        }
        if let Some((header, payload)) = out.split_first_chunk_mut::<RECORD_HEADER>() {
            let words = [payload.len() as u32, crc32(payload)].map(u32::to_le_bytes);
            header.copy_from_slice(words.as_flattened());
        }
        out
    }
}

/// Reads of a log with a torn tail that [`read_settled`] makes before it
/// gives up on two of them agreeing.
const SETTLE_READS: usize = 4;

/// Read and scan the whole log. A read can rot on the way from the disk,
/// and a final record that rotted scans exactly like a torn one; cutting
/// it off would destroy a record that is intact on disk. So a torn tail
/// counts only once a second read returns the same bytes; reads that keep
/// disagreeing are an I/O error, and the caller may retry.
fn read_settled(file: &mut DiskFile, role: LogRole) -> Result<WalScan, ServeError> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    for _ in 0..SETTLE_READS {
        let found = scan(&bytes, role)?;
        if found.torn == 0 {
            return Ok(found);
        }
        let mut again = Vec::new();
        file.seek_to(0)?;
        file.read_to_end(&mut again)?;
        if again == bytes {
            return Ok(found);
        }
        bytes = again;
    }
    Err(ServeError::Io(std::io::Error::other(
        "WAL reads disagree about its torn tail",
    )))
}

/// Write the header of a fresh (or emptied) log. Nothing is synced: the
/// log's first append makes the header and the directory entry durable
/// together with its record.
fn start_log(file: &mut DiskFile) -> Result<(), ServeError> {
    if file.size()? != 0 {
        file.set_len(0)?;
    }
    file.seek_to(0)?;
    file.write_all(&WAL_HEADER)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("crh_wal_{}_{name}.wal", std::process::id()))
    }

    fn pt() -> Vfs {
        Vfs::passthrough()
    }

    #[test]
    fn roundtrip_records() {
        let p = tmp("roundtrip");
        std::fs::remove_file(&p).ok();
        {
            let (mut wal, rec) = Wal::open(&p, &pt()).unwrap();
            assert!(rec.records.is_empty());
            assert_eq!(wal.append(b"alpha").unwrap(), 0);
            assert_eq!(wal.append(b"beta").unwrap(), 1);
            assert_eq!(wal.record_count(), 2);
        }
        let (wal, rec) = Wal::open(&p, &pt()).unwrap();
        assert_eq!(rec.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(wal.record_count(), 2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let p = tmp("torn");
        std::fs::remove_file(&p).ok();
        {
            let (mut wal, _) = Wal::open(&p, &pt()).unwrap();
            wal.append(b"good record").unwrap();
            wal.append_torn(b"half written record", 0.4).unwrap();
        }
        let (mut wal, rec) = Wal::open(&p, &pt()).unwrap();
        assert_eq!(rec.records, vec![b"good record".to_vec()]);
        assert!(rec.truncated_bytes > 0);
        // the log is immediately appendable again
        wal.append(b"after recovery").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&p, &pt()).unwrap();
        assert_eq!(
            rec.records,
            vec![b"good record".to_vec(), b"after recovery".to_vec()]
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn injected_torn_write_crashes_and_recovers() {
        let p = tmp("injected_torn");
        std::fs::remove_file(&p).ok();
        {
            let (mut wal, _) = Wal::open(&p, &pt()).unwrap();
            wal.append(b"committed before the faults").unwrap();
        }
        let vfs = Vfs::faulted(
            crate::vfs::DiskFaultPlan::new(11)
                .torn_writes(1.0)
                .max_faults(1),
        )
        .unwrap();
        {
            let (mut wal, _) = Wal::open(&p, &vfs).unwrap();
            let err = wal.append(b"this one is torn by the plan").unwrap_err();
            assert!(
                matches!(
                    err,
                    ServeError::InjectedCrash(crate::faults::ServePoint::DiskWrite)
                ),
                "{err}"
            );
            // crashed process: the handle is dropped without cleanup
        }
        let (_, rec) = Wal::open(&p, &pt()).unwrap();
        assert_eq!(rec.records, vec![b"committed before the faults".to_vec()]);
        assert!(rec.truncated_bytes > 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn torn_header_is_recreated_not_fatal() {
        let p = tmp("torn_header");
        // a strict prefix of the header: crash during log creation
        std::fs::write(&p, &WAL_HEADER[..3]).unwrap();
        let (mut wal, rec) = Wal::open(&p, &pt()).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncated_bytes, 3);
        wal.append(b"fresh start").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&p, &pt()).unwrap();
        assert_eq!(rec.records, vec![b"fresh start".to_vec()]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn mid_log_corruption_is_typed_fatal() {
        let p = tmp("midlog");
        std::fs::remove_file(&p).ok();
        {
            let (mut wal, _) = Wal::open(&p, &pt()).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        // flip a byte inside the *first* record's payload
        let at = WAL_HEADER.len() + RECORD_HEADER + 2;
        bytes[at] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let err = Wal::open(&p, &pt()).unwrap_err();
        assert!(matches!(err, ServeError::WalCorrupt { .. }), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn crc_failure_on_final_record_is_a_torn_tail() {
        let p = tmp("tailcrc");
        std::fs::remove_file(&p).ok();
        {
            let (mut wal, _) = Wal::open(&p, &pt()).unwrap();
            wal.append(b"keep me").unwrap();
            wal.append(b"flip me").unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&p, &bytes).unwrap();
        let (_, rec) = Wal::open(&p, &pt()).unwrap();
        assert_eq!(rec.records, vec![b"keep me".to_vec()]);
        assert!(rec.truncated_bytes > 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn wrong_header_is_typed_fatal() {
        let p = tmp("header");
        std::fs::write(&p, b"NOTAWALFILE").unwrap();
        let err = Wal::open(&p, &pt()).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::WalCorrupt {
                    offset: 0,
                    reason: _
                }
            ),
            "{err}"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn parent_dir_sync_succeeds_on_real_dirs_and_types_failures() {
        let p = tmp("dirsync");
        std::fs::write(&p, b"x").unwrap();
        sync_parent_dir(&p).unwrap();
        std::fs::remove_file(&p).ok();

        let missing = std::env::temp_dir()
            .join(format!("crh_wal_no_such_dir_{}", std::process::id()))
            .join("file.wal");
        let err = sync_parent_dir(&missing).unwrap_err();
        assert!(
            matches!(err, ServeError::SnapshotDirSync { .. }),
            "expected SnapshotDirSync, got {err}"
        );
    }

    #[test]
    fn refused_append_is_cut_off_before_the_next_record() {
        // ops 0-1 open the log (a read, the header write); op 2 writes the
        // first frame, then its fsync (op 3, seed 4) or the directory fsync
        // of the log's first append (op 4, seed 3) fails, so the refused
        // frame is in the file
        for seed in [4u64, 3] {
            let p = tmp(&format!("refused_{seed}"));
            std::fs::remove_file(&p).ok();
            let vfs = Vfs::faulted(
                crate::vfs::DiskFaultPlan::new(seed)
                    .transient_eio(0.2)
                    .max_faults(1),
            )
            .unwrap();
            let (mut wal, _) = Wal::open(&p, &vfs).unwrap();
            let err = wal.append(b"refused").unwrap_err();
            assert!(matches!(err, ServeError::Io(_)), "seed {seed}: {err}");
            assert_eq!(vfs.faults_fired(), 1, "seed {seed}");
            assert!(!wal.has_stray_tail(), "seed {seed}");
            assert_eq!(
                std::fs::metadata(&p).unwrap().len(),
                WAL_HEADER.len() as u64,
                "seed {seed}"
            );
            // the retried first append syncs the directory again
            let before = vfs.syncs();
            assert_eq!(wal.append(b"accepted").unwrap(), 0, "seed {seed}");
            let after = vfs.syncs();
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (1, 1),
                "seed {seed}"
            );
            drop(wal);
            let (_, rec) = Wal::open(&p, &pt()).unwrap();
            assert_eq!(rec.records, vec![b"accepted".to_vec()], "seed {seed}");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn failed_rotation_is_finished_by_the_next_append() {
        // ops 0-1 open the log, 2-4 append, 5 renames it away; the fresh
        // log's header write (op 6, seed 61) fails inside the rotation,
        // while its fsync (op 8, seed 10) and directory fsync (op 9, seed
        // 36) fail in the fresh log's first append, after its write (op 7)
        for (seed, in_rotation) in [(61u64, true), (10, false), (36, false)] {
            let p = tmp(&format!("rotate_{seed}"));
            let prev = p.with_extension("prev");
            std::fs::remove_file(&p).ok();
            std::fs::remove_file(&prev).ok();
            let vfs = Vfs::faulted(
                crate::vfs::DiskFaultPlan::new(seed)
                    .transient_eio(0.2)
                    .max_faults(1),
            )
            .unwrap();
            let (mut wal, _) = Wal::open(&p, &vfs).unwrap();
            wal.append(b"retired").unwrap();
            if in_rotation {
                assert!(wal.rotate(&prev).is_err(), "seed {seed}");
            } else {
                wal.rotate(&prev).unwrap();
                assert!(wal.append(b"refused").is_err(), "seed {seed}");
            }
            assert_eq!(vfs.faults_fired(), 1, "seed {seed}");
            assert_eq!(wal.append(b"fresh").unwrap(), 0, "seed {seed}");
            drop(wal);
            let (_, rec) = Wal::open(&prev, &pt()).unwrap();
            assert_eq!(rec.records, vec![b"retired".to_vec()], "seed {seed}");
            let (_, rec) = Wal::open(&p, &pt()).unwrap();
            assert_eq!(rec.records, vec![b"fresh".to_vec()], "seed {seed}");
            std::fs::remove_file(&p).ok();
            std::fs::remove_file(&prev).ok();
        }
    }

    #[test]
    fn zero_filled_tail_is_torn_not_records() {
        let p = tmp("zero_tail");
        std::fs::remove_file(&p).ok();
        {
            let (mut wal, _) = Wal::open(&p, &pt()).unwrap();
            wal.append(b"ten bytes!").unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        bytes.extend_from_slice(&[0; 16]);
        std::fs::write(&p, &bytes).unwrap();
        let (mut wal, rec) = Wal::open(&p, &pt()).unwrap();
        assert_eq!(rec.records, vec![b"ten bytes!".to_vec()]);
        assert_eq!(rec.truncated_bytes, 16);
        assert_eq!(wal.append(b"next").unwrap(), 1);
        drop(wal);
        let (_, rec) = Wal::open(&p, &pt()).unwrap();
        assert_eq!(rec.records, vec![b"ten bytes!".to_vec(), b"next".to_vec()]);

        // zero bytes followed by a non-zero one are not a tail
        let mut bytes = std::fs::read(&p).unwrap();
        let at = bytes.len();
        bytes.extend_from_slice(&[0; 16]);
        bytes.push(1);
        std::fs::write(&p, &bytes).unwrap();
        let err = Wal::open(&p, &pt()).unwrap_err();
        assert!(
            matches!(err, ServeError::WalCorrupt { offset, .. } if offset == at as u64),
            "{err}"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn all_zero_image_is_an_empty_log() {
        for len in [3usize, 8, 64] {
            let p = tmp(&format!("zero_image_{len}"));
            std::fs::write(&p, vec![0u8; len]).unwrap();
            let (mut wal, rec) = Wal::open(&p, &pt()).unwrap();
            assert!(rec.records.is_empty(), "{len}");
            assert_eq!(rec.truncated_bytes, len as u64, "{len}");
            assert_eq!(wal.append(b"fresh start").unwrap(), 0, "{len}");
            drop(wal);
            let (_, rec) = Wal::open(&p, &pt()).unwrap();
            assert_eq!(rec.records, vec![b"fresh start".to_vec()], "{len}");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn a_log_becomes_durable_with_its_first_record() {
        let p = tmp("first_record");
        let prev = p.with_extension("prev");
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&prev).ok();
        let vfs = Vfs::faulted(crate::vfs::DiskFaultPlan::new(0)).unwrap();
        let (mut wal, _) = Wal::open(&p, &vfs).unwrap();
        assert_eq!(vfs.syncs(), (0, 0), "creating a log syncs nothing");
        wal.append(b"first").unwrap();
        assert_eq!(vfs.syncs(), (1, 1));
        wal.append(b"second").unwrap();
        assert_eq!(vfs.syncs(), (2, 1));
        wal.rotate(&prev).unwrap();
        assert_eq!(vfs.syncs(), (2, 1), "nor does a rotation");
        wal.append(b"third").unwrap();
        assert_eq!(vfs.syncs(), (3, 2));
        drop(wal);
        // a log found holding no records syncs its directory again
        std::fs::write(&p, WAL_HEADER).unwrap();
        let (mut wal, _) = Wal::open(&p, &vfs).unwrap();
        wal.append(b"fourth").unwrap();
        assert_eq!(vfs.syncs(), (4, 3));
        drop(wal);
        // and so does one holding records: a crash may have come between
        // its first append's data sync and its directory fsync
        let (mut wal, _) = Wal::open(&p, &vfs).unwrap();
        wal.append(b"fifth").unwrap();
        assert_eq!(vfs.syncs(), (5, 4));
        drop(wal);
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&prev).ok();
    }

    #[test]
    fn a_reopened_log_syncs_its_directory_with_its_next_append() {
        let p = tmp("reopened");
        std::fs::remove_file(&p).ok();
        {
            let (mut wal, _) = Wal::open(&p, &pt()).unwrap();
            wal.append(b"before").unwrap();
        }
        let vfs = Vfs::faulted(crate::vfs::DiskFaultPlan::new(0)).unwrap();
        let (mut wal, rec) = Wal::open(&p, &vfs).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(vfs.syncs(), (0, 0), "opening syncs nothing");
        wal.append(b"after").unwrap();
        assert_eq!(vfs.syncs(), (1, 1));
        wal.append(b"later").unwrap();
        assert_eq!(vfs.syncs(), (2, 1));
        drop(wal);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn all_zero_kept_log_is_corrupt() {
        let p = tmp("zero_kept");
        std::fs::write(&p, [0u8; 16]).unwrap();
        let err = Wal::open_kept(&p, &pt()).unwrap_err();
        assert!(
            matches!(err, ServeError::WalCorrupt { offset: 0, .. }),
            "{err}"
        );
        assert_eq!(std::fs::read(&p).unwrap(), [0u8; 16], "left as it was");
        // a torn header is still a crash inside the log's creation
        std::fs::write(&p, &WAL_HEADER[..3]).unwrap();
        let (_, rec) = Wal::open_kept(&p, &pt()).unwrap();
        assert!(rec.records.is_empty());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_records_are_refused() {
        let p = tmp("empty_record");
        std::fs::remove_file(&p).ok();
        let (mut wal, _) = Wal::open(&p, &pt()).unwrap();
        assert!(matches!(wal.append(b""), Err(ServeError::Io(_))));
        assert!(matches!(
            wal.append_parts(&[b"", b""]),
            Err(ServeError::Io(_))
        ));
        assert_eq!(wal.append_parts(&[b"", b"x"]).unwrap(), 0);
        drop(wal);
        let (_, rec) = Wal::open(&p, &pt()).unwrap();
        assert_eq!(rec.records, vec![b"x".to_vec()]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncate_all_resets_the_log() {
        let p = tmp("truncall");
        std::fs::remove_file(&p).ok();
        let (mut wal, _) = Wal::open(&p, &pt()).unwrap();
        wal.append(b"x").unwrap();
        wal.append(b"y").unwrap();
        wal.truncate_all().unwrap();
        assert_eq!(wal.record_count(), 0);
        wal.append(b"fresh").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&p, &pt()).unwrap();
        assert_eq!(rec.records, vec![b"fresh".to_vec()]);
        std::fs::remove_file(&p).ok();
    }
}
