//! Recovery at every crash point of a snapshot generation.
//!
//! Every `snapshot_every` chunks the core starts a new snapshot
//! generation: the previous snapshot becomes `snapshot.prev.crh`, a new
//! `snapshot.crh` is written, and the WAL records the new snapshot covers
//! are kept as the previous generation's log. Chunks go on committing
//! while a generation is written. Each test below stops or damages a
//! generation at one point and checks the two promises recovery makes
//! there: the recovered `checkpoint_bytes` equal those of a run that
//! never crashed, and no acked chunk is lost, including when the newest
//! snapshot is corrupt and recovery must fall back a generation.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crh_core::rng::{Pcg64, Rng};
use crh_core::schema::Schema;
use crh_serve::{
    ChunkClaim, DiskFaultPlan, ServeConfig, ServeCore, ServeError, ServeFaultInjector,
    ServeFaultPlan, ServePoint, Vfs,
};

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("temperature");
    s.add_continuous("humidity");
    let p = s.add_categorical("condition");
    for label in ["sunny", "rainy", "foggy"] {
        s.intern(p, label).unwrap();
    }
    s
}

fn test_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("crh_snapcrash_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Deterministic chunks of 3-6 claims over 5 objects and 4 sources.
fn workload(seed: u64, n: usize) -> Vec<Vec<ChunkClaim>> {
    let mut rng = Pcg64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = 3 + (rng.next_u64() % 4) as usize;
            (0..len)
                .map(|_| {
                    let object = (rng.next_u64() % 5) as u32;
                    let source = (rng.next_u64() % 4) as u32;
                    let bias = source as f64 / 2.0;
                    match rng.next_u64() % 3 {
                        0 => ChunkClaim::num(object, 0, source, 20.0 + bias),
                        1 => ChunkClaim::num(object, 1, source, 0.5 + bias / 10.0),
                        _ => ChunkClaim {
                            object,
                            property: 2,
                            source,
                            value: crh_core::value::Value::Cat((rng.next_u64() % 3) as u32),
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// A generation every 3 chunks.
fn config(dir: &Path, vfs: Vfs) -> ServeConfig {
    ServeConfig::new(schema(), 0.7, dir)
        .snapshot_every(3)
        .truth_cache_cap(8)
        .vfs(vfs)
}

/// The fingerprint of `chunks` ingested on a healthy disk with no crash.
fn reference(tag: &str, chunks: &[Vec<ChunkClaim>]) -> Vec<u8> {
    let dir = test_dir(&format!("{tag}_ref"));
    let bytes = {
        let (mut core, _) = ServeCore::open(config(&dir, Vfs::passthrough())).unwrap();
        for chunk in chunks {
            core.ingest(chunk).unwrap();
        }
        core.checkpoint_bytes()
    };
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// Reopen `dir` on a healthy disk and check it recovers `expected`; then
/// flip one bit in the middle of the newest snapshot, if there is one,
/// check the fallback recovers `expected` too, and put the snapshot back.
fn assert_recovers(tag: &str, dir: &Path, expected: &[u8]) {
    let (core, _) = ServeCore::open(config(dir, Vfs::passthrough()))
        .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
    assert_eq!(core.checkpoint_bytes(), expected, "{tag}: recovered state");
    drop(core);
    let snap = dir.join("snapshot.crh");
    let Ok(intact) = std::fs::read(&snap) else {
        return;
    };
    let mut rotten = intact.clone();
    rotten[intact.len() / 2] ^= 0x10;
    std::fs::write(&snap, &rotten).unwrap();
    let (core, report) = ServeCore::open(config(dir, Vfs::passthrough()))
        .unwrap_or_else(|e| panic!("{tag}: fallback recovery failed: {e}"));
    assert!(report.snapshot_fallback, "{tag}: no fallback reported");
    assert_eq!(
        core.checkpoint_bytes(),
        expected,
        "{tag}: state recovered from the previous generation"
    );
    drop(core);
    std::fs::write(&snap, &intact).unwrap();
}

/// An injected crash at each snapshot point of the second generation:
/// inside the snapshot write (`CrashDuringSnapshot`) and after the new
/// snapshot's rename, before the logs are retired
/// (`CrashAfterSnapshotRename`). The chunk that triggered the generation
/// was committed before the crash, so recovery must hold it.
#[test]
fn injected_snapshot_crashes_recover_every_committed_chunk() {
    let chunks = workload(7, 9);
    let points = [
        (ServePoint::SnapshotWrite, 1.0, 0.0),
        (ServePoint::SnapshotTruncate, 0.0, 1.0),
    ];
    for (point, write, truncate) in points {
        let tag = format!("{point:?}");
        let dir = test_dir(&tag);
        {
            let (mut core, _) = ServeCore::open(config(&dir, Vfs::passthrough())).unwrap();
            for chunk in &chunks[..5] {
                core.ingest(chunk).unwrap();
            }
        }
        // the plan's one fault fires on the next attempt: chunk 5, the
        // one that starts the second generation
        let plan = ServeFaultPlan {
            snapshot_write_prob: write,
            snapshot_truncate_prob: truncate,
            ..ServeFaultPlan::new(1)
        }
        .max_faults(1);
        let injected = config(&dir, Vfs::passthrough()).injector(ServeFaultInjector::new(plan));
        let (mut core, _) = ServeCore::open(injected).unwrap();
        let err = core.ingest(&chunks[5]).unwrap_err();
        assert!(
            matches!(err, ServeError::InjectedCrash(p) if p == point),
            "{tag}: {err}"
        );
        drop(core);
        assert_recovers(&tag, &dir, &reference(&tag, &chunks[..6]));

        // the recovered core carries on through the next generations
        let (mut core, _) = ServeCore::open(config(&dir, Vfs::passthrough())).unwrap();
        for chunk in &chunks[core.chunks_seen() as usize..] {
            core.ingest(chunk).unwrap();
        }
        drop(core);
        assert_recovers(&format!("{tag}_after"), &dir, &reference(&tag, &chunks));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A disk whose snapshot writes stall while the WAL appends do not.
/// Seed 315 makes the data write and the fsync of the second
/// generation's snapshot slow (200 ms each) and every WAL append of the
/// run fast, so chunks 7 and 8 commit while that snapshot is written.
fn stalling_snapshot_disk() -> Vfs {
    let plan = DiskFaultPlan::new(315)
        .slow_writes(0.25)
        .slow_fsyncs(0.25)
        .slow_for(Duration::from_millis(200));
    Vfs::faulted(plan).unwrap()
}

/// Chunks committed while the newest snapshot was being written, then
/// that snapshot rots: the previous generation plus the kept logs must
/// still hold every chunk.
#[test]
fn corrupt_newest_snapshot_written_beside_later_chunks_falls_back_exactly() {
    let chunks = workload(11, 8);
    let dir = test_dir("beside");
    {
        let (mut core, _) = ServeCore::open(config(&dir, stalling_snapshot_disk())).unwrap();
        for chunk in &chunks {
            core.ingest(chunk).unwrap();
        }
    } // a clean drop: the generation in flight finishes first
    assert_recovers("beside", &dir, &reference("beside", &chunks));
    std::fs::remove_dir_all(&dir).ok();
}

/// Power fails while a generation is being written and the process dies
/// with it: whatever part of the generation reached the disk, every
/// acked chunk is recovered.
#[test]
fn simulated_crash_while_a_generation_is_in_flight_loses_no_acked_chunk() {
    let chunks = workload(13, 8);
    let dir = test_dir("in_flight");
    let vfs = stalling_snapshot_disk();
    let (mut core, _) = ServeCore::open(config(&dir, vfs.clone())).unwrap();
    for chunk in &chunks {
        core.ingest(chunk).unwrap();
    }
    vfs.simulate_crash();
    drop(core);
    assert_recovers("in_flight", &dir, &reference("in_flight", &chunks));
    std::fs::remove_dir_all(&dir).ok();
}

/// A generation that fails (transient `EIO`) before its snapshot is
/// durable leaves its sealed log behind; the next cadence must not
/// overwrite that log, or the records between the last durable snapshot
/// and the failed one are gone. Seeds 2, 5 and 19 fail the first
/// generation's snapshot write or fsync; the run stops after the second
/// generation, whose snapshot is then corrupted so that recovery needs
/// every record from sequence 0. The last drop is clean, so the second
/// generation is on disk when the check starts.
#[test]
fn failed_generation_never_lets_the_next_cadence_overwrite_its_sealed_log() {
    let chunks = workload(17, 7);
    for seed in [2u64, 5, 19] {
        let tag = format!("failed_gen_{seed}");
        let dir = test_dir(&tag);
        let vfs = Vfs::faulted(DiskFaultPlan::new(seed).transient_eio(0.2).max_faults(1)).unwrap();
        let mut opened = None;
        for _ in 0..8 {
            if let Ok((core, _)) = ServeCore::open(config(&dir, vfs.clone())) {
                opened = Some(core);
                break;
            }
        }
        let mut core = opened.unwrap_or_else(|| panic!("{tag}: open kept failing"));
        let mut acked = 0;
        while acked < chunks.len() {
            match core.ingest(&chunks[acked]) {
                Ok(receipt) => {
                    assert_eq!(receipt.seq, acked as u64, "{tag}");
                    acked += 1;
                }
                // a refused append leaves nothing behind: resubmit
                Err(ServeError::Io(_)) => {}
                Err(e) => panic!("{tag}: unexpected ingest error: {e}"),
            }
        }
        drop(core);
        assert_recovers(&tag, &dir, &reference(&tag, &chunks));
        std::fs::remove_dir_all(&dir).ok();
    }
}
