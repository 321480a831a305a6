//! Deterministic chaos suite: `kill -9` the daemon core at seeded fault
//! points and prove recovery equivalence.
//!
//! The contract under test: for **every** seeded fault plan, a run that
//! crashes and recovers arbitrarily many times ends bit-identical —
//! same weights, same accumulated distances, same truth cache, same
//! snapshot payload — to a run that never crashed, as long as the
//! client-side driver follows the recovery protocol:
//!
//! - on an injected crash, drop the core (a real `kill -9` destroys the
//!   process) and reopen from the state directory;
//! - resubmit a chunk only if the recovered `chunks_seen` shows it was
//!   **not** durably accepted (a torn WAL tail). A crash after the WAL
//!   fsync means the chunk is already in; resubmitting would double-fold,
//!   and the protocol's sequence numbers make that visible.
//!
//! Every assertion names the failing seed, so a regression is a
//! one-command reproduction.

use crh_core::rng::{Pcg64, Rng};
use crh_core::schema::Schema;
use crh_serve::{
    ChunkClaim, ServeConfig, ServeCore, ServeError, ServeFaultInjector, ServeFaultPlan,
};
use std::path::PathBuf;

#[path = "common/test_dir.rs"]
mod test_dir;

use test_dir::TestDir;

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

fn test_dir(name: &str) -> TestDir {
    TestDir::new(&format!("crh_chaos_{name}"))
}

/// Deterministic workload: `n` chunks of 3-6 claims over 4 sources, with
/// per-source bias so the weights actually diverge.
fn workload(seed: u64, n: usize) -> Vec<Vec<ChunkClaim>> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        let len = 3 + (rng.next_u64() % 4) as usize;
        let mut chunk = Vec::with_capacity(len);
        for _ in 0..len {
            let object = (rng.next_u64() % 5) as u32;
            let source = (rng.next_u64() % 4) as u32;
            // source k reports with bias k/2: reliability differs by source
            let bias = source as f64 / 2.0;
            match rng.next_u64() % 3 {
                0 => chunk.push(ChunkClaim::num(
                    object,
                    0,
                    source,
                    20.0 + bias + (rng.next_u64() % 100) as f64 / 100.0,
                )),
                1 => chunk.push(ChunkClaim::num(object, 1, source, 0.5 + bias / 10.0)),
                _ => chunk.push(ChunkClaim {
                    object,
                    property: 2,
                    source,
                    value: crh_core::value::Value::Cat((rng.next_u64() % 3) as u32),
                }),
            }
        }
        chunks.push(chunk);
    }
    chunks
}

fn config(dir: &PathBuf) -> ServeConfig {
    ServeConfig::new(schema(), 0.7, dir)
        .snapshot_every(3)
        .truth_cache_cap(8)
}

/// Run the workload with no faults: the reference fingerprint.
fn reference_fingerprint(seed: u64, chunks: &[Vec<ChunkClaim>]) -> Vec<u8> {
    let dir = test_dir(&format!("ref_{seed}"));
    let (mut core, _) = ServeCore::open(config(&dir)).unwrap();
    for chunk in chunks {
        core.ingest(chunk).unwrap();
    }
    let bytes = core.checkpoint_bytes();
    dir.close(core);
    bytes
}

/// Drive the workload through a chaotic core, crashing and recovering as
/// the plan dictates. Returns (fingerprint, crashes survived).
fn chaotic_run(seed: u64, chunks: &[Vec<ChunkClaim>]) -> (Vec<u8>, u64) {
    let dir = test_dir(&format!("chaos_{seed}"));
    let injector = ServeFaultInjector::new(
        ServeFaultPlan::new(seed)
            .torn_wal(0.12)
            .before_fold(0.12)
            .after_fold(0.12)
            .during_snapshot(0.12)
            .max_faults(24),
    );
    let open = |inj: &ServeFaultInjector| {
        let (core, _) = ServeCore::open(config(&dir).injector(inj.clone()))
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        core
    };
    let mut core = open(&injector);
    let mut crashes = 0u64;
    for (i, chunk) in chunks.iter().enumerate() {
        loop {
            if core.chunks_seen() > i as u64 {
                // durably accepted by an earlier attempt whose ack was
                // lost in a crash; resubmitting would double-fold
                break;
            }
            match core.ingest(chunk) {
                Ok(receipt) => {
                    assert_eq!(
                        receipt.seq, i as u64,
                        "seed {seed}: chunk {i} folded under the wrong sequence"
                    );
                    break;
                }
                Err(ServeError::InjectedCrash(point)) => {
                    crashes += 1;
                    // kill -9: the in-memory core is gone, recover from disk
                    drop(core);
                    core = open(&injector);
                    assert!(
                        core.chunks_seen() <= (i + 1) as u64,
                        "seed {seed}: recovery after {point:?} invented chunks"
                    );
                }
                Err(e) => panic!("seed {seed}: unexpected ingest error on chunk {i}: {e}"),
            }
        }
        // bounded memory: the truth cache never outgrows its cap and the
        // WAL is absorbed by snapshots instead of growing forever
        let status = core.status();
        assert!(
            status.cached_truths <= 8,
            "seed {seed}: truth cache grew past its cap"
        );
        assert!(
            status.wal_records <= chunks.len() as u64,
            "seed {seed}: WAL failed to truncate"
        );
    }
    assert_eq!(
        core.chunks_seen(),
        chunks.len() as u64,
        "seed {seed}: lost or duplicated chunks"
    );
    let bytes = core.checkpoint_bytes();
    (bytes, crashes)
}

#[test]
fn recovery_is_bit_identical_across_seeded_crash_plans() {
    let mut total_crashes = 0u64;
    // ≥ 8 seeds per the CI chaos gate; each seed schedules a different
    // interleaving of torn writes and crashes at all four pipeline points
    for seed in 0..10u64 {
        let chunks = workload(seed, 20);
        let reference = reference_fingerprint(seed, &chunks);
        let (recovered, crashes) = chaotic_run(seed, &chunks);
        assert_eq!(
            recovered, reference,
            "seed {seed}: state after {crashes} crash/recover cycles diverged from the \
             never-crashed reference (reproduce with ServeFaultPlan::new({seed}))"
        );
        total_crashes += crashes;
    }
    assert!(
        total_crashes > 0,
        "fault plans injected no crashes at all; the suite proved nothing"
    );
}

#[test]
fn wal_replay_is_idempotent_over_a_restored_snapshot() {
    for seed in [11u64, 29, 47] {
        let chunks = workload(seed, 10);
        let dir = test_dir(&format!("idem_{seed}"));
        // snapshot_every(4): after 10 chunks the snapshot holds 8 and the
        // WAL holds 2 — dropped without a clean shutdown, like a crash
        let fingerprint = {
            let (mut core, _) = ServeCore::open(config(&dir).snapshot_every(4)).unwrap();
            for chunk in &chunks {
                core.ingest(chunk).unwrap();
            }
            core.checkpoint_bytes()
        };
        // First recovery replays the WAL over the restored snapshot…
        let first = {
            let (core, report) = ServeCore::open(config(&dir).snapshot_every(4)).unwrap();
            assert_eq!(
                report.wal_replayed, 2,
                "seed {seed}: expected exactly the unsnapshotted tail to replay"
            );
            core.checkpoint_bytes()
        };
        // …and a second recovery replays the *same* WAL again: recovery
        // leaves the disk untouched, so replay must be idempotent.
        let second = {
            let (core, report) = ServeCore::open(config(&dir).snapshot_every(4)).unwrap();
            assert_eq!(
                report.wal_replayed, 2,
                "seed {seed}: WAL changed between opens"
            );
            core.checkpoint_bytes()
        };
        assert_eq!(
            first, fingerprint,
            "seed {seed}: first WAL replay diverged from the live state"
        );
        assert_eq!(
            second, first,
            "seed {seed}: replaying the same WAL twice produced different state"
        );
    }
}

#[test]
fn stale_wal_after_snapshot_rename_is_skipped_not_refolded() {
    // Crash exactly between the snapshot rename and the WAL truncation:
    // the WAL still holds records the snapshot has absorbed.
    let seed = 5u64;
    let chunks = workload(seed, 6);
    let reference = reference_fingerprint(seed, &chunks);
    let dir = test_dir("stale_wal");
    // fire the crash on every snapshot attempt until the budget runs out
    let injector =
        ServeFaultInjector::new(ServeFaultPlan::new(seed).during_snapshot(1.0).max_faults(2));
    let open =
        |inj: &ServeFaultInjector| ServeCore::open(config(&dir).injector(inj.clone())).unwrap();
    let (mut core, _) = open(&injector);
    for (i, chunk) in chunks.iter().enumerate() {
        loop {
            if core.chunks_seen() > i as u64 {
                break;
            }
            match core.ingest(chunk) {
                Ok(_) => break,
                Err(ServeError::InjectedCrash(_)) => {
                    drop(core);
                    let (c, report) = open(&injector);
                    core = c;
                    assert_eq!(
                        report.wal_replayed + report.snapshot_chunks - report.wal_skipped,
                        core.chunks_seen() - report.wal_skipped,
                        "replay accounting is inconsistent"
                    );
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
    assert_eq!(core.checkpoint_bytes(), reference);
}

#[test]
fn torn_wal_chunk_is_not_acknowledged_and_not_recovered() {
    // A torn append must behave as if the chunk never arrived.
    let dir = test_dir("torn_unacked");
    let injector = ServeFaultInjector::new(ServeFaultPlan::new(123).torn_wal(1.0).max_faults(1));
    let (mut core, _) = ServeCore::open(config(&dir).injector(injector.clone())).unwrap();
    let chunks = workload(9, 2);
    let err = core.ingest(&chunks[0]).unwrap_err();
    assert!(matches!(err, ServeError::InjectedCrash(_)), "{err}");
    // poisoned: the crashed core refuses further work
    assert!(matches!(
        core.ingest(&chunks[0]),
        Err(ServeError::ShuttingDown)
    ));
    drop(core);
    let (mut core, report) = ServeCore::open(config(&dir).injector(injector)).unwrap();
    assert!(
        report.torn_bytes > 0,
        "the torn tail should have been truncated"
    );
    assert_eq!(core.chunks_seen(), 0, "a torn chunk must not be recovered");
    // the fault budget is spent, so the resubmission goes through
    core.ingest(&chunks[0]).unwrap();
    assert_eq!(core.chunks_seen(), 1);
}
