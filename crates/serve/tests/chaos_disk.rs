//! Disk-fault chaos suite: seeded storage faults against the durable
//! artifacts themselves.
//!
//! Where `chaos.rs` kills the *process* at seeded points, this suite
//! makes the *disk* the adversary via the [`Vfs`] seam: torn writes,
//! silent bit rot on read, fsyncs that lie (surfaced when a simulated
//! crash truncates every file to its honestly-synced length), transient
//! `EIO`, and a disk that latches sticky-dead. The contracts under
//! test:
//!
//! - **Recovery equivalence**: for every seeded fault plan, a run that
//!   crashes and recovers through disk faults ends bit-identical to a
//!   run on a healthy disk.
//! - **No honest ack lost**: with a disk that never lies about fsync,
//!   an acknowledged chunk survives every crash.
//! - **Generation fallback**: a corrupt newest snapshot recovers from
//!   the previous generation plus full WAL replay, flagged in the
//!   recovery report, bit-identical.
//! - **Scrub + read-repair**: a follower's silently-rotted artifact is
//!   detected by the scrubber, quarantined, and re-synced from the
//!   quorum while the cluster keeps serving.
//! - **Dying-disk failover**: a primary on a sticky-bad disk returns a
//!   typed [`ServeError::DiskDegraded`], self-deposes, never campaigns
//!   again, and a healthy replica takes over with every quorum-acked
//!   write intact.

use crh_core::rng::{Pcg64, Rng};
use crh_core::schema::Schema;
use crh_serve::{
    ChunkClaim, DiskFaultPlan, NetFaultPlan, Role, ServeConfig, ServeCore, ServeError, SimCluster,
    Vfs,
};
use std::path::PathBuf;

#[path = "common/history.rs"]
mod history;
#[path = "common/test_dir.rs"]
mod test_dir;

use history::{Settled, Told};
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
    TestDir::new(&format!("crh_chaosdisk_{name}"))
}

/// Deterministic workload, same shape as the process-chaos suite.
fn workload(seed: u64, n: usize) -> Vec<Vec<ChunkClaim>> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        let len = 3 + (rng.next_u64() % 4) as usize;
        let mut chunk = Vec::with_capacity(len);
        for _ in 0..len {
            let object = (rng.next_u64() % 5) as u32;
            let source = (rng.next_u64() % 4) as u32;
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

fn config(dir: &PathBuf, vfs: Vfs) -> ServeConfig {
    ServeConfig::new(schema(), 0.7, dir)
        .snapshot_every(3)
        .truth_cache_cap(8)
        .vfs(vfs)
}

/// Run the workload on a healthy disk: the reference fingerprint.
fn reference_fingerprint(seed: u64, chunks: &[Vec<ChunkClaim>]) -> Vec<u8> {
    let dir = test_dir(&format!("ref_{seed}"));
    let (mut core, _) = ServeCore::open(config(&dir, Vfs::passthrough())).unwrap();
    for chunk in chunks {
        core.ingest(chunk).unwrap();
    }
    let bytes = core.checkpoint_bytes();
    dir.close(core);
    bytes
}

/// Reopen after a (simulated) crash. Recovery itself runs on the faulty
/// disk, so a read can rot or EIO mid-recovery — retry until the fault
/// budget drains; a persistent failure is a real recovery bug.
fn reopen(dir: &PathBuf, vfs: &Vfs, seed: u64) -> ServeCore {
    let mut last = None;
    for _ in 0..64 {
        match ServeCore::open(config(dir, vfs.clone())) {
            Ok((core, _)) => return core,
            Err(e) => last = Some(e),
        }
    }
    panic!(
        "seed {seed}: recovery never succeeded; last error: {:?}",
        last
    );
}

/// Drive the workload over a faulty disk, crash-reopening on every
/// fault. Returns (fingerprint, crashes survived). `honest_fsync` turns
/// on the no-acked-write-lost assertion (only valid when the plan never
/// lies about fsync).
fn disk_chaotic_run(
    seed: u64,
    chunks: &[Vec<ChunkClaim>],
    plan: DiskFaultPlan,
    honest_fsync: bool,
) -> (Vec<u8>, u64) {
    let dir = test_dir(&format!("chaos_{seed}"));
    let vfs = Vfs::faulted(plan).unwrap();
    let mut core = reopen(&dir, &vfs, seed);
    let mut crashes = 0u64;
    let mut acked = 0u64;
    loop {
        let i = core.chunks_seen() as usize;
        if i == chunks.len() {
            // prove durability: one final crash must preserve everything
            // the disk honestly synced (a lying fsync may rewind, in
            // which case the loop resubmits the rewound tail)
            vfs.simulate_crash();
            drop(core);
            core = reopen(&dir, &vfs, seed);
            if honest_fsync {
                assert!(
                    core.chunks_seen() >= acked,
                    "seed {seed}: honest disk lost acked chunks ({} < {acked})",
                    core.chunks_seen()
                );
            }
            if core.chunks_seen() as usize == chunks.len() {
                break;
            }
            crashes += 1;
            continue;
        }
        match core.ingest(&chunks[i]) {
            Ok(receipt) => {
                assert_eq!(
                    receipt.seq, i as u64,
                    "seed {seed}: chunk {i} folded under the wrong sequence"
                );
                acked = acked.max(receipt.seq + 1);
            }
            Err(ServeError::InjectedCrash(_) | ServeError::Io(_) | ServeError::ShuttingDown) => {
                // torn write, transient EIO, or a poisoned core: treat
                // them all crash-only — kill, truncate to the honestly
                // durable prefix, recover from disk
                crashes += 1;
                vfs.simulate_crash();
                drop(core);
                core = reopen(&dir, &vfs, seed);
                if honest_fsync {
                    assert!(
                        core.chunks_seen() >= acked,
                        "seed {seed}: honest disk lost acked chunks ({} < {acked})",
                        core.chunks_seen()
                    );
                }
            }
            Err(e) => panic!("seed {seed}: unexpected ingest error on chunk {i}: {e}"),
        }
    }
    let bytes = core.checkpoint_bytes();
    (bytes, crashes)
}

#[test]
fn recovery_is_bit_identical_across_seeded_disk_fault_plans() {
    let mut total_crashes = 0u64;
    let mut lying_seeds = 0u64;
    for seed in 0..10u64 {
        // Even seeds: an honest-but-failing disk (torn writes, bit rot,
        // transient EIO) — acked writes must survive every crash. Odd
        // seeds add lying fsyncs, which may rewind un-durable acks; the
        // driver resubmits and the *final* state must still converge.
        let lying = seed % 2 == 1;
        let mut plan = DiskFaultPlan::new(seed)
            .torn_writes(0.10)
            .bit_rot(0.05)
            .transient_eio(0.05)
            .max_faults(16);
        if lying {
            plan = plan.lying_fsyncs(0.10).max_faults(8);
            lying_seeds += 1;
        }
        let chunks = workload(seed, 20);
        let reference = reference_fingerprint(seed, &chunks);
        let (recovered, crashes) = disk_chaotic_run(seed, &chunks, plan, !lying);
        assert_eq!(
            recovered, reference,
            "seed {seed}: state after {crashes} disk-fault crashes diverged from the \
             healthy-disk reference (reproduce with DiskFaultPlan::new({seed}))"
        );
        total_crashes += crashes;
    }
    assert!(
        total_crashes > 0,
        "disk fault plans injected no crashes at all; the suite proved nothing"
    );
    assert!(lying_seeds > 0);
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_previous_generation() {
    let seed = 31u64;
    let chunks = workload(seed, 8);
    let reference = reference_fingerprint(seed, &chunks);
    let dir = test_dir("snap_fallback");
    // snapshot_every(3) over 8 chunks: snapshot.crh covers 6 chunks,
    // snapshot.prev.crh covers 3, the WAL generations hold the rest
    {
        let (mut core, _) = ServeCore::open(config(&dir, Vfs::passthrough())).unwrap();
        for chunk in &chunks {
            core.ingest(chunk).unwrap();
        }
        assert!(dir.join("snapshot.prev.crh").exists());
    }
    // silent rot lands mid-payload in the *newest* snapshot
    let snap = dir.join("snapshot.crh");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&snap, &bytes).unwrap();

    let (core, report) = ServeCore::open(config(&dir, Vfs::passthrough())).unwrap();
    assert!(
        report.snapshot_fallback,
        "recovery must report that it fell back a generation"
    );
    assert!(
        report.snapshot_chunks < 8,
        "the fallback snapshot must be the older generation"
    );
    assert_eq!(
        core.chunks_seen(),
        8,
        "previous generation + WAL replay must cover every chunk"
    );
    assert_eq!(
        core.checkpoint_bytes(),
        reference,
        "fallback recovery diverged from the healthy reference"
    );
}

/// A cluster in its own state directory. Bind the pair as `(base, sim)`:
/// the later binding drops first, so the cluster is gone before the
/// directory is removed.
fn cluster(tag: &str, vfs_for: impl Fn(u32) -> Vfs) -> (TestDir, SimCluster) {
    let base = test_dir(tag);
    let b = base.to_path_buf();
    let sim = SimCluster::new(
        3,
        move |id| {
            ServeConfig::new(schema(), 0.7, b.join(format!("node{id}")))
                .snapshot_every(3)
                .vfs(vfs_for(id))
        },
        NetFaultPlan::new(0xD15C),
    )
    .unwrap();
    (base, sim)
}

/// Step the cluster, tolerating the typed refusals a member on a dead
/// disk feeds back through the reply path.
fn step_tolerant(sim: &mut SimCluster) {
    match sim.step() {
        Ok(()) | Err(ServeError::DiskDegraded { .. }) => {}
        Err(e) => panic!("unexpected cluster step error: {e}"),
    }
}

#[test]
fn scrubber_detects_bit_rot_and_read_repairs_from_quorum() {
    let (base, mut sim) = cluster("scrub", |_| Vfs::passthrough());
    let chunks = workload(40, 8);
    for chunk in &chunks {
        loop {
            match sim.client_ingest(chunk) {
                Ok(_) => break,
                Err(ServeError::NotPrimary { .. }) => sim.step().unwrap(),
                Err(e) => panic!("ingest refused: {e}"),
            }
        }
        sim.step().unwrap();
    }
    let healthy_digest = sim.settle(1, 400).unwrap();
    let primary = sim.primary().unwrap();
    let follower = (0..3).find(|i| *i != primary).unwrap();

    // silent bit rot in the follower's snapshot, mid-payload: recovery
    // would only notice at the next restart — the scrubber must notice
    // now, and repair without taking the cluster down
    let snap = base.join(format!("node{follower}")).join("snapshot.crh");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&snap, &bytes).unwrap();

    let report = sim.scrub_and_repair(follower).unwrap().unwrap();
    assert_eq!(
        report.findings.len(),
        1,
        "the scrubber must find exactly the rotted snapshot: {:?}",
        report.findings
    );
    assert!(
        snap.with_extension("crh.corrupt").exists(),
        "the rotted artifact must be quarantined, not destroyed"
    );

    // availability during repair: the primary keeps acking writes
    let extra = workload(41, 1);
    sim.client_ingest(&extra[0]).unwrap();

    // the follower's next catch-up requests a full re-sync; settle until
    // every member agrees again
    let repaired_digest = sim.settle(1, 400).unwrap();
    assert_ne!(healthy_digest, 0);
    assert_ne!(
        repaired_digest, healthy_digest,
        "the extra chunk must be in the repaired state"
    );

    // the repaired artifacts verify clean on a second scrub pass
    let report = sim.scrub_and_repair(follower).unwrap().unwrap();
    assert!(
        report.findings.is_empty(),
        "artifacts still corrupt after read-repair: {:?}",
        report.findings
    );
}

#[test]
fn dying_disk_primary_deposes_and_a_healthy_replica_takes_over() {
    // node 0's disk will latch sticky-dead mid-run; 1 and 2 stay healthy
    let sick = Vfs::faulted(DiskFaultPlan::new(7)).unwrap();
    let sick_handle = sick.clone();
    let (_base, mut sim) = cluster("dying", move |id| {
        if id == 0 {
            sick.clone()
        } else {
            Vfs::passthrough()
        }
    });
    // node 0 (lowest id) wins the first election and acks a prefix
    let chunks = workload(50, 6);
    let mut writes = Vec::new();
    for chunk in chunks.iter().take(3) {
        loop {
            match sim.client_ingest(chunk) {
                Ok(w) => {
                    writes.push(w);
                    break;
                }
                Err(ServeError::NotPrimary { .. }) => sim.step().unwrap(),
                Err(e) => panic!("ingest refused: {e}"),
            }
        }
        sim.step().unwrap();
    }
    for _ in 0..50 {
        sim.step().unwrap();
        if writes.iter().all(|&w| sim.acked(w)) {
            break;
        }
    }
    assert!(
        writes.iter().all(|&w| sim.acked(w)),
        "the healthy cluster failed to commit the prefix"
    );
    let old_primary = sim.primary().unwrap();
    assert_eq!(old_primary, 0, "node 0 should hold the first epoch");

    // the disk dies: every subsequent write/sync/meta op fails sticky
    sick_handle.force_sticky();
    let err = sim.client_ingest(&chunks[3]).unwrap_err();
    assert!(
        matches!(err, ServeError::DiskDegraded { .. }),
        "a dying-disk primary must refuse with the typed error, got: {err}"
    );
    assert_ne!(
        sim.node(0).unwrap().role(),
        Role::Primary,
        "a primary that cannot persist must self-depose"
    );

    // a healthy replica wins the next election; the deposed node must
    // never campaign (it cannot durably grant or claim an epoch)
    let mut new_primary = None;
    for _ in 0..600 {
        step_tolerant(&mut sim);
        if let Some(p) = sim.primary() {
            if p != 0 {
                new_primary = Some(p);
                break;
            }
        }
    }
    let new_primary = new_primary.expect("no healthy replica took over");
    assert_ne!(new_primary, 0);

    // availability with one member's disk dead: writes keep flowing and
    // keep committing through the healthy quorum
    let mut reacked = 0u64;
    for chunk in chunks.iter().skip(3) {
        for _ in 0..200 {
            match sim.client_ingest(chunk) {
                Ok(w) => {
                    assert_ne!(w.0, 0, "the dead-disk node must not ack writes");
                    reacked = w.1 .1 + 1;
                    writes.push(w);
                    break;
                }
                Err(ServeError::NotPrimary { .. } | ServeError::DiskDegraded { .. }) => {
                    step_tolerant(&mut sim)
                }
                Err(e) => panic!("ingest refused after failover: {e}"),
            }
        }
        step_tolerant(&mut sim);
    }
    assert_eq!(reacked, 6, "the post-failover writes never got through");
    for _ in 0..200 {
        step_tolerant(&mut sim);
        if writes.iter().all(|&w| sim.acked(w)) {
            break;
        }
    }
    // no acked write lost: everything committed before the disk died —
    // and everything acked after failover — is committed on the healthy
    // members
    assert!(
        writes.iter().all(|&w| sim.acked(w)),
        "quorum-acked writes went missing after the dying-disk failover"
    );
    let d1 = sim.node(1).unwrap().state_digest();
    let d2 = sim.node(2).unwrap().state_digest();
    for _ in 0..200 {
        step_tolerant(&mut sim);
        let a = sim.node(1).unwrap();
        let b = sim.node(2).unwrap();
        if a.state_digest() == b.state_digest() && a.commit() == a.durable() {
            break;
        }
    }
    assert_eq!(
        sim.node(1).unwrap().state_digest(),
        sim.node(2).unwrap().state_digest(),
        "healthy members diverged (last seen {d1:#x} vs {d2:#x})"
    );
    // the client history: six staged writes plus the refusal from the
    // dying disk. This workload has no marker cells, so only the
    // counting half of the check applies.
    let mut history: Vec<Told> = writes
        .iter()
        .map(|&w| Told::of(Some(w), |w| sim.acked(w)))
        .collect();
    history.push(Told::Refused);
    let settled: Vec<Settled> = [1, 2]
        .map(|n| Settled {
            chunks_seen: sim.node(n).unwrap().core().chunks_seen(),
            markers: None,
        })
        .into();
    history::check(&history, &settled).unwrap();
}

/// A member whose disk dies stays a member: its ticks and reply handling
/// fail with `DiskDegraded`, which the daemon ignores, and the simulator
/// must not drop the node for it. This replays the dying-disk test above,
/// where a step once returned `DiskDegraded` after the failover and took
/// node 0 out of the cluster for good, with no restart scheduled.
#[test]
fn a_member_on_a_dead_disk_is_never_dropped_from_the_cluster() {
    let sick = Vfs::faulted(DiskFaultPlan::new(7)).unwrap();
    let sick_handle = sick.clone();
    let (_base, mut sim) = cluster("dead_disk_member", move |id| {
        if id == 0 {
            sick.clone()
        } else {
            Vfs::passthrough()
        }
    });
    let step = |sim: &mut SimCluster| {
        sim.step().unwrap();
        assert_eq!(sim.alive(), [0, 1, 2], "a member left the cluster");
    };
    let chunks = workload(50, 6);
    let mut writes = Vec::new();
    for chunk in &chunks {
        if writes.len() == 3 {
            // node 0 acked three writes; now its disk dies
            for _ in 0..50 {
                step(&mut sim);
                if writes.iter().all(|&w| sim.acked(w)) {
                    break;
                }
            }
            assert_eq!(sim.primary(), Some(0));
            sick_handle.force_sticky();
            let err = sim.client_ingest(chunk).unwrap_err();
            assert!(matches!(err, ServeError::DiskDegraded { .. }), "{err}");
        }
        for _ in 0..600 {
            match sim.client_ingest(chunk) {
                Ok(w) => {
                    writes.push(w);
                    break;
                }
                Err(ServeError::NotPrimary { .. } | ServeError::DiskDegraded { .. }) => {
                    step(&mut sim)
                }
                Err(e) => panic!("ingest refused: {e}"),
            }
        }
        step(&mut sim);
    }
    for _ in 0..200 {
        step(&mut sim);
    }
    assert_eq!(writes.len(), chunks.len(), "writes stopped flowing");
    assert!(writes.iter().all(|&w| sim.acked(w)));
}

/// Fingerprint of `chunks` ingested on a healthy disk, in a directory of
/// its own (`tag`) so parallel tests never share one.
fn healthy_fingerprint(tag: &str, chunks: &[Vec<ChunkClaim>]) -> Vec<u8> {
    let dir = test_dir(tag);
    let (mut core, _) = ServeCore::open(config(&dir, Vfs::passthrough())).unwrap();
    for chunk in chunks {
        core.ingest(chunk).unwrap();
    }
    let bytes = core.checkpoint_bytes();
    dir.close(core);
    bytes
}

/// Each chunk repeated over disjoint objects up to 2 048 claims. The
/// daemon writes the WAL record of a chunk that big on a helper thread
/// while it folds (it overlaps the two from 1 024 claims); the small
/// workload chunks append before the fold. Fault op indices are the
/// same for both: an append is one write and one fsync at any size.
fn widen(chunks: &[Vec<ChunkClaim>]) -> Vec<Vec<ChunkClaim>> {
    chunks
        .iter()
        .map(|chunk| {
            let copies = 2048usize.div_ceil(chunk.len()) as u32;
            (0..copies)
                .flat_map(|k| {
                    chunk.iter().cloned().map(move |mut c| {
                        c.object += 5 * k;
                        c
                    })
                })
                .collect()
        })
        .collect()
}

/// Both chunk sizes of a workload, tagged: appends before the fold and
/// appends beside it.
fn both_sizes(chunks: Vec<Vec<ChunkClaim>>) -> [(&'static str, Vec<Vec<ChunkClaim>>); 2] {
    let wide = widen(&chunks);
    [("small", chunks), ("wide", wide)]
}

#[test]
fn recovery_is_bit_identical_with_overlapped_appends() {
    let mut total_crashes = 0u64;
    for seed in 100..104u64 {
        let lying = seed % 2 == 1;
        let mut plan = DiskFaultPlan::new(seed)
            .torn_writes(0.10)
            .bit_rot(0.05)
            .transient_eio(0.05)
            .max_faults(16);
        if lying {
            plan = plan.lying_fsyncs(0.10).max_faults(8);
        }
        let chunks = widen(&workload(seed, 20));
        let reference = reference_fingerprint(seed, &chunks);
        let (recovered, crashes) = disk_chaotic_run(seed, &chunks, plan, !lying);
        assert_eq!(
            recovered, reference,
            "seed {seed}: wide-chunk state after {crashes} disk-fault crashes diverged"
        );
        total_crashes += crashes;
    }
    assert!(total_crashes > 0, "the plans injected no crashes");
}

/// A transient `EIO` on a WAL append refuses the chunk, and the core keeps
/// serving. The refused frame must not stay in the log: the next acked
/// chunk takes the same sequence number, so a clean restart that found
/// the refused frame first would fold it and drop the acked chunk as a
/// duplicate. The client here moves on after a refusal, so the acked
/// chunks alone are the reference.
#[test]
fn refused_append_never_replaces_an_acked_chunk_on_restart() {
    for seed in [2u64, 4, 5, 9] {
        for (size, chunks) in both_sizes(workload(seed, 20)) {
            let tag = format!("refused_append_{size}_{seed}");
            let dir = test_dir(&tag);
            let vfs =
                Vfs::faulted(DiskFaultPlan::new(seed).transient_eio(0.15).max_faults(1)).unwrap();
            let (mut core, _) = ServeCore::open(config(&dir, vfs.clone())).unwrap();
            let mut acked = Vec::new();
            let mut refused = false;
            for chunk in &chunks {
                match core.ingest(chunk) {
                    Ok(_) => {
                        acked.push(chunk.clone());
                        if refused {
                            break;
                        }
                    }
                    Err(ServeError::Io(_)) => refused = true,
                    Err(e) => panic!("{tag}: unexpected ingest error: {e}"),
                }
            }
            assert!(refused, "{tag}: the plan refused no chunk");
            let memory = core.checkpoint_bytes();
            assert_eq!(
                memory,
                healthy_fingerprint(&format!("{tag}_ref"), &acked),
                "{tag}: memory holds more than the acked chunks"
            );
            drop(core);
            let (core, _) = ServeCore::open(config(&dir, Vfs::passthrough())).unwrap();
            assert_eq!(
                core.checkpoint_bytes(),
                memory,
                "{tag}: restart recovered a refused record instead of the acked one"
            );
        }
    }
}

/// A snapshot that fails after the chunk's WAL record is durable must not
/// report the chunk as refused: it is already folded, so a client retry
/// would fold it twice. The client here retries every refused chunk.
#[test]
fn failed_snapshot_after_the_commit_point_still_acks_the_chunk() {
    let seed = 0u64;
    for (size, chunks) in both_sizes(workload(seed, 8)) {
        let dir = test_dir(&format!("snapshot_after_commit_{size}"));
        let vfs = Vfs::faulted(DiskFaultPlan::new(seed).transient_eio(0.15).max_faults(1)).unwrap();
        let (mut core, _) = ServeCore::open(config(&dir, vfs.clone())).unwrap();
        let mut attempts = 0u64;
        for chunk in &chunks {
            loop {
                attempts += 1;
                match core.ingest(chunk) {
                    Ok(_) => break,
                    Err(ServeError::Io(_)) => {}
                    Err(e) => panic!("{size}: unexpected ingest error: {e}"),
                }
            }
        }
        assert_eq!(vfs.faults_fired(), 1, "{size}: the plan injected no fault");
        assert_eq!(
            core.chunks_seen(),
            chunks.len() as u64,
            "{size}: a refused chunk was folded ({attempts} attempts)"
        );
        let memory = core.checkpoint_bytes();
        assert_eq!(
            memory,
            healthy_fingerprint(&format!("snapshot_after_commit_{size}_ref"), &chunks),
            "{size}"
        );
        drop(core);
        let (core, _) = ServeCore::open(config(&dir, Vfs::passthrough())).unwrap();
        assert_eq!(core.checkpoint_bytes(), memory, "{size}");
    }
}
