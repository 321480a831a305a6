//! Split/rebalance crash-recovery matrix.
//!
//! The cutover contract under test: a shard split stages the moved
//! entry range (snapshot + committed WAL catch-up) onto the new group's
//! member directories *before* writing one durable cutover record, so a
//! crash at **any** stage boundary recovers to exactly the pre- or
//! post-cutover topology — never a hybrid — with every routed read
//! answering the same truths as before the attempt:
//!
//! - `PreStage` / `MidCatchUp` (before the record): recovery adopts the
//!   old map; partially-staged directories are dead weight the next
//!   attempt wipes and re-stages.
//! - `PostCutoverRecord` / `PreAck` (after the record): recovery adopts
//!   the new map; the staged directories are complete *by ordering*.
//!
//! Plus: a split that loses the donor's whole quorum mid-catch-up keeps
//! the donor group's chaos live, waits out the restart and re-election,
//! and still completes with the data intact.

use std::path::PathBuf;

use crh_core::schema::Schema;
use crh_core::value::Value;
use crh_serve::{
    entry_point, ChunkClaim, ServeConfig, ShardFaultPlan, ShardedSim, SplitCrash, SplitOutcome,
    SplitSpec,
};

#[path = "common/history.rs"]
mod history;

use history::{Settled, Told};

const REPLICAS: usize = 3;
const CHUNKS: usize = 8;
const NEW_SHARD: u32 = 2;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("temperature");
    s.add_continuous("humidity");
    s
}

fn test_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("crh_split_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Single-object chunk `i` (marker object `100 + i`), so each chunk
/// routes to exactly one shard.
fn chunk(i: usize) -> Vec<ChunkClaim> {
    let object = 100 + i as u32;
    (0..3u32)
        .map(|s| ChunkClaim {
            object,
            property: s % 2,
            source: s,
            value: Value::Num(40.0 + i as f64 * 3.0 + f64::from(s) * 0.5),
        })
        .collect()
}

fn open_sim(base: &std::path::Path, plan: ShardFaultPlan) -> ShardedSim {
    let b = base.to_path_buf();
    ShardedSim::open(
        2,
        REPLICAS,
        base.join("shard.map"),
        move |shard, node| ServeConfig::new(schema(), 0.5, b.join(format!("s{shard}_n{node}"))),
        plan,
    )
    .unwrap()
}

/// Ingest the workload, wait out every commit, settle, and return the
/// routed truth of every marker cell — the table recovery must preserve.
fn fill_and_snapshot_truths(sim: &mut ShardedSim) -> Vec<(u32, String)> {
    let mut staged = Vec::new();
    for i in 0..CHUNKS {
        let payload = chunk(i);
        let shard = sim.shard_of(payload[0].object);
        let mut seq = None;
        for _ in 0..400 {
            match sim.ingest_shard(shard, &payload) {
                Ok(s) => {
                    seq = Some(s);
                    break;
                }
                Err(_) => sim.step().unwrap(),
            }
        }
        let s = seq.expect("fault-free ingest must land");
        staged.push((shard, s));
        for _ in 0..64 {
            sim.step().unwrap();
            if sim.acked(shard, s) {
                break;
            }
        }
        assert!(sim.acked(shard, s), "fault-free commit stalled");
    }
    sim.settle_all(5, 2000).unwrap();
    // every group agrees with the client history
    for shard in sim.map().shard_ids() {
        let history: Vec<Told> = staged
            .iter()
            .map(|&(at, w)| Told::of(Some(w).filter(|_| at == shard), |w| sim.acked(shard, w)))
            .collect();
        let group = sim.group(shard).unwrap();
        let settled: Vec<Settled> = (0..REPLICAS)
            .map(|n| {
                let core = group.node(n).unwrap().core();
                Settled {
                    chunks_seen: core.chunks_seen(),
                    markers: Some(
                        (0..CHUNKS)
                            .map(|i| core.truth(100 + i as u32, 0).is_some())
                            .collect(),
                    ),
                }
            })
            .collect();
        history::check(&history, &settled).unwrap_or_else(|e| panic!("shard {shard}: {e}"));
    }
    truth_table(sim)
}

fn truth_table(sim: &ShardedSim) -> Vec<(u32, String)> {
    (0..CHUNKS)
        .map(|i| {
            let object = 100 + i as u32;
            let (t, _) = sim.truth(object, 0).unwrap();
            (object, format!("{t:?}"))
        })
        .collect()
}

/// The split point: the hash of one shard-0 marker, so that marker
/// provably changes owners at cutover (`at` is inclusive on the moved
/// side). Picks the marker with the largest hash inside shard 0's
/// range, which keeps `at` strictly above the range start.
fn split_at(sim: &ShardedSim) -> (u64, u32) {
    let moved = (0..CHUNKS)
        .map(|i| 100 + i as u32)
        .filter(|&o| sim.shard_of(o) == 0)
        .max_by_key(|&o| entry_point(o))
        .expect("some marker lands on shard 0");
    (entry_point(moved), moved)
}

#[test]
fn crash_at_every_stage_recovers_to_exactly_pre_or_post_cutover() {
    let matrix = [
        (SplitCrash::PreStage, false),
        (SplitCrash::MidCatchUp, false),
        (SplitCrash::PostCutoverRecord, true),
        (SplitCrash::PreAck, true),
    ];
    for (point, post_cutover) in matrix {
        let base = test_dir(&format!("crash_{point:?}"));
        let mut sim = open_sim(&base, ShardFaultPlan::new(7).split_crash(point));
        let truths = fill_and_snapshot_truths(&mut sim);
        let (at, moved_marker) = split_at(&sim);

        let outcome = sim
            .split(SplitSpec {
                source: 0,
                new_shard: NEW_SHARD,
                at,
            })
            .unwrap();
        assert_eq!(outcome, SplitOutcome::Crashed(point), "{point:?}");

        // kill -9: abandon the coordinator and recover from disk alone
        drop(sim);
        let recovered = open_sim(&base, ShardFaultPlan::new(7));

        if post_cutover {
            assert_eq!(recovered.map().version, 1, "{point:?}: post-cutover map");
            let mut ids = recovered.map().shard_ids();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, NEW_SHARD]);
            assert_eq!(
                recovered.shard_of(moved_marker),
                NEW_SHARD,
                "{point:?}: the moved marker must route to the new shard"
            );
        } else {
            assert_eq!(recovered.map().version, 0, "{point:?}: pre-cutover map");
            assert_eq!(recovered.map().shard_ids(), vec![0, 1]);
            assert_eq!(recovered.shard_of(moved_marker), 0);
        }

        // the routed truth table is identical either way
        assert_eq!(
            truth_table(&recovered),
            truths,
            "{point:?}: recovery changed a truth"
        );

        // a pre-cutover recovery can simply retry the split to completion
        if !post_cutover {
            let mut retried = recovered;
            match retried
                .split(SplitSpec {
                    source: 0,
                    new_shard: NEW_SHARD,
                    at,
                })
                .unwrap()
            {
                SplitOutcome::Done { version } => assert_eq!(version, 1),
                other => panic!("{point:?}: retry did not complete: {other:?}"),
            }
            assert_eq!(retried.shard_of(moved_marker), NEW_SHARD);
            assert_eq!(
                truth_table(&retried),
                truths,
                "{point:?}: completed retry changed a truth"
            );
        }

        std::fs::remove_dir_all(&base).ok();
    }
}

#[test]
fn split_survives_a_donor_quorum_kill_mid_catch_up() {
    let base = test_dir("mid_split_chaos");
    // the donor group's whole quorum dies at step 600 — scheduled to
    // fire while the split coordinator is polling it for catch-up —
    // and restarts 20 steps later
    let plan = ShardFaultPlan::new(11)
        .drops(0.02)
        .kill_quorum(600, 0)
        .restart_after(20);
    let mut sim = open_sim(&base, plan);
    let truths = fill_and_snapshot_truths(&mut sim);
    let (at, moved_marker) = split_at(&sim);
    assert!(
        sim.now() < 600,
        "workload overran the kill schedule (now {})",
        sim.now()
    );
    // drive to just before the kill so the fetch loop steps into it
    while sim.now() < 599 {
        sim.step().unwrap();
    }

    match sim
        .split(SplitSpec {
            source: 0,
            new_shard: NEW_SHARD,
            at,
        })
        .unwrap()
    {
        SplitOutcome::Done { version } => assert_eq!(version, 1),
        other => panic!("split under mid-split chaos did not complete: {other:?}"),
    }
    assert_eq!(sim.shard_of(moved_marker), NEW_SHARD);
    assert_eq!(truth_table(&sim), truths, "mid-split chaos changed a truth");
    std::fs::remove_dir_all(&base).ok();
}
