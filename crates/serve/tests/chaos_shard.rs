//! Shard-topology chaos suite.
//!
//! The contract under test, per the ISSUE acceptance criteria, across
//! ten seeded lifetimes of a 3-shard × 3-replica topology (random link
//! faults everywhere, a scheduled per-group partition, and a
//! seed-chosen **whole-quorum kill** of one shard):
//!
//! - **No quorum-acked write is lost.** A client that saw its sub-chunk
//!   reach its shard group's commit quorum finds it folded after the
//!   topology heals.
//! - **Scatter-gather digests equal an unsharded run.** After healing,
//!   every shard group's folded-state digest is byte-identical to a
//!   fresh, fault-free, *unsharded* cluster fed exactly that shard's
//!   surviving sub-stream in order — sharding plus chaos changes
//!   nothing about what each entry range converges to.
//! - **The degraded-read contract holds while a quorum is dead.** With
//!   one shard's every member down, reads owned by that shard answer a
//!   typed [`ServeError::Degraded`] naming it, scatter-gather reads
//!   report exactly it in `missing_shards`, and every other shard keeps
//!   serving — no panics, no hangs.
//!
//! Every chunk is single-shard by construction (all claims in chunk `i`
//! share the marker object `100 + i`), so the serial at-most-once
//! driver can track per-shard acks exactly like the unsharded chaos
//! suite does.

use std::path::PathBuf;

use crh_core::schema::Schema;
use crh_core::value::Value;
use crh_serve::{
    ChunkClaim, NetFaultPlan, PartitionWindow, ServeConfig, ServeError, ShardFaultPlan, ShardedSim,
    SimCluster,
};

#[path = "common/history.rs"]
mod history;

use history::{Settled, Told};

const SHARDS: u32 = 3;
const REPLICAS: usize = 3;
const CHUNKS: usize = 12;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("temperature");
    s.add_continuous("humidity");
    s
}

fn test_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("crh_shchaos_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Chunk `i`: a marker cell plus shared-cell claims, **all on the same
/// object** so the whole chunk routes to one shard and its fate is
/// observable through that single marker.
fn chunk(seed: u64, i: usize) -> Vec<ChunkClaim> {
    let object = 100 + i as u32;
    let mut claims = vec![ChunkClaim {
        object,
        property: 0,
        source: (i % 4) as u32,
        value: Value::Num(1000.0 + seed as f64 * 31.0 + i as f64),
    }];
    for s in 0..3u32 {
        claims.push(ChunkClaim {
            object,
            property: 1,
            source: s,
            value: Value::Num(20.0 + i as f64 + f64::from(s) * 0.75 + seed as f64 * 0.1),
        });
    }
    claims
}

fn marker_present(sim: &ShardedSim, i: usize) -> bool {
    matches!(sim.truth(100 + i as u32, 0), Ok((Some(_), _)))
}

/// One seeded chaotic lifetime: random link faults in every group, a
/// full partition inside a seed-chosen group, and — the headline fault —
/// a whole-quorum kill of another seed-chosen shard, later restarted.
fn chaos_plan(seed: u64) -> ShardFaultPlan {
    let partitioned = (seed % u64::from(SHARDS)) as u32;
    ShardFaultPlan::new(seed)
        .drops(0.04)
        .dropped_replies(0.03)
        .dups(0.04)
        .group_partition(
            partitioned,
            PartitionWindow {
                from_step: 30,
                to_step: 55,
                side_a: 0b001,
                one_way: seed.is_multiple_of(2),
            },
        )
        .kill_quorum(KILL_STEP, killed_shard(seed))
        .restart_after(30)
}

/// Scheduled far past where the serial driver finishes (asserted in the
/// test), so the ack phase and the quorum-dead window never overlap.
const KILL_STEP: u64 = 400;

/// The shard whose whole quorum dies: always distinct from nothing —
/// any of the three, chosen by seed.
fn killed_shard(seed: u64) -> u32 {
    ((seed / 3) % u64::from(SHARDS)) as u32
}

#[test]
fn shard_chaos_loses_no_acked_write_and_matches_unsharded_runs() {
    for seed in 0..10u64 {
        let base = test_dir(&format!("seed{seed}"));
        let b = base.clone();
        let mut sim = ShardedSim::open(
            SHARDS,
            REPLICAS,
            base.join("shard.map"),
            move |shard, node| ServeConfig::new(schema(), 0.5, b.join(format!("s{shard}_n{node}"))),
            chaos_plan(seed),
        )
        .unwrap();

        // Serial at-most-once driver: submit each (single-shard) chunk
        // once to its owning group, poll for the quorum ack, and record
        // whether it arrived. Timed-out chunks are never resubmitted, so
        // their fate stays observable via their marker cells.
        let mut acked: Vec<usize> = Vec::new();
        let mut staged = Vec::new();
        for i in 0..CHUNKS {
            let payload = chunk(seed, i);
            let shard = sim.shard_of(payload[0].object);
            let mut seq = None;
            for _ in 0..400 {
                match sim.ingest_shard(shard, &payload) {
                    Ok(s) => {
                        seq = Some(s);
                        break;
                    }
                    // no reachable primary in that group right now;
                    // every other group is unaffected by construction
                    Err(_) => sim.step().unwrap(),
                }
            }
            staged.push((shard, seq));
            let Some(s) = seq else { continue };
            for _ in 0..40 {
                sim.step().unwrap();
                if sim.acked(shard, s) {
                    acked.push(i);
                    break;
                }
            }
        }

        // --- degraded-read window: drive into the quorum kill ---------
        assert!(
            sim.now() < KILL_STEP,
            "seed {seed}: driver overran the kill schedule (now {})",
            sim.now()
        );
        let dead = killed_shard(seed);
        while sim.now() < KILL_STEP + 5 {
            sim.step().unwrap();
        }
        assert!(
            sim.group(dead).unwrap().alive().is_empty(),
            "seed {seed}: shard {dead}'s whole quorum should be down at step {}",
            sim.now()
        );
        // scatter-gather answers, reporting exactly the dead shard
        let scatter = sim.scatter_digests();
        assert_eq!(
            scatter.missing_shards,
            vec![dead],
            "seed {seed}: scatter must name exactly the dead shard"
        );
        assert_eq!(scatter.value.len(), SHARDS as usize - 1);
        assert!(scatter.is_degraded());
        // a strict read owned by the dead shard is a typed refusal...
        let dead_obj = (0..u32::MAX)
            .find(|&o| sim.shard_of(o) == dead)
            .expect("some object maps to every shard");
        match sim.truth(dead_obj, 0) {
            Err(ServeError::Degraded { missing_shards }) => {
                assert_eq!(missing_shards, vec![dead], "seed {seed}")
            }
            other => panic!("seed {seed}: expected Degraded, got {other:?}"),
        }
        // ...while every other shard keeps serving
        for shard in 0..SHARDS {
            if shard == dead {
                continue;
            }
            let obj = (0..u32::MAX).find(|&o| sim.shard_of(o) == shard).unwrap();
            sim.truth(obj, 0)
                .unwrap_or_else(|e| panic!("seed {seed}: healthy shard {shard} refused: {e}"));
        }

        // --- heal and settle every group ------------------------------
        while sim.now() < KILL_STEP + 40 {
            sim.step().unwrap();
        }
        let digests = sim.settle_all(5, 5000).unwrap();
        assert_eq!(digests.len(), SHARDS as usize);

        // (a) no quorum-acked write lost
        let survivors: Vec<usize> = (0..CHUNKS).filter(|&i| marker_present(&sim, i)).collect();
        for &i in &acked {
            assert!(
                survivors.contains(&i),
                "seed {seed}: quorum-acked chunk {i} lost \
                 (acked {acked:?}, survivors {survivors:?})"
            );
        }

        // (c) every group agrees with the client history: a chunk routed
        // to another group was never staged in this one
        for shard in 0..SHARDS {
            let history: Vec<Told> = staged
                .iter()
                .map(|&(at, w)| Told::of(w.filter(|_| at == shard), |w| sim.acked(shard, w)))
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
            history::check(&history, &settled).unwrap_or_else(|e| {
                panic!("seed {seed}: shard {shard}: {e} (history {history:?})")
            });
        }

        // (b) every shard's digest equals a fresh, fault-free,
        // *unsharded* cluster fed exactly that shard's survivors in order
        for (shard, digest) in digests {
            let ref_base = test_dir(&format!("seed{seed}_ref{shard}"));
            let rb = ref_base.clone();
            let mut reference = SimCluster::new(
                REPLICAS,
                move |id| ServeConfig::new(schema(), 0.5, rb.join(format!("node{id}"))),
                NetFaultPlan::new(seed ^ 0x5A5A),
            )
            .unwrap();
            for _ in 0..12 {
                reference.step().unwrap();
            }
            for &i in &survivors {
                let payload = chunk(seed, i);
                if sim.shard_of(payload[0].object) != shard {
                    continue;
                }
                let s = reference.client_ingest(&payload).unwrap();
                for _ in 0..64 {
                    reference.step().unwrap();
                    if reference.acked(s) {
                        break;
                    }
                }
                assert!(reference.acked(s), "seed {seed}: clean run stalled");
            }
            let ref_digest = reference.settle(1, 200).unwrap();
            assert_eq!(
                digest, ref_digest,
                "seed {seed}: shard {shard} diverged from its unsharded reference \
                 (acked {acked:?}, survivors {survivors:?})"
            );
            std::fs::remove_dir_all(&ref_base).ok();
        }

        std::fs::remove_dir_all(&base).ok();
    }
}
