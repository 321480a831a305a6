//! The thread-count determinism gate: every solver variant must produce
//! **byte-identical** results at every kernel thread count.
//!
//! The parallel kernels' contract (see `crh_core::par`) is that chunk
//! geometry depends only on the entry count and partials merge with a
//! fixed pairwise tree over the chunk index, so `threads ∈ {1, 2, 3, 8}`
//! must agree to the bit — weights, objective traces, and every truth
//! cell. Each result is serialized with the exact-bits `persist::Enc` and
//! compared by `digest64`, so even a single last-ulp divergence fails the
//! suite. The tables are sized well past one kernel chunk (256 entries) so
//! multiple chunks — and real cross-thread merging — are actually
//! exercised.
//!
//! The second half of the suite pins the **columnar fast path** against
//! the row-oriented reference: for every solver variant, every seed and
//! every thread count, `columnar(true)` must reproduce the
//! `columnar(false).threads(1)` digest exactly. The columnar sweeps are
//! written to replay the row path's float programs (see
//! `crh_core::kernels`), and this suite is the proof.

use std::collections::HashMap;

use crh_core::finegrained::{FineGrainedCrh, FineGrainedResult, ObjectGroupedCrh};
use crh_core::ids::{ObjectId, PropertyId, SourceId};
use crh_core::loss::{ProbVectorLoss, SquaredLoss};
use crh_core::persist::{digest64, Enc};
use crh_core::rng::{Pcg64, Rng};
use crh_core::schema::Schema;
use crh_core::semisupervised::SemiSupervisedCrh;
use crh_core::solver::{CrhBuilder, CrhResult};
use crh_core::table::{ObservationTable, TableBuilder, TruthTable};
use crh_core::value::Value;

const SEEDS: [u64; 5] = [1, 2, 17, 404, 90210];
const THREADS: [usize; 4] = [1, 2, 3, 8];
/// Thread sweep for the columnar-vs-row comparison (the scaling bench's
/// thread set).
const COL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// A seeded mixed categorical/continuous table: ~500 objects × 2
/// properties × 8 sources with ~80% observation density, so roughly a
/// thousand entries — several kernel chunks.
fn seeded_table(seed: u64) -> ObservationTable {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut schema = Schema::new();
    let temp = schema.add_continuous("temp");
    let cond = schema.add_categorical("cond");
    let mut b = TableBuilder::new(schema);
    let labels = ["clear", "cloudy", "storm"];
    for i in 0..500u32 {
        let truth_t = (i % 90) as f64;
        for s in 0..8u32 {
            // per-source bias makes reliabilities genuinely differ
            let bias = s as f64 * 0.7;
            let noise = (rng.next_u64() % 1000) as f64 / 200.0;
            if rng.next_u64() % 10 < 8 {
                b.add(
                    ObjectId(i),
                    temp,
                    SourceId(s),
                    Value::Num(truth_t + bias + noise),
                )
                .unwrap();
            }
            if rng.next_u64() % 10 < 8 {
                let l = if rng.next_u64() % 10 < 10 - s as u64 {
                    labels[(i % 3) as usize]
                } else {
                    labels[(rng.next_u64() % 3) as usize]
                };
                b.add_label(ObjectId(i), cond, SourceId(s), l).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// A tie-heavy table for the median kernel: integer-rounded temperatures
/// from 32 sources, so most entries hold runs of equal values and rows are
/// long enough (> 20 slots) that an unstable sort would reorder ties.
fn tie_heavy_table(seed: u64) -> ObservationTable {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut schema = Schema::new();
    let temp = schema.add_continuous("temp");
    let cond = schema.add_categorical("cond");
    let mut b = TableBuilder::new(schema);
    let labels = ["clear", "cloudy", "storm"];
    for i in 0..300u32 {
        let truth_t = (i % 90) as f64;
        for s in 0..32u32 {
            let bias = (s % 4) as f64 * 0.7;
            let noise = (rng.next_u64() % 1000) as f64 / 400.0;
            if rng.next_u64() % 10 < 8 {
                let t = (truth_t + bias + noise).round();
                b.add(ObjectId(i), temp, SourceId(s), Value::Num(t))
                    .unwrap();
            }
            if rng.next_u64() % 10 < 8 {
                let l = if rng.next_u64() % 32 < 32 - s as u64 {
                    labels[(i % 3) as usize]
                } else {
                    labels[(rng.next_u64() % 3) as usize]
                };
                b.add_label(ObjectId(i), cond, SourceId(s), l).unwrap();
            }
        }
    }
    b.build().unwrap()
}

fn digest_parts(
    truths: &TruthTable,
    flat_weights: &[f64],
    trace: &[f64],
    iterations: usize,
) -> u64 {
    let mut e = Enc::new();
    e.f64s(flat_weights);
    e.f64s(trace);
    e.u64(iterations as u64);
    for (_, t) in truths.iter() {
        e.truth(t);
    }
    digest64(&e.into_bytes())
}

fn digest_plain(res: &CrhResult) -> u64 {
    digest_parts(
        &res.truths,
        &res.weights,
        &res.objective_trace,
        res.iterations,
    )
}

fn digest_grouped(res: &FineGrainedResult) -> u64 {
    let flat: Vec<f64> = res.weights.iter().flatten().copied().collect();
    digest_parts(&res.truths, &flat, &res.objective_trace, res.iterations)
}

#[test]
fn plain_crh_is_digest_identical_at_every_thread_count() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        assert!(
            table.num_entries() > 256,
            "table must span multiple kernel chunks"
        );
        let run = |threads: usize| {
            CrhBuilder::new()
                .threads(threads)
                .max_iters(30)
                .tolerance(1e-9)
                .build()
                .unwrap()
                .run(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(1));
        for threads in THREADS {
            assert_eq!(
                digest_plain(&run(threads)),
                reference,
                "seed {seed}: threads={threads} diverged from sequential"
            );
        }
    }
}

#[test]
fn fine_grained_grouped_fit_is_digest_identical_at_every_thread_count() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |threads: usize| {
            FineGrainedCrh::per_property(2)
                .unwrap()
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_grouped(&run(1));
        for threads in THREADS {
            assert_eq!(
                digest_grouped(&run(threads)),
                reference,
                "seed {seed}: fine-grained threads={threads} diverged"
            );
        }
    }
}

#[test]
fn object_grouped_is_digest_identical_at_every_thread_count() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |threads: usize| {
            ObjectGroupedCrh::new(3, |o: ObjectId| (o.0 % 3) as usize)
                .unwrap()
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_grouped(&run(1));
        for threads in THREADS {
            assert_eq!(
                digest_grouped(&run(threads)),
                reference,
                "seed {seed}: object-grouped threads={threads} diverged"
            );
        }
    }
}

#[test]
fn semi_supervised_is_digest_identical_at_every_thread_count() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let mut anchors = HashMap::new();
        for o in [0u32, 7, 42] {
            anchors.insert((ObjectId(o), PropertyId(0)), Value::Num((o % 90) as f64));
        }
        let run = |threads: usize| {
            SemiSupervisedCrh::new(anchors.clone())
                .unwrap()
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(1));
        for threads in THREADS {
            assert_eq!(
                digest_plain(&run(threads)),
                reference,
                "seed {seed}: semi-supervised threads={threads} diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Columnar-vs-row bit identity
// ---------------------------------------------------------------------------

#[test]
fn columnar_plain_crh_matches_row_reference_bitwise() {
    let tables = SEEDS
        .iter()
        .map(|&seed| (seed, seeded_table(seed)))
        .chain([(0x71E5, tie_heavy_table(0x71E5))]);
    for (seed, table) in tables {
        let run = |columnar: bool, threads: usize| {
            CrhBuilder::new()
                .columnar(columnar)
                .threads(threads)
                .max_iters(30)
                .tolerance(1e-9)
                .build()
                .unwrap()
                .run(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_plain(&run(true, threads)),
                reference,
                "seed {seed}: columnar threads={threads} diverged from the row path"
            );
        }
    }
}

#[test]
fn columnar_fine_grained_matches_row_reference_bitwise() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |columnar: bool, threads: usize| {
            FineGrainedCrh::per_property(2)
                .unwrap()
                .columnar(columnar)
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_grouped(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_grouped(&run(true, threads)),
                reference,
                "seed {seed}: columnar fine-grained threads={threads} diverged from the row path"
            );
        }
    }
}

#[test]
fn columnar_object_grouped_matches_row_reference_bitwise() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |columnar: bool, threads: usize| {
            ObjectGroupedCrh::new(3, |o: ObjectId| (o.0 % 3) as usize)
                .unwrap()
                .columnar(columnar)
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_grouped(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_grouped(&run(true, threads)),
                reference,
                "seed {seed}: columnar object-grouped threads={threads} diverged from the row path"
            );
        }
    }
}

#[test]
fn columnar_semi_supervised_matches_row_reference_bitwise() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let mut anchors = HashMap::new();
        for o in [0u32, 7, 42] {
            anchors.insert((ObjectId(o), PropertyId(0)), Value::Num((o % 90) as f64));
        }
        // also pin one categorical anchor so the coded vote sweep hits the
        // anchored branch
        anchors.insert(
            (ObjectId(3), PropertyId(1)),
            table
                .schema()
                .lookup(PropertyId(1), "storm")
                .expect("label exists"),
        );
        let run = |columnar: bool, threads: usize| {
            SemiSupervisedCrh::new(anchors.clone())
                .unwrap()
                .columnar(columnar)
                .threads(threads)
                .max_iters(25)
                .run(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_plain(&run(true, threads)),
                reference,
                "seed {seed}: columnar semi-supervised threads={threads} diverged from the row path"
            );
        }
    }
}

/// Loss overrides swap the kernel class (squared → mean sweep) or disable
/// the fast path entirely (prob-vector → `Generic` on a coded column); both
/// must still match the row reference to the bit.
#[test]
fn columnar_matches_row_reference_under_loss_overrides() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        let run = |columnar: bool, threads: usize| {
            CrhBuilder::new()
                .columnar(columnar)
                .threads(threads)
                .loss_for(PropertyId(0), SquaredLoss)
                .loss_for(PropertyId(1), ProbVectorLoss)
                .max_iters(25)
                .tolerance(1e-9)
                .build()
                .unwrap()
                .run(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_plain(&run(true, threads)),
                reference,
                "seed {seed}: columnar with overrides threads={threads} diverged from the row path"
            );
        }
    }
}

/// The unfused reference loop (separate fit and deviation kernels) must
/// also be layout-invariant — it drives `fit_kernel` and `dev_kernel`
/// directly, the passes the fused loop doesn't exercise in isolation.
#[test]
fn columnar_unfused_loop_matches_row_reference_bitwise() {
    for seed in SEEDS.iter().take(2) {
        let table = seeded_table(*seed);
        let run = |columnar: bool, threads: usize| {
            CrhBuilder::new()
                .columnar(columnar)
                .threads(threads)
                .max_iters(20)
                .tolerance(1e-9)
                .build()
                .unwrap()
                .run_unfused(&table)
                .unwrap()
        };
        let reference = digest_plain(&run(false, 1));
        for threads in COL_THREADS {
            assert_eq!(
                digest_plain(&run(true, threads)),
                reference,
                "seed {seed}: columnar unfused threads={threads} diverged from the row path"
            );
        }
    }
}
