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
//! The second half of the suite pins **golden digests**: one constant per
//! solver variant and input table, recorded from the row-oriented layout
//! (every entry fit and priced through its property's `Loss`) before that
//! layout was removed. The columnar sweeps replay those float programs (see
//! `crh_core::kernels`), so every variant must still reproduce its
//! constant at every thread count. `tests/fixed_point.rs` checks the same
//! claim on random tables no digest covers.

use std::collections::HashMap;

use crh_core::finegrained::{FineGrainedCrh, FineGrainedResult, ObjectGroupedCrh};
use crh_core::ids::{ObjectId, PropertyId, SourceId};
use crh_core::loss::{ProbVectorLoss, SquaredLoss};
use crh_core::persist::{digest64, Enc};
use crh_core::rng::{Pcg64, Rng};
use crh_core::schema::Schema;
use crh_core::semisupervised::SemiSupervisedCrh;
use crh_core::session::CrhSession;
use crh_core::solver::{CrhBuilder, CrhResult};
use crh_core::table::{ObservationTable, TableBuilder, TruthTable};
use crh_core::value::Value;

const SEEDS: [u64; 5] = [1, 2, 17, 404, 90210];
const THREADS: [usize; 4] = [1, 2, 3, 8];
/// Thread sweep for the golden digests (the scaling bench's thread set).
const GOLDEN_THREADS: [usize; 4] = [1, 2, 4, 8];

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
// Golden digests
// ---------------------------------------------------------------------------

/// The solver configurations the golden digests pin.
#[derive(Debug, Clone, Copy)]
enum Variant {
    Plain,
    FineGrained,
    ObjectGrouped,
    SemiSupervised,
    LossOverrides,
}

/// Run `variant` on `table` and digest the result.
fn variant_digest(variant: Variant, table: &ObservationTable, threads: usize) -> u64 {
    match variant {
        Variant::Plain => digest_plain(
            &CrhBuilder::new()
                .threads(threads)
                .max_iters(30)
                .tolerance(1e-9)
                .build()
                .unwrap()
                .run(table)
                .unwrap(),
        ),
        Variant::FineGrained => digest_grouped(
            &FineGrainedCrh::per_property(2)
                .unwrap()
                .threads(threads)
                .max_iters(25)
                .run(table)
                .unwrap(),
        ),
        Variant::ObjectGrouped => digest_grouped(
            &ObjectGroupedCrh::new(3, |o: ObjectId| (o.0 % 3) as usize)
                .unwrap()
                .threads(threads)
                .max_iters(25)
                .run(table)
                .unwrap(),
        ),
        Variant::SemiSupervised => {
            let mut anchors = HashMap::new();
            for o in [0u32, 7, 42] {
                anchors.insert((ObjectId(o), PropertyId(0)), Value::Num((o % 90) as f64));
            }
            anchors.insert(
                (ObjectId(3), PropertyId(1)),
                table
                    .schema()
                    .lookup(PropertyId(1), "storm")
                    .expect("label exists"),
            );
            digest_plain(
                &SemiSupervisedCrh::new(anchors)
                    .unwrap()
                    .threads(threads)
                    .max_iters(25)
                    .run(table)
                    .unwrap(),
            )
        }
        Variant::LossOverrides => digest_plain(
            &CrhBuilder::new()
                .threads(threads)
                .loss_for(PropertyId(0), SquaredLoss)
                .loss_for(PropertyId(1), ProbVectorLoss)
                .max_iters(25)
                .tolerance(1e-9)
                .build()
                .unwrap()
                .run(table)
                .unwrap(),
        ),
    }
}

/// One digest per (variant, input table), recorded from the row layout at
/// one thread. Seed `0x71E5` is the tie-heavy table; every other seed is a
/// [`seeded_table`]. A moved digest means the solver's float program
/// changed; never edit a constant to make the test pass.
const GOLDEN: [(Variant, u64, u64); 26] = [
    (Variant::Plain, 1, 0xA11E_196D_C898_B669),
    (Variant::Plain, 2, 0x3686_42CE_A600_AE8C),
    (Variant::Plain, 17, 0x9CD9_BE9A_5334_0039),
    (Variant::Plain, 404, 0x1182_A4CC_A56E_A221),
    (Variant::Plain, 90210, 0x47EC_B3F2_051C_2E2E),
    (Variant::Plain, 0x71E5, 0x15D7_FBF6_0EA9_DC48),
    (Variant::FineGrained, 1, 0x1D27_2665_D053_C57F),
    (Variant::FineGrained, 2, 0x0847_34CA_015F_A7A7),
    (Variant::FineGrained, 17, 0x94AD_AFF9_2C7B_CA26),
    (Variant::FineGrained, 404, 0x5BE5_4AD7_06A8_5A12),
    (Variant::FineGrained, 90210, 0x8C55_189B_89DB_18BE),
    (Variant::ObjectGrouped, 1, 0xCFD2_5675_AD05_6DDB),
    (Variant::ObjectGrouped, 2, 0x0B58_DFED_569F_1421),
    (Variant::ObjectGrouped, 17, 0x02D9_0640_87F8_22C0),
    (Variant::ObjectGrouped, 404, 0xCD93_4C01_F87E_2305),
    (Variant::ObjectGrouped, 90210, 0xC458_88B4_C2AB_DC98),
    (Variant::SemiSupervised, 1, 0xF7AE_6710_DBBB_F2C5),
    (Variant::SemiSupervised, 2, 0x7867_8521_7422_5F47),
    (Variant::SemiSupervised, 17, 0xFEAC_07BE_175D_8484),
    (Variant::SemiSupervised, 404, 0x6A55_653E_025E_8960),
    (Variant::SemiSupervised, 90210, 0x96F7_0A59_C162_D700),
    (Variant::LossOverrides, 1, 0x08CF_E6B4_6426_3BF0),
    (Variant::LossOverrides, 2, 0xB38C_8797_04A9_5355),
    (Variant::LossOverrides, 17, 0xE9A6_0BF8_CAFE_975B),
    (Variant::LossOverrides, 404, 0x88F7_3AF6_A7E0_80C7),
    (Variant::LossOverrides, 90210, 0x5167_8281_E4F8_F3AF),
];

#[test]
fn every_variant_matches_its_golden_digest() {
    for (variant, seed, want) in GOLDEN {
        let table = if seed == 0x71E5 {
            tie_heavy_table(seed)
        } else {
            seeded_table(seed)
        };
        for threads in GOLDEN_THREADS {
            assert_eq!(
                variant_digest(variant, &table, threads),
                want,
                "{variant:?} seed {seed}: threads={threads} moved off its golden digest"
            );
        }
    }
}

/// `CrhSession::run_to_convergence` stops where `Crh::run` stops: same
/// iteration count, same final objective, same weights, to the bit, on
/// every seed at both tolerances.
#[test]
fn session_convergence_matches_crh_run() {
    for seed in SEEDS {
        let table = seeded_table(seed);
        for tol in [1e-6, 1e-9] {
            let batch = CrhBuilder::new()
                .tolerance(tol)
                .build()
                .unwrap()
                .run(&table)
                .unwrap();
            let mut session = CrhSession::new(&table).unwrap();
            let f = session.run_to_convergence(tol, 100).unwrap();
            assert_eq!(
                session.iterations(),
                batch.iterations,
                "seed {seed} tol {tol}: iteration counts differ"
            );
            assert_eq!(
                Some(f.to_bits()),
                batch.objective_trace.last().map(|f| f.to_bits()),
                "seed {seed} tol {tol}: final objectives differ"
            );
            let sw: Vec<u64> = session.weights().iter().map(|w| w.to_bits()).collect();
            let bw: Vec<u64> = batch.weights.iter().map(|w| w.to_bits()).collect();
            assert_eq!(sw, bw, "seed {seed} tol {tol}: weights differ");
        }
    }
}
