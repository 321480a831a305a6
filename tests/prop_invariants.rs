//! Randomized tests on core invariants.
//!
//! Originally `proptest` properties; now driven by the in-tree seeded
//! generator ([`crh::core::rng`]) so the workspace tests run with zero
//! external dependencies. Each case is reproducible from the seed named
//! in its failure message.

use crh::core::ids::{ObjectId, SourceId};
use crh::core::loss::{
    levenshtein, weighted_median, AbsoluteLoss, Loss, ProbVectorLoss, SquaredLoss, ZeroOneLoss,
};
use crh::core::rng::{Rng, StdRng};
use crh::core::solver::{CrhBuilder, PropertyNorm};
use crh::core::stats::EntryStats;
use crh::core::table::TableBuilder;
use crh::core::value::{Truth, Value};
use crh::core::weights::{LogMax, LogSum, WeightAssigner};
use crh::core::Schema;

const CASES: u64 = 128;

fn value_weight_pairs(rng: &mut StdRng) -> Vec<(f64, f64)> {
    let n = rng.random_range(1usize..40);
    (0..n)
        .map(|_| {
            (
                rng.random_range(-1e6f64..1e6),
                rng.random_range(0.01f64..10.0),
            )
        })
        .collect()
}

/// Eq 16: the weighted median satisfies the paper's two inequalities.
#[test]
fn weighted_median_satisfies_eq16() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE916);
        let mut pairs = value_weight_pairs(&mut rng);
        let m = weighted_median(&mut pairs);
        let total: f64 = pairs.iter().map(|(_, w)| w).sum();
        let below: f64 = pairs.iter().filter(|(v, _)| *v < m).map(|(_, w)| w).sum();
        let above: f64 = pairs.iter().filter(|(v, _)| *v > m).map(|(_, w)| w).sum();
        assert!(below < total / 2.0 + 1e-9, "seed {seed}");
        assert!(above <= total / 2.0 + 1e-9, "seed {seed}");
        // the median is one of the input values
        assert!(pairs.iter().any(|(v, _)| *v == m), "seed {seed}");
    }
}

/// The weighted median minimizes the weighted absolute deviation among
/// all observed values (it is the argmin of Eq 3 under Eq 15).
#[test]
fn weighted_median_minimizes_weighted_l1() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11);
        let mut pairs = value_weight_pairs(&mut rng);
        let m = weighted_median(&mut pairs);
        let cost = |x: f64| -> f64 { pairs.iter().map(|(v, w)| w * (v - x).abs()).sum() };
        let med_cost = cost(m);
        for (v, _) in &pairs {
            assert!(
                med_cost <= cost(*v) + 1e-6 * med_cost.abs().max(1.0),
                "seed {seed}"
            );
        }
    }
}

/// The weighted mean minimizes the weighted squared deviation (Eq 14 is
/// the argmin of Eq 3 under Eq 13): any perturbation costs more.
#[test]
fn weighted_mean_minimizes_weighted_l2() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x12);
        let pairs = value_weight_pairs(&mut rng);
        let delta = rng.random_range(-100.0f64..100.0);
        let obs: Vec<(SourceId, Value)> = pairs
            .iter()
            .enumerate()
            .map(|(k, (v, _))| (SourceId(k as u32), Value::Num(*v)))
            .collect();
        let weights: Vec<f64> = pairs.iter().map(|(_, w)| *w).collect();
        let stats = EntryStats::trivial();
        let mean = SquaredLoss.fit(&obs, &weights, &stats).as_num().unwrap();
        let cost = |x: f64| -> f64 { pairs.iter().map(|(v, w)| w * (v - x) * (v - x)).sum() };
        assert!(
            cost(mean) <= cost(mean + delta) + 1e-6 * cost(mean).max(1.0),
            "seed {seed}"
        );
    }
}

/// 0-1 loss's weighted vote maximizes total agreeing weight.
#[test]
fn weighted_vote_maximizes_agreement() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x01);
        let n = rng.random_range(1usize..30);
        let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0u32..5)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.random_range(0.01f64..5.0)).collect();
        let obs: Vec<(SourceId, Value)> = labels
            .iter()
            .enumerate()
            .map(|(k, &l)| (SourceId(k as u32), Value::Cat(l)))
            .collect();
        let stats = EntryStats::trivial();
        let winner = ZeroOneLoss.fit(&obs, &weights, &stats).point();
        let agreement = |v: &Value| -> f64 {
            obs.iter()
                .zip(&weights)
                .filter(|((_, o), _)| o.matches(v))
                .map(|(_, w)| w)
                .sum()
        };
        let win_score = agreement(&winner);
        for l in 0u32..5 {
            assert!(
                win_score >= agreement(&Value::Cat(l)) - 1e-12,
                "seed {seed}"
            );
        }
    }
}

/// Loss functions are non-negative and zero at the truth itself.
#[test]
fn losses_nonnegative_and_zero_at_truth() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x10);
        let x = rng.random_range(-1e4f64..1e4);
        let std = rng.random_range(0.1f64..100.0);
        let stats = EntryStats {
            std,
            ..EntryStats::trivial()
        };
        let t = Truth::Point(Value::Num(x));
        for loss in [&SquaredLoss as &dyn Loss, &AbsoluteLoss] {
            assert!(
                loss.loss(&t, &Value::Num(x), &stats).abs() < 1e-9,
                "seed {seed}"
            );
            assert!(
                loss.loss(&t, &Value::Num(x + 1.0), &stats) >= 0.0,
                "seed {seed}"
            );
        }
        let tc = Truth::Point(Value::Cat(3));
        assert_eq!(
            ZeroOneLoss.loss(&tc, &Value::Cat(3), &stats),
            0.0,
            "seed {seed}"
        );
    }
}

/// Prob-vector fit always returns a probability distribution.
#[test]
fn prob_vector_fit_is_distribution() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD157);
        let n = rng.random_range(1usize..20);
        let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0u32..6)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.random_range(0.01f64..5.0)).collect();
        let obs: Vec<(SourceId, Value)> = labels
            .iter()
            .enumerate()
            .map(|(k, &l)| (SourceId(k as u32), Value::Cat(l)))
            .collect();
        let stats = EntryStats {
            domain_size: 6,
            ..EntryStats::trivial()
        };
        let t = ProbVectorLoss.fit(&obs, &weights, &stats);
        let probs = t.distribution().unwrap();
        assert!(
            (probs.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "seed {seed}"
        );
        assert!(
            probs.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)),
            "seed {seed}"
        );
    }
}

/// Levenshtein distance is a metric: symmetric, identity, triangle.
#[test]
fn levenshtein_is_a_metric() {
    let word = |rng: &mut StdRng| -> String {
        let n = rng.random_range(0usize..9);
        (0..n)
            .map(|_| ['a', 'b', 'c'][rng.random_range(0..3)])
            .collect()
    };
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1e5);
        let (a, b, c) = (word(&mut rng), word(&mut rng), word(&mut rng));
        assert_eq!(levenshtein(&a, &a), 0, "seed {seed}");
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a), "seed {seed}");
        assert!(
            levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c),
            "seed {seed}"
        );
        if a != b {
            assert!(levenshtein(&a, &b) > 0, "seed {seed}");
        }
    }
}

/// Weight assigners: lower loss never gets a lower weight, and all
/// weights are finite and non-negative.
#[test]
fn weight_assigners_are_monotone() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3a1);
        let n = rng.random_range(2usize..20);
        let losses: Vec<f64> = (0..n).map(|_| rng.random_range(0.0f64..100.0)).collect();
        for assigner in [&LogSum as &dyn WeightAssigner, &LogMax] {
            let w = assigner.assign(&losses);
            assert_eq!(w.len(), losses.len(), "seed {seed}");
            for (i, &li) in losses.iter().enumerate() {
                assert!(w[i].is_finite() && w[i] >= 0.0, "seed {seed}");
                for (j, &lj) in losses.iter().enumerate() {
                    if li < lj {
                        assert!(
                            w[i] >= w[j],
                            "seed {seed}: loss {li} < {lj} but weight {} < {}",
                            w[i],
                            w[j]
                        );
                    }
                }
            }
        }
    }
}

/// The CRH objective trace is non-increasing for the exact convex
/// configuration (LogSum + squared loss, no extra normalization) on
/// random single-property continuous tables.
#[test]
fn solver_objective_monotone_on_random_tables() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b1);
        let mut schema = Schema::new();
        let x = schema.add_continuous("x");
        let mut b = TableBuilder::new(schema);
        for _ in 0..rng.random_range(8usize..60) {
            let s = rng.random_range(0u32..8);
            let o = rng.random_range(0u32..4);
            let v = rng.random_range(-100.0f64..100.0);
            b.add(ObjectId(o), x, SourceId(s), Value::Num(v)).unwrap();
        }
        let table = b.build().unwrap();
        let res = CrhBuilder::new()
            .weight_assigner(LogSum)
            .property_norm(PropertyNorm::None)
            .count_normalize(false)
            .loss_for(x, SquaredLoss)
            .tolerance(0.0)
            .max_iters(20)
            .build()
            .unwrap()
            .run(&table)
            .unwrap();
        for w in res.objective_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-6 * w[0].abs().max(1.0), "seed {seed}");
        }
    }
}

/// Table building: CSR layout is consistent for arbitrary claim sets.
#[test]
fn table_builder_csr_invariants() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC59);
        let mut schema = Schema::new();
        let x = schema.add_continuous("x");
        let mut b = TableBuilder::new(schema);
        for _ in 0..rng.random_range(1usize..80) {
            let s = rng.random_range(0u32..5);
            let o = rng.random_range(0u32..6);
            let v = rng.random_range(0.0f64..10.0);
            b.add(ObjectId(o), x, SourceId(s), Value::Num(v)).unwrap();
        }
        let t = b.build().unwrap();
        // every entry has at least one observation, sorted by source,
        // at most one observation per source
        let mut total = 0;
        for (_, _, obs) in t.iter_entries() {
            assert!(!obs.is_empty(), "seed {seed}");
            for w in obs.windows(2) {
                assert!(w[0].0 < w[1].0, "seed {seed}");
            }
            total += obs.len();
        }
        assert_eq!(total, t.num_observations(), "seed {seed}");
        let counts_sum: usize = t.source_counts().iter().sum();
        assert_eq!(counts_sum, t.num_observations(), "seed {seed}");
    }
}
