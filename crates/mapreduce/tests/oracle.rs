//! The MapReduce and out-of-core drivers held to the paper-transcription
//! oracle (`crh-core`'s `tests/common/oracle.rs`) on the same 24 seeded
//! tables as the in-memory solvers.
//!
//! Both drivers must run Algorithm 1 as the oracle does: the same start
//! at uniform weight 1, the same iteration count under the same stopping
//! rule, and every objective, weight and truth within the oracle's
//! relative tolerance. Two planted fixtures show the check can see the
//! drift it guards against: a start at the 1/K weights of §2.7 fit with
//! the former median scan, and an out-of-core loop that counts its
//! initial scan as an iteration.

#[path = "../../core/tests/common/mod.rs"]
mod common;
#[path = "../../core/tests/common/oracle.rs"]
#[expect(
    dead_code,
    reason = "the drivers take no loss overrides, and Algorithm 2 is held to I-CRH in crh-stream"
)]
mod oracle;

use std::collections::HashMap;
use std::sync::Arc;

use crh_core::ids::SourceId;
use crh_core::loss::{default_loss_for, AbsoluteLoss, Loss};
use crh_core::session::CrhSession;
use crh_core::solver::{objective, source_losses, within_tol, PropertyNorm};
use crh_core::stats::{entry_stats, EntryStats};
use crh_core::table::{ObservationTable, TruthTable};
use crh_core::value::{PropertyType, Truth, Value};
use crh_core::weights::{LogMax, WeightAssigner};
use crh_mapreduce::{JobConfig, OocClaim, OutOfCoreCrh, ParallelCrh, SortedClaims};

use oracle::{assert_agrees, divergence, oracle, stop, Answer, DEFAULTS, MAX_ITERS};

fn tables() -> impl Iterator<Item = (u64, ObservationTable)> {
    (0..common::TABLES).map(|seed| (seed, common::random_table(seed)))
}

/// Run `ParallelCrh` under `job` and return its final state with the
/// objective of every iteration. The driver reports no trace, so
/// iteration `t`'s objective is the oracle's price of the weights and
/// truths of a run capped at `t` iterations.
fn parallel(job: &JobConfig, table: &ObservationTable) -> (TruthTable, Vec<f64>, Vec<f64>) {
    let run = |cap: usize| {
        ParallelCrh::default()
            .job_config(job.clone())
            .max_iters(cap)
            .run(table)
            .expect("parallel CRH runs")
    };
    let full = run(MAX_ITERS);
    let price = |w: &[f64], x: &TruthTable| oracle::objective(&DEFAULTS, table, w, x);
    let mut trace: Vec<f64> = (1..full.iterations)
        .map(|cap| {
            let res = run(cap);
            price(&res.weights, &res.truths)
        })
        .collect();
    trace.push(price(&full.weights, &full.truths));
    (full.truths, full.weights, trace)
}

fn parallel_matches_the_oracle(what: &str, job: JobConfig) {
    for (seed, table) in tables() {
        let want = oracle(&DEFAULTS, &table);
        let (truths, weights, trace) = parallel(&job, &table);
        let got = Answer {
            truths: &truths,
            weights: &weights,
            trace: &trace,
        };
        assert_agrees(what, seed, &want, &table, got);
    }
}

#[test]
fn parallel_crh_with_the_default_job_matches_the_oracle() {
    parallel_matches_the_oracle("ParallelCrh (default job)", JobConfig::default());
}

#[test]
fn parallel_crh_with_3_mappers_and_5_reducers_matches_the_oracle() {
    let job = JobConfig {
        num_mappers: 3,
        num_reducers: 5,
        ..JobConfig::default()
    };
    parallel_matches_the_oracle("ParallelCrh (3 mappers, 5 reducers)", job);
}

/// The claims of `table` as out-of-core tuples, sorted on disk with a
/// small buffer so the external sort spills.
fn sorted_claims(table: &ObservationTable) -> (SortedClaims, Vec<PropertyType>) {
    let claims = table.iter_claims().map(|(e, s, v)| OocClaim {
        entry: e.0,
        property: table.entry(e).property.0,
        source: s.0,
        value: v.clone(),
    });
    let types = (table.schema().properties())
        .map(|(_, def)| def.ptype)
        .collect();
    (SortedClaims::build(claims, 64).expect("spill"), types)
}

/// Truths delivered through the sink, in entry order.
fn collect_truths(n: usize, run: impl FnOnce(&mut dyn FnMut(u32, &Truth))) -> TruthTable {
    let mut cells = vec![Truth::Point(Value::Num(f64::NAN)); n];
    run(&mut |e, t| cells[e as usize] = t.clone());
    TruthTable::new(cells)
}

#[test]
fn out_of_core_crh_matches_the_oracle() {
    for (seed, table) in tables() {
        let want = oracle(&DEFAULTS, &table);
        let (sorted, types) = sorted_claims(&table);
        let mut ooc = OutOfCoreCrh::new(types).unwrap();
        ooc.max_iters = MAX_ITERS;
        let mut res = None;
        let truths = collect_truths(table.num_entries(), |sink| {
            res = Some(ooc.run(&sorted, sink).unwrap());
        });
        let res = res.unwrap();
        assert_eq!(res.iterations, res.objective_trace.len());
        let got = Answer {
            truths: &truths,
            weights: &res.weights,
            trace: &res.objective_trace,
        };
        assert_agrees("OutOfCoreCrh", seed, &want, &table, got);
    }
}

/// The first table on which `answer` diverges from the oracle.
fn first_divergence(
    mut answer: impl FnMut(&ObservationTable) -> (TruthTable, Vec<f64>, Vec<f64>),
) -> Option<u64> {
    tables().find_map(|(seed, table)| {
        let (truths, weights, trace) = answer(&table);
        let got = Answer {
            truths: &truths,
            weights: &weights,
            trace: &trace,
        };
        divergence(&oracle(&DEFAULTS, &table), &table, &got).map(|_| seed)
    })
}

/// The weighted median scan this workspace used before it returned the
/// first run reaching half the weight: on an exact half-mass tie at
/// fractional weights it could return the largest value.
#[derive(Debug)]
struct FormerMedian;

impl Loss for FormerMedian {
    fn name(&self) -> &'static str {
        "former-median"
    }

    fn loss(&self, truth: &Truth, obs: &Value, stats: &EntryStats) -> f64 {
        AbsoluteLoss.loss(truth, obs, stats)
    }

    fn fit(&self, obs: &[(SourceId, Value)], weights: &[f64], _: &EntryStats) -> Truth {
        let mut pairs: Vec<(f64, f64)> = (obs.iter())
            .filter_map(|(s, v)| v.as_num().map(|x| (x, weights[s.index()])))
            .collect();
        let total = pairs.iter().fold(0.0, |t, p| t + p.1);
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (unit, half) = if total <= 0.0 {
            (true, pairs.len() as f64 / 2.0)
        } else {
            (false, total / 2.0)
        };
        let total = half * 2.0;
        let mut below = 0.0;
        let mut i = 0;
        while i < pairs.len() {
            let v = pairs[i].0;
            let mut run_w = 0.0;
            let mut j = i;
            while j < pairs.len() && (j == i || pairs[j].0 == v) {
                run_w += if unit { 1.0 } else { pairs[j].1 };
                j += 1;
            }
            if below < half && total - below - run_w <= half {
                return Truth::Point(Value::Num(v));
            }
            below += run_w;
            i = j;
        }
        Truth::Point(Value::Num(pairs[pairs.len() - 1].0))
    }

    fn property_type(&self) -> PropertyType {
        PropertyType::Continuous
    }
}

/// Planted fixture: Algorithm 1 started from the 1/K weights `ParallelCrh`
/// used to start from, with continuous entries fit by the former median
/// scan. Rounding at 1/K then splits half-mass ties differently than at
/// weight 1, and the run lands on other truths or another fixed point.
#[test]
fn a_one_over_k_start_with_the_former_scan_falls_outside_the_tolerance() {
    let planted = |table: &ObservationTable| {
        let overrides: HashMap<_, Arc<dyn Loss>> = (table.schema().properties())
            .filter(|(_, def)| def.ptype == PropertyType::Continuous)
            .map(|(pid, _)| (pid, Arc::new(FormerMedian) as _))
            .collect();
        let mut session = CrhSession::with_losses(table, &overrides).unwrap();
        let k = table.num_sources();
        session.set_weights(vec![1.0 / k as f64; k]);
        session.step_truths();
        let mut trace: Vec<f64> = Vec::new();
        for _ in 0..MAX_ITERS {
            let f = session.step();
            let prev = trace.last().copied();
            trace.push(f);
            if prev.is_some_and(|prev| stop(prev, f)) {
                break;
            }
        }
        let (truths, weights) = session.finish();
        (truths, weights, trace)
    };
    assert!(
        first_divergence(planted).is_some(),
        "a 1/K start with the former scan passed as the uniform start"
    );
}

/// The out-of-core loop as it was before it shared `Crh::run`'s count: the
/// scan at weight 1 is iteration 1 and starts the objective trace. Returns
/// the truths of its last scan, its weights and its trace.
fn former_out_of_core(table: &ObservationTable) -> (TruthTable, Vec<f64>, Vec<f64>) {
    let (sorted, types) = sorted_claims(table);
    let losses: Vec<Box<dyn Loss>> = types.iter().map(|&t| default_loss_for(t)).collect();
    let k = sorted.num_sources();
    let mut weights = vec![1.0; k];
    let mut truths = Vec::new();
    let mut trace: Vec<f64> = Vec::new();
    for _ in 0..MAX_ITERS {
        let mut dev = vec![vec![0.0; k]; types.len()];
        let mut counts = vec![0usize; k];
        truths.clear();
        for group in sorted.scan_groups().unwrap() {
            let (_, property, obs) = group.unwrap();
            let loss = &losses[property as usize];
            let nums: Vec<f64> = obs.iter().filter_map(|(_, v)| v.as_num()).collect();
            let stats = entry_stats(&nums, obs.len(), 0);
            let truth = loss.fit(&obs, &weights, &stats);
            for (s, v) in &obs {
                dev[property as usize][s.index()] += loss.loss(&truth, v, &stats);
                counts[s.index()] += 1;
            }
            truths.push(truth);
        }
        let per_source = source_losses(&dev, &counts, PropertyNorm::SumToOne, true);
        let f = objective(&weights, &per_source);
        let prev = trace.last().copied();
        trace.push(f);
        if prev.is_some_and(|prev| within_tol(prev, f, 1e-6)) {
            break;
        }
        weights = LogMax.assign(&per_source);
    }
    (TruthTable::new(truths), weights, trace)
}

/// Planted fixture: counting the initial scan as an iteration shifts the
/// iteration count and the objective trace by one on every table.
#[test]
fn counting_the_initial_scan_falls_outside_the_tolerance() {
    for (seed, table) in tables() {
        let (truths, weights, trace) = former_out_of_core(&table);
        let got = Answer {
            truths: &truths,
            weights: &weights,
            trace: &trace,
        };
        assert!(
            divergence(&oracle(&DEFAULTS, &table), &table, &got).is_some(),
            "table {seed}: an extra counted scan passed"
        );
    }
}
