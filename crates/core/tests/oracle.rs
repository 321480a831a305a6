//! The differential tests that hold the in-memory solvers to the
//! paper-transcription oracle (`common/oracle.rs`).
//!
//! Each runs a configuration to convergence on seeded random tables and
//! demands the same iteration count as the oracle, with truths, weights
//! and the objective trace within the oracle's relative tolerance. A
//! sensitivity fixture shows that the tolerance is tight enough: an oracle
//! with the wrong property normalization falls outside it.

mod common;
#[path = "common/oracle.rs"]
#[expect(
    dead_code,
    reason = "Algorithm 2 is held to I-CRH in crh-stream's suite, not here"
)]
mod oracle;

use crh_core::finegrained::FineGrainedCrh;
use crh_core::ids::PropertyId;
use crh_core::loss::SquaredLoss;
use crh_core::session::CrhSession;
use crh_core::solver::{CrhBuilder, PropertyNorm};
use crh_core::table::ObservationTable;
use crh_core::value::PropertyType;
use crh_core::weights::LogSum;

use oracle::{
    assert_agrees, divergence, oracle, stop, Answer, Config, Norm, NumLoss, Scheme, DEFAULTS,
    MAX_ITERS,
};

fn tables() -> impl Iterator<Item = (u64, ObservationTable)> {
    (0..common::TABLES).map(|seed| (seed, common::random_table(seed)))
}

fn continuous(table: &ObservationTable) -> impl Iterator<Item = PropertyId> + '_ {
    (table.schema().properties())
        .filter(|(_, def)| def.ptype == PropertyType::Continuous)
        .map(|(pid, _)| pid)
}

#[test]
fn crh_run_with_the_defaults_matches_the_oracle() {
    for (seed, table) in tables() {
        let want = oracle(&DEFAULTS, &table);
        let res = CrhBuilder::new().build().unwrap().run(&table).unwrap();
        assert_agrees("Crh::run (defaults)", seed, &want, &table, (&res).into());
    }
}

#[test]
fn crh_run_with_log_sum_and_no_normalization_matches_the_oracle() {
    let cfg = Config {
        scheme: Scheme::LogSum,
        norm: Norm::None,
        count_normalize: false,
        num_loss: NumLoss::Squared,
    };
    for (seed, table) in tables() {
        let want = oracle(&cfg, &table);
        let builder = continuous(&table).fold(
            CrhBuilder::new()
                .weight_assigner(LogSum)
                .property_norm(PropertyNorm::None)
                .count_normalize(false),
            |b, p| b.loss_for(p, SquaredLoss),
        );
        let res = builder.build().unwrap().run(&table).unwrap();
        let what = "Crh::run (LogSum, no normalization)";
        assert_agrees(what, seed, &want, &table, (&res).into());
    }
}

#[test]
fn session_stepping_matches_the_oracle() {
    let cfg = Config {
        num_loss: NumLoss::Squared,
        ..DEFAULTS
    };
    for (seed, table) in tables() {
        let want = oracle(&cfg, &table);
        let overrides = continuous(&table)
            .map(|p| (p, std::sync::Arc::new(SquaredLoss) as _))
            .collect();
        let mut session = CrhSession::with_losses(&table, &overrides).unwrap();
        let mut trace: Vec<f64> = Vec::new();
        for _ in 0..MAX_ITERS {
            let f = session.step();
            let prev = trace.last().copied();
            trace.push(f);
            if prev.is_some_and(|prev| stop(prev, f)) {
                break;
            }
        }
        let got = Answer {
            truths: session.truths(),
            weights: session.weights(),
            trace: &trace,
        };
        assert_agrees("CrhSession::step", seed, &want, &table, got);
    }
}

#[test]
fn one_group_fine_grained_matches_the_oracle() {
    for (seed, table) in tables() {
        let want = oracle(&DEFAULTS, &table);
        let all = (0..table.num_properties())
            .map(PropertyId::from_index)
            .collect();
        let res = FineGrainedCrh::new(vec![all]).unwrap().run(&table).unwrap();
        let got = Answer {
            truths: &res.truths,
            weights: &res.weights[0],
            trace: &res.objective_trace,
        };
        assert_agrees("FineGrainedCrh (one group)", seed, &want, &table, got);
    }
}

/// The sensitivity fixture: an oracle that normalizes each property by its
/// largest deviation instead of its sum must disagree with the solver's
/// defaults on every table, so [`TOL`] is tight enough to see a wrong
/// normalization.
#[test]
fn a_wrong_normalization_falls_outside_the_tolerance() {
    let wrong = Config {
        norm: Norm::MaxToOne,
        ..DEFAULTS
    };
    for (seed, table) in tables() {
        let res = CrhBuilder::new().build().unwrap().run(&table).unwrap();
        let got = Answer::from(&res);
        assert!(divergence(&oracle(&DEFAULTS, &table), &table, &got).is_none());
        assert!(
            divergence(&oracle(&wrong, &table), &table, &got).is_some(),
            "table {seed}: max-to-one normalization passed as sum-to-one"
        );
    }
}
