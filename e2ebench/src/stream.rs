//! `stream`: incremental CRH (Algorithm 2), one chunk at a time.
//!
//! An operation turns one chunk of raw claims into an `ObservationTable`
//! and folds it into a long-lived `ICrhState`, the per-chunk path of a
//! streaming deployment. The traced run folds each chunk through
//! [`Mirror`], which repeats `process_chunk` step by step through the
//! library's public kernels, and checks it against the real state.

use std::collections::HashMap;
use std::time::Instant;

use crh_core::par::Pool;
use crh_core::schema::Schema;
use crh_core::solver::{
    fit_and_deviations_into, source_losses_mat, PreparedProblem, PropertyNorm, SolverScratch,
};
use crh_core::table::{Claim, ObservationTable, TruthTable};
use crh_core::weights::{LogMax, WeightAssigner};
use crh_stream::{ICrh, ICrhState};

use crate::gen::{self, Score, Weather};
use crate::measure::{closed_loop, span, Outcome, Trace};
use crate::Args;

/// I-CRH decay rate, shared with the daemon workloads.
pub const ALPHA: f64 = 0.9;
/// One chunk is one day of 100 cities: ≈ 2 500 claims. The run cycles
/// through `DAYS` days.
const CITIES: usize = 100;
const DAYS: usize = 100;
const WARMUP: usize = 20;

/// A fresh single-threaded I-CRH session.
pub fn session() -> Result<ICrhState, String> {
    Ok(ICrh::new(ALPHA)
        .map_err(|e| e.to_string())?
        .threads(1)
        .start())
}

/// `ICrhState::process_chunk` with the default configuration, spelled
/// out through the library's public kernels so each layer can be timed.
pub struct Mirror {
    weights: Vec<f64>,
    accumulated: Vec<f64>,
    pool: Pool,
    scratch: SolverScratch,
}

impl Mirror {
    pub fn new() -> Self {
        Self {
            weights: Vec::new(),
            accumulated: Vec::new(),
            pool: Pool::new(1),
            scratch: SolverScratch::new(0, 0, 0),
        }
    }

    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Build the chunk's table and fold it; returns the table and truths.
    pub fn fold(
        &mut self,
        schema: &Schema,
        claims: Vec<Claim>,
        tr: &mut Trace,
    ) -> Result<(ObservationTable, TruthTable), String> {
        let table = span(&mut tr.table_build, || {
            ObservationTable::from_claims(schema.clone(), claims)
        })
        .map_err(|e| e.to_string())?;
        let k = table.num_sources().max(self.weights.len());
        self.weights.resize(k, 1.0);
        self.accumulated.resize(k, 0.0);
        let prepared = span(&mut tr.plan_build, || {
            PreparedProblem::new(&table, &HashMap::new())
        })
        .map_err(|e| e.to_string())?;
        let mut truths = TruthTable::new(Vec::new());
        span(&mut tr.fit_dev, || {
            fit_and_deviations_into(
                &prepared,
                &self.weights,
                &self.pool,
                &mut truths,
                &mut self.scratch,
            )
        });
        tr.sweeps += 1;
        span(&mut tr.weight_update, || {
            let losses = source_losses_mat(
                self.scratch.dev(),
                table.source_counts(),
                PropertyNorm::SumToOne,
                true,
            );
            for (s, acc) in self.accumulated.iter_mut().enumerate() {
                *acc = *acc * ALPHA + losses.get(s).copied().unwrap_or(0.0);
            }
            self.weights = LogMax.assign(&self.accumulated);
        });
        drop(prepared);
        Ok((table, truths))
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let weather = Weather::new(args.seed, CITIES, DAYS)?;
    let baselines: Vec<Score> = weather.days.iter().map(|c| weather.baseline(c)).collect();
    let chunks: Vec<Vec<Claim>> = weather.days.iter().map(|c| gen::claims_of(c)).collect();
    let schema = weather.schema.clone();

    let mut out = Outcome::new(true);
    let mut state = None;
    while out.setup_due() {
        let input = chunks[0].clone();
        state = Some(out.time_setup(|| {
            let mut s = session()?;
            let table =
                ObservationTable::from_claims(schema.clone(), input).map_err(|e| e.to_string())?;
            s.process_chunk(&table).map_err(|e| e.to_string())?;
            Ok(s)
        })?);
    }
    let mut state = state.ok_or("no set-up ran")?;
    let mut mirror = Mirror::new();
    if args.trace {
        mirror.fold(&schema, chunks[0].clone(), &mut Trace::default())?;
    }

    let (mut score, mut base) = (Score::default(), Score::default());
    let mut diverged = 0u64;
    let mut op = |i: usize, trace: &mut Trace| -> Result<_, String> {
        let j = i % chunks.len();
        let input = chunks[j].clone();
        let n = input.len() as u64;
        let t = Instant::now();
        let (table, truths) = if args.trace {
            mirror.fold(&schema, input, trace)?
        } else {
            let table =
                ObservationTable::from_claims(schema.clone(), input).map_err(|e| e.to_string())?;
            let truths = state.process_chunk(&table).map_err(|e| e.to_string())?;
            (table, truths)
        };
        let lat = t.elapsed();
        if args.trace {
            let table = ObservationTable::from_claims(schema.clone(), chunks[j].clone())
                .map_err(|e| e.to_string())?;
            let real = state.process_chunk(&table).map_err(|e| e.to_string())?;
            diverged += u64::from(!gen::identical(
                state.weights(),
                &real,
                mirror.weights(),
                &truths,
            ));
        }
        score.add(&weather.score(&table, &truths));
        base.add(&baselines[j]);
        Ok((lat, n))
    };
    for i in 1..=WARMUP {
        op(i, &mut Trace::default())?;
    }
    closed_loop(args.seconds, WARMUP + 1, &mut out, &mut op);

    let accurate = score.beats(&base);
    let ranked = weather.ranks_sources(state.weights());
    if !accurate {
        eprintln!("stream: I-CRH does not beat voting / the median: {score:?} vs {base:?}");
    }
    if !ranked {
        eprintln!("stream: final weights do not rank the reliable sources first");
    }
    if diverged > 0 {
        eprintln!("stream: {diverged} traced folds differ from ICrhState");
    }
    out.correct = accurate && ranked && diverged == 0;
    Ok(out)
}
