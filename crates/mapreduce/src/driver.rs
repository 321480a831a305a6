//! Parallel CRH: the two MapReduce jobs and the iterative wrapper (§2.7),
//! with durable iteration-level checkpointing.
//!
//! It runs Algorithm 1 in the order of [`Crh::run`](crh_core::solver::Crh::run),
//! with two MapReduce jobs:
//!
//! 1. **Truth computation** (§2.7.2) — one MapReduce job keyed by entry id:
//!    mappers re-key the `(eID, v, sID)` tuples, reducers solve Eq (3) per
//!    entry using the source weights read from a [`SideFile`];
//! 2. **Source weight assignment** (§2.7.3) — one MapReduce job: mappers
//!    compute partial errors against the truths side file and emit
//!    `((property, sID), error)`, a Combiner pre-sums them per mapper, and
//!    reducers aggregate. The wrapper (§2.7.4) normalizes the small
//!    aggregated deviation matrix into per-source losses.
//!
//! An uncounted first truth job fits at weight 1 for every source, and a
//! weight job prices it. Each iteration then assigns new weights from the
//! carried losses (Step I), runs the truth job and the weight job, and
//! stops once the objective `Σ_k w_k L_k` is [`within_tol`] of the
//! previous iteration's or the iteration cap is hit.
//!
//! ## Checkpoint/resume
//!
//! With a [`CheckpointConfig`], the driver persists `(iteration, weights,
//! truths)` after each completed iteration as a CRC-framed, atomically
//! replaced file ([`crh_core::persist`]): the iteration's Step-I weights
//! and the truths fit under them. A run killed mid-iteration can continue
//! from the last frame via
//! [`resume_from_checkpoint`](ParallelCrh::resume_from_checkpoint), which
//! runs the weight job once on the stored truths to rebuild the losses and
//! the objective the next iteration needs. The frame stores `f64` bits
//! exactly, so a resumed run's final truths and weights are identical to an
//! uninterrupted one — the chaos tests assert this to the bit.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crh_core::ids::{EntryId, SourceId};
use crh_core::persist::{read_frame, write_frame, Dec, Enc, PersistError};
use crh_core::solver::{objective, source_losses, within_tol, PreparedProblem, PropertyNorm};
use crh_core::table::{ObservationTable, TruthTable};
use crh_core::value::{Truth, Value};
use crh_core::weights::{LogMax, WeightAssigner};

use crate::engine::{map_reduce, no_combiner, JobConfig, JobStats};
use crate::error::MapReduceError;
use crate::sidefile::SideFile;

/// One input tuple in the §2.7.1 data format: `(eID, v, sID)`.
#[derive(Debug, Clone)]
pub struct ClaimRecord {
    /// Dense entry index.
    pub entry: u32,
    /// Source id.
    pub source: u32,
    /// Claimed value.
    pub value: Value,
}

/// Magic bytes of a parallel-CRH checkpoint frame.
const CKPT_MAGIC: [u8; 4] = *b"CRHC";
/// Current checkpoint format version. Version 1 stored the weights the
/// weight job derived from the truths, which this driver does not read.
const CKPT_VERSION: u32 = 2;

/// Where and how often to persist iteration checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Target file; written atomically (temp + rename) each time.
    pub path: PathBuf,
    /// Write after every `every`-th completed iteration (1 = every one).
    pub every: usize,
}

impl CheckpointConfig {
    /// Checkpoint to `path` after every iteration.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            every: 1,
        }
    }

    /// Checkpoint only every `every`-th iteration.
    pub fn every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }
}

/// The state a checkpoint frame captures: everything iteration `iteration
/// + 1` needs to continue exactly as an uninterrupted run would.
#[derive(Debug, Clone, PartialEq)]
struct CheckpointState {
    /// 0-based index of the last fully completed iteration.
    iteration: usize,
    /// That iteration's Step-I weights, which its truth job read.
    weights: Vec<f64>,
    /// Truths estimated by that iteration's truth job.
    truths: Vec<Truth>,
}

fn save_checkpoint(path: &Path, state: &CheckpointState) -> Result<(), PersistError> {
    let mut e = Enc::new();
    e.u64(state.iteration as u64);
    e.f64s(&state.weights);
    e.u64(state.truths.len() as u64);
    for t in &state.truths {
        e.truth(t);
    }
    write_frame(path, CKPT_MAGIC, CKPT_VERSION, &e.into_bytes())
}

fn load_checkpoint(path: &Path) -> Result<CheckpointState, PersistError> {
    let (version, payload) = read_frame(path, CKPT_MAGIC, CKPT_VERSION)?;
    if version != CKPT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let mut d = Dec::new(&payload);
    let iteration = d.u64()? as usize;
    let weights = d.f64s()?;
    let n = d.u64()? as usize;
    let mut truths = Vec::with_capacity(n.min(payload.len()));
    for _ in 0..n {
        truths.push(d.truth()?);
    }
    if !d.is_exhausted() {
        return Err(PersistError::Malformed("trailing bytes after checkpoint"));
    }
    Ok(CheckpointState {
        iteration,
        weights,
        truths,
    })
}

/// Configuration of the parallel CRH driver.
pub struct ParallelCrh {
    /// Engine parallelism/overhead settings shared by both jobs.
    pub job: JobConfig,
    /// Iteration cap.
    pub max_iters: usize,
    /// Relative-objective tolerance of the stopping rule, as
    /// [`CrhBuilder::tolerance`](crh_core::solver::CrhBuilder::tolerance):
    /// stop once `|f_prev − f| / max(|f_prev|, 1) <= tol`. A negative value
    /// never stops early.
    pub tol: f64,
    /// Cross-property normalization (§2.5).
    pub property_norm: PropertyNorm,
    /// Per-source observation-count normalization ("the aggregated errors
    /// should be normalized by the number of sources' observations").
    pub count_normalize: bool,
    /// Durable iteration checkpoints; `None` = don't persist.
    pub checkpoint: Option<CheckpointConfig>,
    assigner: Box<dyn WeightAssigner>,
}

impl Default for ParallelCrh {
    fn default() -> Self {
        Self {
            job: JobConfig::default(),
            max_iters: 10,
            tol: 1e-6,
            property_norm: PropertyNorm::SumToOne,
            count_normalize: true,
            checkpoint: None,
            assigner: Box::new(LogMax),
        }
    }
}

impl std::fmt::Debug for ParallelCrh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelCrh")
            .field("job", &self.job)
            .field("max_iters", &self.max_iters)
            .field("checkpoint", &self.checkpoint)
            .field("assigner", &self.assigner.name())
            .finish()
    }
}

/// Result of a parallel CRH run.
#[derive(Debug)]
pub struct ParallelCrhResult {
    /// Estimated truths, parallel to the table's entries.
    pub truths: TruthTable,
    /// Estimated source weights.
    pub weights: Vec<f64>,
    /// Iterations performed (including any replayed from a checkpoint).
    pub iterations: usize,
    /// Whether the tolerance was met before the cap.
    pub converged: bool,
    /// Stats of each truth-computation job this run executed, in order; a
    /// fresh run's first entry is the uncounted uniform-weight fit.
    pub truth_job_stats: Vec<JobStats>,
    /// Stats of each weight-assignment job this run executed, in order; the
    /// first entry prices the starting truths (fresh or resumed).
    pub weight_job_stats: Vec<JobStats>,
    /// End-to-end wall time.
    pub wall_time: Duration,
    /// Checkpoint frames written during this run.
    pub checkpoints_written: usize,
    /// Iteration the run resumed after, if it started from a checkpoint.
    pub resumed_from: Option<usize>,
}

impl ParallelCrh {
    /// Replace the engine configuration.
    pub fn job_config(mut self, job: JobConfig) -> Self {
        self.job = job;
        self
    }

    /// Replace the weight-assignment scheme.
    pub fn weight_assigner(mut self, a: impl WeightAssigner + 'static) -> Self {
        self.assigner = Box::new(a);
        self
    }

    /// Cap the number of iterations.
    pub fn max_iters(mut self, n: usize) -> Self {
        self.max_iters = n;
        self
    }

    /// Persist iteration checkpoints per `cfg`.
    pub fn checkpoint(mut self, cfg: CheckpointConfig) -> Self {
        self.checkpoint = Some(cfg);
        self
    }

    fn validate(&self) -> Result<(), MapReduceError> {
        self.job.validate()?;
        if self.max_iters == 0 {
            return Err(MapReduceError::InvalidConfig {
                field: "max_iters",
                reason: "must be >= 1".into(),
            });
        }
        if let Some(ck) = &self.checkpoint {
            if ck.every == 0 {
                return Err(MapReduceError::InvalidConfig {
                    field: "checkpoint.every",
                    reason: "must be >= 1".into(),
                });
            }
        }
        Ok(())
    }

    /// Run parallel CRH on `table`.
    pub fn run(&self, table: &ObservationTable) -> Result<ParallelCrhResult, MapReduceError> {
        self.run_from(table, None)
    }

    /// Continue a run from the checkpoint frame at `path` (validated by
    /// magic, version, and CRC before use). The resumed run's final truths
    /// and weights are bit-identical to what the interrupted run would
    /// have produced.
    pub fn resume_from_checkpoint(
        &self,
        table: &ObservationTable,
        path: impl AsRef<Path>,
    ) -> Result<ParallelCrhResult, MapReduceError> {
        let state = load_checkpoint(path.as_ref())?;
        if state.weights.len() != table.num_sources() {
            return Err(MapReduceError::Persist(PersistError::Malformed(
                "checkpoint source count does not match the table",
            )));
        }
        if state.truths.len() != table.num_entries() {
            return Err(MapReduceError::Persist(PersistError::Malformed(
                "checkpoint entry count does not match the table",
            )));
        }
        self.run_from(table, Some(state))
    }

    fn run_from(
        &self,
        table: &ObservationTable,
        resume: Option<CheckpointState>,
    ) -> Result<ParallelCrhResult, MapReduceError> {
        let start = crate::engine::sched_now();
        self.validate()?;

        let k = table.num_sources();
        // Job-setup metadata: losses and per-entry stats.
        let prepared = PreparedProblem::new(table, &HashMap::new())?;
        let property = |entry: u32| table.entry(EntryId(entry)).property;
        // Input tuples (eID, v, sID).
        let claims: Vec<ClaimRecord> = table
            .iter_claims()
            .map(|(e, s, v)| ClaimRecord {
                entry: e.0,
                source: s.0,
                value: v.clone(),
            })
            .collect();

        // ---- Job 1: truth computation, keyed by entry id ----
        let mut truth_job_stats = Vec::new();
        let mut truth_job = |weights: &SideFile<Vec<f64>>| -> Result<_, MapReduceError> {
            let weights = weights.read();
            let (truths, stats) = map_reduce(
                &self.job,
                &claims,
                |rec: &ClaimRecord, emit: &mut dyn FnMut(u32, (u32, Value))| {
                    emit(rec.entry, (rec.source, rec.value.clone()));
                },
                no_combiner::<u32, (u32, Value)>(),
                |&entry: &u32, values: Vec<(u32, Value)>| {
                    let mut obs: Vec<(SourceId, Value)> =
                        values.into_iter().map(|(s, v)| (SourceId(s), v)).collect();
                    obs.sort_by_key(|(s, _)| *s);
                    let stats = &prepared.stats[entry as usize];
                    prepared.loss(property(entry)).fit(&obs, &weights, stats)
                },
            )?;
            truth_job_stats.push(stats);
            Ok(truths.into_iter().map(|(_, t)| t).collect())
        };

        // ---- Job 2: weight assignment, keyed by (property, source) ----
        // The wrapper assembles the (M x K) deviation matrix and normalizes
        // it into the per-source losses that price the truths and feed the
        // next Step I (§2.7.4).
        let mut weight_job_stats = Vec::new();
        let mut weight_job = |truths: &SideFile<Vec<Truth>>| -> Result<_, MapReduceError> {
            let truths = truths.read();
            let (errors, stats) = map_reduce(
                &self.job,
                &claims,
                |rec: &ClaimRecord, emit: &mut dyn FnMut((u32, u32), f64)| {
                    let (e, p) = (rec.entry as usize, property(rec.entry));
                    let err = prepared
                        .loss(p)
                        .loss(&truths[e], &rec.value, &prepared.stats[e]);
                    emit((p.0, rec.source), err);
                },
                // the §2.7.3 Combiner: pre-sum partial errors per mapper
                Some(|_k: &(u32, u32), vs: Vec<f64>| vs.into_iter().sum::<f64>()),
                |_k, vs| vs.into_iter().sum::<f64>(),
            )?;
            weight_job_stats.push(stats);
            let mut dev = vec![vec![0.0f64; k]; table.num_properties()];
            for ((prop, source), err) in errors {
                dev[prop as usize][source as usize] = err;
            }
            Ok(source_losses(
                &dev,
                table.source_counts(),
                self.property_norm,
                self.count_normalize,
            ))
        };

        // Weights side file, "initially … set uniformly": the uncounted
        // first truth job fits at weight 1 for every source. On resume the
        // side files hold exactly the checkpointed iteration's state, and
        // the weight job below re-prices it for the stopping rule.
        let resumed_from = resume.as_ref().map(|s| s.iteration);
        let (start_iter, weights_file, truths_file) = match resume {
            Some(state) => (
                state.iteration + 1,
                SideFile::new(state.weights),
                SideFile::new(state.truths),
            ),
            None => {
                let weights_file = SideFile::new(vec![1.0; k]);
                let truths = truth_job(&weights_file)?;
                (0, weights_file, SideFile::new(truths))
            }
        };
        let mut losses = weight_job(&truths_file)?;
        let mut prev = resumed_from.map(|_| objective(&weights_file.read(), &losses));

        let mut converged = false;
        let mut iterations = start_iter;
        let mut checkpoints_written = 0usize;
        for it in start_iter..self.max_iters {
            iterations = it + 1;
            weights_file.write(self.assigner.assign(&losses));
            truths_file.write(truth_job(&weights_file)?);
            losses = weight_job(&truths_file)?;
            let f = objective(&weights_file.read(), &losses);
            converged = prev.replace(f).is_some_and(|p| within_tol(p, f, self.tol));
            if converged {
                break;
            }

            // ---- durable iteration checkpoint ----
            if let Some(ck) = &self.checkpoint {
                if (it + 1) % ck.every == 0 {
                    let state = CheckpointState {
                        iteration: it,
                        weights: weights_file.read().as_ref().clone(),
                        truths: truths_file.read().as_ref().clone(),
                    };
                    save_checkpoint(&ck.path, &state)?;
                    checkpoints_written += 1;
                }
            }
        }

        Ok(ParallelCrhResult {
            truths: TruthTable::new(truths_file.read().as_ref().clone()),
            weights: weights_file.read().as_ref().clone(),
            iterations,
            converged,
            truth_job_stats,
            weight_job_stats,
            wall_time: start.elapsed(),
            checkpoints_written,
            resumed_from,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crh_core::ids::{ObjectId, PropertyId};
    use crh_core::schema::Schema;
    use crh_core::solver::CrhBuilder;
    use crh_core::table::TableBuilder;

    fn lying_source_table(objects: u32) -> ObservationTable {
        let mut schema = Schema::new();
        let t = schema.add_continuous("t");
        let c = schema.add_categorical("c");
        let mut b = TableBuilder::new(schema);
        for i in 0..objects {
            let truth = 50.0 + i as f64;
            b.add(ObjectId(i), t, SourceId(0), Value::Num(truth))
                .unwrap();
            b.add(ObjectId(i), t, SourceId(1), Value::Num(truth + 1.0))
                .unwrap();
            b.add(ObjectId(i), t, SourceId(2), Value::Num(truth + 30.0))
                .unwrap();
            b.add_label(ObjectId(i), c, SourceId(0), "x").unwrap();
            b.add_label(ObjectId(i), c, SourceId(1), "x").unwrap();
            b.add_label(ObjectId(i), c, SourceId(2), "y").unwrap();
        }
        b.build().unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("crh_driver_{}_{name}.ckpt", std::process::id()))
    }

    #[test]
    fn parallel_crh_downweights_liar() {
        let table = lying_source_table(10);
        let res = ParallelCrh::default().run(&table).unwrap();
        assert!(res.weights[0] > res.weights[2], "{:?}", res.weights);
        let c = PropertyId(1);
        let e = table.entry_id(ObjectId(0), c).unwrap();
        assert_eq!(
            res.truths.get(e).point(),
            table.schema().lookup(c, "x").unwrap()
        );
        assert!(res.converged);
    }

    #[test]
    fn matches_sequential_crh_truths() {
        let table = lying_source_table(12);
        let seq = CrhBuilder::new().build().unwrap().run(&table).unwrap();
        let par = ParallelCrh::default().run(&table).unwrap();
        for (e, t) in seq.truths.iter() {
            assert!(
                t.point().matches(&par.truths.get(e).point()),
                "entry {e} differs"
            );
        }
    }

    #[test]
    fn result_independent_of_reducer_count() {
        let table = lying_source_table(8);
        let base = ParallelCrh::default().run(&table).unwrap();
        for reducers in [1, 3, 9] {
            let res = ParallelCrh::default()
                .job_config(JobConfig {
                    num_reducers: reducers,
                    ..JobConfig::default()
                })
                .run(&table)
                .unwrap();
            for (e, t) in base.truths.iter() {
                assert!(t.point().matches(&res.truths.get(e).point()));
            }
        }
    }

    #[test]
    fn stats_recorded_per_iteration() {
        let table = lying_source_table(5);
        let res = ParallelCrh::default().run(&table).unwrap();
        // one truth job and one weight job per iteration, plus the
        // uncounted uniform-weight fit and its pricing
        assert_eq!(res.truth_job_stats.len(), res.iterations + 1);
        assert_eq!(res.weight_job_stats.len(), res.iterations + 1);
        assert!(res.wall_time > Duration::ZERO);
        // truth job shuffles one record per observation
        assert_eq!(
            res.truth_job_stats[0].map_output_records,
            table.num_observations()
        );
    }

    #[test]
    fn combiner_compresses_weight_job_shuffle() {
        let table = lying_source_table(50);
        let res = ParallelCrh::default().run(&table).unwrap();
        let ws = &res.weight_job_stats[0];
        // at most (properties x sources) pairs per mapper survive the combiner
        assert!(ws.shuffled_records <= ws.map_output_records, "{ws:?}");
        assert!(ws.shuffled_records <= 2 * 3 * JobConfig::default().num_mappers);
    }

    #[test]
    fn invalid_configs_rejected() {
        let table = lying_source_table(3);
        assert!(ParallelCrh::default().max_iters(0).run(&table).is_err());
        assert!(ParallelCrh::default()
            .job_config(JobConfig {
                num_reducers: 0,
                ..JobConfig::default()
            })
            .run(&table)
            .is_err());
        assert!(ParallelCrh::default()
            .checkpoint(CheckpointConfig::new("x").every(0))
            .run(&table)
            .is_err());
    }

    #[test]
    fn checkpoints_are_written_and_loadable() {
        let table = lying_source_table(6);
        let path = tmp("writes");
        let res = ParallelCrh::default()
            .checkpoint(CheckpointConfig::new(&path))
            .run(&table)
            .unwrap();
        assert!(res.checkpoints_written >= 1);
        assert!(path.exists());
        let state = load_checkpoint(&path).unwrap();
        assert_eq!(state.weights.len(), table.num_sources());
        assert_eq!(state.truths.len(), table.num_entries());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_is_bit_identical_to_uninterrupted_run() {
        let table = lying_source_table(9);
        let path = tmp("resume");

        // uninterrupted reference run
        let full = ParallelCrh::default().run(&table).unwrap();

        // interrupted run: stop after iteration 0's checkpoint, resume
        let first = ParallelCrh::default()
            .max_iters(1)
            .checkpoint(CheckpointConfig::new(&path))
            .run(&table)
            .unwrap();
        assert_eq!(first.checkpoints_written, 1);
        let resumed = ParallelCrh::default()
            .resume_from_checkpoint(&table, &path)
            .unwrap();
        assert_eq!(resumed.resumed_from, Some(0));

        assert_eq!(resumed.iterations, full.iterations);
        assert_eq!(resumed.converged, full.converged);
        for (w1, w2) in full.weights.iter().zip(&resumed.weights) {
            assert_eq!(w1.to_bits(), w2.to_bits(), "weights must be bit-identical");
        }
        for (e, t) in full.truths.iter() {
            assert_eq!(t, resumed.truths.get(e), "entry {e}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_table() {
        let table = lying_source_table(5);
        let other = lying_source_table(7);
        let path = tmp("mismatch");
        ParallelCrh::default()
            .max_iters(1)
            .checkpoint(CheckpointConfig::new(&path))
            .run(&table)
            .unwrap();
        let err = ParallelCrh::default()
            .resume_from_checkpoint(&other, &path)
            .unwrap_err();
        assert!(matches!(err, MapReduceError::Persist(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_corrupt_checkpoint() {
        let table = lying_source_table(4);
        let path = tmp("corrupt");
        ParallelCrh::default()
            .max_iters(1)
            .checkpoint(CheckpointConfig::new(&path))
            .run(&table)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = ParallelCrh::default()
            .resume_from_checkpoint(&table, &path)
            .unwrap_err();
        assert!(
            matches!(
                err,
                MapReduceError::Persist(PersistError::CrcMismatch { .. })
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_1_checkpoint_is_refused() {
        // version 1 stored the weights derived from the truths, not the
        // weights they were fit under; resuming from one would misread it
        let table = lying_source_table(4);
        let path = tmp("v1");
        let state = CheckpointState {
            iteration: 0,
            weights: vec![1.0; table.num_sources()],
            truths: ParallelCrh::default()
                .max_iters(1)
                .run(&table)
                .unwrap()
                .truths
                .iter()
                .map(|(_, t)| t.clone())
                .collect(),
        };
        save_checkpoint(&path, &state).unwrap();
        let (_, payload) = read_frame(&path, CKPT_MAGIC, CKPT_VERSION).unwrap();
        write_frame(&path, CKPT_MAGIC, 1, &payload).unwrap();
        let err = ParallelCrh::default()
            .resume_from_checkpoint(&table, &path)
            .unwrap_err();
        assert!(
            matches!(
                err,
                MapReduceError::Persist(PersistError::UnsupportedVersion(1))
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_every_n_skips_iterations() {
        let table = lying_source_table(6);
        let path = tmp("every");
        let res = ParallelCrh::default()
            .checkpoint(CheckpointConfig::new(&path).every(100))
            .run(&table)
            .unwrap();
        assert_eq!(res.checkpoints_written, 0);
        assert!(!path.exists());
    }
}
