//! The incremental CRH method (Algorithm 2).

use std::collections::HashMap;
use std::path::Path;

use crh_core::error::Result;
use crh_core::par::Pool;
use crh_core::persist::{read_frame, write_frame, Dec, Enc, PersistError};
use crh_core::solver::{
    fit_and_deviations_into, source_losses_mat, PreparedProblem, PropertyNorm, SolverScratch,
};
use crh_core::table::{ObservationTable, TruthTable};
use crh_core::weights::{LogMax, WeightAssigner};

use crate::error::StreamError;

/// Configuration for incremental CRH.
pub struct ICrh {
    alpha: f64,
    assigner: Box<dyn WeightAssigner>,
    property_norm: PropertyNorm,
    count_normalize: bool,
    threads: usize,
}

impl std::fmt::Debug for ICrh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ICrh")
            .field("alpha", &self.alpha)
            .field("assigner", &self.assigner.name())
            .finish()
    }
}

impl ICrh {
    /// Build with decay rate `α ∈ \[0, 1\]` and the paper's defaults
    /// elsewhere (log-max weights, per-property normalization, per-source
    /// count normalization).
    pub fn new(alpha: f64) -> std::result::Result<Self, StreamError> {
        if !(0.0..=1.0).contains(&alpha) || alpha.is_nan() {
            return Err(StreamError::InvalidAlpha { got: alpha });
        }
        Ok(Self {
            alpha,
            assigner: Box::new(LogMax),
            property_norm: PropertyNorm::SumToOne,
            count_normalize: true,
            threads: 0,
        })
    }

    /// Kernel thread count for the per-chunk fit/deviation pass: `0`
    /// (default) = available parallelism, `1` = the exact sequential path.
    /// Results are bit-identical for every value.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Replace the weight-assignment scheme.
    pub fn weight_assigner(mut self, a: impl WeightAssigner + 'static) -> Self {
        self.assigner = Box::new(a);
        self
    }

    /// Replace the cross-property normalization.
    pub fn property_norm(mut self, norm: PropertyNorm) -> Self {
        self.property_norm = norm;
        self
    }

    /// Enable/disable per-source count normalization of chunk deviations.
    pub fn count_normalize(mut self, on: bool) -> Self {
        self.count_normalize = on;
        self
    }

    /// Begin a streaming session (Algorithm 2 line 1: `w_k = 1`, `a_k = 0`).
    pub fn start(self) -> ICrhState {
        let pool = Pool::new(self.threads);
        ICrhState {
            cfg: self,
            weights: Vec::new(),
            accumulated: Vec::new(),
            chunks_seen: 0,
            pool,
            scratch: SolverScratch::new(0, 0, 0),
        }
    }

    /// Convenience: run the whole stream and collect per-chunk results.
    pub fn run_stream<'a, I>(self, chunks: I) -> Result<StreamResult>
    where
        I: IntoIterator<Item = &'a ObservationTable>,
    {
        let mut state = self.start();
        let mut truths = Vec::new();
        let mut weight_history = Vec::new();
        for chunk in chunks {
            truths.push(state.process_chunk(chunk)?);
            weight_history.push(state.weights().to_vec());
        }
        Ok(StreamResult {
            truths_per_chunk: truths,
            weight_history,
            final_weights: state.weights().to_vec(),
        })
    }
}

/// Live state of an I-CRH session: current weights and decayed accumulated
/// distances per source.
pub struct ICrhState {
    cfg: ICrh,
    weights: Vec<f64>,
    accumulated: Vec<f64>,
    chunks_seen: usize,
    pool: Pool,
    scratch: SolverScratch,
}

impl std::fmt::Debug for ICrhState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ICrhState")
            .field("chunks_seen", &self.chunks_seen)
            .field("weights", &self.weights)
            .finish()
    }
}

/// A serializable snapshot of an I-CRH session, for checkpoint/resume in
/// long-running streaming deployments.
#[derive(Debug, Clone, PartialEq)]
pub struct ICrhCheckpoint {
    /// Current source weights.
    pub weights: Vec<f64>,
    /// Decayed accumulated distances `a_k`.
    pub accumulated: Vec<f64>,
    /// Chunks processed so far.
    pub chunks_seen: usize,
}

/// Magic bytes of a durable I-CRH checkpoint frame.
const STREAM_CKPT_MAGIC: [u8; 4] = *b"CRHS";
/// Current durable checkpoint format version.
const STREAM_CKPT_VERSION: u32 = 1;

impl ICrhCheckpoint {
    /// Internal consistency checks shared by [`resume`](ICrhState::resume)
    /// and [`load`](Self::load).
    pub fn validate(&self) -> std::result::Result<(), StreamError> {
        if self.weights.len() != self.accumulated.len() {
            return Err(StreamError::CheckpointMismatch {
                weights: self.weights.len(),
                accumulated: self.accumulated.len(),
            });
        }
        if self
            .weights
            .iter()
            .chain(&self.accumulated)
            .any(|x| !x.is_finite())
        {
            return Err(StreamError::NonFiniteCheckpoint);
        }
        Ok(())
    }

    /// Persist the checkpoint durably: CRC-framed, `f64` bits exact,
    /// written to a temp file and atomically renamed into place so a
    /// crash mid-write never leaves a torn checkpoint behind.
    pub fn save(&self, path: impl AsRef<Path>) -> std::result::Result<(), StreamError> {
        let mut e = Enc::new();
        e.u64(self.chunks_seen as u64);
        e.f64s(&self.weights);
        e.f64s(&self.accumulated);
        write_frame(
            path.as_ref(),
            STREAM_CKPT_MAGIC,
            STREAM_CKPT_VERSION,
            &e.into_bytes(),
        )?;
        Ok(())
    }

    /// Load a checkpoint written by [`save`](Self::save). The frame's
    /// magic, version, and CRC are verified before decoding; truncated or
    /// corrupted files are rejected with a typed error, as are frames
    /// whose decoded state is internally inconsistent.
    pub fn load(path: impl AsRef<Path>) -> std::result::Result<Self, StreamError> {
        let (_version, payload) =
            read_frame(path.as_ref(), STREAM_CKPT_MAGIC, STREAM_CKPT_VERSION)?;
        let mut d = Dec::new(&payload);
        let chunks_seen = d.u64()? as usize;
        let weights = d.f64s()?;
        let accumulated = d.f64s()?;
        if !d.is_exhausted() {
            return Err(StreamError::Persist(PersistError::Malformed(
                "trailing bytes after stream checkpoint",
            )));
        }
        let ckpt = Self {
            weights,
            accumulated,
            chunks_seen,
        };
        ckpt.validate()?;
        Ok(ckpt)
    }
}

impl ICrhState {
    /// Snapshot the session for persistence.
    pub fn checkpoint(&self) -> ICrhCheckpoint {
        ICrhCheckpoint {
            weights: self.weights.clone(),
            accumulated: self.accumulated.clone(),
            chunks_seen: self.chunks_seen,
        }
    }

    /// Resume a session from a checkpoint, continuing the stream where the
    /// snapshotted session left off.
    pub fn resume(cfg: ICrh, ckpt: ICrhCheckpoint) -> std::result::Result<Self, StreamError> {
        ckpt.validate()?;
        let pool = Pool::new(cfg.threads);
        Ok(Self {
            cfg,
            weights: ckpt.weights,
            accumulated: ckpt.accumulated,
            chunks_seen: ckpt.chunks_seen,
            pool,
            scratch: SolverScratch::new(0, 0, 0),
        })
    }

    /// Process one chunk (Algorithm 2 lines 3-5): compute the chunk's truths
    /// with the current weights, fold the chunk's (normalized) deviations
    /// into the accumulated distances with decay `α`, refresh the weights.
    ///
    /// Sources unseen so far join with weight 1 and zero accumulated
    /// distance. One pass, no iteration — this is what makes I-CRH "run
    /// much faster" than CRH (§3.3).
    pub fn process_chunk(&mut self, chunk: &ObservationTable) -> Result<TruthTable> {
        let k = chunk.num_sources().max(self.weights.len());
        self.weights.resize(k, 1.0);
        self.accumulated.resize(k, 0.0);

        let prepared = PreparedProblem::new(chunk, &HashMap::new())?;

        // Lines 3-4 fused: one entry-sharded sweep fits the chunk's truths
        // under the current weights and accumulates their deviations.
        let mut truths = TruthTable::new(Vec::new());
        fit_and_deviations_into(
            &prepared,
            &self.weights,
            &self.pool,
            &mut truths,
            &mut self.scratch,
        );
        let chunk_losses = source_losses_mat(
            self.scratch.dev(),
            chunk.source_counts(),
            self.cfg.property_norm,
            self.cfg.count_normalize,
        );
        for (s, acc) in self.accumulated.iter_mut().enumerate() {
            let l = chunk_losses.get(s).copied().unwrap_or(0.0);
            *acc = *acc * self.cfg.alpha + l;
        }

        // Line 5: weights from accumulated distances.
        self.weights = self.cfg.assigner.assign(&self.accumulated);
        self.chunks_seen += 1;
        Ok(truths)
    }

    /// The current source weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The decayed accumulated distances `a_k`.
    pub fn accumulated_distances(&self) -> &[f64] {
        &self.accumulated
    }

    /// Number of chunks processed.
    pub fn chunks_seen(&self) -> usize {
        self.chunks_seen
    }
}

/// Result of running a whole stream through [`ICrh::run_stream`].
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// The per-chunk truth tables (parallel to each chunk's entries).
    pub truths_per_chunk: Vec<TruthTable>,
    /// Source weights after each chunk (Fig 4a's series).
    pub weight_history: Vec<Vec<f64>>,
    /// Weights after the final chunk.
    pub final_weights: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crh_core::ids::{ObjectId, PropertyId, SourceId};
    use crh_core::schema::Schema;
    use crh_core::table::TableBuilder;
    use crh_core::value::Value;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_continuous("t");
        s.add_categorical("c");
        s
    }

    /// A chunk where source 2 lies on everything.
    fn chunk(day: u32, objects: u32) -> ObservationTable {
        let mut b = TableBuilder::new(schema());
        let t = PropertyId(0);
        let c = PropertyId(1);
        for i in 0..objects {
            let o = ObjectId(day * objects + i);
            let truth = 50.0 + (day * objects + i) as f64;
            b.add(o, t, SourceId(0), Value::Num(truth)).unwrap();
            b.add(o, t, SourceId(1), Value::Num(truth + 1.0)).unwrap();
            b.add(o, t, SourceId(2), Value::Num(truth + 30.0)).unwrap();
            b.add_label(o, c, SourceId(0), "x").unwrap();
            b.add_label(o, c, SourceId(1), "x").unwrap();
            b.add_label(o, c, SourceId(2), "y").unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn alpha_validation() {
        assert!(ICrh::new(-0.1).is_err());
        assert!(ICrh::new(1.1).is_err());
        assert!(ICrh::new(f64::NAN).is_err());
        assert!(ICrh::new(0.0).is_ok());
        assert!(ICrh::new(1.0).is_ok());
    }

    #[test]
    fn liar_weight_decays_over_chunks() {
        let chunks: Vec<_> = (0..6).map(|d| chunk(d, 5)).collect();
        let mut state = ICrh::new(0.5).unwrap().start();
        let mut seen = Vec::new();
        for c in &chunks {
            state.process_chunk(c).unwrap();
            seen.push(state.weights().to_vec());
        }
        let w = state.weights();
        assert!(w[0] > w[2], "{w:?}");
        assert!(w[1] > w[2], "{w:?}");
        assert_eq!(state.chunks_seen(), 6);
        let res = ICrh::new(0.5).unwrap().run_stream(chunks.iter()).unwrap();
        assert_eq!(res.weight_history, seen);
    }

    #[test]
    fn first_chunk_truths_use_uniform_weights() {
        // with w = 1 everywhere the first chunk is voting/median
        let mut state = ICrh::new(0.5).unwrap().start();
        let ch = chunk(0, 5);
        let truths = state.process_chunk(&ch).unwrap();
        let t = PropertyId(0);
        let e = ch.entry_id(ObjectId(0), t).unwrap();
        // median of {50, 51, 80} = 51
        assert_eq!(truths.get(e).as_num(), Some(51.0));
    }

    #[test]
    fn later_chunks_benefit_from_learned_weights() {
        let mut state = ICrh::new(0.5).unwrap().start();
        state.process_chunk(&chunk(0, 5)).unwrap();
        let ch = chunk(1, 5);
        let truths = state.process_chunk(&ch).unwrap();
        let c = PropertyId(1);
        let e = ch.entry_id(ObjectId(5), c).unwrap();
        let x = ch.schema().lookup(c, "x").unwrap();
        assert_eq!(truths.get(e).point(), x);
    }

    #[test]
    fn alpha_zero_forgets_history() {
        // with α = 0 the accumulated distance is exactly the last chunk's
        let mut s0 = ICrh::new(0.0).unwrap().start();
        s0.process_chunk(&chunk(0, 5)).unwrap();
        let after_first = s0.accumulated_distances().to_vec();
        s0.process_chunk(&chunk(1, 5)).unwrap();
        let after_second = s0.accumulated_distances().to_vec();
        // α=0: acc after second chunk is independent of the first chunk
        let mut fresh = ICrh::new(0.0).unwrap().start();
        fresh.process_chunk(&chunk(0, 5)).unwrap(); // align weights
        let _ = after_first;
        // process chunk 1 with the same incoming weights
        fresh.process_chunk(&chunk(1, 5)).unwrap();
        assert_eq!(after_second, fresh.accumulated_distances());
    }

    #[test]
    fn alpha_one_accumulates_everything() {
        let mut s = ICrh::new(1.0).unwrap().start();
        s.process_chunk(&chunk(0, 5)).unwrap();
        let a1 = s.accumulated_distances()[2];
        s.process_chunk(&chunk(1, 5)).unwrap();
        let a2 = s.accumulated_distances()[2];
        assert!(a2 > a1, "with α=1 distances only grow: {a1} -> {a2}");
    }

    #[test]
    fn new_sources_join_midstream() {
        let mut state = ICrh::new(0.5).unwrap().start();
        state.process_chunk(&chunk(0, 5)).unwrap();
        assert_eq!(state.weights().len(), 3);
        // a chunk with a 4th source
        let mut b = TableBuilder::new(schema());
        let t = PropertyId(0);
        for i in 0..5u32 {
            let o = ObjectId(100 + i);
            b.add(o, t, SourceId(0), Value::Num(1.0)).unwrap();
            b.add(o, t, SourceId(3), Value::Num(1.0)).unwrap();
        }
        state.process_chunk(&b.build().unwrap()).unwrap();
        assert_eq!(state.weights().len(), 4);
        assert!(state.weights()[3].is_finite());
    }

    #[test]
    fn run_stream_collects_everything() {
        let chunks: Vec<_> = (0..4).map(|d| chunk(d, 3)).collect();
        let res = ICrh::new(0.5).unwrap().run_stream(chunks.iter()).unwrap();
        assert_eq!(res.truths_per_chunk.len(), 4);
        assert_eq!(res.weight_history.len(), 4);
        assert_eq!(res.final_weights.len(), 3);
        assert_eq!(res.final_weights, *res.weight_history.last().unwrap());
    }

    #[test]
    fn checkpoint_resume_continues_identically() {
        // run 4 chunks straight through
        let chunks: Vec<_> = (0..4).map(|d| chunk(d, 5)).collect();
        let mut full = ICrh::new(0.5).unwrap().start();
        for c in &chunks {
            full.process_chunk(c).unwrap();
        }
        // run 2 chunks, checkpoint, resume, run the remaining 2
        let mut first = ICrh::new(0.5).unwrap().start();
        first.process_chunk(&chunks[0]).unwrap();
        first.process_chunk(&chunks[1]).unwrap();
        let ckpt = first.checkpoint();
        let mut resumed = ICrhState::resume(ICrh::new(0.5).unwrap(), ckpt).unwrap();
        resumed.process_chunk(&chunks[2]).unwrap();
        resumed.process_chunk(&chunks[3]).unwrap();
        assert_eq!(full.weights(), resumed.weights());
        assert_eq!(
            full.accumulated_distances(),
            resumed.accumulated_distances()
        );
        assert_eq!(resumed.chunks_seen(), 4);
    }

    #[test]
    fn resume_validates_checkpoint() {
        let bad = ICrhCheckpoint {
            weights: vec![1.0, 2.0],
            accumulated: vec![0.0],
            chunks_seen: 1,
        };
        let err = ICrhState::resume(ICrh::new(0.5).unwrap(), bad).unwrap_err();
        assert!(
            matches!(err, StreamError::CheckpointMismatch { .. }),
            "{err}"
        );
        let nan = ICrhCheckpoint {
            weights: vec![f64::NAN],
            accumulated: vec![0.0],
            chunks_seen: 1,
        };
        let err = ICrhState::resume(ICrh::new(0.5).unwrap(), nan).unwrap_err();
        assert!(matches!(err, StreamError::NonFiniteCheckpoint), "{err}");
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("crh_stream_{}_{name}.ckpt", std::process::id()))
    }

    #[test]
    fn durable_checkpoint_roundtrips_bit_exact() {
        let mut state = ICrh::new(0.5).unwrap().start();
        for day in 0..3 {
            state.process_chunk(&chunk(day, 5)).unwrap();
        }
        let ckpt = state.checkpoint();
        let path = tmp("roundtrip");
        ckpt.save(&path).unwrap();
        let loaded = ICrhCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        for (a, b) in ckpt.weights.iter().zip(&loaded.weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn durable_resume_continues_identically() {
        let chunks: Vec<_> = (0..4).map(|d| chunk(d, 5)).collect();
        let mut full = ICrh::new(0.5).unwrap().start();
        for c in &chunks {
            full.process_chunk(c).unwrap();
        }
        let path = tmp("resume");
        let mut first = ICrh::new(0.5).unwrap().start();
        first.process_chunk(&chunks[0]).unwrap();
        first.process_chunk(&chunks[1]).unwrap();
        first.checkpoint().save(&path).unwrap();
        drop(first); // the process "dies" here

        let loaded = ICrhCheckpoint::load(&path).unwrap();
        let mut resumed = ICrhState::resume(ICrh::new(0.5).unwrap(), loaded).unwrap();
        resumed.process_chunk(&chunks[2]).unwrap();
        resumed.process_chunk(&chunks[3]).unwrap();
        assert_eq!(full.weights(), resumed.weights());
        assert_eq!(
            full.accumulated_distances(),
            resumed.accumulated_distances()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_truncated_file() {
        let path = tmp("truncated");
        let ckpt = ICrhCheckpoint {
            weights: vec![1.0, 2.0],
            accumulated: vec![0.5, 0.25],
            chunks_seen: 7,
        };
        ckpt.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = ICrhCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, StreamError::Persist(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_corrupted_payload() {
        let path = tmp("corrupt");
        let ckpt = ICrhCheckpoint {
            weights: vec![1.0, 2.0],
            accumulated: vec![0.5, 0.25],
            chunks_seen: 7,
        };
        ckpt.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = ICrhCheckpoint::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::Persist(crh_core::persist::PersistError::CrcMismatch { .. })
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_wrong_magic() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTACHECKPOINTFILE______________").unwrap();
        let err = ICrhCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, StreamError::Persist(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_trailing_garbage_and_duplicated_frames() {
        let path = tmp("dupframe");
        let ckpt = ICrhCheckpoint {
            weights: vec![1.0, 0.5],
            accumulated: vec![0.1, 0.9],
            chunks_seen: 3,
        };
        ckpt.save(&path).unwrap();
        let frame = std::fs::read(&path).unwrap();
        // duplicated frame: the whole file written twice
        let mut doubled = frame.clone();
        doubled.extend_from_slice(&frame);
        std::fs::write(&path, &doubled).unwrap();
        let err = ICrhCheckpoint::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::Persist(PersistError::TrailingGarbage { .. })
            ),
            "{err}"
        );
        // one stray trailing byte
        let mut one_more = frame.clone();
        one_more.push(0xAB);
        std::fs::write(&path, &one_more).unwrap();
        let err = ICrhCheckpoint::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::Persist(PersistError::TrailingGarbage { extra: 1 })
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeded_corruption_never_panics_and_always_types() {
        use crh_core::rng::{Pcg64, Rng};
        let path = tmp("seeded_corruption");
        let mut state = ICrh::new(0.7).unwrap().start();
        for day in 0..4 {
            state.process_chunk(&chunk(day, 6)).unwrap();
        }
        let ckpt = state.checkpoint();
        for seed in 0..32u64 {
            let mut rng = Pcg64::seed_from_u64(seed);
            ckpt.save(&path).unwrap();
            let pristine = std::fs::read(&path).unwrap();
            let corrupted = match seed % 3 {
                // truncate at a seeded offset (torn write)
                0 => {
                    let cut = 1 + (rng.next_u64() as usize) % (pristine.len() - 1);
                    pristine[..cut].to_vec()
                }
                // flip one seeded byte (bit rot)
                1 => {
                    let mut b = pristine.clone();
                    let at = (rng.next_u64() as usize) % b.len();
                    let mask = (rng.next_u64() as u8).max(1);
                    b[at] ^= mask;
                    b
                }
                // duplicate a seeded-length suffix (double write)
                _ => {
                    let mut b = pristine.clone();
                    let n = 1 + (rng.next_u64() as usize) % pristine.len();
                    let tail = pristine[pristine.len() - n..].to_vec();
                    b.extend_from_slice(&tail);
                    b
                }
            };
            std::fs::write(&path, &corrupted).unwrap();
            match ICrhCheckpoint::load(&path) {
                Err(_) => {} // a typed error is exactly what we want
                Ok(loaded) => {
                    // a byte flip can, rarely, cancel in the CRC; but it must
                    // then decode to a structurally valid checkpoint
                    assert!(
                        loaded.validate().is_ok(),
                        "seed {seed}: corrupted checkpoint loaded but is invalid"
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn alpha_edge_cases_are_typed_and_usable() {
        // NaN and out-of-range values surface the typed variant
        for bad in [f64::NAN, -0.0001, 1.0001, f64::INFINITY] {
            let err = ICrh::new(bad).unwrap_err();
            assert!(matches!(err, StreamError::InvalidAlpha { .. }), "{bad}");
        }
        // the boundary values are valid and produce finite weights
        for alpha in [0.0, 1.0] {
            let mut s = ICrh::new(alpha).unwrap().start();
            for day in 0..3 {
                s.process_chunk(&chunk(day, 4)).unwrap();
            }
            assert!(
                s.weights().iter().all(|w| w.is_finite()),
                "alpha {alpha}: {:?}",
                s.weights()
            );
            assert!(s.accumulated_distances().iter().all(|a| a.is_finite()));
        }
    }

    #[test]
    fn single_pass_is_deterministic() {
        let chunks: Vec<_> = (0..3).map(|d| chunk(d, 4)).collect();
        let r1 = ICrh::new(0.3).unwrap().run_stream(chunks.iter()).unwrap();
        let r2 = ICrh::new(0.3).unwrap().run_stream(chunks.iter()).unwrap();
        assert_eq!(r1.final_weights, r2.final_weights);
    }
}
