//! Stepwise solver sessions: Eq (2) and Eq (3) as separately drivable steps.
//!
//! [`Crh::run`](crate::solver::Crh::run) owns the whole loop; a
//! [`CrhSession`] instead exposes the two coordinate-descent steps so
//! callers can interleave their own logic — inspect weights between
//! iterations, stop on custom criteria, anneal the weight scheme, or warm
//! start from weights learned elsewhere (e.g. an I-CRH stream).

use std::collections::HashMap;
use std::sync::Arc;

use crate::cancel::CancelToken;
use crate::error::{CrhError, Result};
use crate::ids::PropertyId;
use crate::loss::Loss;
use crate::par::Pool;
use crate::solver::{
    deviation_matrix, deviation_matrix_into, fit_all_into, fit_and_deviations_into, fit_kernel,
    objective, source_losses, source_losses_mat, within_tol, KernelWeights, PreparedProblem,
    PropertyNorm, SolverScratch,
};
use crate::table::{ObservationTable, TruthTable};
use crate::weights::{LogMax, WeightAssigner};

/// A stateful CRH solving session over one table.
pub struct CrhSession<'t> {
    prepared: PreparedProblem<'t>,
    assigner: Box<dyn WeightAssigner>,
    property_norm: PropertyNorm,
    count_normalize: bool,
    weights: Vec<f64>,
    truths: TruthTable,
    iterations: usize,
    pool: Pool,
    scratch: SolverScratch,
}

impl std::fmt::Debug for CrhSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrhSession")
            .field("iterations", &self.iterations)
            .field("weights", &self.weights)
            .finish()
    }
}

impl<'t> CrhSession<'t> {
    /// Open a session with the paper's default losses and log-max weights.
    /// Truths start at the uniform-weight fit (Voting/Averaging, §2.5).
    pub fn new(table: &'t ObservationTable) -> Result<Self> {
        Self::with_losses(table, &HashMap::new())
    }

    /// Open a session with per-property loss overrides.
    pub fn with_losses(
        table: &'t ObservationTable,
        overrides: &HashMap<PropertyId, Arc<dyn Loss>>,
    ) -> Result<Self> {
        let prepared = PreparedProblem::new(table, overrides)?;
        let weights = vec![1.0; table.num_sources()];
        let pool = Pool::default();
        let mut truths = TruthTable::new(Vec::new());
        fit_all_into(&prepared, &weights, &pool, &mut truths);
        let scratch = SolverScratch::for_table(table);
        Ok(Self {
            prepared,
            assigner: Box::new(LogMax),
            property_norm: PropertyNorm::SumToOne,
            count_normalize: true,
            weights,
            truths,
            iterations: 0,
            pool,
            scratch,
        })
    }

    /// Set the kernel thread count: `0` = available parallelism, `1` = the
    /// exact sequential path. The knob trades wall clock only — results are
    /// bit-identical for every value.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = Pool::new(threads);
    }

    /// Replace the weight assigner (may be called between steps).
    pub fn set_weight_assigner(&mut self, a: impl WeightAssigner + 'static) {
        self.assigner = Box::new(a);
    }

    /// Warm-start the weights (e.g. from a previous run or an I-CRH stream).
    pub fn set_weights(&mut self, weights: Vec<f64>) {
        assert_eq!(
            weights.len(),
            self.prepared.table.num_sources(),
            "weight vector must cover every source"
        );
        self.weights = weights;
    }

    /// Step I (Eq 2): refresh the weights from the current truths.
    /// Returns the per-source (normalized) losses the weights were derived
    /// from.
    pub fn step_weights(&mut self) -> Vec<f64> {
        deviation_matrix_into(&self.prepared, &self.truths, &self.pool, &mut self.scratch);
        let losses = source_losses_mat(
            self.scratch.dev(),
            self.prepared.table.source_counts(),
            self.property_norm,
            self.count_normalize,
        );
        self.weights = self.assigner.assign(&losses);
        losses
    }

    /// Step II (Eq 3): refresh every entry's truth from the current weights.
    pub fn step_truths(&mut self) {
        fit_kernel(
            &self.prepared,
            &KernelWeights::Shared(&self.weights),
            &self.pool,
            &mut self.truths,
            &mut self.scratch.fit,
        );
        self.iterations += 1;
    }

    /// One full iteration (Step I then Step II); returns the objective
    /// value after the iteration.
    pub fn step(&mut self) -> f64 {
        self.step_weights();
        self.step_truths();
        self.objective()
    }

    /// Run until the relative objective decrease falls below `tol` or
    /// `max_iters` full iterations have been performed. Returns the final
    /// objective. The first iteration's decrease is measured against the
    /// objective of the state the session starts from.
    ///
    /// A NaN or negative tolerance is rejected with
    /// [`CrhError::InvalidParameter`] — it would make the convergence
    /// comparison unconditionally false and silently burn the full
    /// iteration budget on every call.
    pub fn run_to_convergence(&mut self, tol: f64, max_iters: usize) -> Result<f64> {
        self.run_to_convergence_with(tol, max_iters, &CancelToken::new())
    }

    /// [`run_to_convergence`](Self::run_to_convergence) with cooperative
    /// cancellation: the token is polled before every iteration, and a
    /// tripped token (explicit cancel or expired deadline) stops the solve
    /// with [`CrhError::Cancelled`], leaving the session's partial state
    /// intact and reusable.
    ///
    /// The loop is fused the same way as [`Crh::run`](crate::solver::Crh::run):
    /// each iteration performs one fit + deviation sweep, and the losses
    /// that price the convergence check feed the next iteration's weight
    /// update. Results are identical to driving [`step`](Self::step) in a
    /// loop (pinned by test); only the redundant second deviation pass per
    /// iteration is gone.
    pub fn run_to_convergence_with(
        &mut self,
        tol: f64,
        max_iters: usize,
        cancel: &CancelToken,
    ) -> Result<f64> {
        if tol.is_nan() || tol < 0.0 {
            return Err(CrhError::InvalidParameter(format!(
                "convergence tolerance must be >= 0, got {tol}"
            )));
        }
        // Price the current truths once — the initial objective and the
        // first iteration's Step-I input.
        deviation_matrix_into(&self.prepared, &self.truths, &self.pool, &mut self.scratch);
        let mut losses = source_losses_mat(
            self.scratch.dev(),
            self.prepared.table.source_counts(),
            self.property_norm,
            self.count_normalize,
        );
        let mut f = objective(&self.weights, &losses);
        for _ in 0..max_iters {
            if cancel.is_cancelled() {
                return Err(CrhError::Cancelled);
            }
            // Step I from the carried deviations.
            self.weights = self.assigner.assign(&losses);
            // Step II fused with the deviation pass for the next check.
            fit_and_deviations_into(
                &self.prepared,
                &self.weights,
                &self.pool,
                &mut self.truths,
                &mut self.scratch,
            );
            self.iterations += 1;
            losses = source_losses_mat(
                self.scratch.dev(),
                self.prepared.table.source_counts(),
                self.property_norm,
                self.count_normalize,
            );
            let prev = std::mem::replace(&mut f, objective(&self.weights, &losses));
            if within_tol(prev, f, tol) {
                break;
            }
        }
        Ok(f)
    }

    /// The current objective `Σ_k w_k L_k` under the session's
    /// normalization settings.
    pub fn objective(&self) -> f64 {
        let dev = deviation_matrix(&self.prepared, &self.truths);
        let losses = source_losses(
            &dev,
            self.prepared.table.source_counts(),
            self.property_norm,
            self.count_normalize,
        );
        objective(&self.weights, &losses)
    }

    /// Current source weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Current truth estimates.
    pub fn truths(&self) -> &TruthTable {
        &self.truths
    }

    /// Full iterations performed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Finish the session, yielding the truths and weights.
    pub fn finish(self) -> (TruthTable, Vec<f64>) {
        (self.truths, self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, PropertyId, SourceId};
    use crate::schema::Schema;
    use crate::solver::CrhBuilder;
    use crate::table::TableBuilder;
    use crate::value::Value;
    use crate::weights::TopJ;

    fn table() -> ObservationTable {
        let mut schema = Schema::new();
        let t = schema.add_continuous("t");
        let c = schema.add_categorical("c");
        let mut b = TableBuilder::new(schema);
        for i in 0..8u32 {
            let truth = 10.0 + i as f64;
            b.add(ObjectId(i), t, SourceId(0), Value::Num(truth))
                .unwrap();
            b.add(ObjectId(i), t, SourceId(1), Value::Num(truth + 0.5))
                .unwrap();
            b.add(ObjectId(i), t, SourceId(2), Value::Num(truth + 9.0))
                .unwrap();
            b.add_label(ObjectId(i), c, SourceId(0), "a").unwrap();
            b.add_label(ObjectId(i), c, SourceId(1), "a").unwrap();
            b.add_label(ObjectId(i), c, SourceId(2), "b").unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn stepping_matches_batch_solver() {
        let tab = table();
        let mut session = CrhSession::new(&tab).unwrap();
        session.run_to_convergence(1e-6, 100).unwrap();
        let batch = CrhBuilder::new().build().unwrap().run(&tab).unwrap();
        for (a, b) in session.weights().iter().zip(&batch.weights) {
            assert!(
                (a - b).abs() < 1e-9,
                "{:?} vs {:?}",
                session.weights(),
                batch.weights
            );
        }
        for (e, t) in batch.truths.iter() {
            assert!(t.point().matches(&session.truths().get(e).point()));
        }
    }

    #[test]
    fn fused_convergence_loop_matches_manual_stepping() {
        // run_to_convergence's fused loop must be indistinguishable from
        // driving step() by hand with the same stopping rule.
        let tab = table();
        let mut fused = CrhSession::new(&tab).unwrap();
        let f_fused = fused.run_to_convergence(1e-8, 50).unwrap();

        let mut manual = CrhSession::new(&tab).unwrap();
        let mut f_manual = manual.objective();
        for _ in 0..50 {
            let prev = std::mem::replace(&mut f_manual, manual.step());
            if within_tol(prev, f_manual, 1e-8) {
                break;
            }
        }

        assert_eq!(fused.iterations(), manual.iterations());
        assert_eq!(f_fused.to_bits(), f_manual.to_bits());
        let fw: Vec<u64> = fused.weights().iter().map(|w| w.to_bits()).collect();
        let mw: Vec<u64> = manual.weights().iter().map(|w| w.to_bits()).collect();
        assert_eq!(fw, mw);
        for (e, t) in manual.truths().iter() {
            assert_eq!(t, fused.truths().get(e));
        }
    }

    #[test]
    fn initial_truths_are_uniform_fit() {
        let tab = table();
        let session = CrhSession::new(&tab).unwrap();
        let e = tab.entry_id(ObjectId(0), PropertyId(0)).unwrap();
        // median of {10, 10.5, 19} = 10.5
        assert_eq!(session.truths().get(e).as_num(), Some(10.5));
        assert_eq!(session.iterations(), 0);
    }

    #[test]
    fn step_weights_returns_losses() {
        let tab = table();
        let mut session = CrhSession::new(&tab).unwrap();
        let losses = session.step_weights();
        assert_eq!(losses.len(), 3);
        assert!(losses[2] > losses[0], "liar must lose more: {losses:?}");
        assert!(session.weights()[0] > session.weights()[2]);
    }

    #[test]
    fn objective_decreases_across_steps() {
        let tab = table();
        let mut session = CrhSession::new(&tab).unwrap();
        let f1 = session.step();
        let f2 = session.step();
        assert!(f2 <= f1 + 1e-9, "{f1} -> {f2}");
        assert_eq!(session.iterations(), 2);
    }

    #[test]
    fn warm_start_and_scheme_swap() {
        let tab = table();
        let mut session = CrhSession::new(&tab).unwrap();
        session.set_weights(vec![10.0, 0.1, 0.1]);
        session.step_truths();
        let e = tab.entry_id(ObjectId(0), PropertyId(0)).unwrap();
        // dominated by source 0's claim
        assert_eq!(session.truths().get(e).as_num(), Some(10.0));

        session.set_weight_assigner(TopJ::new(1).unwrap());
        session.step_weights();
        assert_eq!(
            session.weights().iter().filter(|&&w| w > 0.0).count(),
            1,
            "top-1 selection after the swap"
        );
    }

    #[test]
    #[should_panic(expected = "weight vector must cover every source")]
    fn set_weights_validates_length() {
        let tab = table();
        let mut session = CrhSession::new(&tab).unwrap();
        session.set_weights(vec![1.0]);
    }

    #[test]
    fn finish_yields_state() {
        let tab = table();
        let mut session = CrhSession::new(&tab).unwrap();
        session.run_to_convergence(1e-6, 10).unwrap();
        let (truths, weights) = session.finish();
        assert_eq!(truths.len(), tab.num_entries());
        assert_eq!(weights.len(), 3);
    }

    #[test]
    fn non_finite_tolerance_is_rejected() {
        let tab = table();
        let mut session = CrhSession::new(&tab).unwrap();
        for bad in [f64::NAN, -1e-6, f64::NEG_INFINITY] {
            let err = session.run_to_convergence(bad, 10).unwrap_err();
            assert!(
                matches!(err, CrhError::InvalidParameter(_)),
                "tol {bad}: {err}"
            );
        }
        // the session stays usable after a rejected call
        assert!(session.run_to_convergence(1e-6, 10).is_ok());
        // +inf tolerance is degenerate but well-defined: stop after one step
        let mut fresh = CrhSession::new(&tab).unwrap();
        assert!(fresh.run_to_convergence(f64::INFINITY, 10).is_ok());
        assert_eq!(fresh.iterations(), 1);
    }

    #[test]
    fn cancelled_token_stops_the_solve() {
        let tab = table();
        let mut session = CrhSession::new(&tab).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = session
            .run_to_convergence_with(1e-6, 100, &token)
            .unwrap_err();
        assert!(matches!(err, CrhError::Cancelled), "{err}");
        assert_eq!(session.iterations(), 0, "polled before the first step");
        // partial state remains usable: a live token finishes the solve
        let f = session
            .run_to_convergence_with(1e-6, 100, &CancelToken::new())
            .unwrap();
        assert!(f.is_finite());
    }

    #[test]
    fn expired_deadline_cancels_mid_solve() {
        let tab = table();
        let mut session = CrhSession::new(&tab).unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        let err = session
            .run_to_convergence_with(0.0, 1_000, &token)
            .unwrap_err();
        assert!(matches!(err, CrhError::Cancelled), "{err}");
    }
}
