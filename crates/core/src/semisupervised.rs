//! Semi-supervised CRH: anchoring a few known truths.
//!
//! Truth discovery is unsupervised, but deployments often hold a *few*
//! verified values (a spot-checked gate, yesterday's confirmed close).
//! Anchoring those entries — fixing their truths and letting them
//! participate in the weight update — turns each label into direct evidence
//! about source reliability, which then propagates to every unlabeled
//! entry through the shared weights. (The broader literature develops this
//! as semi-supervised truth discovery; it drops out of the CRH objective by
//! simply constraining the anchored `v*_im`.)

use std::collections::HashMap;

use crate::error::{CrhError, Result};
use crate::ids::{ObjectId, PropertyId};
use crate::solver::{fused_solve, AnchorBoost, CrhResult, LoopSettings, PreparedProblem};
use crate::table::ObservationTable;
use crate::value::Value;
use crate::weights::WeightAssigner;

/// CRH with a set of anchored (known) entry truths.
///
/// The anchored entries' loss terms are multiplied by a boost factor `λ` in
/// the weight update (the semi-supervised objective
/// `Σ_k w_k [Σ_unlabeled d + λ·Σ_labeled d]`): a verified label is much
/// stronger evidence about a source than one consensus-derived truth, so by
/// default `λ = max(1, #entries / #anchors)` — the labeled set collectively
/// carries as much weight as the unlabeled set.
pub struct SemiSupervisedCrh {
    anchors: HashMap<(ObjectId, PropertyId), Value>,
    anchor_boost: Option<f64>,
    settings: LoopSettings,
}

impl std::fmt::Debug for SemiSupervisedCrh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemiSupervisedCrh")
            .field("anchors", &self.anchors.len())
            .field("assigner", &self.settings.assigner.name())
            .finish()
    }
}

impl SemiSupervisedCrh {
    /// Build with the known truths. At least one anchor is required (with
    /// none, use the plain [`Crh`](crate::solver::Crh) solver).
    pub fn new(anchors: HashMap<(ObjectId, PropertyId), Value>) -> Result<Self> {
        if anchors.is_empty() {
            return Err(CrhError::InvalidParameter(
                "semi-supervised CRH needs at least one anchored truth".into(),
            ));
        }
        Ok(Self {
            anchors,
            anchor_boost: None,
            settings: LoopSettings::default(),
        })
    }

    /// Kernel thread count: `0` (default) = available parallelism, `1` =
    /// the exact sequential path; results are bit-identical for every
    /// value.
    pub fn threads(mut self, n: usize) -> Self {
        self.settings.threads = n;
        self
    }

    /// Replace the weight assigner.
    pub fn weight_assigner(mut self, a: impl WeightAssigner + 'static) -> Self {
        self.settings.assigner = Box::new(a);
        self
    }

    /// Override the anchored-loss boost `λ` (default:
    /// `max(1, #entries / #anchors)`).
    pub fn anchor_boost(mut self, boost: f64) -> Result<Self> {
        if !boost.is_finite() || boost < 1.0 {
            return Err(CrhError::InvalidParameter(format!(
                "anchor boost must be >= 1, got {boost}"
            )));
        }
        self.anchor_boost = Some(boost);
        Ok(self)
    }

    /// Cap the number of iterations.
    pub fn max_iters(mut self, n: usize) -> Self {
        self.settings.max_iters = n;
        self
    }

    /// Run Algorithm 1 with the anchored entries held fixed and their loss
    /// terms boosted: the fused loop of
    /// [`Crh::run`](crate::solver::Crh::run), whose sweep also pins the
    /// anchors and scales their deviations.
    pub fn run(&self, table: &ObservationTable) -> Result<CrhResult> {
        // validate anchor types against the schema
        for ((_, p), v) in &self.anchors {
            table.schema().check_value(*p, v)?;
        }
        let prepared = PreparedProblem::new(table, &HashMap::new())?;
        let boost = self
            .anchor_boost
            .unwrap_or_else(|| (table.num_entries() as f64 / self.anchors.len() as f64).max(1.0));
        let anchors = AnchorBoost {
            anchors: &self.anchors,
            boost,
        };
        fused_solve(&prepared, &self.settings, None, Some(anchors)).map(CrhResult::from_single)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SourceId;
    use crate::schema::Schema;
    use crate::solver::CrhBuilder;
    use crate::table::TableBuilder;

    /// An adversarial table where the *majority* is a colluding pair of
    /// liars; unsupervised CRH follows the majority, but a single anchored
    /// truth exposes them.
    fn collusion_table() -> (ObservationTable, PropertyId) {
        let mut schema = Schema::new();
        let c = schema.add_categorical("c");
        let mut b = TableBuilder::new(schema);
        for i in 0..10u32 {
            b.add_label(ObjectId(i), c, SourceId(0), "true").unwrap();
            b.add_label(ObjectId(i), c, SourceId(1), "fake").unwrap();
            b.add_label(ObjectId(i), c, SourceId(2), "fake").unwrap();
        }
        (b.build().unwrap(), c)
    }

    #[test]
    fn anchor_overrules_colluding_majority() {
        let (table, c) = collusion_table();
        // unsupervised: the colluding pair wins
        let unsup = CrhBuilder::new().build().unwrap().run(&table).unwrap();
        let fake = table.schema().lookup(c, "fake").unwrap();
        let truth_val = table.schema().lookup(c, "true").unwrap();
        let e0 = table.entry_id(ObjectId(0), c).unwrap();
        assert_eq!(unsup.truths.get(e0).point(), fake);

        // anchor two entries to the honest value: weights flip everywhere
        let mut anchors = HashMap::new();
        anchors.insert((ObjectId(0), c), truth_val.clone());
        anchors.insert((ObjectId(1), c), truth_val.clone());
        let semi = SemiSupervisedCrh::new(anchors)
            .unwrap()
            .run(&table)
            .unwrap();
        assert!(semi.weights[0] > semi.weights[1], "{:?}", semi.weights);
        let e5 = table.entry_id(ObjectId(5), c).unwrap();
        assert_eq!(
            semi.truths.get(e5).point(),
            truth_val,
            "unlabeled entries must follow the anchored evidence"
        );
    }

    #[test]
    fn anchored_entries_stay_pinned() {
        let (table, c) = collusion_table();
        let truth_val = table.schema().lookup(c, "true").unwrap();
        let mut anchors = HashMap::new();
        anchors.insert((ObjectId(3), c), truth_val.clone());
        let res = SemiSupervisedCrh::new(anchors)
            .unwrap()
            .run(&table)
            .unwrap();
        let e3 = table.entry_id(ObjectId(3), c).unwrap();
        assert_eq!(res.truths.get(e3).point(), truth_val);
    }

    #[test]
    fn validation() {
        assert!(SemiSupervisedCrh::new(HashMap::new()).is_err());
        let (table, c) = collusion_table();
        // type-mismatched anchor rejected
        let mut anchors = HashMap::new();
        anchors.insert((ObjectId(0), c), Value::Num(1.0));
        let bad = SemiSupervisedCrh::new(anchors).unwrap();
        assert!(bad.run(&table).is_err());
    }

    #[test]
    fn anchors_on_unobserved_entries_are_ignored() {
        let (table, c) = collusion_table();
        let truth_val = table.schema().lookup(c, "true").unwrap();
        let mut anchors = HashMap::new();
        anchors.insert((ObjectId(99), c), truth_val); // no such object
        let res = SemiSupervisedCrh::new(anchors).unwrap().run(&table);
        assert!(res.is_ok());
    }

    #[test]
    fn converges() {
        let (table, c) = collusion_table();
        let truth_val = table.schema().lookup(c, "true").unwrap();
        let mut anchors = HashMap::new();
        anchors.insert((ObjectId(0), c), truth_val);
        let res = SemiSupervisedCrh::new(anchors)
            .unwrap()
            .max_iters(50)
            .run(&table)
            .unwrap();
        assert!(res.converged);
    }
}
