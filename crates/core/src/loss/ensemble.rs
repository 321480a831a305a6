//! Ensemble of loss functions (§2.4.2: "The framework can even be adapted
//! to take the ensemble of multiple loss functions for a more robust loss
//! computation").

use crate::error::{CrhError, Result};
use crate::ids::SourceId;
use crate::stats::EntryStats;
use crate::value::{PropertyType, Truth, Value};

use super::Loss;

/// A convex combination of loss functions over the same property.
///
/// The deviation is the weighted sum `Σ_j λ_j · d_j(v*, v)`. The truth
/// update generally has no closed form for a mixture, so the ensemble uses
/// the *medoid* strategy: the minimizer is searched over the observed
/// values (plus each member loss's own closed-form candidate), which is
/// exact whenever the optimum coincides with one of those candidates and a
/// tight upper bound otherwise. This keeps the ensemble usable with any
/// member combination while preserving determinism.
pub struct EnsembleLoss {
    members: Vec<(Box<dyn Loss>, f64)>,
    ptype: PropertyType,
}

impl EnsembleLoss {
    /// Build from `(loss, λ)` members. All members must target the same
    /// property type and the λ's must be positive.
    pub fn new(members: Vec<(Box<dyn Loss>, f64)>) -> Result<Self> {
        if members.is_empty() {
            return Err(CrhError::InvalidParameter(
                "ensemble needs at least one member loss".into(),
            ));
        }
        let ptype = members[0].0.property_type();
        for (l, lambda) in &members {
            if l.property_type() != ptype {
                return Err(CrhError::InvalidParameter(format!(
                    "ensemble members must share a property type: {} is {}, expected {}",
                    l.name(),
                    l.property_type(),
                    ptype
                )));
            }
            if !lambda.is_finite() || *lambda <= 0.0 {
                return Err(CrhError::InvalidParameter(format!(
                    "ensemble weight for {} must be positive, got {lambda}",
                    l.name()
                )));
            }
        }
        Ok(Self { members, ptype })
    }

    fn weighted_total(
        &self,
        candidate: &Truth,
        obs: &[(SourceId, Value)],
        weights: &[f64],
        stats: &EntryStats,
    ) -> f64 {
        obs.iter()
            .map(|(s, v)| weights[s.index()] * self.loss(candidate, v, stats))
            .sum()
    }
}

impl std::fmt::Debug for EnsembleLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.members.iter().map(|(l, _)| l.name()).collect();
        f.debug_struct("EnsembleLoss")
            .field("members", &names)
            .finish()
    }
}

impl Loss for EnsembleLoss {
    fn name(&self) -> &'static str {
        "ensemble"
    }

    fn loss(&self, truth: &Truth, obs: &Value, stats: &EntryStats) -> f64 {
        self.members
            .iter()
            .map(|(l, lambda)| lambda * l.loss(truth, obs, stats))
            .sum()
    }

    fn fit(&self, obs: &[(SourceId, Value)], weights: &[f64], stats: &EntryStats) -> Truth {
        debug_assert!(!obs.is_empty(), "fit on empty observation group");
        // Candidates: every observed value + each member's own optimum.
        let mut candidates: Vec<Truth> = obs.iter().map(|(_, v)| Truth::Point(v.clone())).collect();
        for (l, _) in &self.members {
            candidates.push(l.fit(obs, weights, stats));
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in candidates.iter().enumerate() {
            let total = self.weighted_total(cand, obs, weights, stats);
            match best {
                Some((_, b)) if total >= b => {}
                _ => best = Some((i, total)),
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "resolver contract: candidates are derived from ≥1 observation, so the scan always sets `best`"
        )]
        let (i, _) = best.expect("non-empty candidates");
        candidates.swap_remove(i)
    }

    fn is_convex(&self) -> bool {
        self.members.iter().all(|(l, _)| l.is_convex())
    }

    fn property_type(&self) -> PropertyType {
        self.ptype
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{AbsoluteLoss, SquaredLoss, ZeroOneLoss};

    fn obs(vals: &[f64]) -> Vec<(SourceId, Value)> {
        vals.iter()
            .enumerate()
            .map(|(k, &v)| (SourceId(k as u32), Value::Num(v)))
            .collect()
    }

    #[test]
    fn rejects_empty_and_mixed_types() {
        assert!(EnsembleLoss::new(vec![]).is_err());
        assert!(EnsembleLoss::new(vec![
            (Box::new(SquaredLoss), 1.0),
            (Box::new(ZeroOneLoss), 1.0),
        ])
        .is_err());
        assert!(EnsembleLoss::new(vec![(Box::new(SquaredLoss), 0.0)]).is_err());
        assert!(EnsembleLoss::new(vec![(Box::new(SquaredLoss), f64::NAN)]).is_err());
    }

    #[test]
    fn loss_is_weighted_sum_of_members() {
        let e = EnsembleLoss::new(vec![
            (Box::new(SquaredLoss), 2.0),
            (Box::new(AbsoluteLoss), 3.0),
        ])
        .unwrap();
        let stats = EntryStats::trivial();
        let t = Truth::Point(Value::Num(0.0));
        let v = Value::Num(2.0);
        // 2*(4/1) + 3*(2/1) = 14
        assert!((e.loss(&t, &v, &stats) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn single_member_matches_member_fit() {
        let e = EnsembleLoss::new(vec![(Box::new(AbsoluteLoss), 1.0)]).unwrap();
        let stats = EntryStats::trivial();
        let group = obs(&[1.0, 2.0, 100.0]);
        let w = vec![1.0; 3];
        assert_eq!(e.fit(&group, &w, &stats).as_num(), Some(2.0));
    }

    #[test]
    fn mixture_trades_off_members() {
        // heavily abs-weighted ensemble behaves like the median even with a
        // squared member present
        let e = EnsembleLoss::new(vec![
            (Box::new(AbsoluteLoss), 100.0),
            (Box::new(SquaredLoss), 0.001),
        ])
        .unwrap();
        let stats = EntryStats::trivial();
        let group = obs(&[1.0, 2.0, 1000.0]);
        let w = vec![1.0; 3];
        let fit = e.fit(&group, &w, &stats).as_num().unwrap();
        assert!(
            fit <= 3.0,
            "abs-dominated ensemble should resist the outlier: {fit}"
        );
    }

    #[test]
    fn fit_never_worse_than_any_candidate_observation() {
        let e = EnsembleLoss::new(vec![
            (Box::new(SquaredLoss), 1.0),
            (Box::new(AbsoluteLoss), 1.0),
        ])
        .unwrap();
        let stats = EntryStats::trivial();
        let group = obs(&[3.0, 7.0, 9.0, 100.0]);
        let w = vec![2.0, 1.0, 1.0, 0.5];
        let fit = e.fit(&group, &w, &stats);
        let cost = |t: &Truth| e.weighted_total(t, &group, &w, &stats);
        let fit_cost = cost(&fit);
        for (_, v) in &group {
            assert!(fit_cost <= cost(&Truth::Point(v.clone())) + 1e-9);
        }
    }

    #[test]
    fn convexity_is_conjunction() {
        let convex = EnsembleLoss::new(vec![
            (Box::new(SquaredLoss), 1.0),
            (Box::new(AbsoluteLoss), 1.0),
        ])
        .unwrap();
        assert!(convex.is_convex());
        let nonconvex = EnsembleLoss::new(vec![(Box::new(ZeroOneLoss), 1.0)]).unwrap();
        assert!(!nonconvex.is_convex());
    }
}
