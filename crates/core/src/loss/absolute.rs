//! Normalized absolute deviation for continuous data (Eq 15) with
//! weighted-median truth update (Eq 16).

use crate::ids::SourceId;
use crate::stats::EntryStats;
use crate::value::{PropertyType, Truth, Value};

use super::{median::weighted_median, Loss};

/// The normalized absolute deviation of §2.4.2:
///
/// ```text
/// d(v*, v_k) = |v* − v_k| / std(v_1, …, v_K)
/// ```
///
/// The minimizer of the weighted absolute deviation is the weighted median
/// (Eq 16), "less sensitive to the existence of outliers, and thus … more
/// desirable in noisy environments". This is the paper's default continuous
/// loss in the experiments (§3.1.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct AbsoluteLoss;

impl Loss for AbsoluteLoss {
    fn name(&self) -> &'static str {
        "normalized-absolute"
    }

    fn loss(&self, truth: &Truth, obs: &Value, stats: &EntryStats) -> f64 {
        match (truth.as_num(), obs.as_num()) {
            (Some(t), Some(v)) => (t - v).abs() / stats.std,
            _ => 1.0,
        }
    }

    fn fit(&self, obs: &[(SourceId, Value)], weights: &[f64], _stats: &EntryStats) -> Truth {
        debug_assert!(!obs.is_empty(), "fit on empty observation group");
        let mut pairs: Vec<(f64, f64)> = obs
            .iter()
            .filter_map(|(s, v)| v.as_num().map(|x| (x, weights[s.index()])))
            .collect();
        Truth::Point(Value::Num(weighted_median(&mut pairs)))
    }

    fn is_convex(&self) -> bool {
        // Convex but non-differentiable; §2.5 notes it "work[s] well in
        // practice" though the convergence proof targets Bregman losses.
        true
    }

    fn property_type(&self) -> PropertyType {
        PropertyType::Continuous
    }

    fn kernel_class(&self) -> super::KernelClass {
        // the columnar median kernel replicates this fit/loss bit-for-bit
        super::KernelClass::Median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_is_abs_over_std() {
        let l = AbsoluteLoss;
        let t = Truth::Point(Value::Num(80.0));
        let s = EntryStats {
            std: 2.0,
            ..EntryStats::trivial()
        };
        assert!((l.loss(&t, &Value::Num(77.0), &s) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fit_is_weighted_median() {
        let l = AbsoluteLoss;
        let obs = vec![
            (SourceId(0), Value::Num(1.0)),
            (SourceId(1), Value::Num(2.0)),
            (SourceId(2), Value::Num(100.0)),
        ];
        let w = vec![1.0, 1.0, 1.0];
        assert_eq!(l.fit(&obs, &w, &EntryStats::trivial()).as_num(), Some(2.0));
    }

    #[test]
    fn robust_to_outlier_unlike_mean() {
        let l = AbsoluteLoss;
        let obs = vec![
            (SourceId(0), Value::Num(70.0)),
            (SourceId(1), Value::Num(71.0)),
            (SourceId(2), Value::Num(72.0)),
            (SourceId(3), Value::Num(1e6)),
        ];
        let w = vec![1.0; 4];
        let m = l.fit(&obs, &w, &EntryStats::trivial()).as_num().unwrap();
        assert!(m <= 72.0, "median must ignore the outlier, got {m}");
    }

    #[test]
    fn heavy_source_controls_answer() {
        let l = AbsoluteLoss;
        let obs = vec![
            (SourceId(0), Value::Num(10.0)),
            (SourceId(1), Value::Num(20.0)),
            (SourceId(2), Value::Num(30.0)),
        ];
        let w = vec![0.1, 0.1, 10.0];
        assert_eq!(l.fit(&obs, &w, &EntryStats::trivial()).as_num(), Some(30.0));
    }

    #[test]
    fn type_confusion_penalized_finite() {
        let l = AbsoluteLoss;
        let t = Truth::Point(Value::Num(1.0));
        assert_eq!(
            l.loss(&t, &Value::Text("x".into()), &EntryStats::trivial()),
            1.0
        );
    }

    #[test]
    fn convexity_flag() {
        assert!(AbsoluteLoss.is_convex());
        assert_eq!(AbsoluteLoss.property_type(), PropertyType::Continuous);
    }
}
