//! Loss functions `d_m(v*, v)` and their closed-form truth updates.
//!
//! The CRH objective (Eq 1) plugs in one loss per property. Each loss must
//! provide two things:
//!
//! 1. the deviation `d_m(truth, observation)` used in the weight-update step
//!    (Eq 2 / Eq 5), and
//! 2. the solution of the truth-update step (Eq 3),
//!    `argmin_v Σ_k w_k · d_m(v, v_im^(k))`, which has a closed form for
//!    every loss in this module (Eqs 9, 12, 14, 16).
//!
//! Provided losses:
//!
//! | Loss | Data type | Deviation | Truth update |
//! |---|---|---|---|
//! | [`ZeroOneLoss`] | categorical | Eq 8 | weighted vote (Eq 9) |
//! | [`ProbVectorLoss`] | categorical | Eq 11 | weighted mean of one-hot vectors (Eq 12) |
//! | [`KlDivergenceLoss`] | categorical | KL over smoothed one-hots (§2.5 Bregman family) | weighted mean |
//! | [`SquaredLoss`] | continuous | Eq 13 | weighted mean (Eq 14) |
//! | [`AbsoluteLoss`] | continuous | Eq 15 | weighted median (Eq 16) |
//! | [`EditDistanceLoss`] | text | normalized Levenshtein (§2.4.2) | weighted medoid |
//! | [`SimilarityLoss`] | any | `1 − sim(v*, v)` (§2.4.2 similarity conversion) | weighted medoid |
//! | [`EnsembleLoss`] | any (uniform) | `Σ_j λ_j d_j` (§2.4.2 ensemble) | candidate-search argmin |

mod absolute;
mod edit;
mod ensemble;
mod kl;
mod median;
mod prob_vector;
mod similarity;
mod squared;
mod zero_one;

pub use absolute::AbsoluteLoss;
pub use edit::{levenshtein, EditDistanceLoss};
pub use ensemble::EnsembleLoss;
pub use kl::KlDivergenceLoss;
pub use median::{weighted_median, weighted_median_scan};
pub use prob_vector::ProbVectorLoss;
pub use similarity::SimilarityLoss;
pub use squared::SquaredLoss;
pub use zero_one::ZeroOneLoss;

use crate::ids::SourceId;
pub use crate::kernels::KernelClass;
use crate::stats::EntryStats;
use crate::value::{PropertyType, Truth, Value};

/// A loss function for one property, as required by the framework (Eq 1).
///
/// Implementations must be deterministic; ties in truth updates are broken
/// deterministically (toward the smaller categorical id / value) so that runs
/// are reproducible.
pub trait Loss: Send + Sync + std::fmt::Debug {
    /// Human-readable identifier for diagnostics.
    fn name(&self) -> &'static str;

    /// The deviation `d_m(truth, observation)`. Must be `>= 0`, high when
    /// the observation deviates from the truth and low when it is close.
    ///
    /// `stats` carries the per-entry normalizers (cross-source std for
    /// Eqs 13/15, domain size for Eq 11).
    fn loss(&self, truth: &Truth, obs: &Value, stats: &EntryStats) -> f64;

    /// Solve `argmin_v Σ_k weights[k] · d_m(v, obs_k)` for one entry
    /// (Eq 3). `weights` is indexed by `SourceId`.
    fn fit(&self, obs: &[(SourceId, Value)], weights: &[f64], stats: &EntryStats) -> Truth;

    /// Whether the loss is convex in the truth variable. The convergence
    /// guarantee of §2.5 covers convex losses; the solver's objective trace
    /// is asserted non-increasing in tests only for convex losses.
    fn is_convex(&self) -> bool {
        true
    }

    /// The property type this loss is designed for (used to pick defaults).
    fn property_type(&self) -> PropertyType;

    /// Which columnar fast path (if any) reproduces this loss **exactly**.
    ///
    /// The solver routes properties whose loss advertises a
    /// non-[`Generic`](KernelClass::Generic) class to the flat column
    /// sweeps in [`kernels`](crate::kernels) instead of calling
    /// [`fit`](Loss::fit) / [`loss`](Loss::loss) per observation. Only
    /// return a fast class if your semantics match the corresponding
    /// built-in ([`ZeroOneLoss`] / [`SquaredLoss`] / [`AbsoluteLoss`])
    /// bit-for-bit; custom losses should keep the default.
    fn kernel_class(&self) -> KernelClass {
        KernelClass::Generic
    }
}

/// The paper's default per-type losses (§3.1.2): weighted voting (0-1 loss)
/// for categorical data, weighted median (normalized absolute deviation) for
/// continuous data; edit distance for text.
pub fn default_loss_for(ptype: PropertyType) -> Box<dyn Loss> {
    match ptype {
        PropertyType::Categorical => Box::new(ZeroOneLoss),
        PropertyType::Continuous => Box::new(AbsoluteLoss),
        PropertyType::Text => Box::new(EditDistanceLoss),
    }
}

/// Sum of `weights[k]` over the sources present in `obs`; 0-weight guard for
/// degenerate inputs is the caller's concern.
pub(crate) fn total_weight(obs: &[(SourceId, Value)], weights: &[f64]) -> f64 {
    obs.iter().map(|(s, _)| weights[s.index()]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_choices() {
        assert_eq!(
            default_loss_for(PropertyType::Categorical).name(),
            "zero-one"
        );
        assert_eq!(
            default_loss_for(PropertyType::Continuous).name(),
            "normalized-absolute"
        );
        assert_eq!(default_loss_for(PropertyType::Text).name(), "edit-distance");
    }

    #[test]
    fn total_weight_sums_present_sources() {
        let obs = vec![
            (SourceId(0), Value::Num(1.0)),
            (SourceId(2), Value::Num(2.0)),
        ];
        let w = vec![0.5, 9.0, 0.25];
        assert!((total_weight(&obs, &w) - 0.75).abs() < 1e-12);
    }
}
