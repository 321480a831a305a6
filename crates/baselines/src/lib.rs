//! # crh-baselines — the paper's comparison methods
//!
//! All ten baseline conflict-resolution methods of §3.1.2, grouped exactly
//! as the paper groups them:
//!
//! * **continuous-only**: [`Mean`], [`Median`], [`Gtm`] (Gaussian Truth
//!   Model \[14\]);
//! * **categorical-only**: [`Voting`] (majority voting);
//! * **fact-based truth discovery**, force-fed heterogeneous data by
//!   treating continuous observations as facts: [`Investment`],
//!   [`PooledInvestment`] \[9\], [`TwoEstimates`], [`ThreeEstimates`] \[5\],
//!   [`TruthFinder`] \[4\], [`AccuSim`] \[10\].
//!
//! Everything implements [`ConflictResolver`]; [`CrhResolver`] adapts the
//! core CRH solver to the same interface so harnesses can score all eleven
//! methods uniformly. Parameters follow the original authors' suggestions
//! (§3.1: "We implement all the baselines and set the parameters according
//! to their authors' suggestions").

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::dbg_macro))]

pub mod accusim;
pub mod crh_adapter;
pub mod estimates;
pub mod fact;
pub mod gtm;
pub mod investment;
pub mod naive;
pub mod resolver;
pub mod truthfinder;

pub use accusim::AccuSim;
pub use crh_adapter::CrhResolver;
pub use estimates::{ThreeEstimates, TwoEstimates};
pub use gtm::Gtm;
pub use investment::{Investment, PooledInvestment};
pub use naive::{Mean, Median, Voting};
pub use resolver::{ConflictResolver, ResolverOutput, SupportedTypes};
pub use truthfinder::TruthFinder;

/// All eleven methods in the row order of Tables 2 and 4 (CRH first).
pub fn all_methods() -> Vec<Box<dyn ConflictResolver>> {
    vec![
        Box::new(CrhResolver),
        Box::new(Mean),
        Box::new(Median),
        Box::new(Gtm::default()),
        Box::new(Voting),
        Box::new(Investment::default()),
        Box::new(PooledInvestment::default()),
        Box::new(TwoEstimates::default()),
        Box::new(ThreeEstimates::default()),
        Box::new(TruthFinder::default()),
        Box::new(AccuSim::default()),
    ]
}

/// The ten baselines without CRH (Table 2/4 comparison rows).
pub fn all_baselines() -> Vec<Box<dyn ConflictResolver>> {
    let mut v = all_methods();
    v.remove(0);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_lists() {
        let all = all_methods();
        assert_eq!(all.len(), 11);
        assert_eq!(all[0].name(), "CRH");
        let base = all_baselines();
        assert_eq!(base.len(), 10);
        assert!(base.iter().all(|m| m.name() != "CRH"));
    }

    #[test]
    fn names_match_paper_tables() {
        let names: Vec<&str> = all_methods().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "CRH",
                "Mean",
                "Median",
                "GTM",
                "Voting",
                "Investment",
                "PooledInvestment",
                "2-Estimates",
                "3-Estimates",
                "TruthFinder",
                "AccuSim",
            ]
        );
    }
}
