//! # crh-data — data substrate for the CRH reproduction
//!
//! Everything the experiments need around the core algorithm:
//!
//! * [`csv`] — a from-scratch RFC-4180 CSV reader/writer;
//! * [`dataset`] — [`dataset::Dataset`]: observations + held-out
//!   ground truths (+ temporal markers for streaming experiments);
//! * [`io`] — dataset persistence as CSV directories;
//! * [`noise`] — the §3.2.2 noise models (Box–Muller Gaussian, γ-controlled
//!   categorical flips);
//! * [`generators`] — seeded synthetic equivalents of the paper's weather /
//!   stock / flight crawls and UCI Adult / Bank simulations (see DESIGN.md
//!   for the substitution rationale);
//! * [`metrics`] — Error Rate and MNAD (§3.1.1);
//! * [`reliability`] — ground-truth source reliability and the Fig 1 score
//!   normalizations.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::dbg_macro))]

pub mod csv;
pub mod dataset;
pub mod generators;
pub mod io;
pub mod metrics;
pub mod noise;
pub mod reliability;

pub use dataset::{Dataset, DatasetStats, GroundTruth};
pub use metrics::{evaluate, Evaluation};
