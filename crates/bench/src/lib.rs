//! # crh-bench — reproduction harness for every table and figure
//!
//! * [`datasets`] — dataset construction at laptop or paper scale;
//! * [`scoring`] — run CRH + the ten baselines uniformly and score them
//!   with Error Rate / MNAD;
//! * [`experiments`] — one module per paper artifact (Tables 1-6,
//!   Figs 1-8); each regenerates its table/figure as text;
//! * [`report`] — plain-text tables, bar series, Pearson correlation.
//!
//! The `reproduce` binary drives everything:
//!
//! ```text
//! cargo run --release -p crh-bench --bin reproduce -- all
//! cargo run --release -p crh-bench --bin reproduce -- table2 fig1
//! cargo run --release -p crh-bench --bin reproduce -- all --scale 0.5
//! cargo run --release -p crh-bench --bin reproduce -- table6 --full
//! ```
//!
//! Micro-benchmarks (loss functions, weight schemes, weighted median,
//! solver scaling, I-CRH vs CRH, MapReduce engine incl. retry overhead)
//! live in `benches/`, driven by the in-tree [`microbench`] harness so
//! the whole workspace builds offline.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::dbg_macro))]

pub mod datasets;
pub mod experiments;
pub mod microbench;
pub mod report;
pub mod scoring;
