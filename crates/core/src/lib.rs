//! # crh-core — Conflict Resolution on Heterogeneous data
//!
//! An implementation of the CRH truth-discovery framework of
//!
//! > Li, Li, Gao, Zhao, Fan, Han.
//! > *Resolving Conflicts in Heterogeneous Data by Truth Discovery and
//! > Source Reliability Estimation.* SIGMOD 2014
//! > (extended in IEEE TKDE 28(8), 2016).
//!
//! Multiple **sources** make conflicting claims about the **properties** of
//! **objects**; properties carry heterogeneous data types (categorical,
//! continuous, text). CRH jointly estimates the **truths** and per-source
//! **reliability weights** by minimizing the weighted total deviation
//!
//! ```text
//! min_{X*, W}  Σ_k w_k Σ_i Σ_m d_m(v*_im, v_im^(k))   s.t. δ(W) = 1
//! ```
//!
//! via block coordinate descent: a closed-form weight update alternating
//! with per-entry closed-form truth updates.
//!
//! ## Quick start
//!
//! ```
//! use crh_core::prelude::*;
//!
//! // Two honest sources and one that exaggerates temperatures and
//! // mislabels conditions.
//! let mut schema = Schema::new();
//! let temp = schema.add_continuous("high_temp");
//! let cond = schema.add_categorical("condition");
//! let mut b = TableBuilder::new(schema);
//! for day in 0..5u32 {
//!     let t = 70.0 + day as f64;
//!     b.add(ObjectId(day), temp, SourceId(0), Value::Num(t)).unwrap();
//!     b.add(ObjectId(day), temp, SourceId(1), Value::Num(t + 1.0)).unwrap();
//!     b.add(ObjectId(day), temp, SourceId(2), Value::Num(t + 25.0)).unwrap();
//!     b.add_label(ObjectId(day), cond, SourceId(0), "sunny").unwrap();
//!     b.add_label(ObjectId(day), cond, SourceId(1), "sunny").unwrap();
//!     b.add_label(ObjectId(day), cond, SourceId(2), "storm").unwrap();
//! }
//! let table = b.build().unwrap();
//!
//! let result = CrhBuilder::new().build().unwrap().run(&table).unwrap();
//!
//! // The unreliable source gets the lowest weight …
//! assert!(result.weights[2] < result.weights[0]);
//! // … and the truths side with the reliable majority.
//! let e = table.entry_id(ObjectId(0), temp).unwrap();
//! assert!(result.truths.get(e).as_num().unwrap() < 75.0);
//! ```
//!
//! ## Module map
//!
//! * [`schema`] / [`table`] — the heterogeneous data model and the
//!   entry-major observation store.
//! * [`loss`] — pluggable loss functions `d_m` with closed-form truth
//!   updates (Eqs 8-16).
//! * [`weights`] — weight-assignment schemes for different regularizers
//!   (Eqs 4-7).
//! * [`columnar`] / [`kernels`] — the columnar-by-property claim mirror
//!   (dense ids + `f64` columns + validity bitmaps) and the
//!   vectorization-friendly loss sweeps the solver runs over it.
//! * [`solver`] — Algorithm 1 (block coordinate descent).
//! * [`finegrained`] — per-property-group weights for sources whose
//!   reliability is not consistent across properties (§2.5).
//!
//! The companion crates build on this core: `crh-baselines` (the paper's 10
//! comparison methods), `crh-stream` (incremental CRH, Algorithm 2),
//! `crh-mapreduce` (parallel CRH, §2.7), `crh-data` (generators + metrics),
//! and `crh-bench` (the table/figure reproduction harness).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::dbg_macro,
    )
)]

pub mod cancel;
pub mod columnar;
pub mod confidence;
pub mod error;
pub mod finegrained;
pub mod ids;
pub mod kernels;
pub mod loss;
pub mod par;
pub mod persist;
pub mod rng;
pub mod schema;
pub mod semisupervised;
pub mod session;
pub mod solver;
pub mod stats;
pub mod table;
pub mod value;
pub mod weights;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::cancel::CancelToken;
    pub use crate::error::{CrhError, Result};
    pub use crate::ids::{EntryId, ObjectId, PropertyId, SourceId};
    pub use crate::loss::{
        AbsoluteLoss, EditDistanceLoss, EnsembleLoss, KlDivergenceLoss, Loss, ProbVectorLoss,
        SimilarityLoss, SquaredLoss, ZeroOneLoss,
    };
    pub use crate::par::Pool;
    pub use crate::schema::Schema;
    pub use crate::solver::{Crh, CrhBuilder, CrhResult, DevMatrix, PropertyNorm, SolverScratch};
    pub use crate::table::{Claim, Entry, ObservationTable, TableBuilder, TruthTable};
    pub use crate::value::{PropertyType, Truth, Value};
    pub use crate::weights::{
        BudgetedSelection, LogMax, LogSum, LpSelection, TopJ, WeightAssigner,
    };
}

pub use cancel::CancelToken;
pub use error::{CrhError, Result};
pub use ids::{EntryId, ObjectId, PropertyId, SourceId};
pub use schema::Schema;
pub use solver::{Crh, CrhBuilder, CrhResult};
pub use table::{ObservationTable, TableBuilder, TruthTable};
pub use value::{PropertyType, Truth, Value};
