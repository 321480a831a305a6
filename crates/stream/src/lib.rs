//! # crh-stream — Incremental CRH for streaming data (§2.6, Algorithm 2)
//!
//! Data often "arrive\[s\] in sequential chunks" — forecasts crawled day by
//! day, quotes per trading day. Waiting for the full data set is
//! impractical, so I-CRH learns truths and source weights **incrementally**:
//! for each chunk it (1) computes truths with the weights learned from
//! history, then (2) folds the chunk's deviations into per-source
//! accumulated distances, decayed by `α`, and refreshes the weights —
//! one pass per chunk, never revisiting past data.
//!
//! The decay rate `α ∈ \[0, 1\]` controls the influence of history: "the
//! smaller α, the less impact from past data in current source weights
//! estimation".
//!
//! ```
//! use crh_core::prelude::*;
//! use crh_stream::ICrh;
//!
//! # fn chunk(day: u32) -> ObservationTable {
//! #     let mut schema = Schema::new();
//! #     let t = schema.add_continuous("t");
//! #     let mut b = TableBuilder::new(schema);
//! #     for i in 0..3u32 {
//! #         let o = ObjectId(day * 3 + i);
//! #         b.add(o, t, SourceId(0), Value::Num(1.0)).unwrap();
//! #         b.add(o, t, SourceId(1), Value::Num(1.0)).unwrap();
//! #         b.add(o, t, SourceId(2), Value::Num(9.0)).unwrap();
//! #     }
//! #     b.build().unwrap()
//! # }
//! let mut icrh = ICrh::new(0.5).unwrap().start();
//! for day in 0..5 {
//!     let table = chunk(day);                    // today's crawl
//!     let truths = icrh.process_chunk(&table).unwrap();
//!     assert_eq!(truths.len(), table.num_entries());
//! }
//! // the persistently-wrong source ends up with the lowest weight
//! let w = icrh.weights();
//! assert!(w[2] < w[0]);
//! ```

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

pub mod error;
pub mod icrh;
pub mod window;

pub use error::StreamError;
pub use icrh::{ICrh, ICrhCheckpoint, ICrhState, StreamResult};
pub use window::group_windows;
