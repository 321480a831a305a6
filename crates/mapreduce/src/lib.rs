//! # crh-mapreduce — parallel, fault-tolerant & out-of-core CRH (§2.7)
//!
//! Large-scale conflict resolution "take\[s\] the advantage of distributed and
//! parallel computing systems". This crate supplies the substrate and the
//! CRH pipelines on top of it:
//!
//! * [`engine`] — a from-scratch, Hadoop-shaped MapReduce engine (map →
//!   combine → hash shuffle + sort → reduce) running tasks on OS threads
//!   under a slot-limited scheduler, with per-phase statistics, a
//!   configurable per-attempt startup cost modeling cluster task-launch
//!   latency, per-attempt panic isolation, capped-exponential-backoff
//!   retries, and speculative execution for stragglers;
//! * [`faults`] — deterministic, seeded fault injection: task attempts
//!   panic, stall, or die mid-emit as a pure function of
//!   `(seed, job, phase, task, attempt)`, so chaos runs replay exactly;
//! * [`error`] — typed [`MapReduceError`] covering config validation, task
//!   failure after retry exhaustion, and checkpoint persistence;
//! * [`sidefile`] — the shared "external file" of §2.7.2-2.7.3 through which
//!   jobs exchange source weights and estimated truths;
//! * [`driver`] — the two CRH jobs (truth computation keyed by entry,
//!   weight assignment keyed by `(property, source)` with a Combiner), the
//!   iterative wrapper function (§2.7.4), and durable CRC-framed
//!   iteration checkpoints with [`resume`](ParallelCrh::resume_from_checkpoint);
//! * [`external`] — an external merge sorter (sorted spill runs + k-way
//!   heap merge) for data that exceeds RAM;
//! * [`outofcore`] — CRH as one sequential scan per iteration over an
//!   entry-sorted spill file, with `O(K·M + largest group)` peak memory.
//!
//! The engine is general: the word-count test in [`engine`] is three lines.
//! Parallel CRH produces the same truths as sequential
//! [`crh_core::solver::Crh`] regardless of mapper/reducer counts, and —
//! because retries recompute pure task functions and results land in
//! per-task slots — its output is **bit-identical** under any injected
//! fault schedule, including a kill + checkpoint resume (`tests/chaos.rs`).

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::dbg_macro))]

pub mod driver;
pub mod engine;
pub mod error;
pub mod external;
pub mod faults;
pub mod outofcore;
pub mod sidefile;

pub use driver::{CheckpointConfig, ClaimRecord, ParallelCrh, ParallelCrhResult};
pub use engine::{key_hash, map_reduce, no_combiner, JobConfig, JobStats};
pub use error::MapReduceError;
pub use external::{Codec, ExternalSorter, MergeIter};
pub use faults::{AttemptFate, FaultInjector, FaultPlan, Phase};
pub use outofcore::{OocClaim, OocResult, OutOfCoreCrh, SortedClaims};
pub use sidefile::SideFile;
