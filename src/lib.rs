//! # crh — Conflict Resolution on Heterogeneous data
//!
//! A production-quality Rust reproduction of
//!
//! > Li, Li, Gao, Zhao, Fan, Han. *Resolving Conflicts in Heterogeneous
//! > Data by Truth Discovery and Source Reliability Estimation.*
//! > SIGMOD 2014 (extended in IEEE TKDE 28(8), 2016).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] ([`crh_core`]) — the CRH optimization framework: data model,
//!   loss functions, weight-assignment schemes, block-coordinate-descent
//!   solver, fine-grained weights;
//! * [`baselines`] ([`crh_baselines`]) — the paper's ten comparison
//!   methods behind one [`ConflictResolver`](crh_baselines::ConflictResolver)
//!   trait;
//! * [`stream`] ([`crh_stream`]) — incremental CRH for streaming chunks
//!   (Algorithm 2) with decay and time windows;
//! * [`mapreduce`] ([`crh_mapreduce`]) — an in-process MapReduce engine and
//!   the parallel CRH jobs (§2.7);
//! * [`serve`] ([`crh_serve`]) — a crash-only daemon that keeps an I-CRH
//!   session standing: WAL + snapshot durability, bounded-queue overload
//!   shedding, per-source circuit breakers, seeded chaos testing;
//! * [`data`] ([`crh_data`]) — CSV I/O, dataset generators, metrics
//!   (Error Rate / MNAD), and reliability scoring.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the `crh-bench`
//! crate's `reproduce` binary for regenerating every table and figure of
//! the paper.

pub mod cli;

pub use crh_baselines as baselines;
pub use crh_core as core;
pub use crh_data as data;
pub use crh_mapreduce as mapreduce;
pub use crh_serve as serve;
pub use crh_stream as stream;

pub use crh_core::prelude;
