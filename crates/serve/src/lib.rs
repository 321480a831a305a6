//! `crh-serve`: a crash-only, overload-safe truth-discovery daemon over
//! incremental CRH.
//!
//! The batch and streaming crates answer "what is true?" for data you
//! already have; this crate keeps the answer *standing* while new
//! observations keep arriving and the machine keeps failing. It layers
//! five robustness mechanisms over [`crh_stream`]'s I-CRH state:
//!
//! 1. **Crash-only durability** ([`wal`], [`core`]) — every accepted
//!    chunk is CRC-framed into an append-only WAL before it is folded;
//!    periodic snapshots (atomic rename) absorb the log. `kill -9` at
//!    any instruction recovers to bit-identical weights and truths:
//!    snapshot load, then WAL replay with snapshot-covered sequence
//!    numbers skipped and torn tails truncated.
//! 2. **Overload safety** ([`server`]) — a bounded ingest queue in
//!    front of the one thread that owns the state sheds load with a
//!    typed [`ServeError::Overloaded`] instead of buffering
//!    unboundedly; per-request deadlines turn slow folds and solves
//!    into [`ServeError::DeadlineExceeded`] with cooperative
//!    cancellation, never a hung client.
//! 3. **Bad-feed containment** ([`breaker`]) — malformed or non-finite
//!    observations strike a per-source circuit breaker; tripped sources
//!    are quarantined with a cool-down and heal through a half-open
//!    probe, so one byzantine feed cannot poison the weight estimates.
//! 4. **Deterministic chaos** ([`faults`]) — a seeded
//!    [`ServeFaultPlan`] resolves crash/stall fates as a pure function
//!    of `(seed, chunk, attempt)`, letting the test suite prove recovery
//!    equivalence for every fault interleaving it schedules; a seeded
//!    [`NetFaultPlan`] does the same for the replication fabric (link
//!    drops, one-way partitions, duplicated frames, timed kills).
//! 5. **Replication and failover** ([`replicate`], [`failover`],
//!    [`server::HaServer`]) — the primary ships every WAL record to
//!    followers; the staging node acks a write once a quorum fsynced it
//!    ([`ReplicaNode::take_decided`], one rule for daemon and simulator);
//!    followers serve staleness-bounded reads, promotion after a
//!    heartbeat loss is deterministic (highest replicated sequence,
//!    ties to the lowest node id), and [`ClusterClient`] fails over
//!    transparently with capped, jittered backoff.
//!
//! 6. **Sharded scale-out** ([`shard`], [`router`]) — a versioned
//!    hash-range shard map (derived from the same deterministic hash
//!    seam `crh-mapreduce` partitions with) assigns every entry to one
//!    of N shard groups, each an independent quorum-replicated cluster;
//!    [`ShardRouter`] scatter-gathers reads under a typed degraded-read
//!    contract ([`Sharded`] / [`ServeError::Degraded`]) and shard splits
//!    stage the moved range via snapshot + WAL catch-up before one
//!    atomic durable cutover record, so a crash at any point during a
//!    split recovers to exactly the pre- or post-cutover topology.
//!
//! 7. **Disk-fault survival** ([`vfs`], [`scrub`]) — every durable
//!    artifact (WAL, snapshots, election metadata, shard map, staging
//!    log) is written through an injectable [`Vfs`] seam; a seeded
//!    [`DiskFaultPlan`] tears writes at arbitrary offsets, rots bits on
//!    read, lies about fsync, and latches a dying disk sticky-bad, all
//!    as a pure function of `(seed, op)`. Recovery falls back to the
//!    previous snapshot generation on corruption, a primary on a dead
//!    disk self-deposes with a typed [`ServeError::DiskDegraded`], and
//!    a background scrubber walks CRCs to catch silent rot early,
//!    quarantining corrupt replica artifacts and re-syncing them from
//!    the quorum (read-repair).
//!
//! 8. **Gray-failure resilience** ([`health`], [`faults`], [`vfs`]) —
//!    slowness is injectable like any other fault: seeded frame delays
//!    and chronic stragglers on the replication fabric, slow-read/write/
//!    fsync fates on the disk seam. Every hop carries the client's
//!    remaining deadline budget on the wire and refuses work it cannot
//!    finish ([`ServeError::DeadlineExceeded`]); quorum acks never wait
//!    on the slowest replica; [`ShardRouter`] hedges a read once the
//!    first attempt overruns the shard's p95; and a peer whose EWMA
//!    latency degrades against its cohort is quarantined on probation
//!    ([`HealthMap`]), while a primary on a slow disk self-deposes.
//!
//! The wire protocol ([`proto`]) is the workspace's own length-prefixed
//! CRC-framed format; [`client`] is a small synchronous client. Nothing
//! here needs a dependency outside the workspace.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::print_stdout,
        clippy::dbg_macro,
        clippy::disallowed_methods,
        clippy::disallowed_types,
    )
)]

pub mod breaker;
pub mod client;
pub mod core;
pub mod error;
pub mod failover;
#[cfg(test)]
mod fate_golden;
pub mod faults;
pub mod health;
pub mod proto;
pub mod replicate;
pub mod router;
pub mod scrub;
pub mod server;
pub mod shard;
pub mod vfs;
pub mod wal;

#[cfg(test)]
#[path = "../tests/common/test_dir.rs"]
mod test_dir;

pub use breaker::BreakerConfig;
pub use client::{Client, ClusterClient, DaemonStatus, RemoteSolve, RetryPolicy};
pub use core::{
    claims_from_csv, solve_claims, ChunkClaim, CoreStatus, IngestReceipt, RecoveryReport,
    ServeConfig, ServeCore, SolveOutcome,
};
pub use error::ServeError;
pub use failover::{elect, SimCluster, SimWrite};
pub use faults::{
    LinkFate, NetFaultPlan, PartitionWindow, ServeFate, ServeFaultInjector, ServeFaultPlan,
    ServePoint, ShardFaultPlan, SplitCrash,
};
pub use health::{HealthConfig, HealthMap};
pub use replicate::{ReplicaConfig, ReplicaNode, ReplicaRecovery, Role};
pub use router::{ShardAck, ShardGroup, ShardRouter};
pub use scrub::{scrub_dir, ScrubFinding, ScrubReport};
pub use server::{HaConfig, HaServer, Server, ServerConfig};
pub use shard::{
    entry_point, ShardMap, ShardMapStore, ShardRange, Sharded, ShardedSim, SplitOutcome, SplitSpec,
};
pub use vfs::{DiskFaultPlan, DiskFile, Vfs};
pub use wal::{Wal, WalRecovery};
