//! Typed errors for the serving layer.
//!
//! Every failure a client or operator can observe is a variant here —
//! the daemon never panics on bad input, bad peers, or bad disks. The
//! variants split into three families: *load* (`Overloaded`,
//! `DeadlineExceeded`), *containment* (`Quarantined`, `InvalidChunk`),
//! and *durability* (`WalCorrupt`, `Persist`). `InjectedCrash` only ever
//! appears under a seeded [`ServeFaultPlan`](crate::faults::ServeFaultPlan)
//! in chaos tests.

use crh_core::error::CrhError;
use crh_core::persist::PersistError;
use crh_stream::StreamError;

use crate::faults::ServePoint;

/// Everything that can go wrong accepting, folding, persisting, or
/// serving observation chunks.
#[derive(Debug)]
pub enum ServeError {
    /// The ingest queue is full; the chunk was rejected without buffering.
    /// Retry with backoff — the daemon sheds load instead of growing.
    Overloaded {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// A source tripped the malformed-observation circuit breaker and its
    /// chunks are rejected until the cool-down elapses.
    Quarantined {
        /// The quarantined source id.
        source: u32,
        /// The ingest tick at which the source becomes eligible to heal.
        until_tick: u64,
    },
    /// The request did not complete within its deadline; any in-flight
    /// solve was cooperatively cancelled.
    DeadlineExceeded,
    /// The chunk failed validation (schema mismatch, non-finite value,
    /// unknown label, out-of-domain category, or empty payload).
    InvalidChunk {
        /// The source the offending claim was attributed to, if any.
        source: Option<u32>,
        /// Human-readable reason.
        reason: String,
    },
    /// A malformed protocol frame or request payload.
    Protocol(String),
    /// The remote daemon reported an error over the wire.
    Remote {
        /// The wire error code.
        code: u8,
        /// The daemon's message.
        message: String,
    },
    /// The WAL contains corruption that is not a torn tail (a bad record
    /// followed by further readable data), so recovery refuses to guess.
    WalCorrupt {
        /// Byte offset of the offending record.
        offset: u64,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The daemon is shutting down (or a prior injected crash poisoned
    /// this core) and no longer accepts work.
    ShuttingDown,
    /// The snapshot directory could not be fsync'd after the atomic
    /// rename, so the rename itself may not survive power loss.
    SnapshotDirSync {
        /// The directory that failed to sync.
        dir: std::path::PathBuf,
        /// The underlying I/O error, stringified.
        reason: String,
    },
    /// Every retry attempt failed; the log records each attempt's error.
    RetriesExhausted {
        /// How many attempts were made.
        attempts: u32,
        /// One entry per attempt, in order.
        log: Vec<String>,
    },
    /// This node is a follower (or mid-election) and cannot accept
    /// writes; retry against the primary.
    NotPrimary {
        /// The node id of the primary, if this node knows it.
        hint: Option<u32>,
    },
    /// The chunk is durable on this node but fewer than `quorum` replicas
    /// acknowledged the fsync before the deadline. The client must treat
    /// the write as unacknowledged and retry; the sequence-idempotent
    /// protocol makes the retry safe.
    NotReplicated {
        /// The sequence number of the un-acked chunk.
        seq: u64,
        /// Replicas (including the primary) that had fsync'd it.
        acked: usize,
        /// The configured quorum.
        quorum: usize,
    },
    /// A replication frame carried the wrong cluster key. The frame was
    /// not acted on: any client that can reach the port must not be able
    /// to depose the primary, force elections, or inject log records.
    Unauthenticated,
    /// A replication message carried an epoch older than this node's;
    /// the sender is a deposed primary and must step down.
    StaleEpoch {
        /// The epoch the message carried.
        got: u64,
        /// This node's current epoch.
        current: u64,
    },
    /// A scatter-gather read completed on some shard groups but not all
    /// of them. The payload that *was* gathered is still returned beside
    /// this error by the router's typed [`Sharded`](crate::shard::Sharded)
    /// wrapper; this variant is what a strict single-shard read reports
    /// when the owning group is unreachable.
    Degraded {
        /// Shard ids whose groups could not answer within the deadline.
        missing_shards: Vec<u32>,
    },
    /// A shard-routed frame landed on a member of a different shard group
    /// (a misdelivery or a stale route table). The frame was not acted on.
    WrongShard {
        /// The shard id the frame was addressed to.
        shard: u32,
        /// The shard id the receiving member actually serves.
        at: u32,
    },
    /// A shard-routed frame carried a shard-map version older than the
    /// receiver's: the sender's route table predates a cutover. Refresh
    /// the route table and retry.
    StaleShardMap {
        /// The map version the frame carried.
        got: u64,
        /// The receiver's current map version.
        current: u64,
    },
    /// This node's disk has gone sticky-bad (ENOSPC or persistent EIO):
    /// writes and fsyncs no longer succeed, so the node can neither make
    /// chunks durable nor persist election state. A primary reporting
    /// this has stopped acknowledging writes and is self-deposing so a
    /// replica with a healthy disk can win the election; clients retry
    /// against the rest of the cluster.
    DiskDegraded {
        /// The storage operation that failed ("write", "fsync", ...).
        op: &'static str,
    },
    /// A fault-plan builder was given an out-of-range probability or the
    /// variants' probabilities sum past 1.0, which would silently skew
    /// every seeded fate drawn from the plan.
    InvalidFaultPlan(String),
    /// A seeded fault-plan crash fired at this point. Chaos tests treat
    /// this exactly like `kill -9`: drop the core and recover from disk.
    InjectedCrash(ServePoint),
    /// An error from the streaming layer.
    Stream(StreamError),
    /// An error from the core solver.
    Core(CrhError),
    /// A snapshot failed to read or write.
    Persist(PersistError),
    /// An I/O failure on the WAL, snapshot directory, or socket.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded { capacity } => {
                write!(
                    f,
                    "ingest queue full (capacity {capacity}); retry with backoff"
                )
            }
            Self::Quarantined { source, until_tick } => write!(
                f,
                "source {source} is quarantined until ingest tick {until_tick}"
            ),
            Self::DeadlineExceeded => write!(f, "request deadline exceeded"),
            Self::InvalidChunk { source, reason } => match source {
                Some(s) => write!(f, "invalid chunk (source {s}): {reason}"),
                None => write!(f, "invalid chunk: {reason}"),
            },
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
            Self::Remote { code, message } => {
                write!(f, "daemon error (code {code}): {message}")
            }
            Self::WalCorrupt { offset, reason } => {
                write!(f, "WAL corrupt at offset {offset}: {reason}")
            }
            Self::ShuttingDown => write!(f, "daemon is shutting down"),
            Self::SnapshotDirSync { dir, reason } => {
                write!(
                    f,
                    "snapshot directory {} failed to fsync: {reason}",
                    dir.display()
                )
            }
            Self::RetriesExhausted { attempts, log } => {
                write!(
                    f,
                    "all {attempts} attempts failed (last: {})",
                    log.last().map(String::as_str).unwrap_or("none")
                )
            }
            Self::NotPrimary { hint } => match hint {
                Some(n) => write!(f, "not the primary; retry against node {n}"),
                None => write!(f, "not the primary; no known primary to redirect to"),
            },
            Self::NotReplicated { seq, acked, quorum } => write!(
                f,
                "chunk seq {seq} reached only {acked}/{quorum} replicas before the deadline; retry"
            ),
            Self::Unauthenticated => {
                write!(f, "replication frame rejected: wrong cluster key")
            }
            Self::StaleEpoch { got, current } => {
                write!(
                    f,
                    "message from stale epoch {got} (current epoch {current})"
                )
            }
            Self::Degraded { missing_shards } => write!(
                f,
                "degraded read: shard group(s) {missing_shards:?} unreachable"
            ),
            Self::WrongShard { shard, at } => write!(
                f,
                "frame for shard {shard} misdelivered to a member of shard {at}"
            ),
            Self::StaleShardMap { got, current } => write!(
                f,
                "stale shard map version {got} (current {current}); refresh the route table"
            ),
            Self::DiskDegraded { op } => write!(
                f,
                "disk degraded: {op} failed with a sticky error; this node no longer accepts writes"
            ),
            Self::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            Self::InjectedCrash(p) => write!(f, "injected crash at {p:?}"),
            Self::Stream(e) => write!(f, "stream error: {e}"),
            Self::Core(e) => write!(f, "solver error: {e}"),
            Self::Persist(e) => write!(f, "snapshot error: {e}"),
            Self::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Stream(e) => Some(e),
            Self::Core(e) => Some(e),
            Self::Persist(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for ServeError {
    fn from(e: StreamError) -> Self {
        Self::Stream(e)
    }
}

impl From<CrhError> for ServeError {
    fn from(e: CrhError) -> Self {
        match e {
            CrhError::Cancelled => Self::DeadlineExceeded,
            other => Self::Core(other),
        }
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        Self::Persist(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Declares the wire error codes once. Each row becomes a `u8` const in
/// [`code`] and a discriminant of a private `#[repr(u8)]` enum, so two
/// rows sharing a value fail the build (E0081).
macro_rules! wire_codes {
    ($($(#[$doc:meta])* $name:ident = $value:literal,)*) => {
        /// Wire error codes (stable across versions; used by
        /// [`Response::Error`](crate::proto::Response)).
        pub mod code {
            #[expect(
                non_camel_case_types,
                clippy::upper_case_acronyms,
                reason = "variants reuse the SCREAMING_CASE const names, so a duplicate value is E0081"
            )]
            #[repr(u8)]
            enum Unique {
                $($name = $value,)*
            }
            $($(#[$doc])* pub const $name: u8 = Unique::$name as u8;)*
        }
    };
}

wire_codes! {
    /// Queue full.
    OVERLOADED = 1,
    /// Source quarantined.
    QUARANTINED = 2,
    /// Deadline exceeded.
    DEADLINE = 3,
    /// Chunk failed validation.
    INVALID_CHUNK = 4,
    /// Malformed frame or request.
    PROTOCOL = 5,
    /// Daemon shutting down.
    SHUTTING_DOWN = 6,
    /// Anything else (durability, solver internals).
    INTERNAL = 7,
    /// This node is a follower; writes must go to the primary.
    NOT_PRIMARY = 8,
    /// Durable locally but the replication quorum was not reached.
    NOT_REPLICATED = 9,
    /// Replication message from a deposed epoch.
    STALE_EPOCH = 10,
    /// Replication frame carried the wrong cluster key.
    UNAUTHENTICATED = 11,
    /// Scatter-gather read missing one or more shard groups.
    DEGRADED = 12,
    /// Shard-routed frame delivered to a member of a different shard.
    WRONG_SHARD = 13,
    /// Shard-routed frame carried a pre-cutover shard-map version.
    STALE_SHARD_MAP = 14,
    /// The node's disk is sticky-failed; it cannot accept writes.
    DISK_DEGRADED = 15,
}

impl ServeError {
    /// Whether this error means the request ran out of *time* — locally
    /// (a socket timeout, a cancelled solve) or at the remote (a typed
    /// `DEADLINE` / `NOT_REPLICATED` refusal) — rather than being
    /// refused outright. This is the class a hedged read fails over on,
    /// and the class the retry log labels `timeout` instead of
    /// `redirect`.
    pub fn is_timeout(&self) -> bool {
        match self {
            Self::DeadlineExceeded | Self::NotReplicated { .. } => true,
            Self::Remote { code, .. } => *code == code::DEADLINE || *code == code::NOT_REPLICATED,
            Self::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }

    /// Whether this error is a routing redirect — a follower refusing a
    /// write, or stale shard-routing state — rather than a failure of
    /// the peer itself. Redirects are not strikes against a peer's
    /// health: the peer answered promptly, just with directions.
    pub fn is_redirect(&self) -> bool {
        match self {
            Self::NotPrimary { .. } | Self::WrongShard { .. } | Self::StaleShardMap { .. } => true,
            Self::Remote { code, .. } => matches!(
                *code,
                code::NOT_PRIMARY | code::WRONG_SHARD | code::STALE_SHARD_MAP
            ),
            _ => false,
        }
    }

    /// The wire code a daemon reports for this error.
    pub fn wire_code(&self) -> u8 {
        match self {
            Self::Overloaded { .. } => code::OVERLOADED,
            Self::Quarantined { .. } => code::QUARANTINED,
            Self::DeadlineExceeded => code::DEADLINE,
            Self::InvalidChunk { .. } => code::INVALID_CHUNK,
            Self::Protocol(_) => code::PROTOCOL,
            Self::ShuttingDown => code::SHUTTING_DOWN,
            Self::NotPrimary { .. } => code::NOT_PRIMARY,
            Self::NotReplicated { .. } => code::NOT_REPLICATED,
            Self::StaleEpoch { .. } => code::STALE_EPOCH,
            Self::Unauthenticated => code::UNAUTHENTICATED,
            Self::Degraded { .. } => code::DEGRADED,
            Self::WrongShard { .. } => code::WRONG_SHARD,
            Self::StaleShardMap { .. } => code::STALE_SHARD_MAP,
            Self::DiskDegraded { .. } => code::DISK_DEGRADED,
            Self::Remote { code, .. } => *code,
            _ => code::INTERNAL,
        }
    }

    /// The typed error a client raises for a daemon's
    /// [`Response::Error`](crate::proto::Response): the inverse of
    /// [`wire_code`](Self::wire_code) for the codes a client acts on,
    /// [`ServeError::Remote`] for the rest.
    pub fn from_wire(c: u8, message: String, hint: Option<u32>) -> Self {
        match c {
            code::OVERLOADED => Self::Overloaded { capacity: 0 },
            code::DEADLINE => Self::DeadlineExceeded,
            code::SHUTTING_DOWN => Self::ShuttingDown,
            code::NOT_PRIMARY => Self::NotPrimary { hint },
            code::DISK_DEGRADED => Self::DiskDegraded { op: "remote disk" },
            _ => Self::Remote { code: c, message },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ServeError::Overloaded { capacity: 64 }
            .to_string()
            .contains("64"));
        assert!(ServeError::Quarantined {
            source: 3,
            until_tick: 99
        }
        .to_string()
        .contains("99"));
        let e = ServeError::InvalidChunk {
            source: Some(2),
            reason: "NaN".into(),
        };
        assert!(e.to_string().contains("source 2"));
    }

    #[test]
    fn cancelled_core_error_becomes_deadline() {
        let e = ServeError::from(CrhError::Cancelled);
        assert!(matches!(e, ServeError::DeadlineExceeded));
        assert_eq!(e.wire_code(), code::DEADLINE);
    }

    #[test]
    fn replication_errors_display_and_code() {
        let e = ServeError::NotReplicated {
            seq: 7,
            acked: 1,
            quorum: 2,
        };
        assert!(e.to_string().contains("1/2"));
        assert_eq!(e.wire_code(), code::NOT_REPLICATED);
        let e = ServeError::NotPrimary { hint: Some(2) };
        assert!(e.to_string().contains("node 2"));
        assert_eq!(e.wire_code(), code::NOT_PRIMARY);
        let e = ServeError::StaleEpoch { got: 1, current: 3 };
        assert!(e.to_string().contains("epoch 1"));
        assert_eq!(e.wire_code(), code::STALE_EPOCH);
        let e = ServeError::Unauthenticated;
        assert!(e.to_string().contains("cluster key"));
        assert_eq!(e.wire_code(), code::UNAUTHENTICATED);
        let e = ServeError::RetriesExhausted {
            attempts: 3,
            log: vec!["a".into(), "connection refused".into()],
        };
        assert!(e.to_string().contains("connection refused"));
        let e = ServeError::SnapshotDirSync {
            dir: "/tmp/x".into(),
            reason: "EIO".into(),
        };
        assert!(e.to_string().contains("EIO"));
    }

    #[test]
    fn shard_errors_display_and_code() {
        let e = ServeError::Degraded {
            missing_shards: vec![1, 3],
        };
        assert!(e.to_string().contains("[1, 3]"));
        assert_eq!(e.wire_code(), code::DEGRADED);
        let e = ServeError::WrongShard { shard: 2, at: 0 };
        assert!(e.to_string().contains("shard 2"));
        assert!(e.to_string().contains("shard 0"));
        assert_eq!(e.wire_code(), code::WRONG_SHARD);
        let e = ServeError::StaleShardMap { got: 1, current: 2 };
        assert!(e.to_string().contains("version 1"));
        assert_eq!(e.wire_code(), code::STALE_SHARD_MAP);
        let e = ServeError::InvalidFaultPlan("drop_prob = 1.5".into());
        assert!(e.to_string().contains("1.5"));
        assert_eq!(e.wire_code(), code::INTERNAL);
    }

    #[test]
    fn disk_degraded_displays_and_codes() {
        let e = ServeError::DiskDegraded { op: "fsync" };
        assert!(e.to_string().contains("fsync"));
        assert!(e.to_string().contains("sticky"));
        assert_eq!(e.wire_code(), code::DISK_DEGRADED);
    }

    #[test]
    fn timeout_and_redirect_classes_are_disjoint_and_cover_remotes() {
        let timeouts = [
            ServeError::DeadlineExceeded,
            ServeError::NotReplicated {
                seq: 1,
                acked: 1,
                quorum: 2,
            },
            ServeError::Remote {
                code: code::DEADLINE,
                message: String::new(),
            },
            ServeError::Io(std::io::Error::from(std::io::ErrorKind::TimedOut)),
            ServeError::Io(std::io::Error::from(std::io::ErrorKind::WouldBlock)),
        ];
        for e in &timeouts {
            assert!(e.is_timeout(), "{e}");
            assert!(!e.is_redirect(), "{e}");
        }
        let redirects = [
            ServeError::NotPrimary { hint: Some(1) },
            ServeError::WrongShard { shard: 1, at: 0 },
            ServeError::StaleShardMap { got: 1, current: 2 },
            ServeError::Remote {
                code: code::NOT_PRIMARY,
                message: String::new(),
            },
        ];
        for e in &redirects {
            assert!(e.is_redirect(), "{e}");
            assert!(!e.is_timeout(), "{e}");
        }
        // a refused connection is neither: the peer is down, not slow
        let e = ServeError::Io(std::io::Error::from(std::io::ErrorKind::ConnectionRefused));
        assert!(!e.is_timeout() && !e.is_redirect());
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = ServeError::from(StreamError::NonFiniteCheckpoint);
        assert!(e.source().is_some());
        assert!(ServeError::DeadlineExceeded.source().is_none());
    }
}
