//! The write side of a checker over what the chaos suites' clients were
//! told, in the simulator and over TCP. It shares no code with the
//! replication layer: it reads only each submission's answer, the
//! suites' marker cells (`object = 100 + i`) and each settled node's
//! `chunks_seen`.

use crh_serve::error::code;
use crh_serve::{ServeError, SimWrite};

/// What one chunk's client was told about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Told {
    /// `Ack`: the chunk must be folded on every node.
    Acked,
    /// Refused before staging (no seq was assigned): never folded.
    Refused,
    /// Staged, then `NotPrimary`, `NotReplicated` or lost with its node:
    /// folded at most once.
    Indeterminate,
}

impl Told {
    /// Classify a chunk from the write that staged it, if any, and
    /// whether its client was told `Ack`.
    pub fn of(staged: Option<SimWrite>, acked: impl Fn(SimWrite) -> bool) -> Self {
        match staged {
            None => Self::Refused,
            Some(w) if acked(w) => Self::Acked,
            Some(_) => Self::Indeterminate,
        }
    }
}

/// Classify a chunk from what a TCP client was told about it: `Ack` is
/// acked; `NotPrimary`, `NotReplicated`, a timeout, a broken connection
/// or an exhausted retry loop may follow staging (on any attempt), so it
/// is indeterminate; any other typed refusal comes before staging.
impl From<&Result<(u64, u64), ServeError>> for Told {
    fn from(answer: &Result<(u64, u64), ServeError>) -> Self {
        match answer {
            Ok(_) => Self::Acked,
            Err(
                ServeError::NotPrimary { .. }
                | ServeError::NotReplicated { .. }
                | ServeError::DeadlineExceeded
                | ServeError::Io(_)
                | ServeError::RetriesExhausted { .. },
            ) => Self::Indeterminate,
            Err(ServeError::Remote { code: c, .. })
                if matches!(
                    *c,
                    code::NOT_PRIMARY | code::NOT_REPLICATED | code::DEADLINE
                ) =>
            {
                Self::Indeterminate
            }
            Err(_) => Self::Refused,
        }
    }
}

/// One settled node as the checker sees it.
pub struct Settled {
    /// Chunks the node has folded.
    pub chunks_seen: u64,
    /// Whether the node holds each chunk's marker cell, in history
    /// order; `None` for a workload without marker cells, which only
    /// the counting half of the check covers.
    pub markers: Option<Vec<bool>>,
}

/// Check a history of chunk submissions against settled nodes: every
/// acked chunk is on every node, no chunk refused before staging is on
/// any, and each node's `chunks_seen` equals its distinct markers, so no
/// chunk was folded twice. With or without markers, `chunks_seen` must
/// lie between the acked count and the staged count.
pub fn check(history: &[Told], nodes: &[Settled]) -> Result<(), String> {
    let count = |t: Told| history.iter().filter(|&&h| h == t).count() as u64;
    let acked = count(Told::Acked);
    let staged = acked + count(Told::Indeterminate);
    for (n, node) in nodes.iter().enumerate() {
        if let Some(markers) = &node.markers {
            assert_eq!(markers.len(), history.len(), "one marker per submission");
            for (i, (&told, &held)) in history.iter().zip(markers).enumerate() {
                if told == Told::Acked && !held {
                    return Err(format!("acked chunk {i} is missing on node {n}"));
                }
                if told == Told::Refused && held {
                    return Err(format!(
                        "chunk {i} was refused before staging but is folded on node {n}"
                    ));
                }
            }
            let distinct = markers.iter().filter(|&&held| held).count() as u64;
            if node.chunks_seen != distinct {
                return Err(format!(
                    "node {n} folded {} chunks but holds {distinct} distinct markers",
                    node.chunks_seen
                ));
            }
        }
        if !(acked..=staged).contains(&node.chunks_seen) {
            return Err(format!(
                "node {n} folded {} chunks, but {acked} were acked and {staged} staged",
                node.chunks_seen
            ));
        }
    }
    Ok(())
}
