//! Synchronous clients for the daemon protocol.
//!
//! [`Client`] is one request/response round-trip per call over a
//! persistent connection, with a socket timeout so a dead daemon
//! surfaces as a typed error instead of a hang. Wire error codes the
//! client can act on (`Overloaded`, `DeadlineExceeded`, `ShuttingDown`)
//! are mapped back to their [`ServeError`] variants; everything else
//! stays a [`ServeError::Remote`] with the daemon's message attached.
//!
//! [`ClusterClient`] fronts a replicated cluster: it retries transient
//! failures (dead node, follower redirect, commit-quorum timeout) across
//! the member list under a capped-exponential-backoff-with-jitter
//! [`RetryPolicy`], follows `NotPrimary` redirects, and transparently
//! unwraps staleness-bounded [`Response::FollowerRead`] answers. When
//! every attempt fails it returns [`ServeError::RetriesExhausted`]
//! carrying the per-attempt error log.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crh_core::rng::{hash_rng, Rng as _};
use crh_core::value::Truth;

use crate::core::ChunkClaim;
use crate::error::{code, ServeError};
use crate::health::HealthMap;
use crate::proto::{read_frame, write_frame, Request, Response};

/// Status as reported by a remote daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonStatus {
    /// Chunks folded into the model.
    pub chunks_seen: u64,
    /// WAL records since the last snapshot.
    pub wal_records: u64,
    /// Entries in the truth cache.
    pub cached_truths: u64,
    /// Ingest requests queued at the daemon.
    pub queue_depth: u64,
    /// Quarantined sources, ascending.
    pub quarantined: Vec<u32>,
}

/// Result of a remote batch solve.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteSolve {
    /// Converged source weights.
    pub weights: Vec<f64>,
    /// Final objective value.
    pub objective: f64,
    /// Iterations used.
    pub iterations: u64,
}

/// A connected daemon client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect with the given socket timeout (both read and write).
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        Ok(Self { stream })
    }

    /// Re-arm the socket timeout on the live connection (hedged reads
    /// tighten it per-attempt without reconnecting).
    pub(crate) fn set_timeout(&mut self, timeout: Duration) -> Result<(), ServeError> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))?;
        Ok(())
    }

    /// One round-trip with no interpretation of `Response::Error` — the
    /// replication peer senders need the raw frame (a peer's error *is* the
    /// protocol answer, e.g. `StaleEpoch` deposing the sender).
    pub(crate) fn call_raw(&mut self, req: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?;
        Response::decode(&payload)
    }

    fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        let resp = self.call_raw(req)?;
        if let Response::Error {
            code: c,
            message,
            hint,
        } = resp
        {
            return Err(ServeError::from_wire(c, message, hint));
        }
        Ok(resp)
    }

    /// Fold one chunk of claims; returns `(seq, chunks_seen)`.
    pub fn ingest(&mut self, claims: Vec<ChunkClaim>) -> Result<(u64, u64), ServeError> {
        match self.call(&Request::Ingest(claims))? {
            Response::Ack { seq, chunks_seen } => Ok((seq, chunks_seen)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fold one chunk given as CSV rows `object,property_name,source,value`.
    pub fn ingest_csv(&mut self, text: impl Into<String>) -> Result<(u64, u64), ServeError> {
        match self.call(&Request::IngestCsv(text.into()))? {
            Response::Ack { seq, chunks_seen } => Ok((seq, chunks_seen)),
            other => Err(unexpected(&other)),
        }
    }

    /// Read the daemon's current source weights.
    pub fn weights(&mut self) -> Result<Vec<f64>, ServeError> {
        match self.call(&Request::Weights)? {
            Response::Weights(w) => Ok(w),
            other => Err(unexpected(&other)),
        }
    }

    /// Read the cached truth for one (object, property) cell.
    pub fn truth(&mut self, object: u32, property: u32) -> Result<Option<Truth>, ServeError> {
        match self.call(&Request::Truth { object, property })? {
            Response::Truth(t) => Ok(t),
            other => Err(unexpected(&other)),
        }
    }

    /// Read the daemon's operational status.
    pub fn status(&mut self) -> Result<DaemonStatus, ServeError> {
        match self.call(&Request::Status)? {
            Response::Status {
                chunks_seen,
                wal_records,
                cached_truths,
                queue_depth,
                quarantined,
            } => Ok(DaemonStatus {
                chunks_seen,
                wal_records,
                cached_truths,
                queue_depth,
                quarantined,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Run a batch CRH solve on the daemon over ad-hoc claims.
    pub fn solve(
        &mut self,
        tol: f64,
        max_iters: u64,
        claims: Vec<ChunkClaim>,
    ) -> Result<RemoteSolve, ServeError> {
        match self.call(&Request::Solve {
            tol,
            max_iters,
            claims,
        })? {
            Response::Solved {
                weights,
                objective,
                iterations,
            } => Ok(RemoteSolve {
                weights,
                objective,
                iterations,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the daemon to snapshot and exit; returns its final chunk count.
    pub fn shutdown(&mut self) -> Result<u64, ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::Ack { chunks_seen, .. } => Ok(chunks_seen),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> ServeError {
    ServeError::Protocol(format!("unexpected response variant: {resp:?}"))
}

/// Unwrap a possible staleness-bounded follower answer into
/// `(inner, lag)`, surfacing a wrapped error as the typed error itself.
fn unwrap_read(resp: Response) -> Result<(Response, u64), ServeError> {
    match resp {
        Response::FollowerRead { lag, inner } => {
            let inner = Response::decode(&inner)?;
            if let Response::Error {
                code: c,
                message,
                hint,
            } = inner
            {
                return Err(ServeError::from_wire(c, message, hint));
            }
            Ok((inner, lag))
        }
        resp => Ok((resp, 0)),
    }
}

/// Capped exponential backoff with deterministic jitter.
///
/// Attempt `k` sleeps a duration drawn uniformly from
/// `[d/2, d]` where `d = min(base * 2^k, cap)`; the draw comes from the
/// workspace's own [`hash_rng`] keyed on `(seed, k)`, so a given client
/// configuration always produces the same schedule (reproducible chaos
/// tests) while distinct seeds decorrelate competing clients.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries (the first, un-delayed one included).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Jitter seed; clients sharing a seed share a schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before attempt `attempt + 1` (so `backoff(0)`
    /// is the sleep after the first failure).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let uncapped = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX));
        let full = uncapped.min(self.cap).max(Duration::from_nanos(2));
        let nanos = full.as_nanos() as u64;
        let mut rng = hash_rng(self.seed, &[u64::from(attempt)]);
        let jittered = nanos / 2 + rng.next_u64() % (nanos - nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }
}

/// Where the next attempt should go after a retryable failure.
enum Goto {
    /// Same member (transient local condition: overload, quorum wait).
    Same,
    /// Rotate to the next member (dead or shutting-down node).
    Next,
    /// A `NotPrimary` redirect named the primary.
    Node(u32),
}

enum Outcome {
    Done(Response),
    Fatal(ServeError),
    Retry {
        why: String,
        goto: Goto,
        /// Failure class for the attempt log: a stalled member
        /// ("timeout") reads very differently from a healthy one
        /// pointing elsewhere ("redirect") when diagnosing an exhausted
        /// retry loop.
        class: &'static str,
    },
}

/// Failure class of an attempt, for the retry log.
fn classify(e: &ServeError) -> &'static str {
    if e.is_timeout() {
        "timeout"
    } else if e.is_redirect() {
        "redirect"
    } else {
        "error"
    }
}

/// Floor for adaptive per-member socket timeouts: even a member with a
/// microsecond-scale p95 keeps a grace window, so one garbage-collected
/// scheduler pause does not read as a gray failure.
const ADAPTIVE_FLOOR: Duration = Duration::from_millis(50);
/// Multiplier over a member's p95 for its adaptive timeout.
const ADAPTIVE_HEADROOM: u32 = 4;

/// A client for a replicated cluster: transparent failover, primary
/// redirects, and staleness-bounded follower reads.
///
/// Reads may land on a follower; they return the answer *plus* the
/// follower's staleness bound in chunks (0 when the primary answered).
/// Writes that fail transiently — connection refused, `NotPrimary`,
/// `NotReplicated` (commit-quorum timeout), `ShuttingDown` — are retried
/// under the [`RetryPolicy`]; a retried write may be folded twice if the
/// lost ack had in fact committed, exactly like any at-least-once ingest
/// pipeline, which is why callers that need exactly-once feed the daemon
/// idempotent chunk streams.
#[derive(Debug)]
pub struct ClusterClient {
    /// `(node_id, address)` for every member.
    members: Vec<(u32, String)>,
    timeout: Duration,
    policy: RetryPolicy,
    /// Index into `members` to try next.
    next: usize,
    conn: Option<Client>,
    /// Node id of the member that produced the last successful answer.
    last_served: Option<u32>,
    /// Per-member latency scores: every round-trip (success or failure)
    /// is a sample, so a member that turns slow is noticed from normal
    /// traffic, quarantined out of the rotation, and probed back in.
    health: HealthMap,
    /// Client-local clock origin for the health map's time axis.
    epoch: Instant,
}

impl ClusterClient {
    /// A client over `members` (`(node_id, address)` pairs; order is the
    /// rotation order on failover).
    #[expect(
        clippy::disallowed_methods,
        reason = "the client's health clock: its latency samples steer retries and timeouts, never a reply"
    )]
    pub fn new(members: Vec<(u32, String)>, timeout: Duration, policy: RetryPolicy) -> Self {
        assert!(!members.is_empty(), "a cluster needs at least one member");
        Self {
            members,
            timeout,
            policy,
            next: 0,
            conn: None,
            last_served: None,
            health: HealthMap::default(),
            epoch: Instant::now(),
        }
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Per-member latency scores (EWMA / p95 / quarantine state).
    pub fn health(&self) -> &HealthMap {
        &self.health
    }

    /// The next rotation slot, skipping quarantined members unless one
    /// earns a probe (or every member is quarantined — a client with
    /// nothing healthy left still has to try *something*).
    fn next_healthy(&mut self) -> usize {
        let n = self.members.len();
        let now = self.now_ms();
        for step in 1..=n {
            let idx = (self.next + step) % n;
            let Some(&(id, _)) = self.members.get(idx) else {
                continue;
            };
            if !self.health.is_quarantined(id) || self.health.admit(id, now) {
                return idx;
            }
        }
        (self.next + 1) % n
    }

    /// Point the next attempt at member `node_id` (no-op for an unknown
    /// id). The shard router uses this to start writes at the member it
    /// last saw act as primary instead of re-walking the rotation.
    pub fn prefer(&mut self, node_id: u32) {
        if let Some(idx) = self.members.iter().position(|(n, _)| *n == node_id) {
            if idx != self.next {
                self.conn = None;
            }
            self.next = idx;
        }
    }

    /// Node id of the member that produced the last successful answer,
    /// if any request has succeeded yet.
    pub fn last_served(&self) -> Option<u32> {
        self.last_served
    }

    fn try_once(&mut self, req: &Request) -> Outcome {
        let Some((node_id, addr)) = self.members.get(self.next).cloned() else {
            return Outcome::Retry {
                why: format!("member index {} out of range", self.next),
                goto: Goto::Next,
                class: "error",
            };
        };
        if self.conn.is_none() {
            // a member with latency history earns a timeout sized to its
            // own p95 instead of the global worst case, so a straggler
            // surfaces as a fast typed timeout rather than a long stall
            let t = self.health.adaptive_timeout(
                node_id,
                ADAPTIVE_FLOOR,
                self.timeout,
                ADAPTIVE_HEADROOM,
            );
            match Client::connect(&addr, t) {
                Ok(c) => self.conn = Some(c),
                Err(e) => {
                    return Outcome::Retry {
                        class: classify(&e),
                        why: format!("node {node_id} ({addr}): connect failed: {e}"),
                        goto: Goto::Next,
                    };
                }
            }
        }
        let Some(conn) = self.conn.as_mut() else {
            return Outcome::Retry {
                why: format!("node {node_id} ({addr}): connection unavailable"),
                goto: Goto::Next,
                class: "error",
            };
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "client-side latency sample for the member's health record; it sizes timeouts, never a reply"
        )]
        let sent = Instant::now();
        let resp = conn.call_raw(req);
        let latency = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
        let now = self.now_ms();
        self.health.record(node_id, latency, now);
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                return Outcome::Retry {
                    class: classify(&e),
                    why: format!("node {node_id} ({addr}): {e}"),
                    goto: Goto::Next,
                };
            }
        };
        let Response::Error {
            code: c,
            message,
            hint,
        } = resp
        else {
            self.last_served = Some(node_id);
            return Outcome::Done(resp);
        };
        match c {
            // the redirect target rides the wire as a structured field,
            // so rewording the error text can never break failover
            code::NOT_PRIMARY => Outcome::Retry {
                goto: hint.map_or(Goto::Next, Goto::Node),
                why: format!("node {node_id}: {message}"),
                class: "redirect",
            },
            // durable locally but quorum not yet confirmed: the same
            // (possibly re-elected) cluster will accept the retry
            code::NOT_REPLICATED | code::DEADLINE => Outcome::Retry {
                why: format!("node {node_id}: {message}"),
                goto: Goto::Same,
                class: "timeout",
            },
            code::OVERLOADED => Outcome::Retry {
                why: format!("node {node_id}: {message}"),
                goto: Goto::Same,
                class: "error",
            },
            // a dying-disk node has already deposed itself (or is about
            // to); rotate to a member whose disk can still fsync
            code::SHUTTING_DOWN | code::STALE_EPOCH | code::DISK_DEGRADED => Outcome::Retry {
                why: format!("node {node_id}: {message}"),
                goto: Goto::Next,
                class: "error",
            },
            _ => Outcome::Fatal(ServeError::from_wire(c, message, hint)),
        }
    }

    pub(crate) fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        self.call_inner(req, None)
    }

    /// Like [`call`](Self::call), but every attempt carries the client's
    /// *remaining* budget on the wire (the deadline-propagation
    /// envelope): backoff sleeps and failed attempts eat into it, and a
    /// budget that runs out between attempts is a typed
    /// [`ServeError::DeadlineExceeded`] — not another silent retry.
    #[expect(
        clippy::disallowed_methods,
        reason = "a client deadline is wall-clock by contract; the daemon sees only the remaining budget"
    )]
    pub(crate) fn call_with_budget(
        &mut self,
        req: &Request,
        budget: Duration,
    ) -> Result<Response, ServeError> {
        self.call_inner(req, Some(Instant::now() + budget))
    }

    fn call_inner(
        &mut self,
        req: &Request,
        deadline: Option<Instant>,
    ) -> Result<Response, ServeError> {
        let mut log = Vec::new();
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.policy.backoff(attempt - 1));
            }
            let wire = match deadline {
                Some(d) => {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "a client deadline is wall-clock by contract; the daemon sees only the remaining budget"
                    )]
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(ServeError::DeadlineExceeded);
                    }
                    Some(Request::WithDeadline {
                        budget_ms: u64::try_from(left.as_millis()).unwrap_or(u64::MAX).max(1),
                        inner: Box::new(req.clone()),
                    })
                }
                None => None,
            };
            #[expect(
                clippy::disallowed_methods,
                reason = "attempt timing for the retry log; it never changes which reply is returned"
            )]
            let started = Instant::now();
            match self.try_once(wire.as_ref().unwrap_or(req)) {
                Outcome::Done(resp) => return Ok(resp),
                Outcome::Fatal(e) => return Err(e),
                Outcome::Retry { why, goto, class } => {
                    log.push(format!(
                        "[{class} after {}ms] {why}",
                        started.elapsed().as_millis()
                    ));
                    self.conn = None;
                    self.next = match goto {
                        Goto::Same => self.next,
                        Goto::Next => self.next_healthy(),
                        Goto::Node(id) => self
                            .members
                            .iter()
                            .position(|(n, _)| *n == id)
                            .unwrap_or_else(|| self.next_healthy()),
                    };
                }
            }
        }
        Err(ServeError::RetriesExhausted {
            attempts: self.policy.max_attempts,
            log,
        })
    }

    /// Unwrap a possible follower answer into `(inner, lag)`.
    pub(crate) fn read(&mut self, req: &Request) -> Result<(Response, u64), ServeError> {
        unwrap_read(self.call(req)?)
    }

    /// Staleness-bounded read with a tail-latency hedge: one shot at the
    /// preferred member under a tight timeout derived from its own p95;
    /// if that shot times out, the request is re-issued to the next
    /// healthy member under the normal retry loop instead of waiting out
    /// the straggler. Returns `(answer, lag, hedged)` where `hedged`
    /// records whether the tight first attempt had to be abandoned.
    ///
    /// Hedging is restricted to idempotent reads — re-issuing a write
    /// that may still land would double-fold it.
    pub(crate) fn read_hedged(
        &mut self,
        req: &Request,
    ) -> Result<(Response, u64, bool), ServeError> {
        let first = self.members.get(self.next).map(|&(id, _)| id);
        let tight = match first {
            Some(id) if !self.health.is_quarantined(id) => {
                self.health
                    .adaptive_timeout(id, ADAPTIVE_FLOOR, self.timeout, 2)
            }
            // no preferred member worth a tight first shot
            _ => self.timeout,
        };
        if tight >= self.timeout {
            // no latency history (or an unhealthy target): nothing to
            // hedge against, run the plain retry loop
            return self.read(req).map(|(r, lag)| (r, lag, false));
        }
        match self.try_once_with_timeout(req, tight) {
            Ok(resp) => unwrap_read(resp).map(|(r, lag)| (r, lag, false)),
            Err(e) => {
                let hedged = e.is_timeout();
                self.conn = None;
                self.next = self.next_healthy();
                self.read(req).map(|(r, lag)| (r, lag, hedged))
            }
        }
    }

    /// One shot at the current rotation slot under an explicit socket
    /// timeout, with the round-trip recorded as a health sample.
    fn try_once_with_timeout(
        &mut self,
        req: &Request,
        timeout: Duration,
    ) -> Result<Response, ServeError> {
        let (node_id, addr) = self
            .members
            .get(self.next)
            .cloned()
            .ok_or(ServeError::DeadlineExceeded)?;
        // take-then-insert keeps one borrow live and avoids asserting on
        // an Option we just filled
        let conn = match self.conn.take() {
            Some(c) => self.conn.insert(c),
            None => self.conn.insert(Client::connect(&addr, timeout)?),
        };
        conn.set_timeout(timeout)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "client-side latency sample for the member's health record; it sizes timeouts, never a reply"
        )]
        let sent = Instant::now();
        let resp = conn.call_raw(req);
        let latency = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
        let now = self.now_ms();
        self.health.record(node_id, latency, now);
        match resp? {
            Response::Error {
                code: c,
                message,
                hint,
            } => Err(ServeError::from_wire(c, message, hint)),
            resp => {
                self.last_served = Some(node_id);
                Ok(resp)
            }
        }
    }

    /// Fold one chunk; acknowledged only after the commit quorum.
    /// Returns `(seq, committed_chunks)`.
    pub fn ingest(&mut self, claims: Vec<ChunkClaim>) -> Result<(u64, u64), ServeError> {
        match self.call(&Request::Ingest(claims))? {
            Response::Ack { seq, chunks_seen } => Ok((seq, chunks_seen)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fold one chunk under a total client-side budget: every attempt
    /// carries the remaining budget on the wire, so each hop refuses work
    /// it cannot finish instead of doing it for a client that is gone.
    pub fn ingest_with_budget(
        &mut self,
        claims: Vec<ChunkClaim>,
        budget: Duration,
    ) -> Result<(u64, u64), ServeError> {
        match self.call_with_budget(&Request::Ingest(claims), budget)? {
            Response::Ack { seq, chunks_seen } => Ok((seq, chunks_seen)),
            other => Err(unexpected(&other)),
        }
    }

    /// [`truth`](Self::truth) with a tail-latency hedge; the extra `bool`
    /// reports whether the hedge fired.
    pub fn truth_hedged(
        &mut self,
        object: u32,
        property: u32,
    ) -> Result<(Option<Truth>, u64, bool), ServeError> {
        match self.read_hedged(&Request::Truth { object, property })? {
            (Response::Truth(t), lag, hedged) => Ok((t, lag, hedged)),
            (other, ..) => Err(unexpected(&other)),
        }
    }

    /// [`weights`](Self::weights) with a tail-latency hedge; the extra
    /// `bool` reports whether the hedge fired.
    pub fn weights_hedged(&mut self) -> Result<(Vec<f64>, u64, bool), ServeError> {
        match self.read_hedged(&Request::Weights)? {
            (Response::Weights(w), lag, hedged) => Ok((w, lag, hedged)),
            (other, ..) => Err(unexpected(&other)),
        }
    }

    /// [`status`](Self::status) with a tail-latency hedge; the extra
    /// `bool` reports whether the hedge fired.
    pub fn status_hedged(&mut self) -> Result<(DaemonStatus, u64, bool), ServeError> {
        match self.read_hedged(&Request::Status)? {
            (
                Response::Status {
                    chunks_seen,
                    wal_records,
                    cached_truths,
                    queue_depth,
                    quarantined,
                },
                lag,
                hedged,
            ) => Ok((
                DaemonStatus {
                    chunks_seen,
                    wal_records,
                    cached_truths,
                    queue_depth,
                    quarantined,
                },
                lag,
                hedged,
            )),
            (other, ..) => Err(unexpected(&other)),
        }
    }

    /// Current source weights plus the answering node's staleness bound.
    pub fn weights(&mut self) -> Result<(Vec<f64>, u64), ServeError> {
        match self.read(&Request::Weights)? {
            (Response::Weights(w), lag) => Ok((w, lag)),
            (other, _) => Err(unexpected(&other)),
        }
    }

    /// Cached truth for one cell plus the staleness bound.
    pub fn truth(
        &mut self,
        object: u32,
        property: u32,
    ) -> Result<(Option<Truth>, u64), ServeError> {
        match self.read(&Request::Truth { object, property })? {
            (Response::Truth(t), lag) => Ok((t, lag)),
            (other, _) => Err(unexpected(&other)),
        }
    }

    /// Operational status of whichever member answered, plus its lag.
    pub fn status(&mut self) -> Result<(DaemonStatus, u64), ServeError> {
        match self.read(&Request::Status)? {
            (
                Response::Status {
                    chunks_seen,
                    wal_records,
                    cached_truths,
                    queue_depth,
                    quarantined,
                },
                lag,
            ) => Ok((
                DaemonStatus {
                    chunks_seen,
                    wal_records,
                    cached_truths,
                    queue_depth,
                    quarantined,
                },
                lag,
            )),
            (other, _) => Err(unexpected(&other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            seed: 7,
        };
        for k in 0..8 {
            let d = p.backoff(k);
            assert_eq!(d, p.backoff(k), "same (seed, attempt) must repeat");
            let full = (Duration::from_millis(10) * 2u32.pow(k)).min(p.cap);
            assert!(d <= full, "attempt {k}: {d:?} above {full:?}");
            assert!(d >= full / 2, "attempt {k}: {d:?} below half of {full:?}");
        }
        // deep attempts saturate at the cap instead of overflowing
        assert!(p.backoff(63) <= p.cap);
        let other = RetryPolicy { seed: 8, ..p };
        assert!(
            (0..8).any(|k| p.backoff(k) != other.backoff(k)),
            "different seeds should produce different schedules"
        );
    }

    #[test]
    fn not_primary_redirects_carry_a_structured_hint() {
        // the hint survives the wire as a typed field — no string parsing
        let resp = Response::from_error(&ServeError::NotPrimary { hint: Some(2) });
        let resp = Response::decode(&resp.encode()).unwrap();
        let Response::Error {
            code: c,
            message,
            hint,
        } = resp
        else {
            panic!("expected an error response");
        };
        assert_eq!(hint, Some(2));
        let mapped = ServeError::from_wire(c, message, hint);
        assert!(
            matches!(mapped, ServeError::NotPrimary { hint: Some(2) }),
            "{mapped}"
        );
        // and a reworded message cannot break it: the field is authoritative
        let resp = Response::from_error(&ServeError::NotPrimary { hint: None });
        assert!(
            matches!(resp, Response::Error { hint: None, .. }),
            "{resp:?}"
        );
    }

    #[test]
    fn prefer_starts_the_rotation_at_the_named_member() {
        let mut c = ClusterClient::new(
            vec![(10, "127.0.0.1:1".into()), (20, "127.0.0.1:2".into())],
            Duration::from_millis(100),
            RetryPolicy {
                max_attempts: 1,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                seed: 1,
            },
        );
        c.prefer(20);
        let err = c.weights().unwrap_err();
        let ServeError::RetriesExhausted { log, .. } = err else {
            panic!("expected RetriesExhausted");
        };
        assert!(log[0].contains("node 20"), "{log:?}");
        // an unknown id leaves the rotation untouched
        c.prefer(99);
        assert!(c.last_served().is_none());
    }

    #[test]
    fn cluster_client_reports_the_attempt_log_when_every_node_is_down() {
        // ports from the TEST-NET-ish reserved range: nothing listens
        let mut c = ClusterClient::new(
            vec![(0, "127.0.0.1:1".into()), (1, "127.0.0.1:2".into())],
            Duration::from_millis(100),
            RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                seed: 1,
            },
        );
        let err = c.weights().unwrap_err();
        match err {
            ServeError::RetriesExhausted { attempts, log } => {
                assert_eq!(attempts, 3);
                assert_eq!(log.len(), 3);
                assert!(log[0].contains("connect failed"), "{log:?}");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }
}
