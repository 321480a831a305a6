//! WAL-shipping replication: a primary streams its log to followers and
//! acknowledges clients only after a quorum has fsync'd.
//!
//! A [`ReplicaNode`] is the transport-agnostic brain of one cluster
//! member. It is driven entirely by three entry points — [`handle`]
//! (an incoming replication frame), [`on_reply`] (the response to a
//! frame this node sent), and [`tick`] (the passage of logical time,
//! which emits the frames to send next) — so the same state machine runs
//! under the deterministic simulated network
//! ([`crate::failover::SimCluster`]) and the real TCP daemon
//! ([`crate::server::HaServer`]).
//!
//! The protocol is a deliberately small Raft-shaped design specialised
//! to the daemon's append-only chunk log:
//!
//! - **Log.** Chunk `seq` numbers are dense (`0, 1, 2, …`). Every node
//!   splits its log into a *folded* prefix (absorbed into [`ServeCore`],
//!   irreversible) and a *staged* tail (fsync'd in a separate staging
//!   WAL, still revocable). `durable = folded + staged`.
//! - **Commit.** The primary folds a chunk only once a quorum of nodes
//!   (itself included) reports the chunk durable *and verified
//!   consistent with its log* — so a fold can never later be
//!   contradicted. Followers fold only up to the commit bound the
//!   primary advertises, clamped to their verified prefix. The node that
//!   staged a client write decides its answer, with deadlines in ticks,
//!   for the daemon and the simulator alike ([`take_decided`]).
//! - **Election.** A follower that misses heartbeats for its (node-id
//!   staggered) timeout campaigns with a proposed `epoch`. Peers grant
//!   at most one campaign per epoch, reporting `(last_epoch, durable)`;
//!   the winner is the best `(last_epoch, durable)` with ties broken by
//!   the *lowest* node id ([`crate::failover::elect`]), which makes the
//!   promotion decision a pure function of the votes. Quorum
//!   intersection then gives the Raft leader-completeness property:
//!   every quorum-acked chunk is in the winner's log.
//! - **Durable election state.** The adopted epoch and the epoch of the
//!   last folded record are persisted atomically (`election.meta`)
//!   *before* any vote grant leaves the node and *before* any fold is
//!   irreversible — Raft's `currentTerm`/`votedFor`/entry-term rules.
//!   A crash-restart therefore can neither re-grant a vote in an epoch
//!   it already voted in nor under-report the election rank of records
//!   it committed.
//! - **Authentication.** Every replication frame carries the shared
//!   [`cluster_key`](ReplicaConfig::cluster_key) and is refused with a
//!   typed `Unauthenticated` error when the key is wrong, so a stray
//!   client that can reach the port cannot depose the primary, force
//!   elections, or inject log records.
//! - **Repair.** A deposed primary's unreplicated staged tail conflicts
//!   with the new primary's shipments at the same sequence numbers; the
//!   follower truncates the stale tail and accepts the authoritative
//!   bytes. A follower too far behind the primary's retention window is
//!   healed by a full snapshot transfer
//!   ([`ServeCore::install_snapshot`]) followed by the retained tail.
//!
//! [`handle`]: ReplicaNode::handle
//! [`on_reply`]: ReplicaNode::on_reply
//! [`tick`]: ReplicaNode::tick
//! [`take_decided`]: ReplicaNode::take_decided

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};

use crh_core::persist::{crc32, Dec, Enc};

use crate::core::{decode_chunk, encode_chunk, validate_claims, ApplyOutcome, ChunkClaim};
use crate::core::{ServeConfig, ServeCore};
use crate::error::ServeError;
use crate::failover::elect;
use crate::health::HealthMap;
use crate::proto::{decode_exact, wire_struct, Request, Response, Wire};
use crate::vfs::Vfs;
use crate::wal::Wal;

/// Sentinel `from` value in a catch-up request meaning "ship me the full
/// snapshot regardless of retention" — the read-repair path after the
/// scrubber quarantined a corrupt local artifact.
const FULL_RESYNC: u64 = u64::MAX;

/// What this node currently believes it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts client writes, assigns sequence numbers, ships the log.
    Primary,
    /// Applies shipped records, serves staleness-bounded reads.
    Follower,
    /// Campaigning after a heartbeat timeout.
    Candidate,
}

/// Cluster-membership and timing knobs for one replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This node's id (ids also break election ties — lower wins).
    pub node_id: u32,
    /// The other members' ids.
    pub peers: Vec<u32>,
    /// Nodes (including the primary) that must hold a chunk durable
    /// before it commits. `1` with no peers degenerates to the
    /// standalone daemon.
    pub quorum: usize,
    /// Ticks between primary heartbeats / replication pushes.
    pub heartbeat_every: u64,
    /// Ticks of primary silence before a follower campaigns.
    pub heartbeat_timeout: u64,
    /// Records the primary retains for follower catch-up; beyond this a
    /// straggler gets a full snapshot instead.
    pub retention_cap: usize,
    /// Records shipped per peer per push.
    pub replicate_window: usize,
    /// Shared cluster key stamped on every replication frame this node
    /// sends and required on every replication frame it accepts, so a
    /// stray client that can reach the port cannot depose the primary,
    /// force elections, or inject log records. Every member of a
    /// cluster must use the same key.
    pub cluster_key: u64,
    /// Ticks between background scrub passes over the node's durable
    /// artifacts (WALs, snapshots, election meta). `0` disables the
    /// scrubber. A corrupt artifact is quarantined and repaired: a
    /// primary rewrites it from its authoritative in-memory state, a
    /// follower re-syncs from the quorum (read-repair).
    pub scrub_every: u64,
}

impl ReplicaConfig {
    /// Sensible defaults for `node_id` in a cluster of `all` ids.
    pub fn new(node_id: u32, all: &[u32]) -> Self {
        let peers: Vec<u32> = all.iter().copied().filter(|&n| n != node_id).collect();
        let quorum = all.len() / 2 + 1;
        Self {
            node_id,
            peers,
            quorum,
            heartbeat_every: 1,
            heartbeat_timeout: 5,
            retention_cap: 64,
            replicate_window: 4,
            cluster_key: 0,
            scrub_every: 0,
        }
    }

    /// Set the shared cluster key (all members must agree).
    pub fn cluster_key(mut self, key: u64) -> Self {
        self.cluster_key = key;
        self
    }

    /// Enable the background scrubber with this tick interval (0 = off).
    pub fn scrub_every(mut self, ticks: u64) -> Self {
        self.scrub_every = ticks;
        self
    }
}

// ---------------------------------------------------------------------
// Durable election state
// ---------------------------------------------------------------------

const META_MAGIC: [u8; 8] = *b"CRHELEC1";

/// The election state that must survive a crash, per Raft's persistence
/// rules: the highest epoch this node has ever adopted *or granted a
/// vote in* (`currentTerm`/`votedFor` — here a grant always bumps the
/// epoch, so one field covers both), and the epoch of the last record
/// folded into the core (the per-entry term of the log head, needed so
/// a restarted node's `(last_epoch, durable)` election rank reflects
/// what it actually committed instead of a conservative zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ElectionMeta {
    epoch: u64,
    last_folded_epoch: u64,
}

impl ElectionMeta {
    /// Load from `path` through the storage seam; a missing file is a
    /// genuinely new node (all zeros), but an unreadable or corrupt one
    /// is a typed refusal — guessing an epoch can grant a double vote.
    fn load(vfs: &Vfs, path: &Path) -> Result<Self, ServeError> {
        if !vfs.exists(path) {
            return Ok(Self::default());
        }
        decode_election_meta(&vfs.read(path)?)
    }

    /// Durably replace the file at `path`: write-to-temp, fsync, atomic
    /// rename, directory fsync (all inside [`Vfs::write_atomic`]) — the
    /// same discipline as snapshots, so a torn write can never surface
    /// as a half-updated epoch.
    fn save(self, vfs: &Vfs, path: &Path) -> Result<(), ServeError> {
        let mut e = Enc::new();
        e.u64(self.epoch);
        e.u64(self.last_folded_epoch);
        let payload = e.into_bytes();
        let mut bytes = Vec::with_capacity(META_MAGIC.len() + 4 + payload.len());
        bytes.extend_from_slice(&META_MAGIC);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        vfs.write_atomic(path, &bytes)
    }
}

/// Decode (and thereby CRC-verify) election-meta bytes.
fn decode_election_meta(bytes: &[u8]) -> Result<ElectionMeta, ServeError> {
    let corrupt = |reason| ServeError::WalCorrupt { offset: 0, reason };
    if bytes.len() < META_MAGIC.len() + 4 || !bytes.starts_with(&META_MAGIC) {
        return Err(corrupt("missing or wrong election meta header"));
    }
    let crc_at = META_MAGIC.len();
    let stored_crc = Dec::new(bytes.get(crc_at..).unwrap_or(&[])).u32()?;
    let payload = bytes.get(crc_at + 4..).unwrap_or(&[]);
    if crc32(payload) != stored_crc {
        return Err(corrupt("election meta CRC mismatch"));
    }
    let mut d = Dec::new(payload);
    let meta = ElectionMeta {
        epoch: d.u64()?,
        last_folded_epoch: d.u64()?,
    };
    if !d.is_exhausted() {
        return Err(corrupt("trailing bytes in election meta"));
    }
    Ok(meta)
}

/// Validate election-meta bytes without exposing the contents (the
/// scrubber's integrity check).
pub(crate) fn verify_election_meta(bytes: &[u8]) -> Result<(), ServeError> {
    decode_election_meta(bytes).map(|_| ())
}

/// One log record: its sequence number, the epoch of the primary that
/// (most recently) shipped it, and the exact WAL payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Staged {
    seq: u64,
    epoch: u64,
    payload: Vec<u8>,
}

wire_struct! { Staged { seq, epoch, payload } }

/// One member of a replicated `crh-serve` cluster. See the module docs
/// for the protocol.
#[derive(Debug)]
pub struct ReplicaNode {
    cfg: ReplicaConfig,
    core: ServeCore,
    /// Durable-but-unfolded log tail, mirrored in `staging`.
    staged: VecDeque<Staged>,
    staging: Wal,
    /// Recent records (folded included) kept for follower catch-up.
    retention: VecDeque<Staged>,
    epoch: u64,
    role: Role,
    leader: Option<u32>,
    /// Highest quorum-committed sequence count (chunks `0..commit`).
    commit: u64,
    /// Prefix verified byte-consistent with the current primary's log
    /// (`== durable` on the primary itself).
    synced: u64,
    /// Epoch of the last folded record, persisted in the election meta
    /// file so a restarted node's election rank still reflects what it
    /// committed (mirrored in [`ElectionMeta::last_folded_epoch`]).
    last_folded_epoch: u64,
    /// Where the durable election state lives (`election.meta` in the
    /// node's state directory).
    meta_path: PathBuf,
    /// The node's state directory (the scrubber's walk root).
    serve_dir: PathBuf,
    /// The storage seam shared with the core (and with the chaos plan).
    vfs: Vfs,
    /// Tick of the last background scrub pass.
    last_scrub: u64,
    /// Set when the scrubber quarantined a local artifact this follower
    /// cannot rebuild from memory: the next catch-up requests a full
    /// snapshot from the primary (read-repair), which rewrites every
    /// durable artifact. Cleared once the snapshot installs.
    repair_resync: bool,
    last_heartbeat: u64,
    last_push: u64,
    /// The primary's advertised durable head (staleness bound for reads).
    primary_head: u64,
    /// Set when a frame revealed records this node is missing; cleared
    /// once the log is contiguous again.
    needs_catchup: bool,
    /// Client writes staged here and not yet answered: `(epoch, seq)` →
    /// the tick at which an unreplicated write times out.
    pending: BTreeMap<(u64, u64), u64>,
    // primary-only (BTreeMap: iteration order feeds frame emission and
    // election maths, which must be deterministic under the simulator)
    match_synced: BTreeMap<u32, u64>,
    next_send: BTreeMap<u32, u64>,
    promote_pending: Vec<u32>,
    /// Per-peer EWMA reply latency (in ticks) feeding the slow-peer
    /// quarantine: the quorum never waits on a straggler, but routing
    /// layers use this to stop *preferring* one.
    peer_health: HealthMap,
    /// Tick at which the oldest still-unanswered frame to each peer was
    /// sent; a reply resolves it into a latency sample.
    sent_at: BTreeMap<u32, u64>,
    // candidate-only
    votes: BTreeMap<u32, (u64, u64)>,
    election_epoch: u64,
    election_deadline: u64,
}

/// What a node reopened from disk recovered.
#[derive(Debug)]
pub struct ReplicaRecovery {
    /// The underlying core's recovery report.
    pub core: crate::core::RecoveryReport,
    /// Staged (durable, unfolded) records recovered from the staging WAL.
    pub staged_records: u64,
}

impl ReplicaNode {
    /// Open (or create) a replica over the state directory in `serve`.
    /// The node rejoins as a follower at its *persisted* epoch — never
    /// lower, so it can neither re-grant a vote in an epoch it already
    /// voted in nor under-report the epoch of records it folded.
    pub fn open(
        cfg: ReplicaConfig,
        serve: ServeConfig,
    ) -> Result<(Self, ReplicaRecovery), ServeError> {
        let vfs = serve.vfs.clone();
        let serve_dir = serve.dir.clone();
        let staging_path = serve_dir.join("staging.wal");
        let meta_path = serve_dir.join("election.meta");
        let (core, core_report) = ServeCore::open(serve)?;
        let (mut staging, rec) = Wal::open(&staging_path, &vfs)?;
        let meta = ElectionMeta::load(&vfs, &meta_path)?;

        // Keep only the contiguous staged tail that extends the folded
        // prefix; anything else (already folded, or beyond a gap torn by
        // a crash mid-rebuild) is dropped and the file rewritten.
        let mut staged: VecDeque<Staged> = VecDeque::new();
        let mut expected = core.chunks_seen();
        let mut dropped = false;
        for bytes in &rec.records {
            let s = decode_exact(bytes, "staging record", Staged::dec)?;
            if s.seq < expected {
                dropped = true;
                continue;
            }
            if s.seq > expected {
                dropped = true;
                break;
            }
            expected += 1;
            staged.push_back(s);
        }
        if dropped {
            staging.truncate_all()?;
            for s in &staged {
                staging.append(&s.to_wire())?;
            }
        }

        let staged_records = staged.len() as u64;
        let commit = core.chunks_seen();
        let node = Self {
            retention: staged.iter().cloned().collect(),
            synced: commit,
            commit,
            staged,
            staging,
            core,
            epoch: meta.epoch,
            role: Role::Follower,
            leader: None,
            last_folded_epoch: meta.last_folded_epoch,
            meta_path,
            serve_dir,
            vfs,
            last_scrub: 0,
            repair_resync: false,
            last_heartbeat: 0,
            last_push: 0,
            primary_head: 0,
            needs_catchup: false,
            pending: BTreeMap::new(),
            match_synced: BTreeMap::new(),
            next_send: BTreeMap::new(),
            promote_pending: Vec::new(),
            peer_health: HealthMap::default(),
            sent_at: BTreeMap::new(),
            votes: BTreeMap::new(),
            election_epoch: 0,
            election_deadline: 0,
            cfg,
        };
        Ok((
            node,
            ReplicaRecovery {
                core: core_report,
                staged_records,
            },
        ))
    }

    // ---- accessors -----------------------------------------------------

    /// This node's id.
    pub fn node_id(&self) -> u32 {
        self.cfg.node_id
    }

    /// The shared secret every trusted frame must carry.
    pub fn cluster_key(&self) -> u64 {
        self.cfg.cluster_key
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Chunks known quorum-committed (`0..commit`).
    pub fn commit(&self) -> u64 {
        self.commit
    }

    /// Chunks durable on this node (folded + staged).
    pub fn durable(&self) -> u64 {
        self.core.chunks_seen() + self.staged.len() as u64
    }

    /// Where a rejected client should try instead, if known.
    pub fn leader_hint(&self) -> Option<u32> {
        self.leader.filter(|&l| l != self.cfg.node_id)
    }

    /// Staleness bound for reads served here: how many chunks this node
    /// lags the primary's last advertised durable head (0 on a primary).
    pub fn lag(&self) -> u64 {
        if self.role == Role::Primary {
            0
        } else {
            self.primary_head.saturating_sub(self.core.chunks_seen())
        }
    }

    /// The folded truth-discovery state (for reads).
    pub fn core(&self) -> &ServeCore {
        &self.core
    }

    /// Wait for the core's snapshot generation in flight, if any.
    pub(crate) fn finish_snapshot(&mut self) -> Result<(), ServeError> {
        self.core.finish_generation()
    }

    /// Per-peer reply-latency scores (EWMA / p95 / quarantine state),
    /// sampled from the replication traffic this node already sends.
    pub fn peer_health(&self) -> &HealthMap {
        &self.peer_health
    }

    /// How many cluster members are known to hold chunk `seq` durable
    /// and leader-consistent (this node's own log included).
    fn ack_count(&self, seq: u64) -> usize {
        let own = usize::from(self.synced > seq);
        own + self
            .cfg
            .peers
            .iter()
            .filter(|p| self.match_synced.get(p).is_some_and(|&m| m > seq))
            .count()
    }

    /// Force a snapshot of the folded state (clean-shutdown path).
    pub fn snapshot_now(&mut self) -> Result<(), ServeError> {
        self.core.snapshot_now()
    }

    /// Seed a *virgin* member of a freshly-split shard group with the
    /// donor's committed state: install the snapshot (if any), fold each
    /// committed record, and adopt the result as this node's durable,
    /// quorum-committed prefix. Returns the seeded head.
    ///
    /// Refused with a typed error once the node holds any state — a
    /// split stages strictly before the new group serves its first
    /// write, so a crash mid-seed leaves a partially-seeded core the
    /// coordinator simply wipes and re-stages (the cutover record is
    /// written only after every member acked its seed).
    pub fn seed_split(
        &mut self,
        snapshot: Option<&[u8]>,
        records: &[Vec<u8>],
    ) -> Result<u64, ServeError> {
        if self.durable() != 0 || self.commit != 0 {
            return Err(ServeError::Protocol(format!(
                "split-stage refused: node {} already holds state (durable {}, committed {})",
                self.cfg.node_id,
                self.durable(),
                self.commit
            )));
        }
        if let Some(snap) = snapshot {
            self.core.install_snapshot(snap)?;
        }
        for payload in records {
            match self.core.apply_replicated(payload)? {
                ApplyOutcome::Applied(_) | ApplyOutcome::AlreadyApplied => {}
                ApplyOutcome::Gap { expected } => {
                    return Err(ServeError::Protocol(format!(
                        "gap in split-stage records: expected seq {expected}"
                    )));
                }
            }
        }
        let head = self.core.chunks_seen();
        self.synced = head;
        self.commit = head;
        self.primary_head = head;
        Ok(head)
    }

    /// Digest of the folded state (replica-divergence checks).
    pub fn state_digest(&self) -> u64 {
        self.core.state_digest()
    }

    /// The epoch of this node's newest durable record (its election
    /// rank, together with [`durable`](Self::durable)). Derived from the
    /// staged tail when there is one, else from the persisted epoch of
    /// the last folded record — so it survives restarts.
    pub fn last_epoch(&self) -> u64 {
        self.staged
            .back()
            .map_or(self.last_folded_epoch, |s| s.epoch)
    }

    /// Whether the write this node staged at `seq` while primary in
    /// `epoch` is committed and still this primary's to vouch for.
    fn ack_safe(&self, seq: u64, epoch: u64) -> bool {
        self.role == Role::Primary && self.epoch == epoch && seq < self.commit
    }

    /// Durably record the current `(epoch, last_folded_epoch)` pair.
    /// Every call site completes this *before* releasing a frame or
    /// reply that acts on the new value — the Raft persistence rule for
    /// `currentTerm`/`votedFor`.
    fn persist_meta(&self) -> Result<(), ServeError> {
        ElectionMeta {
            epoch: self.epoch,
            last_folded_epoch: self.last_folded_epoch,
        }
        .save(&self.vfs, &self.meta_path)
    }

    fn election_timeout(&self) -> u64 {
        // deterministic node-id stagger: lower ids campaign first, so
        // concurrent elections are the exception, not the rule
        self.cfg.heartbeat_timeout + 2 * u64::from(self.cfg.node_id)
    }

    // ---- client path ---------------------------------------------------

    /// Accept a client chunk: validate, assign the next sequence number,
    /// stage it durably and keep it pending until tick `deadline`. An
    /// `Err` means nothing was staged; else the `(epoch, seq)` key names
    /// the write in [`take_decided`](Self::take_decided).
    pub fn client_ingest(
        &mut self,
        claims: &[ChunkClaim],
        deadline: u64,
    ) -> Result<(u64, u64), ServeError> {
        if self.role != Role::Primary {
            return Err(ServeError::NotPrimary {
                hint: self.leader_hint(),
            });
        }
        if claims.is_empty() {
            return Err(ServeError::InvalidChunk {
                source: None,
                reason: "empty chunk".into(),
            });
        }
        validate_claims(self.core.schema(), claims)
            .map_err(|(source, reason)| ServeError::InvalidChunk { source, reason })?;
        let seq = self.durable();
        let entry = Staged {
            seq,
            epoch: self.epoch,
            payload: encode_chunk(seq, claims),
        };
        self.staging
            .append(&entry.to_wire())
            .map_err(|e| self.depose_if_degraded(e))?;
        self.push_retention(entry.clone());
        self.staged.push_back(entry);
        self.synced = seq + 1;
        let key = (self.epoch, seq);
        self.pending.insert(key, deadline);
        // staged: from here the pending write answers the client, so a failed
        // fold only deposes a degraded primary
        self.advance_commit()
            .map_err(|e| self.depose_if_degraded(e))
            .ok();
        Ok(key)
    }

    /// Drain the pending client writes whose answer is now decided,
    /// keyed by `(epoch, seq)`; call it after every state change. The
    /// ack condition is `ack_safe`, not bare commit: if this node is
    /// deposed during the wait, its staged record is truncated and the
    /// new primary may commit *different* bytes at the same sequence.
    /// Acking would report a discarded write as durable, so a deposed
    /// node answers `NotPrimary` and the client retries against the new
    /// primary. Once `now` reaches the deadline (or on `stopping`), the
    /// record is durable here but the client must treat it as un-acked:
    /// `NotReplicated`.
    pub fn take_decided(
        &mut self,
        now: u64,
        stopping: bool,
    ) -> Vec<((u64, u64), Result<Response, ServeError>)> {
        let mut decided = Vec::new();
        for ((epoch, seq), deadline) in std::mem::take(&mut self.pending) {
            let answer = if self.ack_safe(seq, epoch) {
                Ok(Response::Ack {
                    seq,
                    chunks_seen: self.commit,
                })
            } else if self.role != Role::Primary || self.epoch != epoch {
                Err(ServeError::NotPrimary {
                    hint: self.leader_hint(),
                })
            } else if stopping || now >= deadline {
                Err(ServeError::NotReplicated {
                    seq,
                    acked: self.ack_count(seq),
                    quorum: self.cfg.quorum,
                })
            } else {
                self.pending.insert((epoch, seq), deadline);
                continue;
            };
            decided.push(((epoch, seq), answer));
        }
        decided
    }

    // ---- time ----------------------------------------------------------

    /// Advance logical time to `now` and return the frames to send.
    pub fn tick(&mut self, now: u64) -> Result<Vec<(u32, Request)>, ServeError> {
        let mut out = Vec::new();
        if self.cfg.scrub_every > 0 && now.saturating_sub(self.last_scrub) >= self.cfg.scrub_every {
            self.last_scrub = now;
            // Scrub failures are advisory (the pass re-runs next interval),
            // but a dying disk discovered here must still depose a primary.
            if let Err(e) = self.scrub_and_repair() {
                let _ = self.depose_if_degraded(e);
            }
        }
        // Gray analogue of `depose_if_degraded`: a primary whose disk
        // still answers but has turned chronically slow would drag every
        // quorum ack behind its own fsyncs. Step aside so a healthy
        // replica wins the next election (`start_election` refuses to
        // campaign while slow, so this node cannot immediately win it
        // back).
        if self.role == Role::Primary && self.vfs.is_slow() {
            self.step_down(None);
        }
        match self.role {
            Role::Primary => {
                for p in std::mem::take(&mut self.promote_pending) {
                    out.push((
                        p,
                        Request::Promote {
                            token: self.cfg.cluster_key,
                            epoch: self.epoch,
                            node: self.cfg.node_id,
                            head: self.durable(),
                        },
                    ));
                }
                if now.saturating_sub(self.last_push) >= self.cfg.heartbeat_every {
                    self.last_push = now;
                    for &p in &self.cfg.peers {
                        // the oldest unanswered frame per peer anchors
                        // its latency sample; re-sends don't reset it,
                        // so a straggler's score reflects how long its
                        // *first* chance to reply has been outstanding
                        self.sent_at.entry(p).or_insert(now);
                        let from = *self.next_send.get(&p).unwrap_or(&self.commit);
                        let recs = self.retained_from(from, self.cfg.replicate_window);
                        if recs.is_empty() {
                            out.push((
                                p,
                                Request::Heartbeat {
                                    token: self.cfg.cluster_key,
                                    epoch: self.epoch,
                                    node: self.cfg.node_id,
                                    commit: self.commit,
                                    head: self.durable(),
                                },
                            ));
                        } else {
                            for s in recs {
                                out.push((
                                    p,
                                    Request::Replicate {
                                        token: self.cfg.cluster_key,
                                        epoch: self.epoch,
                                        node: self.cfg.node_id,
                                        seq: s.seq,
                                        commit: self.commit,
                                        record: s.payload,
                                    },
                                ));
                            }
                        }
                    }
                }
            }
            Role::Follower => {
                if self.needs_catchup {
                    if let Some(l) = self.leader_hint() {
                        let from = if self.repair_resync {
                            FULL_RESYNC
                        } else {
                            self.synced
                        };
                        out.push((
                            l,
                            Request::CatchUp {
                                token: self.cfg.cluster_key,
                                epoch: self.epoch,
                                from,
                            },
                        ));
                    }
                }
                if now.saturating_sub(self.last_heartbeat) > self.election_timeout() {
                    self.start_election(now, &mut out)?;
                }
            }
            Role::Candidate => {
                if now >= self.election_deadline {
                    self.start_election(now, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    // ---- incoming frames -----------------------------------------------

    /// Process one replication frame from peer `from` at time `now`.
    /// Frames carrying the wrong cluster key are refused before any
    /// state is touched; non-replication frames get a typed protocol
    /// error.
    pub fn handle(&mut self, from: u32, req: &Request, now: u64) -> Response {
        match req {
            Request::Replicate { token, .. }
            | Request::Heartbeat { token, .. }
            | Request::CatchUp { token, .. }
            | Request::Promote { token, .. }
            | Request::SeqQuery { token, .. }
                if *token != self.cfg.cluster_key =>
            {
                return Response::from_error(&ServeError::Unauthenticated);
            }
            _ => {}
        }
        let result = match req {
            Request::Replicate {
                epoch,
                node,
                seq,
                commit,
                record,
                ..
            } => {
                debug_assert_eq!(*node, from, "frame relayed from the wrong peer");
                self.on_replicate(from, *epoch, *seq, *commit, record, now)
            }
            Request::Heartbeat {
                epoch,
                node,
                commit,
                head,
                ..
            } => {
                debug_assert_eq!(*node, from, "frame relayed from the wrong peer");
                self.on_heartbeat(from, *epoch, *commit, *head, now)
            }
            Request::CatchUp {
                epoch, from: seq, ..
            } => return self.on_catch_up(*epoch, *seq),
            Request::Promote {
                epoch, node, head, ..
            } => self.on_promote(*epoch, *node, *head, now),
            Request::SeqQuery { epoch, .. } => return self.on_seq_query(*epoch, now),
            _ => Err(ServeError::Protocol(
                "client frame routed to the replication handler".into(),
            )),
        };
        match result {
            Ok(()) => self.ack(),
            Err(e) => Response::from_error(&e),
        }
    }

    fn ack(&self) -> Response {
        Response::ReplAck {
            node: self.cfg.node_id,
            epoch: self.epoch,
            durable: self.synced,
            last_epoch: self.last_epoch(),
        }
    }

    /// Accept `from` as the epoch-`epoch` leader, or refuse with
    /// `StaleEpoch`. Same-epoch primary/primary conflicts resolve to the
    /// lower node id.
    fn observe_leader(&mut self, from: u32, epoch: u64, now: u64) -> Result<(), ServeError> {
        if epoch < self.epoch
            || (epoch == self.epoch && self.role == Role::Primary && self.cfg.node_id < from)
        {
            return Err(ServeError::StaleEpoch {
                got: epoch,
                current: self.epoch,
            });
        }
        if epoch > self.epoch || self.leader != Some(from) || self.role != Role::Follower {
            let adopted = epoch > self.epoch;
            self.epoch = epoch;
            self.step_down(Some(from));
            // the verified prefix must be re-established per leader; the
            // folded prefix is committed and therefore always consistent
            self.synced = self.core.chunks_seen();
            if adopted {
                // durable before the ack leaves: a restart must never
                // regress the epoch and re-enable a vote below it
                self.persist_meta()?;
            }
        }
        self.last_heartbeat = now;
        Ok(())
    }

    fn step_down(&mut self, leader: Option<u32>) {
        self.role = Role::Follower;
        self.leader = leader;
        self.votes.clear();
        self.match_synced.clear();
        self.next_send.clear();
        self.promote_pending.clear();
        // drop in-flight latency anchors: a reply drifting in after a
        // later re-promotion must not be scored against this reign
        self.sent_at.clear();
    }

    /// A primary whose disk has latched sticky-bad can no longer make
    /// writes durable, so it must stop acking and get out of the way:
    /// self-depose so a healthy replica wins the next election. The error
    /// is passed through either way — the caller's write still failed.
    fn depose_if_degraded(&mut self, e: ServeError) -> ServeError {
        if matches!(e, ServeError::DiskDegraded { .. }) && self.role == Role::Primary {
            self.step_down(None);
        }
        e
    }

    /// Walk every durable artifact in this node's state directory and
    /// verify its CRCs ([`crate::scrub::scrub_dir`]); repair whatever is
    /// corrupt. Artifacts rebuildable from memory (election meta, the
    /// staging log, and — on a primary — the core's WAL/snapshots via a
    /// fresh checkpoint) are rewritten in place; anything a follower
    /// cannot rebuild locally is quarantined and flagged for a full
    /// snapshot re-sync from the quorum (read-repair). Runs on the tick
    /// cadence set by [`ReplicaConfig::scrub_every`]; also callable
    /// directly by tests and operators.
    pub fn scrub_and_repair(&mut self) -> Result<crate::scrub::ScrubReport, ServeError> {
        // a snapshot generation in flight renames the files this walks
        self.finish_snapshot()?;
        let report = crate::scrub::scrub_dir(&self.serve_dir, &self.vfs)?;
        let mut rewrite_meta = false;
        let mut rewrite_staging = false;
        let mut rewrite_core = false;
        for f in &report.findings {
            let name = f.path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            match name {
                "election.meta" => {
                    // no open handle: safe to quarantine, then rewrite
                    // from the authoritative in-memory election state
                    crate::scrub::quarantine(&self.vfs, &f.path)?;
                    rewrite_meta = true;
                }
                // the staging WAL has an open handle — quarantining
                // (renaming) it would redirect that handle to the
                // quarantine file; rebuild it in place instead
                "staging.wal" => rewrite_staging = true,
                // likewise the live ingest WAL is owned (and held open)
                // by the core; retiring it is the core's job — a fresh
                // checkpoint rotates it away
                "ingest.wal" => rewrite_core = true,
                "snapshot.crh" | "snapshot.prev.crh" | "ingest.sealed.wal" | "ingest.prev.wal" => {
                    crate::scrub::quarantine(&self.vfs, &f.path)?;
                    rewrite_core = true;
                }
                _ => {} // already-quarantined debris, tmp files, unknowns
            }
        }
        if rewrite_meta {
            self.persist_meta()?;
        }
        if rewrite_staging {
            self.rebuild_staging()?;
        }
        if rewrite_core {
            if self.role == Role::Primary {
                // the primary's memory is authoritative: a fresh
                // checkpoint rewrites the snapshot and rotates the WAL,
                // retiring every corrupt core artifact
                self.core.snapshot_now()?;
            } else {
                // a follower's memory may trail the quorum — pull the
                // full folded state from the primary instead
                self.repair_resync = true;
                self.needs_catchup = true;
            }
        }
        Ok(report)
    }

    fn on_replicate(
        &mut self,
        from: u32,
        epoch: u64,
        seq: u64,
        commit: u64,
        record: &[u8],
        now: u64,
    ) -> Result<(), ServeError> {
        self.observe_leader(from, epoch, now)?;
        self.primary_head = self.primary_head.max(seq + 1);
        self.accept_record(epoch, seq, record)?;
        self.advance_follower_commit(commit)
    }

    fn on_heartbeat(
        &mut self,
        from: u32,
        epoch: u64,
        commit: u64,
        head: u64,
        now: u64,
    ) -> Result<(), ServeError> {
        self.observe_leader(from, epoch, now)?;
        self.primary_head = head;
        if head > self.durable() {
            self.needs_catchup = true;
        }
        self.advance_follower_commit(commit)
    }

    fn on_promote(&mut self, epoch: u64, node: u32, head: u64, now: u64) -> Result<(), ServeError> {
        self.observe_leader(node, epoch, now)?;
        self.primary_head = head;
        if head > self.durable() {
            self.needs_catchup = true;
        }
        Ok(())
    }

    fn on_seq_query(&mut self, epoch: u64, now: u64) -> Response {
        if self.vfs.is_slow() {
            // A slow-disk node sits elections out entirely: it neither
            // campaigns (`start_election`) nor *stands*. Granting with
            // its true rank would make it the winner of every tally it
            // ties (lower-id tie-break) — a winner that never claims the
            // reign, deadlocking the election. Refusing the vote is the
            // conservative direction: the candidate must then reach
            // quorum through fast members only, and any committed record
            // lives on at least one of those. (A sticky-dead disk lands
            // in the same refusal below when the vote write fails.)
            return Response::from_error(&ServeError::DiskDegraded { op: "vote grant" });
        }
        // grant at most one campaign per epoch, and none while the
        // current leader is still audible (pre-vote-style stability)
        let leader_live = self.role == Role::Primary
            || (self.leader.is_some()
                && now.saturating_sub(self.last_heartbeat) <= self.cfg.heartbeat_timeout);
        if epoch <= self.epoch || leader_live {
            return Response::from_error(&ServeError::StaleEpoch {
                got: epoch,
                current: self.epoch,
            });
        }
        self.epoch = epoch;
        self.step_down(None);
        // the grant IS the vote: it must hit disk before the reply, or a
        // crash-restart could grant again in the same epoch (two
        // primaries per epoch). On a failed write, refuse the vote — the
        // in-memory epoch stays bumped, which is only ever conservative.
        if let Err(e) = self.persist_meta() {
            return Response::from_error(&e);
        }
        Response::ReplAck {
            node: self.cfg.node_id,
            epoch: self.epoch,
            durable: self.durable(),
            last_epoch: self.last_epoch(),
        }
    }

    fn on_catch_up(&mut self, epoch: u64, from_seq: u64) -> Response {
        if self.role != Role::Primary {
            return Response::from_error(&ServeError::NotPrimary {
                hint: self.leader_hint(),
            });
        }
        if epoch != self.epoch {
            return Response::from_error(&ServeError::StaleEpoch {
                got: epoch,
                current: self.epoch,
            });
        }
        let base = self.retention.front().map_or(self.durable(), |s| s.seq);
        let (snapshot, from_seq) = if from_seq == FULL_RESYNC {
            // explicit read-repair request: the follower found local rot it
            // cannot rebuild, so ship the full folded state unconditionally
            (Some(self.core.checkpoint_bytes()), self.core.chunks_seen())
        } else if from_seq >= base {
            (None, from_seq)
        } else {
            // the request predates retention: ship the full folded state,
            // then every retained record past it
            (Some(self.core.checkpoint_bytes()), self.core.chunks_seen())
        };
        let records = self
            .retention
            .iter()
            .filter(|s| s.seq >= from_seq)
            .take(self.cfg.retention_cap)
            .map(|s| s.payload.clone())
            .collect();
        Response::CatchUpRecords {
            epoch: self.epoch,
            commit: self.commit,
            snapshot,
            records,
        }
    }

    // ---- replies to frames this node sent ------------------------------

    /// Feed back the response peer `responder` gave to a frame this node
    /// sent (via [`tick`](Self::tick)).
    pub fn on_reply(
        &mut self,
        responder: u32,
        resp: &Response,
        now: u64,
    ) -> Result<(), ServeError> {
        if let Some(t) = self.sent_at.remove(&responder) {
            self.peer_health
                .record(responder, now.saturating_sub(t), now);
        }
        match resp {
            Response::ReplAck {
                node,
                epoch,
                durable,
                last_epoch,
            } => {
                debug_assert_eq!(*node, responder, "reply relayed from the wrong peer");
                // a vote grant echoes the *proposed* epoch — only an
                // epoch beyond what this node has put in play deposes it
                let in_play = if self.role == Role::Candidate {
                    self.epoch.max(self.election_epoch)
                } else {
                    self.epoch
                };
                if *epoch > in_play {
                    self.epoch = *epoch;
                    self.step_down(None);
                    self.persist_meta()?;
                    return Ok(());
                }
                match self.role {
                    Role::Primary => {
                        let m = self.match_synced.entry(responder).or_insert(0);
                        *m = (*m).max(*durable);
                        self.next_send.insert(responder, *durable);
                        self.advance_commit()?;
                    }
                    Role::Candidate => {
                        if *epoch == self.election_epoch {
                            self.votes.insert(responder, (*last_epoch, *durable));
                            self.maybe_win(now)?;
                        }
                    }
                    Role::Follower => {}
                }
            }
            Response::CatchUpRecords {
                epoch,
                commit,
                snapshot,
                records,
            } => {
                if *epoch != self.epoch || self.role != Role::Follower {
                    return Ok(());
                }
                if let Some(snap) = snapshot {
                    self.core.install_snapshot(snap)?;
                    self.staged.clear();
                    self.staging.truncate_all()?;
                    self.retention.clear();
                    self.synced = self.core.chunks_seen();
                    self.commit = self.core.chunks_seen();
                    self.last_folded_epoch = *epoch;
                    self.persist_meta()?;
                    // every durable artifact was just rewritten from the
                    // quorum's state: the read-repair is complete
                    self.repair_resync = false;
                }
                self.needs_catchup = false;
                for r in records {
                    let (seq, _) = decode_chunk(r)?;
                    self.accept_record(*epoch, seq, r)?;
                }
                self.advance_follower_commit(*commit)?;
            }
            Response::Error { code, .. }
                if *code == crate::error::code::STALE_EPOCH && self.role != Role::Follower =>
            {
                // a peer knows a newer epoch than ours; stop acting
                // on stale authority and wait to be taught
                self.step_down(None);
            }
            _ => {}
        }
        Ok(())
    }

    // ---- log maintenance -----------------------------------------------

    /// Integrate the record for `seq` (shipped under `epoch`) into the
    /// staged tail: duplicate deliveries are no-ops, gaps flag catch-up,
    /// and a conflicting stale tail is truncated in favour of the
    /// current primary's bytes.
    fn accept_record(&mut self, epoch: u64, seq: u64, payload: &[u8]) -> Result<(), ServeError> {
        if seq < self.synced {
            return Ok(()); // duplicate of a verified record
        }
        if seq > self.synced {
            self.needs_catchup = true;
            return Ok(());
        }
        let idx = (seq - self.core.chunks_seen()) as usize;
        if let Some(existing) = self.staged.get_mut(idx) {
            if existing.payload == payload {
                existing.epoch = epoch;
                self.synced = seq + 1;
                self.needs_catchup = false;
                return Ok(());
            }
            // stale tail from a deposed primary: truncate it (staging
            // WAL and catch-up retention included) before accepting the
            // authoritative record
            self.staged.truncate(idx);
            self.retention.retain(|s| s.seq < seq);
            self.rebuild_staging()?;
        }
        debug_assert_eq!(idx, self.staged.len());
        let entry = Staged {
            seq,
            epoch,
            payload: payload.to_vec(),
        };
        self.staging.append(&entry.to_wire())?;
        self.push_retention(entry.clone());
        self.staged.push_back(entry);
        self.synced = seq + 1;
        self.needs_catchup = false;
        Ok(())
    }

    fn rebuild_staging(&mut self) -> Result<(), ServeError> {
        self.staging.truncate_all()?;
        for s in &self.staged {
            self.staging.append(&s.to_wire())?;
        }
        Ok(())
    }

    fn push_retention(&mut self, entry: Staged) {
        self.retention.push_back(entry);
        let folded = self.core.chunks_seen();
        while self.retention.len() > self.cfg.retention_cap
            && self.retention.front().is_some_and(|s| s.seq < folded)
        {
            self.retention.pop_front();
        }
    }

    /// Fold staged records into the core up to the commit bound. Only
    /// ever called with `commit <= synced`, so a fold is final.
    fn fold_to_commit(&mut self) -> Result<(), ServeError> {
        // The election rank this fold establishes must be durable
        // *before* the fold is: fold first and crash, and the node
        // restarts holding committed records from epoch E while claiming
        // an older last_epoch — a stale shorter log could then out-rank
        // it and win away quorum-acked writes. Claiming first is safe
        // because the records stay in the staging WAL until the rebuild
        // below, so `last_epoch()` still reports E either way.
        let will_fold =
            (self.commit.saturating_sub(self.core.chunks_seen()) as usize).min(self.staged.len());
        if let Some(tail) = will_fold.checked_sub(1).and_then(|i| self.staged.get(i)) {
            let target = tail.epoch;
            if target != self.last_folded_epoch {
                ElectionMeta {
                    epoch: self.epoch,
                    last_folded_epoch: target,
                }
                .save(&self.vfs, &self.meta_path)?;
            }
        }
        let mut folded = false;
        while self.core.chunks_seen() < self.commit {
            let Some(entry) = self.staged.front() else {
                break;
            };
            debug_assert_eq!(entry.seq, self.core.chunks_seen());
            match self.core.apply_replicated(&entry.payload)? {
                ApplyOutcome::Applied(_) | ApplyOutcome::AlreadyApplied => {}
                ApplyOutcome::Gap { .. } => break,
            }
            if let Some(entry) = self.staged.pop_front() {
                self.last_folded_epoch = entry.epoch;
            }
            folded = true;
        }
        if folded {
            self.rebuild_staging()?;
        }
        Ok(())
    }

    /// Primary: recompute the commit bound as the quorum-th largest
    /// verified-durable count (its own log counts as one vote).
    fn advance_commit(&mut self) -> Result<(), ServeError> {
        let mut counts: Vec<u64> = vec![self.durable()];
        for p in &self.cfg.peers {
            counts.push(*self.match_synced.get(p).unwrap_or(&0));
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let q = self.cfg.quorum.clamp(1, counts.len());
        let candidate = counts.get(q - 1).copied().unwrap_or(0).min(self.durable());
        if candidate > self.commit {
            self.commit = candidate;
        }
        self.fold_to_commit()
    }

    /// Follower: adopt the primary's commit bound, clamped to the
    /// verified prefix (never fold an unverified record).
    fn advance_follower_commit(&mut self, commit: u64) -> Result<(), ServeError> {
        let bounded = commit.min(self.synced);
        if bounded > self.commit {
            self.commit = bounded;
        }
        self.fold_to_commit()
    }

    // ---- elections -----------------------------------------------------

    fn start_election(
        &mut self,
        now: u64,
        out: &mut Vec<(u32, Request)>,
    ) -> Result<(), ServeError> {
        if self.vfs.is_sticky() || self.vfs.is_slow() {
            // A node on a dead disk cannot durably persist a vote or an
            // epoch, so it must never campaign: it stays a read-only
            // follower until the disk (i.e. the process) is replaced.
            // A *slow* disk is the gray version of the same hazard — a
            // primary that wins on it drags every quorum ack behind its
            // own fsyncs, so it sits elections out too.
            self.last_heartbeat = now;
            return Ok(());
        }
        self.role = Role::Candidate;
        self.leader = None;
        self.election_epoch = self.epoch.max(self.election_epoch) + 1;
        self.election_deadline = now + self.election_timeout();
        self.last_heartbeat = now;
        self.votes.clear();
        self.votes
            .insert(self.cfg.node_id, (self.last_epoch(), self.durable()));
        for &p in &self.cfg.peers {
            out.push((
                p,
                Request::SeqQuery {
                    token: self.cfg.cluster_key,
                    epoch: self.election_epoch,
                },
            ));
        }
        self.maybe_win(now)
    }

    fn maybe_win(&mut self, now: u64) -> Result<(), ServeError> {
        if self.role != Role::Candidate || self.votes.len() < self.cfg.quorum {
            return Ok(());
        }
        if elect(&self.votes) == Some(self.cfg.node_id) {
            self.become_primary(now)?;
        }
        Ok(())
    }

    fn become_primary(&mut self, now: u64) -> Result<(), ServeError> {
        self.epoch = self.election_epoch;
        self.role = Role::Primary;
        self.leader = Some(self.cfg.node_id);
        self.synced = self.durable();
        // the won epoch must be durable before the first frame of this
        // reign leaves the node
        self.persist_meta()?;
        // the winner's log is now the authoritative history; staged
        // records are re-shipped (and re-counted towards commit) under
        // the new epoch rather than folded outright, so commitment still
        // always flows through a quorum
        for s in &mut self.staged {
            s.epoch = self.epoch;
        }
        // the re-stamp must reach the staging WAL too, or a restart
        // would recover the tail under its pre-election epochs
        self.rebuild_staging()?;
        self.votes.clear();
        self.match_synced.clear();
        self.sent_at.clear();
        for &p in &self.cfg.peers {
            self.next_send.insert(p, self.commit);
        }
        self.promote_pending = self.cfg.peers.clone();
        self.needs_catchup = false;
        self.last_push = now;
        self.advance_commit()
    }

    fn retained_from(&self, from: u64, cap: usize) -> Vec<Staged> {
        self.retention
            .iter()
            .filter(|s| s.seq >= from)
            .take(cap)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::DiskFaultPlan;
    use crh_core::schema::Schema;
    use crh_core::value::Value;

    #[test]
    fn staging_record_layout_is_pinned() {
        // seq:u64 | epoch:u64 | len:u64 | payload — the on-disk layout
        let s = Staged {
            seq: 7,
            epoch: 3,
            payload: vec![0xAB, 0xCD],
        };
        let bytes = s.to_wire();
        let mut want = Vec::new();
        for word in [7u64, 3, 2] {
            want.extend_from_slice(&word.to_le_bytes());
        }
        want.extend_from_slice(&[0xAB, 0xCD]);
        assert_eq!(bytes, want);
        assert_eq!(
            decode_exact(&bytes, "staging record", Staged::dec).unwrap(),
            s
        );
    }

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_continuous("temperature");
        s.add_continuous("humidity");
        s
    }

    fn dir(tag: &str, node: u32) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("crh_repl_{tag}_{node}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn chunk(step: u64) -> Vec<ChunkClaim> {
        (0..3u32)
            .map(|s| ChunkClaim {
                object: (step % 5) as u32,
                property: (s % 2),
                source: s,
                value: Value::Num(10.0 + step as f64 + f64::from(s) * 0.25),
            })
            .collect()
    }

    fn node(tag: &str, id: u32, all: &[u32]) -> ReplicaNode {
        let d = dir(tag, id);
        ReplicaNode::open(
            ReplicaConfig::new(id, all),
            ServeConfig::new(schema(), 0.5, d),
        )
        .unwrap()
        .0
    }

    #[test]
    fn standalone_quorum_of_one_commits_immediately() {
        let mut n = node("solo", 0, &[0]);
        // no peers: a single open() follower must still self-promote
        let frames = n.tick(100).unwrap();
        assert!(frames.is_empty(), "no peers to talk to: {frames:?}");
        assert_eq!(n.role(), Role::Primary);
        let (_, seq) = n.client_ingest(&chunk(0), u64::MAX).unwrap();
        assert!(seq < n.commit());
        assert_eq!(n.core().chunks_seen(), 1);
    }

    #[test]
    fn follower_rejects_client_writes_with_leader_hint() {
        let mut f = node("hint", 2, &[0, 1, 2]);
        let resp = f.handle(
            0,
            &Request::Heartbeat {
                token: 0,
                epoch: 3,
                node: 0,
                commit: 0,
                head: 0,
            },
            1,
        );
        assert!(
            matches!(resp, Response::ReplAck { epoch: 3, .. }),
            "{resp:?}"
        );
        let err = f.client_ingest(&chunk(0), u64::MAX).unwrap_err();
        assert!(
            matches!(err, ServeError::NotPrimary { hint: Some(0) }),
            "{err}"
        );
    }

    /// Node 0 of `{0, 1}`, elected primary at tick 100, and its follower.
    fn elected_pair(tag: &str) -> (ReplicaNode, ReplicaNode) {
        let mut p = node(tag, 0, &[0, 1]);
        let mut f = node(tag, 1, &[0, 1]);
        // election timeout → self-campaign, probing the peer
        let frames = p.tick(100).unwrap();
        let q = frames
            .iter()
            .find(|(_, r)| matches!(r, Request::SeqQuery { .. }));
        let (_, query) = q.expect("candidate probes its peer");
        let vote = f.handle(0, query, 100);
        p.on_reply(1, &vote, 100).unwrap();
        assert_eq!(p.role(), Role::Primary);
        (p, f)
    }

    /// Tick `p` through `ticks`, delivering every frame to `f` and every
    /// reply back to `p`.
    fn pump(p: &mut ReplicaNode, f: &mut ReplicaNode, ticks: std::ops::Range<u64>) {
        for now in ticks {
            for (dest, req) in p.tick(now).unwrap() {
                assert_eq!(dest, 1);
                let resp = f.handle(0, &req, now);
                p.on_reply(1, &resp, now).unwrap();
            }
        }
    }

    #[test]
    fn replicate_then_commit_folds_on_the_follower() {
        let (mut p, mut f) = elected_pair("ship");
        let (_, seq) = p.client_ingest(&chunk(0), u64::MAX).unwrap();
        assert!(seq >= p.commit(), "quorum of 2 needs the follower");

        // one push/ack round replicates; a second propagates the commit
        pump(&mut p, &mut f, 101..104);
        assert!(seq < p.commit());
        assert_eq!(p.core().chunks_seen(), 1);
        assert_eq!(f.core().chunks_seen(), 1);
        assert_eq!(p.state_digest(), f.state_digest());
    }

    #[test]
    fn stale_epoch_frames_are_rejected() {
        let mut f = node("stale", 1, &[0, 1, 2]);
        f.handle(
            0,
            &Request::Heartbeat {
                token: 0,
                epoch: 5,
                node: 0,
                commit: 0,
                head: 0,
            },
            1,
        );
        let resp = f.handle(
            2,
            &Request::Replicate {
                token: 0,
                epoch: 4,
                node: 2,
                seq: 0,
                commit: 0,
                record: encode_chunk(0, &chunk(0)),
            },
            2,
        );
        match resp {
            Response::Error { code, .. } => {
                assert_eq!(code, crate::error::code::STALE_EPOCH);
            }
            other => panic!("expected stale-epoch error, got {other:?}"),
        }
    }

    #[test]
    fn seq_query_grants_at_most_once_per_epoch() {
        let mut f = node("grant", 2, &[0, 1, 2]);
        // leader long silent (never heard one), so grants are allowed
        let first = f.handle(0, &Request::SeqQuery { token: 0, epoch: 7 }, 50);
        assert!(matches!(first, Response::ReplAck { .. }), "{first:?}");
        let second = f.handle(1, &Request::SeqQuery { token: 0, epoch: 7 }, 50);
        assert!(
            matches!(second, Response::Error { code, .. }
                if code == crate::error::code::STALE_EPOCH),
            "{second:?}"
        );
    }

    #[test]
    fn staged_tail_survives_restart() {
        let all = [0u32, 1];
        let d = dir("restage", 1);
        let serve = ServeConfig::new(schema(), 0.5, &d);
        {
            let (mut f, _) = ReplicaNode::open(ReplicaConfig::new(1, &all), serve.clone()).unwrap();
            // two records arrive but only the first commits
            for seq in 0..2 {
                let r = Request::Replicate {
                    token: 0,
                    epoch: 1,
                    node: 0,
                    seq,
                    commit: 1,
                    record: encode_chunk(seq, &chunk(seq)),
                };
                f.handle(0, &r, seq + 1);
            }
            assert_eq!(f.core().chunks_seen(), 1);
            assert_eq!(f.durable(), 2);
        }
        let (f, rec) = ReplicaNode::open(ReplicaConfig::new(1, &all), serve).unwrap();
        assert_eq!(rec.staged_records, 1, "the unfolded record came back");
        assert_eq!(f.durable(), 2);
        assert_eq!(f.core().chunks_seen(), 1);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn conflicting_stale_tail_is_truncated() {
        let mut f = node("trunc", 1, &[0, 1, 2]);
        // old primary (epoch 1) stages a record that never commits
        let stale = encode_chunk(0, &chunk(7));
        f.handle(
            0,
            &Request::Replicate {
                token: 0,
                epoch: 1,
                node: 0,
                seq: 0,
                commit: 0,
                record: stale.clone(),
            },
            1,
        );
        assert_eq!(f.durable(), 1);
        // new primary (epoch 2) ships different bytes for seq 0
        let fresh = encode_chunk(0, &chunk(8));
        assert_ne!(stale, fresh);
        let resp = f.handle(
            2,
            &Request::Replicate {
                token: 0,
                epoch: 2,
                node: 2,
                seq: 0,
                commit: 1,
                record: fresh.clone(),
            },
            2,
        );
        assert!(
            matches!(resp, Response::ReplAck { durable: 1, .. }),
            "{resp:?}"
        );
        assert_eq!(f.core().chunks_seen(), 1, "authoritative record folded");
        // the folded bytes are the new primary's, not the stale ones
        let mut solo = node("trunc_ref", 9, &[9]);
        solo.tick(100).unwrap();
        solo.client_ingest(&chunk(8), u64::MAX).unwrap();
        assert_eq!(f.state_digest(), solo.state_digest());
    }

    #[test]
    fn vote_grant_survives_restart() {
        let all = [0u32, 1, 2];
        let d = dir("regrant", 2);
        let serve = ServeConfig::new(schema(), 0.5, &d);
        {
            let (mut f, _) = ReplicaNode::open(ReplicaConfig::new(2, &all), serve.clone()).unwrap();
            let first = f.handle(0, &Request::SeqQuery { token: 0, epoch: 7 }, 50);
            assert!(
                matches!(first, Response::ReplAck { epoch: 7, .. }),
                "{first:?}"
            );
        } // crash: the node drops without a clean shutdown
        let (mut f, _) = ReplicaNode::open(ReplicaConfig::new(2, &all), serve).unwrap();
        assert_eq!(f.epoch(), 7, "granted epoch survived the restart");
        // a rival campaigning in the same epoch must NOT get a second
        // grant — that is exactly the two-primaries-per-epoch hazard
        let second = f.handle(1, &Request::SeqQuery { token: 0, epoch: 7 }, 51);
        assert!(
            matches!(second, Response::Error { code, .. }
                if code == crate::error::code::STALE_EPOCH),
            "{second:?}"
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn folded_epoch_survives_restart_for_election_rank() {
        let all = [0u32, 1];
        let d = dir("rank", 1);
        let serve = ServeConfig::new(schema(), 0.5, &d);
        {
            let (mut f, _) = ReplicaNode::open(ReplicaConfig::new(1, &all), serve.clone()).unwrap();
            // an epoch-3 primary ships and commits one record; the
            // follower folds it (nothing left staged)
            let r = Request::Replicate {
                token: 0,
                epoch: 3,
                node: 0,
                seq: 0,
                commit: 1,
                record: encode_chunk(0, &chunk(0)),
            };
            f.handle(0, &r, 1);
            assert_eq!(f.core().chunks_seen(), 1);
            assert_eq!(f.durable(), 1);
            assert_eq!(f.last_epoch(), 3);
        } // crash
        let (f, _) = ReplicaNode::open(ReplicaConfig::new(1, &all), serve).unwrap();
        assert_eq!(
            f.last_epoch(),
            3,
            "election rank must reflect the folded record's epoch, not zero — \
             otherwise a stale shorter log at a higher epoch out-ranks it"
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn ack_safe_only_while_primary_in_the_same_epoch() {
        let mut p = node("acksafe", 0, &[0]);
        p.tick(100).unwrap(); // self-promote (quorum of one)
        let epoch = p.epoch();
        let (_, seq) = p.client_ingest(&chunk(0), u64::MAX).unwrap();
        assert!(seq < p.commit());
        assert!(p.ack_safe(seq, epoch));
        assert!(!p.ack_safe(seq, epoch + 1), "wrong epoch must not ack");
        // a newer primary deposes this node: committed-or-not, the
        // staged write's fate is no longer this node's to vouch for
        p.handle(
            1,
            &Request::Heartbeat {
                token: 0,
                epoch: epoch + 1,
                node: 1,
                commit: 0,
                head: 0,
            },
            101,
        );
        assert_eq!(p.role(), Role::Follower);
        assert!(!p.ack_safe(seq, epoch), "deposed node must not ack");
    }

    #[test]
    fn commit_past_seq_in_the_staged_epoch_acks() {
        let (mut p, mut f) = elected_pair("ack");
        let (epoch, seq) = p.client_ingest(&chunk(0), u64::MAX).unwrap();
        pump(&mut p, &mut f, 101..104);
        assert!(seq < p.commit());
        match p.take_decided(104, false).as_slice() {
            [((e, s), Ok(Response::Ack { seq: acked, .. }))] => {
                assert_eq!((*e, *s, *acked), (epoch, seq, seq));
            }
            other => panic!("expected an ack, got {other:?}"),
        }
    }

    #[test]
    fn deposed_mid_wait_answers_not_primary_despite_the_commit() {
        let (mut p, mut f) = elected_pair("deposed");
        let (epoch, seq) = p.client_ingest(&chunk(0), u64::MAX).unwrap();
        pump(&mut p, &mut f, 101..104);
        p.handle(
            1,
            &Request::Heartbeat {
                token: 0,
                epoch: epoch + 1,
                node: 1,
                commit: 0,
                head: 0,
            },
            10_000,
        );
        assert!(seq < p.commit(), "the commit bound passed seq");
        assert!(matches!(
            p.take_decided(10_000, false).as_slice(),
            [(_, Err(ServeError::NotPrimary { .. }))]
        ));
    }

    #[test]
    fn deadline_with_a_partial_quorum_answers_not_replicated() {
        let (mut p, _f) = elected_pair("partial");
        // staged on the primary only: no follower has acked it yet
        let (_, seq) = p.client_ingest(&chunk(0), 105).unwrap();
        assert!(p.take_decided(104, false).is_empty(), "keep waiting");
        match p.take_decided(105, false).as_slice() {
            [(
                _,
                Err(ServeError::NotReplicated {
                    seq: s,
                    acked,
                    quorum,
                }),
            )] => {
                assert_eq!((*s, *acked, *quorum), (seq, 1, 2));
                assert_eq!((*acked, *quorum), (p.ack_count(seq), p.cfg.quorum));
            }
            other => panic!("expected NotReplicated, got {other:?}"),
        }
    }

    #[test]
    fn wrong_cluster_key_is_rejected_before_any_state_change() {
        let d = dir("auth", 1);
        let (mut f, _) = ReplicaNode::open(
            ReplicaConfig::new(1, &[0, 1, 2]).cluster_key(0xDEAD_BEEF),
            ServeConfig::new(schema(), 0.5, d),
        )
        .unwrap();
        let forged = Request::Heartbeat {
            token: 0,
            epoch: 9,
            node: 0,
            commit: 0,
            head: 0,
        };
        let resp = f.handle(0, &forged, 1);
        assert!(
            matches!(resp, Response::Error { code, .. }
                if code == crate::error::code::UNAUTHENTICATED),
            "{resp:?}"
        );
        assert_eq!(f.epoch(), 0, "forged frame must not move the epoch");
        let genuine = Request::Heartbeat {
            token: 0xDEAD_BEEF,
            epoch: 9,
            node: 0,
            commit: 0,
            head: 0,
        };
        let resp = f.handle(0, &genuine, 2);
        assert!(
            matches!(resp, Response::ReplAck { epoch: 9, .. }),
            "{resp:?}"
        );
    }

    #[test]
    fn corrupt_election_meta_refuses_to_open() {
        let all = [0u32, 1];
        let d = dir("metacorrupt", 1);
        let serve = ServeConfig::new(schema(), 0.5, &d);
        {
            let (mut f, _) = ReplicaNode::open(ReplicaConfig::new(1, &all), serve.clone()).unwrap();
            f.handle(0, &Request::SeqQuery { token: 0, epoch: 4 }, 50);
        }
        let meta = d.join("election.meta");
        let mut bytes = std::fs::read(&meta).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&meta, &bytes).unwrap();
        let err = ReplicaNode::open(ReplicaConfig::new(1, &all), serve).unwrap_err();
        assert!(
            matches!(err, ServeError::WalCorrupt { .. }),
            "guessing an epoch can double-vote: {err}"
        );
        std::fs::remove_dir_all(&d).ok();
    }

    /// A follower whose staging append failed must answer that
    /// `Replicate` with an error: the primary counts a `ReplAck` toward
    /// the quorum, so acking a record that is not on disk can lose a
    /// committed write. The retry then stages the record exactly once.
    #[test]
    fn failed_staging_append_is_refused_and_staged_once_on_retry() {
        let replicate = |seq: u64| Request::Replicate {
            token: 0,
            epoch: 1,
            node: 0,
            seq,
            commit: 0,
            record: encode_chunk(seq, &chunk(seq)),
        };
        for seed in 0..64 {
            // follower 1 of {0, 1} on a disk that injects one transient EIO
            let d = dir(&format!("stagefail_{seed}"), 1);
            let vfs =
                Vfs::faulted(DiskFaultPlan::new(seed).transient_eio(0.05).max_faults(1)).unwrap();
            let serve = ServeConfig::new(schema(), 0.5, &d).vfs(vfs.clone());
            let opened = ReplicaNode::open(ReplicaConfig::new(1, &[0, 1]), serve);
            let Ok((mut f, _)) = opened else {
                std::fs::remove_dir_all(&d).ok();
                continue;
            };
            let heartbeat = Request::Heartbeat {
                token: 0,
                epoch: 1,
                node: 0,
                commit: 0,
                head: 0,
            };
            f.handle(0, &heartbeat, 1);
            for seq in 0..16 {
                if vfs.faults_fired() > 0 {
                    break;
                }
                let resp = f.handle(0, &replicate(seq), 2 + seq);
                if vfs.faults_fired() == 0 {
                    assert!(
                        matches!(resp, Response::ReplAck { durable, .. } if durable == seq + 1),
                        "{resp:?}"
                    );
                    continue;
                }
                // the fault landed in the append of `seq`
                assert!(
                    matches!(resp, Response::Error { .. }),
                    "seed {seed}: acked record {seq} after its append failed: {resp:?}"
                );
                assert_eq!(
                    f.durable(),
                    seq,
                    "seed {seed}: a failed append counts as durable"
                );
                let retry = f.handle(0, &replicate(seq), 100);
                assert!(
                    matches!(retry, Response::ReplAck { durable, .. } if durable == seq + 1),
                    "seed {seed}: the retry was not acked: {retry:?}"
                );
                drop(f);
                let serve = ServeConfig::new(schema(), 0.5, &d);
                let (_, rec) = ReplicaNode::open(ReplicaConfig::new(1, &[0, 1]), serve).unwrap();
                assert_eq!(
                    rec.staged_records,
                    seq + 1,
                    "seed {seed}: record {seq} staged twice"
                );
                std::fs::remove_dir_all(&d).ok();
                return;
            }
            std::fs::remove_dir_all(&d).ok();
        }
        panic!("no seed injected its fault into a staging append");
    }

    /// A fold that fails after the staging append must not refuse the
    /// chunk: it is staged and committed, so an error answer would send
    /// the client to retry a write that is already in the log. Its
    /// pending write answers it instead.
    #[test]
    fn failed_fold_after_staging_is_answered_by_the_pending_write() {
        for seed in 0..64 {
            let d = dir(&format!("foldfail_{seed}"), 0);
            let vfs =
                Vfs::faulted(DiskFaultPlan::new(seed).transient_eio(0.05).max_faults(1)).unwrap();
            let serve = ServeConfig::new(schema(), 0.5, &d).vfs(vfs.clone());
            let opened = ReplicaNode::open(ReplicaConfig::new(0, &[0]), serve);
            let Ok((mut n, _)) = opened else {
                std::fs::remove_dir_all(&d).ok();
                continue;
            };
            // quorum of one: self-promote, then every write commits as
            // soon as it is staged
            if n.tick(100).is_err() || n.role() != Role::Primary || vfs.faults_fired() > 0 {
                std::fs::remove_dir_all(&d).ok();
                continue;
            }
            for step in 0..16 {
                let durable = n.durable();
                let staged = n.client_ingest(&chunk(step), u64::MAX);
                if vfs.faults_fired() == 0 {
                    staged.unwrap();
                    continue;
                }
                if n.durable() == durable {
                    // the fault hit the staging append: refused, nothing staged
                    assert!(staged.is_err(), "seed {seed}: {staged:?}");
                    break;
                }
                let key = staged.unwrap_or_else(|e| {
                    panic!("seed {seed}: staged chunk {step} was refused: {e}")
                });
                let decided = n.take_decided(100, false);
                let acked = decided
                    .iter()
                    .any(|(k, a)| *k == key && matches!(a, Ok(Response::Ack { .. })));
                assert!(acked, "seed {seed}: {decided:?}");
                std::fs::remove_dir_all(&d).ok();
                return;
            }
            std::fs::remove_dir_all(&d).ok();
        }
        panic!("no seed injected its fault after a staging append");
    }

    #[test]
    fn catch_up_beyond_retention_ships_a_snapshot() {
        let mut p = node("snapcat", 0, &[0, 1]);
        // force tiny retention so early records age out
        p.cfg.retention_cap = 2;
        p.cfg.quorum = 1; // commit immediately for this test
        p.tick(100).unwrap();
        assert_eq!(p.role(), Role::Primary);
        for step in 0..6 {
            p.client_ingest(&chunk(step), u64::MAX).unwrap();
        }
        let resp = p.handle(
            1,
            &Request::CatchUp {
                token: 0,
                epoch: p.epoch(),
                from: 0,
            },
            101,
        );
        match resp {
            Response::CatchUpRecords { snapshot, .. } => {
                assert!(snapshot.is_some(), "request predates retention");
            }
            other => panic!("expected catch-up payload, got {other:?}"),
        }
    }
}
