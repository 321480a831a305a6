//! The daemon's state machine: WAL-backed incremental CRH with snapshots,
//! per-source circuit breakers, and seeded fault injection.
//!
//! [`ServeCore`] owns everything that must survive a crash. The ingest
//! path is strictly ordered so that every crash point leaves the disk in
//! a state [`ServeCore::open`] can recover from:
//!
//! 1. breaker gate (quarantined sources rejected before any work)
//! 2. validation (schema type/finiteness/domain checks; strikes on failure)
//! 3. WAL append + fsync — **the commit point**: from here the chunk is
//!    accepted even if the process dies before acking
//! 4. fold into [`ICrhState`]
//! 5. commit the fold: truth-cache update, breaker credit
//! 6. every `snapshot_every` chunks, a new snapshot generation:
//!    - 6a, on the owner thread: wait for the previous generation; cut
//!      the WAL at the boundary (rename `ingest.wal` to
//!      `ingest.sealed.wal`, start a fresh `ingest.wal`); rename
//!      `snapshot.crh` to `snapshot.prev.crh`; encode the payload;
//!    - 6b, on a helper thread: write the new `snapshot.crh` (temp file,
//!      fsync, rename, directory fsync);
//!    - 6c, on the helper: rename `ingest.sealed.wal` to
//!      `ingest.prev.wal`, retiring the log the new snapshot covers.
//!
//! Steps 3 and 4 overlap: a helper thread encodes, writes and fsyncs the
//! record while the owner thread folds, and step 5 waits for the helper
//! to join with `Ok` (chunks too small to pay for the helper run the two
//! steps in order instead). A refused append puts the solver back to its
//! checkpoint from before the fold and leaves no record in the log (the
//! WAL cuts a refused frame off), so the next chunk can take the same
//! sequence number.
//!
//! Chunks go on committing while the snapshot helper runs 6b and 6c;
//! one generation is in flight at a time. The helper thread starts at a
//! cadence, never in [`ServeCore::open`], and is joined by the next
//! cadence, [`snapshot_now`](ServeCore::snapshot_now),
//! [`install_snapshot`](ServeCore::install_snapshot) and drop, so no
//! thread outlives its core. A generation that fails after the commit
//! point does not refuse the chunk: one that cannot start (the cut did
//! not seal, or the thread did not spawn) stays due for the next ingest;
//! one that fails on the helper is redone by the next cadence. A sealed
//! log waits until a durable snapshot covers it: while it exists the
//! next cadence does not cut again, and the live log keeps its records.
//!
//! Durable artifacts are kept in **two generations**, so a corrupt
//! newest snapshot (bit rot, a lying fsync surfacing at power loss)
//! falls back to `snapshot.prev.crh` and bridges the gap by replay.
//! Recovery loads the newest intact snapshot, then replays
//! `ingest.prev.wal`, `ingest.sealed.wal` and `ingest.wal` in that order,
//! skipping every record whose `seq` the snapshot already absorbed, so
//! overlaps never double-fold. For a generation at chunk `n` after one
//! at `m` (and one at `l` before that), the files at each point are:
//!
//! | point | snapshot / prev | prev / sealed / live log | recovery |
//! |---|---|---|---|
//! | before 6a | `m` / `l` | `[l,m)` / — / `[m,n)` | `m` + live |
//! | after the cut | `m` / `l` | `[l,m)` / `[m,n)` / `[n,…)` | `m` + sealed + live |
//! | after 6a | — / `m` | `[l,m)` / `[m,n)` / `[n,…)` | `m` (fallback) + sealed + live |
//! | after 6b | `n` / `m` | `[l,m)` / `[m,n)` / `[n,…)` | `n` + live |
//! | after 6c | `n` / `m` | `[m,n)` / — / `[n,…)` | `n` + live |
//!
//! With the newest snapshot corrupt, the previous one plus every log is
//! complete at each point but "after 6a", where the previous generation
//! is the only snapshot left until 6b lands. A disk whose fsync lies can
//! lose the sealed log's last records after the live log got later ones;
//! recovery then sets the live log aside (see [`RecoveryReport`]).
//!
//! All file I/O flows through the [`Vfs`] seam, which is how the
//! `chaos_disk` suite injects torn writes, bit rot, lying fsyncs, and
//! dying disks underneath this exact code path; the helper works
//! through a detached handle whose fates the owner draws, so seeded
//! runs replay the same faults.
//!
//! An injected crash *poisons* the core — every later call answers
//! [`ServeError::ShuttingDown`] — so chaos tests cannot accidentally keep
//! using state that a real `kill -9` would have destroyed. A refused
//! record the WAL could not cut off poisons it too: a restart would read
//! that record as accepted.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use crh_core::cancel::CancelToken;
use crh_core::ids::{ObjectId, PropertyId, SourceId};
use crh_core::persist::{Dec, Enc, PersistError};
use crh_core::schema::Schema;
use crh_core::session::CrhSession;
use crh_core::table::{Claim, ObservationTable, TruthTable};
use crh_core::value::{Truth, Value};
use crh_stream::{ICrh, ICrhCheckpoint, ICrhState};

use crate::breaker::{BreakerConfig, SourceBreakers};
use crate::error::ServeError;
use crate::faults::{ServeFate, ServeFaultInjector, ServePoint};
use crate::proto::{decode_exact, enc_list, Wire};
use crate::vfs::{OpKind, Vfs};
use crate::wal::{Wal, WalRecovery, WAL_HEADER};

/// Chunks with fewer claims append and fold one after the other on the
/// owner thread: their fold is too short to hide the cost of starting
/// and joining the append helper (about 0.05–0.1 ms per chunk on a
/// 2-core container). Measured there as `ServeCore::ingest` p50 by chunk
/// size, inline → overlapped: 540 claims 0.27–0.31 → 0.34–0.37 ms,
/// 1 080 claims 0.45–0.49 → 0.40–0.42 ms.
const OVERLAP_MIN_CLAIMS: usize = 1024;

/// Magic bytes of a daemon snapshot frame.
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"CRHV";
/// Current snapshot format version.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;

/// One claim as it crosses the wire and the WAL: plain ids plus a value.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkClaim {
    /// The observed object.
    pub object: u32,
    /// The property (index into the daemon's schema).
    pub property: u32,
    /// The claiming source.
    pub source: u32,
    /// The claimed value.
    pub value: Value,
}

impl ChunkClaim {
    /// Convenience constructor for a continuous observation.
    pub fn num(object: u32, property: u32, source: u32, x: f64) -> Self {
        Self {
            object,
            property,
            source,
            value: Value::Num(x),
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The fixed schema every chunk is validated against.
    pub schema: Schema,
    /// I-CRH decay rate `α ∈ [0, 1]`.
    pub alpha: f64,
    /// Directory holding `snapshot.crh` and `ingest.wal`.
    pub dir: PathBuf,
    /// Start a snapshot generation (and cut the WAL) every this many
    /// accepted chunks.
    pub snapshot_every: u64,
    /// Entries kept in the FIFO truth cache.
    pub truth_cache_cap: usize,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Fault injection (disabled in production).
    pub injector: ServeFaultInjector,
    /// Solver kernel threads for ingest and solve: `0` = available
    /// parallelism, `1` = exact sequential path. Results are bit-identical
    /// for every value (the solver's determinism contract), so this only
    /// trades wall clock.
    pub solve_threads: usize,
    /// The storage seam every durable byte flows through. Production
    /// uses the zero-cost passthrough; chaos tests install a seeded
    /// [`DiskFaultPlan`](crate::vfs::DiskFaultPlan).
    pub vfs: Vfs,
}

impl ServeConfig {
    /// Defaults: snapshot every 8 chunks, 4096 cached truths, default
    /// breaker, no fault injection, solver threads = available parallelism.
    pub fn new(schema: Schema, alpha: f64, dir: impl Into<PathBuf>) -> Self {
        Self {
            schema,
            alpha,
            dir: dir.into(),
            snapshot_every: 8,
            truth_cache_cap: 4096,
            breaker: BreakerConfig::default(),
            injector: ServeFaultInjector::disabled(),
            solve_threads: 0,
            vfs: Vfs::passthrough(),
        }
    }

    /// Set the snapshot cadence (min 1).
    pub fn snapshot_every(mut self, n: u64) -> Self {
        self.snapshot_every = n.max(1);
        self
    }

    /// Set the truth-cache capacity (min 1).
    pub fn truth_cache_cap(mut self, n: usize) -> Self {
        self.truth_cache_cap = n.max(1);
        self
    }

    /// Set the breaker tuning.
    pub fn breaker(mut self, b: BreakerConfig) -> Self {
        self.breaker = b;
        self
    }

    /// Install a fault injector (chaos tests only).
    pub fn injector(mut self, i: ServeFaultInjector) -> Self {
        self.injector = i;
        self
    }

    /// Set the solver kernel thread count (`0` = available parallelism,
    /// `1` = exact sequential).
    pub fn solve_threads(mut self, n: usize) -> Self {
        self.solve_threads = n;
        self
    }

    /// Install a storage seam (disk chaos tests only; production keeps
    /// the passthrough default).
    pub fn vfs(mut self, vfs: Vfs) -> Self {
        self.vfs = vfs;
        self
    }
}

/// What [`ServeCore::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot existed and was loaded.
    pub snapshot_loaded: bool,
    /// Chunks the snapshot had already absorbed.
    pub snapshot_chunks: u64,
    /// WAL records re-folded during replay.
    pub wal_replayed: u64,
    /// WAL records skipped because the snapshot already covered them.
    pub wal_skipped: u64,
    /// Log bytes recovery could not replay: torn tails truncated from
    /// the logs, and a live log set aside as `ingest.wal.corrupt`
    /// because a disk whose fsync lied lost the records before it.
    pub torn_bytes: u64,
    /// Whether recovery fell back to the *previous* snapshot generation
    /// because the newest snapshot was corrupt or missing mid-rotation.
    /// The recovered state is still exact (the retired WAL bridges the
    /// gap), but the corruption deserves an operator's attention.
    pub snapshot_fallback: bool,
}

/// Receipt for an accepted chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The sequence number this chunk was assigned (0-based).
    pub seq: u64,
    /// Total chunks folded so far (== `seq + 1`).
    pub chunks_seen: u64,
}

/// A point-in-time operational summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreStatus {
    /// Chunks folded into the model.
    pub chunks_seen: u64,
    /// WAL records since the last snapshot.
    pub wal_records: u64,
    /// Entries in the truth cache.
    pub cached_truths: u64,
    /// Sources currently quarantined.
    pub quarantined: Vec<u32>,
    /// Whether an injected crash has poisoned this core.
    pub poisoned: bool,
}

/// What [`ServeCore::apply_replicated`] did with a shipped record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The record was appended, fsync'd, and folded.
    Applied(IngestReceipt),
    /// The record's sequence was already folded (duplicate delivery).
    AlreadyApplied,
    /// The record skips ahead of this replica's contiguous prefix; the
    /// replica must catch up from `expected` before applying it.
    Gap {
        /// The sequence this replica needs next.
        expected: u64,
    },
}

/// Result of a batch solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Converged source weights.
    pub weights: Vec<f64>,
    /// Final objective value (Eq 1).
    pub objective: f64,
    /// Iterations used.
    pub iterations: u64,
}

/// FIFO-bounded map from (object, property) to the latest truth estimate.
///
/// Insertion order is the eviction order and is persisted verbatim, so a
/// recovered core serves byte-identical snapshots. The truths live in
/// that order, so a snapshot walks them without a lookup per key.
#[derive(Debug, Default)]
struct TruthCache {
    /// Truths in insertion order; the front is evicted first.
    fifo: VecDeque<((u32, u32), Truth)>,
    /// Key → position counted since the cache was created: entry `pos`
    /// sits at `fifo[pos - evicted]`.
    index: BTreeMap<(u32, u32), u64>,
    /// Entries evicted from the front so far.
    evicted: u64,
    cap: usize,
}

impl TruthCache {
    fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            ..Self::default()
        }
    }

    fn insert(&mut self, key: (u32, u32), truth: Truth) {
        match self.index.entry(key) {
            Entry::Occupied(at) => {
                if let Some(slot) = self.fifo.get_mut((*at.get() - self.evicted) as usize) {
                    slot.1 = truth;
                }
            }
            Entry::Vacant(at) => {
                at.insert(self.evicted + self.fifo.len() as u64);
                self.fifo.push_back((key, truth));
                if self.fifo.len() > self.cap {
                    if let Some((old, _)) = self.fifo.pop_front() {
                        self.index.remove(&old);
                        self.evicted += 1;
                    }
                }
            }
        }
    }

    /// The commit half of a fold: cache every truth of `table`.
    fn absorb(&mut self, table: &ObservationTable, truths: &TruthTable) {
        for (eid, truth) in truths.iter() {
            let entry = table.entry(eid);
            self.insert((entry.object.0, entry.property.0), truth.clone());
        }
    }

    fn get(&self, key: &(u32, u32)) -> Option<&Truth> {
        let pos = self.index.get(key)?;
        self.fifo
            .get((pos - self.evicted) as usize)
            .map(|(_, truth)| truth)
    }

    fn iter_fifo(&self) -> impl Iterator<Item = ((u32, u32), &Truth)> {
        self.fifo.iter().map(|(key, truth)| (*key, truth))
    }

    fn len(&self) -> usize {
        self.fifo.len()
    }
}

/// The durable artifacts of a state directory besides the live
/// `ingest.wal` (see the module docs for what each holds).
#[derive(Debug, Clone)]
struct Artifacts {
    snapshot: PathBuf,
    snapshot_prev: PathBuf,
    wal_sealed: PathBuf,
    wal_prev: PathBuf,
}

impl Artifacts {
    fn in_dir(dir: &Path) -> Self {
        Self {
            snapshot: dir.join("snapshot.crh"),
            snapshot_prev: dir.join("snapshot.prev.crh"),
            wal_sealed: dir.join("ingest.sealed.wal"),
            wal_prev: dir.join("ingest.prev.wal"),
        }
    }

    /// Step 6a's second half: retire the current snapshot to the previous
    /// generation. A bare rename: the directory fsync that ends the new
    /// snapshot's write makes it durable, and a crash before that
    /// recovers from whichever name the old snapshot has.
    fn retire_snapshot(&self, vfs: &Vfs) -> Result<(), ServeError> {
        if vfs.exists(&self.snapshot) {
            vfs.rename(&self.snapshot, &self.snapshot_prev)?;
        }
        Ok(())
    }

    /// Steps 6b–6c, the rest of the generation: write the new snapshot
    /// from `payload`, then retire the sealed log it covers. A crash
    /// before the new snapshot lands leaves the previous generation as
    /// the newest intact one, and recovery bridges forward from it
    /// through the kept logs.
    fn write_generation(&self, vfs: &Vfs, payload: &[u8]) -> Result<(), ServeError> {
        self.write_snapshot(vfs, payload)?;
        if vfs.exists(&self.wal_sealed) {
            vfs.rename(&self.wal_sealed, &self.wal_prev)?;
            vfs.sync_parent_dir(&self.wal_prev)?;
        }
        Ok(())
    }

    /// Step 6b: write_frame is tmp + fsync + atomic rename + parent-dir
    /// fsync, so the new snapshot is durable or the old one survives.
    fn write_snapshot(&self, vfs: &Vfs, payload: &[u8]) -> Result<(), ServeError> {
        vfs.write_frame(&self.snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, payload)
    }

    /// The disk operations [`write_generation`](Self::write_generation)
    /// runs on the directory as it stands, in order.
    fn generation_ops(&self, vfs: &Vfs) -> Vec<OpKind> {
        let mut ops = vec![OpKind::Write, OpKind::Sync, OpKind::Meta, OpKind::Meta];
        if vfs.exists(&self.wal_sealed) {
            ops.extend([OpKind::Meta, OpKind::Meta]);
        }
        ops
    }
}

/// The recoverable heart of the daemon.
#[derive(Debug)]
pub struct ServeCore {
    schema: Schema,
    alpha: f64,
    snapshot_every: u64,
    files: Artifacts,
    vfs: Vfs,
    state: ICrhState,
    wal: Wal,
    cache: TruthCache,
    breakers: SourceBreakers,
    injector: ServeFaultInjector,
    /// Logical clock: one tick per ingest attempt (drives the breakers).
    tick: u64,
    /// Ingest attempts on this core instance (drives fault fates).
    attempts: u64,
    poisoned: bool,
    /// A snapshot generation on the cadence could not start after its
    /// chunk was committed; the next ingest retries it.
    snapshot_due: bool,
    /// Solver kernel threads (0 = available parallelism).
    solve_threads: usize,
    /// The snapshot generation being written beside this thread.
    writer: Option<JoinHandle<Result<(), ServeError>>>,
}

impl ServeCore {
    /// Open (or create) a daemon state directory, recovering whatever a
    /// previous incarnation left behind: newest snapshot first, then WAL
    /// replay with snapshot-covered records skipped and torn tails
    /// truncated.
    pub fn open(cfg: ServeConfig) -> Result<(Self, RecoveryReport), ServeError> {
        let vfs = cfg.vfs.clone();
        vfs.create_dir_all(&cfg.dir)?;
        let files = Artifacts::in_dir(&cfg.dir);
        let wal_path = cfg.dir.join("ingest.wal");

        let icrh = ICrh::new(cfg.alpha)?.threads(cfg.solve_threads);
        let mut cache = TruthCache::new(cfg.truth_cache_cap);

        // Recovery ladder: newest snapshot, else the previous generation
        // (corruption or a crash mid-rotation), else fresh. Only typed
        // *corruption* triggers the fallback — a transient I/O error must
        // surface to the caller, not silently rewind a generation.
        let mut snapshot_fallback = false;
        let mut loaded: Option<SnapshotPayload> = None;
        if vfs.exists(&files.snapshot) {
            match read_snapshot(&vfs, &files.snapshot) {
                Ok(ok) => loaded = Some(ok),
                Err(primary_err) if is_corruption(&primary_err) => {
                    if vfs.exists(&files.snapshot_prev) {
                        // map a second corruption back to the primary
                        // error: both generations gone is unrecoverable
                        // here (a replica re-syncs from quorum instead)
                        loaded = Some(
                            read_snapshot(&vfs, &files.snapshot_prev).map_err(|_| primary_err)?,
                        );
                    }
                    // No previous generation means the corrupt snapshot
                    // was the first ever written, and the WAL has rotated
                    // at most once — both generations together still
                    // cover every record from sequence 0, so fresh state
                    // plus full replay is complete. (The replay's
                    // sequence-gap check backstops this: incomplete
                    // coverage is a typed error, never silent loss.)
                    snapshot_fallback = true;
                }
                Err(e) => return Err(e),
            }
        } else if vfs.exists(&files.snapshot_prev) {
            // crash between the generation rename and the new snapshot
            // write: the previous generation is the newest intact one
            loaded = Some(read_snapshot(&vfs, &files.snapshot_prev)?);
            snapshot_fallback = true;
        }
        let (state, snapshot_loaded, snapshot_chunks) = match loaded {
            Some((ckpt, cached)) => {
                let chunks = ckpt.chunks_seen as u64;
                for (key, truth) in cached {
                    cache.insert(key, truth);
                }
                (ICrhState::resume(icrh, ckpt)?, true, chunks)
            }
            None => (icrh.start(), false, 0),
        };

        // Every log in sequence order: the retired one (records between
        // the previous snapshot and the newest), the sealed one (records
        // of a generation whose snapshot may not have landed), then the
        // live one. When the newest snapshot loaded cleanly the retired
        // records are all skipped by sequence — so a corrupt retired log
        // is ignorable debris unless the fallback needs it. The sealed
        // log may hold records no snapshot has, with nothing after them
        // to show the gap, so its corruption is never ignored.
        let mut torn_bytes = 0u64;
        let mut prev_records = Vec::new();
        let sealed = vfs.exists(&files.wal_sealed);
        for (path, needed) in [
            (&files.wal_prev, snapshot_fallback),
            (&files.wal_sealed, true),
        ] {
            if !vfs.exists(path) {
                continue;
            }
            match Wal::open(path, &vfs) {
                Ok((_, rec)) => {
                    torn_bytes += rec.truncated_bytes;
                    prev_records.extend(rec.records);
                }
                Err(e) if needed || !is_corruption(&e) => return Err(e),
                Err(_) => {}
            }
        }
        let (
            wal,
            WalRecovery {
                records,
                truncated_bytes,
            },
        ) = Wal::open(&wal_path, &vfs)?;
        torn_bytes += truncated_bytes;

        let mut core = Self {
            schema: cfg.schema,
            alpha: cfg.alpha,
            snapshot_every: cfg.snapshot_every.max(1),
            files,
            vfs,
            state,
            wal,
            cache,
            breakers: SourceBreakers::new(cfg.breaker),
            injector: cfg.injector,
            tick: 0,
            attempts: 0,
            poisoned: false,
            snapshot_due: false,
            solve_threads: cfg.solve_threads,
            writer: None,
        };

        let mut counts = (0, 0);
        core.replay(&prev_records, &mut counts)?;
        // A disk whose fsync lies can lose the sealed log's last records
        // while the live log, a file of its own since the cut, keeps
        // later ones. Those can never fold: set the live log aside as
        // evidence and go on from the prefix the sealed log holds. On an
        // honest disk every sealed record was durable before the cut.
        let first_live = records.first().map(|r| decode_chunk(r)).transpose()?;
        let stranded = sealed && first_live.is_some_and(|(seq, _)| seq > core.chunks_seen());
        if stranded {
            torn_bytes += core.wal.len_bytes() - WAL_HEADER.len() as u64;
            crate::scrub::quarantine(&core.vfs, &wal_path)?;
            core.wal = Wal::open(&wal_path, &core.vfs)?.0;
        } else {
            core.replay(&records, &mut counts)?;
        }
        let (replayed, skipped) = counts;

        Ok((
            core,
            RecoveryReport {
                snapshot_loaded,
                snapshot_chunks,
                wal_replayed: replayed,
                wal_skipped: skipped,
                torn_bytes,
                snapshot_fallback,
            },
        ))
    }

    /// Fold the logged chunk records in `payloads` in order, skipping
    /// those the state already absorbed; `counts` tallies (replayed,
    /// skipped). A record past the next sequence number is a typed gap.
    fn replay(&mut self, payloads: &[Vec<u8>], counts: &mut (u64, u64)) -> Result<(), ServeError> {
        for payload in payloads {
            let (seq, claims) = decode_chunk(payload)?;
            let applied = self.chunks_seen();
            if seq < applied {
                counts.1 += 1;
                continue;
            }
            if seq > applied {
                return Err(ServeError::WalCorrupt {
                    offset: counts.0 + counts.1,
                    reason: "sequence gap between snapshot and WAL replay",
                });
            }
            let (table, truths) = fold_chunk(&self.schema, &mut self.state, &claims)?;
            self.cache.absorb(&table, &truths);
            counts.0 += 1;
        }
        Ok(())
    }

    /// The schema chunks are validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Current source weights.
    pub fn weights(&self) -> &[f64] {
        self.state.weights()
    }

    /// The cached truth for `(object, property)`, if it is still resident.
    pub fn truth(&self, object: u32, property: u32) -> Option<Truth> {
        self.cache.get(&(object, property)).cloned()
    }

    /// Operational summary.
    pub fn status(&self) -> CoreStatus {
        CoreStatus {
            chunks_seen: self.state.chunks_seen() as u64,
            wal_records: self.wal.record_count(),
            cached_truths: self.cache.len() as u64,
            quarantined: self.breakers.quarantined(self.tick),
            poisoned: self.poisoned,
        }
    }

    /// Chunks folded so far (== the next chunk's sequence number).
    pub fn chunks_seen(&self) -> u64 {
        self.state.chunks_seen() as u64
    }

    /// The storage seam this core persists through. Gray-failure-aware
    /// callers check [`Vfs::is_slow`] / [`Vfs::is_sticky`] to route
    /// around members whose disks still answer, just badly.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Ingest one chunk end-to-end. On success the chunk is durable
    /// (WAL-fsync'd), folded, and — on the snapshot cadence — absorbed
    /// into a fresh snapshot (or, if that snapshot failed, into the one
    /// the next ingest retries). A refusal that leaves the core serving
    /// leaves nothing of the chunk in memory or in the log, so a retry
    /// folds it exactly once.
    pub fn ingest(&mut self, claims: &[ChunkClaim]) -> Result<IngestReceipt, ServeError> {
        if self.poisoned {
            return Err(ServeError::ShuttingDown);
        }
        self.tick += 1;
        let attempt = self.attempts;
        self.attempts += 1;

        // 1. Breaker gate, before any per-claim work.
        let mut sources: Vec<u32> = claims.iter().map(|c| c.source).collect();
        sources.sort_unstable();
        sources.dedup();
        for &s in &sources {
            self.breakers.admit(s, self.tick)?;
        }

        // 2. Validation. A bad claim strikes its source's breaker.
        if claims.is_empty() {
            return Err(ServeError::InvalidChunk {
                source: None,
                reason: "empty chunk".into(),
            });
        }
        if let Err((source, reason)) = validate_claims(&self.schema, claims) {
            if let Some(s) = source {
                self.breakers.record_bad(s, self.tick);
            }
            return Err(ServeError::InvalidChunk { source, reason });
        }

        let seq = self.state.chunks_seen() as u64;
        let fate = self.injector.fate(seq, attempt);

        // Injected crashes at the commit point itself run inline: the
        // process dies mid-append, or right after the fsync and before
        // any fold.
        match fate {
            ServeFate::TornWal { keep_frac } => {
                self.wal
                    .append_torn(&encode_chunk(seq, claims), keep_frac)?;
                self.poisoned = true;
                return Err(ServeError::InjectedCrash(ServePoint::WalAppend));
            }
            ServeFate::CrashBeforeFold => {
                self.wal
                    .append(&encode_chunk(seq, claims))
                    .map_err(|e| self.poison_if_fatal(e))?;
                self.poisoned = true;
                return Err(ServeError::InjectedCrash(ServePoint::BeforeFold));
            }
            _ => {}
        }
        // 3–6: append and fold overlapped, commit, snapshot cadence.
        self.commit_chunk(seq, claims, None, &sources, fate)
    }

    /// Apply one replicated WAL record shipped by a primary: append +
    /// fsync + fold + snapshot cadence, exactly like [`ingest`](Self::ingest)
    /// but without the breaker gate or re-validation (the primary
    /// validated before committing) and without fault injection.
    /// Duplicate and out-of-order deliveries are typed outcomes, never
    /// double-folds.
    pub fn apply_replicated(&mut self, payload: &[u8]) -> Result<ApplyOutcome, ServeError> {
        if self.poisoned {
            return Err(ServeError::ShuttingDown);
        }
        let (seq, claims) = decode_chunk(payload)?;
        let applied = self.state.chunks_seen() as u64;
        if seq < applied {
            return Ok(ApplyOutcome::AlreadyApplied);
        }
        if seq > applied {
            return Ok(ApplyOutcome::Gap { expected: applied });
        }
        self.commit_chunk(seq, &claims, Some(payload), &[], ServeFate::Healthy)
            .map(ApplyOutcome::Applied)
    }

    /// Steps 3–6 for a validated chunk at `seq`. A helper thread makes
    /// the WAL record durable (encoding it first unless the caller holds
    /// `record` already) while this thread folds the chunk; a chunk of
    /// fewer than [`OVERLAP_MIN_CLAIMS`] claims appends, then folds, on
    /// this thread. Nothing is committed until the append has returned
    /// `Ok`: a refused append puts the solver back where it was and
    /// returns the refusal. Then the truth cache takes the chunk's
    /// truths, `sources` are cleared on their breakers, and the snapshot
    /// cadence runs.
    ///
    /// Reads cannot see the uncommitted fold: the owner thread is inside
    /// this call for the whole overlap. All [`Vfs`] I/O stays on one
    /// thread at a time, so seeded disk-fault replay is unchanged.
    fn commit_chunk(
        &mut self,
        seq: u64,
        claims: &[ChunkClaim],
        record: Option<&[u8]>,
        sources: &[u32],
        fate: ServeFate,
    ) -> Result<IngestReceipt, ServeError> {
        let before = self.state.checkpoint();
        let append = |wal: &mut Wal| match record {
            Some(bytes) => wal.append(bytes),
            None => wal.append(&encode_chunk(seq, claims)),
        };
        let stall = || {
            if let ServeFate::StallFold(dur) = fate {
                std::thread::sleep(dur);
            }
        };
        let (folded, joined) = if claims.len() < OVERLAP_MIN_CLAIMS {
            let appended = append(&mut self.wal);
            stall();
            (
                fold_chunk(&self.schema, &mut self.state, claims),
                Ok(appended),
            )
        } else {
            let Self {
                schema, state, wal, ..
            } = self;
            std::thread::scope(|s| {
                // a helper that cannot start refuses the chunk before
                // anything is written or folded
                let helper = std::thread::Builder::new().spawn_scoped(s, move || append(wal))?;
                stall();
                let folded = fold_chunk(schema, state, claims);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "waits on exactly the write + fsync this thread ran inline before the fold overlapped it"
                )]
                let joined = helper.join();
                Ok::<_, ServeError>((folded, joined))
            })?
        };
        let appended = joined.unwrap_or_else(|_| {
            // the log's state is unknown after a panic mid-append
            self.poisoned = true;
            Err(ServeError::Io(std::io::Error::other(
                "WAL append thread panicked",
            )))
        });
        let (table, truths) = match (appended, folded) {
            (Ok(_), Ok(folded)) => folded,
            (Err(e), _) => {
                self.rollback(before);
                return Err(self.poison_if_fatal(e));
            }
            // Durable but not folded (validation passed, so an internal
            // bug): only a restart's replay brings memory back in step
            // with the log.
            (Ok(_), Err(e)) => {
                self.rollback(before);
                self.poisoned = true;
                return Err(e);
            }
        };

        // Commit: the record is durable.
        self.cache.absorb(&table, &truths);
        for &s in sources {
            self.breakers.record_ok(s);
        }
        if fate == ServeFate::CrashAfterFold {
            self.poisoned = true;
            return Err(ServeError::InjectedCrash(ServePoint::AfterFold));
        }
        let chunks_seen = self.state.chunks_seen() as u64;
        self.snapshot_cadence(chunks_seen, fate)?;
        Ok(IngestReceipt { seq, chunks_seen })
    }

    /// Put the solver back to `before`, the way
    /// [`install_snapshot`](Self::install_snapshot) resumes from a
    /// checkpoint: a refused append leaves no trace of the fold that
    /// overlapped it. Resuming a checkpoint taken from live state cannot
    /// fail; if it ever did, the core stops rather than serve a half fold.
    fn rollback(&mut self, before: ICrhCheckpoint) {
        let resumed = ICrh::new(self.alpha)
            .and_then(|icrh| ICrhState::resume(icrh.threads(self.solve_threads), before));
        match resumed {
            Ok(state) => self.state = state,
            Err(_) => self.poisoned = true,
        }
    }

    /// Step 6: every `snapshot_every` chunks, start a new snapshot
    /// generation. This thread waits for the previous generation, cuts
    /// the WAL at the boundary (6a) and encodes the payload; a helper
    /// thread writes the snapshot (6b) and retires the sealed log (6c).
    /// The chunk is already durable and folded, so a generation that
    /// fails does not refuse it: one that cannot start stays due for the
    /// next ingest, and one that fails on the helper is redone by the
    /// next cadence; the kept logs cover the records in between. Only a
    /// crash reports an error.
    fn snapshot_cadence(&mut self, chunks_seen: u64, fate: ServeFate) -> Result<(), ServeError> {
        if !self.snapshot_due && !chunks_seen.is_multiple_of(self.snapshot_every) {
            return Ok(());
        }
        self.finish_generation()?;
        let cut = self.cut_generation();
        if let Err(e @ ServeError::InjectedCrash(_)) = cut {
            self.poisoned = true;
            return Err(e);
        }
        // a generation whose cut failed has not started: retry it
        self.snapshot_due = cut.is_err();
        if self.snapshot_due {
            return Ok(());
        }
        match fate {
            ServeFate::CrashDuringSnapshot => {
                // abandon a partial temp file, exactly what a kill -9
                // mid-write leaves behind; recovery must ignore it
                self.poisoned = true;
                let tmp = self.files.snapshot.with_extension("crh.tmp");
                self.vfs.write_debris(&tmp, b"CRHV\x01partial")?;
                return Err(ServeError::InjectedCrash(ServePoint::SnapshotWrite));
            }
            ServeFate::CrashAfterSnapshotRename => {
                // crash before the sealed log is retired: records the
                // new snapshot covers remain
                self.poisoned = true;
                let payload = self.checkpoint_bytes();
                return match self.files.write_snapshot(&self.vfs, &payload) {
                    Err(e @ ServeError::InjectedCrash(_)) => Err(e),
                    _ => Err(ServeError::InjectedCrash(ServePoint::SnapshotTruncate)),
                };
            }
            _ => {}
        }
        let payload = self.checkpoint_bytes();
        let vfs = self.vfs.detach(&self.files.generation_ops(&self.vfs));
        let files = self.files.clone();
        let spawned = std::thread::Builder::new()
            .name("crh-snapshot".into())
            .spawn(move || files.write_generation(&vfs, &payload));
        match spawned {
            Ok(writer) => self.writer = Some(writer),
            Err(_) => self.snapshot_due = true,
        }
        Ok(())
    }

    /// Step 6a, after the previous generation has finished: cut the live
    /// log at the cadence boundary by sealing it under its own name, and
    /// retire the current snapshot to the previous generation. A log an
    /// earlier generation sealed is kept until a durable snapshot covers
    /// it, so while it exists the live log is not cut and keeps its
    /// records for a later cut.
    fn cut_generation(&mut self) -> Result<(), ServeError> {
        if !self.vfs.exists(&self.files.wal_sealed) {
            self.wal.rotate(&self.files.wal_sealed)?;
        }
        self.files.retire_snapshot(&self.vfs)
    }

    /// Wait for the snapshot generation in flight, if any. A failed one
    /// is simply redone by the next generation; an injected crash on the
    /// helper poisons the core, as it would have killed the process.
    pub(crate) fn finish_generation(&mut self) -> Result<(), ServeError> {
        let Some(writer) = self.writer.take() else {
            return Ok(());
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "waits on one snapshot generation: a bounded run of file operations on the local disk, each of which fails once the disk or a simulated crash refuses it"
        )]
        let joined = writer.join();
        match joined {
            Ok(Err(e @ ServeError::InjectedCrash(_))) => {
                self.poisoned = true;
                Err(e)
            }
            _ => Ok(()),
        }
    }

    /// Replace this core's entire state with a snapshot payload shipped
    /// by a primary (catch-up fallback when the requested records have
    /// aged out of the primary's retention window). The payload is
    /// persisted locally (snapshot file + WAL truncation) before the
    /// in-memory state switches, so a crash mid-install recovers to
    /// either the old or the new state, never a mix.
    pub fn install_snapshot(&mut self, payload: &[u8]) -> Result<(), ServeError> {
        if self.poisoned {
            return Err(ServeError::ShuttingDown);
        }
        let (ckpt, cached) = decode_snapshot_payload(payload)?;
        let state = ICrhState::resume(ICrh::new(self.alpha)?.threads(self.solve_threads), ckpt)?;
        self.finish_generation()?;
        self.vfs.write_frame(
            &self.files.snapshot,
            SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            payload,
        )?;
        // the installed snapshot supersedes every local generation:
        // clear the retired artifacts so recovery can never bridge from
        // a pre-install state into a post-install one
        for old in [
            &self.files.snapshot_prev,
            &self.files.wal_prev,
            &self.files.wal_sealed,
        ] {
            if self.vfs.exists(old) {
                self.vfs.remove_file(old)?;
            }
        }
        self.wal.truncate_all()?;
        let mut cache = TruthCache::new(self.cache.cap);
        for (key, truth) in cached {
            cache.insert(key, truth);
        }
        self.state = state;
        self.cache = cache;
        self.snapshot_due = false;
        Ok(())
    }

    /// A cheap whole-state fingerprint
    /// ([`digest64`](crh_core::persist::digest64) of
    /// [`checkpoint_bytes`](Self::checkpoint_bytes)) for replica
    /// divergence checks.
    pub fn state_digest(&self) -> u64 {
        crh_core::persist::digest64(&self.checkpoint_bytes())
    }

    /// Force a snapshot generation now, on this thread, once the one in
    /// flight (if any) has finished. Used at clean shutdown, by the
    /// scrubber's repair and by tests.
    pub fn snapshot_now(&mut self) -> Result<(), ServeError> {
        if self.poisoned {
            return Err(ServeError::ShuttingDown);
        }
        self.finish_generation()?;
        self.cut_generation()?;
        self.files
            .write_generation(&self.vfs, &self.checkpoint_bytes())?;
        self.snapshot_due = false;
        Ok(())
    }

    /// The snapshot payload this core would persist right now — the
    /// canonical byte-level fingerprint chaos tests compare across
    /// crash/recover boundaries.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        snapshot_payload(&self.state.checkpoint(), &self.cache)
    }

    /// Run a full batch CRH solve over `claims`, seeded with the daemon's
    /// current weights, honouring `cancel` (deadline or explicit).
    pub fn solve(
        &self,
        claims: &[ChunkClaim],
        tol: f64,
        max_iters: usize,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, ServeError> {
        if self.poisoned {
            return Err(ServeError::ShuttingDown);
        }
        solve_claims(
            &self.schema,
            claims,
            self.state.weights(),
            tol,
            max_iters,
            self.solve_threads,
            cancel,
        )
    }

    /// Poison the core when a disk fault reports the process crashed (a
    /// real kill -9 would have destroyed it), or when the WAL could not
    /// cut off a refused record (a restart would read it as accepted).
    /// A sticky-dead disk or a transient `EIO` passes through untouched:
    /// the log holds no trace of the refused record and memory was
    /// rolled back, so the core can go on serving.
    fn poison_if_fatal(&mut self, e: ServeError) -> ServeError {
        if matches!(e, ServeError::InjectedCrash(_)) || self.wal.has_stray_tail() {
            self.poisoned = true;
        }
        e
    }

    /// The configured solver kernel thread count (0 = available
    /// parallelism).
    pub fn solve_threads(&self) -> usize {
        self.solve_threads
    }

    /// The configured decay rate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Drop for ServeCore {
    /// No thread outlives its core: a generation in flight finishes (or
    /// stops at a simulated crash) before the core is gone.
    fn drop(&mut self) {
        self.finish_generation().ok();
    }
}

/// Validate every claim against the schema: known property, matching
/// type, finite numbers, categorical ids inside the declared domain.
pub(crate) fn validate_claims(
    schema: &Schema,
    claims: &[ChunkClaim],
) -> Result<(), (Option<u32>, String)> {
    for c in claims {
        let m = PropertyId(c.property);
        schema
            .check_value(m, &c.value)
            .map_err(|e| (Some(c.source), e.to_string()))?;
        if let Value::Cat(id) = c.value {
            let in_domain = schema.domain(m).is_some_and(|d| (id as usize) < d.len());
            if !in_domain {
                return Err((
                    Some(c.source),
                    format!(
                        "categorical id {id} outside domain of property {}",
                        c.property
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// The compute half of a fold: build the chunk's table and run one I-CRH
/// pass over it. The truths reach the cache only when the caller commits.
fn fold_chunk(
    schema: &Schema,
    state: &mut ICrhState,
    claims: &[ChunkClaim],
) -> Result<(ObservationTable, TruthTable), ServeError> {
    let table = build_table(schema, claims)?;
    let truths = state.process_chunk(&table)?;
    Ok((table, truths))
}

fn build_table(schema: &Schema, claims: &[ChunkClaim]) -> Result<ObservationTable, ServeError> {
    let raw: Vec<Claim> = claims
        .iter()
        .map(|c| Claim {
            object: ObjectId(c.object),
            property: PropertyId(c.property),
            source: SourceId(c.source),
            value: c.value.clone(),
        })
        .collect();
    Ok(ObservationTable::from_claims(schema.clone(), raw)?)
}

/// Batch CRH over `claims` seeded from `seed_weights` (free function so
/// the server can run it off the thread that owns the core). `threads` sets
/// the solver kernel thread count (`0` = available parallelism, `1` =
/// exact sequential); results are bit-identical for every value.
pub fn solve_claims(
    schema: &Schema,
    claims: &[ChunkClaim],
    seed_weights: &[f64],
    tol: f64,
    max_iters: usize,
    threads: usize,
    cancel: &CancelToken,
) -> Result<SolveOutcome, ServeError> {
    if claims.is_empty() {
        return Err(ServeError::InvalidChunk {
            source: None,
            reason: "empty chunk".into(),
        });
    }
    validate_claims(schema, claims)
        .map_err(|(source, reason)| ServeError::InvalidChunk { source, reason })?;
    let table = build_table(schema, claims)?;
    let mut session = CrhSession::new(&table)?;
    session.set_threads(threads);
    let mut w = seed_weights.to_vec();
    w.resize(table.num_sources(), 1.0);
    w.truncate(table.num_sources());
    session.set_weights(w);
    session.run_to_convergence_with(tol, max_iters, cancel)?;
    let objective = session.objective();
    let iterations = session.iterations() as u64;
    let (_truths, weights) = session.finish();
    Ok(SolveOutcome {
        weights,
        objective,
        iterations,
    })
}

/// Parse CSV text with rows `object,property_name,source,value` into
/// claims against `schema`. Categorical labels are resolved with
/// [`Schema::lookup`] — never interned — so a typo'd label is a typed
/// rejection instead of a silent new domain value.
pub fn claims_from_csv(schema: &Schema, text: &str) -> Result<Vec<ChunkClaim>, ServeError> {
    let rows = crh_data::csv::parse(text).map_err(|e| ServeError::InvalidChunk {
        source: None,
        reason: format!("csv: {e}"),
    })?;
    let mut claims = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let bad = |reason: String| ServeError::InvalidChunk {
            source: None,
            reason: format!("row {}: {reason}", i + 1),
        };
        let [object_field, property_field, source_field, value_field] = row.as_slice() else {
            return Err(bad(format!("expected 4 fields, got {}", row.len())));
        };
        let object: u32 = object_field
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad object id {object_field:?}")))?;
        let property = schema
            .property_by_name(property_field.trim())
            .ok_or_else(|| bad(format!("unknown property {property_field:?}")))?;
        let source: u32 = source_field
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad source id {source_field:?}")))?;
        let value = match schema
            .property_type(property)
            .map_err(|e| bad(e.to_string()))?
        {
            crh_core::value::PropertyType::Continuous => {
                let x: f64 = value_field
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad number {value_field:?}")))?;
                Value::Num(x)
            }
            crh_core::value::PropertyType::Categorical => schema
                .lookup(property, value_field.trim())
                .map_err(|e| ServeError::InvalidChunk {
                    source: Some(source),
                    reason: format!("row {}: {e}", i + 1),
                })?,
            crh_core::value::PropertyType::Text => Value::Text(value_field.clone()),
        };
        claims.push(ChunkClaim {
            object,
            property: property.0,
            source,
            value,
        });
    }
    Ok(claims)
}

/// Encode a WAL chunk record: `seq`, then the claim list.
pub(crate) fn encode_chunk(seq: u64, claims: &[ChunkClaim]) -> Vec<u8> {
    let mut e = Enc::new();
    seq.enc(&mut e);
    enc_list(claims, &mut e);
    e.into_bytes()
}

/// Decode a WAL chunk record.
pub(crate) fn decode_chunk(bytes: &[u8]) -> Result<(u64, Vec<ChunkClaim>), ServeError> {
    decode_exact(bytes, "chunk record", |d| {
        Ok((Wire::dec(d)?, Wire::dec(d)?))
    })
}

fn snapshot_payload(ckpt: &ICrhCheckpoint, cache: &TruthCache) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(ckpt.chunks_seen as u64);
    e.f64s(&ckpt.weights);
    e.f64s(&ckpt.accumulated);
    e.u32(cache.len() as u32);
    for ((object, property), truth) in cache.iter_fifo() {
        e.u32(object);
        e.u32(property);
        e.truth(truth);
    }
    e.into_bytes()
}

/// A decoded snapshot: the solver checkpoint plus the cached truths
/// keyed by `(object, property)`.
type SnapshotPayload = (ICrhCheckpoint, Vec<((u32, u32), Truth)>);

fn read_snapshot(vfs: &Vfs, path: &Path) -> Result<SnapshotPayload, ServeError> {
    let (_version, payload) = vfs.read_frame(path, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    decode_snapshot_payload(&payload)
}

/// Whether an error means *the artifact's bytes are wrong* (bit rot, a
/// torn frame, a stale version) as opposed to the disk merely failing to
/// serve them. Only corruption may trigger a generation fallback; I/O
/// errors must surface so a transient `EIO` cannot silently rewind state.
pub(crate) fn is_corruption(e: &ServeError) -> bool {
    match e {
        ServeError::Persist(p) => !matches!(p, PersistError::Io(_)),
        ServeError::WalCorrupt { .. } => true,
        _ => false,
    }
}

fn decode_snapshot_payload(payload: &[u8]) -> Result<SnapshotPayload, ServeError> {
    let mut d = Dec::new(payload);
    let chunks_seen = d.u64()? as usize;
    let weights = d.f64s()?;
    let accumulated = d.f64s()?;
    let n = d.u32()? as usize;
    let mut cached = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let object = d.u32()?;
        let property = d.u32()?;
        let truth = d.truth()?;
        cached.push(((object, property), truth));
    }
    if !d.is_exhausted() {
        return Err(ServeError::Protocol(
            "trailing bytes after snapshot payload".into(),
        ));
    }
    let ckpt = ICrhCheckpoint {
        weights,
        accumulated,
        chunks_seen,
    };
    ckpt.validate()?;
    Ok((ckpt, cached))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_continuous("temperature");
        let p = s.add_categorical("condition");
        s.intern(p, "sunny").unwrap();
        s.intern(p, "rainy").unwrap();
        s
    }

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("crh_core_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn chunk(step: u32) -> Vec<ChunkClaim> {
        vec![
            ChunkClaim::num(0, 0, 0, 20.0 + step as f64),
            ChunkClaim::num(0, 0, 1, 20.5 + step as f64),
            ChunkClaim::num(1, 0, 2, 30.0),
            ChunkClaim {
                object: 0,
                property: 1,
                source: 0,
                value: Value::Cat(step % 2),
            },
        ]
    }

    #[test]
    fn ingest_folds_and_serves_truths() {
        let d = dir("basic");
        let (mut core, rec) = ServeCore::open(ServeConfig::new(schema(), 0.5, &d)).unwrap();
        assert!(!rec.snapshot_loaded);
        for step in 0..3 {
            let r = core.ingest(&chunk(step)).unwrap();
            assert_eq!(r.seq, step as u64);
        }
        assert_eq!(core.chunks_seen(), 3);
        assert_eq!(core.weights().len(), 3);
        assert!(core.truth(0, 0).is_some());
        assert!(core.truth(1, 0).is_some());
        assert!(core.truth(9, 9).is_none());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn restart_recovers_identical_state() {
        let d = dir("restart");
        let fingerprint = {
            let (mut core, _) =
                ServeCore::open(ServeConfig::new(schema(), 0.5, &d).snapshot_every(2)).unwrap();
            for step in 0..5 {
                core.ingest(&chunk(step)).unwrap();
            }
            core.checkpoint_bytes()
        }; // dropped without a clean shutdown: WAL holds chunk 4
        let (core, rec) = ServeCore::open(ServeConfig::new(schema(), 0.5, &d)).unwrap();
        assert!(rec.snapshot_loaded);
        assert_eq!(rec.snapshot_chunks, 4);
        assert_eq!(rec.wal_replayed, 1);
        assert_eq!(core.checkpoint_bytes(), fingerprint);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn invalid_chunks_strike_and_quarantine() {
        let d = dir("breaker");
        let (mut core, _) = ServeCore::open(ServeConfig::new(schema(), 0.5, &d)).unwrap();
        let bad = vec![ChunkClaim::num(0, 0, 7, f64::NAN)];
        for _ in 0..3 {
            let err = core.ingest(&bad).unwrap_err();
            assert!(matches!(
                err,
                ServeError::InvalidChunk {
                    source: Some(7),
                    ..
                }
            ));
        }
        let err = core.ingest(&[ChunkClaim::num(0, 0, 7, 21.0)]).unwrap_err();
        assert!(
            matches!(err, ServeError::Quarantined { source: 7, .. }),
            "{err}"
        );
        // an unrelated source is unaffected
        core.ingest(&[ChunkClaim::num(0, 0, 1, 21.0)]).unwrap();
        // model state was never touched by the bad feed
        assert_eq!(core.chunks_seen(), 1);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn out_of_domain_category_is_rejected() {
        let d = dir("domain");
        let (mut core, _) = ServeCore::open(ServeConfig::new(schema(), 0.5, &d)).unwrap();
        let err = core
            .ingest(&[ChunkClaim {
                object: 0,
                property: 1,
                source: 0,
                value: Value::Cat(99),
            }])
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidChunk { .. }), "{err}");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn solve_honours_cancellation() {
        let d = dir("solve");
        let (core, _) = ServeCore::open(ServeConfig::new(schema(), 0.5, &d)).unwrap();
        let claims = chunk(0);
        let out = core.solve(&claims, 1e-9, 100, &CancelToken::new()).unwrap();
        assert!(out.objective.is_finite());
        assert_eq!(out.weights.len(), 3);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = core.solve(&claims, 1e-9, 100, &cancelled).unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn apply_replicated_matches_local_ingest_and_dedups() {
        let da = dir("repl_a");
        let db = dir("repl_b");
        let (mut a, _) = ServeCore::open(ServeConfig::new(schema(), 0.5, &da)).unwrap();
        let (mut b, _) = ServeCore::open(ServeConfig::new(schema(), 0.5, &db)).unwrap();
        let mut records = Vec::new();
        for step in 0..4 {
            let claims = chunk(step);
            let r = a.ingest(&claims).unwrap();
            records.push(encode_chunk(r.seq, &claims));
        }
        for rec in &records {
            let out = b.apply_replicated(rec).unwrap();
            assert!(matches!(out, ApplyOutcome::Applied(_)), "{out:?}");
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.checkpoint_bytes(), b.checkpoint_bytes());
        // duplicate delivery is a no-op outcome, not a double fold
        assert_eq!(
            b.apply_replicated(&records[1]).unwrap(),
            ApplyOutcome::AlreadyApplied
        );
        // skipping ahead is a typed gap, not a silent hole
        let ahead = encode_chunk(9, &chunk(9));
        assert_eq!(
            b.apply_replicated(&ahead).unwrap(),
            ApplyOutcome::Gap { expected: 4 }
        );
        assert_eq!(a.state_digest(), b.state_digest());
        std::fs::remove_dir_all(&da).ok();
        std::fs::remove_dir_all(&db).ok();
    }

    #[test]
    fn install_snapshot_transfers_state_durably() {
        let da = dir("install_a");
        let db = dir("install_b");
        let (mut a, _) = ServeCore::open(ServeConfig::new(schema(), 0.5, &da)).unwrap();
        for step in 0..5 {
            a.ingest(&chunk(step)).unwrap();
        }
        let (mut b, _) = ServeCore::open(ServeConfig::new(schema(), 0.5, &db)).unwrap();
        b.ingest(&chunk(99)).unwrap(); // divergent state to overwrite
        b.install_snapshot(&a.checkpoint_bytes()).unwrap();
        assert_eq!(b.chunks_seen(), 5);
        assert_eq!(b.state_digest(), a.state_digest());
        // the install is durable: a restart recovers the installed state
        drop(b);
        let (b, rec) = ServeCore::open(ServeConfig::new(schema(), 0.5, &db)).unwrap();
        assert!(rec.snapshot_loaded);
        assert_eq!(b.state_digest(), a.state_digest());
        // garbage payloads are typed errors and leave state untouched
        let mut c = b;
        assert!(c.install_snapshot(b"not a snapshot").is_err());
        assert_eq!(c.state_digest(), a.state_digest());
        std::fs::remove_dir_all(&da).ok();
        std::fs::remove_dir_all(&db).ok();
    }

    #[test]
    fn chunk_codec_roundtrips_and_rejects_garbage() {
        let claims = chunk(1);
        let bytes = encode_chunk(42, &claims);
        let (seq, back) = decode_chunk(&bytes).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(back, claims);
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_chunk(&extra).is_err());
        assert!(decode_chunk(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn csv_rows_become_claims_without_interning() {
        let s = schema();
        let claims = claims_from_csv(&s, "0,temperature,1,21.5\n2,condition,0,rainy\n").unwrap();
        assert_eq!(claims.len(), 2);
        assert_eq!(claims[0], ChunkClaim::num(0, 0, 1, 21.5));
        assert_eq!(claims[1].value, Value::Cat(1));
        // unknown labels and properties are typed rejections, not new ids
        assert!(matches!(
            claims_from_csv(&s, "0,condition,0,hail\n"),
            Err(ServeError::InvalidChunk {
                source: Some(0),
                ..
            })
        ));
        assert!(claims_from_csv(&s, "0,humidity,0,5\n").is_err());
        assert!(claims_from_csv(&s, "0,temperature,0\n").is_err());
        assert!(claims_from_csv(&s, "x,temperature,0,5\n").is_err());
    }

    /// What `open` recovers after each injected crash on the ingest path.
    /// Five healthy chunks (a snapshot after the third), then chunk 5
    /// crashes; its fold would make the snapshot cadence due.
    #[test]
    fn injected_crashes_recover_to_pinned_states() {
        use crate::faults::ServeFaultPlan;
        let cfg = |d: &PathBuf| ServeConfig::new(schema(), 0.5, d).snapshot_every(3);
        let reference = |name: &str, n: u32| {
            let d = dir(name);
            let (mut core, _) = ServeCore::open(cfg(&d)).unwrap();
            for step in 0..n {
                core.ingest(&chunk(step)).unwrap();
            }
            std::fs::remove_dir_all(&d).ok();
            core.checkpoint_bytes()
        };
        let without = reference("pin_ref5", 5);
        let with = reference("pin_ref6", 6);
        let plans = [
            (
                ServeFaultPlan::new(1).torn_wal(1.0),
                ServePoint::WalAppend,
                &without,
            ),
            (
                ServeFaultPlan::new(1).before_fold(1.0),
                ServePoint::BeforeFold,
                &with,
            ),
            (
                ServeFaultPlan::new(1).after_fold(1.0),
                ServePoint::AfterFold,
                &with,
            ),
        ];
        for (plan, point, expected) in plans {
            let d = dir(&format!("pin_{point:?}"));
            {
                let (mut core, _) = ServeCore::open(cfg(&d)).unwrap();
                for step in 0..5 {
                    core.ingest(&chunk(step)).unwrap();
                }
            }
            let injector = ServeFaultInjector::new(plan.max_faults(1));
            let (mut core, _) = ServeCore::open(cfg(&d).injector(injector)).unwrap();
            let err = core.ingest(&chunk(5)).unwrap_err();
            assert!(
                matches!(err, ServeError::InjectedCrash(p) if p == point),
                "{point:?}: {err}"
            );
            assert!(core.status().poisoned, "{point:?}");
            drop(core);
            let (core, rec) = ServeCore::open(cfg(&d)).unwrap();
            assert_eq!(rec.snapshot_chunks, 3, "{point:?}");
            assert_eq!(&core.checkpoint_bytes(), expected, "{point:?}");
            std::fs::remove_dir_all(&d).ok();
        }
    }

    /// `chunk(step)` repeated over disjoint objects until the chunk is big
    /// enough for its append to overlap the fold.
    fn wide_chunk(step: u32) -> Vec<ChunkClaim> {
        let copies = OVERLAP_MIN_CLAIMS.div_ceil(chunk(step).len()) as u32;
        (0..copies)
            .flat_map(|k| {
                chunk(step).into_iter().map(move |mut c| {
                    c.object += 2 * k;
                    c
                })
            })
            .collect()
    }

    /// A refused append leaves no trace, in `ingest` and in
    /// `apply_replicated` alike, whether it overlapped the fold (wide
    /// chunks) or ran before it (small ones): the solver and the truth
    /// cache answer as before the call, and the retried chunk folds
    /// exactly once. Seed 0 fails the fsync of the fourth append (ops 0-3
    /// create the log; each append is one write and one fsync).
    #[test]
    fn failed_overlapped_append_rolls_back_the_fold() {
        use crate::vfs::DiskFaultPlan;
        assert!(chunk(0).len() < OVERLAP_MIN_CLAIMS && wide_chunk(0).len() >= OVERLAP_MIN_CLAIMS);
        let faulted =
            || Vfs::faulted(DiskFaultPlan::new(0).transient_eio(0.2).max_faults(1)).unwrap();
        let cfg = |d: &PathBuf, vfs: Vfs| {
            ServeConfig::new(schema(), 0.5, d)
                .snapshot_every(100)
                .vfs(vfs)
        };
        let cells = [(0, 0), (0, 1), (1, 0)];
        let answers = |core: &ServeCore| {
            cells
                .iter()
                .map(|&(o, p)| core.truth(o, p))
                .collect::<Vec<_>>()
        };
        // one side feeds client chunks, the other the primary's records
        type Feed<'a> = &'a dyn Fn(&mut ServeCore, u32) -> Result<(), ServeError>;
        for (tag, make) in [("small", chunk as fn(u32) -> _), ("wide", wide_chunk)] {
            let dr = dir(&format!("rollback_ref_{tag}"));
            let (mut reference, _) = ServeCore::open(cfg(&dr, Vfs::passthrough())).unwrap();
            let mut records = Vec::new();
            for step in 0..4 {
                let r = reference.ingest(&make(step)).unwrap();
                records.push(encode_chunk(r.seq, &make(step)));
            }
            let di = dir(&format!("rollback_ingest_{tag}"));
            let dp = dir(&format!("rollback_replica_{tag}"));
            let sides: [(&PathBuf, Feed); 2] = [
                (&di, &|core, step| core.ingest(&make(step)).map(drop)),
                (&dp, &|core, step| {
                    core.apply_replicated(&records[step as usize]).map(|out| {
                        assert!(matches!(out, ApplyOutcome::Applied(_)), "{out:?}");
                    })
                }),
            ];
            for (d, feed) in sides {
                let vfs = faulted();
                let (mut core, _) = ServeCore::open(cfg(d, vfs.clone())).unwrap();
                for step in 0..3 {
                    feed(&mut core, step).unwrap();
                }
                let (bytes, truths) = (core.checkpoint_bytes(), answers(&core));
                let err = feed(&mut core, 3).unwrap_err();
                assert!(matches!(err, ServeError::Io(_)), "{tag}: {err}");
                assert_eq!(vfs.faults_fired(), 1, "{tag}");
                assert!(!core.status().poisoned, "{tag}");
                assert_eq!(core.checkpoint_bytes(), bytes, "{tag}");
                assert_eq!(answers(&core), truths, "{tag}");
                feed(&mut core, 3).unwrap();
                assert_eq!(core.chunks_seen(), 4, "{tag}");
                assert_eq!(
                    core.checkpoint_bytes(),
                    reference.checkpoint_bytes(),
                    "{tag}"
                );
                assert_eq!(answers(&core), answers(&reference), "{tag}");
                drop(core);
                let (core, rec) = ServeCore::open(cfg(d, Vfs::passthrough())).unwrap();
                assert_eq!(rec.wal_replayed, 4, "{tag}");
                assert_eq!(
                    core.checkpoint_bytes(),
                    reference.checkpoint_bytes(),
                    "{tag}"
                );
                std::fs::remove_dir_all(d).ok();
            }
            std::fs::remove_dir_all(&dr).ok();
        }
    }

    /// Seed 315 makes the second generation's snapshot write and fsync
    /// stall for 200 ms and no WAL append stall (tests/snapshot_crash.rs
    /// holds a generation in flight with the same plan).
    fn stalling_snapshot_disk() -> Vfs {
        let plan = crate::vfs::DiskFaultPlan::new(315)
            .slow_writes(0.25)
            .slow_fsyncs(0.25)
            .slow_for(std::time::Duration::from_millis(200));
        Vfs::faulted(plan).unwrap()
    }

    /// The sequence numbers of the records in the log at `path`.
    fn logged_seqs(path: &Path) -> Vec<u64> {
        let (_, rec) = Wal::open(path, &Vfs::passthrough()).unwrap();
        rec.records
            .iter()
            .map(|r| decode_chunk(r).unwrap().0)
            .collect()
    }

    #[test]
    fn snapshot_generation_is_written_beside_later_chunks() {
        let d = dir("beside");
        let cfg = |d: &PathBuf, vfs| {
            ServeConfig::new(schema(), 0.5, d)
                .snapshot_every(3)
                .vfs(vfs)
        };
        let (mut core, _) = ServeCore::open(cfg(&d, stalling_snapshot_disk())).unwrap();
        for step in 0..8 {
            core.ingest(&chunk(step)).unwrap();
        }
        // chunks 6 and 7 committed while the second generation stalls;
        // the log was cut at the boundary, before them
        assert!(core.writer.as_ref().is_some_and(|w| !w.is_finished()));
        assert_eq!(logged_seqs(&d.join("ingest.sealed.wal")), [3, 4, 5]);
        assert_eq!(logged_seqs(&d.join("ingest.wal")), [6, 7]);
        core.finish_generation().unwrap();
        assert!(core.writer.is_none());
        assert!(!d.join("ingest.sealed.wal").exists());
        assert_eq!(logged_seqs(&d.join("ingest.prev.wal")), [3, 4, 5]);
        let vfs = Vfs::passthrough();
        assert_eq!(
            read_snapshot(&vfs, &d.join("snapshot.crh"))
                .unwrap()
                .0
                .chunks_seen,
            6
        );
        assert_eq!(
            read_snapshot(&vfs, &d.join("snapshot.prev.crh"))
                .unwrap()
                .0
                .chunks_seen,
            3
        );
        let bytes = core.checkpoint_bytes();
        drop(core);
        let (core, rec) = ServeCore::open(cfg(&d, Vfs::passthrough())).unwrap();
        assert_eq!((rec.snapshot_chunks, rec.wal_replayed), (6, 2));
        assert_eq!(core.checkpoint_bytes(), bytes);
        std::fs::remove_dir_all(&d).ok();
    }

    /// Seed 2 fails the first generation's snapshot write with a
    /// transient `EIO`: its sealed log stays, the next cadence leaves it
    /// and the live log alone, and the second generation retires it.
    #[test]
    fn failed_generation_keeps_its_sealed_log_until_a_snapshot_covers_it() {
        let d = dir("failed_gen");
        let vfs = Vfs::faulted(
            crate::vfs::DiskFaultPlan::new(2)
                .transient_eio(0.2)
                .max_faults(1),
        )
        .unwrap();
        let cfg = ServeConfig::new(schema(), 0.5, &d)
            .snapshot_every(3)
            .vfs(vfs.clone());
        let (mut core, _) = ServeCore::open(cfg).unwrap();
        let ingest = |core: &mut ServeCore, upto: u32| {
            while core.chunks_seen() < u64::from(upto) {
                match core.ingest(&chunk(core.chunks_seen() as u32)) {
                    Ok(_) | Err(ServeError::Io(_)) => {}
                    Err(e) => panic!("{e}"),
                }
            }
        };
        ingest(&mut core, 3);
        core.finish_generation().unwrap();
        assert_eq!(vfs.writer_faults_fired(), 1);
        assert!(!d.join("snapshot.crh").exists());
        assert_eq!(logged_seqs(&d.join("ingest.sealed.wal")), [0, 1, 2]);
        ingest(&mut core, 6);
        // the cadence at 6 kept the sealed log and did not cut the live one
        assert_eq!(logged_seqs(&d.join("ingest.wal")), [3, 4, 5]);
        core.finish_generation().unwrap();
        assert!(!d.join("ingest.sealed.wal").exists());
        assert_eq!(logged_seqs(&d.join("ingest.prev.wal")), [0, 1, 2]);
        let snap = read_snapshot(&Vfs::passthrough(), &d.join("snapshot.crh")).unwrap();
        assert_eq!(snap.0.chunks_seen, 6);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn generation_ops_are_the_ops_a_generation_runs() {
        let d = dir("gen_ops");
        let files = Artifacts::in_dir(&d);
        std::fs::create_dir_all(&d).unwrap();
        let vfs = Vfs::faulted(crate::vfs::DiskFaultPlan::new(0)).unwrap();
        let run = |seal: bool| {
            if seal {
                std::fs::write(&files.wal_sealed, crate::wal::WAL_HEADER).unwrap();
            }
            let kinds = files.generation_ops(&vfs);
            let writer = vfs.detach(&kinds);
            files.write_generation(&writer, b"payload").unwrap();
            (kinds.len(), writer.detached_ops_run())
        };
        // without a sealed log, then with one
        assert_eq!(run(false), (4, Some(4)));
        assert_eq!(run(true), (6, Some(6)));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn truth_cache_iterates_in_insertion_order() {
        let mut c = TruthCache::new(3);
        for (key, x) in [
            ((5, 0), 1.0),
            ((1, 0), 2.0),
            ((3, 1), 3.0),
            ((1, 0), 9.0),
            ((0, 0), 4.0),
        ] {
            c.insert(key, Truth::Point(Value::Num(x)));
        }
        let order: Vec<_> = c.iter_fifo().map(|(k, t)| (k, t.clone())).collect();
        let want = [((1, 0), 9.0), ((3, 1), 3.0), ((0, 0), 4.0)];
        assert_eq!(order, want.map(|(k, x)| (k, Truth::Point(Value::Num(x)))));
        assert_eq!(c.get(&(0, 0)), Some(&Truth::Point(Value::Num(4.0))));
        assert!(c.get(&(5, 0)).is_none());
    }

    #[test]
    fn truth_cache_evicts_fifo_and_updates_in_place() {
        let mut c = TruthCache::new(2);
        c.insert((0, 0), Truth::Point(Value::Num(1.0)));
        c.insert((1, 0), Truth::Point(Value::Num(2.0)));
        c.insert((0, 0), Truth::Point(Value::Num(9.0))); // update, no evict
        assert_eq!(c.len(), 2);
        c.insert((2, 0), Truth::Point(Value::Num(3.0))); // evicts (0,0)
        assert!(c.get(&(0, 0)).is_none());
        assert!(c.get(&(1, 0)).is_some());
        assert!(c.get(&(2, 0)).is_some());
    }
}
