//! The storage seam: every byte the daemon persists flows through here.
//!
//! Real disks do not fail cleanly. They tear writes at arbitrary offsets
//! (power loss mid-`write(2)`), rot bits silently (a read returns data
//! that was never written), lie about fsync (the call returns success,
//! the platter never saw the data — surfaced only at the next power
//! loss), throw transient `EIO`s, and die sticky (`ENOSPC`/persistent
//! `EIO` until the drive is replaced). The [`Vfs`] is the single chokepoint
//! between `crh-serve` and `std::fs` so all five behaviours are
//! *injectable*: production uses the zero-cost passthrough
//! ([`Vfs::passthrough`]), chaos tests install a seeded [`DiskFaultPlan`]
//! and the whole durability pipeline — WAL, snapshots, election meta,
//! the staging WAL, the shard-map store — is exercised against a lying
//! disk. `crates/serve/clippy.toml` keeps the seam load-bearing: it
//! disallows `std::fs` calls and types in the rest of the crate, and this
//! module is the one place that expects them.
//!
//! Fates are pure in `(seed, op_index)` via [`hash_rng`], exactly like
//! [`ServeFaultPlan`](crate::faults::ServeFaultPlan) and
//! [`NetFaultPlan`](crate::faults::NetFaultPlan), so a chaotic run
//! replays byte-for-byte. `max_faults` bounds the chaos with a budget
//! shared across clones and simulated restarts; a **sticky** failure is
//! deliberately *not* budgeted — a dying disk does not heal because the
//! test got tired.
//!
//! A thread that writes beside the owner (the core's snapshot writer)
//! must not draw from the shared operation counter, or its fates would
//! depend on how its operations interleave with the owner's. It works
//! through a *detached* handle (`Vfs::detach`) whose fates the owner
//! drew in advance, at a point fixed by the owner's own sequence of
//! operations. [`Vfs::simulate_crash`] stops every detached handle drawn
//! before it: an operation already touching the disk finishes first,
//! and every later one fails without touching it.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the seam over the real filesystem, the one home of raw `std::fs` calls; its locks are in-process mutexes over fault-plan state: the durable ledger's holders only mutate local maps, and the crash gate is held for one file operation of a detached writer or for one simulated crash, so every wait is bounded by local file operations"
)]

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crh_core::persist::{decode_frame, encode_frame};
use crh_core::rng::{hash_rng, pick_class, FaultClass, Rng};

use crate::error::ServeError;
use crate::faults::{check, torn_keep_frac, FaultBudget, ServePoint};

/// Domain tag decorrelating disk fates from the other seeded plans.
const DISK_DOMAIN: u64 = 0xD15C;

/// Sub-domain tag for a detached writer's draws (see [`Vfs::detach`]).
const WRITER_DOMAIN: u64 = 0x5A1E;

/// Sub-domain tag for the slow-op draw. Slowness draws beside the main
/// fate (same op coordinate, different key), so enabling it never
/// reshuffles an existing seeded fault schedule.
const SLOW_DOMAIN: u64 = 0x510;

/// The operation name a directory fsync draws its fate under.
const DIR_SYNC: &str = "dir-fsync";

/// Sub-domain tag for how many of a directory's unsynced entries a
/// simulated crash keeps. It draws beside the fates, never from the
/// operation counter, so the fault schedule of a seed stays as it was.
const DIRENT_DOMAIN: u64 = 0xD1E;

/// Recover a possibly-poisoned mutex: the guarded maps stay structurally
/// valid even if a holder panicked mid-update.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A seeded chaos schedule for the storage layer. Probabilities are
/// per-operation; each operation kind draws its own mutually-exclusive
/// subset (a read can rot, a write can tear, an fsync can lie — any of
/// them can hit a transient `EIO`).
#[derive(Debug, Clone)]
pub struct DiskFaultPlan {
    /// Seed from which every fate is derived.
    pub seed: u64,
    /// Probability a write is torn: a strict prefix of the bytes reaches
    /// the disk and the process is treated as crashed mid-write.
    pub torn_write_prob: f64,
    /// Probability a read returns data with one bit flipped (bit rot).
    pub bit_flip_read_prob: f64,
    /// Probability an fsync reports success without making the data
    /// durable; the loss surfaces at the next [`Vfs::simulate_crash`].
    pub lying_fsync_prob: f64,
    /// Probability an operation fails with a transient `EIO`; the retry
    /// draws a fresh fate.
    pub transient_eio_prob: f64,
    /// Operation index at which the disk goes sticky-bad: every write,
    /// fsync, and metadata update fails from then on (reads survive —
    /// `ENOSPC` semantics). `None` = the disk never dies.
    pub sticky_after: Option<u64>,
    /// Probability a read completes correctly but slowly (gray failure:
    /// the bytes are right, the latency is not).
    pub slow_read_prob: f64,
    /// Probability a write completes correctly but slowly.
    pub slow_write_prob: f64,
    /// Probability an fsync completes honestly but slowly.
    pub slow_fsync_prob: f64,
    /// Operation index at which the disk turns *chronically* slow: every
    /// operation from then on stalls by [`slow_for`](Self::slow_for) —
    /// the dying-but-not-dead disk. Latched and shared across clones,
    /// like sticky death. `None` = never.
    pub slow_after: Option<u64>,
    /// How long a slow operation stalls. Real wall-clock time: slowness
    /// must be observable by timeouts, unlike the virtual-step delays on
    /// the network plan.
    pub slow_for: Duration,
    /// Total budgeted faults before the injector goes permanently
    /// healthy (shared across clones and restarts). Detached writers
    /// (the core's snapshot helper) draw from a second budget of the
    /// same size. Sticky failure is
    /// not budgeted: a dead disk stays dead. Slowness is not budgeted
    /// either — it corrupts nothing, and a congested disk does not heal
    /// because the test got tired.
    pub max_faults: u64,
}

impl DiskFaultPlan {
    /// A plan with the given seed and no faults; enable classes with the
    /// builder methods.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            torn_write_prob: 0.0,
            bit_flip_read_prob: 0.0,
            lying_fsync_prob: 0.0,
            transient_eio_prob: 0.0,
            sticky_after: None,
            slow_read_prob: 0.0,
            slow_write_prob: 0.0,
            slow_fsync_prob: 0.0,
            slow_after: None,
            slow_for: Duration::from_millis(1),
            max_faults: 16,
        }
    }

    /// Set the torn-write probability.
    pub fn torn_writes(mut self, p: f64) -> Self {
        self.torn_write_prob = p;
        self
    }

    /// Set the bit-rot-on-read probability.
    pub fn bit_rot(mut self, p: f64) -> Self {
        self.bit_flip_read_prob = p;
        self
    }

    /// Set the lying-fsync probability.
    pub fn lying_fsyncs(mut self, p: f64) -> Self {
        self.lying_fsync_prob = p;
        self
    }

    /// Set the transient-`EIO` probability.
    pub fn transient_eio(mut self, p: f64) -> Self {
        self.transient_eio_prob = p;
        self
    }

    /// Kill the disk (for writes) at operation index `op`.
    pub fn sticky_after(mut self, op: u64) -> Self {
        self.sticky_after = Some(op);
        self
    }

    /// Set the slow-read probability.
    pub fn slow_reads(mut self, p: f64) -> Self {
        self.slow_read_prob = p;
        self
    }

    /// Set the slow-write probability.
    pub fn slow_writes(mut self, p: f64) -> Self {
        self.slow_write_prob = p;
        self
    }

    /// Set the slow-fsync probability.
    pub fn slow_fsyncs(mut self, p: f64) -> Self {
        self.slow_fsync_prob = p;
        self
    }

    /// Turn the disk chronically slow at operation index `op`.
    pub fn slow_after(mut self, op: u64) -> Self {
        self.slow_after = Some(op);
        self
    }

    /// Set how long a slow operation stalls.
    pub fn slow_for(mut self, d: Duration) -> Self {
        self.slow_for = d;
        self
    }

    /// Cap the total number of budgeted injected faults.
    pub fn max_faults(mut self, n: u64) -> Self {
        self.max_faults = n;
        self
    }

    /// Reject out-of-range probabilities and overfull per-kind subsets
    /// with a typed error; runs when the plan is installed in a [`Vfs`].
    pub fn validate(&self) -> Result<(), ServeError> {
        let eio = ("transient_eio_prob", self.transient_eio_prob);
        check(&[eio])?;
        for kind in [OpKind::Write, OpKind::Read, OpKind::Sync] {
            if let Some(own) = self.own_class(kind) {
                check(&[own, eio])?;
            }
        }
        for slow in [
            ("slow_read_prob", self.slow_read_prob),
            ("slow_write_prob", self.slow_write_prob),
            ("slow_fsync_prob", self.slow_fsync_prob),
        ] {
            check(&[slow])?;
        }
        Ok(())
    }

    /// The fault class only an operation of `kind` draws, ahead of
    /// transient `EIO` in the same draw (see [`pick_class`]); metadata
    /// operations have none.
    fn own_class(&self, kind: OpKind) -> Option<FaultClass<'static>> {
        match kind {
            OpKind::Read => Some(("bit_flip_read_prob", self.bit_flip_read_prob)),
            OpKind::Write => Some(("torn_write_prob", self.torn_write_prob)),
            OpKind::Sync => Some(("lying_fsync_prob", self.lying_fsync_prob)),
            OpKind::Meta => None,
        }
    }
}

/// What kind of storage operation is drawing a fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Read,
    Write,
    Sync,
    /// Metadata update: rename, truncate, directory fsync, unlink.
    Meta,
}

/// The resolved fate of one storage operation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DiskFate {
    Healthy,
    /// Tear the write, keeping this fraction of the bytes.
    Torn {
        keep_frac: f64,
    },
    /// Flip one bit in the bytes read.
    BitFlip,
    /// Report fsync success without making the data durable.
    Lying,
    /// Fail with a transient `EIO`.
    Transient,
    /// The disk is sticky-dead; the operation fails permanently.
    Sticky,
}

#[derive(Debug)]
struct VfsState {
    plan: DiskFaultPlan,
    /// Global operation counter: the coordinate every fate is drawn from.
    ops: AtomicU64,
    /// Budgeted faults (shared across clones/restarts).
    budget: FaultBudget,
    /// The detached writers' own budget, charged when their fates are
    /// drawn, so a writer's faults never take the owner's.
    writer_budget: FaultBudget,
    /// File syncs (`sync_data`, `sync_all`, an atomic write's fsync)
    /// drawn on the shared counter, not by detached writers.
    data_syncs: AtomicU64,
    /// Directory fsyncs drawn on the shared counter.
    dir_syncs: AtomicU64,
    /// Latched once the sticky threshold is crossed.
    sticky: AtomicBool,
    /// Latched once the chronic-slow threshold is crossed.
    slow: AtomicBool,
    /// What a simulated power loss keeps: per-file durable lengths and
    /// the directory entries no directory fsync has covered yet.
    ledger: Mutex<Ledger>,
    /// Simulated crashes so far. A detached handle holds this gate for
    /// each operation it runs, and runs none once the count has moved
    /// past the one it was drawn at.
    crashes: Mutex<u64>,
}

/// The durable ledger behind [`Vfs::simulate_crash`].
#[derive(Debug, Default)]
struct Ledger {
    /// Per-file *truly durable* length: advanced only by an honest
    /// fsync. A simulated crash truncates each file back to it, which is
    /// exactly what power loss does to unsynced page cache.
    durable: BTreeMap<PathBuf, u64>,
    /// Directory entries made since their directory was last fsynced,
    /// oldest first: power loss can undo them.
    unsynced: Vec<Dirent>,
}

/// A file creation, rename or unlink that no directory fsync has
/// covered.
#[derive(Debug)]
enum Dirent {
    Created(PathBuf),
    Renamed {
        from: PathBuf,
        to: PathBuf,
        /// The file the rename replaced at `to`: its bytes and durable
        /// length, which undoing the rename puts back.
        displaced: Option<(Vec<u8>, Option<u64>)>,
    },
    Removed {
        path: PathBuf,
        /// The unlinked file's bytes and durable length, which undoing
        /// the unlink puts back.
        kept: (Vec<u8>, Option<u64>),
    },
}

/// Write `bytes` back at `path` with durable length `len`, as undoing an
/// entry that took the file away does.
fn restore(
    path: PathBuf,
    (bytes, len): (Vec<u8>, Option<u64>),
    durable: &mut BTreeMap<PathBuf, u64>,
) {
    if std::fs::write(&path, bytes).is_ok() {
        if let Some(len) = len {
            durable.insert(path, len);
        }
    }
}

impl Dirent {
    /// The directory whose fsync makes this entry durable.
    fn dir(&self) -> &Path {
        let path = match self {
            Self::Created(path) | Self::Renamed { to: path, .. } | Self::Removed { path, .. } => {
                path
            }
        };
        path.parent().unwrap_or(Path::new(""))
    }

    /// Undo this entry on disk and in `durable`, as power loss does to
    /// an entry whose directory was never fsynced. Best effort: a file
    /// removed since is left alone.
    fn undo(self, durable: &mut BTreeMap<PathBuf, u64>) {
        match self {
            Self::Created(path) => {
                std::fs::remove_file(&path).ok();
                durable.remove(&path);
            }
            Self::Renamed {
                from,
                to,
                displaced,
            } => {
                if std::fs::rename(&to, &from).is_ok() {
                    if let Some(len) = durable.remove(&to) {
                        durable.insert(from, len);
                    }
                }
                if let Some(kept) = displaced {
                    restore(to, kept, durable);
                }
            }
            Self::Removed { path, kept } => restore(path, kept, durable),
        }
    }
}

impl VfsState {
    /// The fate of an operation of `kind` and whether it stalls, drawn
    /// at `keys` (fate, slow) and charged to `budget`. A sticky disk
    /// fails the operation without a stall. Gray-failure injection: a
    /// stall never touches the bytes, so a slow run's digests are
    /// bit-identical to a fast run's — which is exactly what the
    /// chaos_slow suite asserts. The chronic latch (`slow`) stalls
    /// everything; otherwise a seeded draw beside the fate decides.
    fn roll_at(
        &self,
        kind: OpKind,
        (key, slow_key): (&[u64], &[u64]),
        budget: &FaultBudget,
        sticky: bool,
        slow: bool,
    ) -> (DiskFate, bool) {
        if sticky && kind != OpKind::Read {
            return (DiskFate::Sticky, false);
        }
        let p = &self.plan;
        let slow_prob = match kind {
            OpKind::Read => p.slow_read_prob,
            OpKind::Write => p.slow_write_prob,
            OpKind::Sync => p.slow_fsync_prob,
            OpKind::Meta => 0.0,
        };
        let stall =
            slow || slow_prob > 0.0 && hash_rng(p.seed, slow_key).random::<f64>() < slow_prob;
        let fate = budget.draw(DiskFate::Healthy, || {
            let mut rng = hash_rng(p.seed, key);
            let eio = ("transient_eio_prob", p.transient_eio_prob);
            let Some(own) = p.own_class(kind) else {
                let x = pick_class(&mut rng, &[eio]);
                return x.map_or(DiskFate::Healthy, |_| DiskFate::Transient);
            };
            match pick_class(&mut rng, &[own, eio]) {
                Some(0) => match kind {
                    OpKind::Read => DiskFate::BitFlip,
                    OpKind::Write => DiskFate::Torn {
                        keep_frac: torn_keep_frac(&mut rng),
                    },
                    OpKind::Sync => DiskFate::Lying,
                    OpKind::Meta => DiskFate::Healthy,
                },
                Some(_) => DiskFate::Transient,
                None => DiskFate::Healthy,
            }
        });
        (fate, stall)
    }
}

/// The fates of a detached handle's operations, drawn by the owner.
#[derive(Debug)]
struct Script {
    /// Kind, fate and whether to stall, one per operation in order.
    fates: Vec<(OpKind, DiskFate, bool)>,
    /// The next operation's position in `fates`.
    next: AtomicUsize,
    /// [`VfsState::crashes`] when the fates were drawn.
    epoch: u64,
}

/// Held while a detached handle's operation touches the disk.
type Gate<'a> = Option<MutexGuard<'a, u64>>;

/// A handle to the (possibly fault-injected) filesystem. Cloning shares
/// the fault budget, the operation counter, the sticky latch, and the
/// durable-length ledger — a restart cannot reset the chaos, and a disk
/// that died stays dead across reopens.
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    state: Option<Arc<VfsState>>,
    /// Set on a detached handle: the fates its operations take.
    script: Option<Arc<Script>>,
}

impl Vfs {
    /// The production default: a zero-cost passthrough to `std::fs`.
    pub fn passthrough() -> Self {
        Self::default()
    }

    /// A filesystem with a seeded [`DiskFaultPlan`] installed; the plan
    /// is validated so a bad probability cannot silently skew fates.
    pub fn faulted(plan: DiskFaultPlan) -> Result<Self, ServeError> {
        plan.validate()?;
        Ok(Self {
            state: Some(Arc::new(VfsState {
                budget: FaultBudget::new(plan.max_faults),
                writer_budget: FaultBudget::new(plan.max_faults),
                plan,
                ops: AtomicU64::new(0),
                data_syncs: AtomicU64::new(0),
                dir_syncs: AtomicU64::new(0),
                sticky: AtomicBool::new(false),
                slow: AtomicBool::new(false),
                ledger: Mutex::new(Ledger::default()),
                crashes: Mutex::new(0),
            })),
            script: None,
        })
    }

    /// A handle for a thread that writes beside this one: draw the fates
    /// of its next operations now, one per entry of `kinds`, and return a
    /// handle whose operations take them in order. The draws come from a
    /// sub-domain of their own keyed by this handle's operation count,
    /// and are charged to a budget of their own, so the other thread's
    /// timing cannot change any fate and its faults never take the
    /// owner's. The chronic-slow and sticky latches are read, never
    /// tripped. An operation past the end of `kinds`, or of another kind
    /// than drawn, is healthy; a fault drawn for an operation that never
    /// runs still counts as fired. A detached handle never creates a
    /// directory: the one it writes into existed when it was detached,
    /// and a write into a directory removed since fails.
    pub(crate) fn detach(&self, kinds: &[OpKind]) -> Self {
        let Some(s) = &self.state else {
            let script = Script {
                fates: Vec::new(),
                next: AtomicUsize::new(0),
                epoch: 0,
            };
            return Self {
                state: None,
                script: Some(Arc::new(script)),
            };
        };
        let epoch = *relock(&s.crashes);
        let at = s.ops.load(Ordering::SeqCst);
        let (sticky, slow) = (self.is_sticky(), self.is_slow());
        let fates = (0..)
            .zip(kinds)
            .map(|(k, &kind)| {
                let key = [DISK_DOMAIN, WRITER_DOMAIN, at, k];
                let slow_key = [DISK_DOMAIN, WRITER_DOMAIN, SLOW_DOMAIN, at, k];
                let (fate, stall) =
                    s.roll_at(kind, (&key, &slow_key), &s.writer_budget, sticky, slow);
                (kind, fate, stall)
            })
            .collect();
        Self {
            state: self.state.clone(),
            script: Some(Arc::new(Script {
                fates,
                next: AtomicUsize::new(0),
                epoch,
            })),
        }
    }

    /// Budgeted faults fired so far across all clones, apart from those
    /// drawn for detached writers.
    pub fn faults_fired(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.budget.fired())
    }

    /// File syncs and directory fsyncs, in that order, issued so far
    /// across all clones, apart from those of detached writers: the
    /// owner's sync budget.
    #[cfg(test)]
    pub(crate) fn syncs(&self) -> (u64, u64) {
        self.state.as_ref().map_or((0, 0), |s| {
            let load = |n: &AtomicU64| n.load(Ordering::SeqCst);
            (load(&s.data_syncs), load(&s.dir_syncs))
        })
    }

    /// On a detached handle, how many of its drawn operations have run.
    #[cfg(test)]
    pub(crate) fn detached_ops_run(&self) -> Option<usize> {
        self.script.as_ref().map(|s| s.next.load(Ordering::SeqCst))
    }

    /// Budgeted faults drawn so far for detached writers, across all
    /// clones.
    #[cfg(test)]
    pub(crate) fn writer_faults_fired(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.writer_budget.fired())
    }

    /// Whether the disk has gone sticky-bad.
    pub fn is_sticky(&self) -> bool {
        self.state
            .as_ref()
            .is_some_and(|s| s.sticky.load(Ordering::SeqCst))
    }

    /// Kill the disk now (tests flipping a member's disk dead at will).
    /// No-op on a passthrough [`Vfs`].
    pub fn force_sticky(&self) {
        if let Some(s) = &self.state {
            s.sticky.store(true, Ordering::SeqCst);
        }
    }

    /// Whether the disk has turned chronically slow. A primary observing
    /// this on its own disk self-deposes — it can still serve, but every
    /// ack it produces drags the cluster's tail.
    pub fn is_slow(&self) -> bool {
        self.state
            .as_ref()
            .is_some_and(|s| s.slow.load(Ordering::SeqCst))
    }

    /// Turn the disk chronically slow now (tests flipping a member's
    /// disk gray at will). No-op on a passthrough [`Vfs`].
    pub fn force_slow(&self) {
        if let Some(s) = &self.state {
            s.slow.store(true, Ordering::SeqCst);
        }
    }

    /// Draw the fate of the next operation of `kind`, stalling first if
    /// the disk is slow for it. A detached handle takes its next drawn
    /// fate instead, and a disk gone sticky since still fails it.
    fn fate(&self, kind: OpKind) -> DiskFate {
        let Some(s) = &self.state else {
            return DiskFate::Healthy;
        };
        let (fate, stall) = match &self.script {
            Some(script) => {
                let at = script.next.fetch_add(1, Ordering::SeqCst);
                let drawn = script.fates.get(at).filter(|(k, ..)| *k == kind);
                let (fate, stall) = drawn.map_or((DiskFate::Healthy, false), |&(_, f, st)| (f, st));
                if s.sticky.load(Ordering::SeqCst) && kind != OpKind::Read {
                    return DiskFate::Sticky;
                }
                (fate, stall)
            }
            None => self.roll(kind),
        };
        if stall {
            std::thread::sleep(s.plan.slow_for);
        }
        fate
    }

    /// Draw the fate of the next operation of `kind` from the shared
    /// counter and budget, and whether it stalls.
    fn roll(&self, kind: OpKind) -> (DiskFate, bool) {
        let Some(s) = &self.state else {
            return (DiskFate::Healthy, false);
        };
        let p = &s.plan;
        let op = s.ops.fetch_add(1, Ordering::SeqCst);
        let sticky = latch(&s.sticky, p.sticky_after, op);
        // a write to a dead disk fails before it could stall
        let slow = (kind == OpKind::Read || !sticky) && latch(&s.slow, p.slow_after, op);
        let keys = (&[DISK_DOMAIN, op][..], &[DISK_DOMAIN, SLOW_DOMAIN, op][..]);
        s.roll_at(kind, keys, &s.budget, sticky, slow)
    }

    fn transient() -> ServeError {
        ServeError::Io(std::io::Error::other("injected transient EIO"))
    }

    /// Draw the fate of the next operation of `kind`, failing it with a
    /// transient `EIO` or, for a dead disk, [`ServeError::DiskDegraded`]
    /// naming `op`. Every other fate is the caller's to act on, while it
    /// holds the returned gate.
    fn draw(&self, kind: OpKind, op: &'static str) -> Result<(DiskFate, Gate<'_>), ServeError> {
        if let (Some(s), None) = (&self.state, &self.script) {
            let counted = match (kind, op) {
                (OpKind::Sync, _) => Some(&s.data_syncs),
                (_, DIR_SYNC) => Some(&s.dir_syncs),
                _ => None,
            };
            if let Some(n) = counted {
                n.fetch_add(1, Ordering::SeqCst);
            }
        }
        let fate = self.fate(kind);
        let gate = self.gate()?;
        match fate {
            DiskFate::Transient => Err(Self::transient()),
            DiskFate::Sticky => Err(ServeError::DiskDegraded { op }),
            fate => Ok((fate, gate)),
        }
    }

    /// On a detached handle, hold off [`simulate_crash`](Self::simulate_crash)
    /// until the caller's operation is done, or refuse the operation with
    /// [`ServeError::ShuttingDown`] if a simulated crash has happened
    /// since the handle's fates were drawn: the process that started it
    /// is gone.
    fn gate(&self) -> Result<Gate<'_>, ServeError> {
        let (Some(s), Some(script)) = (&self.state, &self.script) else {
            return Ok(None);
        };
        let crashes = relock(&s.crashes);
        if *crashes != script.epoch {
            return Err(ServeError::ShuttingDown);
        }
        Ok(Some(crashes))
    }

    /// Read a whole file, subject to bit rot and transient `EIO`.
    pub fn read(&self, path: impl AsRef<Path>) -> Result<Vec<u8>, ServeError> {
        let (fate, _gate) = self.draw(OpKind::Read, "read")?;
        let rotted = fate == DiskFate::BitFlip;
        let mut bytes = std::fs::read(path.as_ref())?;
        if rotted {
            self.flip_one_bit(&mut bytes);
        }
        Ok(bytes)
    }

    /// Flip one seeded bit in `bytes` (no-op on an empty read).
    fn flip_one_bit(&self, bytes: &mut [u8]) {
        let Some(s) = &self.state else { return };
        if bytes.is_empty() {
            return;
        }
        let op = s.ops.load(Ordering::SeqCst);
        let mut rng = hash_rng(s.plan.seed, &[DISK_DOMAIN, 0xB17, op]);
        let at = (rng.next_u64() % bytes.len() as u64) as usize;
        let bit = (rng.next_u64() % 8) as u8;
        if let Some(b) = bytes.get_mut(at) {
            *b ^= 1 << bit;
        }
    }

    /// Open (or create) a log-style file for read + append-positioned
    /// writes, never truncating existing content.
    pub fn open_log(&self, path: impl AsRef<Path>) -> Result<DiskFile, ServeError> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            self.create_dir_all(dir)?;
        }
        let created = self.state.is_some() && !path.exists();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if let Some(s) = &self.state {
            // everything already on disk at open is presumed durable
            let len = file.metadata()?.len();
            let mut ledger = relock(&s.ledger);
            ledger.durable.entry(path.clone()).or_insert(len);
            if created {
                ledger.unsynced.push(Dirent::Created(path.clone()));
            }
        }
        Ok(DiskFile {
            file,
            path,
            vfs: self.clone(),
        })
    }

    /// Write `bytes` to `path` atomically: temp sibling, write + fsync,
    /// rename over the target, then fsync the parent directory. Subject
    /// to torn writes (the temp file is abandoned partial, the target
    /// survives), transient `EIO`, and sticky death.
    pub fn write_atomic(&self, path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), ServeError> {
        let path = path.as_ref();
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = parent.filter(|_| self.script.is_none()) {
            self.create_dir_all(dir)?;
        }
        let tmp = path.with_extension("tmp");
        let f = {
            let (fate, _gate) = self.draw(OpKind::Write, "write")?;
            let created = self.state.is_some() && !tmp.exists();
            let mut f = File::create(&tmp)?;
            if created {
                self.note_unsynced(Dirent::Created(tmp.clone()));
            }
            if let DiskFate::Torn { keep_frac } = fate {
                let keep = torn_prefix_len(bytes.len(), keep_frac);
                f.write_all(bytes.get(..keep).unwrap_or(bytes))?;
                f.sync_all().ok();
                return Err(ServeError::InjectedCrash(ServePoint::DiskWrite));
            }
            f.write_all(bytes)?;
            f.flush()?;
            f
        };
        {
            // an atomic artifact whose fsync lies is equivalent to
            // crashing before the rename: simply skip the sync — the
            // rename below may still survive, which is exactly the
            // torn-rename ambiguity recovery must handle
            let (fate, _gate) = self.draw(OpKind::Sync, "fsync")?;
            if fate != DiskFate::Lying {
                f.sync_all()?;
            }
        }
        self.rename(&tmp, path)?;
        self.sync_parent_dir(path)
    }

    /// Rename `from` to `to` (a metadata write: sticky/transient apply).
    /// Both names are in one directory, and the rename is durable once
    /// that directory is fsynced.
    pub fn rename(&self, from: impl AsRef<Path>, to: impl AsRef<Path>) -> Result<(), ServeError> {
        let (from, to) = (from.as_ref(), to.as_ref());
        let _gate = self.draw(OpKind::Meta, "rename")?;
        // the file a rename replaces comes back if the rename is undone
        let replaced = self.state.as_ref().and_then(|_| std::fs::read(to).ok());
        std::fs::rename(from, to)?;
        if let Some(s) = &self.state {
            let mut ledger = relock(&s.ledger);
            let moved = ledger.durable.remove(from);
            let replaced_len = ledger.durable.remove(to);
            let displaced = replaced.map(|bytes| (bytes, replaced_len));
            if let Some(len) = moved {
                ledger.durable.insert(to.to_path_buf(), len);
            }
            ledger.unsynced.push(Dirent::Renamed {
                from: from.to_path_buf(),
                to: to.to_path_buf(),
                displaced,
            });
        }
        Ok(())
    }

    /// Remove a file (a metadata write: sticky/transient apply). The
    /// unlink is durable once the file's directory is fsynced; until
    /// then power loss can bring the file back.
    pub fn remove_file(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let path = path.as_ref();
        let _gate = self.draw(OpKind::Meta, "unlink")?;
        // the bytes an undone unlink puts back
        let bytes = self.state.as_ref().and_then(|_| std::fs::read(path).ok());
        std::fs::remove_file(path)?;
        if let Some(s) = &self.state {
            let mut ledger = relock(&s.ledger);
            let len = ledger.durable.remove(path);
            ledger.unsynced.push(Dirent::Removed {
                path: path.to_path_buf(),
                kept: (bytes.unwrap_or_default(), len),
            });
        }
        Ok(())
    }

    /// Create a directory and all its parents (fault-free: directory
    /// creation failing is just an `Io` error from the underlying fs).
    pub fn create_dir_all(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        Ok(std::fs::create_dir_all(path.as_ref())?)
    }

    /// Recursively remove a directory tree (metadata write).
    pub fn remove_dir_all(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let _gate = self.draw(OpKind::Meta, "rmdir")?;
        std::fs::remove_dir_all(path.as_ref())?;
        if let Some(s) = &self.state {
            let mut ledger = relock(&s.ledger);
            ledger.durable.retain(|p, _| !p.starts_with(path.as_ref()));
            ledger
                .unsynced
                .retain(|d| !d.dir().starts_with(path.as_ref()));
        }
        Ok(())
    }

    /// Whether `path` exists (read-only, fault-free).
    pub fn exists(&self, path: impl AsRef<Path>) -> bool {
        path.as_ref().exists()
    }

    /// The regular files directly inside `dir`, sorted by path so every
    /// walker (the scrubber above all) visits deterministically. A
    /// missing directory is an empty listing, not an error.
    pub fn read_dir_files(&self, dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, ServeError> {
        let dir = dir.as_ref();
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(ServeError::Io(e)),
        };
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    /// Fsync the directory containing `path`.
    ///
    /// An atomic rename (or a file creation) updates the *directory
    /// entry*, and that entry has its own page cache: `rename(2)`
    /// followed by power loss can resurrect the old file even though the
    /// new file's contents were fsync'd. Failure is a typed
    /// [`ServeError::SnapshotDirSync`] — the caller must treat the
    /// preceding rename as not-yet-durable. On success every creation
    /// and rename in that directory so far is durable.
    pub fn sync_parent_dir(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let path = path.as_ref();
        let _gate = self.draw(OpKind::Meta, DIR_SYNC)?;
        sync_parent_dir(path)?;
        if let Some(s) = &self.state {
            let dir = path.parent().unwrap_or(Path::new(""));
            relock(&s.ledger).unsynced.retain(|d| d.dir() != dir);
        }
        Ok(())
    }

    /// Write a CRC-framed artifact (same layout as
    /// [`crh_core::persist::write_frame`]) atomically through the seam.
    pub fn write_frame(
        &self,
        path: impl AsRef<Path>,
        magic: [u8; 4],
        version: u32,
        payload: &[u8],
    ) -> Result<(), ServeError> {
        self.write_atomic(path, &encode_frame(magic, version, payload))
    }

    /// Read a CRC-framed artifact through the seam, validating magic,
    /// version, declared length, and CRC.
    pub fn read_frame(
        &self,
        path: impl AsRef<Path>,
        magic: [u8; 4],
        max_version: u32,
    ) -> Result<(u32, Vec<u8>), ServeError> {
        let bytes = self.read(path)?;
        Ok(decode_frame(&bytes, magic, max_version)?)
    }

    /// Write `bytes` to `path` with no sync and no fault draws: used by
    /// the [`ServeFaultPlan`](crate::faults::ServeFaultPlan) crash points
    /// to plant deliberate debris (an abandoned partial temp file) that
    /// recovery must ignore.
    pub(crate) fn write_debris(
        &self,
        path: impl AsRef<Path>,
        bytes: &[u8],
    ) -> Result<(), ServeError> {
        let mut f = File::create(path.as_ref())?;
        f.write_all(bytes)?;
        Ok(())
    }

    /// Simulate power loss: undo directory entries no directory fsync
    /// covered, then truncate every tracked file back to its last
    /// honestly-fsync'd length. This is where a lying fsync's loss
    /// surfaces — data the daemon believed durable evaporates, exactly
    /// as unsynced page cache does when the machine dies.
    ///
    /// Each directory keeps a seeded prefix of its unsynced creations
    /// and renames, anywhere from none to all of them, and loses the
    /// rest: a journaling filesystem commits one directory's metadata
    /// operations in order, so a later entry never outlives an earlier
    /// one. Returns how many entries were undone.
    pub fn simulate_crash(&self) -> u64 {
        let Some(s) = &self.state else { return 0 };
        let mut crashes = relock(&s.crashes);
        *crashes += 1;
        let mut ledger = relock(&s.ledger);
        let Ledger { durable, unsynced } = &mut *ledger;
        let mut by_dir: BTreeMap<PathBuf, Vec<Dirent>> = BTreeMap::new();
        for d in unsynced.drain(..) {
            by_dir.entry(d.dir().to_path_buf()).or_default().push(d);
        }
        let mut undone = 0;
        for (at, entries) in (0u64..).zip(by_dir.into_values()) {
            let n = entries.len() as u64;
            let key = [DISK_DOMAIN, DIRENT_DOMAIN, *crashes, at];
            let keep = hash_rng(s.plan.seed, &key).next_u64() % (n + 1);
            for d in entries.into_iter().skip(keep as usize).rev() {
                d.undo(durable);
                undone += 1;
            }
        }
        let durable: Vec<(PathBuf, u64)> = durable.iter().map(|(p, &l)| (p.clone(), l)).collect();
        drop(ledger);
        for (path, len) in durable {
            let Ok(f) = OpenOptions::new().write(true).open(&path) else {
                continue; // never created or already unlinked
            };
            let actual = f.metadata().map(|m| m.len()).unwrap_or(len);
            if actual > len {
                f.set_len(len).ok();
                f.sync_all().ok();
            }
        }
        undone
    }

    /// Record a directory entry that power loss can undo until its
    /// directory is fsynced.
    fn note_unsynced(&self, d: Dirent) {
        if let Some(s) = &self.state {
            relock(&s.ledger).unsynced.push(d);
        }
    }

    /// Record an honest fsync: everything in `path` up to `len` is
    /// durable.
    fn mark_durable(&self, path: &Path, len: u64) {
        if let Some(s) = &self.state {
            relock(&s.ledger).durable.insert(path.to_path_buf(), len);
        }
    }

    /// Clamp the durable length after a truncation to `len`.
    fn clamp_durable(&self, path: &Path, len: u64) {
        if let Some(s) = &self.state {
            let mut ledger = relock(&s.ledger);
            let entry = ledger.durable.entry(path.to_path_buf()).or_insert(len);
            *entry = (*entry).min(len);
        }
    }
}

/// Set `flag` once operation `op` reaches `after`; report whether it is set.
fn latch(flag: &AtomicBool, after: Option<u64>, op: u64) -> bool {
    if after.is_some_and(|at| op >= at) {
        flag.store(true, Ordering::SeqCst);
    }
    flag.load(Ordering::SeqCst)
}

/// Clamp a torn write to a strict, non-empty prefix.
fn torn_prefix_len(total: usize, keep_frac: f64) -> usize {
    ((total as f64 * keep_frac) as usize).clamp(1, total.saturating_sub(1).max(1))
}

/// Fsync the directory containing `path` (the raw, fault-free primitive;
/// fault-aware callers go through [`Vfs::sync_parent_dir`]).
pub fn sync_parent_dir(path: &Path) -> Result<(), ServeError> {
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let err = |e: std::io::Error| ServeError::SnapshotDirSync {
        dir: dir.to_path_buf(),
        reason: e.to_string(),
    };
    let f = File::open(dir).map_err(err)?;
    f.sync_all().map_err(err)
}

/// Put a strict prefix of `bytes` into `file` and sync it, so a
/// same-process "recovery" observes the torn tail. Returns the bytes kept.
fn tear(
    file: &mut File,
    path: &Path,
    vfs: &Vfs,
    bytes: &[u8],
    keep_frac: f64,
) -> Result<u64, ServeError> {
    let keep = torn_prefix_len(bytes.len(), keep_frac);
    file.write_all(bytes.get(..keep).unwrap_or(bytes))?;
    file.sync_data()?;
    let len = file.metadata()?.len();
    vfs.mark_durable(path, len);
    Ok(keep as u64)
}

/// An open file routed through the [`Vfs`] seam. Writes can tear, syncs
/// can lie, and everything can hit transient or sticky `EIO` — exactly
/// like the hardware the daemon actually runs on.
#[derive(Debug)]
pub struct DiskFile {
    file: File,
    path: PathBuf,
    vfs: Vfs,
}

impl DiskFile {
    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The seam this file was opened through.
    pub(crate) fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Read the whole file from the current position, subject to bit rot
    /// and transient `EIO`.
    pub fn read_to_end(&mut self, buf: &mut Vec<u8>) -> Result<usize, ServeError> {
        let (fate, _gate) = self.vfs.draw(OpKind::Read, "read")?;
        let rotted = fate == DiskFate::BitFlip;
        let start = buf.len();
        let n = self.file.read_to_end(buf)?;
        if let Some(tail) = buf.get_mut(start..).filter(|_| rotted) {
            self.vfs.flip_one_bit(tail);
        }
        Ok(n)
    }

    /// Write all of `bytes` at the current position. A torn fate writes
    /// a strict prefix, syncs it so recovery observes the torn bytes,
    /// and reports the process crashed
    /// ([`ServeError::InjectedCrash`] at [`ServePoint::DiskWrite`]).
    pub fn write_all(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        let (fate, _gate) = self.vfs.draw(OpKind::Write, "write")?;
        if let DiskFate::Torn { keep_frac } = fate {
            tear(&mut self.file, &self.path, &self.vfs, bytes, keep_frac)?;
            return Err(ServeError::InjectedCrash(ServePoint::DiskWrite));
        }
        Ok(self.file.write_all(bytes)?)
    }

    /// Deliberately tear a write: put a strict prefix of `bytes` on disk
    /// and sync it so a same-process "recovery" observes the torn tail.
    /// Only reachable from injected-fault paths.
    pub(crate) fn write_torn(&mut self, bytes: &[u8], keep_frac: f64) -> Result<u64, ServeError> {
        tear(&mut self.file, &self.path, &self.vfs, bytes, keep_frac)
    }

    /// Fsync file data. A lying fate reports success without advancing
    /// the durable length — the loss surfaces at
    /// [`Vfs::simulate_crash`].
    pub fn sync_data(&mut self) -> Result<(), ServeError> {
        self.sync_inner(false)
    }

    /// Fsync file data and metadata (same fault semantics as
    /// [`Self::sync_data`]).
    pub fn sync_all(&mut self) -> Result<(), ServeError> {
        self.sync_inner(true)
    }

    fn sync_inner(&mut self, all: bool) -> Result<(), ServeError> {
        let (fate, _gate) = self.vfs.draw(OpKind::Sync, "fsync")?;
        if fate == DiskFate::Lying {
            return Ok(());
        }
        if all {
            self.file.sync_all()?;
        } else {
            self.file.sync_data()?;
        }
        let len = self.file.metadata()?.len();
        self.vfs.mark_durable(&self.path, len);
        Ok(())
    }

    /// Truncate (or extend) to `len` bytes (a metadata write).
    pub fn set_len(&mut self, len: u64) -> Result<(), ServeError> {
        let _gate = self.vfs.draw(OpKind::Meta, "truncate")?;
        self.file.set_len(len)?;
        self.vfs.clamp_durable(&self.path, len);
        Ok(())
    }

    /// Seek to an absolute offset (fault-free: no I/O is issued).
    pub fn seek_to(&mut self, offset: u64) -> Result<(), ServeError> {
        self.file.seek(SeekFrom::Start(offset))?;
        Ok(())
    }

    /// The file's current length (fault-free: a metadata query, no
    /// read or write is issued).
    pub(crate) fn size(&self) -> Result<u64, ServeError> {
        Ok(self.file.metadata()?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("crh_vfs_{}_{name}", std::process::id()))
    }

    #[test]
    fn passthrough_roundtrips_without_faults() {
        let p = tmp("pass");
        std::fs::remove_file(&p).ok();
        let vfs = Vfs::passthrough();
        let mut f = vfs.open_log(&p).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(vfs.read(&p).unwrap(), b"hello");
        assert_eq!(vfs.faults_fired(), 0);
        assert!(!vfs.is_sticky());
        vfs.simulate_crash(); // no tracked state: must be a no-op
        assert_eq!(vfs.read(&p).unwrap(), b"hello");
        vfs.remove_file(&p).unwrap();
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix_and_crashes() {
        let p = tmp("torn");
        std::fs::remove_file(&p).ok();
        let vfs = Vfs::faulted(DiskFaultPlan::new(7).torn_writes(1.0).max_faults(1)).unwrap();
        let mut f = vfs.open_log(&p).unwrap();
        let err = f.write_all(b"twelve bytes").unwrap_err();
        assert!(
            matches!(err, ServeError::InjectedCrash(ServePoint::DiskWrite)),
            "{err}"
        );
        let on_disk = std::fs::read(&p).unwrap();
        assert!(!on_disk.is_empty() && on_disk.len() < 12, "{on_disk:?}");
        assert_eq!(vfs.faults_fired(), 1);
        // budget spent: the next write goes through
        drop(f);
        let mut f = vfs.open_log(&p).unwrap();
        f.write_all(b"ok").unwrap();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit_deterministically() {
        let p = tmp("rot");
        std::fs::write(&p, vec![0u8; 64]).unwrap();
        let read_rotted = || {
            let vfs = Vfs::faulted(DiskFaultPlan::new(3).bit_rot(1.0).max_faults(1)).unwrap();
            vfs.read(&p).unwrap()
        };
        let a = read_rotted();
        let b = read_rotted();
        assert_eq!(a, b, "same seed, same flip");
        let flipped: u32 = a.iter().map(|&x| x.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        // budget spent after the first read: the second is clean
        let vfs = Vfs::faulted(DiskFaultPlan::new(3).bit_rot(1.0).max_faults(1)).unwrap();
        vfs.read(&p).unwrap();
        assert_eq!(vfs.read(&p).unwrap(), vec![0u8; 64]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn lying_fsync_loss_surfaces_at_simulated_crash() {
        let p = tmp("lying");
        std::fs::remove_file(&p).ok();
        let vfs = Vfs::faulted(DiskFaultPlan::new(5).lying_fsyncs(1.0).max_faults(1)).unwrap();
        let mut f = vfs.open_log(&p).unwrap();
        vfs.sync_parent_dir(&p).unwrap(); // the file itself outlives a crash
        f.write_all(b"durable").unwrap();
        f.sync_data().unwrap(); // lying: reports success
        assert_eq!(vfs.faults_fired(), 1);
        f.write_all(b" and honest").unwrap();
        f.sync_data().unwrap(); // budget spent: honest
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"durable and honest");
        // the honest sync made everything durable; crash loses nothing
        vfs.simulate_crash();
        assert_eq!(std::fs::read(&p).unwrap(), b"durable and honest");

        // now a lying sync with no honest sync after it
        std::fs::remove_file(&p).ok();
        let vfs = Vfs::faulted(DiskFaultPlan::new(5).lying_fsyncs(1.0).max_faults(1)).unwrap();
        let mut f = vfs.open_log(&p).unwrap();
        vfs.sync_parent_dir(&p).unwrap();
        f.write_all(b"vanishes").unwrap();
        f.sync_data().unwrap(); // lying
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"vanishes");
        vfs.simulate_crash();
        assert_eq!(std::fs::read(&p).unwrap(), b"", "power loss drops it");
        std::fs::remove_file(&p).ok();
    }

    /// The outcomes a simulated crash gives, over seeds 0..32, for a
    /// run of `steps` on a fresh directory: what `outcome` reads after
    /// each crash, with the number of directory entries it undid.
    fn crash_outcomes<T: Ord>(
        tag: &str,
        steps: impl Fn(&Vfs, &Path),
        outcome: impl Fn(&Path) -> T,
    ) -> std::collections::BTreeSet<(u64, T)> {
        (0..32)
            .map(|seed| {
                let dir = tmp(&format!("{tag}_{seed}"));
                std::fs::remove_dir_all(&dir).ok();
                std::fs::create_dir_all(&dir).unwrap();
                let vfs = Vfs::faulted(DiskFaultPlan::new(seed)).unwrap();
                steps(&vfs, &dir);
                let undone = vfs.simulate_crash();
                let seen = (undone, outcome(&dir));
                std::fs::remove_dir_all(&dir).ok();
                seen
            })
            .collect()
    }

    #[test]
    fn a_crash_can_undo_an_unlink_its_directory_never_synced() {
        let unlink = |vfs: &Vfs, dir: &Path| {
            let mut f = vfs.open_log(dir.join("log")).unwrap();
            f.write_all(b"synced data").unwrap();
            f.sync_data().unwrap();
            vfs.sync_parent_dir(dir.join("log")).unwrap();
            drop(f);
            vfs.remove_file(dir.join("log")).unwrap();
        };
        let read = |dir: &Path| std::fs::read(dir.join("log")).ok();
        let seen = crash_outcomes("lost_unlink", unlink, read);
        let want = [(0, None), (1, Some(b"synced data".to_vec()))];
        assert_eq!(seen, want.into_iter().collect());

        let synced = |vfs: &Vfs, dir: &Path| {
            unlink(vfs, dir);
            vfs.sync_parent_dir(dir.join("log")).unwrap();
        };
        let seen = crash_outcomes("synced_unlink", synced, read);
        assert_eq!(seen, [(0, None)].into_iter().collect());
    }

    #[test]
    fn a_crash_can_undo_a_creation_its_directory_never_synced() {
        let create = |vfs: &Vfs, dir: &Path| {
            let mut f = vfs.open_log(dir.join("log")).unwrap();
            f.write_all(b"synced data").unwrap();
            f.sync_data().unwrap();
        };
        let read = |dir: &Path| std::fs::read(dir.join("log")).ok();
        let seen = crash_outcomes("lost_create", create, read);
        let want = [(0, Some(b"synced data".to_vec())), (1, None)];
        assert_eq!(seen, want.into_iter().collect());
        // a directory fsync makes the file's entry durable
        let synced = |vfs: &Vfs, dir: &Path| {
            create(vfs, dir);
            vfs.sync_parent_dir(dir.join("log")).unwrap();
        };
        let seen = crash_outcomes("synced_create", synced, read);
        let want = [(0, Some(b"synced data".to_vec()))];
        assert_eq!(seen, want.into_iter().collect());
    }

    #[test]
    fn a_crash_keeps_a_prefix_of_a_directory_s_unsynced_entries() {
        // a file is written whole, then renamed over another; an undone
        // rename puts both names back as they were
        let steps = |vfs: &Vfs, dir: &Path| {
            std::fs::write(dir.join("old"), b"old").unwrap();
            vfs.write_atomic(dir.join("old"), b"new").unwrap();
            let mut f = vfs.open_log(dir.join("a")).unwrap();
            f.write_all(b"a").unwrap();
            f.sync_data().unwrap();
            vfs.rename(dir.join("a"), dir.join("old")).unwrap();
        };
        let names = |dir: &Path| {
            let mut names: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|p| {
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&p).unwrap())
                })
                .collect();
            names.sort();
            names
        };
        let file = |name: &str, bytes: &[u8]| (name.to_string(), bytes.to_vec());
        let seen = crash_outcomes("prefix", steps, names);
        let want = [
            // the atomic write ended with a directory fsync
            (0, vec![file("old", b"a")]),
            (1, vec![file("a", b"a"), file("old", b"new")]),
            (2, vec![file("old", b"new")]),
        ];
        assert_eq!(seen, want.into_iter().collect());
    }

    #[test]
    fn sticky_disk_fails_writes_keeps_reads_and_survives_clones() {
        let p = tmp("sticky");
        std::fs::write(&p, b"old data").unwrap();
        let vfs = Vfs::faulted(DiskFaultPlan::new(1).sticky_after(0)).unwrap();
        let clone = vfs.clone();
        let mut f = vfs.open_log(&p).unwrap();
        let err = f.write_all(b"nope").unwrap_err();
        assert!(
            matches!(err, ServeError::DiskDegraded { op: "write" }),
            "{err}"
        );
        assert!(clone.is_sticky(), "latch shared across clones");
        let err = clone.write_atomic(tmp("sticky2"), b"x").unwrap_err();
        assert!(matches!(err, ServeError::DiskDegraded { .. }), "{err}");
        // reads still work: ENOSPC semantics
        assert_eq!(vfs.read(&p).unwrap(), b"old data");
        // sticky is not budgeted: faults_fired stays 0
        assert_eq!(vfs.faults_fired(), 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn force_sticky_kills_the_disk_at_will() {
        let vfs = Vfs::faulted(DiskFaultPlan::new(0)).unwrap();
        assert!(!vfs.is_sticky());
        vfs.force_sticky();
        assert!(vfs.is_sticky());
        let err = vfs.write_atomic(tmp("forced"), b"x").unwrap_err();
        assert!(matches!(err, ServeError::DiskDegraded { .. }), "{err}");
        // passthrough ignores the switch entirely
        let vfs = Vfs::passthrough();
        vfs.force_sticky();
        assert!(!vfs.is_sticky());
    }

    #[test]
    fn slow_disk_stalls_but_never_changes_bytes() {
        let p = tmp("slow");
        std::fs::remove_file(&p).ok();
        let vfs = Vfs::faulted(
            DiskFaultPlan::new(4)
                .slow_writes(1.0)
                .slow_fsyncs(1.0)
                .slow_for(Duration::from_millis(5)),
        )
        .unwrap();
        let mut f = vfs.open_log(&p).unwrap();
        let t0 = std::time::Instant::now();
        f.write_all(b"slow but intact").unwrap();
        f.sync_data().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(10), "two stalled ops");
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"slow but intact");
        // slowness is not budgeted and never latches from the per-op draw
        assert_eq!(vfs.faults_fired(), 0);
        assert!(!vfs.is_slow());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn chronic_slow_latches_and_survives_clones() {
        let p = tmp("chronic_slow");
        std::fs::remove_file(&p).ok();
        let vfs = Vfs::faulted(
            DiskFaultPlan::new(6)
                .slow_after(0)
                .slow_for(Duration::from_millis(3)),
        )
        .unwrap();
        let clone = vfs.clone();
        assert!(!vfs.is_slow(), "latch trips on the first op, not install");
        let mut f = vfs.open_log(&p).unwrap();
        f.write_all(b"late").unwrap();
        assert!(vfs.is_slow());
        assert!(clone.is_slow(), "latch shared across clones");
        // unlike sticky, the slow disk still works correctly
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"late");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn force_slow_flips_the_latch_at_will() {
        let vfs = Vfs::faulted(DiskFaultPlan::new(0)).unwrap();
        assert!(!vfs.is_slow());
        vfs.force_slow();
        assert!(vfs.is_slow());
        // passthrough ignores the switch entirely
        let vfs = Vfs::passthrough();
        vfs.force_slow();
        assert!(!vfs.is_slow());
    }

    #[test]
    fn transient_eio_is_typed_and_clears() {
        let p = tmp("eio");
        std::fs::write(&p, b"x").unwrap();
        let vfs = Vfs::faulted(DiskFaultPlan::new(9).transient_eio(1.0).max_faults(1)).unwrap();
        let err = vfs.read(&p).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert_eq!(vfs.read(&p).unwrap(), b"x", "retry after EIO succeeds");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn fates_are_deterministic_across_identical_plans() {
        let run = |seed: u64| {
            let vfs = Vfs::faulted(
                DiskFaultPlan::new(seed)
                    .torn_writes(0.3)
                    .transient_eio(0.3)
                    .max_faults(u64::MAX),
            )
            .unwrap();
            (0..200)
                .map(|_| vfs.fate(OpKind::Write))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn invalid_plans_are_typed_errors() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let e = Vfs::faulted(DiskFaultPlan::new(0).bit_rot(bad));
            assert!(matches!(e, Err(ServeError::InvalidFaultPlan(_))), "{bad}");
        }
        // jointly overfull per-kind subset
        let e = Vfs::faulted(DiskFaultPlan::new(0).torn_writes(0.7).transient_eio(0.7));
        assert!(matches!(e, Err(ServeError::InvalidFaultPlan(_))));
        // distinct kinds do not share a budget of probability mass
        assert!(Vfs::faulted(
            DiskFaultPlan::new(0)
                .torn_writes(0.9)
                .bit_rot(0.9)
                .lying_fsyncs(0.9)
        )
        .is_ok());
    }

    #[test]
    fn atomic_write_replaces_and_frames_roundtrip() {
        let p = tmp("atomic");
        std::fs::remove_file(&p).ok();
        let vfs = Vfs::passthrough();
        vfs.write_frame(&p, *b"CRHT", 1, b"first").unwrap();
        vfs.write_frame(&p, *b"CRHT", 1, b"second").unwrap();
        assert!(!p.with_extension("tmp").exists());
        let (v, payload) = vfs.read_frame(&p, *b"CRHT", 1).unwrap();
        assert_eq!((v, payload.as_slice()), (1u32, b"second".as_slice()));
        vfs.remove_file(&p).unwrap();
    }

    #[test]
    fn torn_atomic_write_leaves_the_target_intact() {
        let p = tmp("atomic_torn");
        std::fs::remove_file(&p).ok();
        let vfs = Vfs::passthrough();
        vfs.write_atomic(&p, b"the original").unwrap();
        let faulted = Vfs::faulted(DiskFaultPlan::new(2).torn_writes(1.0).max_faults(1)).unwrap();
        let err = faulted.write_atomic(&p, b"the replacement").unwrap_err();
        assert!(matches!(err, ServeError::InjectedCrash(_)), "{err}");
        assert_eq!(std::fs::read(&p).unwrap(), b"the original");
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(p.with_extension("tmp")).ok();
    }

    #[test]
    fn detached_fates_leave_the_owner_schedule_and_budget_alone() {
        let plan = || {
            DiskFaultPlan::new(21)
                .torn_writes(0.2)
                .transient_eio(0.2)
                .max_faults(u64::MAX)
        };
        let kinds = [OpKind::Meta, OpKind::Write, OpKind::Sync, OpKind::Meta];
        let owner = |v: &Vfs, n: usize| (0..n).map(|_| v.fate(OpKind::Write)).collect::<Vec<_>>();
        let writer = |v: &Vfs| kinds.map(|k| v.fate(k));
        let plain = Vfs::faulted(plan()).unwrap();
        let (a, b) = (Vfs::faulted(plan()).unwrap(), Vfs::faulted(plan()).unwrap());
        assert_eq!(owner(&a, 10), owner(&plain, 10));
        owner(&b, 10);
        let (wa, wb) = (a.detach(&kinds), b.detach(&kinds));
        // the owner's next fates are the ones it would have drawn anyway
        assert_eq!(owner(&a, 30), owner(&plain, 30));
        // the writer's are fixed by where the owner stood when it
        // detached, not by what the owner drew since
        owner(&b, 7);
        assert_eq!(writer(&wa), writer(&wb));

        // a writer's fault is charged to its own budget
        let eio = Vfs::faulted(DiskFaultPlan::new(3).transient_eio(1.0).max_faults(1)).unwrap();
        let w = eio.detach(&[OpKind::Meta, OpKind::Meta]);
        assert_eq!(eio.writer_faults_fired(), 1);
        assert_eq!(eio.fate(OpKind::Meta), DiskFate::Transient);
        assert_eq!(eio.faults_fired(), 1);
        assert_eq!(w.fate(OpKind::Meta), DiskFate::Transient);
        assert_eq!(w.fate(OpKind::Meta), DiskFate::Healthy);
        // past the drawn operations, or off their kinds, a writer is healthy
        assert_eq!(w.fate(OpKind::Write), DiskFate::Healthy);
    }

    #[test]
    fn a_detached_writer_never_recreates_a_removed_directory() {
        let dir = tmp("detached_dir");
        std::fs::create_dir_all(&dir).unwrap();
        let writer = Vfs::passthrough().detach(&[]);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(writer.write_atomic(dir.join("late"), b"x").is_err());
        assert!(!dir.exists());
    }

    #[test]
    fn a_simulated_crash_stops_a_detached_writer() {
        let p = tmp("detached_crash");
        std::fs::remove_file(&p).ok();
        let atomic = [OpKind::Write, OpKind::Sync, OpKind::Meta, OpKind::Meta];
        let vfs = Vfs::faulted(DiskFaultPlan::new(0)).unwrap();
        let before = vfs.detach(&atomic);
        vfs.simulate_crash();
        let err = before.write_atomic(&p, b"after the crash").unwrap_err();
        assert!(matches!(err, ServeError::ShuttingDown), "{err}");
        assert!(!p.exists() && !p.with_extension("tmp").exists());
        // a writer drawn after the crash belongs to the restarted process
        vfs.detach(&atomic).write_atomic(&p, b"restarted").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"restarted");
        std::fs::remove_file(&p).ok();
    }

    // Golden digests of the disk fates a seed draws: chaos suites replay
    // their plans by seed, so a refactor of the draw must leave them
    // bit-identical. The constants were recorded from the original draw.

    fn push(buf: &mut Vec<u8>, x: u64) {
        buf.extend_from_slice(&x.to_le_bytes());
    }

    fn disk_digest(plan: DiskFaultPlan) -> u64 {
        let vfs = Vfs::faulted(plan).unwrap();
        let kinds = [
            OpKind::Write,
            OpKind::Sync,
            OpKind::Read,
            OpKind::Meta,
            OpKind::Write,
            OpKind::Read,
            OpKind::Sync,
        ];
        let mut buf = Vec::new();
        for i in 0..210 {
            match vfs.fate(kinds[i % kinds.len()]) {
                DiskFate::Healthy => push(&mut buf, 0),
                DiskFate::Torn { keep_frac } => {
                    push(&mut buf, 1);
                    push(&mut buf, keep_frac.to_bits());
                }
                DiskFate::BitFlip => {
                    push(&mut buf, 2);
                    let mut bytes = [0u8; 64];
                    vfs.flip_one_bit(&mut bytes);
                    for (at, b) in bytes.iter().enumerate() {
                        if *b != 0 {
                            push(&mut buf, at as u64);
                            push(&mut buf, u64::from(*b));
                        }
                    }
                }
                DiskFate::Lying => push(&mut buf, 3),
                DiskFate::Transient => push(&mut buf, 4),
                DiskFate::Sticky => push(&mut buf, 5),
            }
        }
        push(&mut buf, vfs.faults_fired());
        crh_core::persist::digest64(&buf)
    }

    #[test]
    fn disk_fates_match_golden_digests() {
        let plan = |seed: u64| {
            DiskFaultPlan::new(seed)
                .torn_writes(0.2)
                .bit_rot(0.15)
                .lying_fsyncs(0.2)
                .transient_eio(0.1)
        };
        let got = [
            disk_digest(plan(21).max_faults(30).sticky_after(150)),
            disk_digest(plan(4242).max_faults(30).sticky_after(150)),
            disk_digest(plan(21).max_faults(u64::MAX)),
            disk_digest(plan(4242).max_faults(u64::MAX)),
        ];
        let want: [u64; 4] = [
            0xa35b_c15d_20ff_da33,
            0x1bc2_5577_6cd7_11b1,
            0xeea3_a031_76d7_8164,
            0xde48_ea43_f391_b227,
        ];
        assert_eq!(got, want, "got {got:#018x?}");
    }
}
