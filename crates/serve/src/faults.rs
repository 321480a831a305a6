//! Deterministic fault injection for the serving layer.
//!
//! The MapReduce engine proves its fault tolerance with a seeded
//! `FaultPlan` resolved as a pure function of the task coordinates
//! (`crh_mapreduce::faults`); the daemon extends the same design to its
//! durability pipeline. A [`ServeFaultPlan`] assigns each ingest attempt a fate —
//! torn WAL write (`kill -9` between append and fsync), crash after the
//! fsync but before the fold, crash after the fold but before the ack,
//! crash during the snapshot (before or after the atomic rename), a
//! stalled fold (for overload tests), or a mid-solve kill — derived from
//! `(seed, chunk, attempt)` via [`crh_core::rng::hash_rng`]. The fate is
//! independent of timing and thread scheduling, so a chaos run replays
//! exactly and the recovery-equivalence suite can assert bit-identical
//! state.
//!
//! `max_faults` bounds the chaos (a global budget shared across clones,
//! surviving daemon restarts), guaranteeing every chunk is eventually
//! accepted within a finite retry budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crh_core::rng::{check_classes, hash_rng, pick_class, FaultClass, Rng};

use crate::error::ServeError;

/// Validate fault classes that share one draw, as a typed error.
pub(crate) fn check(classes: &[FaultClass<'_>]) -> Result<(), ServeError> {
    check_classes(classes).map_err(ServeError::InvalidFaultPlan)
}

/// The fraction of a torn write that reaches the disk: a seeded, strictly
/// partial prefix, drawn after the fate's class.
pub(crate) fn torn_keep_frac(rng: &mut impl Rng) -> f64 {
    0.05 + 0.9 * rng.random::<f64>()
}

/// A fault budget shared by every clone of its owner, surviving the
/// simulated restarts they are threaded through: once `max` faults have
/// fired, every further draw is healthy, so recovery cannot reset the
/// chaos and every retry loop terminates.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultBudget {
    max: u64,
    fired: Arc<AtomicU64>,
}

impl FaultBudget {
    pub(crate) fn new(max: u64) -> Self {
        Self {
            max,
            fired: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Faults fired so far across all clones.
    pub(crate) fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// Run `draw` unless the budget is spent, and charge the fate if it
    /// is not `healthy`. The charge re-checks the budget, so a fault
    /// whose unit a racing clone spent first turns healthy.
    pub(crate) fn draw<F: PartialEq>(&self, healthy: F, draw: impl FnOnce() -> F) -> F {
        if self.fired() >= self.max {
            return healthy;
        }
        let fate = draw();
        if fate != healthy && self.fired.fetch_add(1, Ordering::SeqCst) >= self.max {
            return healthy;
        }
        fate
    }
}

/// Where in the pipeline an injected crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePoint {
    /// Mid-append: the WAL record is torn (a prefix of its bytes reached
    /// the disk, fsync never happened).
    WalAppend,
    /// After the WAL append + fsync, before the fold: the chunk is
    /// durable but unapplied and unacknowledged.
    BeforeFold,
    /// After the fold, before the acknowledgement: the chunk is durable
    /// and applied in memory, but the ack never reaches the client.
    AfterFold,
    /// During the snapshot, before the atomic rename: the temp file is
    /// abandoned, the previous snapshot and full WAL survive.
    SnapshotWrite,
    /// After the snapshot rename, before the WAL truncation: the new
    /// snapshot and a stale WAL coexist (replay must skip applied seqs).
    SnapshotTruncate,
    /// During a batch solve (read-only; recovery is trivial but the
    /// daemon must still come back clean).
    Solve,
    /// Mid-write inside the storage layer: a seeded
    /// [`DiskFaultPlan`](crate::vfs::DiskFaultPlan) tore the write (a
    /// prefix of the bytes reached the disk) and the process is treated
    /// as crashed at that instant.
    DiskWrite,
}

/// The resolved fate of one ingest attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeFate {
    /// Run normally.
    Healthy,
    /// Crash mid-append, keeping this fraction of the record's bytes.
    TornWal {
        /// Fraction of the record that reaches the disk, in `(0, 1)`.
        keep_frac: f64,
    },
    /// Crash at [`ServePoint::BeforeFold`].
    CrashBeforeFold,
    /// Crash at [`ServePoint::AfterFold`].
    CrashAfterFold,
    /// Crash at [`ServePoint::SnapshotWrite`].
    CrashDuringSnapshot,
    /// Crash at [`ServePoint::SnapshotTruncate`].
    CrashAfterSnapshotRename,
    /// Stall the fold for this long before completing normally.
    StallFold(Duration),
}

/// A seeded chaos schedule for the daemon. Probabilities are
/// per-ingest-attempt and mutually exclusive (sum must be ≤ 1).
#[derive(Debug, Clone)]
pub struct ServeFaultPlan {
    /// Seed from which every fate is derived.
    pub seed: u64,
    /// Probability of a torn WAL write.
    pub torn_wal_prob: f64,
    /// Probability of a crash between fsync and fold.
    pub before_fold_prob: f64,
    /// Probability of a crash between fold and ack.
    pub after_fold_prob: f64,
    /// Probability of a crash before the snapshot rename.
    pub snapshot_write_prob: f64,
    /// Probability of a crash after the rename, before WAL truncation.
    pub snapshot_truncate_prob: f64,
    /// Probability of a stalled fold.
    pub stall_prob: f64,
    /// How long a stalled fold sleeps.
    pub stall_for: Duration,
    /// Total faults the injector may fire before going permanently
    /// healthy (shared across clones and daemon restarts).
    pub max_faults: u64,
}

impl ServeFaultPlan {
    /// A plan with the given seed and no faults; enable classes with the
    /// builder methods.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            torn_wal_prob: 0.0,
            before_fold_prob: 0.0,
            after_fold_prob: 0.0,
            snapshot_write_prob: 0.0,
            snapshot_truncate_prob: 0.0,
            stall_prob: 0.0,
            stall_for: Duration::from_millis(20),
            max_faults: 16,
        }
    }

    /// Set the torn-WAL-write probability.
    pub fn torn_wal(mut self, p: f64) -> Self {
        self.torn_wal_prob = p;
        self
    }

    /// Set the crash-before-fold probability.
    pub fn before_fold(mut self, p: f64) -> Self {
        self.before_fold_prob = p;
        self
    }

    /// Set the crash-after-fold probability.
    pub fn after_fold(mut self, p: f64) -> Self {
        self.after_fold_prob = p;
        self
    }

    /// Set the crash-during-snapshot probability (split evenly between
    /// before-rename and after-rename).
    pub fn during_snapshot(mut self, p: f64) -> Self {
        self.snapshot_write_prob = p / 2.0;
        self.snapshot_truncate_prob = p / 2.0;
        self
    }

    /// Set the stalled-fold probability and duration.
    pub fn stalls(mut self, p: f64, stall_for: Duration) -> Self {
        self.stall_prob = p;
        self.stall_for = stall_for;
        self
    }

    /// Cap the total number of injected faults.
    pub fn max_faults(mut self, n: u64) -> Self {
        self.max_faults = n;
        self
    }

    /// The fault classes in draw order (see [`pick_class`]).
    fn classes(&self) -> [FaultClass<'static>; 6] {
        [
            ("torn_wal_prob", self.torn_wal_prob),
            ("before_fold_prob", self.before_fold_prob),
            ("after_fold_prob", self.after_fold_prob),
            ("snapshot_write_prob", self.snapshot_write_prob),
            ("snapshot_truncate_prob", self.snapshot_truncate_prob),
            ("stall_prob", self.stall_prob),
        ]
    }

    /// Reject out-of-range probabilities and overfull plans with a typed
    /// error. The builder setters stay infallible (they are chained in
    /// test literals); this runs when the plan is installed in an
    /// injector, so a bad probability cannot silently skew seeded fates.
    pub fn validate(&self) -> Result<(), ServeError> {
        check(&self.classes())
    }
}

/// Resolves attempt fates from a [`ServeFaultPlan`].
///
/// Cloning shares the fault budget, so one injector threaded through a
/// crash/recover/retry loop keeps a single global count of fired faults
/// — recovery cannot reset the chaos budget.
#[derive(Debug, Clone, Default)]
pub struct ServeFaultInjector {
    plan: Option<Arc<ServeFaultPlan>>,
    budget: FaultBudget,
}

impl ServeFaultInjector {
    /// Wrap a plan.
    ///
    /// # Panics
    /// Panics if the plan's probabilities sum past 1 or any probability
    /// falls outside `[0, 1]`. Use [`Self::try_new`] for a typed error.
    pub fn new(plan: ServeFaultPlan) -> Self {
        let injector = Self::try_new(plan);
        assert!(injector.is_ok(), "{injector:?}");
        injector.unwrap_or_default()
    }

    /// Wrap a plan, reporting an invalid one as a typed error instead of
    /// panicking.
    pub fn try_new(plan: ServeFaultPlan) -> Result<Self, ServeError> {
        plan.validate()?;
        Ok(Self {
            budget: FaultBudget::new(plan.max_faults),
            plan: Some(Arc::new(plan)),
        })
    }

    /// An injector that never injects (the production default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Faults fired so far across all clones.
    pub fn faults_fired(&self) -> u64 {
        self.budget.fired()
    }

    /// The fate of ingest `attempt` of chunk `chunk`.
    ///
    /// Pure in `(seed, chunk, attempt)` apart from the global fault
    /// budget: once `max_faults` faults have fired, every further attempt
    /// is healthy, guaranteeing forward progress.
    pub fn fate(&self, chunk: u64, attempt: u64) -> ServeFate {
        let Some(p) = &self.plan else {
            return ServeFate::Healthy;
        };
        self.budget.draw(ServeFate::Healthy, || {
            let mut rng = hash_rng(p.seed, &[chunk, attempt]);
            match pick_class(&mut rng, &p.classes()) {
                Some(0) => ServeFate::TornWal {
                    keep_frac: torn_keep_frac(&mut rng),
                },
                Some(1) => ServeFate::CrashBeforeFold,
                Some(2) => ServeFate::CrashAfterFold,
                Some(3) => ServeFate::CrashDuringSnapshot,
                Some(4) => ServeFate::CrashAfterSnapshotRename,
                Some(_) => ServeFate::StallFold(p.stall_for),
                None => ServeFate::Healthy,
            }
        })
    }
}

/// The resolved fate of one replication frame on one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// Request and reply both arrive.
    Deliver,
    /// The request never arrives (the sender sees silence).
    Drop,
    /// The request arrives and is processed, but the reply is lost — the
    /// receiver's state advanced while the sender saw a timeout, the
    /// classic at-least-once ambiguity.
    DropReply,
    /// The request arrives twice (network-level duplication); both copies
    /// are processed, both replies return.
    Duplicate,
}

/// A scheduled partition: between `from_step` (inclusive) and `to_step`
/// (exclusive), links crossing the node-set boundary are cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First simulation step the partition is active.
    pub from_step: u64,
    /// First step after healing.
    pub to_step: u64,
    /// Bitmask of node ids on side A (bit `n` set ⇒ node `n` in A).
    pub side_a: u64,
    /// `false`: a full partition (nothing crosses either way).
    /// `true`: one-way — frames from side A reach side B, but nothing
    /// returns (requests from B and all replies to A are dropped), the
    /// asymmetric failure that breaks naive heartbeat schemes.
    pub one_way: bool,
}

impl PartitionWindow {
    /// The fate this window forces on a frame `from → to` during `step`:
    /// `None` unless the window is active and the link crosses it.
    fn cut(&self, from: u32, to: u32, step: u64) -> Option<LinkFate> {
        let a = |n: u32| self.side_a >> n & 1 == 1;
        if !(self.from_step..self.to_step).contains(&step) || a(from) == a(to) {
            return None;
        }
        // one-way A→B delivery: a request from A arrives but its reply
        // (travelling B→A) is lost; a request from B never arrives
        Some(if self.one_way && a(from) {
            LinkFate::DropReply
        } else {
            LinkFate::Drop
        })
    }
}

/// Domain tag separating the frame-*delay* draw from the frame-*fate*
/// draw. The fate draw keys on `(from, to, step, frame)` directly, so a
/// delay draw over the same coordinates must lead with a distinct tag —
/// otherwise configuring delays would silently reshuffle every existing
/// seeded drop/dup schedule and no prior chaos run would replay.
const DELAY_DOMAIN: u64 = 0xDE1A;

/// A seeded chaos schedule for the replication fabric: random link-level
/// drops/duplications, seeded frame delays, chronic per-peer stragglers,
/// scheduled (possibly one-way) partitions, and primary kills. Fates are
/// pure in `(seed, from, to, step, frame)`, so a chaotic cluster run
/// replays exactly.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// Seed from which every link fate is derived.
    pub seed: u64,
    /// Probability a frame is dropped outright.
    pub drop_prob: f64,
    /// Probability a frame is processed but its reply is lost.
    pub drop_reply_prob: f64,
    /// Probability a frame is delivered twice.
    pub dup_prob: f64,
    /// Probability a delivered frame is delayed (gray failure: the link
    /// is congested, not cut). Drawn from a separate rng domain, so
    /// enabling delays never perturbs the drop/dup schedule.
    pub delay_prob: f64,
    /// Inclusive `(min, max)` extra steps a delayed frame waits before
    /// delivery.
    pub delay_steps: (u64, u64),
    /// `(node, extra_steps)`: chronic stragglers. Every frame *to or
    /// from* the node is delayed by at least `extra_steps` — the
    /// one-slow-replica failure mode, per peer and per direction.
    pub stragglers: Vec<(u32, u64)>,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionWindow>,
    /// `(step, node)` pairs: kill `node` at the start of `step`.
    pub kills: Vec<(u64, u32)>,
    /// Steps a killed node stays down before restarting from its disk.
    pub restart_after: u64,
}

impl NetFaultPlan {
    /// A plan with the given seed and no faults.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            restart_after: 4,
            ..Self::default()
        }
    }

    /// Set the random frame-drop probability.
    pub fn drops(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Set the lost-reply probability.
    pub fn dropped_replies(mut self, p: f64) -> Self {
        self.drop_reply_prob = p;
        self
    }

    /// Set the frame-duplication probability.
    pub fn dups(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    /// Add a partition window.
    pub fn partition(mut self, w: PartitionWindow) -> Self {
        self.partitions.push(w);
        self
    }

    /// Kill `node` at `step` (it restarts `restart_after` steps later).
    pub fn kill(mut self, step: u64, node: u32) -> Self {
        self.kills.push((step, node));
        self
    }

    /// Set how long killed nodes stay down.
    pub fn restart_after(mut self, steps: u64) -> Self {
        self.restart_after = steps;
        self
    }

    /// Delay a `p` fraction of delivered frames by a seeded draw from
    /// `min..=max` extra steps.
    pub fn delays(mut self, p: f64, min: u64, max: u64) -> Self {
        self.delay_prob = p;
        self.delay_steps = (min, max);
        self
    }

    /// Mark `node` as a chronic straggler: every frame to or from it is
    /// delayed by at least `extra` steps.
    pub fn straggler(mut self, node: u32, extra: u64) -> Self {
        self.stragglers.push((node, extra));
        self
    }

    /// Extra steps the `frame`-th frame sent `from → to` during `step`
    /// waits before delivery. Pure in its arguments, and drawn from a
    /// domain separate from [`link_fate`](Self::link_fate)'s, so a plan
    /// that adds delays replays the exact drop/dup schedule it had
    /// without them.
    pub fn frame_delay(&self, from: u32, to: u32, step: u64, frame: u64) -> u64 {
        let mut delay = 0u64;
        for &(node, extra) in &self.stragglers {
            if node == from || node == to {
                delay = delay.max(extra);
            }
        }
        if self.delay_prob > 0.0 {
            let mut rng = hash_rng(
                self.seed,
                &[DELAY_DOMAIN, u64::from(from), u64::from(to), step, frame],
            );
            if rng.random::<f64>() < self.delay_prob {
                let (lo, hi) = self.delay_steps;
                let span = hi.saturating_sub(lo).saturating_add(1);
                delay = delay.max(lo + rng.next_u64() % span);
            }
        }
        delay
    }

    /// The fate of the `frame`-th frame sent `from → to` during `step`.
    /// Pure in its arguments: replaying the same plan yields the same
    /// chaos, byte for byte.
    pub fn link_fate(&self, from: u32, to: u32, step: u64, frame: u64) -> LinkFate {
        if let Some(fate) = self.partitions.iter().find_map(|w| w.cut(from, to, step)) {
            return fate;
        }
        let mut rng = hash_rng(self.seed, &[u64::from(from), u64::from(to), step, frame]);
        match pick_class(&mut rng, &self.link_classes()) {
            Some(0) => LinkFate::Drop,
            Some(1) => LinkFate::DropReply,
            Some(_) => LinkFate::Duplicate,
            None => LinkFate::Deliver,
        }
    }

    /// The link-fate classes in draw order (see [`pick_class`]).
    fn link_classes(&self) -> [FaultClass<'static>; 3] {
        [
            ("drop_prob", self.drop_prob),
            ("drop_reply_prob", self.drop_reply_prob),
            ("dup_prob", self.dup_prob),
        ]
    }

    /// Nodes scheduled to die at the start of `step`.
    pub fn kills_at(&self, step: u64) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .kills
            .iter()
            .filter(|(s, _)| *s == step)
            .map(|&(_, n)| n)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Reject out-of-range or jointly-overfull link probabilities with a
    /// typed error. [`SimCluster`](crate::failover::SimCluster) runs this
    /// on construction, so a chaos config cannot silently skew the seeded
    /// drop/dup split (the three classes share one uniform draw).
    pub fn validate(&self) -> Result<(), ServeError> {
        check(&self.link_classes())?;
        check(&[("delay_prob", self.delay_prob)])?;
        let (lo, hi) = self.delay_steps;
        if lo > hi {
            return Err(ServeError::InvalidFaultPlan(format!(
                "delay_steps min {lo} exceeds max {hi}"
            )));
        }
        if self.delay_prob > 0.0 && hi == 0 {
            return Err(ServeError::InvalidFaultPlan(
                "delay_prob set but delay_steps max is 0 (no-op delay)".into(),
            ));
        }
        Ok(())
    }
}

/// Where a seeded `kill -9` fires inside a shard split. The split
/// coordinator checks the plan at each stage boundary and abandons the
/// process there, exactly as a real crash would; recovery then reloads
/// the durable shard-map store and must land on exactly the pre- or
/// post-cutover topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitCrash {
    /// Before any staging I/O: nothing moved, map untouched.
    PreStage,
    /// After the donor snapshot is staged on some (not all) new-group
    /// members, mid catch-up: staged dirs are partial, map untouched.
    MidCatchUp,
    /// After the cutover record reached the durable shard-map store but
    /// before the coordinator adopted it in memory: the split is
    /// complete on disk.
    PostCutoverRecord,
    /// After adoption, before the caller sees the acknowledgement: the
    /// classic lost-ack ambiguity, resolved post-cutover on recovery.
    PreAck,
}

/// A seeded chaos schedule for a *sharded* topology: one link-fault
/// template stamped out per shard group (re-seeded per group so chaos
/// differs across groups but stays pure in `(seed, shard)`), per-group
/// partition windows, timed kills of single members or a shard's whole
/// quorum, and an optional crash point inside a split.
#[derive(Debug, Clone, Default)]
pub struct ShardFaultPlan {
    /// Seed every group's link fates are derived from.
    pub seed: u64,
    /// The link-fault template every group starts from, set through the
    /// builders: its drop, lost-reply, duplication and delay settings and
    /// `restart_after`. [`plan_for`](Self::plan_for) replaces its seed
    /// with a per-group draw.
    link: NetFaultPlan,
    /// `(shard, node, extra_steps)`: chronic stragglers inside a group.
    pub group_stragglers: Vec<(u32, u32, u64)>,
    /// `(shard, window)`: a partition inside that shard's group.
    pub group_partitions: Vec<(u32, PartitionWindow)>,
    /// `(step, shard, node)`: kill one member of `shard` at `step`.
    pub group_kills: Vec<(u64, u32, u32)>,
    /// `(step, shard)`: kill *every* member of `shard` at `step` — the
    /// whole-quorum outage the degraded-read contract is tested under.
    pub quorum_kills: Vec<(u64, u32)>,
    /// Crash the split coordinator at this stage boundary.
    pub split_crash: Option<SplitCrash>,
}

impl ShardFaultPlan {
    /// A plan with the given seed and no faults.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            link: NetFaultPlan::new(0),
            ..Self::default()
        }
    }

    /// Set the per-group random frame-drop probability.
    pub fn drops(mut self, p: f64) -> Self {
        self.link = self.link.drops(p);
        self
    }

    /// Set the per-group lost-reply probability.
    pub fn dropped_replies(mut self, p: f64) -> Self {
        self.link = self.link.dropped_replies(p);
        self
    }

    /// Set the per-group frame-duplication probability.
    pub fn dups(mut self, p: f64) -> Self {
        self.link = self.link.dups(p);
        self
    }

    /// Delay a `p` fraction of every group's frames by `min..=max` steps.
    pub fn delays(mut self, p: f64, min: u64, max: u64) -> Self {
        self.link = self.link.delays(p, min, max);
        self
    }

    /// Mark `node` of `shard` as a chronic straggler (`extra` steps).
    pub fn group_straggler(mut self, shard: u32, node: u32, extra: u64) -> Self {
        self.group_stragglers.push((shard, node, extra));
        self
    }

    /// Add a partition window inside `shard`'s group.
    pub fn group_partition(mut self, shard: u32, w: PartitionWindow) -> Self {
        self.group_partitions.push((shard, w));
        self
    }

    /// Kill one member of `shard` at `step`.
    pub fn kill_node(mut self, step: u64, shard: u32, node: u32) -> Self {
        self.group_kills.push((step, shard, node));
        self
    }

    /// Kill every member of `shard` at `step`.
    pub fn kill_quorum(mut self, step: u64, shard: u32) -> Self {
        self.quorum_kills.push((step, shard));
        self
    }

    /// Set how long killed nodes stay down.
    pub fn restart_after(mut self, steps: u64) -> Self {
        self.link = self.link.restart_after(steps);
        self
    }

    /// Crash the split coordinator at `point`.
    pub fn split_crash(mut self, point: SplitCrash) -> Self {
        self.split_crash = Some(point);
        self
    }

    /// Materialise the per-group [`NetFaultPlan`] for `shard`, a group of
    /// `replicas` members. Pure in `(seed, shard)`: the same sharded plan
    /// always yields the same per-group chaos, and two groups under one
    /// plan draw independent fates.
    pub fn plan_for(&self, shard: u32, replicas: usize) -> Result<NetFaultPlan, ServeError> {
        let mut rng = hash_rng(self.seed, &[0x5A4D, u64::from(shard)]);
        let mut p = NetFaultPlan {
            seed: rng.next_u64(),
            ..self.link.clone()
        };
        for &(s, node, extra) in &self.group_stragglers {
            if s == shard {
                p.stragglers.push((node, extra));
            }
        }
        for &(s, w) in &self.group_partitions {
            if s == shard {
                p.partitions.push(w);
            }
        }
        for &(step, s, node) in &self.group_kills {
            if s == shard {
                p.kills.push((step, node));
            }
        }
        for &(step, s) in &self.quorum_kills {
            if s == shard {
                p.kills
                    .extend((0..replicas as u32).map(|node| (step, node)));
            }
        }
        p.validate()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic(seed: u64) -> ServeFaultInjector {
        ServeFaultInjector::new(
            ServeFaultPlan::new(seed)
                .torn_wal(0.2)
                .before_fold(0.2)
                .after_fold(0.2)
                .during_snapshot(0.2)
                .max_faults(u64::MAX),
        )
    }

    #[test]
    fn fates_are_deterministic() {
        let a = chaotic(42);
        let b = chaotic(42);
        for chunk in 0..100u64 {
            for attempt in 0..3 {
                assert_eq!(a.fate(chunk, attempt), b.fate(chunk, attempt));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = chaotic(1);
        let b = chaotic(2);
        let run =
            |inj: &ServeFaultInjector| (0..200u64).map(|c| inj.fate(c, 0)).collect::<Vec<_>>();
        assert_ne!(run(&a), run(&b));
    }

    #[test]
    fn budget_caps_total_faults() {
        let inj = ServeFaultInjector::new(ServeFaultPlan::new(3).torn_wal(1.0).max_faults(5));
        let clone = inj.clone();
        let mut faults = 0;
        for c in 0..100u64 {
            let who = if c % 2 == 0 { &inj } else { &clone };
            if who.fate(c, 0) != ServeFate::Healthy {
                faults += 1;
            }
        }
        assert_eq!(faults, 5, "budget shared across clones");
        assert_eq!(inj.faults_fired(), 5);
    }

    #[test]
    fn disabled_injector_is_always_healthy() {
        let inj = ServeFaultInjector::disabled();
        for c in 0..50u64 {
            assert_eq!(inj.fate(c, 0), ServeFate::Healthy);
        }
        assert_eq!(inj.faults_fired(), 0);
    }

    #[test]
    fn torn_fraction_is_strictly_partial() {
        let inj =
            ServeFaultInjector::new(ServeFaultPlan::new(7).torn_wal(1.0).max_faults(u64::MAX));
        for c in 0..500u64 {
            if let ServeFate::TornWal { keep_frac } = inj.fate(c, 0) {
                assert!(keep_frac > 0.0 && keep_frac < 1.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn overfull_probabilities_rejected() {
        ServeFaultInjector::new(ServeFaultPlan::new(0).torn_wal(0.7).before_fold(0.7));
    }

    #[test]
    fn link_fates_are_deterministic_and_seed_sensitive() {
        let a = NetFaultPlan::new(11)
            .drops(0.2)
            .dropped_replies(0.1)
            .dups(0.1);
        let b = NetFaultPlan::new(11)
            .drops(0.2)
            .dropped_replies(0.1)
            .dups(0.1);
        let c = NetFaultPlan::new(12)
            .drops(0.2)
            .dropped_replies(0.1)
            .dups(0.1);
        let run = |p: &NetFaultPlan| {
            let mut v = Vec::new();
            for step in 0..40 {
                for from in 0..3u32 {
                    for to in 0..3u32 {
                        v.push(p.link_fate(from, to, step, 0));
                    }
                }
            }
            v
        };
        assert_eq!(run(&a), run(&b));
        assert_ne!(run(&a), run(&c));
    }

    #[test]
    fn frame_delays_are_deterministic_and_do_not_perturb_link_fates() {
        let bare = NetFaultPlan::new(11)
            .drops(0.2)
            .dropped_replies(0.1)
            .dups(0.1);
        let delayed = bare.clone().delays(0.5, 1, 4);
        let run = |p: &NetFaultPlan| {
            let mut v = Vec::new();
            for step in 0..40 {
                for from in 0..3u32 {
                    for to in 0..3u32 {
                        v.push(p.link_fate(from, to, step, 0));
                    }
                }
            }
            v
        };
        // the delay draw lives in its own rng domain: adding delays must
        // not reshuffle the seeded drop/dup schedule
        assert_eq!(run(&bare), run(&delayed));
        // delays themselves replay exactly and stay in range
        let mut any = false;
        for step in 0..40 {
            for from in 0..3u32 {
                for to in 0..3u32 {
                    let d = delayed.frame_delay(from, to, step, 0);
                    assert_eq!(d, delayed.frame_delay(from, to, step, 0));
                    assert!(d <= 4, "delay {d} above configured max");
                    any |= d > 0;
                }
            }
        }
        assert!(any, "p=0.5 over 360 frames produced no delay");
        assert_eq!(bare.frame_delay(0, 1, 3, 0), 0);
    }

    #[test]
    fn stragglers_delay_both_directions_and_floor_the_draw() {
        let p = NetFaultPlan::new(7).straggler(2, 10);
        assert_eq!(p.frame_delay(0, 2, 1, 0), 10);
        assert_eq!(p.frame_delay(2, 0, 1, 0), 10);
        assert_eq!(p.frame_delay(0, 1, 1, 0), 0);
        // a seeded draw can only push a straggler's delay further out
        let q = NetFaultPlan::new(7).straggler(2, 10).delays(1.0, 1, 3);
        for frame in 0..20 {
            assert!(q.frame_delay(0, 2, 1, frame) >= 10);
        }
    }

    #[test]
    fn delay_misconfiguration_is_a_typed_error() {
        let e = NetFaultPlan::new(0).delays(0.5, 4, 2).validate();
        assert!(matches!(e, Err(ServeError::InvalidFaultPlan(_))));
        let e = NetFaultPlan::new(0).delays(0.5, 0, 0).validate();
        assert!(matches!(e, Err(ServeError::InvalidFaultPlan(_))));
        let e = NetFaultPlan::new(0).delays(1.5, 1, 2).validate();
        assert!(matches!(e, Err(ServeError::InvalidFaultPlan(_))));
        assert!(NetFaultPlan::new(0).delays(0.5, 1, 4).validate().is_ok());
    }

    #[test]
    fn shard_plan_propagates_delays_per_group() {
        let plan = ShardFaultPlan::new(3)
            .delays(0.25, 1, 2)
            .group_straggler(1, 0, 8);
        let g0 = plan.plan_for(0, 3).unwrap();
        let g1 = plan.plan_for(1, 3).unwrap();
        assert_eq!(g0.delay_prob, 0.25);
        assert!(g0.stragglers.is_empty());
        assert_eq!(g1.stragglers, vec![(0, 8)]);
        assert_eq!(
            g1.frame_delay(0, 1, 0, 0).max(8),
            g1.frame_delay(0, 1, 0, 0)
        );
    }

    #[test]
    fn full_partition_cuts_both_directions() {
        let p = NetFaultPlan::new(0).partition(PartitionWindow {
            from_step: 10,
            to_step: 20,
            side_a: 0b001, // node 0 alone
            one_way: false,
        });
        assert_eq!(p.link_fate(0, 1, 15, 0), LinkFate::Drop);
        assert_eq!(p.link_fate(1, 0, 15, 0), LinkFate::Drop);
        // same side unaffected; outside the window everything flows
        assert_eq!(p.link_fate(1, 2, 15, 0), LinkFate::Deliver);
        assert_eq!(p.link_fate(0, 1, 9, 0), LinkFate::Deliver);
        assert_eq!(p.link_fate(1, 0, 20, 0), LinkFate::Deliver);
    }

    #[test]
    fn one_way_partition_is_asymmetric() {
        let p = NetFaultPlan::new(0).partition(PartitionWindow {
            from_step: 0,
            to_step: 10,
            side_a: 0b001,
            one_way: true,
        });
        // A→B requests arrive but the reply is lost; B→A requests vanish
        assert_eq!(p.link_fate(0, 1, 5, 0), LinkFate::DropReply);
        assert_eq!(p.link_fate(1, 0, 5, 0), LinkFate::Drop);
    }

    #[test]
    fn out_of_range_probabilities_are_typed_errors() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, -f64::INFINITY] {
            let e = ServeFaultInjector::try_new(ServeFaultPlan::new(0).torn_wal(bad));
            assert!(
                matches!(e, Err(ServeError::InvalidFaultPlan(_))),
                "torn_wal({bad}) accepted"
            );
            let e = NetFaultPlan::new(0).drops(bad).validate();
            assert!(
                matches!(e, Err(ServeError::InvalidFaultPlan(_))),
                "drops({bad}) accepted"
            );
            let e = ShardFaultPlan::new(0).dups(bad).plan_for(0, 3);
            assert!(
                matches!(e, Err(ServeError::InvalidFaultPlan(_))),
                "shard dups({bad}) accepted"
            );
        }
        // every individual probability in range, but jointly overfull
        let e = ServeFaultInjector::try_new(ServeFaultPlan::new(0).torn_wal(0.7).before_fold(0.7));
        assert!(matches!(e, Err(ServeError::InvalidFaultPlan(_))));
        let e = NetFaultPlan::new(0)
            .drops(0.5)
            .dropped_replies(0.4)
            .dups(0.2)
            .validate();
        assert!(matches!(e, Err(ServeError::InvalidFaultPlan(_))));
        // valid plans pass
        assert!(ServeFaultInjector::try_new(ServeFaultPlan::new(0).torn_wal(0.5)).is_ok());
        assert!(NetFaultPlan::new(0).drops(0.5).dups(0.5).validate().is_ok());
    }

    #[test]
    fn shard_plan_is_deterministic_and_group_sensitive() {
        let plan = ShardFaultPlan::new(9)
            .drops(0.1)
            .dups(0.05)
            .group_partition(
                1,
                PartitionWindow {
                    from_step: 5,
                    to_step: 10,
                    side_a: 0b001,
                    one_way: false,
                },
            )
            .kill_node(7, 0, 2)
            .kill_quorum(20, 1);
        let g0 = plan.plan_for(0, 3).unwrap();
        let g0b = plan.plan_for(0, 3).unwrap();
        let g1 = plan.plan_for(1, 3).unwrap();
        // pure in (seed, shard); groups draw independent link fates
        assert_eq!(g0.seed, g0b.seed);
        assert_ne!(g0.seed, g1.seed);
        // faults land only on their own group
        assert_eq!(g0.kills_at(7), vec![2]);
        assert_eq!(g1.kills_at(7), Vec::<u32>::new());
        assert_eq!(g1.kills_at(20), vec![0, 1, 2], "quorum kill covers all");
        assert_eq!(g0.kills_at(20), Vec::<u32>::new());
        assert!(g0.partitions.is_empty());
        assert_eq!(g1.partitions.len(), 1);
    }

    #[test]
    fn kill_schedule_is_sorted_and_deduped() {
        let p = NetFaultPlan::new(0)
            .kill(5, 2)
            .kill(5, 0)
            .kill(5, 2)
            .kill(9, 1);
        assert_eq!(p.kills_at(5), vec![0, 2]);
        assert_eq!(p.kills_at(9), vec![1]);
        assert_eq!(p.kills_at(6), Vec::<u32>::new());
    }
}
