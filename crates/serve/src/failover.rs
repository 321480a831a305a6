//! Deterministic failover: the election rule and a simulated cluster
//! for exercising it under seeded network chaos.
//!
//! Failure *detection* lives in [`ReplicaNode::tick`] (a follower that
//! misses heartbeats for its node-id-staggered timeout campaigns); this
//! module holds the *decision* — [`elect`], a pure function from the
//! collected votes to the winner — and [`SimCluster`], a synchronous
//! stepped simulation that drives a set of real `ReplicaNode`s (real
//! `ServeCore`s, real WALs on disk) over a fault-injected in-memory
//! network ([`NetFaultPlan`]). Because every link fate, kill, and
//! restart is a pure function of the plan's seed and the step number,
//! a chaotic run replays exactly — the partition chaos suite leans on
//! this to compare post-heal replica digests against a never-partitioned
//! reference run.
//!
//! [`ReplicaNode::tick`]: crate::replicate::ReplicaNode::tick

use std::collections::BTreeMap;

use crate::core::{ChunkClaim, ServeConfig};
use crate::error::ServeError;
use crate::faults::{LinkFate, NetFaultPlan};
use crate::proto::Response;
use crate::replicate::{ReplicaConfig, ReplicaNode, Role};

/// Steps a simulated write waits for its quorum: the daemon's default 2 s at 20 ms a tick.
const SIM_COMMIT_WAIT: u64 = 100;

/// A write from [`SimCluster::client_ingest`]: the staging node's index
/// and that node's `(epoch, seq)` key for it.
pub type SimWrite = (usize, (u64, u64));

/// Pick the election winner from `votes`: node id → `(last_epoch,
/// durable)`. The best `(last_epoch, durable)` wins — a log extended by
/// a newer primary beats a longer stale one — and ties break to the
/// *lowest* node id, so any two candidates looking at the same votes
/// reach the same verdict. Returns `None` only for an empty vote set
/// (a candidate always votes for itself, so this never decides a real
/// election).
pub fn elect(votes: &BTreeMap<u32, (u64, u64)>) -> Option<u32> {
    votes
        .iter()
        .map(|(&node, &(last_epoch, durable))| (last_epoch, durable, std::cmp::Reverse(node)))
        .max()
        .map(|(_, _, std::cmp::Reverse(node))| node)
}

/// A frame held back by the plan's latency chaos: it is delivered (and
/// its reply fed back to whoever holds the sender's id — possibly a
/// restarted incarnation) at the start of the `deliver_at` step.
struct DelayedFrame {
    deliver_at: u64,
    from: u32,
    dest: u32,
    req: crate::proto::Request,
    drop_reply: bool,
}

/// A synchronous, deterministically chaotic cluster of [`ReplicaNode`]s.
///
/// Each [`step`](Self::step) advances logical time by one: scheduled
/// kills fire (the node is dropped mid-flight, exactly like `kill -9`),
/// downed nodes restart from their state directories, delayed frames
/// whose time has come are delivered, then every alive node ticks and
/// its outgoing frames are routed through the [`NetFaultPlan`] —
/// delivered, dropped, duplicated, delayed, or processed with the reply
/// lost. After each step it collects every alive node's decided writes.
pub struct SimCluster {
    nodes: Vec<Option<ReplicaNode>>,
    setups: Vec<(ReplicaConfig, ServeConfig)>,
    down_until: Vec<u64>,
    plan: NetFaultPlan,
    step: u64,
    frames_sent: u64,
    pending: Vec<DelayedFrame>,
    /// What each client write's staging node answered.
    answers: BTreeMap<SimWrite, Response>,
}

impl SimCluster {
    /// Build an `n`-node cluster over the state directories
    /// `dirs[0..n]`, wired with `plan`'s chaos. `serve_for` maps a node
    /// id to its daemon configuration (schema, alpha, state dir).
    pub fn new(
        n: usize,
        serve_for: impl Fn(u32) -> ServeConfig,
        plan: NetFaultPlan,
    ) -> Result<Self, ServeError> {
        plan.validate()?;
        let all: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(n);
        let mut setups = Vec::with_capacity(n);
        for &id in &all {
            let rcfg = ReplicaConfig::new(id, &all);
            let scfg = serve_for(id);
            let (node, _) = ReplicaNode::open(rcfg.clone(), scfg.clone())?;
            nodes.push(Some(node));
            setups.push((rcfg, scfg));
        }
        Ok(Self {
            down_until: vec![0; n],
            nodes,
            setups,
            plan,
            step: 0,
            frames_sent: 0,
            pending: Vec::new(),
            answers: BTreeMap::new(),
        })
    }

    /// The current step number.
    pub fn now(&self) -> u64 {
        self.step
    }

    /// Borrow node `i`, if it is alive.
    pub fn node(&self, i: usize) -> Option<&ReplicaNode> {
        self.nodes.get(i).and_then(Option::as_ref)
    }

    /// Mutably borrow node `i`, if it is alive. The shard-split
    /// coordinator uses this to drive the catch-up protocol against a
    /// donor group's primary directly, outside the stepped tick loop.
    pub fn node_mut(&mut self, i: usize) -> Option<&mut ReplicaNode> {
        self.nodes.get_mut(i).and_then(Option::as_mut)
    }

    /// Indices of the members currently alive.
    pub fn alive(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| i))
            .collect()
    }

    /// Number of member slots (alive or not).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The index of the alive primary with the highest epoch, if any.
    pub fn primary(&self) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
            .filter(|(_, n)| n.role() == Role::Primary)
            .max_by_key(|(_, n)| n.epoch())
            .map(|(i, _)| i)
    }

    /// The member a latency-conscious read should land on: the primary
    /// unless its disk has turned chronically slow, else the first alive
    /// member on a healthy disk, else whatever is reachable at all — a
    /// gray-degraded member still *answers*, it just shouldn't be the
    /// first choice.
    pub fn read_target(&self) -> Option<usize> {
        let healthy = |i: &usize| self.node(*i).is_some_and(|n| !n.core().vfs().is_slow());
        self.primary()
            .filter(healthy)
            .or_else(|| self.alive().into_iter().find(healthy))
            .or_else(|| self.primary())
            .or_else(|| self.alive().into_iter().next())
    }

    /// Submit a client chunk to the current primary, which stages it to
    /// wait `SIM_COMMIT_WAIT` steps for its quorum. Returns the write,
    /// or the node's typed refusal (nothing staged).
    pub fn client_ingest(&mut self, claims: &[ChunkClaim]) -> Result<SimWrite, ServeError> {
        let no_primary = || ServeError::NotPrimary { hint: None };
        let i = self.primary().ok_or_else(no_primary)?;
        let node = self.nodes.get_mut(i).and_then(Option::as_mut);
        let key = node
            .ok_or_else(no_primary)?
            .client_ingest(claims, self.step + SIM_COMMIT_WAIT)?;
        Ok((i, key))
    }

    /// What the client of `write` was told once its node decided it:
    /// `Ack`, or a `NotPrimary` / `NotReplicated` error frame. A node
    /// killed holding the write never answers, as after a `kill -9`.
    pub fn told(&self, write: SimWrite) -> Option<&Response> {
        self.answers.get(&write)
    }

    /// Whether the client of `write` was told `Ack`.
    pub fn acked(&self, write: SimWrite) -> bool {
        matches!(self.told(write), Some(Response::Ack { .. }))
    }

    /// Advance one step: kills, restarts, then a full tick-and-route
    /// round for every alive node (in node-id order — determinism). Only
    /// a restart that cannot reopen its node's state is an error; a node
    /// whose tick or reply handling fails stays alive, as in the daemon.
    pub fn step(&mut self) -> Result<(), ServeError> {
        self.step += 1;
        let now = self.step;

        for node in self.plan.kills_at(now) {
            let i = node as usize;
            if let (Some(slot), Some(down)) = (self.nodes.get_mut(i), self.down_until.get_mut(i)) {
                if slot.take().is_some() {
                    // dropped without snapshot_now(): a crash, not a shutdown
                    *down = now + self.plan.restart_after;
                }
            }
        }
        for ((slot, down), (rcfg, scfg)) in self
            .nodes
            .iter_mut()
            .zip(self.down_until.iter_mut())
            .zip(self.setups.iter())
        {
            if slot.is_none() && *down != 0 && now >= *down {
                let (node, _) = ReplicaNode::open(rcfg.clone(), scfg.clone())?;
                *slot = Some(node);
                *down = 0;
            }
        }

        self.deliver_due(now);

        // As in the daemon, a tick that fails (a fold or a disk write
        // inside it) ships nothing this round and a reply the sender
        // cannot take in is dropped; either way the node goes back into
        // its slot.
        for i in 0..self.nodes.len() {
            let Some(mut sender) = self.nodes.get_mut(i).and_then(Option::take) else {
                continue;
            };
            for (dest, req) in sender.tick(now).unwrap_or_default() {
                self.route(&mut sender, dest, &req, now);
            }
            if let Some(slot) = self.nodes.get_mut(i) {
                *slot = Some(sender);
            }
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let Some(node) = node else { continue };
            for (key, answer) in node.take_decided(now, false) {
                let resp = answer.unwrap_or_else(|e| Response::from_error(&e));
                self.answers.insert((i, key), resp);
            }
        }
        Ok(())
    }

    /// Deliver every pending delayed frame whose time has come, in the
    /// order it was queued (deterministic). The reply goes back to
    /// whatever node currently holds the sender's id — it may have
    /// crashed and restarted since the frame was sent, exactly as a real
    /// late packet would find it.
    fn deliver_due(&mut self, now: u64) {
        let mut due = Vec::new();
        let mut still_pending = Vec::new();
        for f in self.pending.drain(..) {
            if f.deliver_at <= now {
                due.push(f);
            } else {
                still_pending.push(f);
            }
        }
        self.pending = still_pending;
        for f in due {
            let resp = {
                let Some(receiver) = self.nodes.get_mut(f.dest as usize).and_then(Option::as_mut)
                else {
                    continue; // dead peer: the late frame hits silence
                };
                receiver.handle(f.from, &f.req, now)
            };
            if !f.drop_reply {
                if let Some(sender) = self.nodes.get_mut(f.from as usize).and_then(Option::as_mut) {
                    sender.on_reply(f.dest, &resp, now).ok();
                }
            }
        }
    }

    fn route(
        &mut self,
        sender: &mut ReplicaNode,
        dest: u32,
        req: &crate::proto::Request,
        now: u64,
    ) {
        self.frames_sent += 1;
        let fate = self
            .plan
            .link_fate(sender.node_id(), dest, now, self.frames_sent);
        let deliveries = match fate {
            LinkFate::Drop => return,
            LinkFate::Deliver | LinkFate::DropReply => 1,
            LinkFate::Duplicate => 2,
        };
        let delay = self
            .plan
            .frame_delay(sender.node_id(), dest, now, self.frames_sent);
        if delay > 0 {
            // gray failure: the frame is in flight, just slow. Queue each
            // copy for a later step; the sender moves on without waiting.
            for _ in 0..deliveries {
                self.pending.push(DelayedFrame {
                    deliver_at: now + delay,
                    from: sender.node_id(),
                    dest,
                    req: req.clone(),
                    drop_reply: fate == LinkFate::DropReply,
                });
            }
            return;
        }
        for _ in 0..deliveries {
            let Some(receiver) = self.nodes.get_mut(dest as usize).and_then(Option::as_mut) else {
                return; // dead (or unknown) peer: silence
            };
            let resp = receiver.handle(sender.node_id(), req, now);
            if fate != LinkFate::DropReply {
                sender.on_reply(dest, &resp, now).ok();
            }
        }
    }

    /// Run steps until every alive node reports the same folded state
    /// digest (and at least `min_steps` have run), or panic after
    /// `max_steps`. Returns the converged digest.
    pub fn settle(&mut self, min_steps: u64, max_steps: u64) -> Result<u64, ServeError> {
        let target = self.step + max_steps;
        let floor = self.step + min_steps;
        loop {
            self.step()?;
            if self.step >= floor {
                let digests: Vec<u64> = self
                    .nodes
                    .iter()
                    .flatten()
                    .map(|n| n.state_digest())
                    .collect();
                let all_alive = self.nodes.iter().all(Option::is_some);
                if let (true, Some((&first, rest))) = (all_alive, digests.split_first()) {
                    if rest.iter().all(|&d| d == first) {
                        // converged *and* drained: every durable record folded
                        let drained = self
                            .nodes
                            .iter()
                            .flatten()
                            .all(|n| n.commit() == n.durable());
                        if drained {
                            // and quiet: no snapshot generation still
                            // writing to a state directory
                            for node in self.nodes.iter_mut().flatten() {
                                node.finish_snapshot()?;
                            }
                            return Ok(first);
                        }
                    }
                }
            }
            assert!(
                self.step < target,
                "cluster failed to settle within {max_steps} steps"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use crh_core::schema::Schema;
    use crh_core::value::Value;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_continuous("temperature");
        s.add_continuous("humidity");
        s
    }

    fn chunk(step: u64) -> Vec<ChunkClaim> {
        (0..3u32)
            .map(|s| ChunkClaim {
                object: (step % 4) as u32,
                property: s % 2,
                source: s,
                value: Value::Num(5.0 + step as f64 + f64::from(s) * 0.5),
            })
            .collect()
    }

    /// A simulated cluster and its state directory; the cluster drops
    /// first.
    struct Sim {
        cluster: SimCluster,
        _dir: TestDir,
    }

    impl std::ops::Deref for Sim {
        type Target = SimCluster;

        fn deref(&self) -> &SimCluster {
            &self.cluster
        }
    }

    impl std::ops::DerefMut for Sim {
        fn deref_mut(&mut self) -> &mut SimCluster {
            &mut self.cluster
        }
    }

    fn cluster(tag: &str, n: usize, plan: NetFaultPlan) -> Sim {
        let base = TestDir::new(&format!("crh_sim_{tag}"));
        let b = base.to_path_buf();
        let cluster = SimCluster::new(
            n,
            move |id| ServeConfig::new(schema(), 0.5, b.join(format!("node{id}"))),
            plan,
        )
        .unwrap();
        Sim {
            cluster,
            _dir: base,
        }
    }

    #[test]
    fn elect_prefers_newer_epoch_then_longer_log_then_lower_id() {
        let votes: BTreeMap<u32, (u64, u64)> = [(0, (1, 10)), (1, (2, 3)), (2, (1, 50))]
            .into_iter()
            .collect();
        assert_eq!(elect(&votes), Some(1), "newest epoch beats longest log");
        let votes: BTreeMap<u32, (u64, u64)> = [(0, (1, 10)), (1, (1, 12)), (2, (1, 50))]
            .into_iter()
            .collect();
        assert_eq!(elect(&votes), Some(2), "longest log wins within an epoch");
        let votes: BTreeMap<u32, (u64, u64)> = [(2, (1, 10)), (1, (1, 10)), (0, (1, 9))]
            .into_iter()
            .collect();
        assert_eq!(elect(&votes), Some(1), "exact ties break to the lowest id");
        assert_eq!(elect(&BTreeMap::new()), None, "no votes, no winner");
    }

    #[test]
    fn healthy_cluster_elects_and_replicates() {
        let mut c = cluster("healthy", 3, NetFaultPlan::new(1));
        for _ in 0..12 {
            c.step().unwrap();
        }
        let p = c.primary().expect("a primary emerges unprompted");
        let w = c.client_ingest(&chunk(0)).unwrap();
        for _ in 0..6 {
            c.step().unwrap();
        }
        assert!(c.acked(w));
        let digest = c.settle(0, 64).unwrap();
        for i in 0..c.len() {
            assert_eq!(c.node(i).unwrap().state_digest(), digest);
        }
        // the follower lag bound is honest: everyone drained, lag 0
        for i in 0..c.len() {
            assert_eq!(c.node(i).unwrap().lag(), 0, "node {i} (primary {p})");
        }
    }

    /// The review-scenario regression: commit on {P, R} at epoch 2 while
    /// S holds only an uncommitted epoch-1 tail, P dies, R crash-restarts,
    /// S campaigns. R's persisted election rank (last folded epoch 2)
    /// must out-rank S's stale tail — a restart that regressed the rank
    /// to zero would let S win and commit conflicting bytes at an
    /// already-folded sequence.
    #[test]
    fn restarted_voter_still_outranks_a_stale_uncommitted_tail() {
        use crate::core::encode_chunk;
        use crate::proto::{Request, Response};

        let base = TestDir::new("crh_sim_rankreg");
        let all = [0u32, 1, 2];
        let open = |id: u32| {
            ReplicaNode::open(
                ReplicaConfig::new(id, &all),
                ServeConfig::new(schema(), 0.5, base.join(format!("node{id}"))),
            )
            .unwrap()
            .0
        };
        let mut r = open(1);
        let mut s = open(2);

        // epoch-1 primary P ships a record to S only; it never commits
        let stale = encode_chunk(0, &chunk(7));
        s.handle(
            0,
            &Request::Replicate {
                token: 0,
                epoch: 1,
                node: 0,
                seq: 0,
                commit: 0,
                record: stale,
            },
            1,
        );
        assert_eq!((s.last_epoch(), s.durable()), (1, 1));

        // P is re-elected at epoch 2 and commits different bytes with R
        let fresh = encode_chunk(0, &chunk(8));
        r.handle(
            0,
            &Request::Replicate {
                token: 0,
                epoch: 2,
                node: 0,
                seq: 0,
                commit: 1,
                record: fresh,
            },
            2,
        );
        assert_eq!(r.core().chunks_seen(), 1, "R folded the committed record");

        // P dies; R crash-restarts (no clean shutdown)
        drop(r);
        let mut r = open(1);
        assert_eq!(
            (r.last_epoch(), r.durable()),
            (2, 1),
            "the election rank survives the restart"
        );

        // S campaigns. Its first proposal (epoch 2) is refused — R
        // already adopted epoch 2 — and the retry at epoch 3 collects
        // R's honest rank, which must beat S's stale tail.
        let mut now = 100;
        loop {
            let frames = s.tick(now).unwrap();
            for (dest, req) in frames {
                if dest == 1 {
                    let resp = r.handle(2, &req, now);
                    if let Response::ReplAck { .. } = resp {
                        s.on_reply(1, &resp, now).unwrap();
                        assert_ne!(
                            s.role(),
                            Role::Primary,
                            "a stale uncommitted tail must not win away committed writes"
                        );
                        // the committed bytes are still the folded truth
                        assert_eq!(r.core().chunks_seen(), 1);
                        return;
                    }
                    s.on_reply(1, &resp, now).unwrap();
                }
            }
            now += 50;
            assert!(now < 2_000, "S never collected R's vote");
        }
    }

    #[test]
    fn cluster_converges_with_a_chronic_straggler_and_random_delays() {
        // node 2 lags every frame by 6 steps and the rest of the fabric
        // jitters; commits must still land (at quorum 2-of-3, without
        // waiting on the straggler) and the cluster must converge.
        let plan = NetFaultPlan::new(5).straggler(2, 6).delays(0.2, 1, 3);
        let mut c = cluster("straggler", 3, plan);
        for _ in 0..16 {
            c.step().unwrap();
        }
        c.primary().expect("a primary emerges despite the jitter");
        let w = c.client_ingest(&chunk(0)).unwrap();
        let mut committed_at = None;
        for s in 0..32 {
            c.step().unwrap();
            if c.acked(w) {
                committed_at = Some(s);
                break;
            }
        }
        let waited = committed_at.expect("commit never arrived");
        assert!(
            waited < 6,
            "ack serialized behind the 6-step straggler (took {waited} steps)"
        );
        c.settle(0, 256).unwrap();
    }

    #[test]
    fn killing_the_primary_promotes_a_survivor() {
        let mut c = cluster("failover", 3, NetFaultPlan::new(2).restart_after(1_000_000));
        for _ in 0..12 {
            c.step().unwrap();
        }
        let old = c.primary().expect("initial primary");
        let old_epoch = c.node(old).unwrap().epoch();
        // feed some committed data first
        let w = c.client_ingest(&chunk(0)).unwrap();
        for _ in 0..6 {
            c.step().unwrap();
        }
        assert!(c.acked(w));

        // kill it (restart far beyond the test horizon)
        c.plan = std::mem::take(&mut c.plan).kill(c.now() + 1, old as u32);
        let mut promoted = None;
        for _ in 0..64 {
            c.step().unwrap();
            if let Some(p) = c.primary() {
                if p != old {
                    promoted = Some(p);
                    break;
                }
            }
        }
        let p = promoted.expect("a survivor takes over");
        assert!(c.node(p).unwrap().epoch() > old_epoch);
        // and the committed chunk survived the failover
        let (_, (_, seq)) = w;
        assert!(seq < c.node(p).unwrap().commit());
        // new primary accepts writes
        let w2 = c.client_ingest(&chunk(1)).unwrap();
        for _ in 0..8 {
            c.step().unwrap();
        }
        assert!(c.acked(w2));
    }
}
