//! Deterministic failover: the election rule and a simulated cluster
//! for exercising it under seeded network chaos.
//!
//! Failure *detection* lives in [`ReplicaNode::tick`]; this module holds
//! the *decision*, [`elect`], and [`SimCluster`], which feeds real
//! replica members through the daemon's own driver over a seeded,
//! fault-injected in-memory network ([`NetFaultPlan`]), so a chaotic run
//! replays exactly.
//!
//! [`ReplicaNode::tick`]: crate::replicate::ReplicaNode::tick

use std::collections::BTreeMap;

use crate::core::{ChunkClaim, ServeConfig};
use crate::driver::{wait_ticks, ReplicaDriver, PEER_QUEUE_CAP};
use crate::error::ServeError;
use crate::faults::{LinkFate, NetFaultPlan};
use crate::proto::{Request, Response};
use crate::replicate::{ReplicaConfig, ReplicaNode, Role};
use crate::scrub::ScrubReport;
use crate::server::HaConfig;
use crate::shard::ShardMap;

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

/// A peer frame (whose reply the plan may lose), or a peer's reply as
/// `(from, resp)`.
enum Msg {
    Frame {
        from: u32,
        req: Request,
        lose_reply: bool,
    },
    Reply(u32, Response),
}

/// A message on its way to member `dest`, due at step `at`.
struct Delivery {
    at: u64,
    dest: u32,
    msg: Msg,
}

/// One member slot: how to (re)open it, and its driver while it is up.
struct Member {
    replica: ReplicaConfig,
    serve: ServeConfig,
    shard: Option<(u32, ShardMap)>,
    driver: Option<ReplicaDriver<SimWrite>>,
    /// The step a killed member restarts at (0: none scheduled).
    down_until: u64,
}

impl Member {
    fn start(&mut self, now: u64) -> Result<(), ServeError> {
        let (replica, serve) = (self.replica.clone(), self.serve.clone());
        let shard = self.shard.clone();
        self.driver = Some(ReplicaDriver::open(replica, serve, shard, now)?);
        Ok(())
    }
}

/// A synchronous, deterministically chaotic cluster of replica members.
///
/// Each [`step`](Self::step) fires the scheduled kills (`kill -9`),
/// restarts downed members from their state directories, then ticks
/// every alive member in id order. A frame is routed through the
/// [`NetFaultPlan`], or shed if its link holds `PEER_QUEUE_CAP` frames.
/// Frames and replies join one FIFO, run dry before the next member
/// ticks: an undelayed round trip ends within the step, never inside
/// the sender's tick.
pub struct SimCluster {
    members: Vec<Member>,
    plan: NetFaultPlan,
    step: u64,
    frames_sent: u64,
    /// Messages in flight, in the order they were sent.
    wire: Vec<Delivery>,
    /// Replies that reached the outside sender (the split coordinator).
    outside: Vec<Response>,
    /// What each client write's staging node answered.
    answers: BTreeMap<SimWrite, Response>,
}

impl SimCluster {
    /// Build an `n`-node cluster wired with `plan`'s chaos; `serve_for`
    /// maps a node id to its daemon configuration.
    pub fn new(
        n: usize,
        serve_for: impl Fn(u32) -> ServeConfig,
        plan: NetFaultPlan,
    ) -> Result<Self, ServeError> {
        Self::group(n, serve_for, plan, None)
    }

    /// [`new`](Self::new) for the members of shard group `shard.0`, which
    /// bootstrap their route table from `shard.1`.
    pub(crate) fn group(
        n: usize,
        serve_for: impl Fn(u32) -> ServeConfig,
        plan: NetFaultPlan,
        shard: Option<(u32, ShardMap)>,
    ) -> Result<Self, ServeError> {
        plan.validate()?;
        let all: Vec<u32> = (0..n as u32).collect();
        let mut members = Vec::with_capacity(n);
        for &id in &all {
            let mut m = Member {
                replica: ReplicaConfig::new(id, &all),
                serve: serve_for(id),
                shard: shard.clone(),
                driver: None,
                down_until: 0,
            };
            m.start(0)?;
            members.push(m);
        }
        Ok(Self {
            members,
            plan,
            step: 0,
            frames_sent: 0,
            wire: Vec::new(),
            outside: Vec::new(),
            answers: BTreeMap::new(),
        })
    }

    /// The current step number.
    pub fn now(&self) -> u64 {
        self.step
    }

    /// Borrow node `i`, if it is alive.
    pub fn node(&self, i: usize) -> Option<&ReplicaNode> {
        let driver = self.members.get(i)?.driver.as_ref();
        driver.map(ReplicaDriver::node)
    }

    fn driver(&mut self, i: usize) -> Option<&mut ReplicaDriver<SimWrite>> {
        self.members.get_mut(i)?.driver.as_mut()
    }

    /// Indices of the members currently alive.
    pub fn alive(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.node(i).is_some())
            .collect()
    }

    /// Number of member slots (alive or not).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The index of the alive primary with the highest epoch, if any.
    pub fn primary(&self) -> Option<usize> {
        (0..self.len())
            .filter_map(|i| self.node(i).map(|n| (i, n)))
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

    /// Submit a client chunk to the primary, which waits for its quorum as
    /// long as a default [`HaConfig`] daemon; `Err` staged nothing.
    pub fn client_ingest(&mut self, claims: &[ChunkClaim]) -> Result<SimWrite, ServeError> {
        let no_primary = || ServeError::NotPrimary { hint: None };
        let i = self.primary().ok_or_else(no_primary)?;
        let ha = HaConfig::default();
        let ticks = wait_ticks(ha.commit_wait, ha.tick);
        let driver = self.driver(i).ok_or_else(no_primary)?;
        let key = driver.write(claims, None, ticks, |key| (i, key))?;
        self.collect(i);
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

    /// [`ReplicaNode::scrub_and_repair`] on node `i`, if it is alive.
    pub fn scrub_and_repair(&mut self, i: usize) -> Option<Result<ScrubReport, ServeError>> {
        Some(self.driver(i)?.node_mut().scrub_and_repair())
    }

    /// Advance one step. Only a restart that cannot reopen its node's
    /// state is an error; a member whose tick or reply handling fails
    /// stays alive, as in the daemon.
    pub fn step(&mut self) -> Result<(), ServeError> {
        self.step += 1;
        let now = self.step;
        for node in self.plan.kills_at(now) {
            if let Some(m) = self.members.get_mut(node as usize) {
                if m.driver.take().is_some() {
                    // dropped without snapshot_now(): a crash, not a shutdown
                    m.down_until = now + self.plan.restart_after;
                }
            }
        }
        for m in &mut self.members {
            if m.driver.is_none() && m.down_until != 0 && now >= m.down_until {
                // it boots after the last tick, before this one
                m.start(now - 1)?;
                m.down_until = 0;
            }
        }
        self.run_dry();
        for i in 0..self.len() {
            if let Some(driver) = self.driver(i) {
                driver.tick();
                self.collect(i);
                self.run_dry();
            }
        }
        Ok(())
    }

    /// Route member `i`'s frames and record its decided answers.
    fn collect(&mut self, i: usize) {
        let Some(driver) = self.driver(i) else { return };
        let (frames, answers) = driver.take_effects();
        self.answers.extend(answers);
        for (dest, req) in frames {
            self.route(i as u32, dest, req);
        }
    }

    /// Deliver every message due by now, in the order sent (lost if its
    /// member is down).
    fn run_dry(&mut self) {
        let now = self.step;
        while let Some(at) = self.wire.iter().position(|d| d.at <= now) {
            let Delivery { dest, msg, .. } = self.wire.remove(at);
            let Some(driver) = self.driver(dest as usize) else {
                continue;
            };
            let reply = match msg {
                Msg::Frame {
                    from,
                    req,
                    lose_reply,
                } => Some((from, driver.frame(req))).filter(|_| !lose_reply),
                Msg::Reply(from, resp) => {
                    driver.reply(from, &resp);
                    None
                }
            };
            self.collect(dest as usize);
            match reply {
                Some((to, resp)) if to as usize == self.len() => self.outside.push(resp),
                Some((to, resp)) => {
                    let msg = Msg::Reply(dest, resp);
                    self.wire.push(Delivery {
                        at: now,
                        dest: to,
                        msg,
                    });
                }
                None => {}
            }
        }
    }

    /// Frames from `from` to `dest` still in flight.
    fn in_flight(&self, from: u32, dest: u32) -> usize {
        let sent = |m: &Msg| matches!(m, Msg::Frame { from: f, .. } if *f == from);
        self.wire
            .iter()
            .filter(|d| d.dest == dest && sent(&d.msg))
            .count()
    }

    fn route(&mut self, from: u32, dest: u32, req: Request) {
        if self.in_flight(from, dest) >= PEER_QUEUE_CAP {
            return; // shed, as the daemon's full peer queue drops it
        }
        let now = self.step;
        self.frames_sent += 1;
        let fate = self.plan.link_fate(from, dest, now, self.frames_sent);
        let copies = match fate {
            LinkFate::Drop => return,
            LinkFate::Deliver | LinkFate::DropReply => 1,
            LinkFate::Duplicate => 2,
        };
        // a delayed frame is in flight, just slow: gray failure
        let at = now + self.plan.frame_delay(from, dest, now, self.frames_sent);
        for _ in 0..copies {
            let msg = Msg::Frame {
                from,
                req: req.clone(),
                lose_reply: fate == LinkFate::DropReply,
            };
            self.wire.push(Delivery { at, dest, msg });
        }
    }

    /// Route `req` to `dest` from outside the group (the split
    /// coordinator); returns the replies that have reached it so far.
    pub(crate) fn send_from_outside(&mut self, dest: u32, req: Request) -> Vec<Response> {
        self.route(self.len() as u32, dest, req);
        self.run_dry();
        std::mem::take(&mut self.outside)
    }

    /// Member `i`'s answer to `req`, handed over outside the fault plan.
    pub(crate) fn frame_to(&mut self, i: usize, req: Request) -> Option<Response> {
        let resp = self.driver(i)?.frame(req);
        self.collect(i);
        Some(resp)
    }

    /// Step until every node is alive, drained and digest-equal (after
    /// at least `min_steps`), or panic after `max_steps`. Returns the
    /// digest once no snapshot generation is in flight.
    pub fn settle(&mut self, min_steps: u64, max_steps: u64) -> Result<u64, ServeError> {
        let target = self.step + max_steps;
        let floor = self.step + min_steps;
        loop {
            self.step()?;
            let nodes: Vec<&ReplicaNode> = (0..self.len()).filter_map(|i| self.node(i)).collect();
            let quiet = |n: &ReplicaNode, d| n.state_digest() == d && n.commit() == n.durable();
            let digest = (self.step >= floor && nodes.len() == self.len())
                .then(|| nodes.first().map(|n| n.state_digest()))
                .flatten()
                .filter(|&d| nodes.iter().all(|n| quiet(n, d)));
            if let Some(digest) = digest {
                for driver in self.members.iter_mut().filter_map(|m| m.driver.as_mut()) {
                    driver.node_mut().finish_snapshot()?;
                }
                return Ok(digest);
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

    /// A follower whose link stalls while the primary keeps shipping
    /// fills that link to `PEER_QUEUE_CAP` frames in flight; the excess
    /// is shed, as the daemon's full peer queue drops it. Once the link
    /// recovers, the heartbeat retransmit catches the follower up.
    #[test]
    fn a_stalled_link_sheds_frames_past_the_queue_cap_and_the_follower_catches_up() {
        let mut c = cluster("shed", 3, NetFaultPlan::new(9));
        for _ in 0..12 {
            c.step().unwrap();
        }
        let p = c.primary().expect("a primary emerges");
        let stalled = (0..3).rev().find(|&i| i != p).unwrap();
        c.plan = NetFaultPlan::new(9).straggler(stalled as u32, 40);
        let link = |c: &SimCluster| c.in_flight(p as u32, stalled as u32);
        let mut fullest = 0;
        let mut writes = Vec::new();
        for i in 0..24 {
            if i < 16 {
                writes.push(c.client_ingest(&chunk(i)).unwrap());
            }
            c.step().unwrap();
            fullest = fullest.max(link(&c));
        }
        assert!(
            writes.iter().all(|&w| c.acked(w)),
            "the quorum commits without the stalled follower"
        );
        // full, and the primary still sends every step: the rest is shed
        assert_eq!(fullest, PEER_QUEUE_CAP, "the stalled link never filled");
        let primary = c.node(p).unwrap();
        assert!(c.node(stalled).unwrap().durable() < primary.durable());

        c.plan = NetFaultPlan::new(9);
        let digest = c.settle(0, 400).unwrap();
        let caught_up = c.node(stalled).unwrap();
        assert_eq!(caught_up.state_digest(), digest);
        assert_eq!(caught_up.core().chunks_seen(), 16);
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
