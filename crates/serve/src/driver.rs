//! The owner's work for one replica member: one deterministic state
//! machine that the TCP daemon ([`crate::server::HaServer`]) and the
//! simulator ([`crate::failover::SimCluster`]) both feed, one event at a
//! time (tick, client write, read, peer or shard frame, peer reply,
//! shutdown). It reads no clock and touches no socket. Only this module
//! and `replicate.rs` call the node's `tick`, `handle`, `on_reply` and
//! `take_decided`.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::core::{ChunkClaim, ServeConfig, ServeCore};
use crate::error::ServeError;
use crate::proto::{Request, Response};
use crate::replicate::{ReplicaConfig, ReplicaNode, Role};
use crate::shard::{ShardMap, ShardMapStore};

/// Frames one link to a peer holds (the daemon's per-peer queue, the
/// simulator's frames in flight); a frame beyond it is dropped.
pub(crate) const PEER_QUEUE_CAP: usize = 64;

/// A write's quorum wait in ticks: `ceil(wait / tick)`, at least one.
pub(crate) fn wait_ticks(wait: Duration, tick: Duration) -> u64 {
    let ticks = wait.as_nanos().div_ceil(tick.as_nanos().max(1));
    u64::try_from(ticks).unwrap_or(u64::MAX).max(1)
}

/// The cheap reads both daemons answer from their folded state.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Read {
    Weights,
    Truth { object: u32, property: u32 },
    Status,
}

impl Read {
    pub(crate) fn answer(self, core: &ServeCore, queue_depth: usize) -> Response {
        match self {
            Read::Weights => Response::Weights(core.weights().to_vec()),
            Read::Truth { object, property } => Response::Truth(core.truth(object, property)),
            Read::Status => {
                let status = core.status();
                Response::Status {
                    chunks_seen: status.chunks_seen,
                    wal_records: status.wal_records,
                    cached_truths: status.cached_truths,
                    queue_depth: queue_depth as u64,
                    quarantined: status.quarantined,
                }
            }
        }
    }
}

/// Wrap an answer with a follower's staleness bound; `None` (a primary
/// or a standalone daemon) returns it unwrapped.
pub(crate) fn follower_wrap(lag: Option<u64>, inner: Response) -> Response {
    match lag {
        None => inner,
        Some(lag) => Response::FollowerRead {
            lag,
            inner: inner.encode(),
        },
    }
}

/// What events leave behind, each in order: frames to ship as `(dest,
/// frame)` and decided answers as `(token, answer)`.
pub(crate) type Effects<T> = (Vec<(u32, Request)>, Vec<(T, Response)>);

/// A sharded member's routing state: its shard id plus the route table
/// it enforces, backed by the durable per-member map store.
struct ShardState {
    shard: u32,
    map: ShardMap,
    store: ShardMapStore,
}

impl ShardState {
    /// Gate a shard-checked frame: it must name this shard and the
    /// current map version, and every object must route here.
    fn check(
        &self,
        shard: u32,
        map_version: u64,
        objects: impl IntoIterator<Item = u32>,
    ) -> Result<(), ServeError> {
        let at = self.shard;
        if shard != at {
            return Err(ServeError::WrongShard { shard, at });
        }
        if map_version != self.map.version {
            let current = self.map.version;
            return Err(ServeError::StaleShardMap {
                got: map_version,
                current,
            });
        }
        let mut owners = objects.into_iter().map(|o| self.map.shard_of(o));
        owners
            .find(|&s| s != at)
            .map_or(Ok(()), |shard| Err(ServeError::WrongShard { shard, at }))
    }
}

fn unsharded() -> ServeError {
    ServeError::Protocol("shard frame sent to an unsharded member".into())
}

/// One replica member's owner state. `T` is a pending write's reply
/// token: a reply channel in the daemon, a
/// [`SimWrite`](crate::failover::SimWrite) in the simulator.
pub(crate) struct ReplicaDriver<T> {
    node: ReplicaNode,
    /// Present iff this member serves a shard of a sharded topology.
    shard: Option<ShardState>,
    /// Logical replication time, advanced once per tick.
    now: u64,
    /// Tokens of the client writes the node holds pending, under the
    /// node's `(epoch, seq)` key.
    tokens: BTreeMap<(u64, u64), T>,
    frames: Vec<(u32, Request)>,
    answers: Vec<(T, Response)>,
}

impl<T> ReplicaDriver<T> {
    /// Open the replica in `serve` at logical time `now`; a shard member's
    /// route table comes from its store, seeded by `shard`'s when empty.
    pub(crate) fn open(
        replica: ReplicaConfig,
        serve: ServeConfig,
        shard: Option<(u32, ShardMap)>,
        now: u64,
    ) -> Result<Self, ServeError> {
        let store = ShardMapStore::new(serve.dir.join("shard.map"));
        let (node, _) = ReplicaNode::open(replica, serve)?;
        let shard = match shard {
            Some((shard, bootstrap)) => Some(ShardState {
                shard,
                map: store.load_or_init(|| Ok(bootstrap))?,
                store,
            }),
            None => None,
        };
        Ok(Self {
            node,
            shard,
            now,
            tokens: BTreeMap::new(),
            frames: Vec::new(),
            answers: Vec::new(),
        })
    }

    /// The replica state machine, for reads of its state.
    pub(crate) fn node(&self) -> &ReplicaNode {
        &self.node
    }

    /// The node, for work that is no event: snapshots and scrubs.
    pub(crate) fn node_mut(&mut self) -> &mut ReplicaNode {
        &mut self.node
    }

    /// Drain the effects of the events so far.
    pub(crate) fn take_effects(&mut self) -> Effects<T> {
        (
            std::mem::take(&mut self.frames),
            std::mem::take(&mut self.answers),
        )
    }

    /// Answer the pending writes the node has decided, after each event.
    fn decide(&mut self, stopping: bool) {
        for (key, answer) in self.node.take_decided(self.now, stopping) {
            if let Some(token) = self.tokens.remove(&key) {
                let resp = answer.unwrap_or_else(|e| Response::from_error(&e));
                self.answers.push((token, resp));
            }
        }
    }

    /// Event: one logical tick; a failed tick ships nothing this round.
    pub(crate) fn tick(&mut self) {
        self.now += 1;
        self.frames
            .extend(self.node.tick(self.now).unwrap_or_default());
        self.decide(false);
    }

    /// Event: a client write. Stage `claims` durably (after the shard
    /// check, for a shard-routed write) to wait `ticks` for its quorum,
    /// and hold `token(key)` until the node decides it. An `Err` is the
    /// typed refusal of a write that staged nothing.
    pub(crate) fn write(
        &mut self,
        claims: &[ChunkClaim],
        shard_check: Option<(u32, u64)>,
        ticks: u64,
        token: impl FnOnce((u64, u64)) -> T,
    ) -> Result<(u64, u64), ServeError> {
        if let Some((shard, version)) = shard_check {
            let st = self.shard.as_ref().ok_or_else(unsharded)?;
            st.check(shard, version, claims.iter().map(|c| c.object))?;
        }
        let key = self
            .node
            .client_ingest(claims, self.now.saturating_add(ticks))?;
        self.tokens.insert(key, token(key));
        self.decide(false);
        Ok(key)
    }

    /// Event: a read, wrapped with the staleness bound off the primary.
    pub(crate) fn read(&self, read: Read) -> Response {
        follower_wrap(self.lag(), read.answer(self.node.core(), 0))
    }

    /// A follower's staleness bound; `None` on the primary.
    pub(crate) fn lag(&self) -> Option<u64> {
        (self.node.role() != Role::Primary).then(|| self.node.lag())
    }

    /// Event: a replication or shard frame, answered at once.
    pub(crate) fn frame(&mut self, req: Request) -> Response {
        let answer = match req {
            // the node checks each frame's cluster key before trusting it
            Request::Replicate { node, .. }
            | Request::Heartbeat { node, .. }
            | Request::Promote { node, .. } => Ok(self.node.handle(node, &req, self.now)),
            Request::CatchUp { .. } | Request::SeqQuery { .. } => {
                Ok(self.node.handle(0, &req, self.now))
            }
            req => self.shard_frame(req),
        };
        self.decide(false);
        answer.unwrap_or_else(|e| Response::from_error(&e))
    }

    /// A shard frame: the route table, a shard-checked read, or a split's
    /// stage or cutover.
    fn shard_frame(&mut self, req: Request) -> Result<Response, ServeError> {
        let key = self.node.cluster_key();
        let st = self.shard.as_mut().ok_or_else(unsharded)?;
        match req {
            Request::RouteTable => Ok(Response::RouteTable {
                version: st.map.version,
                shard: st.shard,
                ranges: st.map.ranges().to_vec(),
            }),
            Request::ShardTruth {
                shard,
                map_version,
                object,
                property,
            } => {
                st.check(shard, map_version, [object])?;
                Ok(self.read(Read::Truth { object, property }))
            }
            Request::SplitStage { token, .. } | Request::SplitCutover { token, .. }
                if token != key =>
            {
                Err(ServeError::Protocol(
                    "split frame with a foreign cluster key".into(),
                ))
            }
            // seed this (virgin) member with the donor's committed state;
            // the node itself refuses once it holds any state
            Request::SplitStage {
                shard,
                snapshot,
                records,
                ..
            } => {
                if shard != st.shard {
                    return Err(ServeError::WrongShard {
                        shard,
                        at: st.shard,
                    });
                }
                let head = self.node.seed_split(snapshot.as_deref(), &records)?;
                Ok(Response::Ack {
                    seq: head.saturating_sub(1),
                    chunks_seen: head,
                })
            }
            // adopt the table through the durable store, the atomic
            // cutover record, then serve under it
            Request::SplitCutover {
                version, ranges, ..
            } => {
                let next = ShardMap::from_ranges(version, ranges)?;
                st.map = st.store.adopt(&st.map, st.shard, next)?;
                Ok(Response::Ack {
                    seq: version,
                    chunks_seen: version,
                })
            }
            // the front-end answers every client request itself
            _ => Err(ServeError::Protocol(
                "client request routed as a cluster frame".into(),
            )),
        }
    }

    /// Event: peer `from`'s reply, applied at the current tick (dropped if
    /// the node cannot take it in).
    pub(crate) fn reply(&mut self, from: u32, resp: &Response) {
        self.node.on_reply(from, resp, self.now).ok();
        self.decide(false);
    }

    /// Event: shutdown; every pending write is answered now.
    pub(crate) fn shutdown(&mut self) {
        self.decide(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use crh_core::schema::Schema;
    use crh_core::value::Value;

    type Driver = ReplicaDriver<&'static str>;

    fn open(base: &TestDir, id: u32) -> Driver {
        let mut schema = Schema::new();
        schema.add_continuous("temperature");
        let serve = ServeConfig::new(schema, 0.5, base.join(format!("node{id}")));
        ReplicaDriver::open(ReplicaConfig::new(id, &[0, 1, 2]), serve, None, 0).unwrap()
    }

    fn chunk(i: u32) -> Vec<ChunkClaim> {
        vec![ChunkClaim {
            object: i,
            property: 0,
            source: 0,
            value: Value::Num(20.0 + f64::from(i)),
        }]
    }

    /// Deliver `from`'s frames and hand each reply straight back.
    fn exchange(d: &mut [Driver], from: usize, frames: Vec<(u32, Request)>) {
        for (dest, req) in frames {
            let resp = d[dest as usize].frame(req);
            d[from].reply(dest, &resp);
        }
    }

    #[test]
    fn a_reply_queued_behind_a_write_applies_after_it_and_answers_leave_in_decision_order() {
        let base = TestDir::new("crh_driver_order");
        let mut d: Vec<Driver> = (0..3).map(|id| open(&base, id)).collect();
        // node 0's election timeout passes first; its campaign and the
        // first round of its reign go through one exchange per tick
        for _ in 0..12 {
            d[0].tick();
            let (frames, _) = d[0].take_effects();
            exchange(&mut d, 0, frames);
        }
        assert_eq!(d[0].node().role(), Role::Primary);

        d[0].write(&chunk(0), None, 100, |_| "a").unwrap();
        d[0].write(&chunk(1), None, 100, |_| "b").unwrap();
        d[0].tick();
        let (frames, answers) = d[0].take_effects();
        assert!(answers.is_empty(), "nothing commits before a peer acks");
        // follower 1 answers the shipment of a and b; its replies queue
        // behind a third write and are applied after it
        let replies: Vec<Response> = frames
            .into_iter()
            .filter(|(dest, _)| *dest == 1)
            .map(|(_, req)| d[1].frame(req))
            .collect();
        let (_, c_seq) = d[0].write(&chunk(2), None, 100, |_| "c").unwrap();
        assert_eq!(c_seq, 2);
        for resp in &replies {
            d[0].reply(1, resp);
        }
        let (_, answers) = d[0].take_effects();
        let told: Vec<(&str, u64)> = answers
            .iter()
            .map(|(token, resp)| match resp {
                Response::Ack { seq, .. } => (*token, *seq),
                other => panic!("{token}: {other:?}"),
            })
            .collect();
        assert_eq!(told, [("a", 0), ("b", 1)], "c waits for its own shipment");

        // c's deadline passes with no shipment answered: it is told
        // NotReplicated on the tick that reaches it
        for _ in 0..100 {
            d[0].tick();
        }
        let (_, answers) = d[0].take_effects();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].0, "c");
        assert!(
            matches!(&answers[0].1, Response::Error { code, .. } if *code == crate::error::code::NOT_REPLICATED),
            "{:?}",
            answers[0].1
        );
    }
}
