//! Entry-sharded serving: the deterministic shard map, its durable
//! store, and a simulated sharded topology for chaos testing.
//!
//! Per-entity truth discovery is embarrassingly partitionable — no
//! iteration of CRH ever couples two objects except through source
//! weights, and each shard group estimates weights over its own slice —
//! so the horizontal scaling unit is an *entry range*: the 64-bit hash
//! space of object ids, cut into contiguous ranges, one quorum-replicated
//! group per range. The hash point is [`crh_mapreduce::key_hash`], the
//! same seam the MapReduce engine partitions reducers with, so a router,
//! every group member, and any offline replay all agree on placement
//! without coordination.
//!
//! The map itself is tiny, versioned, and durable ([`ShardMapStore`],
//! written with the same write-tmp → fsync → rename → dir-fsync
//! discipline as snapshots and election meta). A rebalance
//! ([`ShardedSim::split`]) stages the moved range onto virgin members
//! through the daemon's own handlers and only then writes the next map
//! version as the *atomic cutover record*: a crash at any stage recovers
//! to exactly the pre- or post-cutover topology, never between.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crh_core::persist::{crc32, Dec, Enc};
use crh_core::value::Truth;

use crate::core::{decode_chunk, ChunkClaim, ServeConfig};
use crate::error::ServeError;
use crate::failover::{SimCluster, SimWrite};
use crate::faults::{ShardFaultPlan, SplitCrash};
use crate::proto::{decode_exact, Request, Response, Wire};
use crate::replicate::ReplicaNode;
use crate::vfs::Vfs;

const MAP_MAGIC: [u8; 8] = *b"CRHSHMP1";

/// Steps the split coordinator waits for a reachable donor primary
/// before giving up (the map stays pre-cutover on that path).
const SPLIT_PRIMARY_BUDGET: u64 = 200;

/// The entry-space hash point for `object`: every placement decision —
/// router, shard member, recovery replay — derives from this one
/// function, via [`crh_mapreduce::key_hash`].
pub fn entry_point(object: u32) -> u64 {
    crh_mapreduce::key_hash(&object)
}

/// One contiguous slice of the 64-bit entry-hash space, owned by one
/// shard group. Bounds are inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// The owning shard group's id.
    pub shard: u32,
    /// First hash point in the range (inclusive).
    pub start: u64,
    /// Last hash point in the range (inclusive).
    pub end: u64,
}

/// A versioned, total, non-overlapping assignment of the entry-hash
/// space to shard groups. Construction validates totality (the ranges
/// are sorted, contiguous, and cover `[0, u64::MAX]`) so `shard_of` can
/// never fail to place an entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Monotone map version; every cutover increments it.
    pub version: u64,
    ranges: Vec<ShardRange>,
}

impl ShardMap {
    /// Version-0 map cutting the hash space into `n` near-equal ranges
    /// for shards `0..n`.
    pub fn uniform(n: u32) -> Result<Self, ServeError> {
        if n == 0 {
            return Err(ServeError::Protocol(
                "a shard map needs at least one shard".into(),
            ));
        }
        let width = u64::MAX / u64::from(n);
        let ranges = (0..n)
            .map(|s| ShardRange {
                shard: s,
                start: u64::from(s) * width,
                end: if s + 1 == n {
                    u64::MAX
                } else {
                    (u64::from(s) + 1) * width - 1
                },
            })
            .collect();
        Self::from_ranges(0, ranges)
    }

    /// Build a map from an explicit range table, refusing anything that
    /// is not a total, sorted, non-overlapping cover with unique owners.
    pub fn from_ranges(version: u64, ranges: Vec<ShardRange>) -> Result<Self, ServeError> {
        let bad = |msg: String| Err(ServeError::Protocol(format!("invalid shard map: {msg}")));
        let Some(first) = ranges.first() else {
            return bad("no ranges".into());
        };
        if first.start != 0 {
            return bad(format!("first range starts at {} not 0", first.start));
        }
        let mut seen = std::collections::BTreeSet::new();
        for (i, r) in ranges.iter().enumerate() {
            if r.start > r.end {
                return bad(format!("range {i} is empty ({} > {})", r.start, r.end));
            }
            if !seen.insert(r.shard) {
                return bad(format!("shard {} owns two ranges", r.shard));
            }
            if let Some(next) = ranges.get(i + 1) {
                if r.end == u64::MAX || next.start != r.end + 1 {
                    return bad(format!(
                        "gap or overlap between range {i} (ends {}) and {} (starts {})",
                        r.end,
                        i + 1,
                        next.start
                    ));
                }
            } else if r.end != u64::MAX {
                return bad(format!("last range ends at {} not u64::MAX", r.end));
            }
        }
        Ok(Self { version, ranges })
    }

    /// The range table, sorted by `start`.
    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }

    /// All shard ids, in range order.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.ranges.iter().map(|r| r.shard).collect()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The shard owning `object`. Total by construction.
    pub fn shard_of(&self, object: u32) -> u32 {
        let point = entry_point(object);
        let idx = self.ranges.partition_point(|r| r.start <= point);
        // construction guarantees coverage: idx >= 1 and the preceding
        // range contains the point
        match idx.checked_sub(1).and_then(|i| self.ranges.get(i)) {
            Some(r) => r.shard,
            None => 0,
        }
    }

    /// The next map version: `source`'s range `[s, e]` is cut at `at`
    /// into `[s, at-1]` (kept by `source`) and `[at, e]` (moved to the
    /// previously-unused `new_shard`). Pure — the caller commits the
    /// result through the durable store.
    pub fn split(&self, source: u32, new_shard: u32, at: u64) -> Result<Self, ServeError> {
        if self.ranges.iter().any(|r| r.shard == new_shard) {
            return Err(ServeError::Protocol(format!(
                "shard {new_shard} already owns a range"
            )));
        }
        let Some(src) = self.ranges.iter().find(|r| r.shard == source) else {
            return Err(ServeError::Protocol(format!(
                "split source shard {source} owns no range"
            )));
        };
        if at <= src.start || at > src.end {
            return Err(ServeError::Protocol(format!(
                "split point {at} outside source range ({}, {}]",
                src.start, src.end
            )));
        }
        let mut ranges = Vec::with_capacity(self.ranges.len() + 1);
        for r in &self.ranges {
            if r.shard == source {
                ranges.push(ShardRange {
                    shard: source,
                    start: r.start,
                    end: at - 1,
                });
                ranges.push(ShardRange {
                    shard: new_shard,
                    start: at,
                    end: r.end,
                });
            } else {
                ranges.push(*r);
            }
        }
        Self::from_ranges(self.version + 1, ranges)
    }

    /// Encode for the wire and the durable store.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.version.enc(&mut e);
        self.ranges.enc(&mut e);
        e.into_bytes()
    }

    /// Decode and re-validate (a corrupt or hand-built table is refused,
    /// not trusted).
    pub fn decode(bytes: &[u8]) -> Result<Self, ServeError> {
        let (version, ranges) =
            decode_exact(bytes, "shard map", |d| Ok((Wire::dec(d)?, Wire::dec(d)?)))?;
        Self::from_ranges(version, ranges)
    }
}

/// The durable home of a topology's current [`ShardMap`] — the file
/// whose atomic replacement *is* the split cutover record. Written with
/// the snapshot discipline (temp + fsync + rename + dir-fsync), so the
/// store always holds exactly one complete, CRC-verified map: the
/// pre-cutover one until the rename, the post-cutover one after.
#[derive(Debug, Clone)]
pub struct ShardMapStore {
    path: PathBuf,
    vfs: Vfs,
}

impl ShardMapStore {
    /// A store at `path` (the file need not exist yet) on a healthy
    /// passthrough disk.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self::with_vfs(path, Vfs::passthrough())
    }

    /// A store at `path` reading and writing through `vfs`, so a seeded
    /// [`crate::vfs::DiskFaultPlan`] reaches the cutover record too.
    pub fn with_vfs(path: impl Into<PathBuf>, vfs: Vfs) -> Self {
        Self {
            path: path.into(),
            vfs,
        }
    }

    /// The store's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Load the current map; `None` when no cutover record was ever
    /// written. Corruption is a typed refusal — guessing a topology can
    /// route writes into the wrong group.
    pub fn load(&self) -> Result<Option<ShardMap>, ServeError> {
        if !self.vfs.exists(&self.path) {
            return Ok(None);
        }
        let bytes = self.vfs.read(&self.path)?;
        let corrupt = |reason| ServeError::WalCorrupt { offset: 0, reason };
        if bytes.len() < MAP_MAGIC.len() + 4 || !bytes.starts_with(&MAP_MAGIC) {
            return Err(corrupt("missing or wrong shard map header"));
        }
        let crc_at = MAP_MAGIC.len();
        let stored_crc = Dec::new(bytes.get(crc_at..).unwrap_or(&[])).u32()?;
        let payload = bytes.get(crc_at + 4..).unwrap_or(&[]);
        if crc32(payload) != stored_crc {
            return Err(corrupt("shard map CRC mismatch"));
        }
        Ok(Some(ShardMap::decode(payload)?))
    }

    /// The stored map, or `init()`'s, persisted first, when no cutover
    /// record was ever written.
    pub(crate) fn load_or_init(
        &self,
        init: impl FnOnce() -> Result<ShardMap, ServeError>,
    ) -> Result<ShardMap, ServeError> {
        if let Some(map) = self.load()? {
            return Ok(map);
        }
        let map = init()?;
        self.save(&map)?;
        Ok(map)
    }

    /// Durably replace the stored map. Returns only after the rename and
    /// the directory fsync, so a torn write can never surface as a
    /// half-cutover topology.
    pub fn save(&self, map: &ShardMap) -> Result<(), ServeError> {
        if let Some(parent) = self.path.parent() {
            self.vfs.create_dir_all(parent)?;
        }
        let payload = map.encode();
        let mut bytes = Vec::with_capacity(MAP_MAGIC.len() + 4 + payload.len());
        bytes.extend_from_slice(&MAP_MAGIC);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        self.vfs.write_atomic(&self.path, &bytes)
    }

    /// Adopt `next` over `current` for a holder of shard `keep`: refuse a
    /// table dropping `keep`, an older version or a rival at the same
    /// version; persist a newer one (the cutover record) and return it.
    pub(crate) fn adopt(
        &self,
        current: &ShardMap,
        keep: u32,
        next: ShardMap,
    ) -> Result<ShardMap, ServeError> {
        let refuse = |why| Err(ServeError::Protocol(why));
        if !next.shard_ids().contains(&keep) {
            let version = next.version;
            return refuse(format!(
                "route table v{version} drops this member's shard {keep}"
            ));
        }
        if next.version < current.version {
            return Err(ServeError::StaleShardMap {
                got: next.version,
                current: current.version,
            });
        }
        if next.version == current.version && next.ranges() != current.ranges() {
            return refuse(format!(
                "conflicting route table at version {}",
                next.version
            ));
        }
        if next.version > current.version {
            self.save(&next)?;
        }
        Ok(next)
    }
}

/// A scatter-gather result with partial-failure semantics: the gathered
/// per-shard values plus the shards that could not answer. An empty
/// `missing_shards` is a complete read; a non-empty one is the typed
/// *degraded* contract — callers that need totality call
/// [`require_all`](Self::require_all) and get a typed
/// [`ServeError::Degraded`] instead of a silent partial answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Sharded<T> {
    /// The gathered value (per-shard entries for the shards that did
    /// answer).
    pub value: T,
    /// Shard ids whose groups were unreachable, ascending.
    pub missing_shards: Vec<u32>,
}

impl<T> Sharded<T> {
    /// Whether any shard failed to answer.
    pub fn is_degraded(&self) -> bool {
        !self.missing_shards.is_empty()
    }

    /// The value iff the read was complete, else the typed degraded
    /// refusal.
    pub fn require_all(self) -> Result<T, ServeError> {
        if self.missing_shards.is_empty() {
            Ok(self.value)
        } else {
            Err(ServeError::Degraded {
                missing_shards: self.missing_shards,
            })
        }
    }
}

/// One planned rebalance: cut `source`'s range at `at`, moving the upper
/// part to the previously-unused `new_shard`.
#[derive(Debug, Clone, Copy)]
pub struct SplitSpec {
    /// The donor shard.
    pub source: u32,
    /// The new shard id (must not own a range yet).
    pub new_shard: u32,
    /// The cut point (first hash owned by `new_shard`).
    pub at: u64,
}

/// How a [`ShardedSim::split`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitOutcome {
    /// The cutover record is durable and the new group is open.
    Done {
        /// The post-split map version.
        version: u64,
    },
    /// A seeded crash fired at this stage boundary; the in-memory
    /// coordinator state is abandoned, exactly as `kill -9` would leave
    /// it. Re-[`open`](ShardedSim::open) the topology to recover.
    Crashed(SplitCrash),
}

/// What a split stages onto the new group: the donor's snapshot (if it
/// has folded one) plus the committed record tail.
type DonorState = (Option<Vec<u8>>, Vec<Vec<u8>>);

/// A simulated sharded topology: one [`SimCluster`] per shard group,
/// each wired with its own slice of a [`ShardFaultPlan`]'s chaos, plus
/// the durable shard-map store and the split coordinator. The stepped
/// groups share nothing but the map — exactly the independence the
/// degraded-read contract relies on.
pub struct ShardedSim {
    map: ShardMap,
    store: ShardMapStore,
    groups: BTreeMap<u32, SimCluster>,
    replicas: usize,
    serve_for: Box<dyn Fn(u32, u32) -> ServeConfig>,
    plan: ShardFaultPlan,
}

impl ShardedSim {
    /// Open (or recover) a topology: a store with no cutover record is a
    /// fresh deployment, written first as a uniform `initial_shards`-way
    /// map; a stored record is adopted verbatim — after a crashed split,
    /// exactly the pre- or post-cutover topology (the next split attempt
    /// wipes partially staged directories). `serve_for(shard, node)` maps
    /// a member to its daemon config, each with its own state directory.
    pub fn open(
        initial_shards: u32,
        replicas: usize,
        store_path: impl Into<PathBuf>,
        serve_for: impl Fn(u32, u32) -> ServeConfig + 'static,
        plan: ShardFaultPlan,
    ) -> Result<Self, ServeError> {
        let store = ShardMapStore::new(store_path);
        let mut sim = Self {
            map: store.load_or_init(|| ShardMap::uniform(initial_shards))?,
            store,
            groups: BTreeMap::new(),
            replicas,
            serve_for: Box::new(serve_for),
            plan,
        };
        for shard in sim.map.shard_ids() {
            let group = sim.open_group(shard)?;
            sim.groups.insert(shard, group);
        }
        Ok(sim)
    }

    /// Open `shard`'s group; its members bootstrap from the current map.
    fn open_group(&self, shard: u32) -> Result<SimCluster, ServeError> {
        let plan = self.plan.plan_for(shard, self.replicas)?;
        let serve_for = |id| (self.serve_for)(shard, id);
        let member_shard = Some((shard, self.map.clone()));
        SimCluster::group(self.replicas, serve_for, plan, member_shard)
    }

    /// The current shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard owning `object`.
    pub fn shard_of(&self, object: u32) -> u32 {
        self.map.shard_of(object)
    }

    /// Borrow one shard's group.
    pub fn group(&self, shard: u32) -> Option<&SimCluster> {
        self.groups.get(&shard)
    }

    /// Advance every group one step, in shard order (determinism).
    pub fn step(&mut self) -> Result<(), ServeError> {
        for group in self.groups.values_mut() {
            group.step()?;
        }
        Ok(())
    }

    /// The first group's step counter (all groups step together).
    pub fn now(&self) -> u64 {
        self.groups.values().next().map_or(0, SimCluster::now)
    }

    /// Submit one sub-chunk to `shard`'s current primary. Misrouted
    /// claims are refused before any state changes, mirroring the wire
    /// protocol's `WRONG_SHARD` check.
    pub fn ingest_shard(
        &mut self,
        shard: u32,
        claims: &[ChunkClaim],
    ) -> Result<SimWrite, ServeError> {
        if let Some(c) = claims.iter().find(|c| self.map.shard_of(c.object) != shard) {
            return Err(ServeError::WrongShard {
                shard,
                at: self.map.shard_of(c.object),
            });
        }
        let Some(group) = self.groups.get_mut(&shard) else {
            return Err(ServeError::Degraded {
                missing_shards: vec![shard],
            });
        };
        group.client_ingest(claims)
    }

    /// Whether the client of `shard`'s `write` was told `Ack`.
    pub fn acked(&self, shard: u32, write: SimWrite) -> bool {
        self.groups.get(&shard).is_some_and(|g| g.acked(write))
    }

    /// Read one cell's truth, with the member's staleness lag, from its
    /// owning group's [`read_target`](SimCluster::read_target); a group
    /// with no alive member is the typed degraded refusal.
    pub fn truth(&self, object: u32, property: u32) -> Result<(Option<Truth>, u64), ServeError> {
        let shard = self.map.shard_of(object);
        let node = self.reader(shard).ok_or(ServeError::Degraded {
            missing_shards: vec![shard],
        })?;
        Ok((node.core().truth(object, property), node.lag()))
    }

    /// The member of `shard`'s group a read lands on, if any is alive.
    fn reader(&self, shard: u32) -> Option<&ReplicaNode> {
        let group = self.groups.get(&shard)?;
        group.read_target().and_then(|i| group.node(i))
    }

    /// Scatter-gather `(shard, digest)` of the folded state from every
    /// group with an alive member, naming the others in `missing_shards`.
    pub fn scatter_digests(&self) -> Sharded<Vec<(u32, u64)>> {
        let mut value = Vec::new();
        let mut missing_shards = Vec::new();
        for &shard in self.groups.keys() {
            match self.reader(shard) {
                Some(n) => value.push((shard, n.state_digest())),
                None => missing_shards.push(shard),
            }
        }
        Sharded {
            value,
            missing_shards,
        }
    }

    /// Settle every group (all members alive, digest-equal, drained) and
    /// return the per-shard digests in shard order.
    pub fn settle_all(
        &mut self,
        min_steps: u64,
        max_steps: u64,
    ) -> Result<Vec<(u32, u64)>, ServeError> {
        let mut out = Vec::new();
        for (&shard, group) in &mut self.groups {
            out.push((shard, group.settle(min_steps, max_steps)?));
        }
        Ok(out)
    }

    /// Rebalance: move the upper part of `spec.source`'s range onto the
    /// new group `spec.new_shard`.
    ///
    /// Protocol, in strict order (each boundary is a [`SplitCrash`]
    /// point the fault plan can fire at):
    ///
    /// 1. wipe partial staging directories of a crashed earlier attempt,
    ///    then fetch the donor primary's snapshot and committed records
    ///    with a `CatchUp` frame routed through the donor's fault plan
    ///    (the donor group keeps stepping and taking its faults);
    /// 2. stage every virgin member of the new group through the
    ///    daemon's own `SplitStage` handler;
    /// 3. adopt the next map version through the durable store — **the
    ///    atomic cutover record**;
    /// 4. adopt the map in memory and start stepping the new group.
    ///
    /// A crash before step 3 recovers pre-cutover (the staged directories
    /// are garbage); after it, post-cutover (they are complete).
    pub fn split(&mut self, spec: SplitSpec) -> Result<SplitOutcome, ServeError> {
        // an invalid spec must refuse before any I/O
        let new_map = self.map.split(spec.source, spec.new_shard, spec.at)?;
        let planned = self.plan.split_crash;
        let crash = |point| planned == Some(point);
        if crash(SplitCrash::PreStage) {
            return Ok(SplitOutcome::Crashed(SplitCrash::PreStage));
        }
        // a crashed earlier attempt may have left partial directories
        for node in 0..self.replicas as u32 {
            let cfg = (self.serve_for)(spec.new_shard, node);
            let _ = cfg.vfs.remove_dir_all(&cfg.dir);
        }
        let (snapshot, records) = self.fetch_donor_state(spec.source)?;
        let mut group = self.open_group(spec.new_shard)?;
        for node in 0..self.replicas {
            if node == 1 && crash(SplitCrash::MidCatchUp) {
                // one member staged, the rest untouched: the worst case
                return Ok(SplitOutcome::Crashed(SplitCrash::MidCatchUp));
            }
            let stage = Request::SplitStage {
                token: 0, // the simulator's members keep the default key
                shard: spec.new_shard,
                snapshot: snapshot.clone(),
                records: records.clone(),
            };
            let staged = group.frame_to(node, stage);
            if !matches!(staged, Some(Response::Ack { .. })) {
                return Err(ServeError::Protocol(format!(
                    "member {node} refused its split stage: {staged:?}"
                )));
            }
        }
        let new_map = self.store.adopt(&self.map, spec.source, new_map)?;
        if crash(SplitCrash::PostCutoverRecord) {
            return Ok(SplitOutcome::Crashed(SplitCrash::PostCutoverRecord));
        }
        self.groups.insert(spec.new_shard, group);
        self.map = new_map;
        if crash(SplitCrash::PreAck) {
            return Ok(SplitOutcome::Crashed(SplitCrash::PreAck));
        }
        Ok(SplitOutcome::Done {
            version: self.map.version,
        })
    }

    /// Fetch the donor primary's snapshot and committed records with the
    /// `CatchUp` frame a rejoining follower sends, once per step; give up
    /// (pre-cutover) after [`SPLIT_PRIMARY_BUDGET`] steps.
    fn fetch_donor_state(&mut self, source: u32) -> Result<DonorState, ServeError> {
        let missing = || ServeError::Protocol(format!("split source shard {source} has no group"));
        let group = self.groups.get_mut(&source).ok_or_else(missing)?;
        for _ in 0..SPLIT_PRIMARY_BUDGET {
            group.step()?;
            let Some(p) = group.primary() else { continue };
            let epoch = group.node(p).map_or(0, ReplicaNode::epoch);
            let req = Request::CatchUp {
                token: 0,
                epoch,
                from: 0,
            };
            for resp in group.send_from_outside(p as u32, req) {
                if let Response::CatchUpRecords {
                    commit,
                    snapshot,
                    mut records,
                    ..
                } = resp
                {
                    // records past the quorum commit could still be
                    // superseded by an election
                    let mut committed = 0;
                    for r in &records {
                        committed += usize::from(decode_chunk(r)?.0 < commit);
                    }
                    records.truncate(committed);
                    return Ok((snapshot, records));
                }
            }
        }
        Err(ServeError::RetriesExhausted {
            attempts: SPLIT_PRIMARY_BUDGET as u32,
            log: vec![format!(
                "no reachable primary in donor shard {source} within {SPLIT_PRIMARY_BUDGET} steps"
            )],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_map_covers_the_space_and_places_deterministically() {
        for n in [1u32, 2, 3, 5, 16] {
            let m = ShardMap::uniform(n).unwrap();
            assert_eq!(m.num_shards(), n as usize);
            assert_eq!(m.version, 0);
            for object in 0..500u32 {
                let s = m.shard_of(object);
                assert!(s < n);
                assert_eq!(s, m.shard_of(object), "placement is deterministic");
            }
        }
        assert!(ShardMap::uniform(0).is_err());
    }

    #[test]
    fn placement_agrees_with_the_mapreduce_seam() {
        let m = ShardMap::uniform(4).unwrap();
        for object in 0..200u32 {
            let point = crh_mapreduce::key_hash(&object);
            let by_range = m
                .ranges()
                .iter()
                .find(|r| r.start <= point && point <= r.end)
                .unwrap()
                .shard;
            assert_eq!(m.shard_of(object), by_range);
        }
    }

    #[test]
    fn invalid_range_tables_are_refused() {
        let r = |shard, start, end| ShardRange { shard, start, end };
        assert!(ShardMap::from_ranges(0, vec![]).is_err(), "empty");
        assert!(
            ShardMap::from_ranges(0, vec![r(0, 1, u64::MAX)]).is_err(),
            "does not start at 0"
        );
        assert!(
            ShardMap::from_ranges(0, vec![r(0, 0, 10)]).is_err(),
            "does not end at u64::MAX"
        );
        assert!(
            ShardMap::from_ranges(0, vec![r(0, 0, 10), r(1, 12, u64::MAX)]).is_err(),
            "gap"
        );
        assert!(
            ShardMap::from_ranges(0, vec![r(0, 0, 10), r(1, 5, u64::MAX)]).is_err(),
            "overlap"
        );
        assert!(
            ShardMap::from_ranges(0, vec![r(0, 0, 10), r(0, 11, u64::MAX)]).is_err(),
            "duplicate owner"
        );
        assert!(ShardMap::from_ranges(0, vec![r(0, 0, u64::MAX)]).is_ok());
    }

    #[test]
    fn split_moves_exactly_the_upper_range() {
        let m = ShardMap::uniform(2).unwrap();
        let src = m.ranges()[0];
        let at = src.start + (src.end - src.start) / 2;
        let m2 = m.split(0, 7, at).unwrap();
        assert_eq!(m2.version, 1);
        assert_eq!(m2.num_shards(), 3);
        // every entry either keeps its shard or moves 0 → 7
        for object in 0..1000u32 {
            let before = m.shard_of(object);
            let after = m2.shard_of(object);
            if before == 0 {
                assert!(after == 0 || after == 7);
                assert_eq!(after == 7, entry_point(object) >= at);
            } else {
                assert_eq!(before, after, "untouched shard moved an entry");
            }
        }
        // invalid specs refuse
        assert!(m.split(9, 7, at).is_err(), "unknown source");
        assert!(m.split(0, 1, at).is_err(), "target already owns a range");
        assert!(m.split(0, 7, src.start).is_err(), "cut at range start");
    }

    #[test]
    fn map_roundtrips_and_store_is_durable() {
        let dir = std::env::temp_dir().join(format!("crh_shardmap_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let m = ShardMap::uniform(3).unwrap();
        assert_eq!(ShardMap::decode(&m.encode()).unwrap(), m);

        let store = ShardMapStore::new(dir.join("shard.map"));
        assert!(store.load().unwrap().is_none(), "empty store reads None");
        store.save(&m).unwrap();
        assert_eq!(store.load().unwrap().unwrap(), m);
        let m2 = m.split(0, 3, m.ranges()[0].end / 2 + 1).unwrap();
        store.save(&m2).unwrap();
        assert_eq!(store.load().unwrap().unwrap(), m2, "replacement is total");

        // corruption is a typed refusal, not a guess
        let bytes = std::fs::read(store.path()).unwrap();
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        std::fs::write(store.path(), &bad).unwrap();
        assert!(store.load().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_wrapper_enforces_the_degraded_contract() {
        let full = Sharded {
            value: vec![(0u32, 1u64)],
            missing_shards: vec![],
        };
        assert!(!full.is_degraded());
        assert_eq!(full.require_all().unwrap(), vec![(0, 1)]);
        let partial = Sharded {
            value: vec![(0u32, 1u64)],
            missing_shards: vec![2],
        };
        assert!(partial.is_degraded());
        match partial.require_all() {
            Err(ServeError::Degraded { missing_shards }) => assert_eq!(missing_shards, vec![2]),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }
}
