//! Sharded-serving benchmarks: scatter-gather read latency over a real
//! TCP shard topology, routed ingest throughput, and the shard-split
//! cutover budget in the deterministic simulator.
//!
//! Run with `CRH_BENCH_JSON=BENCH_shard.json` to capture the results as
//! a machine-readable artifact (CI does this in the `chaos-shard` job).
//! The split benchmark *asserts* its budget — a regression in
//! stage-and-cutover latency fails the bench run instead of quietly
//! shifting a number.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crh_bench::microbench::{Harness, Throughput};
use crh_core::schema::Schema;
use crh_core::value::Value;
use crh_serve::{
    entry_point, ChunkClaim, HaConfig, HaServer, ReplicaConfig, RetryPolicy, ServeConfig,
    ServerConfig, ShardFaultPlan, ShardGroup, ShardMap, ShardRouter, ShardedSim, SplitOutcome,
    SplitSpec,
};

/// Wall-clock budget for one complete sim split: donor snapshot +
/// committed-WAL catch-up, staging onto three virgin member
/// directories, and the durable cutover record. The workload is eight
/// committed chunks, so this is dominated by directory churn and fsync
/// — generous for a loaded CI box, tight enough to catch an
/// accidentally quadratic staging path.
const SPLIT_CUTOVER_BUDGET: Duration = Duration::from_secs(5);

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("temperature");
    s.add_continuous("humidity");
    s
}

fn bench_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crh_bench_shard_{}_{name}", std::process::id()))
}

fn chunk(object: u32, i: usize) -> Vec<ChunkClaim> {
    (0..3u32)
        .map(|s| ChunkClaim {
            object,
            property: s % 2,
            source: s,
            value: Value::Num(20.0 + i as f64 + f64::from(s) * 0.5),
        })
        .collect()
}

fn reserve_ports(n: usize) -> Vec<String> {
    let held: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    held.iter()
        .map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port()))
        .collect()
}

fn start_group(
    base: &std::path::Path,
    shard: u32,
    bootstrap: &ShardMap,
    addrs: &[String],
) -> Vec<HaServer> {
    (0..addrs.len())
        .map(|id| {
            let rc = ReplicaConfig::new(id as u32, &(0..addrs.len() as u32).collect::<Vec<_>>());
            let ha = HaConfig {
                server: ServerConfig {
                    io_timeout: Duration::from_millis(500),
                    ..ServerConfig::default()
                },
                tick: Duration::from_millis(10),
                peer_addrs: addrs
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != id)
                    .map(|(j, a)| (j as u32, a.clone()))
                    .collect(),
                commit_wait: Duration::from_secs(5),
                shard: Some((shard, bootstrap.clone())),
            };
            let serve = ServeConfig::new(schema(), 0.5, base.join(format!("s{shard}_n{id}")));
            HaServer::start(rc, serve, ha, &addrs[id]).unwrap()
        })
        .collect()
}

/// An object owned by `shard` under `map` (smallest id, deterministic).
fn object_in(map: &ShardMap, shard: u32) -> u32 {
    (0..u32::MAX)
        .find(|&o| map.shard_of(o) == shard)
        .expect("every shard owns some object")
}

/// Scatter-gather reads and routed ingest over a live 2-shard TCP
/// topology. The reported median is the scatter-gather p50 the CI
/// artifact tracks.
fn bench_tcp_scatter(c: &mut Harness, quick: bool) {
    let members = if quick { 1 } else { 3 };
    let base = bench_dir("scatter");
    std::fs::remove_dir_all(&base).ok();
    let map = ShardMap::uniform(2).unwrap();
    let addrs0 = reserve_ports(members);
    let addrs1 = reserve_ports(members);
    let group0 = start_group(&base, 0, &map, &addrs0);
    let group1 = start_group(&base, 1, &map, &addrs1);

    let groups = vec![
        ShardGroup {
            shard: 0,
            members: addrs0
                .iter()
                .enumerate()
                .map(|(i, a)| (i as u32, a.clone()))
                .collect(),
        },
        ShardGroup {
            shard: 1,
            members: addrs1
                .iter()
                .enumerate()
                .map(|(i, a)| (i as u32, a.clone()))
                .collect(),
        },
    ];
    let mut router = ShardRouter::connect(
        groups,
        Duration::from_secs(5),
        RetryPolicy {
            max_attempts: 30,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            seed: 11,
        },
    )
    .unwrap();

    // seed both shards so the scatter reads return real folded state
    let warm: Vec<ChunkClaim> = [object_in(&map, 0), object_in(&map, 1)]
        .iter()
        .enumerate()
        .flat_map(|(i, &o)| chunk(o, i))
        .collect();
    router.ingest(warm).unwrap();

    let mut g = c.benchmark_group("shard_scatter");
    g.sample_size(if quick { 10 } else { 30 });
    g.bench_function("status_p50", |b| {
        b.iter(|| {
            let s = router.scatter_status();
            assert!(!s.is_degraded(), "scatter degraded on a healthy topology");
            s.value.len()
        });
    });
    g.bench_function("weights_p50", |b| {
        b.iter(|| {
            let s = router.scatter_weights();
            assert!(!s.is_degraded(), "scatter degraded on a healthy topology");
            s.value.len()
        });
    });
    g.finish();

    let n_chunks = if quick { 4 } else { 16 };
    let mut g = c.benchmark_group("shard_ingest");
    g.sample_size(if quick { 5 } else { 10 });
    // one element = one single-shard chunk routed, quorum-committed,
    // and acked back through the router
    g.throughput(Throughput::Elements(n_chunks as u64));
    g.bench_function("routed_commit", |b| {
        let mut round = 0usize;
        b.iter(|| {
            round += 1;
            let mut acks = 0usize;
            for i in 0..n_chunks {
                let shard = (i % 2) as u32;
                let payload = chunk(object_in(&map, shard), round * n_chunks + i);
                acks += router.ingest(payload).unwrap().len();
            }
            acks
        });
    });
    g.finish();

    drop(group0);
    drop(group1);
    std::fs::remove_dir_all(&base).ok();
}

/// One complete shard split in the deterministic simulator: fill the
/// donor, stage snapshot + catch-up onto a virgin 3-member group, and
/// cut over durably. Asserts [`SPLIT_CUTOVER_BUDGET`].
fn bench_sim_split(c: &mut Harness, quick: bool) {
    let mut g = c.benchmark_group("shard_split");
    g.sample_size(if quick { 2 } else { 5 });
    g.bench_function("stage_and_cutover", |b| {
        let mut last = Duration::ZERO;
        b.iter(|| {
            let base = bench_dir("split");
            std::fs::remove_dir_all(&base).ok();
            let b2 = base.clone();
            let mut sim = ShardedSim::open(
                2,
                3,
                base.join("shard.map"),
                move |shard, node| {
                    ServeConfig::new(schema(), 0.5, b2.join(format!("s{shard}_n{node}")))
                },
                ShardFaultPlan::new(3),
            )
            .unwrap();
            // eight committed chunks, each routed to its owning shard
            for i in 0..8usize {
                let object = 100 + i as u32;
                let payload = chunk(object, i);
                let shard = sim.shard_of(object);
                // the first ingest rides out each group's initial election
                let w = loop {
                    match sim.ingest_shard(shard, &payload) {
                        Ok(w) => break w,
                        Err(_) => sim.step().unwrap(),
                    }
                };
                while !sim.acked(shard, w) {
                    sim.step().unwrap();
                }
            }
            let at = (0..8u32)
                .map(|i| 100 + i)
                .filter(|&o| sim.shard_of(o) == 0)
                .map(entry_point)
                .max()
                .expect("some object lands on shard 0");

            // the measured section: snapshot + catch-up staging onto a
            // virgin group, then the durable cutover record
            let start = Instant::now();
            let outcome = sim
                .split(SplitSpec {
                    source: 0,
                    new_shard: 2,
                    at,
                })
                .unwrap();
            last = start.elapsed();
            assert!(
                matches!(outcome, SplitOutcome::Done { version: 1 }),
                "split did not complete: {outcome:?}"
            );
            assert!(
                last <= SPLIT_CUTOVER_BUDGET,
                "split took {last:?} (budget {SPLIT_CUTOVER_BUDGET:?})"
            );
            drop(sim);
            std::fs::remove_dir_all(&base).ok();
        });
        println!("    (last split in {last:?}; budget {SPLIT_CUTOVER_BUDGET:?})");
    });
    g.finish();
}

fn main() {
    let quick = std::env::var("CRH_BENCH_QUICK").is_ok_and(|v| v != "0");
    let mut h = Harness::from_env();
    bench_tcp_scatter(&mut h, quick);
    bench_sim_split(&mut h, quick);
}
