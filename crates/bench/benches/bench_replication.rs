//! Replication benchmarks: quorum-commit ingest, deterministic failover
//! in the simulated cluster, and end-to-end TCP failover (promotion +
//! client reconnect) against the heartbeat-timeout budget.
//!
//! Run with `CRH_BENCH_JSON=BENCH_replication.json` to capture the
//! results as a machine-readable artifact (CI does this in the
//! `chaos-replication` job). The failover benchmarks *assert* their
//! budgets — a regression in promotion latency fails the bench run
//! instead of quietly shifting a number.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crh_bench::microbench::{Harness, Throughput};
use crh_core::schema::Schema;
use crh_core::value::Value;
use crh_serve::{
    ChunkClaim, ClusterClient, HaConfig, HaServer, NetFaultPlan, ReplicaConfig, RetryPolicy, Role,
    ServeConfig, ServerConfig, SimCluster,
};

/// Promotion must complete within this many simulation steps of the
/// primary's death: heartbeat timeout (5) + the widest election-timeout
/// stagger (2 * node id) + a few request/reply rounds for the probe and
/// the promote broadcast.
const SIM_PROMOTION_BUDGET_STEPS: u64 = 20;

/// Wall-clock budget for TCP failover: detection + election + promote +
/// client backoff. The replication tick is 10 ms and the heartbeat
/// timeout 5 ticks, so this is ~60 tick-intervals of slack — generous
/// for a loaded CI box, tight enough to catch a real regression.
const TCP_RECONNECT_BUDGET: Duration = Duration::from_secs(3);

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("temperature");
    s.add_continuous("humidity");
    s
}

fn bench_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crh_bench_repl_{}_{name}", std::process::id()))
}

fn chunk(i: usize) -> Vec<ChunkClaim> {
    (0..4u32)
        .map(|s| ChunkClaim {
            object: (i % 6) as u32,
            property: s % 2,
            source: s,
            value: Value::Num(20.0 + i as f64 + f64::from(s) * 0.5),
        })
        .collect()
}

fn sim_cluster(tag: &str, plan: NetFaultPlan) -> SimCluster {
    let base = bench_dir(tag);
    std::fs::remove_dir_all(&base).ok();
    SimCluster::new(
        3,
        move |id| ServeConfig::new(schema(), 0.5, base.join(format!("node{id}"))),
        plan,
    )
    .unwrap()
}

fn bench_replication(c: &mut Harness) {
    let quick = std::env::var("CRH_BENCH_QUICK").is_ok_and(|v| v != "0");
    let n_chunks = if quick { 4 } else { 16 };

    // ---- quorum-commit ingest over a healthy 3-node cluster ----------
    let mut g = c.benchmark_group("replication_ingest");
    g.sample_size(10);
    // one element = one chunk staged, shipped, quorum-fsync'd, and folded
    g.throughput(Throughput::Elements(n_chunks as u64));
    g.bench_function("quorum_commit", |b| {
        b.iter(|| {
            let mut c = sim_cluster("ingest", NetFaultPlan::new(1));
            for _ in 0..12 {
                c.step().unwrap();
            }
            for i in 0..n_chunks {
                let w = c.client_ingest(&chunk(i)).unwrap();
                while !c.acked(w) {
                    c.step().unwrap();
                }
            }
            c.settle(0, 256).unwrap()
        });
        std::fs::remove_dir_all(bench_dir("ingest")).ok();
    });
    g.finish();

    // ---- deterministic failover in the simulator ---------------------
    let mut g = c.benchmark_group("replication_failover");
    g.sample_size(10);
    g.bench_function("sim_promotion", |b| {
        let mut last_steps = 0u64;
        b.iter(|| {
            // node 0 wins the first election (lowest id, staggered
            // timeouts), so the pre-scheduled kill always hits the
            // primary; the restart horizon keeps it down for the run
            let plan = NetFaultPlan::new(7).kill(20, 0).restart_after(1_000_000);
            let mut c = sim_cluster("failover", plan);
            for _ in 0..12 {
                c.step().unwrap();
            }
            assert_eq!(c.primary(), Some(0), "unexpected first primary");
            let w = c.client_ingest(&chunk(0)).unwrap();
            while !c.acked(w) {
                c.step().unwrap();
            }
            while c.now() < 20 {
                c.step().unwrap();
            }
            // the primary is dead; count steps until a survivor promotes
            let death = c.now();
            loop {
                c.step().unwrap();
                if let Some(p) = c.primary() {
                    if p != 0 {
                        break;
                    }
                }
                assert!(
                    c.now() - death <= SIM_PROMOTION_BUDGET_STEPS,
                    "promotion took more than {SIM_PROMOTION_BUDGET_STEPS} steps"
                );
            }
            last_steps = c.now() - death;
            last_steps
        });
        println!("    (promotion in {last_steps} steps; budget {SIM_PROMOTION_BUDGET_STEPS})");
        std::fs::remove_dir_all(bench_dir("failover")).ok();
    });
    g.finish();

    // ---- end-to-end TCP failover: promotion + client reconnect -------
    let mut g = c.benchmark_group("replication_tcp");
    g.sample_size(if quick { 2 } else { 5 });
    g.bench_function("tcp_promotion_plus_reconnect", |b| {
        let base = bench_dir("tcp");
        std::fs::remove_dir_all(&base).ok();
        let reserved: Vec<std::net::TcpListener> = (0..3)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<String> = reserved
            .iter()
            .map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port()))
            .collect();
        drop(reserved);

        let all: Vec<u32> = vec![0, 1, 2];
        let mut servers: Vec<Option<HaServer>> = (0..3usize)
            .map(|id| {
                let rc = ReplicaConfig::new(id as u32, &all);
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
                    shard: None,
                };
                let serve = ServeConfig::new(schema(), 0.5, base.join(format!("n{id}")));
                Some(HaServer::start(rc, serve, ha, &addrs[id]).unwrap())
            })
            .collect();

        let primary = loop {
            if let Some(p) = servers
                .iter()
                .position(|s| s.as_ref().is_some_and(|s| s.role() == Role::Primary))
            {
                break p;
            }
            std::thread::sleep(Duration::from_millis(10));
        };

        let mut client = ClusterClient::new(
            addrs
                .iter()
                .enumerate()
                .map(|(i, a)| (i as u32, a.clone()))
                .collect(),
            Duration::from_secs(6),
            RetryPolicy {
                max_attempts: 40,
                base: Duration::from_millis(10),
                cap: Duration::from_millis(100),
                seed: 7,
            },
        );
        client.ingest(chunk(0)).unwrap();

        b.iter(|| {
            // the measured section: kill the primary, then write through
            // whichever survivor takes over, retries and all
            drop(servers[primary].take());
            let start = Instant::now();
            let (seq, _) = client.ingest(chunk(1)).unwrap();
            let reconnect = start.elapsed();
            assert!(
                reconnect <= TCP_RECONNECT_BUDGET,
                "failover write took {reconnect:?} (budget {TCP_RECONNECT_BUDGET:?})"
            );
            seq
        });

        for s in servers.into_iter().flatten() {
            s.shutdown();
        }
        std::fs::remove_dir_all(&base).ok();
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_env();
    bench_replication(&mut h);
}
