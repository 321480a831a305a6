//! Partition chaos suite for the replication layer, plus an end-to-end
//! TCP failover test.
//!
//! The contract under test, per ISSUE acceptance criteria:
//!
//! - **No quorum-acked chunk is ever lost.** A client that saw its chunk
//!   reach the commit quorum finds it folded on every replica after the
//!   cluster heals, across seeded link drops, lost replies, duplicated
//!   frames, full and one-way partitions, and primary kills.
//! - **Post-heal states match a never-partitioned run.** After healing,
//!   every replica's folded-state digest equals the digest of a fresh,
//!   fault-free cluster fed exactly the chunks that survived, in order.
//!
//! Every chunk carries a unique marker cell (`object = 100 + i`), so the
//! surviving subset is observable through the truth cache — the suite
//! never has to guess which timed-out chunk made it onto the winning
//! log.

use std::path::PathBuf;
use std::time::Duration;

use crh_core::schema::Schema;
use crh_core::value::Value;
use crh_serve::error::code;
use crh_serve::proto::Response;
use crh_serve::{
    ChunkClaim, ClusterClient, HaConfig, HaServer, NetFaultPlan, PartitionWindow, ReplicaConfig,
    RetryPolicy, Role, ServeConfig, ServerConfig, SimCluster, SimWrite,
};

#[path = "common/history.rs"]
mod history;
#[path = "common/reads.rs"]
mod reads;

use history::{Settled, Told};

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("temperature");
    s.add_continuous("humidity");
    s
}

fn test_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("crh_repl_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Chunk `i` of the workload: a unique marker cell (`object = 100 + i`)
/// plus a few shared-cell claims so the source weights actually move.
fn chunk(seed: u64, i: usize) -> Vec<ChunkClaim> {
    let mut claims = vec![ChunkClaim {
        object: 100 + i as u32,
        property: 0,
        source: (i % 4) as u32,
        value: Value::Num(1000.0 + seed as f64 * 31.0 + i as f64),
    }];
    for s in 0..3u32 {
        claims.push(ChunkClaim {
            object: (i % 5) as u32,
            property: s % 2,
            source: s,
            value: Value::Num(20.0 + i as f64 + f64::from(s) * 0.75 + seed as f64 * 0.1),
        });
    }
    claims
}

fn marker_present(c: &SimCluster, node: usize, i: usize) -> bool {
    c.node(node)
        .map(|n| n.core().truth(100 + i as u32, 0).is_some())
        .unwrap_or(false)
}

/// One seeded chaotic lifetime: random link faults throughout, a full
/// partition isolating the likely first primary, a one-way partition (the
/// asymmetric failure), and a seed-chosen kill — all scheduled up front
/// so the run is a pure function of the seed.
fn chaos_plan(seed: u64) -> NetFaultPlan {
    NetFaultPlan::new(seed)
        .drops(0.04)
        .dropped_replies(0.03)
        .dups(0.04)
        .partition(PartitionWindow {
            from_step: 30,
            to_step: 55,
            side_a: 0b001, // node 0 (the likely first primary) cut off
            one_way: false,
        })
        .partition(PartitionWindow {
            from_step: 70,
            to_step: 95,
            // vary which node suffers the one-way link by seed
            side_a: 1 << (seed % 3),
            one_way: true,
        })
        .kill(110, (seed % 3) as u32)
        .restart_after(25)
}

const CHUNKS: usize = 8;

#[test]
fn partition_chaos_loses_no_acked_chunk_and_matches_a_clean_run() {
    for seed in 0..10u64 {
        let base = test_dir(&format!("chaos{seed}"));
        let b = base.clone();
        let mut c = SimCluster::new(
            3,
            move |id| ServeConfig::new(schema(), 0.5, b.join(format!("node{id}"))),
            chaos_plan(seed),
        )
        .unwrap();

        // Serial at-most-once driver: submit each chunk once, poll for
        // the quorum ack, and record whether it arrived. A timed-out
        // chunk is never resubmitted, so its fate stays observable via
        // its marker cell.
        let mut acked = Vec::new();
        let mut staged = Vec::new();
        let mut reads = reads::Reads::default();
        for i in 0..CHUNKS {
            let payload = chunk(seed, i);
            let mut seq = None;
            for _ in 0..400 {
                match c.client_ingest(&payload) {
                    Ok(s) => {
                        seq = Some(s);
                        break;
                    }
                    // no reachable primary right now: nothing was staged
                    Err(_) => reads.step(&mut c),
                }
            }
            staged.push(seq);
            let Some(s) = seq else {
                continue;
            };
            for _ in 0..40 {
                reads.step(&mut c);
                if c.acked(s) {
                    acked.push(i);
                    break;
                }
            }
        }

        // Heal: run past every partition window, kill, and restart, then
        // let the cluster settle to a drained, digest-equal state.
        while c.now() < 150 {
            reads.step(&mut c);
        }
        let digest = c.settle(5, 5000).unwrap();
        for n in 0..c.len() {
            assert_eq!(
                c.node(n).unwrap().state_digest(),
                digest,
                "seed {seed}: node {n} diverged post-heal"
            );
        }

        // (a) no quorum-acked chunk lost, on any replica
        let survivors: Vec<usize> = (0..CHUNKS).filter(|&i| marker_present(&c, 0, i)).collect();
        for &i in &acked {
            for n in 0..c.len() {
                assert!(
                    marker_present(&c, n, i),
                    "seed {seed}: quorum-acked chunk {i} missing on node {n} \
                     (acked {acked:?}, survivors {survivors:?})"
                );
            }
        }

        // (c) the client history: what every client was told, and what
        // the test loop's reads observed, agrees with the settled nodes
        let history: Vec<Told> = staged
            .iter()
            .map(|&w| Told::of(w, |w| c.acked(w)))
            .collect();
        let settled: Vec<Settled> = (0..c.len())
            .map(|n| Settled {
                chunks_seen: c.node(n).unwrap().core().chunks_seen(),
                markers: Some((0..CHUNKS).map(|i| marker_present(&c, n, i)).collect()),
            })
            .collect();
        history::check(&history, &settled)
            .unwrap_or_else(|e| panic!("seed {seed}: {e} (history {history:?})"));
        reads.check().unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        // (b) post-heal state is byte-identical to a never-partitioned
        // cluster fed exactly the surviving chunks in order
        let ref_base = test_dir(&format!("chaosref{seed}"));
        let rb = ref_base.clone();
        let mut reference = SimCluster::new(
            3,
            move |id| ServeConfig::new(schema(), 0.5, rb.join(format!("node{id}"))),
            NetFaultPlan::new(seed ^ 0x5A5A),
        )
        .unwrap();
        for _ in 0..12 {
            reference.step().unwrap();
        }
        for &i in &survivors {
            let s = reference.client_ingest(&chunk(seed, i)).unwrap();
            for _ in 0..64 {
                reference.step().unwrap();
                if reference.acked(s) {
                    break;
                }
            }
            assert!(reference.acked(s), "seed {seed}: clean run stalled");
        }
        let ref_digest = reference.settle(1, 200).unwrap();
        assert_eq!(
            digest, ref_digest,
            "seed {seed}: post-heal state differs from the never-partitioned run \
             (acked {acked:?}, survivors {survivors:?})"
        );

        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&ref_base).ok();
    }
}

// ---------------------------------------------------------------------
// Planted faults the history checker must catch
// ---------------------------------------------------------------------

/// A primary stages write A and is partitioned away; a new primary
/// commits write B at the same seq; the partition heals and the old
/// primary adopts B. The former ack rule (any node's commit bound past
/// A's seq) "acks" the lost write A and fails the checker; the node's
/// own answer (`NotPrimary`) passes it.
#[test]
fn checker_rejects_the_commit_bound_ack_of_a_lost_write() {
    let base = test_dir("planted_lost_ack");
    let b = base.clone();
    let plan = NetFaultPlan::new(0xACC).partition(PartitionWindow {
        from_step: 13,
        to_step: 60,
        side_a: 0b001,
        one_way: false,
    });
    let mut c = SimCluster::new(
        3,
        move |id| ServeConfig::new(schema(), 0.5, b.join(format!("node{id}"))),
        plan,
    )
    .unwrap();
    for _ in 0..12 {
        c.step().unwrap();
    }
    assert_eq!(c.primary(), Some(0), "node 0 wins the first election");
    let a = c.client_ingest(&chunk(0, 0)).unwrap();
    let mut b_write = None;
    while c.now() < 60 {
        c.step().unwrap();
        if b_write.is_none() && c.primary().is_some_and(|p| p != 0) {
            b_write = Some(c.client_ingest(&chunk(0, 1)).unwrap());
        }
    }
    let b_write = b_write.expect("a new primary took over during the partition");
    assert_ne!(a.0, b_write.0);
    assert_eq!(a.1 .1, b_write.1 .1, "B was staged at A's seq");
    c.settle(5, 500).unwrap();

    let settled: Vec<Settled> = (0..c.len())
        .map(|n| Settled {
            chunks_seen: c.node(n).unwrap().core().chunks_seen(),
            markers: Some((0..2).map(|i| marker_present(&c, n, i)).collect()),
        })
        .collect();
    let writes = [Some(a), Some(b_write)];

    // the node's own answers: A was deposed, B acked
    assert!(
        matches!(c.told(a), Some(Response::Error { code, .. }) if *code == code::NOT_PRIMARY),
        "{:?}",
        c.told(a)
    );
    let told: Vec<Told> = writes
        .iter()
        .map(|&w| Told::of(w, |w| c.acked(w)))
        .collect();
    assert_eq!(told, [Told::Indeterminate, Told::Acked]);
    history::check(&told, &settled).unwrap();

    // the former rule, evaluated over the same writes
    let committed_anywhere = |(_, (_, seq)): SimWrite| {
        (0..c.len()).any(|n| c.node(n).is_some_and(|node| seq < node.commit()))
    };
    let former: Vec<Told> = writes
        .iter()
        .map(|&w| Told::of(w, committed_anywhere))
        .collect();
    assert_eq!(former, [Told::Acked, Told::Acked]);
    let err = history::check(&former, &settled).unwrap_err();
    assert!(err.contains("acked chunk 0 is missing"), "{err}");
    std::fs::remove_dir_all(&base).ok();
}

/// A hand-built history in which one chunk was folded twice: the node's
/// `chunks_seen` is one above its distinct markers.
#[test]
fn checker_rejects_a_double_fold() {
    let history = [Told::Acked, Told::Indeterminate, Told::Acked];
    let node = |chunks_seen| Settled {
        chunks_seen,
        markers: Some(vec![true, false, true]),
    };
    history::check(&history, &[node(2), node(2)]).unwrap();
    let err = history::check(&history, &[node(2), node(3)]).unwrap_err();
    assert!(err.contains("node 1 folded 3 chunks"), "{err}");
}

// ---------------------------------------------------------------------
// End-to-end TCP failover
// ---------------------------------------------------------------------

fn wait_for_primary(servers: &[Option<HaServer>]) -> Option<usize> {
    for _ in 0..500 {
        for (i, s) in servers.iter().enumerate() {
            if let Some(s) = s {
                if s.role() == Role::Primary {
                    return Some(i);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

#[test]
fn tcp_cluster_fails_over_and_the_client_follows() {
    let base = test_dir("tcp_ha");

    // reserve three distinct loopback ports (held simultaneously so the
    // OS cannot hand the same one out twice), then release them for the
    // daemons to bind
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

    let p0 = wait_for_primary(&servers).expect("initial election over TCP");

    let mut client = ClusterClient::new(
        addrs
            .iter()
            .enumerate()
            .map(|(i, a)| (i as u32, a.clone()))
            .collect(),
        Duration::from_secs(6),
        RetryPolicy {
            max_attempts: 30,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(200),
            seed: 42,
        },
    );

    // a quorum-acked write through whichever member the client hit first
    let (seq, committed) = client.ingest(chunk(99, 0)).unwrap();
    assert_eq!(seq, 0);
    assert!(committed >= 1);

    // kill the primary outright (no snapshot, no goodbye)
    drop(servers[p0].take());

    // the client keeps writing: transparent retry rides out the election
    let (seq2, _) = client.ingest(chunk(99, 1)).unwrap();
    assert_eq!(seq2, 1, "the committed chunk survived the failover");
    let p1 = wait_for_primary(&servers).expect("a survivor takes over");
    assert_ne!(p1, p0);
    assert!(servers[p1].as_ref().unwrap().epoch() > 0);

    // reads answer from any member, with an honest staleness bound
    let (weights, lag) = client.weights().unwrap();
    assert!(!weights.is_empty());
    assert!(
        lag <= 2,
        "staleness bound should be small on a healthy pair"
    );

    // both survivors converge on the same folded state
    for _ in 0..300 {
        let done = servers.iter().flatten().all(|s| {
            s.commit() >= 2 && s.state_digest() == servers[p1].as_ref().unwrap().state_digest()
        });
        if done {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let digest = servers[p1].as_ref().unwrap().state_digest();
    for (i, s) in servers.iter().enumerate() {
        if let Some(s) = s {
            assert!(s.commit() >= 2, "node {i} never learned the commit");
            assert_eq!(s.state_digest(), digest, "node {i} diverged");
        }
    }

    for s in servers.into_iter().flatten() {
        s.shutdown();
    }
    std::fs::remove_dir_all(&base).ok();
}
