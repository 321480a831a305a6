//! Gray-failure chaos suite: *slowness* as the injected fault.
//!
//! Where `replication.rs` partitions links and `chaos_disk.rs` corrupts
//! bytes, this suite makes peers and disks **slow without being dead** —
//! the failure mode that silently serializes a quorum behind its worst
//! member. The contracts under test, per ISSUE acceptance criteria:
//!
//! - **No quorum-acked chunk is lost under latency chaos**, and the
//!   post-settle state is digest-identical to a fault-free run fed the
//!   surviving chunks: injected delay reorders traffic but never
//!   corrupts it.
//! - **Quorum acks never wait on the slowest replica.** With one member
//!   answering an order of magnitude late, commit latency tracks the
//!   healthy majority, and the primary's health scores expose (and
//!   quarantine) the straggler.
//! - **A primary on a chronically slow disk self-deposes** and never
//!   campaigns while slow — the gray analogue of the dying-disk
//!   failover.
//! - **Deadlines are refused before work, with the typed error, over
//!   real TCP** — a zero-budget envelope costs the daemon nothing, and
//!   probe frames round-trip without touching the ingest queue.
//! - **A hedged read rides out a tarpit member** (accepts the
//!   connection, never answers) in bounded time instead of waiting out
//!   the full client timeout.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crh_core::schema::Schema;
use crh_core::value::Value;
use crh_serve::proto::{read_frame, write_frame, Request, Response};
use crh_serve::{
    error::code, ChunkClaim, ClusterClient, DiskFaultPlan, NetFaultPlan, RetryPolicy, Role,
    ServeConfig, ServeCore, ServeError, Server, ServerConfig, SimCluster, Vfs,
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
    let d = std::env::temp_dir().join(format!("crh_slow_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Chunk `i`: a unique marker cell (`object = 100 + i`) plus shared
/// cells, same shape as the partition-chaos workload — the marker makes
/// a chunk's survival observable without guessing.
fn chunk(seed: u64, i: usize) -> Vec<ChunkClaim> {
    let mut claims = vec![ChunkClaim {
        object: 100 + i as u32,
        property: 0,
        source: (i % 4) as u32,
        value: Value::Num(2000.0 + seed as f64 * 17.0 + i as f64),
    }];
    for s in 0..3u32 {
        claims.push(ChunkClaim {
            object: (i % 5) as u32,
            property: s % 2,
            source: s,
            value: Value::Num(20.0 + i as f64 + f64::from(s) * 0.5 + seed as f64 * 0.1),
        });
    }
    claims
}

fn marker_present(c: &SimCluster, node: usize, i: usize) -> bool {
    c.node(node)
        .map(|n| n.core().truth(100 + i as u32, 0).is_some())
        .unwrap_or(false)
}

const CHUNKS: usize = 8;

/// Ten seeded lifetimes of pure latency chaos: random per-frame delays,
/// a seed-chosen chronic straggler, and one member on a disk that
/// stalls (but never corrupts). Slowness reorders everything and breaks
/// nothing: every quorum-acked chunk survives on every member, and the
/// settled digest equals a fault-free run fed the surviving chunks.
#[test]
fn latency_chaos_loses_no_acked_chunk_and_matches_a_clean_run() {
    for seed in 0..10u64 {
        let base = test_dir(&format!("latency{seed}"));
        let b = base.clone();
        // one member's disk stalls on a seeded schedule — wall-clock
        // slow, byte-identical
        let slow_disk = Vfs::faulted(
            DiskFaultPlan::new(seed)
                .slow_writes(0.10)
                .slow_fsyncs(0.10)
                .slow_for(Duration::from_millis(1)),
        )
        .unwrap();
        let slow_node = seed % 3;
        let plan = NetFaultPlan::new(seed)
            .delays(0.20, 1, 6)
            .straggler((seed % 3) as u32, 5)
            .drops(0.02);
        let mut c = SimCluster::new(
            3,
            move |id| {
                let vfs = if u64::from(id) == slow_node {
                    slow_disk.clone()
                } else {
                    Vfs::passthrough()
                };
                ServeConfig::new(schema(), 0.5, b.join(format!("node{id}"))).vfs(vfs)
            },
            plan,
        )
        .unwrap();

        // at-most-once driver: a chunk is submitted once; if the ack
        // never lands its fate stays observable via the marker
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
                    Err(_) => reads.step(&mut c),
                }
            }
            staged.push(seq);
            let Some(s) = seq else {
                continue;
            };
            for _ in 0..80 {
                reads.step(&mut c);
                if c.acked(s) {
                    acked.push(i);
                    break;
                }
            }
        }

        // settle: every delayed frame drains, every member converges
        let digest = c.settle(5, 5000).unwrap();
        for n in 0..c.len() {
            assert_eq!(
                c.node(n).unwrap().state_digest(),
                digest,
                "seed {seed}: node {n} diverged after latency chaos"
            );
        }

        // (a) no quorum-acked chunk lost, on any member
        let survivors: Vec<usize> = (0..CHUNKS).filter(|&i| marker_present(&c, 0, i)).collect();
        for &i in &acked {
            for n in 0..c.len() {
                assert!(
                    marker_present(&c, n, i),
                    "seed {seed}: acked chunk {i} missing on node {n} \
                     (acked {acked:?}, survivors {survivors:?})"
                );
            }
        }
        assert!(
            acked.len() >= CHUNKS / 2,
            "seed {seed}: latency chaos should delay acks, not starve them \
             (acked {acked:?})"
        );

        // (c) the client history agrees with the settled members
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

        // (b) digest equality with a never-delayed run over the survivors
        let ref_base = test_dir(&format!("latencyref{seed}"));
        let rb = ref_base.clone();
        let mut reference = SimCluster::new(
            3,
            move |id| ServeConfig::new(schema(), 0.5, rb.join(format!("node{id}"))),
            NetFaultPlan::new(seed ^ 0x510),
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
            "seed {seed}: slow-chaos state differs from the fault-free run \
             (acked {acked:?}, survivors {survivors:?})"
        );

        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&ref_base).ok();
    }
}

/// One replica answers an order of magnitude late. The commit point
/// must track the healthy majority — if acks serialized behind the
/// straggler, every commit would take 60+ steps. The primary's health
/// map must also expose the straggler: a huge EWMA gap and, once
/// enough samples accrue, quarantine.
#[test]
fn quorum_acks_do_not_serialize_behind_the_slowest_replica() {
    let base = test_dir("straggler_ack");
    let b = base.clone();
    // node 2 answers 60 steps late; commit waits should stay single-digit
    const EXTRA: u64 = 60;
    let mut c = SimCluster::new(
        3,
        move |id| ServeConfig::new(schema(), 0.5, b.join(format!("node{id}"))),
        NetFaultPlan::new(0x51_0C).straggler(2, EXTRA),
    )
    .unwrap();

    let mut ack_steps = Vec::new();
    for i in 0..6usize {
        let payload = chunk(7, i);
        let seq = loop {
            match c.client_ingest(&payload) {
                Ok(s) => break s,
                Err(_) => c.step().unwrap(),
            }
        };
        let mut steps = 0u64;
        while !c.acked(seq) {
            c.step().unwrap();
            steps += 1;
            assert!(
                steps < EXTRA,
                "chunk {i}: commit waited {steps} steps — serialized behind \
                 the {EXTRA}-step straggler"
            );
        }
        ack_steps.push(steps);
    }
    assert!(
        ack_steps.iter().all(|&s| s <= 10),
        "commit latencies {ack_steps:?} should track the healthy majority, \
         not the straggler"
    );

    // the primary's per-peer scores tell the two followers apart
    let primary = c.primary().expect("cluster has a primary");
    // let the straggler's late replies (and health bookkeeping) drain in
    for _ in 0..(EXTRA * 2) {
        c.step().unwrap();
    }
    let health = c.node(primary).unwrap().peer_health();
    let fast = health.ewma(1).expect("fast follower was scored");
    let slow = health.ewma(2).expect("straggler was scored");
    assert!(
        slow > fast * 4.0,
        "straggler EWMA {slow} should dwarf the healthy follower's {fast}"
    );
    assert!(
        health.is_quarantined(2),
        "a 10x-slow peer must end up quarantined (ewma {slow} vs {fast})"
    );
    assert!(
        !health.is_quarantined(1),
        "the healthy follower must stay in rotation"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// Step the cluster, tolerating the typed refusals a slow-disk member
/// feeds back through the reply path (vote grants are refused with
/// `DiskDegraded` so the member cannot stand in elections).
fn step_tolerant(c: &mut SimCluster) {
    match c.step() {
        Ok(()) | Err(ServeError::DiskDegraded { .. }) => {}
        Err(e) => panic!("unexpected cluster step error: {e}"),
    }
}

/// The gray analogue of the dying-disk failover: a primary whose disk
/// turns chronically slow (but still correct) steps down instead of
/// dragging every quorum wait, and refuses to campaign while slow.
#[test]
fn slow_disk_primary_self_deposes_and_a_fast_replica_takes_over() {
    let slow = Vfs::faulted(DiskFaultPlan::new(3)).unwrap();
    let slow_handle = slow.clone();
    let base = test_dir("slow_depose");
    let b = base.clone();
    let mut c = SimCluster::new(
        3,
        move |id| {
            let vfs = if id == 0 {
                slow.clone()
            } else {
                Vfs::passthrough()
            };
            ServeConfig::new(schema(), 0.5, b.join(format!("node{id}"))).vfs(vfs)
        },
        NetFaultPlan::new(0xDE9),
    )
    .unwrap();

    // node 0 (lowest id) wins the first election and commits a prefix
    let mut writes = Vec::new();
    for i in 0..3usize {
        let payload = chunk(9, i);
        loop {
            match c.client_ingest(&payload) {
                Ok(s) => {
                    writes.push(s);
                    break;
                }
                Err(_) => c.step().unwrap(),
            }
        }
        for _ in 0..50 {
            c.step().unwrap();
            if writes.last().is_some_and(|&w| c.acked(w)) {
                break;
            }
        }
    }
    assert_eq!(c.primary(), Some(0), "node 0 should hold the first epoch");

    // the disk turns gray: every op still succeeds, just slowly
    slow_handle.force_slow();
    for _ in 0..5 {
        step_tolerant(&mut c);
    }
    assert_ne!(
        c.node(0).unwrap().role(),
        Role::Primary,
        "a primary on a slow disk must step down"
    );

    // a fast replica takes over; the slow node never re-campaigns
    let mut new_primary = None;
    for _ in 0..600 {
        step_tolerant(&mut c);
        if let Some(p) = c.primary() {
            if p != 0 {
                new_primary = Some(p);
                break;
            }
        }
        assert_ne!(c.primary(), Some(0), "the slow node must not re-win");
    }
    let new_primary = new_primary.expect("no fast replica took over");

    // reads route around the slow member too
    let target = c.read_target().expect("cluster still serves reads");
    assert_ne!(target, 0, "reads must prefer a fast member");

    // writes keep flowing and committing through the fast pair, and no
    // previously acked write is lost
    for i in 3..6usize {
        let payload = chunk(9, i);
        loop {
            match c.client_ingest(&payload) {
                Ok(s) => {
                    assert_ne!(s.0, 0, "the slow node must not ack writes");
                    writes.push(s);
                    break;
                }
                Err(_) => c.step().unwrap(),
            }
        }
    }
    for _ in 0..300 {
        step_tolerant(&mut c);
        if writes.iter().all(|&w| c.acked(w)) {
            break;
        }
    }
    assert!(
        writes.iter().all(|&w| c.acked(w)),
        "acked writes went missing across the slow-disk depose"
    );
    // every acked write is folded on the new primary, exactly once
    let history: Vec<Told> = writes
        .iter()
        .map(|&w| Told::of(Some(w), |w| c.acked(w)))
        .collect();
    let primary = c.node(new_primary).unwrap();
    let settled = Settled {
        chunks_seen: primary.core().chunks_seen(),
        markers: Some(
            (0..writes.len())
                .map(|i| marker_present(&c, new_primary, i))
                .collect(),
        ),
    };
    history::check(&history, &[settled]).unwrap();
    assert_eq!(c.primary(), Some(new_primary));
    std::fs::remove_dir_all(&base).ok();
}

fn start_server(dir: &PathBuf) -> Server {
    let cfg = ServeConfig::new(schema(), 0.5, dir);
    let (core, _) = ServeCore::open(cfg).unwrap();
    Server::start(core, ServerConfig::default(), "127.0.0.1:0").unwrap()
}

/// Raw round-trip of one frame over an existing stream.
fn roundtrip(stream: &mut TcpStream, req: &Request) -> Response {
    write_frame(stream, &req.encode()).unwrap();
    let payload = read_frame(stream).unwrap();
    Response::decode(&payload).unwrap()
}

/// Deadline propagation over real TCP: a zero-budget envelope is
/// refused with the typed `DEADLINE` code before any work happens,
/// probe frames round-trip without touching the ingest queue, and a
/// nested wrapper is a typed protocol error — never a hang.
#[test]
fn zero_budget_requests_are_refused_before_work_over_tcp() {
    let dir = test_dir("deadline_tcp");
    let server = start_server(&dir);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // zero budget + a real write: typed refusal, no side effects
    let refused = roundtrip(
        &mut stream,
        &Request::WithDeadline {
            budget_ms: 0,
            inner: Box::new(Request::Ingest(chunk(1, 0))),
        },
    );
    match refused {
        Response::Error { code: c, .. } => assert_eq!(c, code::DEADLINE),
        other => panic!("expected a DEADLINE refusal, got {other:?}"),
    }

    // probes bypass the queue and echo the nonce
    match roundtrip(&mut stream, &Request::Probe { nonce: 0xABAD_CAFE }) {
        Response::ProbeAck { nonce } => assert_eq!(nonce, 0xABAD_CAFE),
        other => panic!("expected a probe ack, got {other:?}"),
    }

    // refuse-before-work: the zero-budget ingest staged nothing
    match roundtrip(&mut stream, &Request::Status) {
        Response::Status { chunks_seen, .. } => {
            assert_eq!(chunks_seen, 0, "a refused ingest must not fold");
        }
        other => panic!("expected status, got {other:?}"),
    }

    // a generous budget goes through the same path and succeeds
    match roundtrip(
        &mut stream,
        &Request::WithDeadline {
            budget_ms: 60_000,
            inner: Box::new(Request::Ingest(chunk(1, 0))),
        },
    ) {
        Response::Ack { seq, .. } => assert_eq!(seq, 0),
        other => panic!("expected an ack under a generous budget, got {other:?}"),
    }

    // a nested wrapper is refused at decode with the PROTOCOL code
    let nested = Request::WithDeadline {
        budget_ms: 5,
        inner: Box::new(Request::WithDeadline {
            budget_ms: u64::MAX,
            inner: Box::new(Request::Status),
        }),
    };
    match roundtrip(&mut stream, &nested) {
        Response::Error { code: c, .. } => assert_eq!(c, code::PROTOCOL),
        other => panic!("expected a PROTOCOL refusal, got {other:?}"),
    }

    // the client-side envelope: an already-exhausted budget is a typed
    // DeadlineExceeded without a wire round-trip or a retry storm
    let mut cc = ClusterClient::new(
        vec![(0, server.addr().to_string())],
        Duration::from_secs(5),
        RetryPolicy::default(),
    );
    let err = cc
        .ingest_with_budget(chunk(1, 1), Duration::ZERO)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::DeadlineExceeded),
        "zero budget must be the typed error, got {err}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A tarpit member accepts the TCP connection and never answers — the
/// pure gray failure. A hedged read must abandon it on the tight
/// p95-derived first attempt and answer from the healthy member in
/// bounded time, nowhere near the full client timeout.
#[test]
fn hedged_read_rides_out_a_tarpit_member_in_bounded_time() {
    let dir_a = test_dir("tarpit_a");
    let dir_b = test_dir("tarpit_b");
    let server_a = start_server(&dir_a);
    let server_b = start_server(&dir_b);
    let addr_a = server_a.addr().to_string();
    let addr_b = server_b.addr().to_string();

    const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
    let mut cc = ClusterClient::new(
        vec![(0, addr_a.clone()), (1, addr_b)],
        CLIENT_TIMEOUT,
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(20),
            seed: 7,
        },
    );

    // build member 0's latency history: fast, healthy answers
    for _ in 0..6 {
        let (_, _, hedged) = cc.status_hedged().unwrap();
        assert!(!hedged, "a healthy member must not trigger the hedge");
    }
    assert!(
        cc.health().p95(0).is_some(),
        "the preferred member should have a latency profile by now"
    );

    // member 0 becomes a tarpit: the listener accepts and says nothing
    server_a.shutdown();
    let tarpit = TcpListener::bind(&addr_a).expect("rebind the freed address");
    let sink = std::thread::spawn(move || {
        let mut held = Vec::new();
        // hold accepted sockets open so the peer blocks on the read, not
        // the connect; exit when the listener is closed by process end
        while let Ok((s, _)) = tarpit.accept() {
            held.push(s);
            if held.len() >= 4 {
                break;
            }
        }
        held
    });

    // the shut-down server's detached handler thread can keep answering
    // on the cached connection; bounce the preference to force a fresh
    // connect, which now lands on the tarpit listener
    cc.prefer(1);
    cc.prefer(0);

    let started = Instant::now();
    let (status, _, hedged) = cc.status_hedged().unwrap();
    let elapsed = started.elapsed();
    assert_eq!(status.chunks_seen, 0);
    assert!(
        hedged,
        "the tight first attempt against the tarpit must be abandoned"
    );
    assert!(
        elapsed < CLIENT_TIMEOUT / 2,
        "hedged read took {elapsed:?}; it must not wait out the tarpit \
         (client timeout {CLIENT_TIMEOUT:?})"
    );

    // the tarpit strike counts against member 0's profile: subsequent
    // hedged reads keep answering from the healthy member
    for _ in 0..2 {
        let (_, _, _) = cc.status_hedged().unwrap();
    }

    drop(cc);
    // unblock the sink thread so the test tears down cleanly
    let _ = TcpStream::connect(&addr_a);
    let _ = TcpStream::connect(&addr_a);
    let _ = TcpStream::connect(&addr_a);
    let _ = sink.join();
    server_b.shutdown();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
