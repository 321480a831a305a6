//! End-to-end tests of the TCP daemon: normal operation, overload
//! shedding, stalled clients, quarantine over the wire, and protocol
//! garbage. Everything runs on a loopback listener bound to port 0.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crh_core::schema::Schema;
use crh_core::value::{Truth, Value};
use crh_serve::{
    ChunkClaim, Client, ServeConfig, ServeCore, ServeError, ServeFaultInjector, ServeFaultPlan,
    Server, ServerConfig,
};
use std::path::PathBuf;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("temperature");
    let p = s.add_categorical("condition");
    s.intern(p, "sunny").unwrap();
    s.intern(p, "rainy").unwrap();
    s
}

fn test_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("crh_srv_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn start_server(dir: &PathBuf, server_cfg: ServerConfig) -> Server {
    start_server_with(dir, server_cfg, ServeFaultInjector::disabled())
}

fn start_server_with(
    dir: &PathBuf,
    server_cfg: ServerConfig,
    injector: ServeFaultInjector,
) -> Server {
    let cfg = ServeConfig::new(schema(), 0.6, dir)
        .snapshot_every(4)
        .injector(injector);
    let (core, _) = ServeCore::open(cfg).unwrap();
    Server::start(core, server_cfg, "127.0.0.1:0").unwrap()
}

fn chunk(step: u32) -> Vec<ChunkClaim> {
    vec![
        ChunkClaim::num(0, 0, 0, 20.0 + step as f64),
        ChunkClaim::num(0, 0, 1, 20.4 + step as f64),
        ChunkClaim {
            object: 1,
            property: 1,
            source: 0,
            value: Value::Cat(step % 2),
        },
    ]
}

#[test]
fn full_session_over_the_wire() {
    let dir = test_dir("session");
    let server = start_server(&dir, ServerConfig::default());
    let mut client = Client::connect(server.addr(), Duration::from_secs(5)).unwrap();

    // binary ingest
    let (seq, seen) = client.ingest(chunk(0)).unwrap();
    assert_eq!((seq, seen), (0, 1));
    // CSV ingest resolves property names and categorical labels
    let (seq, seen) = client
        .ingest_csv("0,temperature,0,21.5\n0,temperature,1,21.0\n1,condition,0,rainy\n")
        .unwrap();
    assert_eq!((seq, seen), (1, 2));

    let weights = client.weights().unwrap();
    assert_eq!(weights.len(), 2);
    assert!(weights.iter().all(|w| w.is_finite()));

    match client.truth(1, 1).unwrap() {
        Some(Truth::Point(Value::Cat(_)) | Truth::Distribution { .. }) => {}
        other => panic!("expected a categorical truth, got {other:?}"),
    }
    assert_eq!(client.truth(42, 0).unwrap(), None);

    let status = client.status().unwrap();
    assert_eq!(status.chunks_seen, 2);
    assert!(status.quarantined.is_empty());

    // remote batch solve, seeded from the daemon's weights
    let solved = client.solve(1e-6, 50, chunk(3)).unwrap();
    assert!(solved.objective.is_finite());
    assert!(solved.iterations >= 1);

    // clean shutdown snapshots; a fresh open recovers everything
    let final_seen = client.shutdown().unwrap();
    assert_eq!(final_seen, 2);
    server.shutdown();
    let (core, report) = ServeCore::open(ServeConfig::new(schema(), 0.6, &dir)).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(core.chunks_seen(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_is_typed_prompt_and_deadlock_free() {
    let dir = test_dir("overload");
    // every fold stalls 300 ms; one slot in the queue; clients wait at
    // most 150 ms for their fold
    let injector = ServeFaultInjector::new(
        ServeFaultPlan::new(1)
            .stalls(1.0, Duration::from_millis(300))
            .max_faults(u64::MAX),
    );
    let server_cfg = ServerConfig {
        queue_capacity: 1,
        ingest_deadline: Duration::from_millis(150),
        io_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = start_server_with(&dir, server_cfg, injector);
    let addr = server.addr();

    let workers: Vec<_> = (0..6u32)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, Duration::from_secs(5)).unwrap();
                let started = Instant::now();
                let result = c.ingest(chunk(i));
                (result, started.elapsed())
            })
        })
        .collect();

    // reads bypass ingest admission: while the 1-slot queue is full and
    // folds stall, a second client's reads wait for the fold in progress
    // and answer; they are never refused with `Overloaded`
    std::thread::sleep(Duration::from_millis(50));
    let mut reader = Client::connect(addr, Duration::from_secs(5)).unwrap();
    let weights = reader.weights();
    assert!(weights.is_ok(), "weights read under overload: {weights:?}");
    let truth = reader.truth(0, 0);
    assert!(truth.is_ok(), "truth read under overload: {truth:?}");

    let mut accepted = 0;
    let mut overloaded = 0;
    let mut deadlined = 0;
    for w in workers {
        let (result, elapsed) = w.join().unwrap();
        match result {
            Ok(_) => accepted += 1,
            Err(ServeError::Overloaded { .. }) => {
                overloaded += 1;
                // shed immediately, not after the fold deadline
                assert!(
                    elapsed < Duration::from_millis(150),
                    "overload reply took {elapsed:?}"
                );
            }
            Err(ServeError::DeadlineExceeded) => {
                deadlined += 1;
                assert!(
                    elapsed < Duration::from_secs(2),
                    "deadline reply took {elapsed:?}"
                );
            }
            Err(e) => panic!("unexpected error under overload: {e}"),
        }
    }
    assert_eq!(accepted + overloaded + deadlined, 6);
    assert!(
        overloaded > 0,
        "a 1-slot queue under 6 concurrent pushes must shed load"
    );

    // no deadlock: the daemon still answers queries while folds drain,
    // and every enqueued chunk eventually folded exactly once
    let mut c = Client::connect(addr, Duration::from_secs(5)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = c.status().unwrap();
        if status.queue_depth == 0 && status.chunks_seen as usize == 6 - overloaded {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never drained: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stalled_client_is_dropped_without_blocking_others() {
    let dir = test_dir("stalled");
    let server_cfg = ServerConfig {
        io_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = start_server(&dir, server_cfg);

    // a peer that opens a connection, sends half a frame header, and stalls
    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    stalled.write_all(&[0x10, 0x00]).unwrap();

    // healthy clients keep getting answers while the peer is stalling
    let mut healthy = Client::connect(server.addr(), Duration::from_secs(5)).unwrap();
    healthy.ingest(chunk(0)).unwrap();
    assert_eq!(healthy.status().unwrap().chunks_seen, 1);

    // the daemon drops the stalled peer after io_timeout: our next read
    // sees EOF (or a reset) rather than hanging forever
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 1];
    let dropped = match stalled.read(&mut buf) {
        Ok(0) => true,  // clean EOF
        Ok(_) => false, // daemon answered a half frame?!
        Err(_) => true, // reset/timeout — connection is dead
    };
    assert!(dropped, "stalled connection was never dropped");

    // and the daemon is still fully alive afterwards
    healthy.ingest(chunk(1)).unwrap();
    assert_eq!(healthy.status().unwrap().chunks_seen, 2);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_feed_is_quarantined_and_heals_over_the_wire() {
    let dir = test_dir("quarantine");
    let server = start_server(&dir, ServerConfig::default());
    let mut client = Client::connect(server.addr(), Duration::from_secs(5)).unwrap();

    // NaN observations from source 7 cannot pass the client-side typed
    // constructor accidentally — build them explicitly
    let bad = vec![ChunkClaim::num(0, 0, 7, f64::NAN)];
    for _ in 0..3 {
        let err = client.ingest(bad.clone()).unwrap_err();
        assert!(
            matches!(err, ServeError::Remote { code, .. } if code == crh_serve::error::code::INVALID_CHUNK),
            "{err}"
        );
    }
    // breaker tripped: even a now-valid chunk from source 7 is rejected
    let err = client
        .ingest(vec![ChunkClaim::num(0, 0, 7, 20.0)])
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Remote { code, .. } if code == crh_serve::error::code::QUARANTINED),
        "{err}"
    );
    let status = client.status().unwrap();
    assert_eq!(status.quarantined, vec![7]);
    assert_eq!(status.chunks_seen, 0, "bad feed must never touch the model");

    // other sources keep the tick clock moving; after the cool-down the
    // probe chunk heals the source
    for i in 0..20u32 {
        client.ingest(chunk(i)).unwrap();
    }
    client.ingest(vec![ChunkClaim::num(0, 0, 7, 20.0)]).unwrap();
    let status = client.status().unwrap();
    assert!(status.quarantined.is_empty(), "source 7 should have healed");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_garbage_drops_the_peer_not_the_daemon() {
    let dir = test_dir("garbage");
    let server = start_server(&dir, ServerConfig::default());

    // a frame whose CRC doesn't match its payload
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    let payload = b"not a real request";
    sock.write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    sock.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
    sock.write_all(payload).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 16];
    // the daemon just drops us (EOF/reset), it does not crash
    assert!(!matches!(sock.read(&mut buf), Ok(n) if n > 0));

    // a well-framed payload that decodes to an unknown tag gets a typed
    // protocol error back instead of a dropped connection
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    let junk = [200u8, 1, 2, 3];
    sock.write_all(&(junk.len() as u32).to_le_bytes()).unwrap();
    sock.write_all(&crh_core::persist::crc32(&junk).to_le_bytes())
        .unwrap();
    sock.write_all(&junk).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut header = [0u8; 8];
    sock.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let mut resp = vec![0u8; len];
    sock.read_exact(&mut resp).unwrap();
    let resp = crh_serve::proto::Response::decode(&resp).unwrap();
    assert!(
        matches!(
            resp,
            crh_serve::proto::Response::Error { code, .. }
                if code == crh_serve::error::code::PROTOCOL
        ),
        "{resp:?}"
    );

    // daemon still healthy
    let mut client = Client::connect(server.addr(), Duration::from_secs(5)).unwrap();
    client.ingest(chunk(0)).unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connection_cap_refuses_with_typed_overload() {
    let dir = test_dir("conncap");
    let server_cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = start_server(&dir, server_cfg);
    let mut first = Client::connect(server.addr(), Duration::from_secs(5)).unwrap();
    first.status().unwrap(); // the slot is definitely taken

    let mut second = Client::connect(server.addr(), Duration::from_secs(5)).unwrap();
    let err = second.status().unwrap_err();
    assert!(matches!(err, ServeError::Overloaded { .. }), "{err}");

    drop(first);
    // the slot frees once the daemon notices the disconnect
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = Client::connect(server.addr(), Duration::from_secs(5)).unwrap();
        match retry.status() {
            Ok(_) => break,
            Err(ServeError::Overloaded { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("{e}"),
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
