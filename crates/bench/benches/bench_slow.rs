//! Tail-latency benchmarks under gray failure: what the client stack
//! (EWMA health, p95-derived adaptive timeouts, hedged reads, slow-peer
//! quarantine) makes of a member that is slow without being dead.
//!
//! Run with `CRH_BENCH_JSON=BENCH_slow.json` to capture the results as
//! a machine-readable artifact (CI does this in the `chaos-slow` job).
//! The injected straggler is the purest gray failure available over
//! real TCP: a tarpit listener that accepts the connection and never
//! answers a byte. Three scenarios bracket the behaviour:
//!
//! - `healthy_warm` — both members fast; the floor a hedged read pays
//!   when nothing is wrong (the hedge must not fire).
//! - `tarpit_hedged_warm` — the preferred member turns tarpit after the
//!   client has a latency profile for it; the first strikes are
//!   abandoned on the tight p95-derived timeout and answered by the
//!   hedge, then quarantine routes around the tarpit entirely.
//! - `tarpit_unhedged_cold` — a history-less client pointed at the
//!   tarpit; every first read waits out the full client timeout before
//!   rotating. This is the cost hedging exists to avoid.
//!
//! Besides the harness median/min/max, the tarpit scenario reports the
//! hedge win-rate and nearest-rank p50/p99 over every measured read.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crh_bench::microbench::Harness;
use crh_core::schema::Schema;
use crh_serve::{ClusterClient, RetryPolicy, ServeConfig, ServeCore, Server, ServerConfig};

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("temperature");
    s.add_continuous("humidity");
    s
}

fn bench_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crh_bench_slow_{}_{name}", std::process::id()))
}

fn start_server(dir: &PathBuf) -> Server {
    std::fs::remove_dir_all(dir).ok();
    let cfg = ServeConfig::new(schema(), 0.5, dir);
    let (core, _) = ServeCore::open(cfg).unwrap();
    Server::start(core, ServerConfig::default(), "127.0.0.1:0").unwrap()
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(8),
        seed: 7,
    }
}

/// A listener that accepts every connection and never answers — the
/// sockets are held open so the peer blocks on the read, not the
/// connect.
struct Tarpit {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Tarpit {
    fn bind(addr: &str) -> Self {
        let listener = TcpListener::bind(addr).expect("rebind the freed address");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut held = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                if let Ok((s, _)) = listener.accept() {
                    held.push(s);
                }
            }
        });
        Self {
            addr: addr.to_string(),
            stop,
            thread,
        }
    }

    fn close(self) {
        self.stop.store(true, Ordering::Relaxed);
        // unblock the accept loop so the thread observes the flag
        let _ = TcpStream::connect(&self.addr);
        let _ = self.thread.join();
    }
}

/// Nearest-rank percentile over a sorted latency set.
fn percentile(sorted: &[Duration], p: usize) -> Duration {
    let idx = (sorted.len() * p).div_ceil(100).saturating_sub(1);
    sorted.get(idx).copied().unwrap_or(Duration::ZERO)
}

/// The timeout the history-less baseline client burns per tarpit read.
const COLD_TIMEOUT: Duration = Duration::from_millis(300);

fn bench_tail_read(h: &mut Harness, quick: bool) {
    let dir_a = bench_dir("member_a");
    let dir_b = bench_dir("member_b");
    let server_a = start_server(&dir_a);
    let server_b = start_server(&dir_b);
    let addr_a = server_a.addr().to_string();
    let addr_b = server_b.addr().to_string();

    let mut cc = ClusterClient::new(
        vec![(0, addr_a.clone()), (1, addr_b.clone())],
        Duration::from_secs(2),
        policy(),
    );
    // build member 0's latency profile: fast, healthy answers
    for _ in 0..6 {
        let (_, _, hedged) = cc.status_hedged().unwrap();
        assert!(!hedged, "a healthy member must not trigger the hedge");
    }

    let mut g = h.benchmark_group("slow_tail_read");
    g.sample_size(if quick { 5 } else { 40 });

    // floor: both members healthy, hedge armed but silent
    g.bench_function("healthy_warm", |b| {
        b.iter(|| {
            let (status, _, hedged) = cc.status_hedged().unwrap();
            assert!(!hedged, "hedge fired on a healthy pair");
            status.chunks_seen
        });
    });

    // member 0 becomes a tarpit behind the warm profile. The shut-down
    // server's detached handler threads can keep answering on the
    // cached connection; bounce the preference to force a fresh
    // connect, which now lands on the tarpit listener.
    server_a.shutdown();
    let tarpit = Tarpit::bind(&addr_a);
    cc.prefer(1);
    cc.prefer(0);

    let mut lats: Vec<Duration> = Vec::new();
    let mut fired = 0u64;
    g.bench_function("tarpit_hedged_warm", |b| {
        b.iter(|| {
            let started = Instant::now();
            let (status, _, hedged) = cc.status_hedged().unwrap();
            lats.push(started.elapsed());
            if hedged {
                fired += 1;
            }
            status.chunks_seen
        });
    });

    // the baseline hedging exists to avoid: no latency profile, so the
    // first read waits out the full client timeout before rotating. A
    // fresh client per iteration keeps every read cold — and every
    // sample burns the full timeout, so take fewer of them.
    g.sample_size(if quick { 5 } else { 10 });
    g.bench_function("tarpit_unhedged_cold", |b| {
        b.iter(|| {
            let mut cold = ClusterClient::new(
                vec![(0, addr_a.clone()), (1, addr_b.clone())],
                COLD_TIMEOUT,
                policy(),
            );
            let (status, _) = cold.status().unwrap();
            status.chunks_seen
        });
    });
    g.finish();

    let total = lats.len() as u64;
    lats.sort();
    let (p50, p99) = (percentile(&lats, 50), percentile(&lats, 99));
    let quarantined = cc.health().is_quarantined(0);
    println!(
        "  tarpit_hedged_warm: p50 {p50:?}  p99 {p99:?} over {total} reads; \
         hedge fired {fired}/{total}; straggler quarantined: {quarantined}"
    );
    assert!(fired >= 1, "the hedge never fired against the tarpit");
    assert!(
        p50 < COLD_TIMEOUT,
        "hedged p50 {p50:?} is no better than the cold baseline {COLD_TIMEOUT:?}"
    );
    assert!(
        p99 < Duration::from_secs(1),
        "hedged p99 {p99:?} waited out the tarpit"
    );

    drop(cc);
    tarpit.close();
    server_b.shutdown();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

fn main() {
    let quick = std::env::var("CRH_BENCH_QUICK").is_ok_and(|v| v != "0");
    let mut h = Harness::from_env();
    bench_tail_read(&mut h, quick);
}
