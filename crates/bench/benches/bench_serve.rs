//! Serving-layer throughput: durable ingest (WAL fsync + fold), the
//! latency of one `ServeCore::ingest` over whole snapshot cycles,
//! crash-recovery latency (snapshot load + WAL replay), and the CRC32 that
//! every wire frame and WAL record pays over its payload.
//!
//! Run with `CRH_BENCH_JSON=BENCH_serve.json` to capture the results as
//! a machine-readable artifact (CI does this in the `chaos-serve` job).

use std::path::PathBuf;
use std::time::Instant;

use crh_bench::microbench::{BenchmarkId, Harness, Throughput};
use crh_core::persist::crc32;
use crh_core::rng::{Pcg64, Rng};
use crh_core::schema::Schema;
use crh_data::generators::weather::{self, WeatherConfig};
use crh_serve::{ChunkClaim, ServeConfig, ServeCore};

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("temperature");
    s.add_continuous("humidity");
    let p = s.add_categorical("condition");
    for label in ["sunny", "rainy", "foggy"] {
        s.intern(p, label).unwrap();
    }
    s
}

fn bench_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crh_bench_serve_{}_{name}", std::process::id()))
}

/// Deterministic chunks: 8 claims each over 6 sources and 3 properties.
fn workload(n: usize) -> Vec<Vec<ChunkClaim>> {
    let mut rng = Pcg64::seed_from_u64(42);
    (0..n)
        .map(|_| {
            (0..8)
                .map(|_| {
                    let object = (rng.next_u64() % 16) as u32;
                    let source = (rng.next_u64() % 6) as u32;
                    match rng.next_u64() % 3 {
                        0 => ChunkClaim::num(
                            object,
                            0,
                            source,
                            20.0 + (rng.next_u64() % 1000) as f64 / 100.0,
                        ),
                        1 => ChunkClaim::num(
                            object,
                            1,
                            source,
                            (rng.next_u64() % 100) as f64 / 100.0,
                        ),
                        _ => ChunkClaim {
                            object,
                            property: 2,
                            source,
                            value: crh_core::value::Value::Cat((rng.next_u64() % 3) as u32),
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// `days` days of the weather generator over 200 cities, one chunk per
/// day: about 5 000 claims each, the chunk of e2ebench's `serve_large`.
fn weather_days(days: usize) -> (Schema, Vec<Vec<ChunkClaim>>) {
    let ds = weather::generate(&WeatherConfig {
        cities: 200,
        days,
        missing_rate: 0.072,
        truth_rate: 1.0,
        seed: 7,
    });
    let chunks = ds
        .split_by_day()
        .unwrap_or_default()
        .into_iter()
        .map(|(_, claims)| {
            claims
                .into_iter()
                .map(|(o, p, s, value)| ChunkClaim {
                    object: o.0,
                    property: p.0,
                    source: s.0,
                    value,
                })
                .collect()
        })
        .collect();
    (ds.table.schema().clone(), chunks)
}

/// The `q`-quantile of sorted `xs` (nearest rank).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Latency of single `ServeCore::ingest` calls with the daemon's default
/// snapshot cadence (every 8 chunks) and truth cache, timed over whole
/// cadence cycles after one warm-up cycle, so the quantiles weigh the
/// cadence ingest exactly as a steady stream does (1 in 8).
fn bench_ingest_latency(c: &mut Harness) {
    const EVERY: usize = 8;
    let cycles = if c.is_quick() { 2 } else { 32 };
    let (schema, days) = weather_days(EVERY * (cycles + 1));
    let dir = bench_dir("latency");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ServeConfig::new(schema, 0.9, &dir)
        .snapshot_every(EVERY as u64)
        .solve_threads(1);
    let (mut core, _) = ServeCore::open(cfg).unwrap();
    let mut ms = Vec::with_capacity(EVERY * cycles);
    for (i, day) in days.iter().enumerate() {
        let t0 = Instant::now();
        core.ingest(day).unwrap();
        if i >= EVERY {
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    drop(core);
    std::fs::remove_dir_all(&dir).ok();
    let claims = days.iter().map(Vec::len).sum::<usize>() / days.len();
    println!(
        "serve_ingest_latency: {} ingests of ~{claims} claims",
        ms.len()
    );
    ms.sort_by(f64::total_cmp);
    c.record_metric("serve_ingest_latency", "p50_ms", quantile(&ms, 0.5));
    c.record_metric("serve_ingest_latency", "p95_ms", quantile(&ms, 0.95));
}

fn bench_serve(c: &mut Harness) {
    let quick = std::env::var("CRH_BENCH_QUICK").is_ok_and(|v| v != "0");
    let n_chunks = if quick { 8 } else { 64 };
    let chunks = workload(n_chunks);

    let mut g = c.benchmark_group("serve_ingest");
    g.sample_size(10);
    // one element = one durably accepted chunk, so the JSON artifact's
    // elems_per_sec column reads directly as ingest chunks/sec
    g.throughput(Throughput::Elements(n_chunks as u64));
    g.bench_function("wal_fsync_fold", |b| {
        let dir = bench_dir("ingest");
        b.iter(|| {
            std::fs::remove_dir_all(&dir).ok();
            let (mut core, _) =
                ServeCore::open(ServeConfig::new(schema(), 0.7, &dir).snapshot_every(16)).unwrap();
            for chunk in &chunks {
                core.ingest(chunk).unwrap();
            }
            core.chunks_seen()
        });
        std::fs::remove_dir_all(&dir).ok();
    });
    g.finish();

    // recovery latency: open a state directory left behind by a crash —
    // a snapshot plus an unabsorbed WAL tail to replay
    let mut g = c.benchmark_group("serve_recovery");
    g.sample_size(10);
    let dir = bench_dir("recovery");
    std::fs::remove_dir_all(&dir).ok();
    {
        // snapshot_every(16): the tail beyond the last multiple of 16
        // stays in the WAL, exactly the post-kill-9 shape
        let (mut core, _) =
            ServeCore::open(ServeConfig::new(schema(), 0.7, &dir).snapshot_every(16)).unwrap();
        for chunk in &chunks {
            core.ingest(chunk).unwrap();
        }
    } // dropped without a clean shutdown
    g.bench_function("snapshot_load_plus_wal_replay", |b| {
        b.iter(|| {
            let (core, report) =
                ServeCore::open(ServeConfig::new(schema(), 0.7, &dir).snapshot_every(16)).unwrap();
            assert_eq!(core.chunks_seen(), n_chunks as u64);
            report.wal_replayed
        })
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();

    // frame checksum cost by payload size: 64 B is a read request, 98 304 B
    // is about one 5k-claim ingest chunk; one element = one byte, so
    // elems_per_sec reads as checksummed bytes/sec
    let mut g = c.benchmark_group("frame_crc");
    let mut rng = Pcg64::seed_from_u64(7);
    let payload: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    for n in [64usize, 4096, 98_304, 1 << 20] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("crc32", n), &payload[..n], |b, p| {
            b.iter(|| crc32(std::hint::black_box(p)))
        });
    }
    g.finish();
}

fn main() {
    let mut h = Harness::from_env();
    bench_serve(&mut h);
    bench_ingest_latency(&mut h);
}
