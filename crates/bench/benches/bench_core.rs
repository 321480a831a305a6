//! The solver-core performance gate: the entry-sharded kernels must
//! actually pay for themselves — across a **size sweep**, not at one
//! flattering point.
//!
//! The sweep runs ~1k → ~1M entries (250 → 250k objects at 4 properties ×
//! 10 sources × ~85% density). Per size it times the solver at 1/2/4/8
//! threads, so the JSON artifact pins the thread-scaling curve. Claims
//! checked, not just timed:
//!
//! 1. **Determinism** — at the probe size, the result digest at every
//!    thread count equals the 1-thread digest (asserted unconditionally; a
//!    perf win that changes bits is a bug, not a win).
//! 2. **Scaling** — 4 threads ≥ 1.5× 1 thread at
//!    the *largest* size, asserted only when the machine actually has ≥ 4
//!    cores (at small sizes the gate would measure fixed costs — that
//!    vacuity at the old single 12k-object size is why the sweep exists).
//!    On smaller hosts the timings are still recorded so the artifact
//!    shows honest numbers for that hardware.
//!
//! A `prepare` group times the per-table set-up a single-sweep I-CRH
//! fold pays before and around its one sweep, per 100-city weather day
//! (one stream chunk, cycling through 32 days) and on the 30-city ×
//! 32-day table: the table build (`from_claims`, including the clone of
//! its input claims and schema), the solver plan (`PreparedProblem::new`)
//! and one `ICrhState::process_chunk`.
//!
//! `CRH_BENCH_QUICK=1` drops the largest size and the perf gates (CI's
//! build-test job smoke-tests the target this way); the bench-core job
//! runs the full sweep with `CRH_BENCH_JSON=BENCH_core.json` and uploads
//! the artifact.

use std::collections::HashMap;

use crh_bench::microbench::{BenchmarkId, Harness, Throughput};
use crh_core::ids::{ObjectId, SourceId};
use crh_core::persist::{digest64, Enc};
use crh_core::rng::{Pcg64, Rng};
use crh_core::schema::Schema;
use crh_core::solver::{CrhBuilder, CrhResult, PreparedProblem};
use crh_core::table::{Claim, ObservationTable, TableBuilder};
use crh_core::value::Value;
use crh_data::generators::weather::{generate, WeatherConfig};
use crh_stream::ICrh;

/// Object counts for the size sweep; entries ≈ 4 × objects, observations
/// ≈ 34 × objects. The last size is ~1M entries / ~8.5M observations.
const SIZES: [u32; 4] = [250, 2_500, 25_000, 250_000];
/// The size used for the digest claim: big enough for many kernel chunks,
/// small enough that the extra solves stay cheap.
const PROBE_SIZE: u32 = 2_500;
const SOURCES: u32 = 10;
const MAX_ITERS: usize = 8;
const COL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Seeded mixed table: `objects` × (2 continuous + 2 categorical)
/// properties × 10 sources at ~85% density.
fn sized_table(objects: u32) -> ObservationTable {
    let mut rng = Pcg64::seed_from_u64(0xC0FFEE ^ objects as u64);
    let mut schema = Schema::new();
    let temp = schema.add_continuous("temp");
    let hum = schema.add_continuous("humidity");
    let cond = schema.add_categorical("cond");
    let wind = schema.add_categorical("wind");
    let mut b = TableBuilder::new(schema);
    let conds = ["clear", "cloudy", "storm", "fog"];
    let winds = ["calm", "breeze", "gale"];
    for i in 0..objects {
        for s in 0..SOURCES {
            let bias = s as f64 * 0.4;
            for (pid, base) in [(temp, (i % 90) as f64), (hum, (i % 100) as f64)] {
                if rng.next_u64() % 100 < 85 {
                    let noise = (rng.next_u64() % 1000) as f64 / 250.0;
                    b.add(
                        ObjectId(i),
                        pid,
                        SourceId(s),
                        Value::Num(base + bias + noise),
                    )
                    .unwrap();
                }
            }
            for (pid, labels) in [(cond, &conds[..]), (wind, &winds[..])] {
                if rng.next_u64() % 100 < 85 {
                    let truthful = rng.next_u64() % 10 < 10 - s as u64;
                    let l = if truthful {
                        labels[i as usize % labels.len()]
                    } else {
                        labels[(rng.next_u64() as usize) % labels.len()]
                    };
                    b.add_label(ObjectId(i), pid, SourceId(s), l).unwrap();
                }
            }
        }
    }
    b.build().unwrap()
}

fn solver(threads: usize) -> crh_core::solver::Crh {
    CrhBuilder::new()
        .threads(threads)
        .max_iters(MAX_ITERS)
        .tolerance(1e-12)
        .build()
        .unwrap()
}

fn digest(res: &CrhResult) -> u64 {
    let mut e = Enc::new();
    e.f64s(&res.weights);
    e.f64s(&res.objective_trace);
    e.u64(res.iterations as u64);
    for (_, t) in res.truths.iter() {
        e.truth(t);
    }
    digest64(&e.into_bytes())
}

fn median_ns(h: &Harness, group: &str, id: &str) -> f64 {
    h.records()
        .iter()
        .find(|r| r.group == group && r.id == id)
        .unwrap_or_else(|| panic!("no record for {group}/{id}"))
        .median_ns
}

/// Claim 1: at the probe size, every thread count agrees with the
/// sequential run to the bit.
fn assert_digest_invariance(cores: usize) {
    let table = sized_table(PROBE_SIZE);
    let reference = digest(&solver(1).run(&table).unwrap());
    for threads in [2usize, 4, 8, cores.max(1)] {
        let res = solver(threads).run(&table).unwrap();
        assert_eq!(
            digest(&res),
            reference,
            "threads={threads} changed the result bits"
        );
    }
}

fn bench_core(c: &mut Harness) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quick = c.is_quick();
    assert_digest_invariance(cores);

    let sweep: &[u32] = if quick { &SIZES[..3] } else { &SIZES };
    let largest = *sweep.last().unwrap();

    // The size sweep at 1/2/4/8 threads. Throughput = observations ×
    // iterations, so Melem/s is comparable across sizes and the artifact
    // pins a real scaling curve.
    for &objects in sweep {
        let table = sized_table(objects);
        let iters = solver(1).run(&table).unwrap().iterations;
        let work = table.num_observations() as u64 * iters as u64;
        println!(
            "\nsize {objects}: {} entries, {} observations, {} iterations/run",
            table.num_entries(),
            table.num_observations(),
            iters
        );
        let mut g = c.benchmark_group("core_scaling");
        g.sample_size(if objects >= 25_000 { 4 } else { 10 });
        g.throughput(Throughput::Elements(work));
        for threads in COL_THREADS {
            g.bench_with_input(
                BenchmarkId::new(&format!("col{threads}"), objects),
                &table,
                |b, t| b.iter(|| solver(threads).run(t).unwrap()),
            );
        }
        g.finish();
    }

    // Derived metrics: pinned into the JSON artifact alongside raw timings.
    let col1 = median_ns(c, "core_scaling", &format!("col1/{largest}"));
    let col4 = median_ns(c, "core_scaling", &format!("col4/{largest}"));
    c.record_metric("core_scaling", "largest_objects", largest as f64);
    c.record_metric("core_scaling", "thread4_speedup_at_largest", col1 / col4);

    // Claim 2: parallel speedup at the largest size, only meaningful with
    // real cores.
    println!(
        "4-thread speedup at {largest} objects: {:.2}x (on {cores} cores)",
        col1 / col4
    );
    if !quick && cores >= 4 {
        assert!(
            col1 / col4 >= 1.5,
            "expected >=1.5x at 4 threads on {cores} cores, got {:.2}x",
            col1 / col4
        );
    }
}

/// Seeded weather claims, `cities` × `days` at the paper's missing rate,
/// one chunk per day (`per_day`) or one chunk for the whole table, each in
/// the (object, property, source) order the generator and the daemon
/// send.
fn weather_chunks(cities: usize, days: usize, per_day: bool) -> (Schema, Vec<Vec<Claim>>) {
    let ds = generate(&WeatherConfig {
        cities,
        days,
        missing_rate: 0.072,
        truth_rate: 1.0,
        seed: 0x7EA7_0001,
    });
    let claim = |(object, property, source, value)| Claim {
        object,
        property,
        source,
        value,
    };
    let chunks = if per_day {
        let days = ds.split_by_day().unwrap();
        days.into_iter()
            .map(|(_, day)| day.into_iter().map(claim).collect())
            .collect()
    } else {
        let all = ds.table.iter_entries().flat_map(|(_, entry, obs)| {
            obs.iter()
                .map(move |(s, v)| (entry.object, entry.property, *s, v.clone()))
        });
        vec![all.map(claim).collect()]
    };
    (ds.table.schema().clone(), chunks)
}

/// The `prepare` group. The stream input cycles through 32 different days,
/// as a stream does; one day repeated would let the branch predictor learn
/// its data and flatter branchy code.
fn bench_prepare(c: &mut Harness) {
    for (name, cities, per_day) in [("day100", 100, true), ("weather30x32", 30, false)] {
        let (schema, chunks) = weather_chunks(cities, 32, per_day);
        let tables: Vec<ObservationTable> = chunks
            .iter()
            .map(|claims| ObservationTable::from_claims(schema.clone(), claims.clone()).unwrap())
            .collect();
        let claims_per_chunk = chunks.iter().map(Vec::len).sum::<usize>() / chunks.len();
        let mut g = c.benchmark_group("prepare");
        g.throughput(Throughput::Elements(claims_per_chunk as u64));
        let mut next = 0usize;
        let mut cycle = move |n: usize| {
            next = (next + 1) % n;
            next
        };
        g.bench_function(format!("from_claims/{name}"), |b| {
            b.iter(|| {
                let claims = chunks[cycle(chunks.len())].clone();
                ObservationTable::from_claims(schema.clone(), claims).unwrap()
            })
        });
        g.bench_function(format!("plan/{name}"), |b| {
            b.iter(|| {
                let table = &tables[cycle(tables.len())];
                PreparedProblem::new(table, &HashMap::new()).unwrap()
            })
        });
        let mut state = ICrh::new(0.9).unwrap().threads(1).start();
        g.bench_function(format!("process_chunk/{name}"), |b| {
            b.iter(|| {
                let table = &tables[cycle(tables.len())];
                state.process_chunk(table).unwrap()
            })
        });
        g.finish();
    }
}

fn main() {
    let mut h = Harness::from_env();
    bench_prepare(&mut h);
    bench_core(&mut h);
}
