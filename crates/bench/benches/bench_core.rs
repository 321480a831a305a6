//! The solver-core performance gate: the columnar fast path, the
//! entry-sharded kernels and the fused iteration loop must actually pay
//! for themselves — across a **size sweep**, not at one flattering point.
//!
//! The sweep runs ~1k → ~1M entries (250 → 250k objects at 4 properties ×
//! 10 sources × ~85% density). Per size it times the row-layout reference
//! at 1 thread and the columnar path at 1/2/4/8 threads, so the JSON
//! artifact pins both the layout speedup curve and the thread-scaling
//! curve. Claims checked, not just timed:
//!
//! 1. **Determinism** — at the probe size, the result digest at every
//!    thread count and for both layouts equals the sequential row-path
//!    digest (asserted unconditionally; a perf win that changes bits is a
//!    bug, not a win).
//! 2. **Fusion** — the fused loop beats the two-pass `run_unfused`
//!    reference single-threaded (asserted unconditionally).
//! 3. **Columnar** — the columnar path beats the row path at the largest
//!    size, single-threaded (asserted unconditionally in the full run:
//!    layout wins don't need extra cores). The smallest size where it
//!    already wins is recorded as the `columnar_crossover_objects` metric.
//! 4. **Scaling** — columnar at 4 threads ≥ 1.5× columnar at 1 thread at
//!    the *largest* size, asserted only when the machine actually has ≥ 4
//!    cores (at small sizes the gate would measure fixed costs — that
//!    vacuity at the old single 12k-object size is why the sweep exists).
//!    On smaller hosts the timings are still recorded so the artifact
//!    shows honest numbers for that hardware.
//!
//! `CRH_BENCH_QUICK=1` drops the largest size and the perf gates (CI's
//! build-test job smoke-tests the target this way); the bench-core job
//! runs the full sweep with `CRH_BENCH_JSON=BENCH_core.json` and uploads
//! the artifact.

use crh_bench::microbench::{BenchmarkId, Harness, Throughput};
use crh_core::ids::{ObjectId, SourceId};
use crh_core::persist::{digest64, Enc};
use crh_core::rng::{Pcg64, Rng};
use crh_core::schema::Schema;
use crh_core::solver::{CrhBuilder, CrhResult};
use crh_core::table::{ObservationTable, TableBuilder};
use crh_core::value::Value;

/// Object counts for the size sweep; entries ≈ 4 × objects, observations
/// ≈ 34 × objects. The last size is ~1M entries / ~8.5M observations.
const SIZES: [u32; 4] = [250, 2_500, 25_000, 250_000];
/// The size used for the digest and fusion claims: big enough for many
/// kernel chunks, small enough that the five extra solves stay cheap.
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

fn solver(columnar: bool, threads: usize) -> crh_core::solver::Crh {
    CrhBuilder::new()
        .columnar(columnar)
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

/// Claim 1: at the probe size, every thread count and both layouts agree
/// with the sequential row path to the bit — including the unfused loop.
fn assert_digest_invariance(cores: usize) {
    let table = sized_table(PROBE_SIZE);
    let reference = digest(&solver(false, 1).run(&table).unwrap());
    for threads in [2usize, 4, 8, cores.max(1)] {
        let res = solver(false, threads).run(&table).unwrap();
        assert_eq!(
            digest(&res),
            reference,
            "row path: threads={threads} changed the result bits"
        );
    }
    for threads in COL_THREADS {
        let res = solver(true, threads).run(&table).unwrap();
        assert_eq!(
            digest(&res),
            reference,
            "columnar path: threads={threads} diverged from the row path"
        );
    }
    let unfused = digest(&solver(true, 1).run_unfused(&table).unwrap());
    assert_eq!(
        unfused, reference,
        "the unfused reference diverged from the fused loop"
    );
}

fn bench_core(c: &mut Harness) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quick = c.is_quick();
    assert_digest_invariance(cores);

    let sweep: &[u32] = if quick { &SIZES[..3] } else { &SIZES };
    let largest = *sweep.last().unwrap();

    // The size sweep: row reference at 1 thread, columnar at 1/2/4/8.
    // Throughput = observations × iterations, so Melem/s is comparable
    // across sizes and the artifact pins a real scaling curve.
    let mut crossover: Option<u32> = None;
    for &objects in sweep {
        let table = sized_table(objects);
        let iters = solver(true, 1).run(&table).unwrap().iterations;
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
        g.bench_with_input(BenchmarkId::new("row1", objects), &table, |b, t| {
            b.iter(|| solver(false, 1).run(t).unwrap())
        });
        for threads in COL_THREADS {
            g.bench_with_input(
                BenchmarkId::new(&format!("col{threads}"), objects),
                &table,
                |b, t| b.iter(|| solver(true, threads).run(t).unwrap()),
            );
        }
        g.finish();

        let row1 = median_ns(c, "core_scaling", &format!("row1/{objects}"));
        let col1 = median_ns(c, "core_scaling", &format!("col1/{objects}"));
        if crossover.is_none() && col1 < row1 {
            crossover = Some(objects);
        }
        println!("  columnar vs row (1 thread): {:.2}x", row1 / col1);
    }

    // Fused loop vs the two-deviation-pass reference, single-threaded,
    // columnar on both sides (apples to apples).
    let probe = sized_table(PROBE_SIZE);
    let probe_iters = solver(true, 1).run(&probe).unwrap().iterations;
    let mut g = c.benchmark_group("core_fusion");
    g.sample_size(10);
    g.throughput(Throughput::Elements(
        probe.num_observations() as u64 * probe_iters as u64,
    ));
    g.bench_function("fused/1", |b| {
        b.iter(|| solver(true, 1).run(&probe).unwrap())
    });
    g.bench_function("unfused/1", |b| {
        b.iter(|| solver(true, 1).run_unfused(&probe).unwrap())
    });
    g.finish();

    // Derived metrics: pinned into the JSON artifact alongside raw timings.
    let row1 = median_ns(c, "core_scaling", &format!("row1/{largest}"));
    let col1 = median_ns(c, "core_scaling", &format!("col1/{largest}"));
    let col4 = median_ns(c, "core_scaling", &format!("col4/{largest}"));
    c.record_metric("core_scaling", "largest_objects", largest as f64);
    c.record_metric("core_scaling", "columnar_speedup_at_largest", row1 / col1);
    c.record_metric("core_scaling", "thread4_speedup_at_largest", col1 / col4);
    c.record_metric(
        "core_scaling",
        "columnar_crossover_objects",
        crossover.map_or(-1.0, f64::from),
    );

    // Claim 2: fusion wins single-threaded, everywhere.
    let fused_ns = median_ns(c, "core_fusion", "fused/1");
    let unfused_ns = median_ns(c, "core_fusion", "unfused/1");
    println!("\nfusion speedup (1 thread): {:.2}x", unfused_ns / fused_ns);
    if !quick {
        assert!(
            fused_ns < unfused_ns,
            "fused loop ({fused_ns:.0} ns) must beat unfused ({unfused_ns:.0} ns)"
        );
    }

    // Claim 3: the columnar layout beats the row layout at the largest
    // size on one thread — no cores required, so no self-arming here.
    println!(
        "columnar speedup at {largest} objects (1 thread): {:.2}x",
        row1 / col1
    );
    if !quick {
        assert!(
            col1 < row1,
            "columnar ({col1:.0} ns) must beat row ({row1:.0} ns) at {largest} objects"
        );
    }

    // Claim 4: parallel speedup at the largest size, only meaningful with
    // real cores.
    println!(
        "4-thread columnar speedup at {largest} objects: {:.2}x (on {cores} cores)",
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

fn main() {
    let mut h = Harness::from_env();
    bench_core(&mut h);
}
