//! Parallel CRH on the in-process MapReduce engine (§2.7).
//!
//! Builds a large simulated multi-source table, runs the two-job iterative
//! MapReduce pipeline (truth computation keyed by entry; weight assignment
//! keyed by (property, source) with a Combiner), and verifies the answer
//! matches sequential CRH.
//!
//! Run with: `cargo run --release --example mapreduce_scale [observations]`

use crh::core::solver::CrhBuilder;
use crh::data::generators::uci::{generate, UciConfig, UciFlavor};
use crh::mapreduce::{JobConfig, ParallelCrh};

fn main() {
    let target_obs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000);
    let rows = (target_obs / (8 * 14)).max(10);
    let ds = generate(&UciConfig {
        flavor: UciFlavor::Adult,
        rows,
        gammas: crh::data::noise::PAPER_GAMMAS.to_vec(),
        seed: 42,
    });
    println!(
        "input: {} observations, {} entries, {} sources",
        ds.table.num_observations(),
        ds.table.num_entries(),
        ds.table.num_sources()
    );

    let driver = ParallelCrh::default().job_config(JobConfig {
        num_mappers: 4,
        num_reducers: 8,
        ..JobConfig::default()
    });
    let res = driver.run(&ds.table).expect("parallel run");
    println!(
        "parallel CRH: {} iterations, converged = {}, wall time {:.3}s",
        res.iterations,
        res.converged,
        res.wall_time.as_secs_f64()
    );
    // entry 0 is the uncounted uniform-weight fit and its pricing
    for (i, (ts, ws)) in res
        .truth_job_stats
        .iter()
        .zip(res.weight_job_stats.iter())
        .enumerate()
    {
        println!(
            "  iter {}: truth job shuffled {} records in {:.3}s; weight job combined {} -> {} records in {:.3}s",
            i,
            ts.shuffled_records,
            ts.total_time().as_secs_f64(),
            ws.map_output_records,
            ws.shuffled_records,
            ws.total_time().as_secs_f64(),
        );
    }
    println!(
        "estimated weights (first 4 sources): {:?}",
        res.weights[..4]
            .iter()
            .map(|w| (w * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // Cross-check against the sequential solver: both run Algorithm 1
    // from weight 1 and stop at the same 1e-6 objective tolerance.
    let seq = CrhBuilder::new()
        .build()
        .expect("config")
        .run(&ds.table)
        .expect("run");
    let agree = seq
        .truths
        .iter()
        .filter(|(e, t)| t.point().matches(&res.truths.get(*e).point()))
        .count();
    println!(
        "agreement with sequential CRH: {}/{} entries",
        agree,
        seq.truths.len()
    );
    assert!(agree as f64 >= 0.999 * seq.truths.len() as f64);
}
