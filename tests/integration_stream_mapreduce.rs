//! Cross-crate integration for the streaming and parallel variants.

use crh::core::solver::CrhBuilder;
use crh::core::table::TableBuilder;
use crh::data::generators::weather::{generate, WeatherConfig};
use crh::data::metrics::evaluate;
use crh::data::Dataset;
use crh::mapreduce::{JobConfig, ParallelCrh};
use crh::stream::ICrh;

fn day_chunks(ds: &Dataset) -> Vec<crh::core::ObservationTable> {
    ds.split_by_day()
        .expect("temporal")
        .into_iter()
        .map(|(_, claims)| {
            let mut b = TableBuilder::new(ds.table.schema().clone());
            for (o, p, s, v) in claims {
                b.add(o, p, s, v).unwrap();
            }
            b.build().unwrap()
        })
        .collect()
}

#[test]
fn icrh_quality_close_to_batch_crh() {
    let ds = generate(&WeatherConfig::paper());
    let batch = CrhBuilder::new().build().unwrap().run(&ds.table).unwrap();
    let batch_ev = evaluate(&ds.table, &batch.truths, &ds.truth);

    let chunks = day_chunks(&ds);
    let res = ICrh::new(0.5).unwrap().run_stream(chunks.iter()).unwrap();
    let (mut cat_n, mut wrong) = (0usize, 0usize);
    for (chunk, truths) in chunks.iter().zip(&res.truths_per_chunk) {
        let ev = evaluate(chunk, truths, &ds.truth);
        cat_n += ev.categorical_evaluated;
        wrong += ev.categorical_wrong;
    }
    let icrh_err = wrong as f64 / cat_n as f64;
    // Table 5's claim: slightly worse, not dramatically worse.
    assert!(
        icrh_err <= batch_ev.error_rate.unwrap() + 0.06,
        "I-CRH {icrh_err} vs CRH {:?}",
        batch_ev.error_rate
    );
}

#[test]
fn icrh_weights_converge_to_crh_ranking() {
    let ds = generate(&WeatherConfig::paper());
    let batch = CrhBuilder::new().build().unwrap().run(&ds.table).unwrap();
    let chunks = day_chunks(&ds);
    let res = ICrh::new(0.5).unwrap().run_stream(chunks.iter()).unwrap();

    // Spearman-ish check: the same best and worst sources.
    let argmax = |w: &[f64]| {
        (0..w.len())
            .max_by(|&a, &b| w[a].partial_cmp(&w[b]).unwrap())
            .unwrap()
    };
    let argmin = |w: &[f64]| {
        (0..w.len())
            .min_by(|&a, &b| w[a].partial_cmp(&w[b]).unwrap())
            .unwrap()
    };
    assert_eq!(argmax(&batch.weights), argmax(&res.final_weights));
    assert_eq!(argmin(&batch.weights), argmin(&res.final_weights));
}

#[test]
fn parallel_crh_matches_sequential_on_weather() {
    let mut cfg = WeatherConfig::small();
    cfg.cities = 6;
    cfg.days = 8;
    let ds = generate(&cfg);
    // the parallel driver stops at its default 1e-6 objective tolerance
    // (given headroom beyond its default 10 rounds); the sequential solver
    // runs to a tighter one
    let seq = CrhBuilder::new()
        .tolerance(1e-12)
        .build()
        .unwrap()
        .run(&ds.table)
        .unwrap();
    let par = ParallelCrh::default()
        .max_iters(40)
        .job_config(JobConfig {
            num_mappers: 3,
            num_reducers: 5,
            ..JobConfig::default()
        })
        .run(&ds.table)
        .unwrap();
    let agree = seq
        .truths
        .iter()
        .filter(|(e, t)| t.point().matches(&par.truths.get(*e).point()))
        .count();
    assert!(
        agree as f64 >= 0.99 * seq.truths.len() as f64,
        "agreement {agree}/{}",
        seq.truths.len()
    );
}

#[test]
fn parallel_crh_evaluates_like_sequential() {
    let ds = generate(&WeatherConfig::small());
    let par = ParallelCrh::default().run(&ds.table).unwrap();
    let seq = CrhBuilder::new().build().unwrap().run(&ds.table).unwrap();
    let pev = evaluate(&ds.table, &par.truths, &ds.truth);
    let sev = evaluate(&ds.table, &seq.truths, &ds.truth);
    assert!((pev.error_rate.unwrap() - sev.error_rate.unwrap()).abs() < 0.02);
    assert!((pev.mnad.unwrap() - sev.mnad.unwrap()).abs() < 0.05);
}

#[test]
fn task_slot_waves_do_not_change_results() {
    let ds = generate(&WeatherConfig::small());
    let base = ParallelCrh::default().run(&ds.table).unwrap();
    let waved = ParallelCrh::default()
        .job_config(JobConfig {
            num_reducers: 16,
            task_slots: 3,
            ..JobConfig::default()
        })
        .run(&ds.table)
        .unwrap();
    for (e, t) in base.truths.iter() {
        assert!(t.point().matches(&waved.truths.get(e).point()));
    }
}
