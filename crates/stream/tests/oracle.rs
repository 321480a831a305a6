//! I-CRH held to the paper-transcription oracle's Algorithm 2
//! (`crh-core`'s `tests/common/oracle.rs`).
//!
//! Each of the 24 seeded tables is split into 3–6 chunks with disjoint
//! objects. The highest source makes no claim in the first chunk, so a
//! later chunk introduces it and it must join at weight 1 with no
//! accumulated distance. Every chunk's truths and the weights after it
//! must agree with the transcription within the oracle's relative
//! tolerance.

#[path = "../../core/tests/common/mod.rs"]
mod common;
#[path = "../../core/tests/common/oracle.rs"]
#[expect(
    dead_code,
    reason = "Algorithm 1 is held to the batch drivers in crh-core and crh-mapreduce"
)]
mod oracle;

use crh_core::ids::SourceId;
use crh_core::table::{ObservationTable, TableBuilder};
use crh_stream::ICrh;

use oracle::{divergence, incremental, Answer, DEFAULTS};

/// `table` split into 3–6 chunks of consecutive objects (at most one
/// chunk per object), without the highest source's claims in chunk 0.
fn chunks(seed: u64, table: &ObservationTable) -> Vec<ObservationTable> {
    let objects = table.num_objects();
    let n = (3 + seed as usize % 4).min(objects);
    let last_source = SourceId::from_index(table.num_sources() - 1);
    let mut builders: Vec<TableBuilder> = (0..n)
        .map(|_| TableBuilder::new(table.schema().clone()))
        .collect();
    for (_, entry, obs) in table.iter_entries() {
        let c = entry.object.index() * n / objects;
        for (s, v) in obs {
            if c == 0 && *s == last_source {
                continue;
            }
            builders[c]
                .add(entry.object, entry.property, *s, v.clone())
                .expect("claim within the schema");
        }
    }
    let chunks: Vec<ObservationTable> = builders
        .into_iter()
        .map(|b| b.build().expect("chunk builds"))
        .collect();
    assert!(
        chunks[0].num_sources() < table.num_sources(),
        "a later chunk introduces a source"
    );
    chunks
}

/// The first chunk on which I-CRH at `alpha` disagrees with the
/// transcription at `oracle_alpha`, with the reason.
fn first_divergence(
    seed: u64,
    table: &ObservationTable,
    alpha: f64,
    oracle_alpha: f64,
) -> Option<String> {
    let chunks = chunks(seed, table);
    let want = incremental(&DEFAULTS, &chunks, oracle_alpha);
    let mut state = ICrh::new(alpha).unwrap().start();
    for (i, (chunk, want)) in chunks.iter().zip(&want).enumerate() {
        let truths = state.process_chunk(chunk).unwrap();
        let got = Answer {
            truths: &truths,
            weights: state.weights(),
            trace: &[],
        };
        if let Some(why) = divergence(want, chunk, &got) {
            return Some(format!("chunk {i}: {why}"));
        }
    }
    None
}

#[test]
fn icrh_matches_the_algorithm_2_transcription() {
    for seed in 0..common::TABLES {
        let table = common::random_table(seed);
        for alpha in [0.5, 0.9] {
            if let Some(why) = first_divergence(seed, &table, alpha, alpha) {
                panic!("I-CRH (alpha {alpha}), table {seed}, {why}");
            }
        }
    }
}

/// The sensitivity fixture: a transcription decaying at 0.9 must disagree
/// with I-CRH at 0.5 on every table, so the tolerance is tight enough to
/// see the decay.
#[test]
fn a_wrong_decay_falls_outside_the_tolerance() {
    let caught = (0..common::TABLES)
        .filter(|&seed| first_divergence(seed, &common::random_table(seed), 0.5, 0.9).is_some())
        .count();
    assert_eq!(
        caught,
        common::TABLES as usize,
        "a decay of 0.9 passed as 0.5"
    );
}
