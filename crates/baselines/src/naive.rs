//! Voting/Averaging baselines (§1.1, §3.1.2): Mean, Median, Majority Voting.
//!
//! These "assume all the sources are equally reliable" — no source weights.
//! Mean and Median apply to continuous properties only; Voting to
//! categorical only (the paper scores them NA on the other type).

use crh_core::loss::weighted_median;
use crh_core::table::{ObservationTable, TruthTable};
use crh_core::value::{PropertyType, Truth, Value};

use crate::resolver::{ConflictResolver, ResolverOutput, SupportedTypes};

/// How a naive method aggregates continuous observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aggregate {
    Mean,
    Median,
}

fn resolve_naive(table: &ObservationTable, agg: Option<Aggregate>) -> TruthTable {
    let mut cells = Vec::with_capacity(table.num_entries());
    for (_, entry, obs) in table.iter_entries() {
        let ptype = table
            .schema()
            .property_type(entry.property)
            .expect("property in schema");
        let truth = match (ptype, agg) {
            (PropertyType::Continuous, Some(a)) => {
                let nums: Vec<f64> = obs.iter().filter_map(|(_, v)| v.as_num()).collect();
                let v = match a {
                    Aggregate::Mean => nums.iter().sum::<f64>() / nums.len().max(1) as f64,
                    Aggregate::Median => {
                        let mut pairs: Vec<(f64, f64)> = nums.iter().map(|&x| (x, 1.0)).collect();
                        weighted_median(&mut pairs)
                    }
                };
                Truth::Point(Value::Num(v))
            }
            (PropertyType::Categorical | PropertyType::Text, None) => {
                // unweighted majority vote, ties toward first-seen
                let mut votes: Vec<(&Value, usize)> = Vec::new();
                for (_, v) in obs {
                    match votes.iter_mut().find(|(u, _)| u.matches(v)) {
                        Some(slot) => slot.1 += 1,
                        None => votes.push((v, 1)),
                    }
                }
                let best = votes
                    .iter()
                    .max_by_key(|(_, c)| *c)
                    .expect("non-empty entry");
                Truth::Point(best.0.clone())
            }
            // unsupported type: placeholder (first observation); callers
            // must consult `supported` before scoring
            _ => Truth::Point(obs[0].1.clone()),
        };
        cells.push(truth);
    }
    TruthTable::new(cells)
}

/// Per-entry unweighted mean of continuous observations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean;

impl ConflictResolver for Mean {
    fn name(&self) -> &'static str {
        "Mean"
    }

    fn run(&self, table: &ObservationTable) -> ResolverOutput {
        ResolverOutput {
            truths: resolve_naive(table, Some(Aggregate::Mean)),
            source_scores: None,
            scores_are_error: false,
            iterations: 1,
            supported: SupportedTypes::CONTINUOUS_ONLY,
        }
    }
}

/// Per-entry unweighted median of continuous observations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Median;

impl ConflictResolver for Median {
    fn name(&self) -> &'static str {
        "Median"
    }

    fn run(&self, table: &ObservationTable) -> ResolverOutput {
        ResolverOutput {
            truths: resolve_naive(table, Some(Aggregate::Median)),
            source_scores: None,
            scores_are_error: false,
            iterations: 1,
            supported: SupportedTypes::CONTINUOUS_ONLY,
        }
    }
}

/// Majority voting on categorical (and text) entries — "the value that has
/// the highest number of occurrences".
#[derive(Debug, Clone, Copy, Default)]
pub struct Voting;

impl ConflictResolver for Voting {
    fn name(&self) -> &'static str {
        "Voting"
    }

    fn run(&self, table: &ObservationTable) -> ResolverOutput {
        ResolverOutput {
            truths: resolve_naive(table, None),
            source_scores: None,
            scores_are_error: false,
            iterations: 1,
            supported: SupportedTypes::CATEGORICAL_ONLY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crh_core::ids::{ObjectId, PropertyId, SourceId};
    use crh_core::schema::Schema;
    use crh_core::table::TableBuilder;

    fn table() -> ObservationTable {
        let mut schema = Schema::new();
        schema.add_continuous("x");
        schema.add_categorical("c");
        let mut b = TableBuilder::new(schema);
        let (x, c) = (PropertyId(0), PropertyId(1));
        for (k, v) in [1.0, 2.0, 9.0].iter().enumerate() {
            b.add(ObjectId(0), x, SourceId(k as u32), Value::Num(*v))
                .unwrap();
        }
        b.add_label(ObjectId(0), c, SourceId(0), "a").unwrap();
        b.add_label(ObjectId(0), c, SourceId(1), "a").unwrap();
        b.add_label(ObjectId(0), c, SourceId(2), "b").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn mean_averages() {
        let t = table();
        let out = Mean.run(&t);
        let e = t.entry_id(ObjectId(0), PropertyId(0)).unwrap();
        assert!((out.truths.get(e).as_num().unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(out.supported, SupportedTypes::CONTINUOUS_ONLY);
        assert!(out.source_scores.is_none());
    }

    #[test]
    fn median_resists_outlier() {
        let t = table();
        let out = Median.run(&t);
        let e = t.entry_id(ObjectId(0), PropertyId(0)).unwrap();
        assert_eq!(out.truths.get(e).as_num(), Some(2.0));
    }

    #[test]
    fn voting_majority_wins() {
        let t = table();
        let out = Voting.run(&t);
        let e = t.entry_id(ObjectId(0), PropertyId(1)).unwrap();
        assert_eq!(out.truths.get(e).point(), Value::Cat(0));
        assert_eq!(out.supported, SupportedTypes::CATEGORICAL_ONLY);
    }

    #[test]
    fn names() {
        assert_eq!(Mean.name(), "Mean");
        assert_eq!(Median.name(), "Median");
        assert_eq!(Voting.name(), "Voting");
    }
}
