//! Per-entry confidence scores for resolved truths.
//!
//! CRH outputs a point truth per entry, but downstream consumers often need
//! to know *how contested* each entry was — the direction the paper's
//! follow-up work (\[23\], "a confidence-aware approach for truth discovery")
//! develops. This module derives a `\[0, 1\]` confidence per entry from the
//! final weights:
//!
//! * **categorical / text** — the weighted fraction of sources agreeing
//!   with the resolved truth (1 = unanimous weighted support);
//! * **continuous** — `1 / (1 + d̄)` where `d̄` is the weighted mean
//!   normalized absolute deviation of the observations from the resolved
//!   truth (1 = all mass exactly at the truth);
//! * soft truths ([`Truth::Distribution`]) report their mode's probability.

use crate::solver::PreparedProblem;
use crate::table::TruthTable;
use crate::value::{PropertyType, Truth};

/// Compute a confidence in `\[0, 1\]` for every entry of `truths` (parallel
/// to the prepared table's entries), given the final source `weights`.
pub fn entry_confidences(
    prepared: &PreparedProblem<'_>,
    truths: &TruthTable,
    weights: &[f64],
) -> Vec<f64> {
    let mut out = Vec::with_capacity(prepared.table.num_entries());
    for (e, entry, obs) in prepared.table.iter_entries() {
        let truth = truths.get(e);
        // soft truths carry their own confidence
        if let Truth::Distribution { probs, mode } = truth {
            out.push(probs.get(*mode as usize).copied().unwrap_or(0.0));
            continue;
        }
        #[expect(
            clippy::expect_used,
            reason = "PreparedProblem builds every entry from this same schema, so the property id always resolves"
        )]
        let ptype = prepared
            .table
            .schema()
            .property_type(entry.property)
            .expect("entry property in schema");
        let total_w: f64 = obs.iter().map(|(s, _)| weights[s.index()]).sum();
        if total_w <= 0.0 {
            out.push(0.0);
            continue;
        }
        let point = truth.point();
        let conf = match ptype {
            PropertyType::Categorical | PropertyType::Text => {
                let agree: f64 = obs
                    .iter()
                    .filter(|(_, v)| v.matches(&point))
                    .map(|(s, _)| weights[s.index()])
                    .sum();
                agree / total_w
            }
            PropertyType::Continuous => {
                let t = point.as_num().unwrap_or(0.0);
                let std = prepared.stats[e.index()].std.max(1e-9);
                let dev: f64 = obs
                    .iter()
                    .filter_map(|(s, v)| {
                        v.as_num().map(|x| weights[s.index()] * (x - t).abs() / std)
                    })
                    .sum();
                1.0 / (1.0 + dev / total_w)
            }
        };
        out.push(conf.clamp(0.0, 1.0));
    }
    out
}

/// Convenience: prepare the problem with default losses and score the
/// entries of an existing result.
pub fn confidences_for(
    table: &crate::table::ObservationTable,
    truths: &TruthTable,
    weights: &[f64],
) -> crate::error::Result<Vec<f64>> {
    let prepared = PreparedProblem::new(table, &std::collections::HashMap::new())?;
    Ok(entry_confidences(&prepared, truths, weights))
}

/// Sanity helper used by tests and diagnostics: entries whose confidence is
/// below `threshold`, most-contested first.
pub fn contested_entries(confidences: &[f64], threshold: f64) -> Vec<(usize, f64)> {
    let mut v: Vec<(usize, f64)> = confidences
        .iter()
        .enumerate()
        .filter(|(_, &c)| c < threshold)
        .map(|(i, &c)| (i, c))
        .collect();
    v.sort_by(|a, b| a.1.total_cmp(&b.1));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, PropertyId, SourceId};
    use crate::schema::Schema;
    use crate::solver::CrhBuilder;
    use crate::table::TableBuilder;
    use crate::value::Value;
    use std::collections::HashMap;

    fn table() -> crate::table::ObservationTable {
        let mut schema = Schema::new();
        let t = schema.add_continuous("t");
        let c = schema.add_categorical("c");
        let mut b = TableBuilder::new(schema);
        // object 0: unanimous; object 1: contested
        for s in 0..4u32 {
            b.add(ObjectId(0), t, SourceId(s), Value::Num(10.0))
                .unwrap();
            b.add_label(ObjectId(0), c, SourceId(s), "x").unwrap();
        }
        b.add(ObjectId(1), t, SourceId(0), Value::Num(10.0))
            .unwrap();
        b.add(ObjectId(1), t, SourceId(1), Value::Num(90.0))
            .unwrap();
        b.add_label(ObjectId(1), c, SourceId(0), "x").unwrap();
        b.add_label(ObjectId(1), c, SourceId(1), "y").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn unanimous_entries_have_high_confidence() {
        let tab = table();
        let res = CrhBuilder::new().build().unwrap().run(&tab).unwrap();
        let conf = confidences_for(&tab, &res.truths, &res.weights).unwrap();
        let e_uni = tab.entry_id(ObjectId(0), PropertyId(1)).unwrap();
        let e_con = tab.entry_id(ObjectId(1), PropertyId(1)).unwrap();
        assert!(conf[e_uni.index()] > 0.99, "{conf:?}");
        assert!(
            conf[e_con.index()] < conf[e_uni.index()],
            "contested entry must score lower: {conf:?}"
        );
        for c in &conf {
            assert!((0.0..=1.0).contains(c));
        }
    }

    #[test]
    fn continuous_confidence_reflects_dispersion() {
        let tab = table();
        let res = CrhBuilder::new().build().unwrap().run(&tab).unwrap();
        let conf = confidences_for(&tab, &res.truths, &res.weights).unwrap();
        let e_uni = tab.entry_id(ObjectId(0), PropertyId(0)).unwrap();
        let e_con = tab.entry_id(ObjectId(1), PropertyId(0)).unwrap();
        assert!(conf[e_uni.index()] > conf[e_con.index()], "{conf:?}");
    }

    #[test]
    fn soft_truths_use_mode_probability() {
        let tab = table();
        let c = PropertyId(1);
        let res = CrhBuilder::new()
            .loss_for(c, crate::loss::ProbVectorLoss)
            .build()
            .unwrap()
            .run(&tab)
            .unwrap();
        let prepared = PreparedProblem::new(&tab, &HashMap::new()).unwrap();
        let conf = entry_confidences(&prepared, &res.truths, &res.weights);
        let e_uni = tab.entry_id(ObjectId(0), c).unwrap();
        assert!(conf[e_uni.index()] > 0.99);
    }

    #[test]
    fn contested_listing_sorted_ascending() {
        let listed = contested_entries(&[0.9, 0.2, 0.5, 0.95], 0.8);
        assert_eq!(listed, vec![(1, 0.2), (2, 0.5)]);
    }

    #[test]
    fn zero_weights_yield_zero_confidence() {
        let tab = table();
        let res = CrhBuilder::new().build().unwrap().run(&tab).unwrap();
        let conf = confidences_for(&tab, &res.truths, &[0.0; 4]).unwrap();
        assert!(conf.iter().all(|&c| c == 0.0));
    }
}
