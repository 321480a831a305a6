//! Per-entry statistics shared by loss functions.
//!
//! Eqs (13) and (15) normalize continuous deviations by the standard
//! deviation of the entry's observations across sources,
//! `std(v_im^(1), …, v_im^(K))`. These are fixed properties of the *input*
//! (they never change across solver iterations), so they are computed once
//! up front.

use crate::table::ObservationTable;
use crate::value::Value;

/// Floor applied to per-entry standard deviations so an entry on which all
/// sources agree (std = 0) does not blow up the normalized losses.
pub const STD_FLOOR: f64 = 1e-9;

/// Precomputed statistics for one entry.
#[derive(Debug, Clone, Copy)]
pub struct EntryStats {
    /// Population standard deviation of the entry's continuous observations
    /// (meaningless but harmless for categorical entries), floored at
    /// [`STD_FLOOR`].
    pub std: f64,
    /// Mean of the entry's continuous observations.
    pub mean: f64,
    /// Number of observations on this entry.
    pub count: usize,
    /// Size of the property's categorical domain `L_m` (0 for non-categorical).
    pub domain_size: usize,
}

impl EntryStats {
    /// Stats for a synthetic entry with no useful structure; used by tests
    /// and by callers that evaluate a loss outside a table context.
    pub fn trivial() -> Self {
        Self {
            std: 1.0,
            mean: 0.0,
            count: 0,
            domain_size: 0,
        }
    }
}

/// Compute mean and population std of a slice of numbers.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// The [`EntryStats`] of an entry with `count` observations whose
/// continuous values, in source order, are `nums`; the out-of-core driver
/// and the solver's columnar build share it.
pub fn entry_stats(nums: &[f64], count: usize, domain_size: usize) -> EntryStats {
    let (mean, std) = mean_std(nums);
    EntryStats {
        std: std.max(STD_FLOOR),
        mean,
        count,
        domain_size,
    }
}

/// Compute [`EntryStats`] for every entry of `table`, in entry order. The
/// solver gets the same stats from the columnar build walk
/// ([`PreparedProblem::stats`](crate::solver::PreparedProblem::stats)).
pub fn compute_entry_stats(table: &ObservationTable) -> Vec<EntryStats> {
    let mut out = Vec::with_capacity(table.num_entries());
    let mut nums: Vec<f64> = Vec::new();
    for (_, entry, obs) in table.iter_entries() {
        nums.clear();
        for (_, v) in obs {
            if let Value::Num(x) = v {
                nums.push(*x);
            }
        }
        let domain_size = table.schema().domain(entry.property).map_or(0, |d| d.len());
        out.push(entry_stats(&nums, obs.len(), domain_size));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, PropertyId, SourceId};
    use crate::schema::Schema;
    use crate::table::TableBuilder;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        let (m1, s1) = mean_std(&[3.0]);
        assert_eq!((m1, s1), (3.0, 0.0));
    }

    #[test]
    fn entry_stats_floor_and_domain() {
        let mut schema = Schema::new();
        schema.add_continuous("x");
        schema.add_categorical("c");
        let mut b = TableBuilder::new(schema);
        // all sources agree on the continuous entry -> std floored
        b.add(ObjectId(0), PropertyId(0), SourceId(0), Value::Num(5.0))
            .unwrap();
        b.add(ObjectId(0), PropertyId(0), SourceId(1), Value::Num(5.0))
            .unwrap();
        b.add_label(ObjectId(0), PropertyId(1), SourceId(0), "a")
            .unwrap();
        b.add_label(ObjectId(0), PropertyId(1), SourceId(1), "b")
            .unwrap();
        let t = b.build().unwrap();
        let stats = compute_entry_stats(&t);
        assert_eq!(stats.len(), 2);
        let cont = &stats[0];
        assert_eq!(cont.count, 2);
        assert!((cont.mean - 5.0).abs() < 1e-12);
        assert_eq!(cont.std, STD_FLOOR);
        let cat = &stats[1];
        assert_eq!(cat.domain_size, 2);
    }

    #[test]
    fn entry_stats_std() {
        let mut schema = Schema::new();
        schema.add_continuous("x");
        let mut b = TableBuilder::new(schema);
        b.add(ObjectId(0), PropertyId(0), SourceId(0), Value::Num(1.0))
            .unwrap();
        b.add(ObjectId(0), PropertyId(0), SourceId(1), Value::Num(3.0))
            .unwrap();
        let t = b.build().unwrap();
        let stats = compute_entry_stats(&t);
        assert!((stats[0].std - 1.0).abs() < 1e-12);
        assert!((stats[0].mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trivial_stats() {
        let s = EntryStats::trivial();
        assert_eq!(s.std, 1.0);
        assert_eq!(s.count, 0);
    }
}
