//! Vectorization-friendly loss kernels over columnar claim storage.
//!
//! A per-entry loop over the row table spends most of its time chasing
//! `Value` enums and virtual [`Loss`](crate::loss::Loss) calls per
//! observation. For the paper's three workhorse losses the same arithmetic
//! runs as flat sweeps over the dense columns built by
//! [`columnar`](crate::columnar):
//!
//! * **weighted vote** (Eq 9) over dense `u32` ids — `fit_vote`,
//! * **weighted mean** (Eq 14) / **weighted median** (Eq 16) over
//!   contiguous `f64` columns — `fit_mean` / `fit_median_presorted`,
//! * **deviation accumulation** (Eqs 8/13/15) as branch-free column
//!   sweeps — `dev_sweep_zero_one`, `dev_sweep_squared`,
//!   `dev_sweep_absolute`, `dev_sweep_unit`.
//!
//! ## Bit-identity contract
//!
//! Every kernel here reproduces its row-path counterpart — the `Loss`
//! impl's `fit` or `loss` over the entry's `(SourceId, Value)` slice — **to
//! the bit**, at every thread count. The determinism suite pins golden
//! digests recorded from the former row layout, and `tests/fixed_point.rs`
//! checks every returned truth against `Loss::fit`. Two rules make that
//! work:
//!
//! 1. **Fits replay the row path's fold order.** Observations inside an
//!    entry are stored in ascending source order, and the fit kernels
//!    iterate the validity bitmap's set bits in that same ascending order,
//!    so every intermediate sum associates identically. Masked arithmetic
//!    is *not* used for fits: `0.0 * x` can yield `-0.0` and flip the sign
//!    of an accumulator that the row path never touched.
//! 2. **Deviation sweeps may be branch-free** because every loss term is
//!    `>= +0.0` and the accumulators start at `+0.0`, so adding a literal
//!    `0.0` for an invalid slot is the exact identity the row path gets by
//!    not adding at all. The select `if valid { term } else { 0.0 }` has no
//!    side effects and compiles to a masked blend over the column.
//!
//! Cross-chunk reduction uses `pairwise_accumulate`: a fixed pairwise
//! tree over the chunk index, a pure function of the chunk count (which is
//! itself a pure function of the entry count — see [`Pool`]), so the merged
//! deviation matrix is bit-identical for every thread count.
//!
//! [`Pool`]: crate::par::Pool

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use crate::loss::weighted_median_scan;

/// Which columnar fast path (if any) reproduces a loss exactly.
///
/// A loss advertises a non-[`Generic`](KernelClass::Generic) class **only
/// if** its `fit` and `loss` semantics match the corresponding built-in
/// formula bit-for-bit — the kernels replace the virtual calls outright.
/// Anything else (distribution losses, text medoids, ensembles, custom
/// user losses) runs the per-entry `Loss` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelClass {
    /// No fast path: per-entry `Loss::fit` / `Loss::loss` calls.
    #[default]
    Generic,
    /// Weighted plurality vote over dense ids + 0-1 deviation sweep
    /// ([`ZeroOneLoss`](crate::loss::ZeroOneLoss) on categorical data).
    Vote,
    /// Weighted mean + normalized squared deviation sweep
    /// ([`SquaredLoss`](crate::loss::SquaredLoss) on continuous data).
    Mean,
    /// Weighted median + normalized absolute deviation sweep
    /// ([`AbsoluteLoss`](crate::loss::AbsoluteLoss) on continuous data).
    Median,
}

/// Reusable per-chunk fit scratch: the vote tally (indexed by dense id,
/// epoch-stamped so it clears in O(candidates) per entry). Sized lazily on
/// first use; the steady-state iteration loop performs no allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct FitScratch {
    /// `tally[code]` = accumulated vote weight for the current entry.
    tally: Vec<f64>,
    /// Codes observed in the current entry, in first-appearance order —
    /// the vote fold visits candidates exactly as the row path does.
    touched: Vec<u32>,
    /// `seen[code] == stamp` marks `tally[code]` as live for this entry.
    seen: Vec<u32>,
    /// Current epoch stamp.
    stamp: u32,
}

impl FitScratch {
    /// Grow the tally to `domain` codes and open a fresh epoch.
    fn begin_entry(&mut self, domain: usize) {
        if self.tally.len() < domain {
            self.tally.resize(domain, 0.0);
            self.seen.resize(domain, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // wrapped: old stamps could alias the new epoch — reset once
            for s in &mut self.seen {
                *s = 0;
            }
            self.stamp = 1;
        }
        self.touched.clear();
    }
}

/// Visit the set bits of `valid` in ascending order — ascending source id,
/// the exact iteration order of a row-path observation slice.
#[inline]
pub(crate) fn for_each_valid(valid: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in valid.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f((wi << 6) + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

#[inline]
fn is_set(valid: &[u64], k: usize) -> bool {
    (valid[k >> 6] >> (k & 63)) & 1 != 0
}

/// Weighted mean over one entry's column row (Eq 14), replaying
/// [`SquaredLoss::fit`](crate::loss::SquaredLoss)'s fold order exactly:
/// the weight sum, the `<= 0` fallback to the unweighted mean, and the
/// weighted accumulation all associate in ascending source order.
pub(crate) fn fit_mean(values: &[f64], valid: &[u64], weights: &[f64]) -> f64 {
    let mut wsum = 0.0;
    for_each_valid(valid, |k| wsum += weights[k]);
    if wsum <= 0.0 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for_each_valid(valid, |k| {
            sum += values[k];
            count += 1;
        });
        return sum / count.max(1) as f64;
    }
    let mut acc = 0.0;
    for_each_valid(valid, |k| acc += weights[k] * values[k]);
    acc / wsum
}

/// Weighted median over one entry's column row (Eq 16) without a gather
/// or a sort: `order` lists the row's valid slots by value, ties in
/// ascending source id — the order [`weighted_median`]'s stable sort
/// gives the row path's source-ordered observations, built once per table
/// by the plan. The total weight folds in ascending source order as the
/// row path's does, then the shared [`weighted_median_scan`] runs over
/// `order`. Returns `None` only for an all-invalid row.
///
/// [`weighted_median`]: crate::loss::weighted_median
pub(crate) fn fit_median_presorted(
    values: &[f64],
    valid: &[u64],
    order: &[u32],
    weights: &[f64],
) -> Option<f64> {
    let mut total = 0.0;
    for_each_valid(valid, |k| total += weights[k]);
    weighted_median_scan(order.len(), total, |i| {
        let k = order[i] as usize;
        (values[k], weights[k])
    })
}

/// Weighted plurality vote over one entry's dense ids (Eq 9), replicating
/// [`ZeroOneLoss::fit`](crate::loss::ZeroOneLoss): per-code weights
/// accumulate in ascending source order, candidates are folded in
/// first-appearance order, and ties break `w > bw || (w == bw && c < bc)` —
/// toward the smaller id. Returns `None` only for an all-invalid row,
/// which a well-formed table never produces.
pub(crate) fn fit_vote(
    codes: &[u32],
    valid: &[u64],
    weights: &[f64],
    scratch: &mut FitScratch,
    domain: usize,
) -> Option<u32> {
    scratch.begin_entry(domain);
    let stamp = scratch.stamp;
    for_each_valid(valid, |k| {
        let c = codes[k] as usize;
        if scratch.seen[c] != stamp {
            scratch.seen[c] = stamp;
            scratch.tally[c] = 0.0;
            scratch.touched.push(codes[k]);
        }
        scratch.tally[c] += weights[k];
    });
    let mut best: Option<(u32, f64)> = None;
    for &c in &scratch.touched {
        let w = scratch.tally[c as usize];
        best = match best {
            None => Some((c, w)),
            Some((bc, bw)) => {
                if w > bw || (w == bw && c < bc) {
                    Some((c, w))
                } else {
                    Some((bc, bw))
                }
            }
        };
    }
    best.map(|(c, _)| c)
}

/// Branch-free 0-1 deviation sweep (Eq 8): for every valid slot add
/// `scale * [code != truth]` to the per-source row. Term grouping matches
/// the row path's `scale * loss` exactly; invalid slots add a literal
/// `0.0`, the accumulation identity (all cells stay `>= +0.0`).
pub(crate) fn dev_sweep_zero_one(
    codes: &[u32],
    valid: &[u64],
    truth_code: u32,
    scale: f64,
    row: &mut [f64],
) {
    for (k, (&c, r)) in codes.iter().zip(row.iter_mut()).enumerate() {
        let l = if c == truth_code { 0.0 } else { 1.0 };
        let term = scale * l;
        *r += if is_set(valid, k) { term } else { 0.0 };
    }
}

/// Branch-free normalized squared deviation sweep (Eq 13):
/// `scale * ((t − v)² / std)` per valid slot, grouped exactly as the row
/// path computes `scale * SquaredLoss::loss(..)`.
pub(crate) fn dev_sweep_squared(
    values: &[f64],
    valid: &[u64],
    truth: f64,
    std: f64,
    scale: f64,
    row: &mut [f64],
) {
    for (k, (&v, r)) in values.iter().zip(row.iter_mut()).enumerate() {
        let d = truth - v;
        let term = scale * (d * d / std);
        *r += if is_set(valid, k) { term } else { 0.0 };
    }
}

/// Branch-free normalized absolute deviation sweep (Eq 15):
/// `scale * (|t − v| / std)` per valid slot, grouped exactly as the row
/// path computes `scale * AbsoluteLoss::loss(..)`.
pub(crate) fn dev_sweep_absolute(
    values: &[f64],
    valid: &[u64],
    truth: f64,
    std: f64,
    scale: f64,
    row: &mut [f64],
) {
    for (k, (&v, r)) in values.iter().zip(row.iter_mut()).enumerate() {
        let term = scale * ((truth - v).abs() / std);
        *r += if is_set(valid, k) { term } else { 0.0 };
    }
}

/// Unit-penalty sweep: `scale * 1.0` per valid slot. This is the row
/// path's type-confusion branch (a truth whose type cannot be priced
/// against the column — e.g. a categorical point over an `f64` column)
/// which charges the maximal unit deviation for every observation.
pub(crate) fn dev_sweep_unit(valid: &[u64], scale: f64, row: &mut [f64]) {
    for (k, r) in row.iter_mut().enumerate() {
        *r += if is_set(valid, k) { scale } else { 0.0 };
    }
}

/// Fold per-chunk partial buffers (laid out `partials[c * cell ..][..cell]`)
/// with a **fixed pairwise tree over the chunk index**:
/// `((p0 + p1) + (p2 + p3)) + …`. The tree shape depends only on the chunk
/// count — itself a pure function of the entry count, never of the thread
/// count — so the reduction is bit-identical for every thread count *and*
/// shared by the row and columnar paths. The result lands in
/// `partials[..cell]`; the inner elementwise adds are contiguous and
/// auto-vectorize.
pub(crate) fn pairwise_accumulate(partials: &mut [f64], cell: usize) {
    if cell == 0 {
        return;
    }
    let chunks = partials.len() / cell;
    let mut gap = 1usize;
    while gap < chunks {
        let mut c = 0usize;
        while c + gap < chunks {
            let (head, tail) = partials.split_at_mut((c + gap) * cell);
            let dst = &mut head[c * cell..c * cell + cell];
            let src = &tail[..cell];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
            c += 2 * gap;
        }
        gap *= 2;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::columnar::{ColumnarPlan, PropertyColumn};
    use crate::ids::{ObjectId, SourceId};
    use crate::loss::{weighted_median, AbsoluteLoss, Loss, SquaredLoss, ZeroOneLoss};
    use crate::rng::{Pcg64, Rng};
    use crate::schema::Schema;
    use crate::stats::EntryStats;
    use crate::table::{Claim, ObservationTable};
    use crate::value::Value;

    fn words(mask: &[bool]) -> Vec<u64> {
        let mut w = vec![0u64; mask.len().div_ceil(64).max(1)];
        for (k, &on) in mask.iter().enumerate() {
            if on {
                w[k >> 6] |= 1 << (k & 63);
            }
        }
        w
    }

    #[test]
    fn mean_matches_squared_loss_fit_bitwise() {
        let values = [1.5, 0.0, -3.25, 7.0, 2.5];
        let mask = [true, false, true, true, true];
        let weights = [0.3, 9.0, 1.7, 0.0, 2.2];
        let obs: Vec<(SourceId, Value)> = mask
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(k, _)| (SourceId(k as u32), Value::Num(values[k])))
            .collect();
        let row = SquaredLoss
            .fit(&obs, &weights, &EntryStats::trivial())
            .as_num()
            .unwrap();
        let col = fit_mean(&values, &words(&mask), &weights);
        assert_eq!(row.to_bits(), col.to_bits());

        // zero-weight fallback path
        let zw = [0.0; 5];
        let row = SquaredLoss
            .fit(&obs, &zw, &EntryStats::trivial())
            .as_num()
            .unwrap();
        let col = fit_mean(&values, &words(&mask), &zw);
        assert_eq!(row.to_bits(), col.to_bits());
    }

    /// Presort one row the way the solver's plan does (a one-entry table,
    /// `AbsoluteLoss`, `ColumnarPlan::new`) and run the presorted kernel
    /// over it; `None` slots are missing claims.
    fn presorted_median(values: &[Option<f64>], weights: &[f64]) -> f64 {
        let mut schema = Schema::new();
        let temp = schema.add_continuous("temp");
        let claims: Vec<Claim> = values
            .iter()
            .enumerate()
            .filter_map(|(s, v)| {
                v.map(|x| Claim {
                    object: ObjectId(0),
                    property: temp,
                    source: SourceId(s as u32),
                    value: Value::Num(x),
                })
            })
            .collect();
        let table = ObservationTable::from_claims(schema, claims).unwrap();
        let losses: Vec<Arc<dyn Loss>> = vec![Arc::new(AbsoluteLoss)];
        let plan = ColumnarPlan::new(&table, &losses).unwrap().0;
        assert_eq!(plan.class[0], KernelClass::Median);
        let PropertyColumn::Num(col) = plan.table.column(0) else {
            panic!("continuous property must be a Num column");
        };
        let k = table.num_sources();
        fit_median_presorted(
            col.values_row(0, k),
            col.valid_row(0),
            col.order_row(0, k),
            weights,
        )
        .unwrap()
    }

    /// The presorted kernel must equal both the sort-based
    /// `weighted_median` over source-ordered pairs and the row path's
    /// `AbsoluteLoss::fit`, to the bit.
    fn assert_presorted_matches(values: &[Option<f64>], weights: &[f64], case: &str) {
        let mut pairs: Vec<(f64, f64)> = values
            .iter()
            .zip(weights)
            .filter_map(|(v, &w)| v.map(|x| (x, w)))
            .collect();
        let sorted = weighted_median(&mut pairs);
        let obs: Vec<(SourceId, Value)> = values
            .iter()
            .enumerate()
            .filter_map(|(s, v)| v.map(|x| (SourceId(s as u32), Value::Num(x))))
            .collect();
        let row = AbsoluteLoss
            .fit(&obs, weights, &EntryStats::trivial())
            .as_num()
            .unwrap();
        let col = presorted_median(values, weights);
        assert_eq!(sorted.to_bits(), row.to_bits(), "{case}: sort vs row");
        assert_eq!(col.to_bits(), sorted.to_bits(), "{case}: presorted vs sort");
    }

    #[test]
    fn median_matches_absolute_loss_fit_bitwise() {
        let values = [Some(10.0), Some(20.0), None, Some(5.0)];
        assert_presorted_matches(&values, &[0.1, 10.0, 1.0, 0.1], "basic");
        assert_eq!(
            fit_median_presorted(&[0.0; 4], &words(&[false; 4]), &[], &[1.0; 4]),
            None
        );
    }

    #[test]
    fn presorted_median_matches_sort_on_adversarial_rows() {
        let some = |vs: &[f64]| -> Vec<Option<f64>> { vs.iter().copied().map(Some).collect() };
        assert_presorted_matches(
            &some(&[3.0, 1.0, 3.0, 2.0, 1.0, 3.0]),
            &[0.5, 0.25, 0.125, 2.0, 0.3, 0.7],
            "tied values",
        );
        let zeros = some(&[0.0, -0.0, 1.0, -0.0, 0.0]);
        assert_presorted_matches(&zeros, &[1.0, 1.0, 1.5, 0.5, 0.2], "signed zeros");
        assert_presorted_matches(&zeros, &[1.0; 5], "signed zeros, unit");
        assert_eq!(
            presorted_median(&zeros, &[1.0; 5]).to_bits(),
            (-0.0f64).to_bits(),
            "the merged zero run starts at -0.0"
        );
        assert_presorted_matches(
            &some(&[5.0, 1.0, 4.0, 1.0, 3.0]),
            &[0.0; 5],
            "all-zero weights",
        );
        assert_presorted_matches(
            &[None, None, Some(7.25), None],
            &[0.3, 0.0, 0.0, 2.0],
            "single valid slot",
        );

        // K = 70 spans two bitmap words. Run weights that depend on their
        // summation order make a tie order other than ascending source id
        // change the answer: with the heavy 1.0 first the tiny weights
        // round away and the median is 2.0; three or more tiny weights
        // ahead of it lift run 1.0 past half and the median becomes 1.0.
        let heavy = 1.0 + 2.0 * f64::EPSILON;
        let tiny = f64::EPSILON / 4.0;
        let mut values = vec![Some(2.0), Some(1.0)];
        let mut weights = vec![heavy, 1.0];
        for s in 2..70 {
            values.push(Some(if s % 2 == 0 { 2.0 } else { 1.0 }));
            weights.push(if s % 2 == 0 { 0.0 } else { tiny });
        }
        assert_presorted_matches(&values, &weights, "K=70 order-sensitive ties");
        assert_eq!(presorted_median(&values, &weights), 2.0);

        let mut rng = Pcg64::seed_from_u64(0x3ED1A7);
        for case in 0..64 {
            let values: Vec<Option<f64>> = (0..70)
                .map(|_| {
                    let v = match rng.next_u64() % 6 {
                        5 => -0.0,
                        r => r as f64 - 2.0,
                    };
                    (!rng.next_u64().is_multiple_of(8)).then_some(v)
                })
                .collect();
            let weights: Vec<f64> = (0..70)
                .map(|_| match rng.next_u64() % 4 {
                    0 => 0.0,
                    1 => tiny * (rng.next_u64() % 8) as f64,
                    _ => 1.0 + (rng.next_u64() % 1000) as f64 * f64::EPSILON,
                })
                .collect();
            assert_presorted_matches(&values, &weights, &format!("seeded K=70 #{case}"));
        }
    }

    #[test]
    fn vote_matches_zero_one_fit_including_ties() {
        // codes per source; code 2 and code 0 tie at weight 2.0 — the row
        // path breaks toward the smaller id.
        let codes = [2u32, 0, 2, 0, 1];
        let mask = [true, true, true, true, false];
        let weights = [1.0, 1.0, 1.0, 1.0, 50.0];
        let obs: Vec<(SourceId, Value)> = mask
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(k, _)| (SourceId(k as u32), Value::Cat(codes[k])))
            .collect();
        let row = ZeroOneLoss
            .fit(&obs, &weights, &EntryStats::trivial())
            .point();
        let mut scratch = FitScratch::default();
        let col = fit_vote(&codes, &words(&mask), &weights, &mut scratch, 3).unwrap();
        assert_eq!(row, Value::Cat(col));
        assert_eq!(col, 0, "tie must break toward the smaller id");

        // reuse the scratch across entries: a heavier later code wins
        let codes2 = [1u32, 1, 2, 0, 0];
        let w2 = [1.0, 1.0, 5.0, 1.0, 1.0];
        let col2 = fit_vote(&codes2, &words(&[true; 5]), &w2, &mut scratch, 3).unwrap();
        assert_eq!(col2, 2);
        assert_eq!(
            fit_vote(&codes, &words(&[false; 5]), &weights, &mut scratch, 3),
            None
        );
    }

    #[test]
    fn dev_sweeps_match_row_loss_terms_bitwise() {
        let stats = EntryStats {
            std: 3.7,
            ..EntryStats::trivial()
        };
        let values = [1.0, 2.5, -4.0, 8.0];
        let mask = [true, false, true, true];
        let valid = words(&mask);
        let truth = 1.75f64;
        let scale = 2.5f64;

        let mut row_sq = [0.0f64; 4];
        let mut row_abs = [0.0f64; 4];
        let t = crate::value::Truth::Point(Value::Num(truth));
        for (k, &v) in values.iter().enumerate() {
            if mask[k] {
                row_sq[k] += scale * SquaredLoss.loss(&t, &Value::Num(v), &stats);
                row_abs[k] += scale * AbsoluteLoss.loss(&t, &Value::Num(v), &stats);
            }
        }
        let mut col_sq = vec![0.0f64; 4];
        let mut col_abs = vec![0.0f64; 4];
        dev_sweep_squared(&values, &valid, truth, stats.std, scale, &mut col_sq);
        dev_sweep_absolute(&values, &valid, truth, stats.std, scale, &mut col_abs);
        for k in 0..4 {
            assert_eq!(row_sq[k].to_bits(), col_sq[k].to_bits(), "squared k={k}");
            assert_eq!(row_abs[k].to_bits(), col_abs[k].to_bits(), "absolute k={k}");
        }

        let codes = [3u32, 1, 3, 0];
        let mut zo = vec![0.0f64; 4];
        dev_sweep_zero_one(&codes, &valid, 3, scale, &mut zo);
        assert_eq!(zo, vec![0.0, 0.0, 0.0, scale]);

        let mut unit = vec![0.0f64; 4];
        dev_sweep_unit(&valid, scale, &mut unit);
        assert_eq!(unit, vec![scale, 0.0, scale, scale]);
    }

    #[test]
    fn pairwise_tree_is_a_fixed_function_of_chunk_count() {
        // 5 chunks of 3 cells: expect ((p0+p1)+(p2+p3))+p4 exactly.
        let cell = 3;
        let mut parts: Vec<f64> = (0..15).map(|i| (i as f64) * 0.1 + 1.0).collect();
        let expect: Vec<f64> = (0..cell)
            .map(|i| {
                let p = |c: usize| (c * cell + i) as f64 * 0.1 + 1.0;
                ((p(0) + p(1)) + (p(2) + p(3))) + p(4)
            })
            .collect();
        pairwise_accumulate(&mut parts, cell);
        for i in 0..cell {
            assert_eq!(parts[i].to_bits(), expect[i].to_bits(), "cell {i}");
        }
        // degenerate shapes are no-ops
        pairwise_accumulate(&mut [], 3);
        pairwise_accumulate(&mut [1.0, 2.0], 0);
        let mut one = vec![4.0, 5.0];
        pairwise_accumulate(&mut one, 2);
        assert_eq!(one, vec![4.0, 5.0]);
    }

    #[test]
    fn vote_epoch_stamp_survives_wraparound() {
        let mut s = FitScratch {
            stamp: u32::MAX,
            ..FitScratch::default()
        };
        let codes = [1u32, 1];
        let c = fit_vote(&codes, &words(&[true, true]), &[1.0, 1.0], &mut s, 2).unwrap();
        assert_eq!(c, 1);
        assert_eq!(s.stamp, 1, "wrapped epoch must reset to a live stamp");
    }
}
