//! Weighted median (Eq 16), the minimizer of weighted absolute deviation.

/// Compute the weighted median of `(value, weight)` pairs per the paper's
/// definition (Eq 16, after \[28, Ch. 9\]): the value `v_j` such that
///
/// ```text
/// Σ_{k: v_k < v_j} w_k  <  W/2    and    Σ_{k: v_k > v_j} w_k  <=  W/2
/// ```
///
/// where `W` is the total weight. Implemented by sorting `pairs` in place
/// (stable, by [`f64::total_cmp`]) and running [`weighted_median_scan`] —
/// `O(n log n)`, no allocation; the conventional median is the special
/// case of equal weights. `W` is summed in the caller's order before the
/// sort, so callers that pass observations in source order get the row
/// solver's exact float program.
///
/// Non-positive total weight falls back to equal weights so the result is
/// always defined for non-empty input.
///
/// # Panics
/// Panics if `pairs` is empty.
pub fn weighted_median(pairs: &mut [(f64, f64)]) -> f64 {
    assert!(!pairs.is_empty(), "weighted_median of empty set");
    let total = pairs.iter().fold(0.0, |t, p| t + p.1);
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    weighted_median_scan(pairs.len(), total, |i| pairs[i]).unwrap_or(f64::NAN)
}

/// The cumulative scan of Eq 16 over `len` pairs read through `at` in
/// ascending [`f64::total_cmp`] value order, ties in ascending source
/// order — the one float program behind both [`weighted_median`] and the
/// columnar kernel, which reads its rows through an order presorted once
/// per table.
///
/// `source_total` is `W = Σ w` folded in source order from `0.0`. If it
/// is not positive every pair weighs `1.0` instead. Runs of equal values
/// (`==`, so `-0.0` and `+0.0` merge) are weighed together; the first run
/// whose strict lower and upper weights satisfy Eq 16 wins and its first
/// value is returned. If rounding lets every run fail, the largest value
/// is returned. `None` only for `len == 0`.
pub fn weighted_median_scan(
    len: usize,
    source_total: f64,
    at: impl Fn(usize) -> (f64, f64),
) -> Option<f64> {
    let unit = source_total <= 0.0;
    let total = if unit { len as f64 } else { source_total };
    let weight = |i: usize| if unit { 1.0 } else { at(i).1 };
    let half = total / 2.0;
    let mut below = 0.0; // Σ w_k over v_k strictly before the candidate run
    let mut i = 0;
    while i < len {
        // merge the run of equal values; always consume its first pair, so
        // a NaN value (unequal to itself) cannot stall the scan
        let v = at(i).0;
        let mut run_w = 0.0;
        let mut j = i;
        loop {
            run_w += weight(j);
            j += 1;
            if j >= len || at(j).0 != v {
                break;
            }
        }
        let above = total - below - run_w;
        if below < half && above <= half {
            return Some(v);
        }
        below += run_w;
        i = j;
    }
    // Numerical slack can skip the condition; return the largest value.
    len.checked_sub(1).map(|last| at(last).0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_is_conventional_median() {
        let mut pairs: Vec<(f64, f64)> = [1.0, 2.0, 3.0, 4.0, 5.0]
            .iter()
            .map(|&v| (v, 1.0))
            .collect();
        assert_eq!(weighted_median(&mut pairs), 3.0);
    }

    #[test]
    fn heavy_weight_drags_median() {
        let mut pairs = vec![(1.0, 1.0), (2.0, 1.0), (10.0, 5.0)];
        assert_eq!(weighted_median(&mut pairs), 10.0);
    }

    #[test]
    fn single_element() {
        assert_eq!(weighted_median(&mut [(7.5, 0.3)]), 7.5);
    }

    #[test]
    fn definition_holds() {
        // check Eq 16's two inequalities on a random-ish fixed set
        let mut pairs = vec![(3.0, 0.7), (1.0, 0.2), (4.0, 0.4), (2.0, 0.9), (5.0, 0.1)];
        let m = weighted_median(&mut pairs);
        let total: f64 = pairs.iter().map(|(_, w)| w).sum();
        let below: f64 = pairs.iter().filter(|(v, _)| *v < m).map(|(_, w)| w).sum();
        let above: f64 = pairs.iter().filter(|(v, _)| *v > m).map(|(_, w)| w).sum();
        assert!(below < total / 2.0);
        assert!(above <= total / 2.0);
    }

    #[test]
    fn duplicate_values_merge() {
        let mut pairs = vec![(2.0, 1.0), (2.0, 1.0), (1.0, 1.5)];
        assert_eq!(weighted_median(&mut pairs), 2.0);
    }

    #[test]
    fn zero_total_weight_falls_back_to_unweighted() {
        let mut pairs = vec![(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)];
        assert_eq!(weighted_median(&mut pairs), 2.0);
    }

    #[test]
    fn nan_run_is_consumed_not_rescanned() {
        // NaN != NaN, so a run that only merged equal values would never
        // advance past it; `from_claims` does not reject NaN claims
        let mut pairs = vec![(f64::NAN, 1.0), (f64::NAN, 1.0), (1.0, 0.1)];
        assert!(weighted_median(&mut pairs).is_nan());
    }

    #[test]
    fn robust_to_outlier() {
        // median ignores the wild value even with mild weight differences —
        // the robustness argument of §2.4.2.
        let mut pairs = vec![(70.0, 1.0), (71.0, 1.0), (72.0, 1.0), (1000.0, 1.2)];
        let m = weighted_median(&mut pairs);
        assert!(m <= 72.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        weighted_median(&mut []);
    }

    #[test]
    fn even_count_returns_lower_half_boundary_consistently() {
        // With equal weights on {1,2,3,4}: below(2)=1 < 2, above(2)=2 <= 2 -> 2.
        let mut pairs: Vec<(f64, f64)> = [1.0, 2.0, 3.0, 4.0].iter().map(|&v| (v, 1.0)).collect();
        assert_eq!(weighted_median(&mut pairs), 2.0);
    }
}
