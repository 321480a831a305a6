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
/// whose cumulative weight, in sorted order, reaches `W/2` wins and its
/// first value is returned. That run satisfies Eq 16 in exact arithmetic,
/// and at any weight scale rounding only moves the choice where Eq 15 is
/// flat up to rounding, so the result minimises Eq 15. Only NaN weights
/// reach the fallback of the largest value. `None` only for `len == 0`.
pub fn weighted_median_scan(
    len: usize,
    source_total: f64,
    at: impl Fn(usize) -> (f64, f64),
) -> Option<f64> {
    let unit = source_total <= 0.0;
    let total = if unit { len as f64 } else { source_total };
    let weight = |i: usize| if unit { 1.0 } else { at(i).1 };
    let half = total / 2.0;
    let mut reached = 0.0; // Σ w_k over the runs scanned so far
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
        reached += run_w;
        if reached >= half {
            return Some(v);
        }
        i = j;
    }
    // Only NaN weights fail every run; return the largest value.
    len.checked_sub(1).map(|last| at(last).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

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

    /// The scan this module used before: a run wins when its strict lower
    /// weight is below `W/2` and `W − below − run` is at most `W/2`. On an
    /// exact half-mass tie rounding can fail that test for every run, and
    /// the scan then returns the largest value. Kept as the planted
    /// fixture the brute-force check must reject.
    fn old_scan(len: usize, source_total: f64, at: impl Fn(usize) -> (f64, f64)) -> Option<f64> {
        let half = source_total / 2.0;
        let mut below = 0.0;
        let mut i = 0;
        while i < len {
            let v = at(i).0;
            let mut run_w = 0.0;
            let mut j = i;
            while j < len && (j == i || at(j).0 == v) {
                run_w += at(j).1;
                j += 1;
            }
            if below < half && source_total - below - run_w <= half {
                return Some(v);
            }
            below += run_w;
            i = j;
        }
        len.checked_sub(1).map(|last| at(last).0)
    }

    /// `Σ w |v − t|`, Eq 15's objective for one entry without the std.
    fn eq15(pairs: &[(f64, f64)], t: f64) -> f64 {
        pairs.iter().map(|&(v, w)| w * (v - t).abs()).sum()
    }

    /// Seeded rows for K in 2..=64 at uniform weight `1/K`: every claim
    /// count up to K, drawn from a few halves (ties), signed zeros, or
    /// distinct values.
    fn uniform_rows() -> Vec<Vec<(f64, f64)>> {
        let mut rng = crate::rng::Pcg64::seed_from_u64(16);
        let mut rows = Vec::new();
        for k in 2..=64u32 {
            let w = 1.0 / f64::from(k);
            for n in 1..=k {
                let kind = rng.random_range(0..3u32);
                let row = (0..n)
                    .map(|i| {
                        let v = match kind {
                            0 => f64::from(rng.random_range(0..6u32)) / 2.0,
                            1 => [-0.0, 0.0, 0.5][rng.random_range(0..3usize)],
                            _ => f64::from(i) + rng.random::<f64>() * 0.5,
                        };
                        (v, w)
                    })
                    .collect();
                rows.push(row);
            }
        }
        rows
    }

    /// The first row on which `scan` returns a value whose Eq 15
    /// objective exceeds the best claim's by more than a relative 1e-12.
    fn first_non_minimiser(
        scan: impl Fn(usize, f64, &dyn Fn(usize) -> (f64, f64)) -> Option<f64>,
    ) -> Option<(Vec<(f64, f64)>, f64)> {
        uniform_rows().into_iter().find_map(|mut row| {
            let total = row.iter().fold(0.0, |t, p| t + p.1);
            row.sort_by(|a, b| a.0.total_cmp(&b.0));
            let got = scan(row.len(), total, &|i| row[i]).unwrap_or(f64::NAN);
            let best = row
                .iter()
                .map(|p| eq15(&row, p.0))
                .fold(f64::INFINITY, f64::min);
            (eq15(&row, got) - best > 1e-12 * best).then_some((row, got))
        })
    }

    #[test]
    fn scan_returns_a_minimiser_of_eq_15_at_any_weight_scale() {
        let bad = first_non_minimiser(|n, t, at| weighted_median_scan(n, t, at));
        assert_eq!(bad, None);
        // the planted fixture: the former scan fails the same check
        assert!(first_non_minimiser(|n, t, at| old_scan(n, t, at)).is_some());
    }

    #[test]
    fn half_mass_tie_at_fractional_weights_picks_the_lower_median() {
        for w in [1.0 / 3.0, 0.2, 1.0 / 6.0, 0.1, 1.0] {
            let mut pairs = [(0.5, w), (1.5, w), (2.0, w), (3.5, w)];
            assert_eq!(weighted_median(&mut pairs), 1.5, "weight {w}");
        }
    }

    #[test]
    fn even_count_returns_lower_half_boundary_consistently() {
        // With equal weights on {1,2,3,4}: below(2)=1 < 2, above(2)=2 <= 2 -> 2.
        let mut pairs: Vec<(f64, f64)> = [1.0, 2.0, 3.0, 4.0].iter().map(|&v| (v, 1.0)).collect();
        assert_eq!(weighted_median(&mut pairs), 2.0);
    }
}
