//! Edit-distance loss for text data, one of the "other examples" of §2.4.2
//! ("edit distance or KL divergence for text data").

use crate::ids::SourceId;
use crate::stats::EntryStats;
use crate::value::{PropertyType, Truth, Value};

use super::Loss;

/// Levenshtein distance between two strings (unit costs), `O(|a|·|b|)` time,
/// `O(min(|a|,|b|))` space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub = prev[j] + usize::from(lc != sc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Edit-distance loss for text properties.
///
/// The deviation is the Levenshtein distance normalized by the longer
/// string's length (so it falls in `\[0, 1\]`, satisfying the §2.5
/// cross-property normalization requirement by construction). The truth
/// update is the **weighted medoid**: the observed string minimizing the
/// weighted sum of distances to all observations — the discrete analogue of
/// the weighted median, computable exactly because the candidate set is the
/// observation set.
#[derive(Debug, Clone, Copy, Default)]
pub struct EditDistanceLoss;

/// Normalized Levenshtein in `\[0, 1\]`.
fn norm_edit(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / max_len as f64
}

impl Loss for EditDistanceLoss {
    fn name(&self) -> &'static str {
        "edit-distance"
    }

    fn loss(&self, truth: &Truth, obs: &Value, _stats: &EntryStats) -> f64 {
        match (truth.point(), obs) {
            (Value::Text(t), Value::Text(v)) => norm_edit(&t, v),
            _ => 1.0,
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "resolver contract: the solver only calls resolve() with ≥1 observation, so the fold always sets `best`"
    )]
    fn fit(&self, obs: &[(SourceId, Value)], weights: &[f64], _stats: &EntryStats) -> Truth {
        debug_assert!(!obs.is_empty(), "fit on empty observation group");
        let texts: Vec<(&str, f64)> = obs
            .iter()
            .filter_map(|(s, v)| v.as_text().map(|t| (t, weights[s.index()])))
            .collect();
        debug_assert!(!texts.is_empty(), "no text observations in text entry");
        let mut best: Option<(&str, f64)> = None;
        for (cand, _) in &texts {
            let total: f64 = texts.iter().map(|(o, w)| w * norm_edit(cand, o)).sum();
            best = match best {
                None => Some((cand, total)),
                Some((bc, bt)) => {
                    if total < bt || (total == bt && *cand < bc) {
                        Some((cand, total))
                    } else {
                        Some((bc, bt))
                    }
                }
            };
        }
        Truth::Point(Value::Text(best.expect("non-empty").0.to_owned()))
    }

    fn is_convex(&self) -> bool {
        false
    }

    fn property_type(&self) -> PropertyType {
        PropertyType::Text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_is_symmetric() {
        assert_eq!(
            levenshtein("gate A2", "gate B12"),
            levenshtein("gate B12", "gate A2")
        );
    }

    #[test]
    fn unicode_counts_chars_not_bytes() {
        assert_eq!(levenshtein("héllo", "hello"), 1);
    }

    #[test]
    fn loss_normalized_to_unit_interval() {
        let l = EditDistanceLoss;
        let t = Truth::Point(Value::Text("abcd".into()));
        let d = l.loss(&t, &Value::Text("abce".into()), &EntryStats::trivial());
        assert!((d - 0.25).abs() < 1e-12);
        assert_eq!(
            l.loss(&t, &Value::Text("abcd".into()), &EntryStats::trivial()),
            0.0
        );
    }

    #[test]
    fn empty_strings_identical() {
        let l = EditDistanceLoss;
        let t = Truth::Point(Value::Text(String::new()));
        assert_eq!(
            l.loss(&t, &Value::Text(String::new()), &EntryStats::trivial()),
            0.0
        );
    }

    #[test]
    fn medoid_picks_central_string() {
        let l = EditDistanceLoss;
        let obs = vec![
            (SourceId(0), Value::Text("terminal 1".into())),
            (SourceId(1), Value::Text("terminal 1".into())),
            (SourceId(2), Value::Text("terminal 9".into())),
        ];
        let w = vec![1.0, 1.0, 1.0];
        assert_eq!(
            l.fit(&obs, &w, &EntryStats::trivial()).point(),
            Value::Text("terminal 1".into())
        );
    }

    #[test]
    fn heavy_weight_flips_medoid() {
        let l = EditDistanceLoss;
        let obs = vec![
            (SourceId(0), Value::Text("aaa".into())),
            (SourceId(1), Value::Text("aaa".into())),
            (SourceId(2), Value::Text("zzz".into())),
        ];
        let w = vec![0.1, 0.1, 10.0];
        assert_eq!(
            l.fit(&obs, &w, &EntryStats::trivial()).point(),
            Value::Text("zzz".into())
        );
    }

    #[test]
    fn tie_breaks_lexicographically() {
        let l = EditDistanceLoss;
        let obs = vec![
            (SourceId(0), Value::Text("b".into())),
            (SourceId(1), Value::Text("a".into())),
        ];
        let w = vec![1.0, 1.0];
        assert_eq!(
            l.fit(&obs, &w, &EntryStats::trivial()).point(),
            Value::Text("a".into())
        );
    }
}
