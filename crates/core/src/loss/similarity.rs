//! Similarity-to-loss conversion (§2.4.2: "We can also convert a similarity
//! function into a loss function, which allows the usage of numerous
//! techniques in similarity computation developed in the data integration
//! community").

use crate::ids::SourceId;
use crate::stats::EntryStats;
use crate::value::{PropertyType, Truth, Value};

use super::Loss;

/// Wrap an arbitrary similarity function `sim: (a, b) → \[0, 1\]` into a loss
/// `d(v*, v) = 1 − sim(v*, v)`.
///
/// The truth update is the weighted medoid over the observed values: the
/// observation maximizing total weighted similarity to the others — exact
/// for the single-truth model, and the only generally-available minimizer
/// for a black-box similarity.
pub struct SimilarityLoss<F> {
    sim: F,
    ptype: PropertyType,
}

impl<F> SimilarityLoss<F>
where
    F: Fn(&Value, &Value) -> f64 + Send + Sync,
{
    /// Wrap `sim` for values of type `ptype`. `sim` must return values in
    /// `\[0, 1\]` with `sim(a, a) = 1`; outputs are clamped defensively.
    pub fn new(ptype: PropertyType, sim: F) -> Self {
        Self { sim, ptype }
    }

    fn dissimilarity(&self, a: &Value, b: &Value) -> f64 {
        1.0 - (self.sim)(a, b).clamp(0.0, 1.0)
    }
}

impl<F> std::fmt::Debug for SimilarityLoss<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimilarityLoss")
            .field("ptype", &self.ptype)
            .finish()
    }
}

impl<F> Loss for SimilarityLoss<F>
where
    F: Fn(&Value, &Value) -> f64 + Send + Sync,
{
    fn name(&self) -> &'static str {
        "similarity"
    }

    fn loss(&self, truth: &Truth, obs: &Value, _stats: &EntryStats) -> f64 {
        self.dissimilarity(&truth.point(), obs)
    }

    fn fit(&self, obs: &[(SourceId, Value)], weights: &[f64], _stats: &EntryStats) -> Truth {
        debug_assert!(!obs.is_empty(), "fit on empty observation group");
        let mut best: Option<(usize, f64)> = None;
        for (i, (_, cand)) in obs.iter().enumerate() {
            let total: f64 = obs
                .iter()
                .map(|(s, v)| weights[s.index()] * self.dissimilarity(cand, v))
                .sum();
            match best {
                Some((_, b)) if total >= b => {}
                _ => best = Some((i, total)),
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "resolver contract: resolve() receives ≥1 observation, so the scan always sets `best`"
        )]
        let (i, _) = best.expect("non-empty observations");
        Truth::Point(obs[i].1.clone())
    }

    fn is_convex(&self) -> bool {
        false // unknown for a black-box similarity
    }

    fn property_type(&self) -> PropertyType {
        self.ptype
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Jaccard similarity on whitespace-tokenized text — a typical
    /// data-integration similarity.
    fn jaccard(a: &Value, b: &Value) -> f64 {
        let (Some(a), Some(b)) = (a.as_text(), b.as_text()) else {
            return 0.0;
        };
        let sa: std::collections::HashSet<&str> = a.split_whitespace().collect();
        let sb: std::collections::HashSet<&str> = b.split_whitespace().collect();
        if sa.is_empty() && sb.is_empty() {
            return 1.0;
        }
        let inter = sa.intersection(&sb).count() as f64;
        let union = sa.union(&sb).count() as f64;
        inter / union
    }

    fn obs(texts: &[&str]) -> Vec<(SourceId, Value)> {
        texts
            .iter()
            .enumerate()
            .map(|(k, t)| (SourceId(k as u32), Value::Text(t.to_string())))
            .collect()
    }

    #[test]
    fn loss_is_one_minus_similarity() {
        let l = SimilarityLoss::new(PropertyType::Text, jaccard);
        let stats = EntryStats::trivial();
        let t = Truth::Point(Value::Text("new york city".into()));
        assert!(l.loss(&t, &Value::Text("new york city".into()), &stats) < 1e-12);
        let d = l.loss(&t, &Value::Text("new york".into()), &stats);
        assert!((d - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn fit_picks_most_central_claim() {
        let l = SimilarityLoss::new(PropertyType::Text, jaccard);
        let stats = EntryStats::trivial();
        let group = obs(&[
            "new york city",
            "new york city ny",
            "boston",
            "new york city",
        ]);
        let w = vec![1.0; 4];
        assert_eq!(
            l.fit(&group, &w, &stats).point(),
            Value::Text("new york city".into())
        );
    }

    #[test]
    fn weights_override_plurality() {
        let l = SimilarityLoss::new(PropertyType::Text, jaccard);
        let stats = EntryStats::trivial();
        let group = obs(&["alpha", "alpha", "omega"]);
        let w = vec![0.1, 0.1, 10.0];
        assert_eq!(
            l.fit(&group, &w, &stats).point(),
            Value::Text("omega".into())
        );
    }

    #[test]
    fn out_of_range_similarity_clamped() {
        let l = SimilarityLoss::new(PropertyType::Continuous, |_: &Value, _: &Value| 7.0);
        let stats = EntryStats::trivial();
        let t = Truth::Point(Value::Num(0.0));
        assert_eq!(l.loss(&t, &Value::Num(1.0), &stats), 0.0);
        let l = SimilarityLoss::new(PropertyType::Continuous, |_: &Value, _: &Value| -3.0);
        assert_eq!(l.loss(&t, &Value::Num(1.0), &stats), 1.0);
    }
}
