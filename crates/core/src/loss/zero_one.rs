//! 0-1 loss for categorical data (Eq 8) with weighted-vote truth update (Eq 9).

use crate::ids::SourceId;
use crate::stats::EntryStats;
use crate::value::{PropertyType, Truth, Value};

use super::Loss;

/// The 0-1 loss: an error of 1 is incurred iff the observation differs from
/// the truth (Eq 8). The truth update is the value receiving the highest
/// weighted vote among all observed values (Eq 9); ties break toward the
/// smaller categorical id (then lexicographic for text) for determinism.
///
/// This is the paper's default categorical loss "due to its time and space
/// efficiency" (§3.1.2). It also works for any exactly-comparable value
/// (text, discretized numbers), which is how the categorical-only baselines
/// treat continuous data.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroOneLoss;

impl Loss for ZeroOneLoss {
    fn name(&self) -> &'static str {
        "zero-one"
    }

    fn loss(&self, truth: &Truth, obs: &Value, _stats: &EntryStats) -> f64 {
        if truth.point().matches(obs) {
            0.0
        } else {
            1.0
        }
    }

    fn fit(&self, obs: &[(SourceId, Value)], weights: &[f64], _stats: &EntryStats) -> Truth {
        debug_assert!(!obs.is_empty(), "fit on empty observation group");
        // Weighted plurality vote. The candidate set is at most K values
        // (K = sources per entry, typically < 60), so a linear-scan tally
        // beats hashing — and `Value` holds floats, which have no total Eq.
        let mut votes: Vec<(&Value, f64)> = Vec::with_capacity(obs.len());
        for (s, v) in obs {
            let w = weights[s.index()];
            match votes.iter_mut().find(|(u, _)| u.matches(v)) {
                Some(slot) => slot.1 += w,
                None => votes.push((v, w)),
            }
        }
        let mut best: Option<(&Value, f64)> = None;
        for (v, w) in votes {
            best = match best {
                None => Some((v, w)),
                Some((bv, bw)) => {
                    if w > bw || (w == bw && tie_before(v, bv)) {
                        Some((v, w))
                    } else {
                        Some((bv, bw))
                    }
                }
            };
        }
        #[expect(
            clippy::expect_used,
            reason = "resolver contract: resolve() receives ≥1 observation, so the vote fold always sets `best`"
        )]
        let (winner, _) = best.expect("non-empty votes");
        Truth::Point(winner.clone())
    }

    fn is_convex(&self) -> bool {
        // 0-1 loss is not convex; CRH still behaves well with it in practice
        // (§2.5 "we find that some of these approaches work well in practice").
        false
    }

    fn property_type(&self) -> PropertyType {
        PropertyType::Categorical
    }

    fn kernel_class(&self) -> super::KernelClass {
        // the columnar vote kernel replicates this fit/loss bit-for-bit
        super::KernelClass::Vote
    }
}

/// Deterministic tie order: smaller categorical id first, then numeric value,
/// then lexicographic text.
fn tie_before(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Cat(x), Value::Cat(y)) => x < y,
        (Value::Num(x), Value::Num(y)) => x < y,
        (Value::Text(x), Value::Text(y)) => x < y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::EntryStats;

    fn stats() -> EntryStats {
        EntryStats::trivial()
    }

    #[test]
    fn loss_is_indicator() {
        let l = ZeroOneLoss;
        let t = Truth::Point(Value::Cat(1));
        assert_eq!(l.loss(&t, &Value::Cat(1), &stats()), 0.0);
        assert_eq!(l.loss(&t, &Value::Cat(2), &stats()), 1.0);
    }

    #[test]
    fn unweighted_vote_is_majority() {
        let l = ZeroOneLoss;
        let obs = vec![
            (SourceId(0), Value::Cat(0)),
            (SourceId(1), Value::Cat(1)),
            (SourceId(2), Value::Cat(1)),
        ];
        let w = vec![1.0, 1.0, 1.0];
        assert_eq!(l.fit(&obs, &w, &stats()).point(), Value::Cat(1));
    }

    #[test]
    fn weighted_vote_lets_reliable_minority_win() {
        // the minority-stated truth wins when the minority source is heavy
        // (the "wisdom of minority" effect in §3.2.2 observation 2).
        let l = ZeroOneLoss;
        let obs = vec![
            (SourceId(0), Value::Cat(0)),
            (SourceId(1), Value::Cat(1)),
            (SourceId(2), Value::Cat(1)),
        ];
        let w = vec![5.0, 1.0, 1.0];
        assert_eq!(l.fit(&obs, &w, &stats()).point(), Value::Cat(0));
    }

    #[test]
    fn tie_breaks_toward_smaller_id() {
        let l = ZeroOneLoss;
        let obs = vec![(SourceId(0), Value::Cat(3)), (SourceId(1), Value::Cat(1))];
        let w = vec![1.0, 1.0];
        assert_eq!(l.fit(&obs, &w, &stats()).point(), Value::Cat(1));
    }

    #[test]
    fn works_on_text_values() {
        let l = ZeroOneLoss;
        let obs = vec![
            (SourceId(0), Value::Text("gate A2".into())),
            (SourceId(1), Value::Text("gate A2".into())),
            (SourceId(2), Value::Text("gate B1".into())),
        ];
        let w = vec![1.0, 1.0, 1.0];
        assert_eq!(
            l.fit(&obs, &w, &stats()).point(),
            Value::Text("gate A2".into())
        );
    }

    #[test]
    fn text_tie_breaks_lexicographically() {
        let l = ZeroOneLoss;
        let obs = vec![
            (SourceId(0), Value::Text("b".into())),
            (SourceId(1), Value::Text("a".into())),
        ];
        let w = vec![1.0, 1.0];
        assert_eq!(l.fit(&obs, &w, &stats()).point(), Value::Text("a".into()));
    }

    #[test]
    fn not_convex() {
        assert!(!ZeroOneLoss.is_convex());
    }
}
