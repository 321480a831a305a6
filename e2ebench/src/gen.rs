//! Inputs and the accuracy checks they are scored by.
//!
//! Every workload runs on the repository's weather generator
//! (`crh_data::generators::weather`), which reproduces the shape of the
//! paper's weather data (§3.2.1, Table 1): 9 sources = 3 forecast
//! platforms × 3 lead days, reliability falling with platform and lead,
//! high / low temperature (continuous) and a condition label
//! (categorical), correlated decoy errors on the label that fool
//! majority voting, and occasional gross temperature glitches. The paper
//! crawled 20 cities over about a month; the workloads scale the number
//! of cities and days and keep the paper's missing rate (7.2 %). One
//! day's reports are one chunk, as in the paper's streaming experiment.
//!
//! Voting and the plain median, the uniform-weight answers CRH must
//! beat, are written out here and share no code with the solver, so an
//! accuracy check cannot pass because of a bug the two share.

use std::collections::BTreeMap;

use crh_core::ids::{ObjectId, PropertyId, SourceId};
use crh_core::schema::Schema;
use crh_core::table::{Claim, ObservationTable, TruthTable};
use crh_core::value::Value;
use crh_data::generators::weather::{self, WeatherConfig};
use crh_data::reliability::true_source_reliability;
use crh_data::GroundTruth;
use crh_serve::ChunkClaim;

/// The paper's missing rate for the weather data (Table 1).
const MISSING_RATE: f64 = 0.072;

/// One generated weather dataset, split into per-day chunks.
pub struct Weather {
    pub schema: Schema,
    /// The claims of each day, in day order.
    pub days: Vec<Vec<ChunkClaim>>,
    truth: GroundTruth,
    /// Each source's reliability measured against the ground truth.
    reliability: Vec<f64>,
}

impl Weather {
    /// `cities` cities over `days` days; the seed fixes every value.
    /// Every entry has a ground truth.
    pub fn new(seed: u64, cities: usize, days: usize) -> Result<Self, String> {
        let ds = weather::generate(&WeatherConfig {
            cities,
            days,
            missing_rate: MISSING_RATE,
            truth_rate: 1.0,
            seed,
        });
        let split = ds
            .split_by_day()
            .ok_or("the weather generator marks no days")?;
        if split.len() != days {
            return Err(format!("{} of {days} days have claims", split.len()));
        }
        let days = split
            .into_iter()
            .map(|(_, claims)| {
                claims
                    .into_iter()
                    .map(|(o, p, s, value)| ChunkClaim {
                        object: o.0,
                        property: p.0,
                        source: s.0,
                        value,
                    })
                    .collect()
            })
            .collect();
        Ok(Self {
            schema: ds.table.schema().clone(),
            days,
            reliability: true_source_reliability(&ds),
            truth: ds.truth,
        })
    }

    /// Every claim of every day.
    pub fn all_claims(&self) -> Vec<ChunkClaim> {
        self.days.concat()
    }

    /// Score every cell of a solved table against the ground truth.
    pub fn score(&self, table: &ObservationTable, truths: &TruthTable) -> Score {
        let mut score = Score::default();
        for (eid, truth) in truths.iter() {
            let e = table.entry(eid);
            score.add_truth(
                self.truth.get(e.object, e.property),
                e.property.0,
                &truth.point(),
            );
        }
        score
    }

    /// Score of the uniform-weight answer — majority vote (ties to the
    /// smaller label) and the plain median — over `claims`.
    pub fn baseline(&self, claims: &[ChunkClaim]) -> Score {
        let mut cells: BTreeMap<(u32, u32), Vec<&Value>> = BTreeMap::new();
        for c in claims {
            cells
                .entry((c.object, c.property))
                .or_default()
                .push(&c.value);
        }
        let mut score = Score::default();
        for ((object, property), values) in cells {
            let est = if let Some(Value::Cat(_)) = values.first() {
                let mut votes: BTreeMap<u32, u32> = BTreeMap::new();
                for c in values.iter().filter_map(|v| v.as_cat()) {
                    *votes.entry(c).or_default() += 1;
                }
                let best = votes
                    .iter()
                    .max_by_key(|(&label, &n)| (n, std::cmp::Reverse(label)))
                    .map_or(0, |(&label, _)| label);
                Value::Cat(best)
            } else {
                let mut xs: Vec<f64> = values.iter().filter_map(|v| v.as_num()).collect();
                xs.sort_by(f64::total_cmp);
                let n = xs.len();
                Value::Num(if n % 2 == 1 {
                    xs[n / 2]
                } else {
                    (xs[n / 2 - 1] + xs[n / 2]) / 2.0
                })
            };
            score.add_truth(
                self.truth.get(ObjectId(object), PropertyId(property)),
                property,
                &est,
            );
        }
        score
    }

    /// Whether `weights` put the three sources the ground truth finds
    /// most reliable above the three it finds least reliable — in the
    /// weather data, the short-lead forecasts of the good platforms
    /// against the long-lead forecasts of the poor ones.
    pub fn ranks_sources(&self, weights: &[f64]) -> bool {
        let mut order: Vec<usize> = (0..self.reliability.len()).collect();
        order.sort_by(|&a, &b| self.reliability[b].total_cmp(&self.reliability[a]));
        let weight = |s: &usize| weights.get(*s).copied().unwrap_or(f64::NAN);
        let worst_good = order
            .iter()
            .take(3)
            .map(weight)
            .fold(f64::INFINITY, f64::min);
        let best_bad = order
            .iter()
            .rev()
            .take(3)
            .map(weight)
            .fold(f64::NEG_INFINITY, f64::max);
        order.len() >= 6 && worst_good > best_bad
    }
}

/// Accuracy of a set of truths against the ground truth: label errors,
/// and the absolute error summed per continuous property.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Score {
    cat_wrong: u64,
    cat_total: u64,
    abs_err: BTreeMap<u32, f64>,
    num_total: BTreeMap<u32, u64>,
}

impl Score {
    /// Score one estimated cell of `property` whose truth is `truth`.
    fn add_truth(&mut self, truth: Option<&Value>, property: u32, est: &Value) {
        match (truth, est) {
            (Some(Value::Cat(t)), Value::Cat(c)) => {
                self.cat_total += 1;
                self.cat_wrong += u64::from(c != t);
            }
            (Some(Value::Num(t)), Value::Num(x)) => {
                *self.num_total.entry(property).or_default() += 1;
                *self.abs_err.entry(property).or_default() += (x - t).abs();
            }
            // a cell without a truth or with a value of the wrong type is
            // as wrong as it gets
            _ => {
                self.cat_total += 1;
                self.cat_wrong += 1;
            }
        }
    }

    /// Accumulate another score.
    pub fn add(&mut self, other: &Score) {
        self.cat_wrong += other.cat_wrong;
        self.cat_total += other.cat_total;
        for (p, e) in &other.abs_err {
            *self.abs_err.entry(*p).or_default() += e;
        }
        for (p, n) in &other.num_total {
            *self.num_total.entry(*p).or_default() += n;
        }
    }

    /// Whether these truths cover the same cells as `base` and are
    /// strictly more accurate on every property (uniform weights would
    /// tie).
    pub fn beats(&self, base: &Score) -> bool {
        self.cat_total == base.cat_total
            && self.num_total == base.num_total
            && self.cat_total > 0
            && !self.num_total.is_empty()
            && self.cat_wrong < base.cat_wrong
            && self
                .abs_err
                .iter()
                .all(|(p, e)| base.abs_err.get(p).is_some_and(|b| e < b))
    }
}

/// The chunk as library claims, in the same order.
pub fn claims_of(chunk: &[ChunkClaim]) -> Vec<Claim> {
    chunk
        .iter()
        .map(|c| Claim {
            object: ObjectId(c.object),
            property: PropertyId(c.property),
            source: SourceId(c.source),
            value: c.value.clone(),
        })
        .collect()
}

/// Whether two solutions carry bit-identical weights and equal truths.
pub fn identical(w1: &[f64], t1: &TruthTable, w2: &[f64], t2: &TruthTable) -> bool {
    w1.len() == w2.len()
        && w1.iter().zip(w2).all(|(x, y)| x.to_bits() == y.to_bits())
        && t1.len() == t2.len()
        && t1.iter().zip(t2.iter()).all(|(x, y)| x == y)
}
