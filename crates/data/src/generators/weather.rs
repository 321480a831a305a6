//! Weather-forecast dataset generator (§3.2.1, Table 1 "Weather Data").
//!
//! Mirrors the paper's crawl: 3 platforms × 3 forecast lead days = **9
//! sources**, 20 US cities over ~a month, three properties — *high
//! temperature* and *low temperature* (continuous) and *weather condition*
//! (categorical). A platform's forecast degrades with lead time, giving the
//! 9 sources a natural reliability spread (the structure Fig 1 visualizes).

use crh_core::rng::{Rng, StdRng};

use crh_core::ids::{ObjectId, SourceId};
use crh_core::schema::Schema;
use crh_core::table::TableBuilder;
use crh_core::value::Value;

use crate::dataset::{Dataset, GroundTruth};
use crate::noise::Gaussian;

use super::{coin, other_label};

/// Weather conditions domain.
pub const CONDITIONS: [&str; 6] = ["sunny", "cloudy", "rain", "snow", "storm", "fog"];

/// Configuration for [`generate`].
#[derive(Debug, Clone)]
pub struct WeatherConfig {
    /// Number of cities (paper: 20).
    pub cities: usize,
    /// Number of days (paper: ~a month; 32 matches Table 1's 1,920 entries).
    pub days: usize,
    /// Probability that a (source, object) report is missing entirely.
    pub missing_rate: f64,
    /// Fraction of entries with a ground-truth label (Table 1: 1740/1920).
    pub truth_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WeatherConfig {
    /// Paper-scale configuration (Table 1 shape: ~16k observations,
    /// 1,920 entries, ~1,740 ground truths, 9 sources).
    pub fn paper() -> Self {
        Self {
            cities: 20,
            days: 32,
            missing_rate: 0.072,
            truth_rate: 0.906,
            seed: 0x7EA7_0001,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn small() -> Self {
        Self {
            cities: 4,
            days: 6,
            missing_rate: 0.05,
            truth_rate: 1.0,
            seed: 0x7EA7_0002,
        }
    }
}

/// Per-source forecast quality: platform `p ∈ {0,1,2}`, lead `l ∈ {0,1,2}`
/// (source id = `3p + l`). Temperature noise and condition error both grow
/// with platform index and lead time.
fn temp_sigma(platform: usize, lead: usize) -> f64 {
    (0.8 + 1.6 * platform as f64) * (1.0 + 0.9 * lead as f64)
}

fn cond_error(platform: usize, lead: usize) -> f64 {
    (0.08 + 0.18 * platform as f64 + 0.22 * lead as f64).min(0.88)
}

/// When a forecaster gets the condition wrong, it usually errs toward the
/// *same* plausible alternative as everybody else (everyone's model sees the
/// same ambiguous front), not a uniformly random label. This correlation is
/// what makes real conflict resolution hard — majority voting is fooled
/// whenever the erring sources outnumber the correct ones.
const DECOY_PROB: f64 = 0.75;

/// Generate the weather dataset.
pub fn generate(cfg: &WeatherConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut gauss = Gaussian::new();

    let mut schema = Schema::new();
    let p_high = schema.add_continuous("high_temp");
    let p_low = schema.add_continuous("low_temp");
    let p_cond = schema.add_categorical("condition");
    // Pre-intern the full condition domain so ids are stable.
    let mut cond_ids = Vec::new();
    for c in CONDITIONS {
        cond_ids.push(schema.intern(p_cond, c).expect("categorical"));
    }

    let num_objects = cfg.cities * cfg.days;
    // City climate baselines.
    let city_base: Vec<f64> = (0..cfg.cities)
        .map(|c| 35.0 + 55.0 * (c as f64 / cfg.cities.max(1) as f64) + rng.random_range(-3.0..3.0))
        .collect();

    // Ground-truth weather per object (object = day * cities + city).
    let mut truth_high = vec![0.0f64; num_objects];
    let mut truth_low = vec![0.0f64; num_objects];
    let mut truth_cond = vec![0u32; num_objects];
    // each platform's model errs toward its own plausible alternative
    let mut decoy_cond = vec![[0u32; 3]; num_objects];
    let mut day_of_object = vec![0u32; num_objects];
    for day in 0..cfg.days {
        #[expect(clippy::needless_range_loop, reason = "city indexes two arrays")]
        for city in 0..cfg.cities {
            let o = day * cfg.cities + city;
            day_of_object[o] = day as u32;
            let season = 6.0 * ((day as f64 / cfg.days.max(1) as f64) * std::f64::consts::PI).sin();
            let high = city_base[city] + season + gauss.sample_scaled(&mut rng, 0.0, 4.0);
            let spread = 8.0 + rng.random_range(0.0..10.0);
            truth_high[o] = high.round();
            truth_low[o] = (high - spread).round();
            // condition loosely tracks temperature
            let cond = if truth_high[o] < 35.0 {
                if coin(&mut rng, 0.5) {
                    3
                } else {
                    1
                } // snow / cloudy
            } else if coin(&mut rng, 0.45) {
                0 // sunny
            } else {
                [1u32, 2, 4, 5][rng.random_range(0..4)] as usize
            };
            truth_cond[o] = cond as u32;
            for d in &mut decoy_cond[o] {
                *d = other_label(&mut rng, truth_cond[o], CONDITIONS.len() as u32);
            }
        }
    }

    // Sources report.
    let mut b = TableBuilder::new(schema);
    let domain = CONDITIONS.len() as u32;
    #[expect(
        clippy::needless_range_loop,
        reason = "platform also derives source ids and quality params"
    )]
    for platform in 0..3usize {
        for lead in 0..3usize {
            let sid = SourceId((platform * 3 + lead) as u32);
            let sigma = temp_sigma(platform, lead);
            let perr = cond_error(platform, lead);
            // each platform's model carries a small systematic temperature
            // bias that grows with lead time
            let bias = gauss.sample_scaled(&mut rng, 0.0, 0.3 * sigma);
            // crawl/parsing glitches produce occasional gross temperature
            // outliers (unit mix-ups, stale pages) — the §2.4.2 regime where
            // the weighted median beats mean-style aggregation
            let glitch_prob = 0.004 + 0.008 * (platform + lead) as f64;
            for o in 0..num_objects {
                if coin(&mut rng, cfg.missing_rate) {
                    continue; // this source missed this city-day entirely
                }
                let obj = ObjectId(o as u32);
                // forecasts carry one decimal place, so two sources rarely
                // agree to the bit — exactly the property that defeats
                // methods treating continuous observations as exact facts
                // (§1.2's 79F-vs-70F argument)
                let glitch = if coin(&mut rng, glitch_prob) {
                    let off: f64 = rng.random_range(20.0f64..45.0);
                    if coin(&mut rng, 0.5) {
                        off
                    } else {
                        -off
                    }
                } else {
                    0.0
                };
                let high = crate::noise::round_digits(
                    truth_high[o] + bias + glitch + gauss.sample_scaled(&mut rng, 0.0, sigma),
                    1,
                );
                let low = crate::noise::round_digits(
                    truth_low[o] + bias + glitch + gauss.sample_scaled(&mut rng, 0.0, sigma * 1.1),
                    1,
                );
                b.add(obj, p_high, sid, Value::Num(high)).expect("typed");
                b.add(obj, p_low, sid, Value::Num(low.min(high - 1.0)))
                    .expect("typed");
                let cond = if coin(&mut rng, perr) {
                    if coin(&mut rng, DECOY_PROB) {
                        decoy_cond[o][platform]
                    } else {
                        other_label(&mut rng, truth_cond[o], domain)
                    }
                } else {
                    truth_cond[o]
                };
                b.add(obj, p_cond, sid, Value::Cat(cond)).expect("typed");
            }
        }
    }
    let table = b.build().expect("non-empty weather table");

    // Ground truths for a random subset of entries.
    let mut truth = GroundTruth::new();
    for o in 0..num_objects {
        let obj = ObjectId(o as u32);
        for (p, v) in [
            (p_high, Value::Num(truth_high[o])),
            (p_low, Value::Num(truth_low[o])),
            (p_cond, Value::Cat(truth_cond[o])),
        ] {
            if table.entry_id(obj, p).is_some() && coin(&mut rng, cfg.truth_rate) {
                truth.insert(obj, p, v);
            }
        }
    }

    Dataset {
        name: "weather".into(),
        table,
        truth,
        true_reliability: None,
        day_of_object: Some(day_of_object),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::true_source_reliability;

    #[test]
    fn paper_scale_matches_table1_shape() {
        let ds = generate(&WeatherConfig::paper());
        let s = ds.stats();
        assert_eq!(s.sources, 9);
        assert_eq!(s.properties, 3);
        // Table 1: 16,038 observations / 1,920 entries / 1,740 truths
        assert!(
            (15_000..=17_500).contains(&s.observations),
            "{}",
            s.observations
        );
        assert!((1_850..=1_920).contains(&s.entries), "{}", s.entries);
        assert!(
            (1_550..=1_850).contains(&s.ground_truths),
            "{}",
            s.ground_truths
        );
    }

    #[test]
    fn deterministic() {
        let a = generate(&WeatherConfig::small());
        let b = generate(&WeatherConfig::small());
        assert_eq!(a.stats(), b.stats());
        // spot-check one entry's observations agree
        let e = crh_core::ids::EntryId(0);
        assert_eq!(a.table.observations(e), b.table.observations(e));
    }

    #[test]
    fn short_lead_sources_more_reliable() {
        let ds = generate(&WeatherConfig::paper());
        let r = true_source_reliability(&ds);
        // within each platform, lead 0 beats lead 2
        for p in 0..3 {
            assert!(
                r[3 * p] > r[3 * p + 2],
                "platform {p}: {:?}",
                &r[3 * p..3 * p + 3]
            );
        }
        // platform 0 short-lead is the best overall source
        let best = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 0);
    }

    #[test]
    fn low_below_high() {
        let ds = generate(&WeatherConfig::small());
        let high = ds.table.schema().property_by_name("high_temp").unwrap();
        let low = ds.table.schema().property_by_name("low_temp").unwrap();
        for o in 0..ds.table.num_objects() {
            let obj = ObjectId(o as u32);
            let (Some(eh), Some(el)) = (ds.table.entry_id(obj, high), ds.table.entry_id(obj, low))
            else {
                continue;
            };
            for ((s1, h), (s2, l)) in ds
                .table
                .observations(eh)
                .iter()
                .zip(ds.table.observations(el))
            {
                if s1 == s2 {
                    assert!(l.as_num().unwrap() < h.as_num().unwrap());
                }
            }
        }
    }

    #[test]
    fn temporal_markers_cover_days() {
        let cfg = WeatherConfig::small();
        let ds = generate(&cfg);
        let days = ds.day_of_object.as_ref().unwrap();
        assert_eq!(days.len(), cfg.cities * cfg.days);
        assert_eq!(*days.iter().max().unwrap() as usize, cfg.days - 1);
    }

    #[test]
    fn condition_labels_are_the_known_domain() {
        let ds = generate(&WeatherConfig::small());
        let cond = ds.table.schema().property_by_name("condition").unwrap();
        let dom = ds.table.schema().domain(cond).unwrap();
        assert_eq!(dom.len(), CONDITIONS.len());
    }
}
