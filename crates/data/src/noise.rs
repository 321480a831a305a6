//! Noise models for multi-source simulation (§3.2.2).
//!
//! The paper's simulated data injects per-source noise controlled by a
//! reliability parameter `γ`:
//!
//! * **continuous** properties receive Gaussian noise whose standard
//!   deviation is proportional to `γ`, then are rounded "based on their
//!   physical meaning";
//! * **categorical** properties are flipped to a random *other* domain value
//!   with probability `θ(γ)` (draw `x ~ U(0,1)`; perturb iff `x < θ`).
//!
//! Gaussian variates come from a Box–Muller transform on top of the
//! in-tree seeded generator ([`crh_core::rng`]), so the crate needs no
//! external randomness dependency.

use crh_core::rng::Rng;

/// The `γ` ladder used for the 8 simulated sources in §3.2.2.
pub const PAPER_GAMMAS: [f64; 8] = [0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 1.9, 2.0];

/// `γ` for a "reliable" source in the Figs 2-3 sweeps.
pub const GAMMA_RELIABLE: f64 = 0.1;

/// `γ` for an "unreliable" source in the Figs 2-3 sweeps.
pub const GAMMA_UNRELIABLE: f64 = 2.0;

/// Map `γ` to the categorical flip probability `θ(γ) ∈ [0, 1)`.
///
/// The paper only states that θ is "set according to γ". This quadratic map
/// sends the reliable end (γ=0.1) to a ~0.15% error — necessary for Table
/// 4's observation that CRH "can fully recover all the truths on categorical
/// data", which requires near-perfect reliable sources — and caps the
/// unreliable end at 60%: an *unreliable* source is noisy, not adversarial.
/// (A θ near 1 on a binary domain would make the liars a deterministic
/// anti-truth consensus, which no unsupervised method can distinguish from
/// the truth-tellers; the paper's Fig 2 "CRH recovers truths with a single
/// reliable source" requires the noisy regime.)
pub fn theta(gamma: f64) -> f64 {
    (0.15 * gamma * gamma).clamp(0.0, 0.6)
}

/// A standard-normal sampler using the Box–Muller transform, caching the
/// spare variate.
#[derive(Debug, Clone, Default)]
pub struct Gaussian {
    spare: Option<f64>,
}

impl Gaussian {
    /// New sampler with no cached spare.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw one `N(0, 1)` variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // Box–Muller: u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draw one `N(mean, std²)` variate.
    pub fn sample_scaled<R: Rng + ?Sized>(&mut self, rng: &mut R, mean: f64, std: f64) -> f64 {
        mean + std * self.sample(rng)
    }
}

/// Probability that a continuous perturbation comes from the heavy tail
/// (entry mistyped, unit slip) rather than the Gaussian core.
pub const HEAVY_TAIL_PROB: f64 = 0.08;

/// Heavy-tail inflation factor on the noise standard deviation.
pub const HEAVY_TAIL_FACTOR: f64 = 5.0;

/// Perturb a continuous truth: add Gaussian noise with standard deviation
/// `γ·scale` — inflated by [`HEAVY_TAIL_FACTOR`] with probability
/// [`HEAVY_TAIL_PROB`], since real measurement error is heavy-tailed (typos,
/// unit slips) rather than purely Gaussian — then round to `round_to`
/// decimal digits (the paper's "physical meaning" rounding) and clamp to
/// `[min, max]`.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's noise parameters"
)]
pub fn perturb_continuous<R: Rng + ?Sized>(
    rng: &mut R,
    gauss: &mut Gaussian,
    truth: f64,
    gamma: f64,
    scale: f64,
    round_to: i32,
    min: f64,
    max: f64,
) -> f64 {
    let mut std = gamma * scale;
    if rng.random::<f64>() < HEAVY_TAIL_PROB {
        std *= HEAVY_TAIL_FACTOR;
    }
    let noisy = gauss.sample_scaled(rng, truth, std);
    round_digits(noisy, round_to).clamp(min, max)
}

/// Perturb a categorical truth (domain ids `0..domain`): with probability
/// `θ(γ)` replace it by a uniformly random *different* domain value.
pub fn perturb_categorical<R: Rng + ?Sized>(
    rng: &mut R,
    truth: u32,
    gamma: f64,
    domain: u32,
) -> u32 {
    debug_assert!(domain >= 1);
    if domain < 2 {
        return truth;
    }
    let x: f64 = rng.random();
    if x < theta(gamma) {
        // choose uniformly among the other domain-1 values
        let mut pick = rng.random_range(0..domain - 1);
        if pick >= truth {
            pick += 1;
        }
        pick
    } else {
        truth
    }
}

/// Round to `digits` decimal digits (negative digits round to tens,
/// hundreds, …).
pub fn round_digits(x: f64, digits: i32) -> f64 {
    let factor = 10f64.powi(digits);
    (x * factor).round() / factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crh_core::rng::StdRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = Gaussian::new();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn gaussian_scaled() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut g = Gaussian::new();
        let n = 100_000;
        let xs: Vec<f64> = (0..n)
            .map(|_| g.sample_scaled(&mut rng, 10.0, 2.0))
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05);
    }

    #[test]
    fn theta_endpoints() {
        assert!((theta(0.1) - 0.0015).abs() < 1e-12);
        assert!((theta(2.0) - 0.6).abs() < 1e-12);
        assert_eq!(theta(100.0), 0.6);
        assert_eq!(theta(0.0), 0.0);
        // strictly increasing over the paper's ladder
        for w in PAPER_GAMMAS.windows(2) {
            assert!(theta(w[0]) < theta(w[1]));
        }
    }

    #[test]
    fn categorical_flip_rate_tracks_theta() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 100_000;
        let flipped = (0..n)
            .filter(|_| perturb_categorical(&mut rng, 3, 1.0, 10) != 3)
            .count();
        let rate = flipped as f64 / n as f64;
        assert!((rate - theta(1.0)).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn categorical_flip_never_returns_truth_when_flipping() {
        let mut rng = StdRng::seed_from_u64(10);
        // gamma huge -> theta capped at 0.6; check flipped values differ
        let mut saw_flip = false;
        for _ in 0..1000 {
            let v = perturb_categorical(&mut rng, 1, 100.0, 4);
            assert!(v < 4);
            if v != 1 {
                saw_flip = true;
            }
        }
        assert!(saw_flip);
    }

    #[test]
    fn categorical_flip_uniform_over_others() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 4];
        for _ in 0..100_000 {
            let v = perturb_categorical(&mut rng, 2, 100.0, 4);
            counts[v as usize] += 1;
        }
        // 60% (the θ cap) flipped uniformly over {0,1,3}, 40% stay at 2
        for (i, &c) in counts.iter().enumerate() {
            if i != 2 {
                let frac = c as f64 / 100_000.0;
                assert!((frac - 0.6 / 3.0).abs() < 0.01, "value {i}: {frac}");
            }
        }
    }

    #[test]
    fn singleton_domain_never_flips() {
        let mut rng = StdRng::seed_from_u64(12);
        assert_eq!(perturb_categorical(&mut rng, 0, 2.0, 1), 0);
    }

    #[test]
    fn rounding() {
        assert_eq!(round_digits(1.2345, 2), 1.23);
        assert_eq!(round_digits(1.2345, 0), 1.0);
        assert_eq!(round_digits(123.0, -1), 120.0);
        assert_eq!(round_digits(125.0, -1), 130.0);
    }

    #[test]
    fn perturb_continuous_respects_bounds_and_rounding() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut g = Gaussian::new();
        for _ in 0..1000 {
            let v = perturb_continuous(&mut rng, &mut g, 50.0, 2.0, 20.0, 0, 0.0, 100.0);
            assert!((0.0..=100.0).contains(&v));
            assert_eq!(v, v.round());
        }
    }

    #[test]
    fn reliable_gamma_stays_close() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut g = Gaussian::new();
        let devs: Vec<f64> = (0..10_000)
            .map(|_| {
                (perturb_continuous(&mut rng, &mut g, 100.0, GAMMA_RELIABLE, 10.0, 2, 0.0, 200.0)
                    - 100.0)
                    .abs()
            })
            .collect();
        let mean_dev = devs.iter().sum::<f64>() / devs.len() as f64;
        // E|N(0,1)| = sqrt(2/pi) ≈ 0.798, scaled by γ·scale = 1.0 and the
        // heavy-tail mixture: 0.92·1 + 0.08·5 = 1.32
        let expected = 0.798 * (1.0 - HEAVY_TAIL_PROB + HEAVY_TAIL_PROB * HEAVY_TAIL_FACTOR);
        assert!(
            (mean_dev - expected).abs() < 0.07,
            "mean dev {mean_dev} vs {expected}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(42);
            let mut g = Gaussian::new();
            (0..10).map(|_| g.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
