//! Small self-contained seeded PRNG (SplitMix64 seeding + PCG-XSL-RR
//! 128/64), replacing the external `rand` crate so the workspace builds
//! with zero network access.
//!
//! The API mirrors the subset of `rand` the workspace uses — a [`Rng`]
//! trait with `random::<f64>()` and `random_range(a..b)` — so generator
//! and noise code reads the same as before. Everything is deterministic
//! given the seed; the generators' reproducibility contract ("all
//! generators are deterministic given their config's `seed`") is
//! preserved, though the exact streams differ from the old `rand`-based
//! ones.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use std::ops::Range;

/// The PCG-XSL-RR 128/64 multiplier (PCG paper, Melissa O'Neill 2014).
const PCG_MUL: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

/// SplitMix64 step: used both to expand a 64-bit seed into PCG's 128-bit
/// state and as the finalizer for hash-style one-shot draws.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform-draw surface implemented on top of a raw 64-bit generator.
///
/// Mirrors the `rand::Rng` subset the workspace uses; implemented for any
/// type providing `next_u64`.
pub trait Rng {
    /// The next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample of `T`'s natural distribution (`f64` in `[0, 1)`,
    /// integers over their full range, `bool` fair).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform sample from the half-open range `lo..hi`.
    ///
    /// # Panics
    /// Panics if the range is empty (`lo >= hi`).
    fn random_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }
}

/// Types with a canonical uniform distribution for [`Rng::random`].
pub trait Standard: Sized {
    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// 53-bit-precision uniform in `[0, 1)`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types that can be drawn uniformly from a half-open range.
pub trait UniformRange: Sized {
    /// Draw one sample from `range`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// Unbiased integer draw in `[0, n)` by rejection (Lemire-style widening
/// multiply with a threshold check).
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (n as u128);
        let lo = m as u64;
        if lo >= n || lo >= n.wrapping_neg() % n {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range in random_range");
                let span = (range.end as i128 - range.start as i128) as u64;
                range.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl UniformRange for f64 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(
            range.start < range.end,
            "empty range in random_range: {:?}",
            range
        );
        let u = f64::sample(rng);
        range.start + (range.end - range.start) * u
    }
}

/// PCG-XSL-RR 128/64: 128-bit LCG state, xorshift-low + random-rotate
/// output. Fast, tiny, and statistically solid for simulation use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

impl Pcg64 {
    /// Seed deterministically from a 64-bit seed (SplitMix64-expanded, like
    /// `rand`'s `seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let a = splitmix64(&mut sm);
        let b = splitmix64(&mut sm);
        let c = splitmix64(&mut sm);
        let d = splitmix64(&mut sm);
        let state = (a as u128) << 64 | b as u128;
        // stream selector must be odd
        let inc = ((c as u128) << 64 | d as u128) | 1;
        let mut rng = Self { state, inc };
        // advance once so near-zero seeds decorrelate immediately
        rng.next_u64();
        rng
    }

    fn step(&mut self) -> u128 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MUL).wrapping_add(self.inc);
        old
    }
}

impl Rng for Pcg64 {
    fn next_u64(&mut self) -> u64 {
        let old = self.step();
        let xored = ((old >> 64) as u64) ^ (old as u64);
        let rot = (old >> 122) as u32;
        xored.rotate_right(rot)
    }
}

/// Drop-in alias for the old `rand::rngs::StdRng` call sites.
pub type StdRng = Pcg64;

/// One-shot deterministic draw: hash an arbitrary key tuple to a fresh
/// generator. Used by the fault injector so a task attempt's fate depends
/// only on `(seed, key)` — never on scheduling order.
pub fn hash_rng(seed: u64, key: &[u64]) -> Pcg64 {
    let mut s = seed ^ 0xA076_1D64_78BD_642F;
    let mut acc = splitmix64(&mut s);
    for &k in key {
        s ^= k.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        acc ^= splitmix64(&mut s).rotate_left(17);
    }
    Pcg64::seed_from_u64(acc)
}

/// A named fault class and its per-draw probability. The fault plans list
/// their classes in draw order; [`check_classes`] and [`pick_class`] read
/// the same list, so validation and the draw cannot disagree.
pub type FaultClass<'a> = (&'a str, f64);

/// Draw one uniform `x` from `rng` and return the index of the first
/// class whose cumulative probability exceeds it: the classes tile
/// `[0, 1)` end to end in list order, and `None` is the remainder
/// (healthy). Any extra draw a class needs comes from `rng` afterwards.
pub fn pick_class<R: Rng + ?Sized>(rng: &mut R, classes: &[FaultClass<'_>]) -> Option<usize> {
    let x: f64 = rng.random();
    let mut acc = 0.0;
    classes.iter().position(|&(_, p)| {
        acc += p;
        x < acc
    })
}

/// `Ok` iff every class's probability is finite and in `[0, 1]` and the
/// classes, which share one [`pick_class`] draw, sum to at most 1. The
/// error names the offending class; each crate wraps it in its own
/// typed error.
pub fn check_classes(classes: &[FaultClass<'_>]) -> Result<(), String> {
    if let Some(&(name, p)) = classes
        .iter()
        .find(|&&(_, p)| !(p.is_finite() && (0.0..=1.0).contains(&p)))
    {
        return Err(format!("{name} = {p} is not a probability in [0, 1]"));
    }
    let total: f64 = classes.iter().map(|&(_, p)| p).sum();
    if total > 1.0 + 1e-12 {
        return Err(format!(
            "fault probabilities must sum to <= 1 (got {total})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let draw = |seed| {
            let mut r = Pcg64::seed_from_u64(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn unit_f64_in_range_and_uniform() {
        let mut r = Pcg64::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn int_ranges_unbiased_and_in_bounds() {
        let mut r = Pcg64::seed_from_u64(11);
        let mut counts = [0usize; 5];
        for _ in 0..100_000 {
            counts[r.random_range(0usize..5)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.2).abs() < 0.01, "{counts:?}");
        }
        // offsets and widths
        for _ in 0..1000 {
            let v = r.random_range(10u32..13);
            assert!((10..13).contains(&v));
            let w = r.random_range(-5i32..5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn f64_ranges_respect_bounds() {
        let mut r = Pcg64::seed_from_u64(13);
        for _ in 0..10_000 {
            let x = r.random_range(2.5f64..8.0);
            assert!((2.5..8.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = Pcg64::seed_from_u64(1);
        let _ = r.random_range(5u32..5);
    }

    #[test]
    fn hash_rng_is_order_free_and_key_sensitive() {
        let a = hash_rng(1, &[0, 3, 2]).next_u64();
        let b = hash_rng(1, &[0, 3, 2]).next_u64();
        let c = hash_rng(1, &[0, 3, 3]).next_u64();
        let d = hash_rng(2, &[0, 3, 2]).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn pick_class_tiles_the_unit_interval_in_list_order() {
        let classes = [("a", 0.2), ("b", 0.0), ("c", 0.3)];
        let mut counts = [0usize; 4];
        for k in 0..20_000u64 {
            let i = pick_class(&mut hash_rng(3, &[k]), &classes).unwrap_or(3);
            counts[i] += 1;
        }
        assert_eq!(counts[1], 0, "a zero-probability class never fires");
        for (i, want) in [(0, 0.2), (2, 0.3), (3, 0.5)] {
            let frac = counts[i] as f64 / 20_000.0;
            assert!((frac - want).abs() < 0.02, "{counts:?}");
        }
        // the class draw is the first one: a caller's extra draw follows it
        let mut a = hash_rng(9, &[1]);
        let mut b = hash_rng(9, &[1]);
        let _: f64 = a.random();
        assert_eq!(pick_class(&mut b, &[("all", 1.0)]), Some(0));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn check_classes_names_the_bad_class() {
        assert!(check_classes(&[("a", 0.5), ("b", 0.5)]).is_ok());
        assert!(check_classes(&[]).is_ok());
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let e = check_classes(&[("a", 0.1), ("b", bad)]).unwrap_err();
            assert!(
                e.starts_with("b = ") && e.contains("not a probability"),
                "{e}"
            );
        }
        let e = check_classes(&[("a", 0.7), ("b", 0.7)]).unwrap_err();
        assert!(e.contains("sum to <= 1"), "{e}");
    }

    #[test]
    fn bool_is_fair() {
        let mut r = Pcg64::seed_from_u64(5);
        let trues = (0..100_000).filter(|_| r.random::<bool>()).count();
        assert!((trues as f64 / 100_000.0 - 0.5).abs() < 0.01);
    }
}
