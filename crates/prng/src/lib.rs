//! # jitbull-prng — a dependency-free seeded PRNG
//!
//! The repository deliberately carries no external crates (the build must
//! work fully offline), so the fuzzer and the randomized test suites share
//! this hand-rolled generator instead of `rand`. The core is SplitMix64
//! (Steele, Lea & Flood; the same mixer `rand` uses to seed its own
//! generators): a 64-bit state marched by a Weyl constant and finalized
//! with two xor-shift-multiply rounds. It is statistically strong enough
//! for program generation and property-style testing, trivially
//! deterministic, and `Copy`-cheap.
//!
//! The API intentionally mirrors the subset of `rand::Rng` the repo used:
//! [`Rng::gen_range`], [`Rng::gen_bool`], plus a few conveniences
//! ([`Rng::pick`], [`Rng::next_f64`]).
//!
//! # Examples
//!
//! ```
//! use jitbull_prng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let die = rng.gen_range(1..7u32);
//! assert!((1..7).contains(&die));
//! // Same seed, same stream.
//! let mut again = Rng::seed_from_u64(42);
//! assert_eq!(again.gen_range(1..7u32), die);
//! ```

#![forbid(unsafe_code)]

use std::ops::Range;

/// A seeded SplitMix64 generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        // SplitMix64: Weyl sequence + xorshift-multiply finalizer.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32-bit output (upper half of the 64-bit word).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A float uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A value uniform in `range` (half-open, like `rand::gen_range`).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniformly chosen element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "pick from empty slice");
        &slice[self.gen_range(0..slice.len())]
    }
}

/// Types [`Rng::gen_range`] can sample.
pub trait SampleRange: Copy + PartialOrd {
    /// Uniform sample from the half-open `range`.
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end - range.start) as u64;
                // Modulo bias is < 2^-32 for every span the repo uses;
                // acceptable for fuzzing and test generation.
                range.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as i64 - range.start as i64) as u64;
                (range.start as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(a[0], c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u = rng.gen_range(3..17usize);
            assert!((3..17).contains(&u));
            let s = rng.gen_range(-9i64..10);
            assert!((-9..10).contains(&s));
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn all_range_values_reachable() {
        let mut rng = Rng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|s| *s), "{seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "{hits}");
    }

    #[test]
    fn pick_covers_the_slice() {
        let mut rng = Rng::seed_from_u64(4);
        let options = ["a", "b", "c"];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(*rng.pick(&options));
        }
        assert_eq!(seen.len(), 3);
    }
}
