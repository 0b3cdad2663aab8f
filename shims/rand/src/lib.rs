//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no network access and no vendored registry, so
//! the workspace supplies the pieces of `rand` it actually uses as a local
//! path dependency: the [`RngCore`]/[`Rng`]/[`SeedableRng`] traits,
//! [`rngs::StdRng`], `gen_range` over integer and float ranges, and
//! `gen_bool`.
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64 — not the ChaCha12 core of the real `rand`, so streams differ
//! from upstream `rand 0.8` for the same seed. Within this workspace that is
//! invisible: every experiment seeds its own RNG and only relies on
//! *reproducibility*, which this implementation provides (same seed, same
//! stream, forever, on every platform).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator: a source of random words.
///
/// Object-safe, mirroring `rand::RngCore` so samplers can take
/// `&mut dyn RngCore`.
pub trait RngCore {
    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32;
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be deterministically seeded.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`]
/// (including `dyn RngCore`).
pub trait Rng: RngCore {
    /// Samples a value uniformly from the given (non-empty) range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} not in [0, 1]");
        unit_f64(self.next_u64()) < p
    }

    /// Uniform `f64` in `[0, 1)` with 53-bit precision — the
    /// `rng.gen::<f64>()` of the real `rand`. One word of the stream per
    /// call, so inversion samplers cost exactly one RNG draw.
    #[inline]
    fn gen_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A range from which [`Rng::gen_range`] can sample a `T`.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Maps a random `u64` to the unit interval `[0, 1)` with 53-bit precision.
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform draw from `0..width` (`width > 0`) without modulo bias.
#[inline]
fn uniform_below(rng: &mut (impl RngCore + ?Sized), width: u64) -> u64 {
    debug_assert!(width > 0);
    if width.is_power_of_two() {
        return rng.next_u64() & (width - 1);
    }
    loop {
        if let Some(r) = accept_below(rng.next_u64(), width) {
            return r;
        }
    }
}

/// `v % width` if the word `v` lies in a complete block of `width` words
/// (the block starting at `v - v % width` ends by `u64::MAX`), else `None`:
/// rejection of the incomplete top block, with one division per word.
#[inline]
fn accept_below(v: u64, width: u64) -> Option<u64> {
    let r = v % width;
    (v - r <= u64::MAX - (width - 1)).then_some(r)
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let width = (self.end as i128 - self.start as i128) as u64;
                let off = uniform_below(rng, width);
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let width = (hi as i128 - lo as i128) as u128 + 1;
                if width > u64::MAX as u128 {
                    // Full-width integer range: every word is a valid sample.
                    return rng.next_u64() as $t;
                }
                let off = uniform_below(rng, width as u64);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let v = self.start + (self.end - self.start) * unit_f64(rng.next_u64());
        // Floating-point rounding can land exactly on `end`; fold it back.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f32> for Range<f32> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let v = self.start
            + (self.end - self.start) * (unit_f64(rng.next_u64()) as f32);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Seeded through SplitMix64 as recommended by the xoshiro authors, so
    /// any `u64` seed (including 0) yields a well-mixed state.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn next(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into four state words.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next() >> 32) as u32
        }
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.next()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }
}

/// `rand::prelude`-style glob import: the traits and the standard generator.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_int_bounds_and_coverage() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v: usize = rng.gen_range(0..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..10 hit in 1000 draws");
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 6];
        let trials = 120_000;
        for _ in 0..trials {
            counts[rng.gen_range(0usize..6)] += 1;
        }
        let expect = trials as f64 / 6.0;
        for &c in &counts {
            let ratio = f64::from(c) / expect;
            assert!((0.93..1.07).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn gen_range_float_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&v));
            let u = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 100_000;
        let hits = (0..trials).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn gen_f64_unit_interval_and_uniform() {
        let mut rng = StdRng::seed_from_u64(13);
        let trials = 100_000;
        let mut sum = 0.0;
        for _ in 0..trials {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v), "gen_f64 out of [0,1): {v}");
            sum += v;
        }
        let mean = sum / f64::from(trials);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn block_rejection_accepts_exactly_the_zone() {
        // The two-division form it replaced: accept up to the largest
        // multiple of `width` below 2^64.
        let zone = |w: u64| u64::MAX - (u64::MAX % w + 1) % w;
        let widths = [
            1,
            2,
            3,
            (1 << 32) - 1,
            (1 << 32) + 1,
            (1 << 63) - 1,
            (1 << 63) + 1,
            u64::MAX,
        ];
        for w in widths {
            let z = zone(w);
            let around = (0..=3).flat_map(|d| [z.saturating_sub(d), z.saturating_add(d)]);
            for v in around.chain([0, 1, w - 1, w, u64::MAX - 1, u64::MAX]) {
                let expected = (v <= z).then_some(v % w);
                assert_eq!(super::accept_below(v, w), expected, "width {w}, word {v}");
            }
        }
    }

    #[test]
    fn dyn_rng_core_supports_gen_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let v = dyn_rng.gen_range(0u32..4);
        assert!(v < 4);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
