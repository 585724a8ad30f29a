//! Small, fast, reproducible pseudo-random number generation.
//!
//! Experiments must be bit-for-bit reproducible across runs and machines, so
//! the workspace uses its own xoshiro256\*\* generator (public-domain
//! algorithm by Blackman & Vigna) seeded through SplitMix64 rather than an
//! OS entropy source.

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use emcc_sim::Rng64;
///
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

/// SplitMix64's increment (the golden-ratio constant).
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijective avalanche of `z`.
///
/// Campaigns derive per-case seeds with it; each caller picks its own
/// pre-finalizer offset (e.g. `mix64(seed.wrapping_add(i.wrapping_mul(GAMMA)))`).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix64(*state)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed (including 0) produces a well-mixed state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng64 {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift reduction; the tiny modulo bias is
    /// irrelevant for workload generation.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Geometric-ish gap: uniform in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.below(hi - lo + 1)
    }

    /// Sample from a discrete Zipf distribution over `{0, .., n-1}` with
    /// exponent `theta`, using inverse-CDF on a precomputed table.
    ///
    /// This is provided by [`ZipfTable`]; see its docs.
    pub fn zipf(&mut self, table: &ZipfTable) -> usize {
        table.sample(self)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// Precomputed cumulative table for Zipf-distributed sampling.
///
/// Graph workloads concentrate accesses on high-degree vertices; a Zipf
/// distribution over vertex ids is the standard synthetic stand-in.
///
/// # Examples
///
/// ```
/// use emcc_sim::rng::{Rng64, ZipfTable};
///
/// let table = ZipfTable::new(1000, 0.8);
/// let mut rng = Rng64::new(7);
/// let v = rng.zipf(&table);
/// assert!(v < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds the cumulative table for `n` items with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative/not finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(theta.is_finite() && theta >= 0.0, "invalid exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfTable { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the table is empty (never: construction requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.unit_f64();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng64::new(123);
        let mut b = Rng64::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng64::new(9);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = Rng64::new(5);
        for _ in 0..10_000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_f64_roughly_uniform() {
        let mut r = Rng64::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut r = Rng64::new(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match r.range_inclusive(2, 4) {
                2 => saw_lo = true,
                4 => saw_hi = true,
                3 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn zipf_skews_to_head() {
        let table = ZipfTable::new(100, 1.0);
        let mut r = Rng64::new(77);
        let mut head = 0u32;
        let n = 50_000;
        for _ in 0..n {
            if r.zipf(&table) < 10 {
                head += 1;
            }
        }
        // With theta=1 over 100 items, the top-10 mass is ~56%.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.45 && frac < 0.68, "head fraction {frac}");
    }

    #[test]
    fn zipf_zero_theta_is_uniform() {
        let table = ZipfTable::new(10, 0.0);
        let mut r = Rng64::new(13);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.zipf(&table)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(21);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::new(31);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }
}
