//! Property tests for cycle-to-time conversion.
//!
//! `Frequency::cycles` truncates to whole picoseconds, so splitting a
//! cycle count across calls can only lose time, never gain it, and loses
//! strictly less than one picosecond per extra call; the property pins
//! that truncation bound.

use emcc_sim::time::{Frequency, Time};
use proptest::prelude::*;

proptest! {
    /// Truncation bound: `cycles(a) + cycles(b)` never exceeds
    /// `cycles(a + b)` and falls short by less than 1 ps (each call
    /// truncates a sub-picosecond remainder, and two remainders sum to
    /// under 2/16ths-of-16 = 2 ps only when both are nonzero, in which
    /// case the combined call keeps at most one).
    #[test]
    fn split_cycles_bounded_by_combined(
        ghz_tenths in 1u64..=80,
        a in 0u64..100_000,
        b in 0u64..100_000,
    ) {
        let f = Frequency::from_ghz(ghz_tenths as f64 / 10.0);
        let split = f.cycles(a) + f.cycles(b);
        let combined = f.cycles(a + b);
        prop_assert!(split <= combined);
        prop_assert!(combined - split < Time::from_ps(1) + Time::from_ps(1));
    }

}

/// Edge-case pins for `Histogram::percentile` — empty, single-bucket,
/// and the NaN rank. These are plain unit tests (no generation): the
/// exact behavior at the edges is the contract, not a property.
mod percentile_edges {
    use emcc_sim::stats::Histogram;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new(0.0, 1.0, 8);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(h.percentile(p), None, "p{p} on empty");
        }
    }

    #[test]
    fn nan_rank_is_none_not_first_bin() {
        let mut h = Histogram::new(0.0, 1.0, 8);
        h.add(0.5);
        h.add(3.5);
        // Regression: `NaN.ceil() as u64` saturates to 0, which the
        // rank clamp used to turn into p0 — reporting the first bin's
        // midpoint for a nonsense percentile.
        assert_eq!(h.percentile(f64::NAN), None);
    }

    #[test]
    fn single_bucket_p0_and_p100_are_its_midpoint() {
        let mut h = Histogram::new(0.0, 2.0, 4);
        h.add(1.0);
        // One sample in bin 0 (midpoint 1.0): every in-range rank must
        // resolve to that midpoint, p0 and p100 included.
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(h.percentile(p), Some(1.0), "p{p}");
        }
    }

    #[test]
    fn p0_is_first_occupied_bin_p100_is_last() {
        let mut h = Histogram::new(0.0, 1.0, 8);
        h.add(2.5); // bin 2, midpoint 2.5
        h.add(6.5); // bin 6, midpoint 6.5
        assert_eq!(h.percentile(0.0), Some(2.5));
        assert_eq!(h.percentile(100.0), Some(6.5));
    }

    #[test]
    fn overflow_rank_is_none() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(0.5);
        h.add(100.0); // overflow bin: no upper edge, no midpoint
        assert_eq!(h.percentile(0.0), Some(0.5));
        assert_eq!(h.percentile(100.0), None);
    }
}
