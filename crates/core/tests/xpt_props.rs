//! Property tests for the XPT miss predictor.
//!
//! The predictor drives speculative fills: a wrong "miss" prediction
//! forwards a request to the MC whose fill is later discarded, so the
//! properties pin the saturation and region-sharing behavior the discard
//! accounting (`xpt_wasted ≤ xpt_forwards`) depends on.

use emcc_sim::LineAddr;
use emcc_system::XptPredictor;
use proptest::prelude::*;

proptest! {
    /// Two consecutive miss-trainings force a "miss" prediction from any
    /// starting state (counter floor 0 + 2 increments reaches the ≥2
    /// threshold), no matter what training history preceded them.
    #[test]
    fn two_miss_trains_force_predict_miss(
        line in 0u64..1_000_000,
        history in prop::collection::vec(any::<bool>(), 0..=16),
    ) {
        let mut p = XptPredictor::new(256);
        let addr = LineAddr::new(line);
        for missed in history {
            p.train(addr, missed);
        }
        p.train(addr, true);
        p.train(addr, true);
        prop_assert!(p.predict_miss(addr));
    }

    /// Three consecutive hit-trainings force a "hit" prediction from any
    /// starting state: saturation at 3 means three decrements always land
    /// below the threshold. This is the path that stops wasteful
    /// speculative fills once a region turns LLC-resident.
    #[test]
    fn three_hit_trains_force_predict_hit(
        line in 0u64..1_000_000,
        history in prop::collection::vec(any::<bool>(), 0..=16),
    ) {
        let mut p = XptPredictor::new(256);
        let addr = LineAddr::new(line);
        for missed in history {
            p.train(addr, missed);
        }
        for _ in 0..3 {
            p.train(addr, false);
        }
        prop_assert!(!p.predict_miss(addr));
    }

    /// Saturation is real: an arbitrarily long miss streak is forgotten
    /// after the same three hit-trainings (the counter cannot wind up
    /// past 3), and symmetrically a long hit streak after two
    /// miss-trainings. Unbounded counters would fail both directions.
    #[test]
    fn streak_length_does_not_delay_turnaround(
        line in 0u64..1_000_000,
        streak in 4usize..=64,
    ) {
        let addr = LineAddr::new(line);

        let mut p = XptPredictor::new(256);
        for _ in 0..streak {
            p.train(addr, true);
        }
        for _ in 0..3 {
            p.train(addr, false);
        }
        prop_assert!(!p.predict_miss(addr), "miss streak {} survived 3 hits", streak);

        let mut p = XptPredictor::new(256);
        for _ in 0..streak {
            p.train(addr, false);
        }
        p.train(addr, true);
        p.train(addr, true);
        prop_assert!(p.predict_miss(addr), "hit streak {} survived 2 misses", streak);
    }

    /// All lines of one 4 KB region share a counter: training on any line
    /// in the region steers predictions for every other line in it.
    #[test]
    fn region_lines_share_training(
        region in 0u64..10_000,
        off_a in 0u64..64,
        off_b in 0u64..64,
        toward_miss in any::<bool>(),
    ) {
        let mut p = XptPredictor::new(256);
        let a = LineAddr::new(region * 64 + off_a);
        let b = LineAddr::new(region * 64 + off_b);
        for _ in 0..4 {
            p.train(a, toward_miss);
        }
        prop_assert_eq!(p.predict_miss(b), toward_miss);
    }
}
