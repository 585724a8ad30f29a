//! XPT-style LLC miss prediction.
//!
//! Intel's XPT ("eXtended Prediction Table") forwards an L2 miss directly
//! to the memory controller in parallel with the LLC lookup when the miss
//! is predicted to also miss in LLC (§IV-D, Fig 14). We model it as a
//! per-core table of 2-bit saturating counters indexed by a hash of the
//! 4 KB region, trained on actual LLC outcomes. Irregular workloads miss
//! LLC ~91% of the time (§IV-D), so the predictor quickly saturates toward
//! "miss" for their regions.

use emcc_sim::LineAddr;

/// A per-core LLC miss predictor.
///
/// # Examples
///
/// ```
/// use emcc_system::XptPredictor;
/// use emcc_sim::LineAddr;
///
/// let mut p = XptPredictor::new(1024);
/// let line = LineAddr::new(42);
/// // Cold predictor leans toward "miss" after observing misses.
/// p.train(line, true);
/// p.train(line, true);
/// assert!(p.predict_miss(line));
/// ```
#[derive(Debug, Clone)]
pub struct XptPredictor {
    counters: Vec<u8>,
}

/// Lines per 4 KB training region.
const REGION_LINES: u64 = 64;

impl XptPredictor {
    /// Creates a predictor with `entries` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a positive power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two() && entries > 0,
            "entries must be a power of two"
        );
        // Initialize weakly toward "miss": a cold region's first access
        // almost certainly misses the LLC.
        XptPredictor {
            counters: vec![2; entries],
        }
    }

    fn index(&self, line: LineAddr) -> usize {
        let region = line.get() / REGION_LINES;
        let h = region.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) & (self.counters.len() - 1)
    }

    /// Predicts whether `line` will miss in the LLC.
    pub fn predict_miss(&self, line: LineAddr) -> bool {
        self.counters[self.index(line)] >= 2
    }

    /// Trains on the observed outcome (`missed` = true if LLC missed).
    pub fn train(&mut self, line: LineAddr, missed: bool) {
        let i = self.index(line);
        let c = &mut self.counters[i];
        if missed {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_miss_heavy_region() {
        let mut p = XptPredictor::new(256);
        let line = LineAddr::new(1000);
        for _ in 0..4 {
            p.train(line, true);
        }
        assert!(p.predict_miss(line));
    }

    #[test]
    fn learns_hit_heavy_region() {
        let mut p = XptPredictor::new(256);
        let line = LineAddr::new(1000);
        for _ in 0..4 {
            p.train(line, false);
        }
        assert!(!p.predict_miss(line));
    }

    #[test]
    fn regions_share_counters() {
        let mut p = XptPredictor::new(256);
        // Lines in the same 4 KB region share a counter.
        let a = LineAddr::new(0);
        let b = LineAddr::new(63);
        for _ in 0..4 {
            p.train(a, false);
        }
        assert!(!p.predict_miss(b));
        // A different region is independent.
        let c = LineAddr::new(64);
        for _ in 0..4 {
            p.train(c, true);
        }
        assert!(p.predict_miss(c));
        assert!(!p.predict_miss(b));
    }

    #[test]
    fn cold_predictor_leans_miss() {
        let p = XptPredictor::new(256);
        assert!(p.predict_miss(LineAddr::new(123_456)));
    }

    #[test]
    #[should_panic]
    fn non_pow2_rejected() {
        let _ = XptPredictor::new(100);
    }
}
