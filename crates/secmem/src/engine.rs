//! Bandwidth-limited AES engine pool.
//!
//! §V sizes AES bandwidth from the DDR4-3200 peak: 400 M accesses/s, five
//! AES per read + eight per write ⇒ 2.6 G AES/s for the whole chip under
//! Morphable. EMCC moves half of that from the MC to the L2s (81.25 M
//! *block operations*/s per L2 at the 50/4 split, since a block decryption
//! = 4 OTP AES + 1 MAC AES issued to parallel units).
//!
//! The pool is modeled as a pipelined server: operations *start* at a
//! bounded rate (1 / `interval`) and each takes `latency` to finish. The
//! queue delay visible at a given instant is what EMCC's adaptive-offload
//! heuristic inspects (§IV-D: "when EMCC determines that the AES queuing
//! time for a new L2 miss exceeds the latency that can be saved...").

use emcc_sim::Time;

/// A pool of AES units with a start-rate limit and fixed latency.
///
/// # Examples
///
/// ```
/// use emcc_secmem::AesPool;
/// use emcc_sim::Time;
///
/// // 100M block-ops/s, 14 ns latency.
/// let mut pool = AesPool::new(100_000_000.0, Time::from_ns(14));
/// let t0 = Time::from_ns(100);
/// let (start, done) = pool.schedule(t0);
/// assert_eq!(start, t0);
/// assert_eq!(done, t0 + Time::from_ns(14));
/// // Back-to-back ops are spaced by the 10 ns start interval.
/// let (start2, _) = pool.schedule(t0);
/// assert_eq!(start2, t0 + Time::from_ns(10));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AesPool {
    interval: Time,
    latency: Time,
    next_start: Time,
    scheduled: u64,
}

impl AesPool {
    /// Creates a pool with `ops_per_second` start bandwidth and `latency`
    /// per operation.
    ///
    /// # Panics
    ///
    /// Panics if `ops_per_second` is not positive and finite.
    pub fn new(ops_per_second: f64, latency: Time) -> Self {
        assert!(
            ops_per_second.is_finite() && ops_per_second > 0.0,
            "invalid AES bandwidth"
        );
        AesPool {
            interval: Time::from_ps((1e12 / ops_per_second).round() as u64),
            latency,
            next_start: Time::ZERO,
            scheduled: 0,
        }
    }

    /// Per-operation latency.
    pub fn latency(&self) -> Time {
        self.latency
    }

    /// Minimum spacing between operation starts.
    pub fn interval(&self) -> Time {
        self.interval
    }

    /// Queue delay a new operation would see at `now` (0 when idle).
    pub fn queue_delay(&self, now: Time) -> Time {
        self.next_start.saturating_sub(now)
    }

    /// Schedules one block operation at `now`, returning `(start, done)`.
    pub fn schedule(&mut self, now: Time) -> (Time, Time) {
        let start = now.max(self.next_start);
        self.next_start = start + self.interval;
        self.scheduled += 1;
        (start, start + self.latency)
    }

    /// Schedules one block operation and returns it as an AES work span
    /// for critical-path attribution.
    pub fn schedule_span(&mut self, now: Time) -> emcc_sim::trace::Span {
        let (start, done) = self.schedule(now);
        emcc_sim::trace::Span::new(emcc_sim::trace::Component::Aes, start, done)
    }

    /// Total operations scheduled.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }
}

/// Computes the paper's §V AES bandwidth split.
///
/// Returns `(mc_block_ops_per_sec, per_l2_block_ops_per_sec)` for a given
/// fraction of AES units moved to the L2s. A "block op" bundles the
/// parallel AES invocations of one block (4 OTP + 1 MAC for reads), so the
/// 2.6 G AES/s chip budget is 2.6e9/5 read-equivalent block-ops; the §V
/// arithmetic for the 50% split and 4 L2s yields 325 M AES/s = 65 M block
/// ops/s per L2.
///
/// # Examples
///
/// ```
/// use emcc_secmem::engine::split_aes_bandwidth;
///
/// let (_mc, l2) = split_aes_bandwidth(0.5, 4);
/// assert!((l2 - 65_000_000.0).abs() < 1.0);
/// ```
pub fn split_aes_bandwidth(fraction_to_l2: f64, num_l2: usize) -> (f64, f64) {
    assert!(
        (0.0..=1.0).contains(&fraction_to_l2),
        "fraction out of range"
    );
    assert!(num_l2 > 0, "need at least one L2");
    const CHIP_AES_PER_SEC: f64 = 2_600_000_000.0;
    const AES_PER_BLOCK_OP: f64 = 5.0; // 4 OTPs + 1 MAC, issued in parallel
    let total_block_ops = CHIP_AES_PER_SEC / AES_PER_BLOCK_OP;
    let to_l2 = total_block_ops * fraction_to_l2;
    (total_block_ops - to_l2, to_l2 / num_l2 as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_pool_has_no_queue() {
        let pool = AesPool::new(1e9, Time::from_ns(14));
        assert_eq!(pool.queue_delay(Time::from_ns(5)), Time::ZERO);
    }

    #[test]
    fn queue_builds_under_burst() {
        let mut pool = AesPool::new(100_000_000.0, Time::from_ns(14)); // 10ns interval
        let t = Time::from_ns(0);
        for _ in 0..5 {
            pool.schedule(t);
        }
        // After 5 back-to-back ops the 6th would wait 50 ns.
        assert_eq!(pool.queue_delay(t), Time::from_ns(50));
        assert_eq!(pool.scheduled(), 5);
    }

    #[test]
    fn queue_drains_with_time() {
        let mut pool = AesPool::new(100_000_000.0, Time::from_ns(14));
        for _ in 0..5 {
            pool.schedule(Time::ZERO);
        }
        assert_eq!(pool.queue_delay(Time::from_ns(50)), Time::ZERO);
        let (start, done) = pool.schedule(Time::from_ns(60));
        assert_eq!(start, Time::from_ns(60));
        assert_eq!(done, Time::from_ns(74));
    }

    #[test]
    fn bandwidth_split_matches_paper() {
        // §V: 50% to 4 L2s → 325M AES/s per L2 = 65M block-ops/s; the MC
        // retains 1.3G AES/s = 260M block-ops/s.
        let (mc, l2) = split_aes_bandwidth(0.5, 4);
        assert!((mc - 260_000_000.0).abs() < 1.0);
        assert!((l2 - 65_000_000.0).abs() < 1.0);
    }

    #[test]
    fn split_extremes() {
        let (mc, l2) = split_aes_bandwidth(0.0, 4);
        assert_eq!(l2, 0.0 / 4.0);
        assert!((mc - 520_000_000.0).abs() < 1.0);
        let (mc, _) = split_aes_bandwidth(1.0, 4);
        assert_eq!(mc, 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_bandwidth_rejected() {
        let _ = AesPool::new(0.0, Time::from_ns(14));
    }
}
