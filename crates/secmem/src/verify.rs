//! Verification outcomes and the recovery policy for integrity failures.
//!
//! The paper (§IV-D) specifies *detection*: a MAC mismatch raises an
//! ECC-style machine-check interrupt. What a real memory system does next
//! is platform policy; this module pins down the policy our timing model
//! implements so campaigns are reproducible and documented:
//!
//! 1. **Bounded re-fetch retry.** A failed verification re-reads the line
//!    from DRAM up to [`RetryPolicy::max_attempts`] times, with
//!    exponential backoff measured in DRAM clock ticks (DDR4-3200:
//!    tCK = 0.625 ns). Before each retry the covering counter block is
//!    invalidated from every cached copy and the tree is re-walked, so a
//!    stale cached counter cannot mask (or cause) repeated failures.
//! 2. **Graceful degradation.** Under EMCC, an L2 whose local
//!    verifications keep failing (a streak of
//!    [`RecoveryConfig::l2_fallback_threshold`] consecutive failures)
//!    stops verifying locally and offloads to MC-side verification — the
//!    same adaptive-offload lever as §IV-F, reused as a safety valve.
//! 3. **Unrecoverable faults** (still failing after the last retry) are
//!    surfaced as machine-check events in `SimReport` and the simulation
//!    continues, mirroring an OS that logs and poisons the page.

use emcc_sim::Time;

/// DDR4-3200 clock period: backoff is quantised to this tick.
pub const DRAM_TCK: Time = Time::from_ps(625);

/// Bounded-retry policy with exponential backoff in DRAM clock ticks.
///
/// # Examples
///
/// ```
/// use emcc_secmem::verify::RetryPolicy;
///
/// let p = RetryPolicy::default(); // 3 attempts, 64-tick base
/// assert!(p.should_retry(0) && p.should_retry(2) && !p.should_retry(3));
/// assert_eq!(p.backoff(1), p.backoff(0) * 2); // exponential
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Maximum re-fetch attempts after the initial failed read.
    pub max_attempts: u32,
    /// Backoff before the first retry, in DRAM clock ticks.
    pub base_ticks: u64,
}

impl Default for RetryPolicy {
    /// Three retries starting at 64 tCK (40 ns) — comparable to a DRAM
    /// row-miss, long enough for a transient bus glitch to clear.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_ticks: 64,
        }
    }
}

impl RetryPolicy {
    /// Whether another retry is allowed after `attempts` failed retries.
    pub fn should_retry(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }

    /// Backoff delay before retry number `attempt` (0-based):
    /// `base_ticks * 2^attempt` DRAM clock ticks, capped at 2^20 ticks
    /// (~0.65 ms) so a misconfigured policy cannot wedge the event queue.
    pub fn backoff(&self, attempt: u32) -> Time {
        let ticks = self
            .base_ticks
            .saturating_mul(1u64 << attempt.min(20))
            .min(1 << 20);
        Time::from_ps(DRAM_TCK.as_ps() * ticks)
    }

    /// Total delay spent if every one of the policy's retries fires: the
    /// sum of [`Self::backoff`] over `0..max_attempts`, saturating. This is
    /// the bound the service layer compares against a per-op timeout, so it
    /// must never overflow regardless of configuration: each term is capped
    /// at 2^20 ticks (0.655 ms), so even `u32::MAX` attempts stay below
    /// 2^52 picoseconds-equivalents, far under `u64::MAX`.
    pub fn cumulative_backoff(&self) -> Time {
        let mut total: u64 = 0;
        for attempt in 0..self.max_attempts {
            total = total.saturating_add(self.backoff(attempt).as_ps());
            // Every attempt past the cap point contributes the same capped
            // term; close the sum arithmetically instead of iterating to
            // u32::MAX.
            if self.backoff(attempt) == self.backoff(attempt.saturating_add(1)) {
                let rest = u64::from(self.max_attempts - attempt - 1);
                total = total.saturating_add(rest.saturating_mul(self.backoff(attempt).as_ps()));
                break;
            }
        }
        Time::from_ps(total)
    }
}

/// Full recovery configuration threaded through `SystemConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecoveryConfig {
    /// Re-fetch retry policy for failed verifications.
    pub retry: RetryPolicy,
    /// Consecutive local-verify failures after which an EMCC L2 falls back
    /// to MC-side verification for the rest of the run.
    pub l2_fallback_threshold: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            retry: RetryPolicy::default(),
            l2_fallback_threshold: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_in_ticks() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_ticks: 64,
        };
        assert_eq!(p.backoff(0), Time::from_ns(40)); // 64 * 0.625 ns
        assert_eq!(p.backoff(1), Time::from_ns(80));
        assert_eq!(p.backoff(2), Time::from_ns(160));
    }

    #[test]
    fn backoff_is_capped() {
        let p = RetryPolicy {
            max_attempts: 64,
            base_ticks: 1 << 19,
        };
        let cap = Time::from_ps(DRAM_TCK.as_ps() * (1 << 20));
        assert_eq!(p.backoff(63), cap);
        assert_eq!(p.backoff(20), cap);
    }

    #[test]
    fn retry_budget() {
        let p = RetryPolicy::default();
        assert!(p.should_retry(0));
        assert!(p.should_retry(2));
        assert!(!p.should_retry(3));
        assert!(!p.should_retry(100));
    }
}
