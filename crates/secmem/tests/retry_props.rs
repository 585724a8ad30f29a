//! Property tests for the retry/backoff arithmetic in
//! `emcc_secmem::verify::RetryPolicy`, the timing model's verify-retry
//! policy: the DRAM re-fetch schedule charges `RetryPolicy::backoff`
//! per retry, so a cap violation would let a misconfigured policy wedge
//! the event queue.

use emcc_secmem::verify::{RetryPolicy, DRAM_TCK};
use emcc_sim::Time;
use proptest::prelude::*;

/// The hard ceiling on any single backoff term: 2^20 DRAM ticks.
const CAP_PS: u64 = DRAM_TCK.as_ps() * (1 << 20);

proptest! {
    /// Every single backoff term respects the 2^20-tick cap.
    #[test]
    fn backoff_respects_cap(
        base in 0u64..=u64::MAX,
        attempt in 0u32..=1_000_000,
    ) {
        let p = RetryPolicy { max_attempts: 1, base_ticks: base };
        prop_assert!(
            p.backoff(attempt).as_ps() <= CAP_PS,
            "backoff({attempt}) = {} ps exceeds cap {} ps",
            p.backoff(attempt).as_ps(),
            CAP_PS
        );
    }

    /// Backoff is monotone non-decreasing in the attempt index (it
    /// doubles until the cap, then stays at the cap).
    #[test]
    fn backoff_is_monotone_in_attempt(
        base in 0u64..=(1u64 << 40),
        attempt in 0u32..64,
    ) {
        let p = RetryPolicy { max_attempts: 1, base_ticks: base };
        prop_assert!(
            p.backoff(attempt) <= p.backoff(attempt + 1),
            "backoff({}) = {:?} > backoff({}) = {:?}",
            attempt, p.backoff(attempt), attempt + 1, p.backoff(attempt + 1)
        );
    }

    /// `should_retry` is exactly the budget predicate: true strictly
    /// below `max_attempts`, false at and beyond it.
    #[test]
    fn should_retry_is_budget_boundary(
        max_attempts in 0u32..1_000,
        probe in 0u32..2_000,
    ) {
        let p = RetryPolicy { max_attempts, base_ticks: 64 };
        prop_assert_eq!(p.should_retry(probe), probe < max_attempts);
    }
}

/// Zero retries means not even the first retry is allowed.
#[test]
fn zero_attempts_zero_delay() {
    let p = RetryPolicy {
        max_attempts: 0,
        base_ticks: u64::MAX,
    };
    assert!(!p.should_retry(0));
}

/// A zero base never backs off, regardless of attempt count.
#[test]
fn zero_base_never_backs_off() {
    let p = RetryPolicy {
        max_attempts: u32::MAX,
        base_ticks: 0,
    };
    assert_eq!(p.backoff(0), Time::ZERO);
    assert_eq!(p.backoff(63), Time::ZERO);
}
