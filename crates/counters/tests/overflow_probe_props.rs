//! `CounterBlock::would_overflow` against the definition it replaces:
//! clone the block, increment the clone, and see whether it rebased.
//!
//! Write streams mix a few hot slots with uniform traffic, so Sc64 hot
//! slots reach 127, Morphable blocks run out of both minor width and
//! non-zero capacity, and Monolithic blocks never rebase.

use emcc_counters::{CounterBlock, CounterDesign};
use emcc_sim::Rng64;
use proptest::prelude::*;

/// Increments per case: enough for rebases under every split design.
const WRITES: usize = 3000;

proptest! {
    #[test]
    fn probe_matches_clone_and_increment(
        seed in any::<u64>(),
        hot_slots in 1u64..=8,
        hot_percent in 0u64..=100,
    ) {
        for design in CounterDesign::all() {
            let coverage = design.coverage();
            let mut rng = Rng64::new(seed);
            let mut block = CounterBlock::new(design);
            for _ in 0..WRITES {
                let slot = if rng.below(100) < hot_percent {
                    rng.below(hot_slots)
                } else {
                    rng.below(coverage)
                } as usize;
                let predicted = block.would_overflow(slot);
                let mut probe = block.clone();
                let rebased = probe.increment(slot).overflow.is_some();
                prop_assert_eq!(predicted, rebased);
                block.increment(slot);
                prop_assert_eq!(&block, &probe);
            }
        }
    }
}

#[test]
fn probe_flags_exactly_the_rebasing_write() {
    for design in CounterDesign::all() {
        let mut block = CounterBlock::new(design);
        let mut rebases = 0;
        for write in 1..=300u32 {
            let predicted = block.would_overflow(0);
            let rebased = block.increment(0).overflow.is_some();
            assert_eq!(predicted, rebased, "{design:?} write {write}");
            rebases += u32::from(rebased);
        }
        // A single hot slot rebases split designs on write 128 and every
        // 127 writes after; monolithic counters never rebase.
        let want = if design == CounterDesign::Monolithic {
            0
        } else {
            2
        };
        assert_eq!(rebases, want, "{design:?}");
    }
}
