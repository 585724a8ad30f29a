//! Property tests for the MSHR file: merge/full/retire edge cases.
//!
//! Random allocate/complete sequences are replayed against a naive
//! reference model (a map of line → waiter list); the MSHR file must
//! agree with the model on every observable — outcomes, waiter order,
//! occupancy, and the lifetime allocate/merge counters.

use std::collections::HashMap;

use emcc_cache::{MshrFile, MshrOutcome};
use emcc_sim::LineAddr;
use proptest::prelude::*;

proptest! {
    /// The file tracks a naive reference model exactly under arbitrary
    /// interleavings of allocates and completes over a small line pool.
    #[test]
    fn matches_reference_model(
        capacity in 1usize..=6,
        ops in prop::collection::vec((0u64..10, 0u8..4), 1..=80),
    ) {
        let mut file: MshrFile<u32> = MshrFile::new(capacity);
        let mut model: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut next_waiter = 0u32;
        let mut allocated = 0u64;
        let mut merged = 0u64;

        for (line, kind) in ops {
            let addr = LineAddr::new(line);
            if kind == 0 {
                // Retire: both sides must agree on the waiters and order.
                let got = file.complete(addr);
                let want = model.remove(&line).unwrap_or_default();
                prop_assert_eq!(got, want);
                prop_assert!(!file.is_outstanding(addr));
            } else {
                let waiter = next_waiter;
                next_waiter += 1;
                let outcome = file.allocate(addr, waiter);
                match outcome {
                    MshrOutcome::Allocated => {
                        prop_assert!(!model.contains_key(&line),
                            "allocated a line the model had outstanding");
                        allocated += 1;
                        model.insert(line, vec![waiter]);
                    }
                    MshrOutcome::Merged => {
                        let ws = model.get_mut(&line);
                        prop_assert!(ws.is_some(), "merged into an absent line");
                        merged += 1;
                        ws.unwrap().push(waiter);
                    }
                    MshrOutcome::Full => {
                        // Full is only legal when the line is new and the
                        // file is at capacity; merges never see Full.
                        prop_assert!(!model.contains_key(&line));
                        prop_assert_eq!(model.len(), capacity);
                    }
                }
            }
            // Occupancy invariants hold after every step.
            prop_assert_eq!(file.len(), model.len());
            prop_assert!(file.len() <= capacity);
            prop_assert_eq!(file.is_full(), model.len() >= capacity);
            prop_assert_eq!(file.is_empty(), model.is_empty());
        }

        // Conservation: every accepted waiter is either already retired or
        // still parked in the model.
        let outstanding: u64 = model.values().map(|ws| ws.len() as u64).sum();
        prop_assert!(allocated + merged >= outstanding);
    }

    /// At capacity the file keeps merging into existing entries while
    /// rejecting every new line, and a single retire reopens exactly one
    /// allocation slot.
    #[test]
    fn full_file_merges_but_rejects_new_lines(
        capacity in 1usize..=5,
        extra in 0u64..8,
    ) {
        let mut file: MshrFile<u32> = MshrFile::new(capacity);
        for i in 0..capacity as u64 {
            prop_assert_eq!(file.allocate(LineAddr::new(i), i as u32),
                MshrOutcome::Allocated);
        }
        prop_assert!(file.is_full());
        // New lines bounce...
        let fresh = LineAddr::new(capacity as u64 + extra);
        prop_assert_eq!(file.allocate(fresh, 99), MshrOutcome::Full);
        // ...but secondary misses to resident lines still merge.
        for i in 0..capacity as u64 {
            prop_assert_eq!(file.allocate(LineAddr::new(i), 100 + i as u32),
                MshrOutcome::Merged);
        }
        // Retiring one line frees exactly one slot.
        let got = file.complete(LineAddr::new(0));
        prop_assert_eq!(got, vec![0u32, 100]);
        prop_assert!(!file.is_full());
        prop_assert_eq!(file.allocate(fresh, 99), MshrOutcome::Allocated);
        prop_assert!(file.is_full());
    }

    /// Waiters always come back in arrival order, regardless of how many
    /// merge before the fill returns.
    #[test]
    fn waiters_retire_in_arrival_order(
        line in 0u64..1000,
        n in 1usize..=20,
    ) {
        let mut file: MshrFile<usize> = MshrFile::new(4);
        let addr = LineAddr::new(line);
        for w in 0..n {
            file.allocate(addr, w);
        }
        let got = file.complete(addr);
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
        // A second complete for the same line finds nothing.
        prop_assert_eq!(file.complete(addr), Vec::<usize>::new());
    }
}
