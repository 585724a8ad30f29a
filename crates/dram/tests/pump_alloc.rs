//! The DRAM pump makes no heap allocation: a caller that reuses its
//! completion buffer pumps without touching the heap.
//!
//! A counting global allocator observes every allocation in this test
//! binary, which holds this one test so no other test thread allocates
//! while a pump is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use emcc_dram::{Dram, DramConfig, DramRequest, RequestClass};
use emcc_sim::{LineAddr, Rng64, Time};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn pump_makes_no_heap_allocation() {
    for channels in [1, 8] {
        // A small queue makes arrivals wait for a free entry, so pumps
        // also move waiting requests into the queue.
        let mut cfg = DramConfig::table_i(channels);
        cfg.queue_capacity = 8;
        let mut dram = Dram::new(cfg);
        let mut issued = Vec::with_capacity(channels);
        let mut rng = Rng64::new(5);
        let mut now = Time::ZERO;
        let (mut pumps, mut completed, mut in_pump) = (0u64, 0u64, 0u64);
        for id in 0..4_000u64 {
            let line = LineAddr::new(rng.below(1 << 24));
            let req = if rng.chance(0.3) {
                DramRequest::write(id, line, RequestClass::Data)
            } else {
                DramRequest::read(id, line, RequestClass::Data)
            };
            dram.enqueue(req, now);
            // Several pumps per arrival drain the queues between bursts.
            for _ in 0..3 {
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let next_wake = dram.pump(now, &mut issued);
                in_pump += ALLOCATIONS.load(Ordering::Relaxed) - before;
                pumps += 1;
                completed += issued.len() as u64;
                issued.clear();
                now = next_wake.unwrap_or(now).max(now + Time::from_ns(1));
            }
        }
        assert!(completed > 1_000, "{channels} channel(s): too few issues");
        assert_eq!(
            in_pump, 0,
            "{channels} channel(s): {in_pump} allocations in {pumps} pumps"
        );
    }
}
