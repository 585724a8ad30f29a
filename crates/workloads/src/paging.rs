//! Virtual → physical translation under 2 MB huge pages.
//!
//! All of the paper's experiments run under 2 MB huge pages (§III, §V) so
//! that Morphable counter blocks — which cover two *physically* adjacent
//! 4 KB pages — retain their full 8 KB coverage. The pager allocates a
//! random (but deterministic) 2 MB physical frame per touched virtual
//! page, so physical locality within a page is perfect and locality across
//! pages is destroyed, exactly like a real first-touch allocator.

use std::collections::HashMap;

use emcc_sim::{LineAddr, Rng64};

/// Lines per 2 MB huge page.
const LINES_PER_PAGE: u64 = (2 * 1024 * 1024) / emcc_sim::mem::LINE_BYTES;

/// A demand-allocating 2 MB huge-page mapper.
///
/// # Examples
///
/// ```
/// use emcc_workloads::HugePager;
/// use emcc_sim::LineAddr;
///
/// let mut p = HugePager::new(7, 1 << 31);
/// let a = p.translate(LineAddr::new(0));
/// let b = p.translate(LineAddr::new(1));
/// // Same huge page ⇒ adjacent physical lines.
/// assert_eq!(b.get(), a.get() + 1);
/// ```
#[derive(Debug, Clone)]
pub struct HugePager {
    rng: Rng64,
    frames: u64,
    map: HashMap<u64, u64>,
    used: Vec<bool>,
}

impl HugePager {
    /// Creates a pager over a physical space of `phys_lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if the physical space holds fewer than one huge page.
    pub fn new(seed: u64, phys_lines: u64) -> Self {
        let frames = phys_lines / LINES_PER_PAGE;
        assert!(frames > 0, "physical space smaller than one huge page");
        HugePager {
            rng: Rng64::new(seed ^ 0x9A6E_17B5),
            frames,
            map: HashMap::new(),
            used: vec![false; frames as usize],
        }
    }

    /// Translates a virtual line to its physical line, allocating the
    /// containing huge page on first touch.
    pub fn translate(&mut self, virt: LineAddr) -> LineAddr {
        let vpage = virt.get() / LINES_PER_PAGE;
        let offset = virt.get() % LINES_PER_PAGE;
        let frame = match self.map.get(&vpage) {
            Some(&f) => f,
            None => {
                let f = self.alloc_frame();
                self.map.insert(vpage, f);
                f
            }
        };
        LineAddr::new(frame * LINES_PER_PAGE + offset)
    }

    fn alloc_frame(&mut self) -> u64 {
        // Random first-touch placement; linear-probe on collision.
        let mut f = self.rng.below(self.frames);
        let mut probes = 0;
        while self.used[f as usize] {
            f = (f + 1) % self.frames;
            probes += 1;
            assert!(probes <= self.frames, "physical memory exhausted");
        }
        self.used[f as usize] = true;
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_page_contiguity() {
        let mut p = HugePager::new(1, 1 << 31);
        let base = p.translate(LineAddr::new(0)).get();
        for i in 1..LINES_PER_PAGE {
            assert_eq!(p.translate(LineAddr::new(i)).get(), base + i);
        }
    }

    #[test]
    fn translation_is_stable() {
        let mut p = HugePager::new(1, 1 << 31);
        let a = p.translate(LineAddr::new(999_999));
        let b = p.translate(LineAddr::new(999_999));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut p = HugePager::new(1, 1 << 31);
        let mut frames = std::collections::HashSet::new();
        for v in 0..100u64 {
            let pa = p.translate(LineAddr::new(v * LINES_PER_PAGE));
            assert!(frames.insert(pa.get() / LINES_PER_PAGE), "frame reused");
        }
    }

    #[test]
    fn cross_page_locality_destroyed() {
        // Consecutive virtual pages are (almost always) non-adjacent
        // physically — this is what breaks naive counter prefetching.
        let mut p = HugePager::new(3, 1 << 31);
        let mut adjacent = 0;
        for v in 0..200u64 {
            let a = p.translate(LineAddr::new(v * LINES_PER_PAGE)).get();
            let b = p.translate(LineAddr::new((v + 1) * LINES_PER_PAGE)).get();
            if b == a + LINES_PER_PAGE {
                adjacent += 1;
            }
        }
        assert!(adjacent < 20, "too much accidental physical adjacency");
    }

    #[test]
    #[should_panic]
    fn exhaustion_detected() {
        // 4 frames only.
        let mut p = HugePager::new(1, 4 * LINES_PER_PAGE);
        for v in 0..5u64 {
            p.translate(LineAddr::new(v * LINES_PER_PAGE));
        }
    }
}
