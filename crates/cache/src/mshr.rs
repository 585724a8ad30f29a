//! Miss-status holding registers (MSHRs) with request merging.
//!
//! When a request misses, the cache allocates an MSHR entry keyed by line
//! address; subsequent misses to the same line merge into the entry
//! (secondary misses) instead of issuing duplicate downstream requests.
//! When the fill returns, all merged waiters complete together.

use emcc_sim::{FastHashMap, LineAddr};

/// Result of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// New entry allocated; the caller must issue the downstream request.
    Allocated,
    /// Merged into an outstanding entry; no downstream request needed.
    Merged,
    /// The file is full; the request must stall/retry.
    Full,
}

/// An MSHR file tracking outstanding line fills, each with a list of
/// caller-defined waiter tokens `W`.
///
/// # Examples
///
/// ```
/// use emcc_cache::{MshrFile, MshrOutcome};
/// use emcc_sim::LineAddr;
///
/// let mut m: MshrFile<u32> = MshrFile::new(4);
/// assert_eq!(m.allocate(LineAddr::new(9), 100), MshrOutcome::Allocated);
/// assert_eq!(m.allocate(LineAddr::new(9), 101), MshrOutcome::Merged);
/// assert_eq!(m.complete(LineAddr::new(9)), vec![100, 101]);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    capacity: usize,
    entries: FastHashMap<LineAddr, Vec<W>>,
    /// Recycled waiter vectors: completed entries park their (cleared)
    /// allocation here and new entries draw from it, so steady-state
    /// allocate/complete churn touches no allocator.
    spare: Vec<Vec<W>>,
}

impl<W> MshrFile<W> {
    /// Creates a file with room for `capacity` outstanding lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "need at least one MSHR");
        MshrFile {
            capacity,
            entries: FastHashMap::default(),
            spare: Vec::new(),
        }
    }

    /// Presents a miss for `addr` on behalf of `waiter`.
    pub fn allocate(&mut self, addr: LineAddr, waiter: W) -> MshrOutcome {
        if let Some(ws) = self.entries.get_mut(&addr) {
            ws.push(waiter);
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        let mut ws = self.spare.pop().unwrap_or_default();
        ws.push(waiter);
        self.entries.insert(addr, ws);
        MshrOutcome::Allocated
    }

    /// Completes a fill, returning the waiters in arrival order. Returns
    /// an empty vector if no entry was outstanding.
    pub fn complete(&mut self, addr: LineAddr) -> Vec<W> {
        self.entries.remove(&addr).unwrap_or_default()
    }

    /// Completes a fill, draining its waiters (in arrival order) into
    /// `out` without allocating. `out` is cleared first; it is left empty
    /// if no entry was outstanding. The entry's backing vector is
    /// recycled for future allocations.
    pub fn complete_into(&mut self, addr: LineAddr, out: &mut Vec<W>) {
        out.clear();
        if let Some(mut ws) = self.entries.remove(&addr) {
            out.append(&mut ws);
            self.spare.push(ws);
        }
    }

    /// True if a fill for `addr` is outstanding.
    pub fn is_outstanding(&self, addr: LineAddr) -> bool {
        self.entries.contains_key(&addr)
    }

    /// Current number of outstanding lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no further allocations are possible.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m: MshrFile<u8> = MshrFile::new(2);
        assert_eq!(m.allocate(LineAddr::new(1), 1), MshrOutcome::Allocated);
        assert_eq!(m.allocate(LineAddr::new(1), 2), MshrOutcome::Merged);
        assert!(m.is_outstanding(LineAddr::new(1)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn full_file_rejects_new_lines_but_merges() {
        let mut m: MshrFile<u8> = MshrFile::new(1);
        assert_eq!(m.allocate(LineAddr::new(1), 1), MshrOutcome::Allocated);
        assert!(m.is_full());
        assert_eq!(m.allocate(LineAddr::new(2), 2), MshrOutcome::Full);
        // Merging into the existing line still works at capacity.
        assert_eq!(m.allocate(LineAddr::new(1), 3), MshrOutcome::Merged);
    }

    #[test]
    fn complete_returns_waiters_in_order() {
        let mut m: MshrFile<u8> = MshrFile::new(4);
        m.allocate(LineAddr::new(5), 10);
        m.allocate(LineAddr::new(5), 11);
        m.allocate(LineAddr::new(5), 12);
        assert_eq!(m.complete(LineAddr::new(5)), vec![10, 11, 12]);
        assert!(!m.is_outstanding(LineAddr::new(5)));
        assert!(m.is_empty());
    }

    #[test]
    fn complete_without_entry_is_empty() {
        let mut m: MshrFile<u8> = MshrFile::new(4);
        assert_eq!(m.complete(LineAddr::new(9)), Vec::<u8>::new());
    }

    #[test]
    fn capacity_frees_after_complete() {
        let mut m: MshrFile<u8> = MshrFile::new(1);
        m.allocate(LineAddr::new(1), 1);
        m.complete(LineAddr::new(1));
        assert_eq!(m.allocate(LineAddr::new(2), 2), MshrOutcome::Allocated);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _: MshrFile<u8> = MshrFile::new(0);
    }
}
