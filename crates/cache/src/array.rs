//! Set-associative cache array with true-LRU replacement.

use emcc_sim::LineAddr;

/// Static shape of a cache: capacity and associativity over 64 B lines.
///
/// # Examples
///
/// ```
/// use emcc_cache::CacheConfig;
///
/// let l2 = CacheConfig::new(1024 * 1024, 8); // Table I: 1 MB, 8-way
/// assert_eq!(l2.num_sets(), 2048);
/// assert_eq!(l2.capacity_lines(), 16384);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    size_bytes: u64,
    ways: u32,
}

impl CacheConfig {
    /// Creates a config for a cache of `size_bytes` with `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics unless the implied number of sets is a positive power of two
    /// (index bits must be maskable).
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "need at least one way");
        let lines = size_bytes / emcc_sim::mem::LINE_BYTES;
        assert!(
            lines > 0 && lines.is_multiple_of(u64::from(ways)),
            "size/ways mismatch"
        );
        let sets = lines / u64::from(ways);
        assert!(
            sets.is_power_of_two(),
            "sets must be a power of two, got {sets}"
        );
        CacheConfig { size_bytes, ways }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.capacity_lines() / u64::from(self.ways)
    }

    /// Total capacity in 64 B lines.
    pub fn capacity_lines(&self) -> u64 {
        self.size_bytes / emcc_sim::mem::LINE_BYTES
    }
}

/// One resident cache line plus caller-defined metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine<M> {
    /// The line's address.
    pub addr: LineAddr,
    /// Whether the line was dirty (needs write-back).
    pub dirty: bool,
    /// Caller-defined metadata carried by the line.
    pub meta: M,
}

#[derive(Debug, Clone)]
struct Way<M> {
    addr: LineAddr,
    dirty: bool,
    meta: M,
    last_use: u64,
}

/// A set-associative, true-LRU cache array.
///
/// The array tracks presence, dirtiness and per-line metadata `M`; it does
/// not know about latency (the timing model charges that) or data contents
/// (the functional model lives in `emcc-secmem`).
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    config: CacheConfig,
    sets: Vec<Vec<Way<M>>>,
    clock: u64,
    resident: u64,
}

impl<M> SetAssocCache<M> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = (0..config.num_sets())
            .map(|_| Vec::with_capacity(config.ways() as usize))
            .collect();
        SetAssocCache {
            config,
            sets,
            clock: 0,
            resident: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of lines currently resident.
    pub fn len(&self) -> u64 {
        self.resident
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    #[inline]
    fn set_index(&self, addr: LineAddr) -> usize {
        (addr.get() & (self.config.num_sets() - 1)) as usize
    }

    /// Looks up `addr`, updating LRU state. Returns hit/miss.
    pub fn touch(&mut self, addr: LineAddr) -> bool {
        self.get_mut(addr).is_some()
    }

    /// Looks up `addr` without perturbing LRU state.
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.peek(addr).is_some()
    }

    /// Reference to the line's metadata without touching LRU state.
    pub fn peek(&self, addr: LineAddr) -> Option<&M> {
        let set = &self.sets[self.set_index(addr)];
        set.iter().find(|w| w.addr == addr).map(|w| &w.meta)
    }

    /// Mutable access to the line's metadata, updating LRU state.
    pub fn get_mut(&mut self, addr: LineAddr) -> Option<&mut M> {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        set.iter_mut().find(|w| w.addr == addr).map(|w| {
            w.last_use = clock;
            &mut w.meta
        })
    }

    /// Marks a resident line dirty (e.g. a store hit), updating LRU state.
    ///
    /// Returns false if the line is not resident.
    pub fn mark_dirty(&mut self, addr: LineAddr) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(addr);
        match self.sets[idx].iter_mut().find(|w| w.addr == addr) {
            Some(w) => {
                w.dirty = true;
                w.last_use = clock;
                true
            }
            None => false,
        }
    }

    /// Inserts (or refreshes) a line, returning the LRU victim if the set
    /// was full.
    ///
    /// If `addr` is already resident its dirty bit is OR-ed and metadata
    /// replaced — the fill path and a racing store commute.
    pub fn insert(&mut self, addr: LineAddr, dirty: bool, meta: M) -> Option<EvictedLine<M>> {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.config.ways() as usize;
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];

        if let Some(w) = set.iter_mut().find(|w| w.addr == addr) {
            w.dirty |= dirty;
            w.meta = meta;
            w.last_use = clock;
            return None;
        }

        let victim = if set.len() == ways {
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_use)
                .expect("set is full, victim exists");
            let w = set.swap_remove(vi);
            self.resident -= 1;
            Some(EvictedLine {
                addr: w.addr,
                dirty: w.dirty,
                meta: w.meta,
            })
        } else {
            None
        };

        set.push(Way {
            addr,
            dirty,
            meta,
            last_use: clock,
        });
        self.resident += 1;
        victim
    }

    /// Removes a line, returning its state if it was resident.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<EvictedLine<M>> {
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|w| w.addr == addr)?;
        let w = set.swap_remove(pos);
        self.resident -= 1;
        Some(EvictedLine {
            addr: w.addr,
            dirty: w.dirty,
            meta: w.meta,
        })
    }

    /// Iterates over resident lines as `(addr, dirty, &meta)`.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, bool, &M)> + '_ {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|w| (w.addr, w.dirty, &w.meta)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache<u32> {
        // 4 sets x 2 ways.
        SetAssocCache::new(CacheConfig::new(8 * 64, 2))
    }

    #[test]
    fn config_shapes() {
        let c = CacheConfig::new(128 * 1024, 32); // MC counter cache
        assert_eq!(c.capacity_lines(), 2048);
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    #[should_panic]
    fn config_rejects_non_pow2_sets() {
        let _ = CacheConfig::new(3 * 64, 1);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(!c.touch(LineAddr::new(5)));
        assert!(c.insert(LineAddr::new(5), false, 1).is_none());
        assert!(c.touch(LineAddr::new(5)));
        assert_eq!(c.peek(LineAddr::new(5)), Some(&1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Addresses 0, 4, 8 map to set 0 (4 sets).
        c.insert(LineAddr::new(0), false, 0);
        c.insert(LineAddr::new(4), false, 0);
        c.touch(LineAddr::new(0)); // 4 becomes LRU
        let ev = c.insert(LineAddr::new(8), false, 0).expect("set full");
        assert_eq!(ev.addr, LineAddr::new(4));
        assert!(c.contains(LineAddr::new(0)));
        assert!(c.contains(LineAddr::new(8)));
    }

    #[test]
    fn dirty_propagates_through_eviction() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), false, 0);
        assert!(c.mark_dirty(LineAddr::new(0)));
        c.insert(LineAddr::new(4), false, 0);
        let ev = c.insert(LineAddr::new(8), false, 0).unwrap();
        assert_eq!(ev.addr, LineAddr::new(0));
        assert!(ev.dirty);
    }

    #[test]
    fn reinsert_merges_dirty_bit() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), true, 7);
        assert!(c.insert(LineAddr::new(0), false, 9).is_none());
        let lines: Vec<_> = c.iter().collect();
        assert_eq!(lines, vec![(LineAddr::new(0), true, &9)]);
        assert_eq!(c.peek(LineAddr::new(0)), Some(&9));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(LineAddr::new(3), true, 2);
        let ev = c.invalidate(LineAddr::new(3)).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.meta, 2);
        assert!(!c.contains(LineAddr::new(3)));
        assert!(c.invalidate(LineAddr::new(3)).is_none());
    }

    #[test]
    fn mark_dirty_on_absent_line_fails() {
        let mut c = tiny();
        assert!(!c.mark_dirty(LineAddr::new(1)));
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), false, 0);
        c.insert(LineAddr::new(4), false, 0);
        // peek(0) must NOT refresh it; 0 stays LRU and gets evicted.
        assert!(c.peek(LineAddr::new(0)).is_some());
        let ev = c.insert(LineAddr::new(8), false, 0).unwrap();
        assert_eq!(ev.addr, LineAddr::new(0));
    }

    #[test]
    fn iter_sees_all_lines() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), false, 0);
        c.insert(LineAddr::new(1), true, 1);
        let mut v: Vec<_> = c.iter().map(|(a, d, &m)| (a.get(), d, m)).collect();
        v.sort();
        assert_eq!(v, vec![(0, false, 0), (1, true, 1)]);
    }

    #[test]
    fn capacity_is_respected_under_stress() {
        let mut c = tiny();
        let mut rng = emcc_sim::Rng64::new(1);
        for _ in 0..10_000 {
            c.insert(LineAddr::new(rng.below(64)), rng.chance(0.5), 0);
        }
        assert!(c.len() <= c.config().capacity_lines());
        // Every set holds at most `ways` lines.
        for s in 0..c.config().num_sets() {
            let in_set = c
                .iter()
                .filter(|(a, _, _)| a.get() % c.config().num_sets() == s)
                .count();
            assert!(in_set <= c.config().ways() as usize);
        }
    }
}
