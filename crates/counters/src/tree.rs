//! Integrity-tree geometry and counter state.
//!
//! Counter blocks (level 0) protect data lines; each level-`k+1` node is a
//! counter block protecting `arity` level-`k` blocks (§II "Counter
//! Blocks"). The tree root is pinned on-chip and never traverses the cache
//! hierarchy. All metadata blocks live in a reserved physical region so
//! they occupy cache lines like data, exactly as in designs that cache
//! counters in LLC/L2.

use emcc_sim::{FastHashMap, LineAddr};

use crate::block::{CounterBlock, IncrementResult};
use crate::design::CounterDesign;

/// First line index of the metadata region (1 << 38 lines = 16 TB byte
/// address), far above the simulated 128 GB data space.
const META_BASE_LINE: u64 = 1 << 38;

/// Line-index stride between tree levels within the metadata region.
const LEVEL_STRIDE: u64 = 1 << 32;

/// What a line address refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaKind {
    /// A regular data line.
    Data,
    /// A metadata block at the given tree level (0 = counter blocks).
    Meta {
        /// Tree level; 0 is the data counter blocks.
        level: u32,
    },
}

/// The static shape of the integrity tree for a given design and data size.
///
/// # Examples
///
/// ```
/// use emcc_counters::{CounterDesign, TreeGeometry};
///
/// // 1 M data lines (64 MB) under Morphable: 8192 counter blocks,
/// // 64 level-1 nodes, then a root.
/// let g = TreeGeometry::new(CounterDesign::Morphable, 1 << 20);
/// assert_eq!(g.blocks_at_level(0), 8192);
/// assert_eq!(g.blocks_at_level(1), 64);
/// assert_eq!(g.num_levels(), 2); // root not counted
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeGeometry {
    design: CounterDesign,
    data_lines: u64,
    /// Number of blocks at each level, excluding the on-chip root.
    levels: Vec<u64>,
}

impl TreeGeometry {
    /// Builds the geometry for `data_lines` protected lines.
    ///
    /// # Panics
    ///
    /// Panics if `data_lines` is zero or exceeds the metadata region base.
    pub fn new(design: CounterDesign, data_lines: u64) -> Self {
        assert!(data_lines > 0, "need a non-empty data region");
        assert!(
            data_lines < META_BASE_LINE,
            "data region collides with metadata region"
        );
        let arity = design.coverage();
        let mut levels = Vec::new();
        let mut blocks = data_lines.div_ceil(arity);
        while blocks > 1 {
            levels.push(blocks);
            blocks = blocks.div_ceil(arity);
        }
        if levels.is_empty() {
            // Tiny region: a single counter block, still materialized so
            // the caches have something to hold.
            levels.push(1);
        }
        TreeGeometry {
            design,
            data_lines,
            levels,
        }
    }

    /// The counter design (fixes the tree arity).
    pub fn design(&self) -> CounterDesign {
        self.design
    }

    /// The number of protected data lines the geometry was built for.
    pub fn data_lines(&self) -> u64 {
        self.data_lines
    }

    /// Number of levels, excluding the on-chip root.
    pub fn num_levels(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Number of metadata blocks at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn blocks_at_level(&self, level: u32) -> u64 {
        self.levels[level as usize]
    }

    /// Total metadata blocks across all levels.
    pub fn total_meta_blocks(&self) -> u64 {
        self.levels.iter().sum()
    }

    /// The counter block (level-0 node index) covering a data line.
    pub fn counter_block_of(&self, line: LineAddr) -> u64 {
        line.get() / self.design.coverage()
    }

    /// Line address of the counter block covering a data line.
    pub fn counter_block_addr(&self, line: LineAddr) -> LineAddr {
        self.node_addr(0, self.counter_block_of(line))
    }

    /// The slot within its counter block for a data line.
    pub fn slot_of(&self, line: LineAddr) -> usize {
        (line.get() % self.design.coverage()) as usize
    }

    /// Parent of a metadata node, or `None` if the parent is the root.
    pub fn parent_of(&self, level: u32, index: u64) -> Option<(u32, u64)> {
        let next = level + 1;
        if next >= self.num_levels() {
            None
        } else {
            Some((next, index / self.design.coverage()))
        }
    }

    /// Line address of a metadata node, as seen by the caches/DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `level`/`index` are out of range.
    pub fn node_addr(&self, level: u32, index: u64) -> LineAddr {
        assert!(level < self.num_levels(), "level out of range");
        assert!(index < self.levels[level as usize], "index out of range");
        LineAddr::new(META_BASE_LINE + u64::from(level) * LEVEL_STRIDE + index)
    }

    /// Classifies a line address as data or metadata.
    pub fn classify(&self, line: LineAddr) -> MetaKind {
        let l = line.get();
        if l < META_BASE_LINE {
            MetaKind::Data
        } else {
            MetaKind::Meta {
                level: ((l - META_BASE_LINE) / LEVEL_STRIDE) as u32,
            }
        }
    }

    /// Inverse of [`Self::node_addr`]: `(level, index)` of a metadata line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not a metadata address.
    pub fn node_of_addr(&self, line: LineAddr) -> (u32, u64) {
        match self.classify(line) {
            MetaKind::Meta { level } => {
                let index = line.get() - META_BASE_LINE - u64::from(level) * LEVEL_STRIDE;
                (level, index)
            }
            MetaKind::Data => panic!("{line:?} is not a metadata address"),
        }
    }

    /// The chain of metadata blocks needed to verify a data line's counter
    /// block, from level 0 upward (root excluded).
    pub fn verification_path(&self, line: LineAddr) -> Vec<LineAddr> {
        let mut path = Vec::with_capacity(self.levels.len());
        let mut level = 0;
        let mut idx = self.counter_block_of(line);
        loop {
            path.push(self.node_addr(level, idx));
            match self.parent_of(level, idx) {
                Some((l, i)) => {
                    level = l;
                    idx = i;
                }
                None => break,
            }
        }
        path
    }
}

/// Dynamic counter state for the whole protected memory: the counter
/// values of every data line and every tree node, stored sparsely.
///
/// The *timing* of fetching/verifying these blocks is the memory
/// controller's business; this type owns the architectural values,
/// including overflow (rebase) side effects.
///
/// # Examples
///
/// ```
/// use emcc_counters::{CounterDesign, IntegrityTree};
/// use emcc_sim::LineAddr;
///
/// let mut t = IntegrityTree::new(CounterDesign::Sc64, 1 << 16);
/// let r = t.increment_data(LineAddr::new(100));
/// assert_eq!(r.new_counter, 1);
/// assert_eq!(t.data_counter(LineAddr::new(100)), 1);
/// // Line 101 shares the counter block but not the counter.
/// assert_eq!(t.data_counter(LineAddr::new(101)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct IntegrityTree {
    geometry: TreeGeometry,
    /// (level, node index) → block state. Level 0 holds data counters;
    /// level k>0 holds counters protecting level k-1 blocks. The root's
    /// counters are level `num_levels` conceptually; they are stored here
    /// too but never generate memory traffic.
    blocks: FastHashMap<(u32, u64), CounterBlock>,
    overflows_by_level: Vec<u64>,
    morphs: u64,
    data_increments: u64,
}

impl IntegrityTree {
    /// Creates an all-zero tree over `data_lines` lines.
    pub fn new(design: CounterDesign, data_lines: u64) -> Self {
        let geometry = TreeGeometry::new(design, data_lines);
        let n = geometry.num_levels() as usize + 1;
        IntegrityTree {
            geometry,
            blocks: FastHashMap::default(),
            overflows_by_level: vec![0; n],
            morphs: 0,
            data_increments: 0,
        }
    }

    /// The static geometry.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// Current counter value of a data line.
    pub fn data_counter(&self, line: LineAddr) -> u64 {
        let cb = self.geometry.counter_block_of(line);
        let slot = self.geometry.slot_of(line);
        self.blocks.get(&(0, cb)).map_or(0, |b| b.counter(slot))
    }

    /// Increments a data line's counter (a write-back of that line).
    ///
    /// On overflow the whole counter block's covered region must be
    /// re-encrypted; the caller turns that into DRAM traffic.
    pub fn increment_data(&mut self, line: LineAddr) -> IncrementResult {
        self.data_increments += 1;
        let cb = self.geometry.counter_block_of(line);
        let slot = self.geometry.slot_of(line);
        self.bump((0, cb), slot)
    }

    /// Whether incrementing this line's counter would rebase its counter
    /// block. Functional models use this to snapshot old plaintexts before
    /// the rebase invalidates the covered region's counters.
    pub fn would_overflow_data(&self, line: LineAddr) -> bool {
        let cb = self.geometry.counter_block_of(line);
        let slot = self.geometry.slot_of(line);
        self.blocks
            .get(&(0, cb))
            .is_some_and(|b| b.would_overflow(slot))
    }

    /// Counter value protecting metadata node `(level, index)`.
    pub fn node_counter(&self, level: u32, index: u64) -> u64 {
        let arity = self.geometry.design().coverage();
        let key = (level + 1, index / arity);
        let slot = (index % arity) as usize;
        self.blocks.get(&key).map_or(0, |b| b.counter(slot))
    }

    /// Increments the counter protecting metadata node `(level, index)` —
    /// called when that node is written back to DRAM.
    pub fn increment_node(&mut self, level: u32, index: u64) -> IncrementResult {
        let arity = self.geometry.design().coverage();
        let key = (level + 1, index / arity);
        let slot = (index % arity) as usize;
        self.bump(key, slot)
    }

    fn bump(&mut self, key: (u32, u64), slot: usize) -> IncrementResult {
        let design = self.geometry.design();
        let block = self
            .blocks
            .entry(key)
            .or_insert_with(|| CounterBlock::new(design));
        let r = block.increment(slot);
        if r.overflow.is_some() {
            let lvl = key.0 as usize;
            if lvl < self.overflows_by_level.len() {
                self.overflows_by_level[lvl] += 1;
            }
        }
        if r.morphed.is_some() {
            self.morphs += 1;
        }
        r
    }

    /// The materialized counter block of tree node `(level, index)`, if
    /// any increment ever touched it; absent blocks are all-zero. Slot `s`
    /// holds the counter of the node's `s`-th child: data line
    /// `index × arity + s` at level 0, node `(level − 1, index × arity + s)`
    /// above. Level [`TreeGeometry::num_levels`] holds the on-chip root.
    pub fn node_block(&self, level: u32, index: u64) -> Option<&CounterBlock> {
        self.blocks.get(&(level, index))
    }

    /// Snapshot of every materialized level-0 block, ascending by index —
    /// the persistent counter state. A service checkpoint walks it beside
    /// the sorted stored lines and writes one record per block: its major,
    /// format tag and nonzero slots, and the lines it covers. (Functional
    /// users only ever mutate level 0: data writes bump leaf counters and
    /// node counters above stay zero, so this *is* the full tree state.)
    pub fn level0_blocks(&self) -> Vec<(u64, CounterBlock)> {
        let mut out: Vec<(u64, CounterBlock)> = self
            .blocks
            .iter()
            .filter(|((level, _), _)| *level == 0)
            .map(|(&(_, idx), b)| (idx, b.clone()))
            .collect();
        out.sort_unstable_by_key(|(idx, _)| *idx);
        out
    }

    /// Installs (or, with `None`, clears) the level-0 block at `index`
    /// during crash recovery.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside level 0 or the block's design differs
    /// from the tree's: recovery decoders validate both before calling.
    pub fn restore_level0_block(&mut self, index: u64, block: Option<CounterBlock>) {
        assert!(
            index < self.geometry.blocks_at_level(0),
            "level-0 index out of range"
        );
        match block {
            Some(b) => {
                assert_eq!(
                    b.design(),
                    self.geometry.design(),
                    "restored block design mismatch"
                );
                self.blocks.insert((0, index), b);
            }
            None => {
                self.blocks.remove(&(0, index));
            }
        }
    }

    /// Overflows observed at each level since construction. Index 0 =
    /// data-counter blocks ("level 0 overflow" in Fig 15), index 1+ =
    /// higher tree levels.
    pub fn overflows_by_level(&self) -> &[u64] {
        &self.overflows_by_level
    }

    /// Number of Morphable format changes observed.
    pub fn morphs(&self) -> u64 {
        self.morphs
    }

    /// Data-counter bumps since construction: calls to
    /// [`Self::increment_data`], whoever made them (a restore is not one).
    pub fn data_increments(&self) -> u64 {
        self.data_increments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_level_sizes() {
        // 2^31 lines (128 GB) under Morphable (arity 128 = 2^7):
        // L0 = 2^24, L1 = 2^17, L2 = 2^10, L3 = 2^3, then root.
        let g = TreeGeometry::new(CounterDesign::Morphable, 1 << 31);
        assert_eq!(g.num_levels(), 4);
        assert_eq!(g.blocks_at_level(0), 1 << 24);
        assert_eq!(g.blocks_at_level(3), 8);
    }

    #[test]
    fn geometry_sc64_vs_morphable_tree_size() {
        // §II: SC-64's first level covers 4096 blocks vs 64 for monolithic;
        // bigger arity ⇒ far fewer metadata blocks.
        let lines = 1 << 26;
        let sc = TreeGeometry::new(CounterDesign::Sc64, lines);
        let mo = TreeGeometry::new(CounterDesign::Morphable, lines);
        assert!(mo.total_meta_blocks() < sc.total_meta_blocks());
    }

    #[test]
    fn counter_block_mapping() {
        let g = TreeGeometry::new(CounterDesign::Morphable, 1 << 20);
        assert_eq!(g.counter_block_of(LineAddr::new(0)), 0);
        assert_eq!(g.counter_block_of(LineAddr::new(127)), 0);
        assert_eq!(g.counter_block_of(LineAddr::new(128)), 1);
        assert_eq!(g.slot_of(LineAddr::new(130)), 2);
    }

    #[test]
    fn node_addr_roundtrip_and_classify() {
        let g = TreeGeometry::new(CounterDesign::Morphable, 1 << 20);
        for level in 0..g.num_levels() {
            let idx = g.blocks_at_level(level) - 1;
            let addr = g.node_addr(level, idx);
            assert_eq!(g.classify(addr), MetaKind::Meta { level });
            assert_eq!(g.node_of_addr(addr), (level, idx));
        }
        assert_eq!(g.classify(LineAddr::new(500)), MetaKind::Data);
    }

    #[test]
    fn metadata_addresses_disjoint_across_levels() {
        let g = TreeGeometry::new(CounterDesign::Sc64, 1 << 28);
        let a = g.node_addr(0, 0);
        let b = g.node_addr(1, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn verification_path_walks_to_root() {
        let g = TreeGeometry::new(CounterDesign::Morphable, 1 << 31);
        let path = g.verification_path(LineAddr::new(12345));
        assert_eq!(path.len(), 4);
        // First element is the counter block itself.
        assert_eq!(path[0], g.node_addr(0, 12345 / 128));
        // Each subsequent element is the parent node.
        assert_eq!(path[1], g.node_addr(1, 12345 / 128 / 128));
    }

    #[test]
    fn tiny_region_has_single_block_level() {
        let g = TreeGeometry::new(CounterDesign::Morphable, 64);
        assert_eq!(g.num_levels(), 1);
        assert_eq!(g.blocks_at_level(0), 1);
    }

    #[test]
    fn tree_counters_independent_across_lines() {
        let mut t = IntegrityTree::new(CounterDesign::Morphable, 1 << 16);
        t.increment_data(LineAddr::new(0));
        t.increment_data(LineAddr::new(0));
        t.increment_data(LineAddr::new(1));
        assert_eq!(t.data_counter(LineAddr::new(0)), 2);
        assert_eq!(t.data_counter(LineAddr::new(1)), 1);
        assert_eq!(t.data_counter(LineAddr::new(2)), 0);
        assert_eq!(t.data_increments(), 3);
    }

    #[test]
    fn node_counters_track_writebacks() {
        let mut t = IntegrityTree::new(CounterDesign::Sc64, 1 << 16);
        assert_eq!(t.node_counter(0, 5), 0);
        t.increment_node(0, 5);
        assert_eq!(t.node_counter(0, 5), 1);
        // Level-1 node counters live in level-2 blocks (or the root).
        t.increment_node(1, 0);
        assert_eq!(t.node_counter(1, 0), 1);
    }

    #[test]
    fn overflow_statistics_by_level() {
        let mut t = IntegrityTree::new(CounterDesign::Sc64, 1 << 16);
        // 128 writes to one line force a level-0 rebase.
        for _ in 0..128 {
            t.increment_data(LineAddr::new(9));
        }
        assert_eq!(t.overflows_by_level()[0], 1);
        // 128 writebacks of one counter block force a level-1 rebase.
        for _ in 0..128 {
            t.increment_node(0, 3);
        }
        assert_eq!(t.overflows_by_level()[1], 1);
    }

    #[test]
    fn morph_statistics_counted() {
        let mut t = IntegrityTree::new(CounterDesign::Morphable, 1 << 16);
        for _ in 0..9 {
            t.increment_data(LineAddr::new(0));
        }
        assert!(t.morphs() >= 1, "8th write to one line must morph");
    }

    #[test]
    fn level0_snapshot_restore_roundtrip() {
        let mut t = IntegrityTree::new(CounterDesign::Sc64, 1 << 16);
        for i in 0..300u64 {
            t.increment_data(LineAddr::new(i * 3));
        }
        let snap = t.level0_blocks();
        assert!(!snap.is_empty());
        let mut fresh = IntegrityTree::new(CounterDesign::Sc64, 1 << 16);
        for (idx, b) in &snap {
            fresh.restore_level0_block(*idx, Some(b.clone()));
        }
        assert_eq!(fresh.data_increments(), 0, "a restore is not an increment");
        for i in 0..300u64 {
            let l = LineAddr::new(i * 3);
            assert_eq!(fresh.data_counter(l), t.data_counter(l));
        }
        // Clearing a block zeroes its counters again.
        fresh.restore_level0_block(snap[0].0, None);
        assert_eq!(
            fresh.data_counter(LineAddr::new(snap[0].0 * 64)),
            0,
            "cleared block reads zero"
        );
    }

    #[test]
    #[should_panic]
    fn restore_level0_rejects_out_of_range() {
        let mut t = IntegrityTree::new(CounterDesign::Morphable, 1 << 10);
        let n = t.geometry().blocks_at_level(0);
        t.restore_level0_block(n, Some(CounterBlock::new(CounterDesign::Morphable)));
    }

    #[test]
    #[should_panic]
    fn node_addr_rejects_out_of_range() {
        let g = TreeGeometry::new(CounterDesign::Morphable, 1 << 20);
        let _ = g.node_addr(0, g.blocks_at_level(0));
    }
}
