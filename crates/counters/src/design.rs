//! The counter-organization design point.

use std::fmt;

/// Which counter organization the secure-memory system uses.
///
/// The *coverage* of a design is the number of 64 B blocks whose counters
/// fit in one 64 B counter block; it is also the arity of the integrity
/// tree, so larger coverage shrinks the tree exponentially (§II "Improving
/// Counter Hit Rate").
///
/// # Examples
///
/// ```
/// use emcc_counters::CounterDesign;
///
/// assert_eq!(CounterDesign::Morphable.coverage(), 128);
/// assert_eq!(CounterDesign::Morphable.coverage_bytes(), 8192); // 8 KB
/// assert_eq!(CounterDesign::Sc64.coverage_bytes(), 4096); // 4 KB
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterDesign {
    /// Eight 56-bit monolithic counters per counter block.
    Monolithic,
    /// SC-64: 64 seven-bit minors + one major per counter block.
    Sc64,
    /// Morphable Counters: 128 minors with format morphing.
    Morphable,
}

impl CounterDesign {
    /// Number of protected 64 B blocks per counter block (tree arity).
    pub const fn coverage(self) -> u64 {
        match self {
            CounterDesign::Monolithic => 8,
            CounterDesign::Sc64 => 64,
            CounterDesign::Morphable => 128,
        }
    }

    /// Bytes of memory covered by one counter block.
    pub const fn coverage_bytes(self) -> u64 {
        self.coverage() * emcc_sim::mem::LINE_BYTES
    }

    /// All designs, for sweeps.
    pub const fn all() -> [CounterDesign; 3] {
        [
            CounterDesign::Monolithic,
            CounterDesign::Sc64,
            CounterDesign::Morphable,
        ]
    }
}

impl fmt::Display for CounterDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CounterDesign::Monolithic => "Monolithic",
            CounterDesign::Sc64 => "SC-64",
            CounterDesign::Morphable => "Morphable",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_matches_paper() {
        // §II: SC-64 packs 64 counters; Morphable increases it to 128;
        // Morphable covers 8 KB ≈ two adjacent 4 KB pages.
        assert_eq!(CounterDesign::Monolithic.coverage(), 8);
        assert_eq!(CounterDesign::Sc64.coverage(), 64);
        assert_eq!(CounterDesign::Morphable.coverage(), 128);
        assert_eq!(CounterDesign::Morphable.coverage_bytes(), 2 * 4096);
    }

    #[test]
    fn display_names() {
        assert_eq!(CounterDesign::Sc64.to_string(), "SC-64");
    }
}
