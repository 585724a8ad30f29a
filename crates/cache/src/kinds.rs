//! Classification of cached blocks.

use std::fmt;

/// What a cached 64 B line holds.
///
/// Caches that hold metadata alongside data (the LLC in the baseline, the
/// L2 under EMCC, the MC's private metadata cache) tag lines with their
/// kind so occupancy budgets (EMCC's 32 KB L2 counter cap) and statistics
/// (counter hit rates, useless-access tracking) can be maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockKind {
    /// Ordinary program data.
    Data,
    /// A level-0 counter block (data counters).
    Counter,
    /// An integrity-tree node above level 0.
    TreeNode,
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BlockKind::Data => "data",
            BlockKind::Counter => "counter",
            BlockKind::TreeNode => "tree-node",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(BlockKind::Counter.to_string(), "counter");
    }
}
