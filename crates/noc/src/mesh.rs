//! Mesh topology and hop counts.

/// A node on the mesh: a core tile (core + L2 + LLC slice) or a memory
/// controller tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// Core tile `i` (its LLC slice shares the position).
    Core(usize),
    /// Memory controller `i`.
    Mc(usize),
}

/// A 2-D mesh of core tiles and memory controllers with XY routing.
///
/// Positions follow the paper's Figure 4: a 6-column × 5-row grid with
/// MC1 on the left of row 1 and MC2 on the right of row 3; the remaining
/// 28 slots are core tiles numbered row-major.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mesh {
    cols: u32,
    rows: u32,
    core_pos: Vec<(u32, u32)>,
    mc_pos: Vec<(u32, u32)>,
}

impl Mesh {
    /// The Xeon W-3175X-like mesh of Figure 4: 6×5, 28 cores, 2 MCs.
    pub fn xeon_w3175x() -> Self {
        let cols = 6;
        let rows = 5;
        let mc_pos = vec![(1, 0), (3, 5)];
        let mut core_pos = Vec::with_capacity(28);
        for r in 0..rows {
            for c in 0..cols {
                if !mc_pos.contains(&(r, c)) {
                    core_pos.push((r, c));
                }
            }
        }
        debug_assert_eq!(core_pos.len(), 28);
        Mesh {
            cols,
            rows,
            core_pos,
            mc_pos,
        }
    }

    /// A generic `cols × rows` mesh with MCs at mid-left and mid-right and
    /// all other slots core tiles. Used for scaling studies.
    ///
    /// # Panics
    ///
    /// Panics if the grid has fewer than 4 slots.
    pub fn grid(cols: u32, rows: u32) -> Self {
        assert!(cols * rows >= 4, "mesh too small");
        let mc_pos = vec![(rows / 4, 0), (3 * rows / 4, cols - 1)];
        let mut core_pos = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if !mc_pos.contains(&(r, c)) {
                    core_pos.push((r, c));
                }
            }
        }
        Mesh {
            cols,
            rows,
            core_pos,
            mc_pos,
        }
    }

    /// Number of core tiles (and LLC slices).
    pub fn num_cores(&self) -> usize {
        self.core_pos.len()
    }

    /// Number of memory controllers.
    pub fn num_mcs(&self) -> usize {
        self.mc_pos.len()
    }

    fn pos(&self, n: Node) -> (u32, u32) {
        match n {
            Node::Core(i) => self.core_pos[i],
            Node::Mc(i) => self.mc_pos[i],
        }
    }

    /// Manhattan (XY-routed) hop count between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range.
    pub fn hops(&self, a: Node, b: Node) -> u32 {
        let (ra, ca) = self.pos(a);
        let (rb, cb) = self.pos(b);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }

    /// Hop count between two core tiles (an L2 and an LLC slice).
    pub fn hops_core_to_core(&self, a: usize, b: usize) -> u32 {
        self.hops(Node::Core(a), Node::Core(b))
    }

    /// Mean hop count over all ordered core-tile pairs (self-pairs
    /// included, which have 0 hops — the slice co-located with the L2).
    pub fn mean_core_to_core_hops(&self) -> f64 {
        let n = self.num_cores();
        let mut total = 0u64;
        for a in 0..n {
            for b in 0..n {
                total += u64::from(self.hops_core_to_core(a, b));
            }
        }
        total as f64 / (n * n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_shape() {
        let m = Mesh::xeon_w3175x();
        assert_eq!(m.num_cores(), 28);
        assert_eq!(m.num_mcs(), 2);
    }

    #[test]
    fn hops_symmetric_and_zero_on_self() {
        let m = Mesh::xeon_w3175x();
        for a in 0..28 {
            assert_eq!(m.hops_core_to_core(a, a), 0);
            for b in 0..28 {
                assert_eq!(m.hops_core_to_core(a, b), m.hops_core_to_core(b, a));
            }
        }
    }

    #[test]
    fn figure4_example_route() {
        // Figure 4's example: core 0 (top-left) to slice 24. Core 0 is at
        // (0,0); core 24 is in the bottom row. The route must be several
        // hops long.
        let m = Mesh::xeon_w3175x();
        let h = m.hops_core_to_core(0, 24);
        assert!(h >= 5, "expected a long route, got {h} hops");
    }

    #[test]
    fn max_hops_bounded_by_dimensions() {
        let m = Mesh::xeon_w3175x();
        for a in 0..28 {
            for b in 0..28 {
                assert!(m.hops_core_to_core(a, b) <= 5 + 4);
            }
        }
    }

    #[test]
    fn mean_hops_in_expected_range() {
        // Uniform pairs on a 6x5 mesh average ~3.5 hops; this pins the
        // calibration the latency model depends on.
        let m = Mesh::xeon_w3175x();
        let mean = m.mean_core_to_core_hops();
        assert!((3.0..4.0).contains(&mean), "mean hops {mean}");
    }

    #[test]
    fn generic_grid() {
        let m = Mesh::grid(8, 8);
        assert_eq!(m.num_cores(), 62);
        assert_eq!(m.num_mcs(), 2);
        // Bigger meshes have longer average routes (§III-B: "as the number
        // of cores increases ... latency of accessing LLC increases").
        assert!(m.mean_core_to_core_hops() > Mesh::xeon_w3175x().mean_core_to_core_hops());
    }
}
