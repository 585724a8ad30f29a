//! Figure 3: distribution of LLC hit latency on the 28-core mesh.
//!
//! Reproduces the paper's real-system microbenchmark in the NoC model:
//! pointer-chasing loads that always hit LLC, pinned to each core in turn,
//! with lines spread uniformly over the 28 slices. Mean ≈ 23 ns over a
//! 16–29 ns support.

use emcc::noc::latency::llc_hit_histogram;

use crate::experiments::FigureData;

/// Runs the figure.
pub fn run() -> FigureData {
    let h = llc_hit_histogram();
    let mut fig = FigureData::new(
        "Figure 3: distribution of LLC hit latency (ns)",
        ["% of hits"],
        &format!(
            "paper mean 23 ns over 16–29 ns; model mean {:.1} ns",
            h.mean()
        ),
    );
    for i in 0..h.num_bins() {
        if h.bin_count(i) == 0 {
            continue;
        }
        fig.rows.push(format!("{:.0} ns", h.bin_lower(i)));
        fig.values.push(vec![h.bin_fraction(i)]);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_matches_paper() {
        let h = llc_hit_histogram();
        assert!((h.mean() - 23.0).abs() < 1.5, "mean {:.2}", h.mean());
    }

    #[test]
    fn distribution_is_spread_out() {
        let h = llc_hit_histogram();
        // Non-uniform: no single nanosecond bin dominates.
        for i in 0..h.num_bins() {
            assert!(h.bin_fraction(i) < 0.5);
        }
    }
}
