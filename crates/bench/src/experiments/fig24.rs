//! Figure 24: useless counter accesses to LLC for the fifteen *regular*
//! SPEC/PARSEC benchmarks under EMCC — the check that speculative counter
//! fetching stays harmless when it isn't needed (paper mean: 1%).

use emcc::prelude::*;

use crate::experiments::FigureData;
use crate::Harness;

/// Runs the figure.
pub fn run(h: &Harness) -> FigureData {
    let mut fig = FigureData {
        title: "Figure 24: useless counter accesses, regular SPEC/PARSEC".into(),
        cols: vec!["useless".into()],
        percent: true,
        note: "1% of L2 data misses on average".into(),
        ..FigureData::default()
    };
    for bench in Benchmark::regular_suite() {
        let r = h.run_scheme(bench, SecurityScheme::Emcc);
        fig.rows.push(bench.name());
        fig.values.push(vec![r.useless_ctr_frac()]);
    }
    fig.push_mean_row();
    fig
}
