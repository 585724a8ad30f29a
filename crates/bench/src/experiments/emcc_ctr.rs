//! Figures 11, 12 and 23: EMCC's counter behaviour in the L2.
//!
//! * Fig 11 — useless counter accesses to LLC (a speculatively fetched
//!   counter never used for a DRAM-served miss before leaving L2),
//!   normalized to L2 data misses: paper mean 3.2%.
//! * Fig 12 — total counter accesses to LLC under EMCC (35.6%) vs the
//!   serial baseline (4.2% fewer), normalized to L2 data misses.
//! * Fig 23 — counter blocks invalidated in L2 by MC counter updates,
//!   normalized to counter insertions: paper mean 1.7%.

use emcc::prelude::*;

use crate::experiments::FigureData;
use crate::Harness;

/// All three figures from one pass (EMCC + baseline runs per benchmark).
pub struct EmccCtrFigures {
    /// Figure 11.
    pub fig11: FigureData,
    /// Figure 12.
    pub fig12: FigureData,
    /// Figure 23.
    pub fig23: FigureData,
}

/// Runs the three figures.
pub fn run(h: &Harness) -> EmccCtrFigures {
    let mut fig11 = FigureData {
        title: "Figure 11: useless counter accesses to LLC under EMCC".into(),
        cols: vec!["useless".into()],
        percent: true,
        note: "3.2% of L2 data misses on average".into(),
        ..FigureData::default()
    };
    let mut fig12 = FigureData {
        title: "Figure 12: total counter accesses to LLC per L2 data miss".into(),
        cols: vec!["baseline".into(), "EMCC".into()],
        percent: true,
        note: "EMCC 35.6% on average, only 4.2% above the serial baseline".into(),
        ..FigureData::default()
    };
    let mut fig23 = FigureData {
        title: "Figure 23: counter blocks invalidated in L2 per insertion".into(),
        cols: vec!["invalidated".into()],
        percent: true,
        note: "1.7% of insertions on average".into(),
        ..FigureData::default()
    };

    for bench in Benchmark::irregular_suite() {
        let emcc = h.run_scheme(bench, SecurityScheme::Emcc);
        let base = h.run_scheme(bench, SecurityScheme::CtrInLlc);

        fig11.rows.push(bench.name());
        fig11.values.push(vec![emcc.useless_ctr_frac()]);

        fig12.rows.push(bench.name());
        fig12
            .values
            .push(vec![base.ctr_llc_access_frac(), emcc.ctr_llc_access_frac()]);

        fig23.rows.push(bench.name());
        fig23.values.push(vec![emcc.ctr_invalidation_frac()]);
    }
    fig11.push_mean_row();
    fig12.push_mean_row();
    fig23.push_mean_row();
    EmccCtrFigures {
        fig11,
        fig12,
        fig23,
    }
}
