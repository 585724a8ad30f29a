//! Figures 6 and 7: counter hits/misses in MC and LLC for data reads,
//! under 2 MB/core (Fig 6) and 12 MB/core (Fig 7) LLCs.
//!
//! Normalized to DRAM data reads: the paper reports 65/15/19%
//! (MC hit / LLC hit / LLC miss) at 2 MB/core and 67/18/14% at 12 MB/core.

use emcc::prelude::*;
use emcc::system::SystemConfig;

use crate::experiments::FigureData;
use crate::Harness;

fn config(llc_total: Option<u64>) -> SystemConfig {
    let mut cfg = SystemConfig::table_i(SecurityScheme::CtrInLlc);
    if let Some(total) = llc_total {
        cfg = cfg.with_llc_total(total);
    }
    cfg
}

fn counter_split(h: &Harness, llc_total: Option<u64>, title: &str, note: &str) -> FigureData {
    let mut fig = FigureData {
        title: title.into(),
        cols: vec!["MC-hit".into(), "LLC-hit".into(), "LLC-miss".into()],
        percent: true,
        note: note.into(),
        ..FigureData::default()
    };
    for bench in Benchmark::irregular_suite() {
        let r = h.run(bench, config(llc_total));
        fig.rows.push(bench.name());
        fig.values.push(vec![
            r.ctr_mc_hit_frac(),
            r.ctr_llc_hit_frac(),
            r.ctr_llc_miss_frac(),
        ]);
    }
    fig.push_mean_row();
    fig
}

/// Figure 6: Table I LLC (2 MB/core).
pub fn run_fig06(h: &Harness) -> FigureData {
    counter_split(
        h,
        None,
        "Figure 6: counter hit/miss split for DRAM data reads (2 MB/core LLC)",
        "65% MC hit / 15% LLC hit / 19% LLC miss on average",
    )
}

/// Figure 7: 12 MB/core LLC (48 MB total).
pub fn run_fig07(h: &Harness) -> FigureData {
    counter_split(
        h,
        Some(48 * 1024 * 1024),
        "Figure 7: counter hit/miss split for DRAM data reads (12 MB/core LLC)",
        "67% MC hit / 18% LLC hit / 14% LLC miss on average",
    )
}
