//! Figure 15: memory bandwidth utilization under Morphable Counters,
//! broken down by traffic class.
//!
//! Data / counter / level-0-overflow / level-1+-overflow bus occupancy as
//! a fraction of the channel's peak bandwidth.

use emcc::dram::RequestClass;
use emcc::prelude::*;

use crate::experiments::FigureData;
use crate::Harness;

/// Runs the figure.
pub fn run(h: &Harness) -> FigureData {
    let mut fig = FigureData {
        title: "Figure 15: bandwidth utilization by class (Morphable)".into(),
        cols: vec![
            "data".into(),
            "counters".into(),
            "ovf-L0".into(),
            "ovf-L1+".into(),
            "total".into(),
        ],
        percent: true,
        note: "mcf is the heaviest consumer; counters add a visible share".into(),
        ..FigureData::default()
    };
    for bench in Benchmark::irregular_suite() {
        let r = h.run_scheme(bench, SecurityScheme::CtrInLlc);
        let channels = 1;
        let data = r.bandwidth_utilization(RequestClass::Data, channels);
        let ctr = r.bandwidth_utilization(RequestClass::Counter, channels)
            + r.bandwidth_utilization(RequestClass::TreeNode, channels);
        let o0 = r.bandwidth_utilization(RequestClass::OverflowL0, channels);
        let o1 = r.bandwidth_utilization(RequestClass::OverflowHigher, channels);
        fig.rows.push(bench.name());
        fig.values
            .push(vec![data, ctr, o0, o1, data + ctr + o0 + o1]);
    }
    fig.push_mean_row();
    fig
}
