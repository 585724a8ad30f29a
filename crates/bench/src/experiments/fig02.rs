//! Figure 2: DRAM traffic overhead, without vs with caching counters in
//! the LLC, normalized to normal data traffic.
//!
//! The paper's Pintool study: counter + tree + overflow DRAM accesses over
//! data DRAM accesses, split into read and write overhead. Caching
//! counters in LLC cuts the mean from 105% to 59%.

use emcc::dram::RequestClass;
use emcc::prelude::*;

use crate::experiments::FigureData;
use crate::Harness;

/// Traffic overhead for one report: (read overhead, write overhead).
fn overhead(r: &SimReport) -> (f64, f64) {
    let data = (r.dram.bucket(RequestClass::Data, false).count
        + r.dram.bucket(RequestClass::Data, true).count)
        .max(1) as f64;
    let meta_read: u64 = [
        RequestClass::Counter,
        RequestClass::TreeNode,
        RequestClass::OverflowL0,
        RequestClass::OverflowHigher,
    ]
    .iter()
    .map(|&c| r.dram.bucket(c, false).count)
    .sum();
    let meta_write: u64 = [
        RequestClass::Counter,
        RequestClass::TreeNode,
        RequestClass::OverflowL0,
        RequestClass::OverflowHigher,
    ]
    .iter()
    .map(|&c| r.dram.bucket(c, true).count)
    .sum();
    (meta_read as f64 / data, meta_write as f64 / data)
}

/// Runs the figure.
pub fn run(h: &Harness) -> FigureData {
    let mut fig = FigureData {
        title: "Figure 2: DRAM traffic overhead normalized to data traffic".into(),
        cols: vec![
            "w/o-rd".into(),
            "w/o-wr".into(),
            "w-rd".into(),
            "w-wr".into(),
            "w/o-tot".into(),
            "w-tot".into(),
        ],
        percent: true,
        note: "total overhead drops from 105% (w/o) to 59% (w/) on average".into(),
        ..FigureData::default()
    };
    for bench in Benchmark::irregular_suite() {
        let without = h.run_scheme(bench, SecurityScheme::McOnly);
        let with = h.run_scheme(bench, SecurityScheme::CtrInLlc);
        let (wor, wow) = overhead(without);
        let (wr, ww) = overhead(with);
        fig.rows.push(bench.name());
        fig.values.push(vec![wor, wow, wr, ww, wor + wow, wr + ww]);
    }
    fig.push_mean_row();
    fig
}
