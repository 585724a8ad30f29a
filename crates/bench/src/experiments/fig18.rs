//! Figure 18: EMCC's benefit over Morphable under 14/20/25 ns AES.
//!
//! Longer AES (stronger ciphers) lengthens the baseline's critical path
//! but hides behind EMCC's overlap, so the benefit *grows*: 7% → 9% at
//! 25 ns in the paper.

use emcc::prelude::*;
use emcc::system::SystemConfig;

use crate::experiments::FigureData;
use crate::Harness;

/// The swept AES latencies in nanoseconds.
pub const AES_POINTS: [u64; 3] = [14, 20, 25];

/// Runs the figure.
pub fn run(h: &Harness) -> FigureData {
    let mut fig = FigureData {
        title: "Figure 18: EMCC benefit over Morphable vs AES latency".into(),
        cols: AES_POINTS.iter().map(|ns| format!("{ns}ns AES")).collect(),
        percent: true,
        note: "benefit grows with AES latency: ~7% at 14 ns → ~9% at 25 ns".into(),
        ..FigureData::default()
    };
    for bench in Benchmark::irregular_suite() {
        let mut row = Vec::new();
        for ns in AES_POINTS {
            let aes = Time::from_ns(ns);
            let base = h.run(
                bench,
                SystemConfig::table_i(SecurityScheme::CtrInLlc).with_aes_latency(aes),
            );
            let emcc = h.run(
                bench,
                SystemConfig::table_i(SecurityScheme::Emcc).with_aes_latency(aes),
            );
            row.push(base.elapsed.as_ns_f64() / emcc.elapsed.as_ns_f64() - 1.0);
        }
        fig.rows.push(bench.name());
        fig.values.push(row);
    }
    fig.push_mean_row();
    fig
}
