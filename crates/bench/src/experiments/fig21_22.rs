//! Figures 21 and 22: DRAM channel-count sensitivity.
//!
//! * Fig 21 — EMCC's benefit over Morphable under 1 vs 8 channels: more
//!   bandwidth shortens data access, widening the baseline's exposed
//!   counter latency, so the benefit grows.
//! * Fig 22 — queuing delay (geometric mean over benchmarks) by access
//!   type under EMCC; writes queue far longer than reads, and 8 channels
//!   collapse the delays.

use emcc::dram::RequestClass;
use emcc::prelude::*;
use emcc::sim::stats::geomean;
use emcc::system::SystemConfig;

use crate::experiments::FigureData;
use crate::Harness;

/// Both figures from one sweep.
pub struct ChannelFigures {
    /// Figure 21.
    pub fig21: FigureData,
    /// Figure 22.
    pub fig22: FigureData,
}

/// Runs the sweep.
pub fn run(h: &Harness) -> ChannelFigures {
    let mut fig21 = FigureData {
        title: "Figure 21: EMCC benefit under 1 vs 8 memory channels".into(),
        cols: vec!["1 channel".into(), "8 channels".into()],
        percent: true,
        note: "benefit increases under 8 channels".into(),
        ..FigureData::default()
    };

    // Queuing-delay accumulators: [class-dir][channel-config] -> samples.
    let kinds = [
        ("ctr read", RequestClass::Counter, false),
        ("data read", RequestClass::Data, false),
        ("ctr write", RequestClass::Counter, true),
        ("data write", RequestClass::Data, true),
    ];
    let mut delays: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 2]; kinds.len()];

    for bench in Benchmark::irregular_suite() {
        let mut row = Vec::new();
        for (ci, channels) in [1usize, 8].into_iter().enumerate() {
            let base = h.run(
                bench,
                SystemConfig::table_i(SecurityScheme::CtrInLlc).with_channels(channels),
            );
            let emcc = h.run(
                bench,
                SystemConfig::table_i(SecurityScheme::Emcc).with_channels(channels),
            );
            row.push(base.elapsed.as_ns_f64() / emcc.elapsed.as_ns_f64() - 1.0);
            for (ki, &(_, class, is_write)) in kinds.iter().enumerate() {
                let b = emcc.dram.bucket(class, is_write);
                if b.count > 0 {
                    // Geomean needs positive samples; clamp at 0.1 ns.
                    delays[ki][ci].push(b.queuing_ns.mean().max(0.1));
                }
            }
        }
        fig21.rows.push(bench.name());
        fig21.values.push(row);
    }
    fig21.push_mean_row();

    let mut fig22 = FigureData {
        title: "Figure 22: DRAM queuing delay under EMCC (ns, geomean)".into(),
        cols: vec!["1 channel".into(), "8 channels".into()],
        percent: false,
        note: "writes queue much longer than reads; 8 channels shrink both".into(),
        ..FigureData::default()
    };
    for (ki, &(name, _, _)) in kinds.iter().enumerate() {
        fig22.rows.push(name.to_string());
        fig22
            .values
            .push(vec![geomean(&delays[ki][0]), geomean(&delays[ki][1])]);
    }

    ChannelFigures { fig21, fig22 }
}
