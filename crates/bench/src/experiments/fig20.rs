//! Figure 20: EMCC's benefit under 128/256/512 KB MC counter caches.
//!
//! Bigger counter caches reduce counter traffic to LLC, slightly shrinking
//! EMCC's room for improvement — but by less than 1% in the paper, because
//! counter-cache miss rates barely drop (35% → 31%).

use emcc::prelude::*;
use emcc::system::SystemConfig;

use crate::experiments::FigureData;
use crate::Harness;

/// The swept MC counter-cache sizes in KB.
pub const SIZES_KB: [u64; 3] = [128, 256, 512];

/// Runs the figure.
pub fn run(h: &Harness) -> FigureData {
    let mut fig = FigureData {
        title: "Figure 20: EMCC benefit vs MC counter-cache size".into(),
        cols: SIZES_KB.iter().map(|k| format!("{k}KB")).collect(),
        percent: true,
        note: "benefit shrinks by <1% as the cache grows 128→512 KB".into(),
        ..FigureData::default()
    };
    for bench in Benchmark::irregular_suite() {
        let mut row = Vec::new();
        for kb in SIZES_KB {
            let bytes = kb * 1024;
            let base = h.run(
                bench,
                SystemConfig::table_i(SecurityScheme::CtrInLlc).with_mc_cache_size(bytes),
            );
            let emcc = h.run(
                bench,
                SystemConfig::table_i(SecurityScheme::Emcc).with_mc_cache_size(bytes),
            );
            row.push(base.elapsed.as_ns_f64() / emcc.elapsed.as_ns_f64() - 1.0);
        }
        fig.rows.push(bench.name());
        fig.values.push(row);
    }
    fig.push_mean_row();
    fig
}
