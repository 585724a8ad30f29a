//! Figure 19: fraction of DRAM data reads decrypted/verified at the L2s,
//! as the fraction of AES units moved from MC to L2s sweeps 20/40/50/80%.
//!
//! At the default 50% split the paper reports 76.3% on average; mcf drops
//! to ~50% because its bandwidth spikes exhaust the L2 AES budget and the
//! adaptive offload kicks in.

use emcc::prelude::*;
use emcc::system::SystemConfig;

use crate::experiments::FigureData;
use crate::Harness;

/// The swept AES-unit shares, in percent.
pub const PERCENTS: [u32; 4] = [20, 40, 50, 80];

/// Config for one sweep point.
fn config(pct: u32) -> SystemConfig {
    let mut cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    cfg.emcc.aes_to_l2_pct = pct;
    cfg
}

/// Runs the figure.
pub fn run(h: &Harness) -> FigureData {
    let mut fig = FigureData {
        title: "Figure 19: DRAM data reads decrypted at L2 vs AES split".into(),
        cols: PERCENTS.iter().map(|pct| format!("{pct}%")).collect(),
        percent: true,
        note: "76.3% on average at the 50% split; mcf ~50% (offload)".into(),
        ..FigureData::default()
    };
    for bench in Benchmark::irregular_suite() {
        let mut row = Vec::new();
        for pct in PERCENTS {
            let r = h.run(bench, config(pct));
            row.push(r.l2_decrypt_frac());
        }
        fig.rows.push(bench.name());
        fig.values.push(row);
    }
    fig.push_mean_row();
    fig
}
