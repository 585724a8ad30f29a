//! Ablations of EMCC's design choices (beyond the paper's own sweeps).
//!
//! * **L2 counter budget** — §V fixes 32 KB "so the benefits do not simply
//!   come from caching more counters"; we sweep 8/32/128 KB.
//! * **AES start wait** — §IV-D delays AES by one LLC-hit latency to avoid
//!   wasting bandwidth on LLC hits; we compare against starting
//!   immediately (more useless AES work, same or worse perf).
//! * **XPT** — LLC miss prediction on/off for both EMCC and the baseline.

use emcc::prelude::*;
use emcc::system::SystemConfig;

use crate::experiments::FigureData;
use crate::Harness;

/// Benchmarks used for ablations (a representative subset keeps runtime
/// manageable; canneal/mcf/BFS bracket the behaviours).
fn suite() -> Vec<Benchmark> {
    use emcc::workloads::kernels::GraphKernel;
    vec![
        Benchmark::Graph(GraphKernel::Bfs),
        Benchmark::Graph(GraphKernel::PageRank),
        Benchmark::Canneal,
        Benchmark::Mcf,
    ]
}

const BUDGET_KB: [u64; 3] = [8, 32, 128];

/// EMCC with an L2 counter budget of `kb` KB.
fn budget_config(kb: u64) -> SystemConfig {
    let mut cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    cfg.emcc.l2_counter_budget_lines = kb * 1024 / 64;
    cfg
}

/// EMCC with AES started immediately (no LLC-hit wait).
fn immediate_aes_config() -> SystemConfig {
    let mut cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    cfg.emcc.aes_start_wait = Time::ZERO;
    cfg
}

/// `scheme` with XPT toggled.
fn xpt_config(scheme: SecurityScheme, on: bool) -> SystemConfig {
    let mut cfg = SystemConfig::table_i(scheme);
    cfg.xpt_enabled = on;
    cfg
}

/// Sweep of the L2 counter-line budget.
pub fn l2_budget(h: &Harness) -> FigureData {
    let mut fig = FigureData {
        title: "Ablation: EMCC benefit vs L2 counter budget".into(),
        cols: BUDGET_KB.iter().map(|k| format!("{k}KB")).collect(),
        percent: true,
        note: "32 KB captures most of the benefit (paper's §V choice)".into(),
        ..FigureData::default()
    };
    for bench in suite() {
        let base = h.run_scheme(bench, SecurityScheme::CtrInLlc);
        let mut row = Vec::new();
        for kb in BUDGET_KB {
            let emcc = h.run(bench, budget_config(kb));
            row.push(base.elapsed.as_ns_f64() / emcc.elapsed.as_ns_f64() - 1.0);
        }
        fig.rows.push(bench.name());
        fig.values.push(row);
    }
    fig.push_mean_row();
    fig
}

/// Immediate AES start vs the LLC-hit-latency wait.
pub fn aes_wait(h: &Harness) -> FigureData {
    let mut fig = FigureData {
        title: "Ablation: AES start policy (immediate vs wait-LLC-hit)".into(),
        cols: vec!["perf Δ".into(), "extra AES ops".into()],
        percent: true,
        note: "waiting trades negligible latency for AES-bandwidth savings".into(),
        ..FigureData::default()
    };
    for bench in suite() {
        let wait = h.run_scheme(bench, SecurityScheme::Emcc);
        let imm = h.run(bench, immediate_aes_config());
        let perf_delta = wait.elapsed.as_ns_f64() / imm.elapsed.as_ns_f64() - 1.0;
        let extra_aes = if wait.decrypted_at_l2 > 0 {
            imm.decrypted_at_l2 as f64 / wait.decrypted_at_l2 as f64 - 1.0
        } else {
            0.0
        };
        fig.rows.push(bench.name());
        fig.values.push(vec![perf_delta, extra_aes]);
    }
    fig.push_mean_row();
    fig
}

/// §IV-F extensions: inclusive LLC and dynamic disable.
pub fn extensions(h: &Harness) -> FigureData {
    let mut fig = FigureData {
        title: "Extension: inclusive LLC and dynamic disable (vs plain EMCC)".into(),
        cols: vec![
            "inclusive Δ".into(),
            "dyn-off Δ".into(),
            "unverif/fill".into(),
        ],
        percent: true,
        note: "§IV-F: both extensions should be near-neutral on irregular workloads".into(),
        ..FigureData::default()
    };
    for bench in suite() {
        let plain = h.run_scheme(bench, SecurityScheme::Emcc);
        let mut inc = SystemConfig::table_i(SecurityScheme::Emcc);
        inc.inclusive_llc = true;
        let inclusive = h.run(bench, inc);
        let mut dyn_cfg = SystemConfig::table_i(SecurityScheme::Emcc);
        dyn_cfg.emcc.dynamic_disable = true;
        let dynamic = h.run(bench, dyn_cfg);
        let unverified_frac = if inclusive.dram_data_reads > 0 {
            inclusive.llc_unverified_inserts as f64 / inclusive.dram_data_reads as f64
        } else {
            0.0
        };
        fig.rows.push(bench.name());
        fig.values.push(vec![
            plain.elapsed.as_ns_f64() / inclusive.elapsed.as_ns_f64() - 1.0,
            plain.elapsed.as_ns_f64() / dynamic.elapsed.as_ns_f64() - 1.0,
            unverified_frac,
        ]);
    }
    fig.push_mean_row();
    fig
}

/// XPT on/off for both schemes.
pub fn xpt(h: &Harness) -> FigureData {
    let mut fig = FigureData {
        title: "Ablation: EMCC benefit with and without XPT".into(),
        cols: vec!["XPT on".into(), "XPT off".into()],
        percent: true,
        note: "XPT shortens data paths; EMCC helps in both regimes".into(),
        ..FigureData::default()
    };
    for bench in suite() {
        let mut row = Vec::new();
        for xpt_on in [true, false] {
            let base = h.run(bench, xpt_config(SecurityScheme::CtrInLlc, xpt_on));
            let emcc = h.run(bench, xpt_config(SecurityScheme::Emcc, xpt_on));
            row.push(base.elapsed.as_ns_f64() / emcc.elapsed.as_ns_f64() - 1.0);
        }
        fig.rows.push(bench.name());
        fig.values.push(row);
    }
    fig.push_mean_row();
    fig
}
