//! Figures 16 and 17: performance normalized to a non-secure system, and
//! average L2 miss latency, for SC-64 / Morphable / EMCC.
//!
//! Paper: EMCC improves performance over Morphable by 7% on average
//! (canneal 12.5%); EMCC saves ≈5 ns of L2 miss latency over Morphable.

use emcc::counters::CounterDesign;
use emcc::prelude::*;
use emcc::system::SystemConfig;

use crate::experiments::FigureData;
use crate::Harness;

/// One benchmark's four reports (served from the harness's run-cache).
pub struct PerfRow {
    /// Benchmark name.
    pub name: String,
    /// Non-secure ceiling.
    pub nonsecure: &'static SimReport,
    /// SC-64 baseline (counters in LLC).
    pub sc64: &'static SimReport,
    /// Morphable baseline (counters in LLC).
    pub morphable: &'static SimReport,
    /// EMCC on top of Morphable.
    pub emcc: &'static SimReport,
}

/// The SC-64 configuration (counters in LLC, split-counter-64 design).
fn sc64_config() -> SystemConfig {
    let mut cfg = SystemConfig::table_i(SecurityScheme::CtrInLlc);
    cfg.counter_design = CounterDesign::Sc64;
    cfg
}

/// Runs the four schemes over the irregular suite.
pub fn run_suite(h: &Harness) -> Vec<PerfRow> {
    Benchmark::irregular_suite()
        .into_iter()
        .map(|bench| PerfRow {
            name: bench.name(),
            nonsecure: h.run_scheme(bench, SecurityScheme::NonSecure),
            sc64: h.run(bench, sc64_config()),
            morphable: h.run_scheme(bench, SecurityScheme::CtrInLlc),
            emcc: h.run_scheme(bench, SecurityScheme::Emcc),
        })
        .collect()
}

/// Figure 16 from suite results.
pub fn fig16(rows: &[PerfRow]) -> FigureData {
    let mut fig = FigureData {
        title: "Figure 16: performance normalized to non-secure".into(),
        cols: vec!["SC-64".into(), "Morphable".into(), "EMCC".into()],
        percent: true,
        note: "EMCC +7% over Morphable on average; canneal +12.5%".into(),
        ..FigureData::default()
    };
    for r in rows {
        let ns = r.nonsecure.elapsed.as_ns_f64();
        fig.rows.push(r.name.clone());
        fig.values.push(vec![
            ns / r.sc64.elapsed.as_ns_f64(),
            ns / r.morphable.elapsed.as_ns_f64(),
            ns / r.emcc.elapsed.as_ns_f64(),
        ]);
    }
    fig.push_mean_row();
    fig
}

/// Figure 17 from suite results.
pub fn fig17(rows: &[PerfRow]) -> FigureData {
    let mut fig = FigureData {
        title: "Figure 17: average L2 miss latency (ns)".into(),
        cols: vec![
            "SC-64".into(),
            "Morphable".into(),
            "EMCC".into(),
            "non-sec".into(),
        ],
        percent: false,
        note: "EMCC ≈5 ns below Morphable on average".into(),
        ..FigureData::default()
    };
    for r in rows {
        fig.rows.push(r.name.clone());
        fig.values.push(vec![
            r.sc64.l2_miss_latency_ns.mean(),
            r.morphable.l2_miss_latency_ns.mean(),
            r.emcc.l2_miss_latency_ns.mean(),
            r.nonsecure.l2_miss_latency_ns.mean(),
        ]);
    }
    fig.push_mean_row();
    fig
}

/// The headline number: mean EMCC speedup over Morphable.
pub fn mean_emcc_speedup(rows: &[PerfRow]) -> f64 {
    let sum: f64 = rows
        .iter()
        .map(|r| r.morphable.elapsed.as_ns_f64() / r.emcc.elapsed.as_ns_f64() - 1.0)
        .sum();
    sum / rows.len() as f64
}
