//! The placement race: every crypto placement — the paper's four design
//! points plus the related-work placements (BipBip, near-memory, in-SRAM)
//! — raced under identical workloads, normalized to non-secure.
//!
//! This is ROADMAP item 3: the figure quantifies the paper's core claim
//! that *where* memory cryptography runs dominates its cost. A cheap
//! in-pipeline cipher (BipBip) or in-device crypto (near-mem) tracks the
//! non-secure ceiling but gives up tamper detection or trust in the DRAM
//! device; full in-SRAM AES pays its latency serially on every access;
//! counter-based schemes sit in between, with EMCC the fastest of them.

use emcc::prelude::*;

use crate::experiments::FigureData;
use crate::json::Json;
use crate::Harness;

/// The seven-way race figure: performance normalized to non-secure
/// (non-secure's own column pins 100% as the ceiling).
pub fn figure(h: &Harness) -> FigureData {
    let schemes = SecurityScheme::all();
    let mut fig = FigureData {
        title: "Placement race: performance normalized to non-secure (all placements)".into(),
        cols: schemes.iter().map(|s| s.to_string()).collect(),
        percent: true,
        note: "where crypto runs dominates its cost: in-pipeline/in-device \
               ciphers track the ceiling, in-SRAM AES pays serially, EMCC \
               leads the counter-based schemes"
            .into(),
        ..FigureData::default()
    };
    for bench in Benchmark::irregular_suite() {
        let ns = h
            .run_scheme(bench, SecurityScheme::NonSecure)
            .elapsed
            .as_ns_f64();
        fig.rows.push(bench.name());
        fig.values.push(
            schemes
                .iter()
                .map(|&s| ns / h.run_scheme(bench, s).elapsed.as_ns_f64())
                .collect(),
        );
    }
    fig.push_mean_row();
    fig
}

/// The race figure as machine-readable telemetry (`BENCH_race.json`):
/// one row per benchmark (plus the mean), one normalized value per
/// scheme, in `all()` order. CI uploads this as an artifact so the
/// placement race is plottable without reparsing stdout.
pub fn telemetry(fig: &FigureData) -> Json {
    let row = |(name, values): (&String, &Vec<f64>)| {
        let normalized = values.iter().map(|&v| Json::fixed(v, 6)).collect();
        Json::obj([
            ("benchmark", Json::str(name)),
            ("normalized", Json::Arr(normalized)),
        ])
    };
    let schemes = fig.cols.iter().map(Json::str).collect();
    let rows = fig.rows.iter().zip(&fig.values).map(row).collect();
    Json::obj([
        ("title", Json::str(&fig.title)),
        ("schemes", Json::Arr(schemes)),
        ("rows", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_text_is_pinned() {
        let fig = FigureData {
            title: "Placement race".into(),
            cols: vec!["NonSecure".into(), "EMCC".into()],
            rows: vec!["canneal".into(), "mean".into()],
            values: vec![vec![1.0, 1.25], vec![1.0, 1.0 / 3.0]],
            percent: false,
            note: String::new(),
        };
        assert_eq!(
            telemetry(&fig).render(),
            r#"{
  "title": "Placement race",
  "schemes": ["NonSecure", "EMCC"],
  "rows": [
    {"benchmark": "canneal", "normalized": [1.000000, 1.250000]},
    {"benchmark": "mean", "normalized": [1.000000, 0.333333]}
  ]
}
"#
        );
    }
}
