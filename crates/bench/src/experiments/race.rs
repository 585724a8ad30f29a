//! The placement race's telemetry (`BENCH_race.json`); the race table
//! itself is [`tables::race`](crate::experiments::tables::race).

use crate::experiments::FigureData;
use crate::json::Json;

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
