//! The [`REGISTRY`] that names each figure once, and [`FigureData`],
//! the table every figure renders. The per-benchmark figures are row
//! functions in [`tables`], each over its suite.
//!
//! A figure's run-matrix is declared only by its render code: [`plan`]
//! runs the render functions on a recording harness, which notes every
//! run they ask for and simulates nothing. `run_all` then executes that
//! batch and renders again from the filled run-cache.

pub mod fig03;
pub mod race;
pub mod tables;
pub mod timelines;

use std::fmt::Write as _;

use emcc::prelude::Benchmark;

use crate::json::Json;
use crate::pool::RunRequest;
use crate::runner::{ExpParams, Harness};

/// One figure `run_all` can render.
pub struct Entry {
    /// The id `run_all --fig` takes.
    pub id: &'static str,
    /// Whether `run_all` renders the entry when no `--fig` names it.
    pub default: bool,
    /// Renders the entry from the harness's run-cache.
    pub render: fn(&Harness) -> Rendered,
}

/// What an entry renders: its tables (for `run_all --csv`), the text
/// `run_all` prints and any telemetry file it writes.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The tables, in print order.
    pub tables: Vec<FigureData>,
    /// Stdout text: the tables with a blank line between them, plus any
    /// prose the entry adds.
    pub text: String,
    /// A `BENCH_*.json` file name and its contents.
    pub telemetry: Option<(&'static str, Json)>,
}

impl Rendered {
    fn tables(tables: Vec<FigureData>) -> Self {
        let text = tables
            .iter()
            .map(FigureData::render)
            .collect::<Vec<_>>()
            .join("\n");
        Rendered {
            tables,
            text,
            telemetry: None,
        }
    }

    fn table(table: FigureData) -> Self {
        Rendered::tables(vec![table])
    }
}

/// A default-pass entry.
const fn fig(id: &'static str, render: fn(&Harness) -> Rendered) -> Entry {
    Entry {
        id,
        default: true,
        render,
    }
}

/// Every figure, in the order `run_all` prints them.
pub const REGISTRY: &[Entry] = &[
    fig("timelines", |_| Rendered {
        text: timelines::render_all(),
        ..Rendered::tables(Vec::new())
    }),
    fig("fig03", |_| Rendered::table(fig03::run())),
    fig("fig02", |h| Rendered::table(tables::fig02(h))),
    fig("fig06", |h| Rendered::table(tables::fig06(h))),
    fig("fig07", |h| Rendered::table(tables::fig07(h))),
    fig("fig11", |h| Rendered::table(tables::fig11(h))),
    fig("fig12", |h| Rendered::table(tables::fig12(h))),
    fig("fig23", |h| Rendered::table(tables::fig23(h))),
    fig("fig15", |h| Rendered::table(tables::fig15(h))),
    fig("fig16", |h| {
        let mut out = Rendered::table(tables::fig16(h));
        out.text += &format!(
            "headline: EMCC speeds up Morphable by {:.1}% on average (paper: 7%)\n",
            tables::headline(h) * 100.0
        );
        out
    }),
    fig("fig17", |h| Rendered::table(tables::fig17(h))),
    fig("fig18", |h| Rendered::table(tables::fig18(h))),
    fig("fig19", |h| Rendered::table(tables::fig19(h))),
    fig("fig20", |h| Rendered::table(tables::fig20(h))),
    fig("fig21", |h| Rendered::table(tables::fig21(h))),
    fig("fig22", |h| Rendered::table(tables::fig22(h))),
    fig("fig24", |h| Rendered::table(tables::fig24(h))),
    fig("ablations", |h| {
        Rendered::tables(vec![
            tables::l2_budget(h),
            tables::aes_wait(h),
            tables::xpt(h),
        ])
    }),
    fig("race", |h| {
        let fig = tables::race(h);
        let telemetry = Some(("BENCH_race.json", race::telemetry(&fig)));
        Rendered {
            telemetry,
            ..Rendered::table(fig)
        }
    }),
    // Rendered only when named: in the default pass it would change
    // run_all's stdout and add its runs to the perf_gate matrix.
    Entry {
        id: "extensions",
        default: false,
        render: |h| Rendered::table(tables::extensions(h)),
    },
];

/// The entries `run_all` renders when no `--fig` is given.
pub fn default_pass() -> impl Iterator<Item = &'static Entry> {
    REGISTRY.iter().filter(|e| e.default)
}

/// The batch behind `entries`: every run their render functions ask
/// for, in call order and with repeats, as a recording harness notes
/// them. `run_all`, `perf_gate` and the figure benches all schedule this.
pub fn plan<'a>(
    params: ExpParams,
    entries: impl IntoIterator<Item = &'a Entry>,
) -> Vec<RunRequest> {
    let recorder = Harness::recording(params);
    for entry in entries {
        (entry.render)(&recorder);
    }
    recorder.recorded()
}

/// A rendered figure: benchmarks as rows, series as columns.
#[derive(Debug, Clone, Default)]
pub struct FigureData {
    /// e.g. "Figure 16: performance normalized to non-secure".
    pub title: String,
    /// Row labels (benchmark names; last row is typically "mean").
    pub rows: Vec<String>,
    /// Column labels.
    pub cols: Vec<String>,
    /// `values[row][col]`.
    pub values: Vec<Vec<f64>>,
    /// Whether values render as percentages.
    pub percent: bool,
    /// Free-form comparison note (paper's reported numbers).
    pub note: String,
}

impl FigureData {
    /// An empty percentage table.
    pub fn new(title: &str, cols: impl IntoIterator<Item = impl Into<String>>, note: &str) -> Self {
        FigureData {
            title: title.into(),
            cols: cols.into_iter().map(Into::into).collect(),
            percent: true,
            note: note.into(),
            ..FigureData::default()
        }
    }

    /// The same table with its values rendered as plain numbers.
    pub fn counts(self) -> Self {
        FigureData {
            percent: false,
            ..self
        }
    }

    /// Appends one row per benchmark of `suite`, its values computed by
    /// `row`, then the mean row.
    pub fn per_bench(mut self, suite: Vec<Benchmark>, row: impl Fn(Benchmark) -> Vec<f64>) -> Self {
        for bench in suite {
            self.rows.push(bench.name());
            self.values.push(row(bench));
        }
        self.push_mean_row();
        self
    }

    /// Appends an arithmetic-mean row over the current rows.
    fn push_mean_row(&mut self) {
        if self.values.is_empty() {
            return;
        }
        let cols = self.values[0].len();
        let mut mean = vec![0.0; cols];
        for row in &self.values {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= self.values.len() as f64;
        }
        self.rows.push("mean".to_string());
        self.values.push(mean);
    }

    /// Renders the table as CSV (`benchmark,col1,col2,...`), for plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("benchmark");
        for c in &self.cols {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (name, row) in self.rows.iter().zip(&self.values) {
            out.push_str(name);
            for v in row {
                out.push_str(&format!(",{v:.6}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as fixed-width text: a 16-wide name column, then
    /// 10-wide columns of percentages to 0.1% or numbers to 0.01.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n{:<16}", self.title, "benchmark");
        for c in &self.cols {
            let _ = write!(out, " {c:>10}");
        }
        for (name, row) in self.rows.iter().zip(&self.values) {
            let _ = write!(out, "\n{name:<16}");
            for v in row {
                let _ = if self.percent {
                    write!(out, " {:>9.1}%", v * 100.0)
                } else {
                    write!(out, " {v:>10.2}")
                };
            }
        }
        out.push('\n');
        if !self.note.is_empty() {
            let _ = writeln!(out, "paper: {}", self.note);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_row_is_arithmetic() {
        let mut f = FigureData {
            rows: vec!["a".into(), "b".into()],
            cols: vec!["x".into()],
            values: vec![vec![1.0], vec![3.0]],
            ..FigureData::default()
        };
        f.push_mean_row();
        assert_eq!(f.rows.last().map(String::as_str), Some("mean"));
        assert_eq!(f.values[2][0], 2.0);
        assert_eq!(f.rows.len(), 3);
    }

    #[test]
    fn rows_align() {
        let f = FigureData {
            rows: vec!["canneal".into()],
            values: vec![vec![1.0, 2.0]],
            ..FigureData::new("t", ["a", "b"], "").counts()
        };
        let text = f.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn pct_formatting() {
        let f = FigureData {
            rows: vec!["x".into()],
            values: vec![vec![0.125]],
            ..FigureData::new("t", ["a"], "")
        };
        assert!(f.render().contains("12.5%"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let f = FigureData {
            rows: vec!["canneal".into()],
            cols: vec!["EMCC".into(), "base".into()],
            values: vec![vec![0.125, 1.0]],
            ..FigureData::default()
        };
        let csv = f.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "benchmark,EMCC,base");
        assert!(lines[1].starts_with("canneal,0.125000,1.000000"));
    }

    #[test]
    fn planning_lists_each_run_matrix_without_simulating() {
        use std::collections::HashSet;
        let params = ExpParams::for_scale(emcc::prelude::WorkloadScale::Test);
        let default: HashSet<_> = plan(params, default_pass()).into_iter().collect();
        assert_eq!(default.len(), 277);
        let extensions = REGISTRY.iter().find(|e| e.id == "extensions").unwrap();
        let ext = plan(params, [extensions]);
        assert_eq!(ext.len(), 12);
        assert_eq!(ext.iter().filter(|r| !default.contains(r)).count(), 8);
    }

    #[test]
    fn registry_ids_are_unique_and_only_extensions_is_on_demand() {
        let ids: std::collections::HashSet<_> = REGISTRY.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), REGISTRY.len());
        let on_demand: Vec<_> = REGISTRY
            .iter()
            .filter(|e| !e.default)
            .map(|e| e.id)
            .collect();
        assert_eq!(on_demand, ["extensions"]);
    }

    #[test]
    fn render_contains_rows_and_note() {
        let mut f = FigureData {
            title: "Figure X".into(),
            rows: vec!["canneal".into()],
            cols: vec!["EMCC".into()],
            values: vec![vec![0.125]],
            percent: true,
            note: "12.5% for canneal".into(),
        };
        f.push_mean_row();
        let s = f.render();
        assert!(s.contains("Figure X"));
        assert!(s.contains("canneal"));
        assert!(s.contains("12.5%"));
        assert!(s.contains("paper:"));
    }
}
