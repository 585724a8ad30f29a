//! One module per figure (or per group of figures sharing simulations),
//! and the [`REGISTRY`] that names each figure once.
//!
//! A figure's run-matrix is declared only by its render code: [`plan`]
//! runs the render functions on a recording harness, which notes every
//! run they ask for and simulates nothing. `run_all` then executes that
//! batch and renders again from the filled run-cache.

pub mod ablations;
pub mod emcc_ctr;
pub mod fig02;
pub mod fig03;
pub mod fig06_07;
pub mod fig15;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21_22;
pub mod fig24;
pub mod perf;
pub mod race;
pub mod timelines;

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
    fig("fig02", |h| Rendered::table(fig02::run(h))),
    fig("fig06", |h| Rendered::table(fig06_07::run_fig06(h))),
    fig("fig07", |h| Rendered::table(fig06_07::run_fig07(h))),
    fig("fig11", |h| Rendered::table(emcc_ctr::run(h).fig11)),
    fig("fig12", |h| Rendered::table(emcc_ctr::run(h).fig12)),
    fig("fig23", |h| Rendered::table(emcc_ctr::run(h).fig23)),
    fig("fig15", |h| Rendered::table(fig15::run(h))),
    fig("fig16", |h| {
        let rows = perf::run_suite(h);
        let mut out = Rendered::table(perf::fig16(&rows));
        out.text += &format!(
            "headline: EMCC speeds up Morphable by {:.1}% on average (paper: 7%)\n",
            perf::mean_emcc_speedup(&rows) * 100.0
        );
        out
    }),
    fig("fig17", |h| {
        Rendered::table(perf::fig17(&perf::run_suite(h)))
    }),
    fig("fig18", |h| Rendered::table(fig18::run(h))),
    fig("fig19", |h| Rendered::table(fig19::run(h))),
    fig("fig20", |h| Rendered::table(fig20::run(h))),
    fig("fig21", |h| Rendered::table(fig21_22::run(h).fig21)),
    fig("fig22", |h| Rendered::table(fig21_22::run(h).fig22)),
    fig("fig24", |h| Rendered::table(fig24::run(h))),
    fig("ablations", |h| {
        Rendered::tables(vec![
            ablations::l2_budget(h),
            ablations::aes_wait(h),
            ablations::xpt(h),
        ])
    }),
    fig("race", |h| {
        let fig = race::figure(h);
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
        render: |h| Rendered::table(ablations::extensions(h)),
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
    /// Appends an arithmetic-mean row over the current rows.
    pub fn push_mean_row(&mut self) {
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

    /// Mean-row value for column `c` (the figure's headline number).
    ///
    /// # Panics
    ///
    /// Panics if no mean row was pushed or `c` is out of range.
    pub fn mean(&self, c: usize) -> f64 {
        assert_eq!(self.rows.last().map(String::as_str), Some("mean"));
        self.values.last().expect("rows exist")[c]
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

    /// Renders the table as fixed-width text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&crate::runner::header_row(
            "benchmark",
            &self.cols.iter().map(String::as_str).collect::<Vec<_>>(),
        ));
        out.push('\n');
        for (name, row) in self.rows.iter().zip(&self.values) {
            let line = if self.percent {
                crate::runner::pct_row(name, row)
            } else {
                crate::runner::num_row(name, row)
            };
            out.push_str(&line);
            out.push('\n');
        }
        if !self.note.is_empty() {
            out.push_str(&format!("paper: {}\n", self.note));
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
        assert_eq!(f.mean(0), 2.0);
        assert_eq!(f.rows.len(), 3);
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
