//! Corpus files: replayable `.ron` serialization of [`FuzzCase`].
//!
//! The format is the campaigns' shared reproducer codec
//! ([`emcc_bench::record`]): a stable, hand-editable RON subset with one
//! `key: value` per line and trace entries one per line. This module only
//! maps `FuzzCase` fields onto it. Parsing re-validates the case, so a
//! corrupted or hand-broken file fails with a message, never a simulator
//! panic.

use std::path::{Path, PathBuf};

use emcc::dram::{Fault, FaultClass};
use emcc::sim::LineAddr;
use emcc_bench::record::{self, variant, Fields, Record};

use crate::case::{FuzzCase, FuzzOp};

/// A corpus file that failed to load: the path plus why.
///
/// Typed (rather than a bare string) so directory scans can *continue*
/// past a corrupted or truncated file, report every offender at once,
/// and still fail the replay suite — one bad file must never hide the
/// verdicts of the rest of the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusError {
    /// The offending file.
    pub path: PathBuf,
    /// Parse or I/O failure description (names the line for syntax
    /// errors).
    pub reason: String,
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.reason)
    }
}

impl std::error::Error for CorpusError {}

/// Loads every `*.ron` case under `dir` in sorted order, continuing past
/// files that fail to parse.
///
/// Returns the successfully loaded `(path, case)` pairs plus one
/// [`CorpusError`] per bad file. A missing or unreadable directory is a
/// single error entry for the directory itself.
pub fn load_dir(dir: &Path) -> (Vec<(PathBuf, FuzzCase)>, Vec<CorpusError>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) => {
            return (
                Vec::new(),
                vec![CorpusError {
                    path: dir.to_path_buf(),
                    reason: format!("corpus dir unreadable: {e}"),
                }],
            )
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ron"))
        .collect();
    paths.sort();
    let mut cases = Vec::new();
    let mut errors = Vec::new();
    for path in paths {
        match std::fs::read_to_string(&path) {
            Err(e) => errors.push(CorpusError {
                path,
                reason: e.to_string(),
            }),
            Ok(text) => match from_ron(&text) {
                Ok(case) => cases.push((path, case)),
                Err(reason) => errors.push(CorpusError { path, reason }),
            },
        }
    }
    (cases, errors)
}

/// Serializes a case to corpus text.
pub fn to_ron(case: &FuzzCase) -> String {
    let fault = match case.fault {
        None => "None".to_string(),
        Some(Fault::Planted {
            line,
            class,
            on_read,
        }) => format!(
            "Planted(line: {}, class: {}, on_read: {on_read})",
            line.get(),
            class.index()
        ),
        Some(Fault::Uniform { class, rate_ppm }) => {
            format!("Uniform(class: {}, rate_ppm: {rate_ppm})", class.index())
        }
    };
    let mut fields = scalars(case);
    fields.push(("fault", fault));
    let trace = case.trace.iter().map(|o| {
        format!(
            "(line: {}, write: {}, gap: {}, dep: {})",
            o.line, o.write, o.gap, o.dep
        )
    });
    record::write(&HEADER, "FuzzCase", &fields, ("trace", trace.collect()))
}

/// Parses corpus text back into a validated case.
///
/// # Errors
///
/// Returns a message naming the offending line for syntax errors,
/// missing/duplicate keys, or a case that fails [`FuzzCase::validate`].
pub fn from_ron(text: &str) -> Result<FuzzCase, String> {
    let rec = Record::parse(text, "FuzzCase")?;
    // A fault class is written as its `FaultClass::index`.
    let class = |a: &Fields| -> Result<FaultClass, String> {
        let index: usize = a.get("class")?;
        FaultClass::all()
            .get(index)
            .copied()
            .ok_or_else(|| format!("invalid case: fault class {index} out of range"))
    };
    let fault = match variant(rec.fields.raw("fault")?)? {
        ("None", _) => None,
        ("Planted", a) => Some(Fault::Planted {
            line: LineAddr::new(a.get("line")?),
            class: class(&a)?,
            on_read: a.get("on_read")?,
        }),
        ("Uniform", a) => Some(Fault::Uniform {
            class: class(&a)?,
            rate_ppm: a.get("rate_ppm")?,
        }),
        (other, _) => return Err(format!("unknown fault plan `{other}`")),
    };
    let op = |t: &Fields| -> Result<FuzzOp, String> {
        Ok(FuzzOp {
            line: t.get("line")?,
            write: t.get("write")?,
            gap: t.get("gap")?,
            dep: t.get("dep")?,
        })
    };
    let trace = rec.list.iter().map(op).collect::<Result<_, _>>()?;
    let case = with_scalars(&rec.fields, fault, trace)?;
    case.validate()?;
    Ok(case)
}

const HEADER: [&str; 2] = [
    "emcc-fuzz corpus case — replays via `cargo test -p emcc-fuzz --test corpus_replay`",
    "or `fuzz_sim --replay <this file>`. See EXPERIMENTS.md (fuzzing section).",
];

/// Maps the scalar fields of [`FuzzCase`] both ways, in file order
/// (`fault` and `trace` follow), so writer and reader cannot drift.
macro_rules! scalar_fields {
    ($($f:ident),*) => {
        fn scalars(case: &FuzzCase) -> Vec<(&'static str, String)> {
            vec![$((stringify!($f), case.$f.to_string())),*]
        }

        fn with_scalars(f: &Fields, fault: Option<Fault>, trace: Vec<FuzzOp>) -> Result<FuzzCase, String> {
            Ok(FuzzCase { $($f: f.get(stringify!($f))?,)* fault, trace })
        }
    };
}

scalar_fields! {
    seed, cores, ops_per_core, data_lines, l1_sets, l1_ways, l2_sets, l2_ways, llc_slices,
    llc_sets, llc_ways, mc_sets, mc_ways, channels, xpt, inclusive, prefetch, aes_to_l2_pct,
    budget_lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_fault_plan() {
        for seed in [1u64, 2, 5, 8, 13, 21, 34, 55] {
            let case = FuzzCase::generate(seed);
            let text = to_ron(&case);
            let back = from_ron(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(case, back, "roundtrip drift for seed {seed}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let case = FuzzCase::generate(3);
        let text = format!("// header\n\n{}\n// trailer\n", to_ron(&case));
        assert_eq!(from_ron(&text).unwrap(), case);
    }

    #[test]
    fn missing_field_reported_by_name() {
        let case = FuzzCase::generate(3);
        let text = to_ron(&case)
            .replace("    cores: 1,\n", "")
            .replace("    cores: 2,\n", "");
        let err = from_ron(&text).unwrap_err();
        assert!(err.contains("cores"), "unhelpful error: {err}");
    }

    #[test]
    fn invalid_case_rejected_on_load() {
        let mut case = FuzzCase::generate(3);
        case.trace[0].line = case.data_lines + 5;
        let err = from_ron(&to_ron(&case)).unwrap_err();
        assert!(err.contains("data space"), "unhelpful error: {err}");
    }

    #[test]
    fn syntax_error_names_the_line() {
        let err = from_ron("FuzzCase(\n  what even is this\n)").unwrap_err();
        assert!(err.contains("line 2"), "unhelpful error: {err}");
    }

    #[test]
    fn load_dir_continues_past_a_truncated_file() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-scratch")
            .join(format!("corpus-load-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = FuzzCase::generate(5);
        std::fs::write(dir.join("aa_good.ron"), to_ron(&good)).unwrap();
        // Truncate a valid file mid-trace-entry: the classic
        // crash-while-saving artifact that used to abort the whole replay
        // suite. (A cut on a line boundary would still parse, just with
        // fewer ops, so aim inside the final entry's tokens.)
        let full = to_ron(&FuzzCase::generate(6));
        let cut = full.rfind("(line:").expect("trace entry") + "(line: 1".len();
        std::fs::write(dir.join("bb_truncated.ron"), &full[..cut]).unwrap();
        std::fs::write(dir.join("cc_good.ron"), to_ron(&FuzzCase::generate(7))).unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a corpus file").unwrap();

        let (cases, errors) = load_dir(&dir);
        assert_eq!(cases.len(), 2, "good files must still load");
        assert_eq!(cases[0].1, good);
        assert_eq!(errors.len(), 1, "exactly the truncated file fails");
        assert!(errors[0].path.ends_with("bb_truncated.ron"));
        assert!(
            errors[0].to_string().contains("bb_truncated.ron"),
            "error must name the bad file: {}",
            errors[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_reports_missing_directory_as_one_error() {
        let (cases, errors) = load_dir(Path::new("does/not/exist-anywhere"));
        assert!(cases.is_empty());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].reason.contains("unreadable"));
    }
}
