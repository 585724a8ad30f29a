//! Snapshot guards for `run_all --smoke` (tier 2, except the timelines
//! check).
//!
//! The smoke pass runs every figure at `Test` scale, which is fast and
//! bit-deterministic, so its stdout can be diffed byte-for-byte against
//! a committed snapshot, and so can its `--csv` tables and the host work
//! it did: the event dispatches per kind summed over its runs. The
//! tables carry 6 decimals where stdout rounds to 0.1%, so they catch
//! what stdout cannot, such as a float sum taken in another order. Any
//! change to a figure's numbers or to that work — intended or not — must
//! come with a reviewed snapshot update:
//!
//! ```text
//! EMCC_BLESS=1 cargo test -p emcc-bench --test run_all_smoke -- --ignored
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/run_all_smoke.txt")
}

/// The `dispatches` object of a `BENCH_run_all.json`, one `kind count`
/// line per entry.
fn dispatch_lines(json: &str) -> String {
    let (_, rest) = json
        .split_once("\"dispatches\": {\n")
        .expect("telemetry has a dispatches object");
    let (body, _) = rest.split_once("\n  }").expect("dispatches object closes");
    body.lines()
        .map(|line| {
            let (kind, count) = line
                .trim()
                .trim_end_matches(',')
                .split_once(": ")
                .expect("a `\"kind\": count` entry");
            format!("{} {count}\n", kind.trim_matches('"'))
        })
        .collect()
}

/// Runs `run_all --smoke` plus `args` in the scratch directory `dir` (so
/// the telemetry drops stay out of the repo) and returns its stdout.
fn smoke_in(dir: &Path, args: &[&str]) -> String {
    std::fs::create_dir_all(dir).expect("create scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("--smoke")
        .args(args)
        .current_dir(dir)
        .env_remove("EMCC_SCALE")
        .output()
        .expect("spawn run_all");
    assert!(
        output.status.success(),
        "run_all --smoke {args:?} failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

#[test]
fn timelines_block_matches_both_committed_outputs() {
    // Each timeline is one directed load, so the block does not depend on
    // the scale: it is the one paper-scale section tier 1 can check.
    let scratch = std::env::temp_dir().join(format!("emcc-timelines-{}", std::process::id()));
    let stdout = smoke_in(&scratch, &["--fig", "timelines"]);
    let _ = std::fs::remove_dir_all(&scratch);
    let (_, block) = stdout.split_once('\n').expect("header line");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for path in [root.join("run_all_output.txt"), snapshot_path()] {
        let text = std::fs::read_to_string(&path).expect("committed output readable");
        assert!(
            text.contains(block),
            "{} lacks the block `run_all --fig timelines` prints:\n{block}",
            path.display()
        );
    }
}

#[test]
#[ignore = "tier-2: runs the full figure pipeline (~a minute at Test scale)"]
fn run_all_smoke_matches_snapshot() {
    // Run from a scratch directory so the BENCH_run_all.json telemetry
    // drop does not land in the repo.
    let scratch = std::env::temp_dir().join(format!("emcc-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--smoke", "--csv", "figs"])
        .current_dir(&scratch)
        .env_remove("EMCC_SCALE")
        .env("EMCC_JOBS", "1")
        .output()
        .expect("spawn run_all");
    let telemetry = std::fs::read_to_string(scratch.join("BENCH_run_all.json"));
    let tables = concat_csvs(&scratch.join("figs"));
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        output.status.success(),
        "run_all --smoke failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let bless = "EMCC_BLESS=1 cargo test -p emcc-bench --test run_all_smoke -- --ignored";
    emcc_bench::cli::check_snapshot(&snapshot_path(), &actual, bless);
    let telemetry = telemetry.expect("run_all writes BENCH_run_all.json");
    emcc_bench::cli::check_snapshot(
        &snapshot_path().with_file_name("run_all_smoke_dispatches.txt"),
        &dispatch_lines(&telemetry),
        bless,
    );
    emcc_bench::cli::check_snapshot(
        &snapshot_path().with_file_name("run_all_smoke_tables.txt"),
        &tables,
        bless,
    );
}

/// Every file in the CSV directory `dir` with its contents, in
/// file-name order.
fn csv_files(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("csv dir written")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|f| {
            let csv = std::fs::read_to_string(&f).expect("csv readable");
            (f, csv)
        })
        .collect()
}

/// Every CSV file in `dir`, in file-name order, each after a
/// `# <file name>` line.
fn concat_csvs(dir: &Path) -> String {
    csv_files(dir)
        .iter()
        .map(|(f, csv)| {
            let name = f.file_name().expect("file name").to_string_lossy();
            format!("# {name}\n{csv}")
        })
        .collect()
}

#[test]
#[ignore = "tier-2: renders the on-demand extensions entry at Test scale"]
fn extensions_entry_matches_snapshot() {
    // No other test or CI step renders this entry: it is outside the
    // default pass.
    let scratch = std::env::temp_dir().join(format!("emcc-smoke-ext-{}", std::process::id()));
    let stdout = smoke_in(&scratch, &["--fig", "extensions"]);
    let _ = std::fs::remove_dir_all(&scratch);
    emcc_bench::cli::check_snapshot(
        &snapshot_path().with_file_name("run_all_smoke_extensions.txt"),
        &stdout,
        "EMCC_BLESS=1 cargo test -p emcc-bench --test run_all_smoke -- --ignored",
    );
}

#[test]
#[ignore = "tier-2: renders every figure on its own at Test scale"]
fn each_figure_alone_prints_its_snapshot_text() {
    let snapshot = std::fs::read_to_string(snapshot_path()).expect("snapshot readable");
    let (header, body) = snapshot.split_at(snapshot.find("\n\n").expect("header") + 2);
    let scratch = std::env::temp_dir().join(format!("emcc-smoke-fig-{}", std::process::id()));
    let mut texts = Vec::new();
    for entry in emcc_bench::experiments::default_pass() {
        let stdout = smoke_in(&scratch, &["--fig", entry.id]);
        let text = stdout
            .strip_prefix(header)
            .unwrap_or_else(|| panic!("--fig {}: header differs:\n{stdout}", entry.id));
        assert!(
            body.contains(text),
            "--fig {} text is not in the snapshot:\n{text}",
            entry.id
        );
        texts.push(text.to_string());
    }
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        texts.join("\n") == body,
        "the default entries, rendered one by one, must join to the snapshot"
    );
}

#[test]
#[ignore = "tier-2: runs the full figure pipeline at Test scale"]
fn csv_dir_gets_one_well_formed_file_per_table() {
    let scratch = std::env::temp_dir().join(format!("emcc-smoke-csv-{}", std::process::id()));
    let stdout = smoke_in(&scratch, &["--csv", "figs"]);
    // A rendered table is a `== title ==` line followed by its column
    // header row.
    let lines: Vec<&str> = stdout.lines().collect();
    let tables = lines
        .windows(2)
        .filter(|w| w[0].starts_with("== ") && w[1].starts_with("benchmark"))
        .count();
    let files = csv_files(&scratch.join("figs"));
    let _ = std::fs::remove_dir_all(&scratch);
    assert_eq!(files.len(), tables, "one file per table: {files:?}");
    for (file, csv) in &files {
        let mut rows = csv.lines();
        let header = rows.next().unwrap_or_default();
        assert!(header.starts_with("benchmark,"), "{file:?}: {header}");
        let fields = header.split(',').count();
        let mut n = 0;
        for row in rows {
            assert_eq!(row.split(',').count(), fields, "{file:?}: {row}");
            n += 1;
        }
        assert!(n > 0, "{file:?} has no rows");
    }
}
