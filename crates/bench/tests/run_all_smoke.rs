//! Tier-2 snapshot guard for `run_all --smoke`.
//!
//! The smoke pass runs every figure at `Test` scale, which is fast and
//! bit-deterministic, so its stdout can be diffed byte-for-byte against
//! a committed snapshot. Any change to a figure's numbers — intended or
//! not — must come with a reviewed snapshot update:
//!
//! ```text
//! EMCC_BLESS=1 cargo test -p emcc-bench --test run_all_smoke -- --ignored
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/run_all_smoke.txt")
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
#[ignore = "tier-2: runs the full figure pipeline (~a minute at Test scale)"]
fn run_all_smoke_matches_snapshot() {
    // Run from a scratch directory so the BENCH_run_all.json telemetry
    // drop does not land in the repo.
    let scratch = std::env::temp_dir().join(format!("emcc-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("--smoke")
        .current_dir(&scratch)
        .env_remove("EMCC_SCALE")
        .env("EMCC_JOBS", "1")
        .output()
        .expect("spawn run_all");
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        output.status.success(),
        "run_all --smoke failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("stdout is UTF-8");

    let path = snapshot_path();
    let bless = emcc_bench::bless_requested();
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create snapshot dir");
        std::fs::write(&path, &actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "snapshot {} unreadable ({e}) — run EMCC_BLESS=1 cargo test -p emcc-bench \
             --test run_all_smoke -- --ignored to create it",
            path.display()
        )
    });
    if actual != expected {
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e)
            .map(|(n, (a, e))| format!("line {}: got `{a}`, snapshot `{e}`", n + 1))
            .unwrap_or_else(|| {
                format!(
                    "lengths differ ({} vs {} lines)",
                    actual.lines().count(),
                    expected.lines().count()
                )
            });
        panic!(
            "run_all --smoke stdout drifted from the committed snapshot \
             (EMCC_BLESS=1 regenerates after review):\n{first_diff}"
        );
    }
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
    let mut files: Vec<PathBuf> = std::fs::read_dir(scratch.join("figs"))
        .expect("csv dir written")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    let csvs: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("csv readable"))
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);
    assert_eq!(files.len(), tables, "one file per table: {files:?}");
    for (file, csv) in files.iter().zip(&csvs) {
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
