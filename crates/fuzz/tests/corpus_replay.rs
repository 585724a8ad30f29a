//! Replays every persisted corpus case through the full oracle battery.
//!
//! `fuzz/corpus/*.ron` is the fuzzer's regression suite: any case a
//! campaign ever shrunk (plus hand-pinned benign cases) stays red until
//! its bug is fixed, and green forever after. The directory is resolved
//! relative to this crate so the test passes from any working directory;
//! `EMCC_CORPUS_DIR` points it elsewhere for sandboxed CI steps.
//!
//! Loading is fault-tolerant: a corrupted or truncated corpus file is
//! reported (and fails the suite) *by name*, but never stops the
//! remaining cases from replaying — so one bad file cannot mask a
//! regression in the rest of the corpus.

use std::path::PathBuf;

use emcc_fuzz::{check_case, corpus};

fn corpus_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("EMCC_CORPUS_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
}

#[test]
fn corpus_cases_replay_green() {
    let dir = corpus_dir();
    let (cases, load_errors) = corpus::load_dir(&dir);
    assert!(
        !cases.is_empty() || !load_errors.is_empty(),
        "corpus dir {} holds no .ron cases — the regression suite vanished",
        dir.display()
    );
    // Replay everything that loaded, even when some files are bad.
    let mut failures: Vec<String> = load_errors
        .iter()
        .map(|e| format!("unloadable corpus file: {e}"))
        .collect();
    for (path, case) in &cases {
        let report = check_case(case);
        if !report.ok() {
            failures.push(format!("{}: {:?}", path.display(), report.failures));
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus problem(s) ({} case(s) replayed):\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}

#[test]
fn corpus_files_roundtrip_exactly() {
    // A pinned corpus file must re-serialize to its own bytes, or
    // reproducers would drift when re-persisted. (Shrunk reproducers
    // carry a trailer of `// failed oracle:` comments after the case.)
    let (cases, _) = corpus::load_dir(&corpus_dir());
    for (path, case) in cases {
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let trailer = text.strip_prefix(&corpus::to_ron(&case));
        assert!(
            trailer.is_some_and(|t| t.lines().all(|l| l.starts_with("// failed oracle: "))),
            "byte drift in {}",
            path.display()
        );
    }
}

#[test]
fn truncated_corpus_file_is_reported_but_not_fatal() {
    // End-to-end: a scratch corpus with one deliberately truncated file
    // still yields every healthy case plus a typed, file-naming error.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-scratch")
        .join(format!("corpus-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let good = emcc_fuzz::FuzzCase::generate(41);
    std::fs::write(dir.join("good.ron"), corpus::to_ron(&good)).unwrap();
    // Cut mid-way through a trace entry, the way a crash while saving
    // does — a cut on a line boundary would still parse (fewer ops).
    let full = corpus::to_ron(&emcc_fuzz::FuzzCase::generate(42));
    let cut = full.rfind("(line:").expect("trace entry") + "(line: 1".len();
    std::fs::write(dir.join("torn.ron"), &full[..cut]).unwrap();

    let (cases, errors) = corpus::load_dir(&dir);
    assert_eq!(cases.len(), 1);
    assert_eq!(cases[0].1, good);
    assert_eq!(errors.len(), 1);
    assert!(errors[0].path.ends_with("torn.ron"));
    let _ = std::fs::remove_dir_all(&dir);
}
