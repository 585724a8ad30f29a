//! Snapshot guard for `crash_campaign --smoke`.
//!
//! The smoke campaign's 64 verdict lines are deterministic for any
//! `EMCC_JOBS`, so they are diffed byte for byte against a committed
//! file: a change that moves a crash verdict must come with a reviewed
//! snapshot update:
//!
//! ```text
//! EMCC_BLESS=1 cargo test -p emcc-bench --test crash_campaign_smoke
//! ```

use std::path::PathBuf;
use std::process::Command;

#[test]
fn crash_campaign_smoke_matches_snapshot() {
    // The verdict file and the telemetry drop go to a scratch directory.
    let scratch = std::env::temp_dir().join(format!("emcc-crash-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let out = scratch.join("verdicts.txt");
    let output = Command::new(env!("CARGO_BIN_EXE_crash_campaign"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .arg("--repro-dir")
        .arg(scratch.join("repro"))
        .env("EMCC_JOBS", "2")
        .output()
        .expect("spawn crash_campaign");
    let actual = std::fs::read_to_string(&out);
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        output.status.success(),
        "crash_campaign --smoke failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = actual.expect("verdict file written");
    emcc_bench::cli::check_snapshot(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/crash_campaign_smoke.txt"),
        &actual,
        "EMCC_BLESS=1 cargo test -p emcc-bench --test crash_campaign_smoke",
    );
}
