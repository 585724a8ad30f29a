//! Snapshot guard for `fault_campaign --smoke`.
//!
//! The smoke campaign's 30 verdict lines (one per sweep cell at the 5%
//! rate: the fault counts and the verdict of the fuzz battery's report
//! laws) are deterministic for any `EMCC_JOBS`, so they are diffed byte for
//! byte against a committed file. A change that moves a fault count must
//! come with a reviewed snapshot update:
//!
//! ```text
//! EMCC_BLESS=1 cargo test -p emcc-fuzz --test fault_campaign_smoke
//! ```

use std::path::PathBuf;
use std::process::Command;

#[test]
fn fault_campaign_smoke_matches_snapshot() {
    // The verdict file and any reproducer go to a scratch directory.
    let scratch = std::env::temp_dir().join(format!("emcc-fault-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let out = scratch.join("verdicts.txt");
    let output = Command::new(env!("CARGO_BIN_EXE_fault_campaign"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .arg("--repro-dir")
        .arg(scratch.join("repro"))
        .env("EMCC_JOBS", "2")
        .output()
        .expect("spawn fault_campaign");
    let actual = std::fs::read_to_string(&out);
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        output.status.success(),
        "fault_campaign --smoke failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    emcc_bench::cli::check_snapshot(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/fault_campaign_smoke.txt"),
        &actual.expect("verdict file written"),
        "EMCC_BLESS=1 cargo test -p emcc-fuzz --test fault_campaign_smoke",
    );
}
