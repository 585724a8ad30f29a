//! Snapshot guard for `fuzz_sim --smoke`.
//!
//! The smoke campaign's verdict lines (one per case: seed, report digest,
//! verdict) are deterministic for any `EMCC_JOBS`, so they are diffed byte
//! for byte against a committed file. Case `i` depends only on the seed
//! and `i`, so the 100 smoke lines are also the first 100 of the default
//! 200-case campaign, whose file CI compares with this one through
//! `head -n 100`. Every case also runs the
//! crash-recovery oracle over the secure-memory service, so a change that
//! moves a simulated report or a service verdict shows here and must come
//! with a reviewed snapshot update:
//!
//! ```text
//! EMCC_BLESS=1 cargo test -p emcc-fuzz --test fuzz_sim_smoke
//! ```

use std::path::PathBuf;
use std::process::Command;

#[test]
fn fuzz_sim_smoke_matches_snapshot() {
    // The verdict file, the telemetry drop and any reproducer go to a
    // scratch directory.
    let scratch = std::env::temp_dir().join(format!("emcc-fuzz-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let out = scratch.join("verdicts.txt");
    let output = Command::new(env!("CARGO_BIN_EXE_fuzz_sim"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .arg("--corpus-dir")
        .arg(scratch.join("repro"))
        .current_dir(&scratch)
        .env("EMCC_JOBS", "2")
        .output()
        .expect("spawn fuzz_sim");
    let actual = std::fs::read_to_string(&out);
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        output.status.success(),
        "fuzz_sim --smoke failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    emcc_bench::cli::check_snapshot(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/fuzz_sim_smoke.txt"),
        &actual.expect("verdict file written"),
        "EMCC_BLESS=1 cargo test -p emcc-fuzz --test fuzz_sim_smoke",
    );
}
