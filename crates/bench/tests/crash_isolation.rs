//! Crash isolation end-to-end: a panicking simulation inside `run_all`
//! must not take the process down silently — the run exits nonzero but
//! still writes `BENCH_run_all.json` with the failed-run telemetry, and
//! bad configuration is a distinct (exit 2) typed error.

use std::process::Command;

#[test]
fn run_all_contains_panics_and_writes_failure_telemetry() {
    let dir = std::env::temp_dir().join(format!("emcc-crash-isolation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp workdir");
    // `*` forces every simulation to panic at entry, so the child is fast:
    // the pool contains each unwind, execute() records the failures, and
    // run_all bails before rendering.
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .current_dir(&dir)
        .env("EMCC_SCALE", "test")
        .env("EMCC_JOBS", "2")
        .env("EMCC_FORCE_PANIC", "*")
        .output()
        .expect("spawn run_all");
    assert_eq!(
        out.status.code(),
        Some(1),
        "failed runs must exit 1; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("BENCH_run_all.json"))
        .expect("telemetry must be written even when runs fail");
    assert!(
        json.contains("\"failed_runs\": [\n"),
        "failed_runs must be populated:\n{json}"
    );
    assert!(
        json.contains("EMCC_FORCE_PANIC: simulated crash"),
        "the panic message must be recorded:\n{json}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_figure_run_contains_panics_like_the_full_pass() {
    // One figure goes through the same plan → pool → render path as the
    // full pass: a crashed run leaves the failure trail and exit 1, never
    // a re-simulation (and a raw panic) on the render thread.
    let dir = std::env::temp_dir().join(format!("emcc-crash-fig16-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp workdir");
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--fig", "fig16"])
        .current_dir(&dir)
        .env("EMCC_SCALE", "test")
        .env("EMCC_JOBS", "2")
        .env("EMCC_FORCE_PANIC", "canneal")
        .output()
        .expect("spawn run_all");
    let json = std::fs::read_to_string(dir.join("BENCH_run_all.json"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        out.status.code(),
        Some(1),
        "failed runs must exit 1; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = json.expect("telemetry must be written even when runs fail");
    // Failed-run records carry an `error`; exhausted-run records don't.
    let failed_canneal = json.lines().any(|l| {
        l.contains("{\"bench\": \"canneal\"") && l.contains("\"error\": \"EMCC_FORCE_PANIC")
    });
    assert!(
        failed_canneal,
        "canneal must be listed under failed_runs:\n{json}"
    );
}

#[test]
fn bad_scale_is_a_config_error_not_a_crash() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .env("EMCC_SCALE", "huge")
        .output()
        .expect("spawn run_all");
    assert_eq!(out.status.code(), Some(2), "config errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("EMCC_SCALE") && stderr.contains("test|small|paper"),
        "the error must name the variable and the accepted values:\n{stderr}"
    );
}
