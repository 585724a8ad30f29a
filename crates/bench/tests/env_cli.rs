//! CLI-level regression tests for configuration errors: malformed
//! `EMCC_JOBS`/`EMCC_SCALE` and broken `--replay` reproducers must exit
//! with status 2 (the config-error code every binary reserves) and say
//! which input was bad — never hang on a zero-sized pool, panic, or
//! quietly fall back to a default and run the wrong experiment.
//!
//! All invocations here fail during argument/environment validation,
//! before any simulation is scheduled, so the tests are fast.

use std::process::Command;

/// Spawns `bin` with one overridden env var and returns (status, stderr).
fn run_env(bin: &str, args: &[&str], var: &str, value: &str) -> (i32, String) {
    let output = Command::new(bin)
        .args(args)
        .env_remove("EMCC_SCALE")
        .env_remove("EMCC_JOBS")
        .env(var, value)
        .output()
        .expect("spawn binary");
    (
        output.status.code().expect("no exit code"),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn run_all_rejects_zero_jobs_with_exit_2() {
    // EMCC_JOBS=0 must be a typed config error, not a zero-worker hang.
    let (code, stderr) = run_env(
        env!("CARGO_BIN_EXE_run_all"),
        &["--smoke"],
        "EMCC_JOBS",
        "0",
    );
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("EMCC_JOBS"), "stderr: {stderr}");
    assert!(stderr.contains("positive integer"), "stderr: {stderr}");
}

#[test]
fn run_all_rejects_whitespace_jobs_with_exit_2() {
    let (code, stderr) = run_env(
        env!("CARGO_BIN_EXE_run_all"),
        &["--smoke"],
        "EMCC_JOBS",
        " 4 ",
    );
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("EMCC_JOBS"), "stderr: {stderr}");
}

#[test]
fn run_all_rejects_unknown_scale_with_exit_2() {
    let (code, stderr) = run_env(env!("CARGO_BIN_EXE_run_all"), &[], "EMCC_SCALE", "huge");
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("EMCC_SCALE"), "stderr: {stderr}");
    assert!(stderr.contains("test|small|paper"), "stderr: {stderr}");
}

#[test]
fn run_all_rejects_whitespace_scale_with_exit_2() {
    // "test " (a trailing space from a shell export) must not silently
    // fall back to the small-scale default.
    let (code, stderr) = run_env(env!("CARGO_BIN_EXE_run_all"), &[], "EMCC_SCALE", "test ");
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("EMCC_SCALE"), "stderr: {stderr}");
}

#[test]
fn crash_campaign_replay_missing_file_exits_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_crash_campaign"))
        .args(["--replay", "/nonexistent/emcc-no-such-repro.ron"])
        .output()
        .expect("spawn crash_campaign");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("emcc-no-such-repro"), "stderr: {stderr}");
}

#[test]
fn crash_campaign_replay_unparseable_file_exits_2() {
    let path = std::env::temp_dir().join(format!("emcc-bad-repro-{}.ron", std::process::id()));
    std::fs::write(&path, "this is not a crash case\n").expect("write garbage repro");
    let output = Command::new(env!("CARGO_BIN_EXE_crash_campaign"))
        .args(["--replay", path.to_str().expect("utf-8 temp path")])
        .output()
        .expect("spawn crash_campaign");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("emcc-bad-repro"), "stderr: {stderr}");
}

#[test]
fn perf_gate_missing_baseline_exits_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .env("EMCC_PERF_BASELINE", "/nonexistent/emcc-no-baseline.json")
        .env_remove("EMCC_BLESS")
        .output()
        .expect("spawn perf_gate");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("EMCC_BLESS=1"), "stderr: {stderr}");
}

#[test]
fn perf_gate_unparseable_baseline_exits_2() {
    let path = std::env::temp_dir().join(format!("emcc-bad-base-{}.json", std::process::id()));
    std::fs::write(&path, "{\"not_the_field\": 1}\n").expect("write bad baseline");
    let output = Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .env(
            "EMCC_PERF_BASELINE",
            path.to_str().expect("utf-8 temp path"),
        )
        .env_remove("EMCC_BLESS")
        .output()
        .expect("spawn perf_gate");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("sims_per_sec"), "stderr: {stderr}");
}

#[test]
fn perf_gate_bless_zero_is_not_a_bless() {
    // EMCC_BLESS=0 must mean "off", as it does for the snapshot tests:
    // the gate reads the (missing) baseline and fails, writing nothing.
    let dir = std::env::temp_dir().join(format!("emcc-bless-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("baseline.json");
    let output = Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .env("EMCC_PERF_BASELINE", &path)
        .env("EMCC_BLESS", "0")
        .output()
        .expect("spawn perf_gate");
    let created = path.exists();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(!created, "EMCC_BLESS=0 must not write a baseline");
}
