//! CLI contract of the campaign binaries and `service_bench`: every
//! output write goes through the exit-2 path, seeds are accepted in hex
//! as printed in verdict lines, and any verdict line's seed turns into a
//! replayable reproducer.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emcc-campaign-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env("EMCC_JOBS", "2")
        .output()
        .expect("spawn binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A path whose parent is a regular file: never writable.
fn unwritable(dir: &std::path::Path, name: &str) -> String {
    let file = dir.join("regular-file");
    std::fs::write(&file, "x").expect("regular file");
    file.join(name).to_str().expect("utf-8 path").to_string()
}

#[test]
fn crash_campaign_unwritable_out_exits_2_naming_the_path() {
    let dir = scratch("crash-out");
    let out = unwritable(&dir, "v.txt");
    let repro = dir.join("repro");
    let o = run(
        env!("CARGO_BIN_EXE_crash_campaign"),
        &[
            "--cases",
            "1",
            "--out",
            &out,
            "--repro-dir",
            repro.to_str().unwrap(),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(o.status.code(), Some(2), "stderr: {}", stderr(&o));
    assert!(stderr(&o).contains(&out), "stderr: {}", stderr(&o));
}

#[test]
fn service_bench_unwritable_out_exits_2_naming_the_path() {
    let dir = scratch("service-out");
    let out = unwritable(&dir, "x.json");
    let o = run(
        env!("CARGO_BIN_EXE_service_bench"),
        &["--threads", "1", "--ops", "10", "--out", &out],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(o.status.code(), Some(2), "stderr: {}", stderr(&o));
    assert!(stderr(&o).contains(&out), "stderr: {}", stderr(&o));
}

#[test]
fn crash_campaign_hex_and_decimal_seeds_agree() {
    let dir = scratch("crash-seed");
    let verdicts = |seed: &str| {
        let out = dir.join(format!("v-{seed}.txt"));
        let o = run(
            env!("CARGO_BIN_EXE_crash_campaign"),
            &[
                "--seed",
                seed,
                "--cases",
                "4",
                "--out",
                out.to_str().unwrap(),
            ],
        );
        assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
        std::fs::read_to_string(out).expect("verdict file")
    };
    let hex = verdicts("0xC4A5");
    let dec = verdicts("50341");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(hex, dec);
    assert_eq!(hex.lines().count(), 4);
}

#[test]
fn crash_campaign_emitted_case_replays_green() {
    let dir = scratch("crash-emit");
    let path = dir.join("case.txt");
    let path = path.to_str().unwrap();
    let emit = run(
        env!("CARGO_BIN_EXE_crash_campaign"),
        &["--emit", path, "--case-seed", "0xfe965f9da7b3c7f2"],
    );
    assert_eq!(emit.status.code(), Some(0), "stderr: {}", stderr(&emit));
    let replay = run(env!("CARGO_BIN_EXE_crash_campaign"), &["--replay", path]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(replay.status.code(), Some(0), "stderr: {}", stderr(&replay));
    assert!(
        stderr(&replay).contains(" ok"),
        "stderr: {}",
        stderr(&replay)
    );
}
