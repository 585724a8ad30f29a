//! `fuzz_sim` accepts seeds in hex, the form its verdict lines print.

use std::process::Command;

#[test]
fn hex_and_decimal_seeds_agree() {
    let dir = std::env::temp_dir().join(format!("emcc-fuzz-seed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let verdicts = |seed: &str| {
        let out = dir.join(format!("v-{seed}.txt"));
        let o = Command::new(env!("CARGO_BIN_EXE_fuzz_sim"))
            .args([
                "--seed",
                seed,
                "--cases",
                "2",
                "--out",
                out.to_str().unwrap(),
            ])
            .env("EMCC_JOBS", "2")
            .output()
            .expect("spawn fuzz_sim");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(0), "stderr: {stderr}");
        std::fs::read_to_string(out).expect("verdict file")
    };
    let hex = verdicts("0x7");
    let dec = verdicts("7");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(hex, dec);
    assert_eq!(hex.lines().count(), 2);
}
