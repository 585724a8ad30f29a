//! Golden-report regression: canonical `SimReport`s for a pinned seed
//! set must match the checked-in snapshots bit for bit.
//!
//! Any timing-model change — intended or not — shows up here as a
//! readable JSON diff before it can silently shift the paper's figures.
//! After reviewing an intended change, regenerate with
//!
//! ```text
//! EMCC_BLESS=1 cargo test -p emcc-fuzz --test golden_reports
//! ```
//! and commit the updated `tests/golden/*.json`.

use std::path::PathBuf;

use emcc::system::SecureSystem;
use emcc_fuzz::oracle::{DESIGNS, SCHEMES};
use emcc_fuzz::FuzzCase;

/// Pinned case seeds: small, fixed forever (append, never change).
const GOLDEN_SEEDS: [u64; 3] = [1, 2, 3];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// One blob per seed: every scheme × design combo's canonical report,
/// preceded by a combo header line.
fn render(seed: u64) -> String {
    let case = FuzzCase::generate(seed);
    let mut out = String::new();
    for scheme in SCHEMES {
        for design in DESIGNS {
            out.push_str(&format!("// combo: {scheme} / {design:?}\n"));
            let cfg = case.system_config(scheme, design);
            let report = SecureSystem::new(cfg).run(case.sources(), case.ops_per_core);
            out.push_str(&report.canonical_json());
        }
    }
    out
}

#[test]
fn golden_reports_match_snapshots() {
    for seed in GOLDEN_SEEDS {
        emcc_bench::cli::check_snapshot(
            &golden_dir().join(format!("seed_{seed}.json")),
            &render(seed),
            "EMCC_BLESS=1 cargo test -p emcc-fuzz --test golden_reports",
        );
    }
}
