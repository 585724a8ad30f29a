//! CI gate for the simulator's performance trajectory.
//!
//! ```sh
//! cargo run --release -p emcc-bench --bin perf_gate            # check
//! EMCC_BLESS=1 cargo run --release -p emcc-bench --bin perf_gate  # re-bless
//! ```
//!
//! Executes the exact batch `run_all` schedules for its default pass
//! ([`experiments::plan`] of [`experiments::default_pass`]) at **Test**
//! scale, twice, and takes the **max** sims/sec of the two passes — the
//! first pass absorbs cold caches and CI noise, the max is the machine's
//! demonstrated capability. The result is compared against the
//! committed baseline (`crates/bench/perf_baseline.json`) with a
//! symmetric tolerance band (default ±20%):
//!
//! - below `baseline × (1 − tol)` → **regression**, exit 1 (fails CI);
//! - above `baseline × (1 + tol)` → stale-baseline warning, exit 0
//!   (speedups should be captured by re-blessing, not silently eaten as
//!   regression headroom);
//! - otherwise → exit 0.
//!
//! `EMCC_BLESS=1` rewrites the baseline from the current measurement
//! (an empty value or `0` does not).
//! Worker count is pinned to the baseline's `jobs` value (override with
//! `EMCC_JOBS`, but the comparison is then apples-to-oranges and the
//! gate says so). Exit 2 is reserved for configuration errors — missing
//! or unparsable baseline, bad env — matching the other binaries.
//!
//! Every run also writes `BENCH_perf_gate.json` (both passes + verdict)
//! so CI can archive the trajectory alongside `BENCH_run_all.json`.

use std::path::PathBuf;
use std::time::Instant;

use emcc::prelude::WorkloadScale;
use emcc_bench::cli::{exit_error, write_or_exit};
use emcc_bench::json::Json;
use emcc_bench::{bless_requested, experiments, jobs_from_env, ExpParams, Harness};

/// Symmetric tolerance band, fraction of the baseline.
const DEFAULT_TOLERANCE_PCT: f64 = 20.0;

/// Committed baseline location (`EMCC_PERF_BASELINE` overrides — used by
/// the CLI tests and by sandboxed CI steps).
fn baseline_path() -> PathBuf {
    if let Some(p) = std::env::var_os("EMCC_PERF_BASELINE") {
        return PathBuf::from(p);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("perf_baseline.json")
}

/// One measurement pass: simulate the full `run_all` matrix at Test
/// scale on `jobs` workers and return (sims/sec, unique runs, seconds).
fn measure_once(jobs: usize) -> (f64, u64, f64) {
    let params = ExpParams::for_scale(WorkloadScale::Test);
    let h = Harness::with_jobs(params, jobs);
    let requests = experiments::plan(params, experiments::default_pass());
    let t0 = Instant::now();
    h.execute(&requests);
    let secs = t0.elapsed().as_secs_f64();
    let failures = h.failures();
    if !failures.is_empty() {
        // A crashed simulation invalidates the measurement (and is a
        // correctness failure the smoke test will catch) — don't let it
        // masquerade as a perf number.
        for f in &failures {
            eprintln!(
                "perf_gate: FAILED run: {} / {}: {}",
                f.bench, f.scheme, f.error
            );
        }
        std::process::exit(1);
    }
    let (_, misses) = h.cache_stats();
    let sps = if secs > 0.0 {
        misses as f64 / secs
    } else {
        0.0
    };
    (sps, misses, secs)
}

/// Minimal scan for `"key": <number>` in our own hand-rolled JSON (no
/// serde in the tree). Returns `None` when the key is absent or the
/// value is not a number literal.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && !"+-.eE".contains(c))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let blessing = bless_requested();
    let path = baseline_path();

    // Worker count: explicit EMCC_JOBS wins, else the baseline's pinned
    // value (so CI measures what was blessed), else this machine.
    let env_jobs = std::env::var_os("EMCC_JOBS").map(|_| jobs_from_env());
    let baseline = if blessing {
        None
    } else {
        let shown = path.display();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            exit_error(&format!(
                "cannot read perf baseline {shown}: {e}\n\
                 bless one with: EMCC_BLESS=1 cargo run --release -p emcc-bench --bin perf_gate"
            ))
        });
        let rebless = "re-bless with EMCC_BLESS=1";
        let sps = json_number(&text, "sims_per_sec").unwrap_or_else(|| {
            exit_error(&format!(
                "{shown} has no numeric \"sims_per_sec\" — {rebless}"
            ))
        });
        if sps <= 0.0 || !sps.is_finite() {
            exit_error(&format!(
                "{shown} has non-positive \"sims_per_sec\" ({sps}) — {rebless}"
            ));
        }
        let tol = json_number(&text, "tolerance_pct").unwrap_or(DEFAULT_TOLERANCE_PCT);
        let jobs = json_number(&text, "jobs").map(|j| j as usize);
        Some((sps, tol, jobs))
    };
    let jobs = env_jobs
        .or(baseline.as_ref().and_then(|(_, _, j)| *j))
        .unwrap_or_else(jobs_from_env)
        .max(1);
    if let (Some(explicit), Some((_, _, Some(pinned)))) = (env_jobs, baseline.as_ref()) {
        if explicit != *pinned {
            eprintln!(
                "perf_gate: WARNING: measuring with EMCC_JOBS={explicit} but baseline \
                 was blessed at jobs={pinned} — comparison is apples-to-oranges"
            );
        }
    }

    eprintln!("perf_gate: pass 1/2 (Test scale, {jobs} worker(s))...");
    let (sps1, unique, secs1) = measure_once(jobs);
    eprintln!("perf_gate: pass 1: {unique} sims in {secs1:.2}s = {sps1:.2} sims/sec");
    eprintln!("perf_gate: pass 2/2...");
    let (sps2, _, secs2) = measure_once(jobs);
    eprintln!("perf_gate: pass 2: {unique} sims in {secs2:.2}s = {sps2:.2} sims/sec");
    let best = sps1.max(sps2);

    if blessing {
        let json = Json::obj([
            ("scale", Json::str("Test")),
            ("jobs", Json::num(jobs)),
            ("unique_runs", Json::num(unique)),
            ("sims_per_sec", Json::fixed(best, 3)),
            ("tolerance_pct", Json::num(DEFAULT_TOLERANCE_PCT)),
        ]);
        write_or_exit(&path, json.render());
        eprintln!(
            "perf_gate: blessed {} at {best:.2} sims/sec (jobs={jobs})",
            path.display()
        );
        write_telemetry(sps1, sps2, best, None, "blessed");
        return;
    }

    let (base, tol_pct, _) = baseline.expect("checked above");
    let tol = tol_pct / 100.0;
    let floor = base * (1.0 - tol);
    let ceiling = base * (1.0 + tol);
    let verdict = if best < floor {
        "regression"
    } else if best > ceiling {
        "stale-baseline"
    } else {
        "ok"
    };
    write_telemetry(sps1, sps2, best, Some(base), verdict);
    match verdict {
        "regression" => {
            eprintln!(
                "perf_gate: FAIL: best of 2 passes = {best:.2} sims/sec is below \
                 {floor:.2} (baseline {base:.2} − {tol_pct}%)\n\
                 If this slowdown is intentional, re-bless: EMCC_BLESS=1 cargo run \
                 --release -p emcc-bench --bin perf_gate"
            );
            std::process::exit(1);
        }
        "stale-baseline" => {
            eprintln!(
                "perf_gate: PASS, but {best:.2} sims/sec exceeds {ceiling:.2} \
                 (baseline {base:.2} + {tol_pct}%) — baseline looks stale; capture the \
                 speedup with EMCC_BLESS=1 so it can't be eaten by a later regression"
            );
        }
        _ => {
            eprintln!(
                "perf_gate: PASS: {best:.2} sims/sec within ±{tol_pct}% of baseline {base:.2}"
            );
        }
    }
}

/// Archives both passes and the verdict for CI artifact upload.
fn write_telemetry(sps1: f64, sps2: f64, best: f64, base: Option<f64>, verdict: &str) {
    let json = Json::obj([
        ("pass1_sims_per_sec", Json::fixed(sps1, 3)),
        ("pass2_sims_per_sec", Json::fixed(sps2, 3)),
        ("best_sims_per_sec", Json::fixed(best, 3)),
        (
            "baseline_sims_per_sec",
            base.map_or(Json::num("null"), |b| Json::fixed(b, 3)),
        ),
        ("verdict", Json::str(verdict)),
    ]);
    if let Err(e) = std::fs::write("BENCH_perf_gate.json", json.render()) {
        eprintln!("perf_gate: telemetry BENCH_perf_gate.json: {e}");
    }
}
