//! DRAM fault-injection campaign: sweeps fault class × rate × scheme and
//! asserts 100% detection of consumed faults under both MC-side and EMCC
//! L2-side verification, cross-checked against the functional secure
//! memory.
//!
//! ```text
//! cargo run --release -p emcc-bench --bin fault_campaign [-- --smoke]
//! ```
//!
//! `--smoke` forces the test scale (one rate per cell, small op counts) —
//! the fast seeded campaign CI runs. Without it the scale comes from
//! `EMCC_SCALE` (default `small`); workers come from `EMCC_JOBS`. Exits 1
//! when any cell or oracle scenario fails, 2 on bad usage.

use emcc::prelude::*;
use emcc_bench::cli::Argv;
use emcc_bench::fault_campaign::run_campaign;
use emcc_bench::{jobs_from_env, scale_from_env};

fn main() {
    let mut smoke = false;
    let mut argv = Argv::from_env("usage: fault_campaign [--smoke]");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            _ => argv.unknown(&flag),
        }
    }
    let scale = if smoke {
        WorkloadScale::Test
    } else {
        scale_from_env()
    };
    let report = run_campaign(scale, jobs_from_env());
    print!("{}", report.render());
    if !report.all_pass() {
        std::process::exit(1);
    }
}
