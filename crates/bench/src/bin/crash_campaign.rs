//! Crash-recovery campaign for the secure-memory service.
//!
//! ```text
//! crash_campaign [--cases N] [--seed S] [--smoke] [--out FILE]
//!                [--repro-dir DIR] [--replay FILE]
//!                [--emit FILE --case-seed S]
//! ```
//!
//! Case `i` runs `CrashCase::generate` of the `i`-th case seed over
//! *both* backends (volatile and file-backed) under the same seeded
//! crash schedule, then recovers and asserts the crash-consistency
//! invariant: every acknowledged write reads back exactly, or the loss
//! is detected — never silent. Seeds may be decimal or `0x` hex. The
//! verdict file lists one line per case in index order, so it is
//! byte-identical for any `EMCC_JOBS`.
//!
//! On the first failing case the campaign shrinks it to a minimal
//! reproducer, persists it under the repro directory, and exits 1;
//! `--replay` re-runs such a file. Exit 2 is reserved for usage and I/O
//! errors. The campaign runner is shared with `fuzz_sim` and
//! `fault_campaign` (`emcc_bench::campaign`).
//!
//! The default 1000 cases give ≥1000 distinct crash schedules per
//! backend; `--smoke` runs the 64-case CI subset.

use std::path::PathBuf;
use std::process::ExitCode;

use emcc_bench::campaign::{self, CampaignArgs};
use emcc_bench::crash_campaign::CrashCampaign;

fn main() -> ExitCode {
    let args = CampaignArgs::from_env::<CrashCampaign>("", |_, _| false);
    // File-backend runs live inside the workspace's target directory,
    // never the system temp dir; one directory per process, so
    // concurrent campaigns never share a case directory.
    let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/crash_scratch")
        .join(std::process::id().to_string());
    let code = campaign::main(
        &CrashCampaign {
            scratch: scratch.clone(),
        },
        &args,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    code
}
