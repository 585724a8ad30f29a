//! Parallel fuzz campaigns over the oracle battery.
//!
//! ```text
//! fuzz_sim [--cases N] [--seed S] [--smoke] [--out FILE]
//!          [--corpus-dir DIR] [--replay FILE]
//!          [--emit FILE --case-seed S]
//!          [--trace FILE [--case-seed S]]
//! ```
//!
//! Case `i` of a campaign fuzzes `FuzzCase::generate` of the `i`-th case
//! seed; the verdict file lists one line per case in index order, so it
//! is byte-identical for any `EMCC_JOBS` (workers only affect
//! scheduling, never content — the same guarantee `run_all` makes).
//! Seeds may be decimal or `0x` hex.
//!
//! `--emit` materializes the case for one *case seed* (the `seed` column
//! of a verdict line) as a corpus file, so any campaign case can be
//! turned into a replayable regression file after the fact.
//!
//! `--trace` runs one case (case 0 of the campaign, or `--case-seed S`)
//! under EMCC/Morphable with the critical-path recorder on and writes
//! the per-access spans as Chrome-trace JSON (`chrome://tracing` /
//! Perfetto). The traced run is inline, so the file is byte-identical
//! for any `EMCC_JOBS`.
//!
//! On the first oracle failure (or panic) the offending case is shrunk
//! to a minimal reproducer, persisted under the corpus directory, and
//! the process exits 1; `cargo test -p emcc-fuzz` then replays the
//! corpus red until the bug is fixed. Exit 2 is reserved for usage,
//! configuration and I/O errors. The campaign runner is shared with
//! `fault_campaign` and `crash_campaign` (`emcc_bench::campaign`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use emcc::sim::rng::{mix64, GAMMA};
use emcc_bench::campaign::{self, Campaign, CampaignArgs};
use emcc_bench::cli::write_or_exit;
use emcc_fuzz::oracle::{check_case, OracleReport};
use emcc_fuzz::{corpus, FuzzCase};

struct FuzzCampaign;

impl Campaign for FuzzCampaign {
    type Case = FuzzCase;
    type Outcome = OracleReport;

    const NAME: &'static str = "fuzz_sim";
    const CASES: [usize; 2] = [200, 100];
    const SEED: u64 = 7;
    const OUT: &'static str = "target/fuzz_verdicts.txt";
    const REPRO_FLAG: &'static str = "--corpus-dir";
    const SHRINK_BUDGET: usize = 3_000;
    const TELEMETRY: Option<&'static str> = Some("BENCH_fuzz_sim.json");

    /// The corpus lives at the repo root (`fuzz/corpus/`), two levels
    /// above this crate; `EMCC_CORPUS_DIR` overrides for sandboxed CI
    /// steps.
    fn repro_dir() -> PathBuf {
        match std::env::var("EMCC_CORPUS_DIR") {
            Ok(dir) => PathBuf::from(dir),
            Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus"),
        }
    }

    fn case_seed(seed: u64, index: u64) -> u64 {
        mix64(
            seed.wrapping_add(GAMMA)
                .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
        )
    }

    fn generate(case_seed: u64) -> FuzzCase {
        FuzzCase::generate(case_seed)
    }

    fn run(&self, case: &FuzzCase) -> OracleReport {
        check_case(case)
    }

    fn failures(report: &OracleReport) -> Vec<String> {
        report.failures.clone()
    }

    fn verdict(i: usize, case: &FuzzCase, report: Result<&OracleReport, &str>) -> String {
        match report {
            Ok(r) => format!(
                "case {i} seed {:#018x} digest {:016x} {}",
                case.seed,
                r.digest,
                if r.ok() { "ok" } else { "FAIL" }
            ),
            Err(msg) => format!("case {i} PANIC {msg}"),
        }
    }

    fn encode(case: &FuzzCase) -> String {
        corpus::to_ron(case)
    }

    fn decode(text: &str) -> Result<FuzzCase, String> {
        corpus::from_ron(text)
    }

    fn repro_name(case: &FuzzCase) -> String {
        format!("shrunk-{:016x}.ron", case.seed)
    }
}

fn main() -> ExitCode {
    let mut trace = None;
    let args =
        CampaignArgs::from_env::<FuzzCampaign>(" [--trace FILE [--case-seed S]]", |f, argv| {
            let hit = f == "--trace";
            if hit {
                trace = Some(argv.path(f));
            }
            hit
        });
    match trace {
        Some(path) if args.emit.is_none() => export_trace(
            &path,
            args.case_seed
                .unwrap_or_else(|| FuzzCampaign::case_seed(args.seed, 0)),
        ),
        _ => campaign::main(&FuzzCampaign, &args),
    }
}

/// Runs one case with the critical-path recorder enabled and writes its
/// Chrome-trace JSON. The run is inline (single-threaded), so the output
/// is byte-identical regardless of `EMCC_JOBS`.
fn export_trace(path: &Path, case_seed: u64) -> ExitCode {
    use emcc::counters::CounterDesign;
    use emcc::secmem::SecurityScheme;
    use emcc::system::SecureSystem;

    let case = FuzzCase::generate(case_seed);
    let cfg = case.system_config(SecurityScheme::Emcc, CounterDesign::Morphable);
    let (report, rec) =
        SecureSystem::new(cfg).run_traced(case.sources(), 0, case.ops_per_core, 65_536);
    write_or_exit(path, rec.chrome_json());
    eprintln!(
        "traced case {case_seed:#018x}: {} accesses recorded ({} dropped), \
         {} attribution violations, wrote {}",
        rec.len(),
        rec.dropped(),
        report.crit_violations,
        path.display()
    );
    ExitCode::SUCCESS
}
