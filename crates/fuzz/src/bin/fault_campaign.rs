//! DRAM fault-injection campaign: every fault class at three rates under
//! six crypto placements, judged by the fuzz battery's report laws.
//!
//! ```text
//! fault_campaign [--cases N] [--seed S] [--smoke] [--out FILE]
//!                [--repro-dir DIR] [--replay FILE]
//!                [--emit FILE --case-seed S]
//! ```
//!
//! A cell runs canneal at Test scale, 4,000 operations per core, on Table
//! I under one placement, fault class and rate, its seed seeding both the
//! faults and the workload. It passes when `emcc_fuzz::oracle::report_laws`
//! holds — a tamper-detecting placement flags every corrupt read it
//! consumes, any other consumes each silently — and it consumed a fault.
//! Case `i` of the campaign seeded `s` has case seed `s·90 + i`, which
//! is cell `i mod 90` at seed `s + i div 90` (for `s` below
//! `u64::MAX / 90`; larger seeds wrap): the default 90 cases are the
//! sweep, `--smoke` runs its first 30 (the 5% rate), and `--cases 180`
//! runs it again at the next seed. A cell has no smaller variant, so a failing cell's reproducer is
//! the cell itself. The runner, its verdict file (byte-identical for any
//! `EMCC_JOBS`) and the exit codes are `emcc_bench::campaign`'s, shared
//! with `fuzz_sim` and `crash_campaign`.

use std::path::PathBuf;
use std::process::ExitCode;

use emcc::dram::{FaultClass, FaultConfig};
use emcc::prelude::*;
use emcc_bench::campaign::{self, Campaign, CampaignArgs};
use emcc_bench::record::{self, Record};
use emcc_fuzz::oracle::{report_laws, SCHEMES};
use proptest::shrink::Shrink;

const CLASSES: [FaultClass; 5] = FaultClass::all();
/// Per-read fault rates in parts per million; the smoke campaign runs the
/// first.
const RATES_PPM: [u32; 3] = [50_000, 10_000, 150_000];
/// Cells in one sweep.
const CELLS: u64 = (RATES_PPM.len() * SCHEMES.len() * CLASSES.len()) as u64;
/// Operations per core.
const OPS: u64 = 4_000;

/// One cell of the sweep at one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    /// Fault and workload seed.
    seed: u64,
    /// Position in the sweep (rate-major, then placement, then fault
    /// class), below [`CELLS`].
    index: u64,
}

impl Cell {
    /// The cell's placement, fault class and rate in parts per million.
    fn point(self) -> (SecurityScheme, FaultClass, u32) {
        let i = self.index as usize;
        let per_rate = SCHEMES.len() * CLASSES.len();
        (
            SCHEMES[i % per_rate / CLASSES.len()],
            CLASSES[i % CLASSES.len()],
            RATES_PPM[i / per_rate],
        )
    }
}

/// A cell has no smaller variant: its reproducer is the cell itself.
impl Shrink for Cell {
    fn shrink_candidates(&self) -> Vec<Self> {
        Vec::new()
    }
}

struct FaultCampaign;

impl Campaign for FaultCampaign {
    type Case = Cell;
    /// The cell's report and the laws it broke.
    type Outcome = (SimReport, Vec<String>);

    const NAME: &'static str = "fault_campaign";
    /// The sweep, and its cells at the first rate.
    const CASES: [usize; 2] = [CELLS as usize, SCHEMES.len() * CLASSES.len()];
    const SEED: u64 = 0xFA17;
    const OUT: &'static str = "target/fault_verdicts.txt";
    const REPRO_FLAG: &'static str = "--repro-dir";
    const SHRINK_BUDGET: usize = 0;

    fn repro_dir() -> PathBuf {
        PathBuf::from("target/fault_repro")
    }

    fn case_seed(seed: u64, index: u64) -> u64 {
        seed.wrapping_mul(CELLS).wrapping_add(index)
    }

    fn generate(case_seed: u64) -> Cell {
        Cell {
            seed: case_seed / CELLS,
            index: case_seed % CELLS,
        }
    }

    fn run(&self, cell: &Cell) -> (SimReport, Vec<String>) {
        let (scheme, class, rate_ppm) = cell.point();
        let mut cfg = SystemConfig::table_i(scheme)
            .with_fault(FaultConfig::uniform(cell.seed, class, rate_ppm));
        // The shadow checker diffs the timing tree against a counter-based
        // functional model; only counter placements have tree state to diff.
        cfg.shadow_check = scheme.placement().uses_counters();
        let sources = Benchmark::Canneal.build_scaled(cell.seed, cfg.cores, WorkloadScale::Test);
        let report = SecureSystem::new(cfg.clone()).run(sources, OPS);
        let mut failures = Vec::new();
        report_laws(&cfg, OPS, &report, &mut failures);
        if report.faulty_reads == 0 {
            failures.push("no fault consumed: the cell exercised nothing".to_string());
        }
        (report, failures)
    }

    fn failures(outcome: &(SimReport, Vec<String>)) -> Vec<String> {
        outcome.1.clone()
    }

    fn verdict(i: usize, cell: &Cell, outcome: Result<&(SimReport, Vec<String>), &str>) -> String {
        let (scheme, class, rate_ppm) = cell.point();
        let rate = f64::from(rate_ppm) / 1e6;
        let seed = Self::case_seed(cell.seed, cell.index);
        let head = format!(
            "case {i:>3} seed {seed:#x} {:<10} {:<14} {rate:.2}",
            scheme.to_string(),
            class.to_string()
        );
        let (r, failures) = match outcome {
            Ok(outcome) => outcome,
            Err(msg) => return format!("{head} PANIC: {msg}"),
        };
        let verdict = if failures.is_empty() {
            "ok".to_string()
        } else {
            format!("FAIL: {}", failures.join("; "))
        };
        format!(
            "{head} faulty {:>5} detected {:>5} silent {:>4} retries {:>5} unrecovered {:>5} {verdict}",
            r.faulty_reads,
            r.integrity_violations,
            r.silent_corruptions,
            r.integrity_retries,
            r.integrity_unrecovered
        )
    }

    fn encode(cell: &Cell) -> String {
        let (scheme, class, rate_ppm) = cell.point();
        let about = format!("{scheme} {class} at rate {:.2}", f64::from(rate_ppm) / 1e6);
        let header = [
            "emcc fault-campaign reproducer — replay via `fault_campaign --replay <file>`",
            &about,
        ];
        let fields = [
            ("seed", cell.seed.to_string()),
            ("cell", cell.index.to_string()),
        ];
        // A cell is its two fields: the record's list stays empty.
        record::write(&header, "FaultCell", &fields, ("list", Vec::new()))
    }

    fn decode(text: &str) -> Result<Cell, String> {
        let rec = Record::parse(text, "FaultCell")?;
        let cell = Cell {
            seed: rec.fields.get("seed")?,
            index: rec.fields.get("cell")?,
        };
        if cell.index >= CELLS {
            return Err(format!(
                "cell {} is outside the {CELLS}-cell sweep",
                cell.index
            ));
        }
        Ok(cell)
    }

    fn repro_name(cell: &Cell) -> String {
        format!("fault-{:#x}.txt", Self::case_seed(cell.seed, cell.index))
    }
}

fn main() -> ExitCode {
    let args = CampaignArgs::from_env::<FaultCampaign>("", |_, _| false);
    campaign::main(&FaultCampaign, &args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(seed: u64, i: u64) -> Cell {
        FaultCampaign::generate(FaultCampaign::case_seed(seed, i))
    }

    #[test]
    fn cases_enumerate_the_sweep_smoke_rate_first() {
        let points: Vec<String> = (0..CELLS)
            .map(|i| format!("{:?}", case(7, i).point()))
            .collect();
        let mut distinct = points.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 90);
        assert!((0..30).all(|i| case(7, i).point().2 == 50_000));
        assert_eq!(
            case(7, 10).point(),
            (SecurityScheme::Emcc, FaultClass::BitFlip, 50_000)
        );
    }

    #[test]
    fn a_case_seed_splits_back_into_its_seed_and_cell() {
        for (seed, i) in [(0, 0), (7, 29), (0xFA17, 89), (0xFA17, 90), (0xFA17, 1_000)] {
            let cell = case(seed, i);
            assert_eq!(
                cell,
                Cell {
                    seed: seed + i / CELLS,
                    index: i % CELLS
                }
            );
            let text = FaultCampaign::encode(&cell);
            assert_eq!(FaultCampaign::decode(&text), Ok(cell));
        }
        let outside = "FaultCell(\n    seed: 1,\n    cell: 90,\n)\n";
        assert!(FaultCampaign::decode(outside).is_err());
    }
}
