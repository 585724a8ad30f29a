//! Fuzz-battery workload: seeded fuzz cases through the full oracle battery.
//!
//! Set-up generates a batch of cases the way `fuzz_sim` does, one per
//! seed-derived case seed, then fixes each case's executed access count
//! at [`ACCESSES_PER_CASE`]: generated counts span two orders of
//! magnitude, and left alone they, not the program, would set how much a
//! run's figures move from one seed to the next. One unit runs the next
//! case through `check_case` — functional, crash-recovery, conservation,
//! metamorphic and determinism laws over every scheme × counter design —
//! and requires it to pass and to reproduce the digest of its first run.
//!
//! One law is exempt: "non-secure is never slower than an encrypting
//! placement" compares simulated run times, and scheduling luck breaks it
//! without any output being wrong — on 14 of 4000 cases as `fuzz_sim`
//! generates them, and on 4 of the 3840 cases this workload runs for
//! seeds 1 to 30. Those verdicts are counted per distinct case
//! (`fuzz_ordering_misses`), not failed; every other law still fails the
//! unit.

use emcc_fuzz::{check_case, FuzzCase};

use crate::{mix, Layers, Workload};

/// Cases per batch, and so per round.
const CASES: u64 = 128;

/// Simulated accesses every case executes per scheme × design.
const ACCESSES_PER_CASE: u64 = 128;

/// Prefix of the ordering law's verdicts (see the module docs).
const ORDERING_LAW: &str = "metamorphic/";

pub struct Fuzz {
    cases: Vec<(FuzzCase, Option<u64>)>,
    next: usize,
}

impl Workload for Fuzz {
    fn setup(seed: u64, layers: &mut Layers) -> Result<Self, String> {
        let cases = (0..CASES)
            .map(|i| {
                let mut case = layers.time("fuzz_gen", || FuzzCase::generate(mix(seed, i)));
                case.ops_per_core = ACCESSES_PER_CASE / case.cores as u64;
                case.validate()?;
                Ok((case, None))
            })
            .collect::<Result<_, String>>()?;
        Ok(Fuzz { cases, next: 0 })
    }

    fn round_len(&self) -> usize {
        self.cases.len()
    }

    fn unit(&mut self, layers: &mut Layers) -> Result<(), String> {
        let n = self.cases.len();
        let (case, reference) = &mut self.cases[self.next % n];
        self.next += 1;
        let report = layers.time("fuzz_battery", || check_case(case));
        let (ordering, broken): (Vec<&String>, Vec<&String>) = report
            .failures
            .iter()
            .partition(|f| f.starts_with(ORDERING_LAW));
        if let Some(first) = broken.first() {
            return Err(format!(
                "case {:#x}: {} oracle failures, first: {first}",
                case.seed,
                broken.len()
            ));
        }
        match reference {
            None => {
                *reference = Some(report.digest);
                layers.count("fuzz_ordering_misses", u64::from(!ordering.is_empty()));
            }
            Some(d) if *d != report.digest => {
                return Err(format!(
                    "case {:#x}: digest differs from the first run",
                    case.seed
                ))
            }
            Some(_) => {}
        }
        layers.count("fuzz_cases", 1);
        layers.count("fuzz_combos", report.combos as u64);
        // The battery simulates every combination plus one determinism
        // replay, each executing the case's full access count.
        layers.count(
            "fuzz_accesses",
            (report.combos as u64 + 1) * case.total_accesses(),
        );
        Ok(())
    }
}
