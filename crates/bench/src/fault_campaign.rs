//! DRAM fault-injection campaigns: sweep fault class × rate × scheme and
//! assert the detection contract.
//!
//! Every corrupted line the pipeline *consumes* must be flagged by exactly
//! one verifier — the MC's MAC/tree checks (McOnly, CtrInLlc), the EMCC
//! L2's local verification (Emcc), or a direct cipher's in-place check
//! (NearMem, InSram) — so for tamper-detecting placements the campaign
//! requires `integrity_violations == faulty_reads` with zero silent
//! corruptions, while placements without detection (NonSecure, and the
//! encryption-only BipBip) must consume every fault silently. Each
//! counter-based secure cell also runs the differential shadow checker
//! ([`FunctionalSecureMemory`] mirroring every write-back) and requires
//! zero counter-state mismatches, and a pure functional oracle replays
//! each fault class against `FunctionalSecureMemory` directly so the
//! timing model's verdicts can be cross-checked against the
//! cryptographic ground truth.

use emcc::crypto::DataBlock;
use emcc::dram::{FaultClass, FaultConfig};
use emcc::prelude::*;
use emcc::secmem::FunctionalSecureMemory;
use emcc::sim::mem::LineAddr;
use emcc::system::SimReport;

use crate::pool::run_indexed_catching;

/// One (scheme, fault class, rate) point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignCell {
    /// Security scheme under test.
    pub scheme: SecurityScheme,
    /// Injected fault class.
    pub class: FaultClass,
    /// Per-read fault probability.
    pub rate: f64,
}

/// The judged outcome of one campaign cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The swept point.
    pub cell: CampaignCell,
    /// Faults the pipeline consumed.
    pub faulty_reads: u64,
    /// Faults a verifier flagged.
    pub violations: u64,
    /// Faults delivered unflagged.
    pub silent: u64,
    /// Bounded re-fetch retries issued.
    pub retries: u64,
    /// Detections whose retry budget was exhausted (poisoned delivery).
    pub unrecovered: u64,
    /// `None` when the cell met its contract, else the reason it failed.
    pub failure: Option<String>,
}

impl CellResult {
    /// Whether the cell met its detection contract.
    pub fn pass(&self) -> bool {
        self.failure.is_none()
    }
}

/// One functional-oracle scenario: a fault class replayed directly against
/// [`FunctionalSecureMemory`], no timing model involved.
#[derive(Debug, Clone)]
pub struct OracleCheck {
    /// Scenario name.
    pub name: &'static str,
    /// `None` when the oracle's verdicts matched expectations.
    pub failure: Option<String>,
}

/// A completed campaign: the timing-model sweep plus the functional
/// oracle.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Judged sweep cells, in sweep order.
    pub cells: Vec<CellResult>,
    /// Functional-oracle scenarios.
    pub oracle: Vec<OracleCheck>,
}

/// Fixed campaign seed: campaigns are reproducible bit-for-bit.
pub const CAMPAIGN_SEED: u64 = 0xFA17;

/// The sweep matrix: both verifier placements, the non-secure baseline,
/// every fault class, at the given rates.
pub fn campaign_cells(rates: &[f64]) -> Vec<CampaignCell> {
    let mut cells = Vec::new();
    for scheme in [
        SecurityScheme::CtrInLlc, // MC-side verification
        SecurityScheme::Emcc,     // L2-side verification
        SecurityScheme::NonSecure,
        SecurityScheme::BipBip,  // encryption-only: faults pass silently
        SecurityScheme::NearMem, // in-device detection
        SecurityScheme::InSram,  // in-SRAM detection
    ] {
        for class in FaultClass::all() {
            for &rate in rates {
                cells.push(CampaignCell {
                    scheme,
                    class,
                    rate,
                });
            }
        }
    }
    cells
}

/// Memory ops per cell for a scale.
pub fn ops_for_scale(scale: WorkloadScale) -> u64 {
    match scale {
        WorkloadScale::Test => 4_000,
        WorkloadScale::Small => 12_000,
        WorkloadScale::Paper => 40_000,
    }
}

/// Rates swept at a scale: the smoke campaign keeps one rate per cell.
pub fn rates_for_scale(scale: WorkloadScale) -> Vec<f64> {
    match scale {
        WorkloadScale::Test => vec![0.05],
        WorkloadScale::Small => vec![0.01, 0.05],
        WorkloadScale::Paper => vec![0.01, 0.05, 0.15],
    }
}

fn run_cell(cell: CampaignCell, scale: WorkloadScale, ops: u64) -> SimReport {
    let fault = FaultConfig::uniform(CAMPAIGN_SEED, cell.class, cell.rate);
    let mut cfg = SystemConfig::table_i(cell.scheme).with_fault(fault);
    // The shadow checker mirrors write-backs into a *counter-based*
    // functional model; only placements that maintain a counter stream
    // have tree state to diff against it.
    if cell.scheme.placement().uses_counters() {
        cfg = cfg.with_shadow_check(true);
    }
    let sources = Benchmark::Canneal.build_scaled(CAMPAIGN_SEED, cfg.cores, scale);
    SecureSystem::new(cfg).run(sources, ops)
}

/// Judges one cell's report against the detection contract.
pub fn judge_cell(cell: CampaignCell, r: &SimReport) -> Option<String> {
    if r.faulty_reads == 0 {
        return Some("no faults consumed — the cell exercised nothing".into());
    }
    if cell.scheme.placement().detects_tamper {
        if r.integrity_violations != r.faulty_reads {
            return Some(format!(
                "detected {} of {} consumed faults",
                r.integrity_violations, r.faulty_reads
            ));
        }
        if r.silent_corruptions != 0 {
            return Some(format!(
                "{} silent corruptions leaked",
                r.silent_corruptions
            ));
        }
        if r.shadow_mismatches != 0 {
            return Some(format!(
                "{} counter-state mismatches vs functional model",
                r.shadow_mismatches
            ));
        }
    } else {
        if r.integrity_violations != 0 {
            return Some("scheme without tamper detection reported violations".into());
        }
        if r.silent_corruptions != r.faulty_reads {
            return Some(format!(
                "{} of {} consumed faults unaccounted",
                r.silent_corruptions, r.faulty_reads
            ));
        }
    }
    None
}

/// Runs the sweep on `jobs` workers. A panicking cell is contained by the
/// pool and judged as a failure.
pub fn run_sweep(scale: WorkloadScale, jobs: usize) -> Vec<CellResult> {
    let cells = campaign_cells(&rates_for_scale(scale));
    let ops = ops_for_scale(scale);
    let reports = run_indexed_catching(cells.len(), jobs, |i| run_cell(cells[i], scale, ops));
    cells
        .into_iter()
        .zip(reports)
        .map(|(cell, report)| match report {
            Ok(r) => CellResult {
                cell,
                faulty_reads: r.faulty_reads,
                violations: r.integrity_violations,
                silent: r.silent_corruptions,
                retries: r.integrity_retries,
                unrecovered: r.integrity_unrecovered,
                failure: judge_cell(cell, &r),
            },
            Err(e) => CellResult {
                cell,
                faulty_reads: 0,
                violations: 0,
                silent: 0,
                retries: 0,
                unrecovered: 0,
                failure: Some(format!("simulation panicked: {e}")),
            },
        })
        .collect()
}

fn oracle(name: &'static str, check: impl FnOnce() -> Result<(), String>) -> OracleCheck {
    OracleCheck {
        name,
        failure: check().err(),
    }
}

fn expect_detected(m: &FunctionalSecureMemory, line: LineAddr, what: &str) -> Result<(), String> {
    if m.read(line).is_ok() {
        return Err(format!("{what}: monolithic read missed the tamper"));
    }
    // Verdict parity: the split read (OTP before ciphertext, as EMCC
    // overlaps them) must agree with the monolithic read.
    if m.read_split(line).is_ok() {
        return Err(format!("{what}: split read disagreed with monolithic read"));
    }
    Ok(())
}

fn expect_clean(m: &FunctionalSecureMemory, line: LineAddr, what: &str) -> Result<(), String> {
    if m.read(line).is_err() || m.read_split(line).is_err() {
        return Err(format!("{what}: clean line failed verification"));
    }
    Ok(())
}

/// Replays every fault class directly against the functional secure
/// memory: the cryptographic ground truth the timing model must match.
pub fn functional_oracle() -> Vec<OracleCheck> {
    let line = LineAddr::new(3);
    let block = DataBlock::from_words([0xD00D; 8]);
    vec![
        oracle("bit-flip detected, write repairs", || {
            let mut m = FunctionalSecureMemory::new(CAMPAIGN_SEED, 64);
            m.write(line, block).map_err(|e| e.to_string())?;
            m.tamper_flip_bit(line, 5);
            expect_detected(&m, line, "bit-flip")?;
            m.write(line, block).map_err(|e| e.to_string())?;
            expect_clean(&m, line, "after repair")
        }),
        oracle("MAC corruption detected", || {
            let mut m = FunctionalSecureMemory::new(CAMPAIGN_SEED, 64);
            m.write(line, block).map_err(|e| e.to_string())?;
            m.tamper_mac_flip_bit(line, 17);
            expect_detected(&m, line, "mac-corrupt")
        }),
        oracle("stuck line detected on every read", || {
            let mut m = FunctionalSecureMemory::new(CAMPAIGN_SEED, 64);
            m.write(line, block).map_err(|e| e.to_string())?;
            m.tamper_flip_bit(line, 9);
            expect_detected(&m, line, "stuck (1st read)")?;
            // A stuck cell re-asserts after the repairing write.
            m.write(line, block).map_err(|e| e.to_string())?;
            m.tamper_flip_bit(line, 9);
            expect_detected(&m, line, "stuck (after write)")
        }),
        oracle("replayed stale line detected", || {
            let mut m = FunctionalSecureMemory::new(CAMPAIGN_SEED, 64);
            m.write(line, block).map_err(|e| e.to_string())?;
            let stale = m.raw(line).expect("line just written");
            m.write(line, DataBlock::from_words([0xBEEF; 8]))
                .map_err(|e| e.to_string())?;
            m.tamper_replay(line, stale);
            expect_detected(&m, line, "replay")
        }),
        oracle("transient read error clears on restore", || {
            let mut m = FunctionalSecureMemory::new(CAMPAIGN_SEED, 64);
            m.write(line, block).map_err(|e| e.to_string())?;
            m.tamper_flip_bit(line, 22);
            expect_detected(&m, line, "transient")?;
            m.write(line, block).map_err(|e| e.to_string())?;
            expect_clean(&m, line, "after restore")
        }),
        oracle("tree-node tamper fails the path walk", || {
            let mut m = FunctionalSecureMemory::new(CAMPAIGN_SEED, 64);
            m.write(line, block).map_err(|e| e.to_string())?;
            if m.verify_path(line).is_err() {
                return Err("clean path failed verification".into());
            }
            // Level 0 = the counter block covering `line` (64 data lines
            // fit under one block, so the tree has a single level below
            // the on-chip root).
            m.tamper_tree_flip_bit(0, 0, 3);
            if m.verify_path(line).is_ok() {
                return Err("tree tamper missed by path walk".into());
            }
            if m.read_checked(line).is_ok() {
                return Err("tree tamper missed by checked read".into());
            }
            Ok(())
        }),
    ]
}

/// Runs the full campaign: timing-model sweep plus functional oracle.
pub fn run_campaign(scale: WorkloadScale, jobs: usize) -> CampaignReport {
    CampaignReport {
        cells: run_sweep(scale, jobs),
        oracle: functional_oracle(),
    }
}

impl CampaignReport {
    /// Whether every cell and oracle scenario passed.
    pub fn all_pass(&self) -> bool {
        self.cells.iter().all(CellResult::pass) && self.oracle.iter().all(|o| o.failure.is_none())
    }

    /// Renders the campaign as the table `--bin fault_campaign` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Fault-injection campaign (seed 0xFA17, benchmark canneal)\n");
        out.push_str(&format!(
            "{:<10} {:<13} {:>6} {:>8} {:>9} {:>7} {:>8} {:>11}  verdict\n",
            "scheme", "class", "rate", "faulty", "detected", "silent", "retries", "unrecovered"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<10} {:<13} {:>6.2} {:>8} {:>9} {:>7} {:>8} {:>11}  {}\n",
                c.cell.scheme.to_string(),
                c.cell.class.to_string(),
                c.cell.rate,
                c.faulty_reads,
                c.violations,
                c.silent,
                c.retries,
                c.unrecovered,
                match &c.failure {
                    None => "ok".to_string(),
                    Some(why) => format!("FAIL: {why}"),
                },
            ));
        }
        out.push_str("\nFunctional oracle (FunctionalSecureMemory ground truth)\n");
        for o in &self.oracle {
            match &o.failure {
                None => out.push_str(&format!("  ok   {}\n", o.name)),
                Some(why) => out.push_str(&format!("  FAIL {} — {why}\n", o.name)),
            }
        }
        out.push_str(&format!(
            "\ncampaign: {} cells, {} oracle checks — {}\n",
            self.cells.len(),
            self.oracle.len(),
            if self.all_pass() {
                "ALL PASS"
            } else {
                "FAILED"
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matrix_covers_every_scheme_and_class() {
        let cells = campaign_cells(&[0.05]);
        assert_eq!(cells.len(), 6 * 5);
        assert!(cells
            .iter()
            .any(|c| c.scheme == SecurityScheme::Emcc && c.class == FaultClass::Replay));
        assert!(cells
            .iter()
            .any(|c| c.scheme == SecurityScheme::BipBip && c.class == FaultClass::Replay));
        assert!(cells
            .iter()
            .any(|c| c.scheme == SecurityScheme::InSram && c.class == FaultClass::StuckLine));
    }

    #[test]
    fn functional_oracle_is_clean() {
        for o in functional_oracle() {
            assert!(o.failure.is_none(), "{}: {:?}", o.name, o.failure);
        }
    }

    #[test]
    fn judge_rejects_missed_detection() {
        let cell = CampaignCell {
            scheme: SecurityScheme::Emcc,
            class: FaultClass::BitFlip,
            rate: 0.05,
        };
        let mut r = SimReport {
            faulty_reads: 10,
            integrity_violations: 9,
            ..SimReport::default()
        };
        assert!(judge_cell(cell, &r).is_some());
        r.integrity_violations = 10;
        assert!(judge_cell(cell, &r).is_none());
    }

    #[test]
    fn smoke_campaign_cell_passes() {
        // One representative cell end-to-end; the binary runs the sweep.
        let cell = CampaignCell {
            scheme: SecurityScheme::Emcc,
            class: FaultClass::BitFlip,
            rate: 0.05,
        };
        let r = run_cell(cell, WorkloadScale::Test, 3_000);
        assert!(judge_cell(cell, &r).is_none(), "{:?}", judge_cell(cell, &r));
    }
}
