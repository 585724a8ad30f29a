//! The differential oracle battery.
//!
//! A case passes when every check over every scheme × counter-design
//! combination holds. Failures carry human-readable descriptions so the
//! shrunk reproducer's verdict explains *which* law broke, not just that
//! one did.

use std::collections::HashMap;

use std::collections::BTreeMap;

use emcc::counters::CounterDesign;
use emcc::crypto::DataBlock;
use emcc::secmem::service::{CrashInjector, CrashSchedule, InMemoryBackend};
use emcc::secmem::{
    recover, FunctionalSecureMemory, MemoryAdt, SecureMemoryService, SecurityScheme, ServiceConfig,
    ServiceError,
};
use emcc::sim::LineAddr;
use emcc::system::{SecureSystem, SimReport, SystemConfig};

use crate::case::FuzzCase;

/// The schemes every case runs under, and the fault campaign's placements.
/// Order is append-only: golden canonical-report snapshots render combos
/// in this order, so new placements go at the end to keep existing golden
/// content a stable prefix.
pub const SCHEMES: [SecurityScheme; 6] = [
    SecurityScheme::NonSecure,
    SecurityScheme::CtrInLlc,
    SecurityScheme::Emcc,
    SecurityScheme::BipBip,
    SecurityScheme::NearMem,
    SecurityScheme::InSram,
];

/// The counter designs every case runs under.
pub const DESIGNS: [CounterDesign; 3] = [
    CounterDesign::Monolithic,
    CounterDesign::Sc64,
    CounterDesign::Morphable,
];

/// Verdict of the battery over one case.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Oracle-law violations, empty when the case passes.
    pub failures: Vec<String>,
    /// FNV-1a digest over every combo's canonical report — the verdict
    /// file's determinism fingerprint.
    pub digest: u64,
    /// Scheme × design combinations executed.
    pub combos: usize,
}

impl OracleReport {
    /// True when every oracle held.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One scheme × design run of a case and its canonical rendering.
struct Combo {
    scheme: SecurityScheme,
    design: CounterDesign,
    report: SimReport,
    json: String,
}

/// Runs the full battery on one case.
///
/// Honors `EMCC_FORCE_ORACLE_FAIL` (value `*` or a specific case seed):
/// an always-failing oracle for exercising the shrink → corpus → replay
/// path end-to-end, mirroring `EMCC_FORCE_PANIC` in the bench harness.
pub fn check_case(case: &FuzzCase) -> OracleReport {
    let mut failures = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;

    if let Err(e) = case.validate() {
        return OracleReport {
            failures: vec![e],
            digest,
            combos: 0,
        };
    }

    for design in DESIGNS {
        functional_oracle(case, design, &mut failures);
        crash_recovery_oracle(case, design, &mut failures);
    }

    // One SimReport per scheme×design, in fixed order, each rendered
    // once: the digest, the design-invariance law and the determinism
    // check all compare the same text.
    let mut combos: Vec<Combo> = Vec::new();
    for scheme in SCHEMES {
        for design in DESIGNS {
            let cfg = case.system_config(scheme, design);
            let report = SecureSystem::new(cfg.clone()).run(case.sources(), case.ops_per_core);
            let json = report.canonical_json();
            fnv_mix(&mut digest, json.as_bytes());
            report_laws(&cfg, case.ops_per_core, &report, &mut failures);
            combos.push(Combo {
                scheme,
                design,
                report,
                json,
            });
        }
    }
    metamorphic_laws(&combos, &mut failures);

    // Determinism: re-running a combo must reproduce its report verbatim.
    let cfg = case.system_config(SecurityScheme::Emcc, CounterDesign::Morphable);
    let again = SecureSystem::new(cfg).run(case.sources(), case.ops_per_core);
    let first = combos
        .iter()
        .find(|c| c.scheme == SecurityScheme::Emcc && c.design == CounterDesign::Morphable)
        .expect("combo was run");
    if again.canonical_json() != first.json {
        failures.push("determinism: emcc/morphable replay diverged from first run".to_string());
    }

    if forced_failure(case.seed) {
        failures.push("forced failure (EMCC_FORCE_ORACLE_FAIL)".to_string());
    }

    OracleReport {
        failures,
        digest,
        combos: SCHEMES.len() * DESIGNS.len(),
    }
}

/// `EMCC_FORCE_ORACLE_FAIL=*` fails every case; a number fails the case
/// with that seed (shrink candidates keep their seed, so the forced
/// failure survives shrinking, as a real seed-determined bug would).
fn forced_failure(seed: u64) -> bool {
    match std::env::var("EMCC_FORCE_ORACLE_FAIL") {
        Ok(v) => v == "*" || v == seed.to_string(),
        Err(_) => false,
    }
}

/// The value the timing model architecturally stores: fuzz writes are
/// content-free, so give each (line, nth-write) a distinct block.
fn write_value(line: u64, nth: u64) -> DataBlock {
    DataBlock::from_words([line ^ nth.wrapping_mul(0x9E37_79B9_7F4A_7C15); 8])
}

/// Functional equivalence: `FunctionalSecureMemory` must agree with a
/// naive line → value map on every read, through both the monolithic
/// read path and the EMCC split-MAC path, and detect a tamper planted
/// after the replay.
fn functional_oracle(case: &FuzzCase, design: CounterDesign, failures: &mut Vec<String>) {
    let tag = format!("functional/{design:?}");
    let mut fsm = FunctionalSecureMemory::with_design(case.seed, case.data_lines, design);
    let mut naive: HashMap<u64, DataBlock> = HashMap::new();
    let mut writes: HashMap<u64, u64> = HashMap::new();
    for (i, op) in case.trace.iter().enumerate() {
        let line = LineAddr::new(op.line);
        if op.write {
            let nth = writes.entry(op.line).or_insert(0);
            let value = write_value(op.line, *nth);
            *nth += 1;
            if let Err(e) = fsm.write(line, value) {
                failures.push(format!("{tag}: op {i} write refused: {e}"));
            }
            naive.insert(op.line, value);
        } else {
            let expect = naive.get(&op.line).copied().unwrap_or_default();
            match fsm.read(line) {
                Ok(v) if v == expect => {}
                Ok(_) => failures.push(format!("{tag}: op {i} read wrong value at {}", op.line)),
                Err(e) => failures.push(format!("{tag}: op {i} spurious {e:?} at {}", op.line)),
            }
            match fsm.read_split(line) {
                Ok(v) if v == expect => {}
                other => failures.push(format!(
                    "{tag}: op {i} split-path diverged at {}: {other:?}",
                    op.line
                )),
            }
        }
    }
    // Tamper spot-check on the first written line: a ciphertext bit-flip
    // must be detected by both read paths, and a rewrite must repair it.
    if let Some(&line) = naive.keys().min() {
        let addr = LineAddr::new(line);
        let bit = (case.seed % 512) as usize;
        fsm.tamper_flip_bit(addr, bit);
        if fsm.read(addr).is_ok() {
            failures.push(format!("{tag}: bit-flip at line {line} went undetected"));
        }
        if fsm.read_split(addr).is_ok() {
            failures.push(format!(
                "{tag}: bit-flip at line {line} undetected by split path"
            ));
        }
        let repaired = write_value(line, 0xBEEF);
        if fsm.write(addr, repaired).is_err() || fsm.read_checked(addr) != Ok(repaired) {
            failures.push(format!("{tag}: rewrite failed to repair line {line}"));
        }
    }
}

/// Crash-consistency law: journal the case's first writes through the
/// secure-memory service, crash the backend at a seed-chosen mutating
/// call (with a seed-chosen torn prefix of the final record), recover,
/// and require every *acknowledged* write to read back exactly. A pure
/// crash must also never quarantine lines or fail recovery outright.
fn crash_recovery_oracle(case: &FuzzCase, design: CounterDesign, failures: &mut Vec<String>) {
    let tag = format!("crash-recovery/{design:?}");
    let lines: Vec<u64> = case.trace.iter().take(24).map(|op| op.line).collect();
    let schedule = CrashSchedule {
        crash_on_op: case.seed % (lines.len() as u64 + 2), // 0 = never crashes
        torn_keep: (case.seed >> 8) % 64,
    };
    let svc = SecureMemoryService::with_design(
        CrashInjector::new(InMemoryBackend::new(), schedule),
        case.seed,
        case.data_lines,
        design,
        ServiceConfig::default(),
    );
    let mut acked: BTreeMap<u64, DataBlock> = BTreeMap::new();
    for (i, &line) in lines.iter().enumerate() {
        let value = write_value(line, i as u64 ^ 0xC4A5);
        match svc.batch_write(&[(LineAddr::new(line), value)]) {
            Ok(_) => {
                acked.insert(line, value);
            }
            Err(ServiceError::Backend { .. }) => break, // the injected crash
            Err(e) => {
                failures.push(format!("{tag}: unexpected write error: {e}"));
                return;
            }
        }
    }
    match recover(
        svc.into_backend().into_inner(),
        case.seed,
        case.data_lines,
        design,
        ServiceConfig::default(),
    ) {
        Ok((recovered, report)) => {
            if !report.quarantined.is_empty() {
                failures.push(format!(
                    "{tag}: {} lines quarantined after a pure crash",
                    report.quarantined.len()
                ));
            }
            for (&line, &value) in &acked {
                match recovered.batch_read(&[LineAddr::new(line)]) {
                    Ok(got) if got[0] == Some(value) => {}
                    other => failures.push(format!(
                        "{tag}: acked write to line {line} did not survive recovery: {other:?}"
                    )),
                }
            }
        }
        Err(e) => failures.push(format!("{tag}: recovery failed after a pure crash: {e}")),
    }
}

/// Conservation and detection laws over `r`, the report of a warm-up-free
/// run of `cfg` with `ops` operations per core; each broken law is pushed
/// onto `failures`.
pub fn report_laws(cfg: &SystemConfig, ops: u64, r: &SimReport, failures: &mut Vec<String>) {
    let tag = format!("laws/{}/{}", r.scheme, r.benchmark);
    let mut law = |ok: bool, what: String| {
        if !ok {
            failures.push(format!("{tag}: {what}"));
        }
    };

    let accesses = cfg.cores as u64 * ops;
    law(
        r.mem_ops == accesses,
        format!("mem_ops {} != cores*ops {accesses}", r.mem_ops),
    );
    law(
        r.l2_hits + r.l2_data_misses <= r.l2_accesses,
        format!(
            "l2 hits {} + misses {} > accesses {}",
            r.l2_hits, r.l2_data_misses, r.l2_accesses
        ),
    );
    // LLC misses are counted at issue, DRAM data reads at completion, and
    // the run ends the moment the last core retires — the report carries
    // the cutoff remainder explicitly, so the ledger holds as an exact
    // equality (fuzz runs are warmup-free; warmup would reset the counters
    // with reads mid-flight). Sources of DRAM data reads beyond LLC
    // misses: integrity-recovery refetches and XPT mispredictions that
    // read DRAM for a line the LLC ended up serving.
    law(
        r.llc_data_misses + r.data_refetch_reads + r.xpt_wasted_reads
            == r.dram_data_reads + r.dram_reads_inflight_at_cutoff + r.unissued_misses_at_cutoff,
        format!(
            "dram read ledger: misses {} + refetch {} + wasted {} != reads {} + in-flight {} + unissued {}",
            r.llc_data_misses,
            r.data_refetch_reads,
            r.xpt_wasted_reads,
            r.dram_data_reads,
            r.dram_reads_inflight_at_cutoff,
            r.unissued_misses_at_cutoff
        ),
    );
    // Critical-path attribution: the sweep charges every attributed
    // instant to exactly one component, so per-component sums must tile
    // each access's end-to-end window exactly (in picoseconds), with no
    // span ever falling outside its access window.
    law(
        r.crit_violations == 0,
        format!("{} spans outside their access window", r.crit_violations),
    );
    law(
        r.crit_path.total_sum_ps() == r.crit_total_ps,
        format!(
            "attributed component time {} ps != total access time {} ps",
            r.crit_path.total_sum_ps(),
            r.crit_total_ps
        ),
    );
    law(
        r.crit_path.accesses() == 0 || r.crit_total_ps > 0,
        "attributed accesses with zero total latency".to_string(),
    );
    law(
        r.xpt_wasted <= r.xpt_forwards,
        format!("xpt wasted {} > forwards {}", r.xpt_wasted, r.xpt_forwards),
    );
    if !cfg.xpt_enabled {
        law(
            r.xpt_forwards == 0,
            format!("xpt disabled but {} forwards", r.xpt_forwards),
        );
    }
    if cfg.l2_prefetch_degree == 0 {
        law(
            r.prefetches == 0,
            format!("prefetcher disabled but {} prefetches", r.prefetches),
        );
    }
    law(
        r.l2_ctr_useless + r.l2_ctr_useful <= r.l2_ctr_insertions,
        format!(
            "ctr useless {} + useful {} > insertions {}",
            r.l2_ctr_useless, r.l2_ctr_useful, r.l2_ctr_insertions
        ),
    );

    // Capability laws: dispatch on what the placement *does*, never on
    // which scheme it is, so every present and future placement is held
    // to exactly the guarantees its descriptor claims.
    let placement = cfg.scheme.placement();
    if !placement.uses_counters() {
        let ctr_total: u64 = r.ctr_source.iter().sum();
        law(
            ctr_total == 0,
            format!("counter-free placement sourced {ctr_total} counters"),
        );
    }
    if !placement.encrypts {
        law(
            r.decrypted_at_l2 == 0 && r.decrypted_at_mc == 0,
            "non-encrypting placement decrypted something".to_string(),
        );
    }
    if placement.detects_tamper {
        law(
            r.silent_corruptions == 0,
            format!(
                "tamper-detecting run consumed {} corruptions silently",
                r.silent_corruptions
            ),
        );
        law(
            r.integrity_violations == r.faulty_reads,
            format!(
                "detection not exact: violations {} != faulty reads {}",
                r.integrity_violations, r.faulty_reads
            ),
        );
        law(
            r.shadow_mismatches == 0,
            format!("shadow diff found {} mismatched lines", r.shadow_mismatches),
        );
    } else {
        law(
            r.integrity_violations == 0,
            format!(
                "detection-free placement raised {} violations",
                r.integrity_violations
            ),
        );
        law(
            r.silent_corruptions == r.faulty_reads,
            format!(
                "detection-free silent {} != faulty {}",
                r.silent_corruptions, r.faulty_reads
            ),
        );
    }
    if !placement.counters_in_llc() {
        law(
            r.mc_ctr_reqs_to_llc == 0,
            format!(
                "counters not in LLC but MC probed it {} times",
                r.mc_ctr_reqs_to_llc
            ),
        );
    }
    if !placement.l2_decrypts() {
        law(
            r.decrypted_at_l2 == 0 && r.l2_ctr_reqs_to_llc == 0 && r.l2_ctr_insertions == 0,
            "non-EMCC placement used L2 counter machinery".to_string(),
        );
    }

    if cfg.fault.is_none() {
        let injected: u64 = r.faults_injected.iter().sum();
        law(
            injected == 0 && r.faulty_reads == 0,
            format!(
                "fault-free run injected {injected}, faulty {}",
                r.faulty_reads
            ),
        );
        law(
            r.integrity_violations == 0
                && r.integrity_retries == 0
                && r.integrity_unrecovered == 0
                && r.silent_corruptions == 0,
            "fault-free run reported violations".to_string(),
        );
        law(
            r.detection_latency_ns.total() == 0,
            "fault-free run recorded detection latencies".to_string(),
        );
    } else {
        law(
            r.integrity_retries >= r.integrity_unrecovered,
            format!(
                "unrecovered {} without enough retries {}",
                r.integrity_unrecovered, r.integrity_retries
            ),
        );
    }
}

/// Cross-scheme metamorphic relations over one case's scheme × design
/// reports.
fn metamorphic_laws(combos: &[Combo], failures: &mut Vec<String>) {
    // NonSecure never loses to an encrypting placement on the same design:
    // cryptography only adds work (counter fetches, AES, verification, or
    // a direct cipher's serial latency).
    for design in DESIGNS {
        let of = |scheme: SecurityScheme| {
            combos
                .iter()
                .find(|c| c.scheme == scheme && c.design == design)
                .map(|c| &c.report)
                .expect("all combos present")
        };
        let ns = of(SecurityScheme::NonSecure);
        for scheme in SCHEMES {
            let placement = scheme.placement();
            if !placement.encrypts {
                continue;
            }
            let sec = of(scheme);
            // Counter-based schemes add whole counter fetches, so the law
            // is strict. A direct cipher adds only a few ns per access —
            // enough to shift DRAM arrival times and flip row-buffer /
            // scheduling luck in either direction (measured up to ~1.7%
            // in its favor) — so those are held to a 5% perturbation
            // margin rather than strict dominance.
            let budget = if placement.direct_cipher().is_some() {
                sec.elapsed.as_ps() + sec.elapsed.as_ps() / 20
            } else {
                sec.elapsed.as_ps()
            };
            if ns.elapsed.as_ps() > budget {
                failures.push(format!(
                    "metamorphic/{design:?}: non-secure ({} ps) slower than {} ({} ps)",
                    ns.elapsed.as_ps(),
                    scheme,
                    sec.elapsed.as_ps()
                ));
            }
        }
    }
    // Counter-free placements (non-secure and every direct cipher) ignore
    // counters entirely, so their reports are invariant under the counter
    // design.
    for scheme in SCHEMES {
        if scheme.placement().uses_counters() {
            continue;
        }
        let runs: Vec<&str> = combos
            .iter()
            .filter(|c| c.scheme == scheme)
            .map(|c| c.json.as_str())
            .collect();
        for w in runs.windows(2) {
            if w[0] != w[1] {
                failures.push(format!(
                    "metamorphic: {scheme} report varies with counter design"
                ));
                break;
            }
        }
    }
}

/// Streams bytes into an FNV-1a state.
fn fnv_mix(state: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *state ^= u64::from(b);
        *state = state.wrapping_mul(0x100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcc::dram::{FaultClass, FaultConfig};

    #[test]
    fn small_case_passes_battery() {
        let mut case = FuzzCase::generate(11);
        case.trace.truncate(24);
        case.ops_per_core = 24;
        case.fault = None;
        let rep = check_case(&case);
        assert!(rep.ok(), "unexpected failures: {:#?}", rep.failures);
        assert_eq!(rep.combos, 18);
    }

    #[test]
    fn digest_is_deterministic() {
        let mut case = FuzzCase::generate(12);
        case.trace.truncate(16);
        case.ops_per_core = 16;
        let a = check_case(&case);
        let b = check_case(&case);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn invalid_case_is_rejected_not_run() {
        let mut case = FuzzCase::generate(1);
        case.trace[0].line = case.data_lines; // out of range
        let rep = check_case(&case);
        assert!(!rep.ok());
        assert_eq!(rep.combos, 0);
    }

    /// The laws broken by a synthetic report of a faulty run under
    /// `scheme`: `faulty` corrupt reads consumed, `flagged` of them by a
    /// verifier and `silent` without one.
    fn broken_laws(scheme: SecurityScheme, faulty: u64, flagged: u64, silent: u64) -> Vec<String> {
        let cfg = SystemConfig::table_i(scheme).with_fault(FaultConfig::uniform(
            1,
            FaultClass::BitFlip,
            50_000,
        ));
        let r = SimReport {
            mem_ops: cfg.cores as u64 * 100,
            faulty_reads: faulty,
            integrity_violations: flagged,
            silent_corruptions: silent,
            ..SimReport::default()
        };
        let mut failures = Vec::new();
        report_laws(&cfg, 100, &r, &mut failures);
        failures
    }

    #[test]
    fn report_laws_demand_exact_detection() {
        let missed = broken_laws(SecurityScheme::Emcc, 10, 9, 0);
        assert_eq!(missed.len(), 1, "{missed:?}");
        assert!(missed[0].contains("detection not exact"), "{missed:?}");
        assert_eq!(
            broken_laws(SecurityScheme::Emcc, 10, 10, 0),
            Vec::<String>::new()
        );
        let raised = broken_laws(SecurityScheme::NonSecure, 10, 1, 10);
        assert_eq!(raised.len(), 1, "{raised:?}");
        assert!(
            raised[0].contains("detection-free placement raised"),
            "{raised:?}"
        );
        assert_eq!(
            broken_laws(SecurityScheme::NonSecure, 10, 0, 10),
            Vec::<String>::new()
        );
    }
}
