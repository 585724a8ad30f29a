//! Crash-recovery campaigns for the secure-memory service: seeded crash
//! schedules (including torn final journal records and stale-checkpoint
//! windows) plus optional at-rest corruption, judged against the
//! crash-consistency invariant:
//!
//! > Every acknowledged write reads back exactly after recovery, or the
//! > loss is *detected* (a recovery error, or a read that fails
//! > verification) — never silent.
//!
//! Each case runs over both backends — `InMemoryBackend` and
//! `FileBackend` — under the same schedule; the two must reach the same
//! verdict (the backends differ only in medium, never in semantics).
//! [`CrashCampaign`] runs the cases through the campaign runner the
//! simulator fuzzer uses too ([`crate::campaign`]): failing cases shrink
//! to minimal reproducers, which replay from their text files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use emcc::counters::CounterDesign;
use emcc::crypto::DataBlock;
use emcc::secmem::service::{
    corrupt_byte, CrashInjector, CrashSchedule, FileBackend, InMemoryBackend, Region,
    StorageBackend,
};
use emcc::secmem::{recover, MemoryAdt, SecureMemoryService, ServiceConfig, ServiceError};
use emcc::sim::rng::{mix64, GAMMA};
use emcc::sim::{LineAddr, Rng64};
use proptest::shrink::{shrink_int, shrink_option, shrink_vec, Shrink};

use crate::campaign::Campaign;
use crate::record::{self, variant, Fields, Record};

/// Counter designs swept by the campaign, indexed by `CrashCase::design`.
pub const DESIGNS: [CounterDesign; 3] = [
    CounterDesign::Monolithic,
    CounterDesign::Sc64,
    CounterDesign::Morphable,
];

/// Post-crash at-rest corruption of one persisted byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptPlan {
    /// Target the checkpoint image (true) or the journal.
    pub checkpoint: bool,
    /// Byte offset into the region (out-of-range flips nothing).
    pub offset: u64,
    /// Non-zero XOR mask applied to the byte.
    pub xor: u8,
}

/// One scripted service operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOp {
    /// `batch_write` of one line.
    Write {
        /// Target line.
        line: u64,
        /// Written word pattern.
        val: u64,
    },
    /// `guarded_write` guarded on the line's tracked current value.
    Guarded {
        /// Target line.
        line: u64,
        /// Written word pattern.
        val: u64,
    },
    /// `batch_read` of one line, checked against the tracked model.
    Read {
        /// Target line.
        line: u64,
    },
    /// Explicit checkpoint (install + truncate: two mutating calls).
    Checkpoint,
}

/// A complete, self-describing crash case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCase {
    /// Generating seed (also the service key seed).
    pub seed: u64,
    /// Index into [`DESIGNS`].
    pub design: usize,
    /// Protected data space in lines (power of two).
    pub data_lines: u64,
    /// When the backend dies (0 = never) and how many bytes of the final
    /// append survive.
    pub schedule: CrashSchedule,
    /// Optional post-crash byte corruption.
    pub corrupt: Option<CorruptPlan>,
    /// The op script.
    pub ops: Vec<CrashOp>,
}

impl CrashCase {
    /// Generates the case for `seed`. Pure: same seed, same case.
    ///
    /// A quarter of cases are write-hammers (many writes to a handful of
    /// lines) so split-counter minor overflows — and thus rebase records,
    /// which list every slot of their block — land on both sides of the
    /// crash point.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ 0xC4A5_CA5E);
        let design = rng.index(DESIGNS.len());
        let data_lines = 256;
        let hammer = rng.chance(0.25);
        let n_ops = if hammer {
            100 + rng.index(101) // 100..=200: enough writes to rebase
        } else {
            8 + rng.index(41) // 8..=48
        };
        let line_span: u64 = if hammer { 4 } else { 32 };
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let line = rng.below(line_span);
            let val = rng.below(1 << 32);
            ops.push(match rng.index(10) {
                0..=5 => CrashOp::Write { line, val },
                6..=7 => CrashOp::Guarded { line, val },
                8 => CrashOp::Read { line },
                _ => CrashOp::Checkpoint,
            });
        }
        // Mutating backend calls ≈ writes + 2 per checkpoint; sample past
        // the end too so "never crashes" cases stay in the mix.
        let schedule = CrashSchedule {
            crash_on_op: rng.below(n_ops as u64 + 16),
            torn_keep: rng.below(96),
        };
        let corrupt = if rng.chance(0.25) {
            Some(CorruptPlan {
                checkpoint: rng.chance(0.5),
                offset: rng.below(2048),
                xor: 1 << rng.index(8),
            })
        } else {
            None
        };
        CrashCase {
            seed,
            design,
            data_lines,
            schedule,
            corrupt,
            ops,
        }
    }

    /// Checks the constraints [`apply`] relies on, so hand-edited
    /// reproducers and shrink candidates fail with a message.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.design >= DESIGNS.len() {
            return Err(format!("invalid case: design index {}", self.design));
        }
        if !self.data_lines.is_power_of_two() || self.data_lines < 64 {
            return Err("invalid case: data_lines must be a power of two >= 64".into());
        }
        if self.ops.is_empty() || self.ops.len() > 4096 {
            return Err("invalid case: ops must be 1..=4096".into());
        }
        for op in &self.ops {
            let line = match *op {
                CrashOp::Write { line, .. }
                | CrashOp::Guarded { line, .. }
                | CrashOp::Read { line } => line,
                CrashOp::Checkpoint => continue,
            };
            if line >= self.data_lines {
                return Err(format!("invalid case: line {line} out of data space"));
            }
        }
        if let Some(c) = self.corrupt {
            if c.xor == 0 {
                return Err("invalid case: corrupt xor must be non-zero".into());
            }
        }
        Ok(())
    }
}

impl Shrink for CrashCase {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let with = |f: &dyn Fn(&mut CrashCase)| {
            let mut c = self.clone();
            f(&mut c);
            c
        };
        // Cheap structural knobs first: drop the corruption add-on, pull
        // the crash point earlier, shorten the torn prefix — then the op
        // script itself.
        for corrupt in shrink_option(&self.corrupt, |c| {
            let mut cands = Vec::new();
            for offset in shrink_int(c.offset, 0) {
                cands.push(CorruptPlan { offset, ..*c });
            }
            if c.xor != 1 {
                cands.push(CorruptPlan { xor: 1, ..*c });
            }
            cands
        }) {
            out.push(with(&|c| c.corrupt = corrupt));
        }
        for crash_on_op in shrink_int(self.schedule.crash_on_op, 0) {
            out.push(with(&|c| c.schedule.crash_on_op = crash_on_op));
        }
        for torn_keep in shrink_int(self.schedule.torn_keep, 0) {
            out.push(with(&|c| c.schedule.torn_keep = torn_keep));
        }
        for shorter in shrink_vec(&self.ops, 1, |op| {
            let mut elems = Vec::new();
            match *op {
                CrashOp::Write { line, val } => {
                    for l in shrink_int(line, 0) {
                        elems.push(CrashOp::Write { line: l, val });
                    }
                    for v in shrink_int(val, 0) {
                        elems.push(CrashOp::Write { line, val: v });
                    }
                }
                CrashOp::Guarded { line, val } => {
                    elems.push(CrashOp::Write { line, val });
                }
                CrashOp::Checkpoint | CrashOp::Read { .. } => {}
            }
            elems
        }) {
            out.push(with(&|c| c.ops = shorter.clone()));
        }
        out.retain(|c| c.validate().is_ok());
        out
    }
}

/// What running a case over one backend produced.
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// Final acknowledged value per line (later acks overwrite earlier).
    pub acked: BTreeMap<u64, u64>,
    /// Whether the schedule fired during the run.
    pub crashed: bool,
    /// Whether the corruption plan changed a persisted byte.
    pub corrupted: bool,
    /// `None` when the invariant held; else why it did not.
    pub failure: Option<String>,
}

/// Runs the script until completion or the injected crash, then applies
/// the corruption plan, recovers, and judges the invariant.
pub fn apply<B: StorageBackend>(case: &CrashCase, backend: B) -> CaseRun {
    let svc = SecureMemoryService::with_design(
        CrashInjector::new(backend, case.schedule),
        case.seed,
        case.data_lines,
        DESIGNS[case.design],
        ServiceConfig::default(),
    );

    let mut acked: BTreeMap<u64, u64> = BTreeMap::new();
    let mut failure: Option<String> = None;
    'script: for (i, op) in case.ops.iter().enumerate() {
        match *op {
            CrashOp::Write { line, val } => {
                match svc.batch_write(&[(LineAddr::new(line), DataBlock::from_words([val; 8]))]) {
                    Ok(_) => {
                        acked.insert(line, val);
                    }
                    Err(ServiceError::Backend { .. }) => break 'script,
                    Err(e) => {
                        failure = Some(format!("op {i}: unexpected write error: {e}"));
                        break 'script;
                    }
                }
            }
            CrashOp::Guarded { line, val } => {
                let expect = acked.get(&line).map(|&v| DataBlock::from_words([v; 8]));
                match svc.guarded_write(
                    (LineAddr::new(line), expect),
                    &[(LineAddr::new(line), DataBlock::from_words([val; 8]))],
                ) {
                    Ok(seen) if seen == expect => {
                        acked.insert(line, val);
                    }
                    Ok(_) => {
                        failure = Some(format!("op {i}: guard observed an untracked value"));
                        break 'script;
                    }
                    Err(ServiceError::Backend { .. }) => break 'script,
                    Err(e) => {
                        failure = Some(format!("op {i}: unexpected guarded error: {e}"));
                        break 'script;
                    }
                }
            }
            CrashOp::Read { line } => {
                // Pre-crash oracle: volatile state must track every ack.
                match svc.batch_read(&[LineAddr::new(line)]) {
                    Ok(got) => {
                        let want = acked.get(&line).map(|&v| DataBlock::from_words([v; 8]));
                        if got[0] != want {
                            failure = Some(format!("op {i}: pre-crash read diverged"));
                            break 'script;
                        }
                    }
                    Err(e) => {
                        failure = Some(format!("op {i}: unexpected read error: {e}"));
                        break 'script;
                    }
                }
            }
            CrashOp::Checkpoint => match svc.checkpoint() {
                Ok(()) => {}
                Err(ServiceError::Backend { .. }) => break 'script,
                Err(e) => {
                    failure = Some(format!("op {i}: unexpected checkpoint error: {e}"));
                    break 'script;
                }
            },
        }
    }

    let injector = svc.into_backend();
    let crashed = injector.crashed();
    let mut inner = injector.into_inner();
    let corrupted = match case.corrupt {
        Some(c) => {
            let region = if c.checkpoint {
                Region::Checkpoint
            } else {
                Region::Journal
            };
            match corrupt_byte(&mut inner, region, c.offset as usize, c.xor) {
                Ok(applied) => applied,
                Err(e) => {
                    return CaseRun {
                        acked,
                        crashed,
                        corrupted: false,
                        failure: Some(format!("corrupt_byte failed: {e}")),
                    }
                }
            }
        }
        None => false,
    };
    if failure.is_some() {
        return CaseRun {
            acked,
            crashed,
            corrupted,
            failure,
        };
    }

    let failure = judge(case, &acked, corrupted, inner);
    CaseRun {
        acked,
        crashed,
        corrupted,
        failure,
    }
}

/// Judges recovery of `backend` against the acked map: exact readback,
/// or detection — never silent loss.
fn judge<B: StorageBackend>(
    case: &CrashCase,
    acked: &BTreeMap<u64, u64>,
    corrupted: bool,
    backend: B,
) -> Option<String> {
    let recovered = recover(
        backend,
        case.seed,
        case.data_lines,
        DESIGNS[case.design],
        ServiceConfig::default(),
    );
    let (svc, report) = match recovered {
        Ok(pair) => pair,
        Err(e) => {
            if corrupted {
                return None; // detected at recovery: the invariant held
            }
            return Some(format!("recovery failed without corruption: {e}"));
        }
    };
    if !corrupted && !report.quarantined.is_empty() {
        return Some(format!(
            "{} lines quarantined after a pure crash",
            report.quarantined.len()
        ));
    }
    for (&line, &val) in acked {
        match svc.batch_read(&[LineAddr::new(line)]) {
            Ok(got) => {
                let want = DataBlock::from_words([val; 8]);
                if got[0] != Some(want) {
                    return Some(format!(
                        "silent loss: line {line} acked {val:#x}, read back {:?}",
                        got[0].map(|b| b.words()[0])
                    ));
                }
            }
            Err(ServiceError::Corruption(_)) if corrupted => {} // detected
            Err(e) => return Some(format!("post-recovery read of line {line}: {e}")),
        }
    }
    None
}

/// Runs one case over both backends and cross-checks their verdicts.
/// `file_dir` is wiped and reused for the `FileBackend` run.
pub fn run_case(case: &CrashCase, file_dir: &Path) -> CaseRun {
    let inmem = apply(case, InMemoryBackend::new());
    let _ = std::fs::remove_dir_all(file_dir);
    let file_backend = match FileBackend::open(file_dir) {
        Ok(b) => b,
        Err(e) => {
            return CaseRun {
                failure: Some(format!("file backend scratch: {e}")),
                ..inmem
            }
        }
    };
    let file = apply(case, file_backend);
    let _ = std::fs::remove_dir_all(file_dir);
    if inmem.failure.is_none() != file.failure.is_none() || inmem.acked != file.acked {
        return CaseRun {
            failure: Some(format!(
                "backend divergence: inmem {:?} vs file {:?}",
                inmem.failure, file.failure
            )),
            ..inmem
        };
    }
    inmem
}

/// The crash-recovery campaign (see [`crate::campaign`]). File-backend
/// runs use one directory per case seed under `scratch`, so parallel
/// cases never share one.
pub struct CrashCampaign {
    /// Scratch root for the `FileBackend` runs.
    pub scratch: PathBuf,
}

impl Campaign for CrashCampaign {
    type Case = CrashCase;
    type Outcome = CaseRun;

    const NAME: &'static str = "crash_campaign";
    const CASES: [usize; 2] = [1000, 64];
    const SEED: u64 = 0xC4A5;
    const OUT: &'static str = "target/crash_verdicts.txt";
    const REPRO_FLAG: &'static str = "--repro-dir";
    const SHRINK_BUDGET: usize = 2_000;

    fn repro_dir() -> PathBuf {
        PathBuf::from("target/crash_repro")
    }

    fn case_seed(seed: u64, index: u64) -> u64 {
        mix64(seed.wrapping_add(index.wrapping_mul(GAMMA)))
    }

    fn generate(case_seed: u64) -> CrashCase {
        CrashCase::generate(case_seed)
    }

    fn run(&self, case: &CrashCase) -> CaseRun {
        run_case(case, &self.scratch.join(format!("{:016x}", case.seed)))
    }

    fn failures(run: &CaseRun) -> Vec<String> {
        run.failure.iter().cloned().collect()
    }

    fn verdict(i: usize, case: &CrashCase, run: Result<&CaseRun, &str>) -> String {
        let r = match run {
            Ok(r) => r,
            Err(msg) => return format!("case {i:>5} PANIC: {msg}"),
        };
        let corrupt = match case.corrupt {
            None => "-".to_string(),
            Some(c) => format!("{}@{}", if c.checkpoint { "ckpt" } else { "wal" }, c.offset),
        };
        let verdict = match &r.failure {
            None => "ok".to_string(),
            Some(why) => format!("FAIL: {why}"),
        };
        format!(
            "case {i:>5} seed {:#018x} design {:<10} ops {:>3} crash {:>3}/{:<3} corrupt {corrupt} \
             acked {:>3} {verdict}",
            case.seed,
            format!("{:?}", DESIGNS[case.design]),
            case.ops.len(),
            case.schedule.crash_on_op,
            case.schedule.torn_keep,
            r.acked.len(),
        )
    }

    fn encode(case: &CrashCase) -> String {
        let corrupt = match case.corrupt {
            None => "None".to_string(),
            Some(CorruptPlan {
                checkpoint,
                offset,
                xor,
            }) => {
                format!("Corrupt(checkpoint: {checkpoint}, offset: {offset}, xor: {xor})")
            }
        };
        let ops = case.ops.iter().map(|op| match *op {
            CrashOp::Write { line, val } => format!("(op: write, line: {line}, val: {val})"),
            CrashOp::Guarded { line, val } => format!("(op: guarded, line: {line}, val: {val})"),
            CrashOp::Read { line } => format!("(op: read, line: {line})"),
            CrashOp::Checkpoint => "(op: checkpoint)".to_string(),
        });
        let fields = [
            ("seed", case.seed.to_string()),
            ("design", case.design.to_string()),
            ("data_lines", case.data_lines.to_string()),
            ("crash_on_op", case.schedule.crash_on_op.to_string()),
            ("torn_keep", case.schedule.torn_keep.to_string()),
            ("corrupt", corrupt),
        ];
        let header = "emcc crash-campaign reproducer — replay via `crash_campaign --replay <file>`";
        record::write(&[header], "CrashCase", &fields, ("ops", ops.collect()))
    }

    fn decode(text: &str) -> Result<CrashCase, String> {
        let rec = Record::parse(text, "CrashCase")?;
        let f = &rec.fields;
        let corrupt = match variant(f.raw("corrupt")?)? {
            ("None", _) => None,
            ("Corrupt", a) => Some(CorruptPlan {
                checkpoint: a.get("checkpoint")?,
                offset: a.get("offset")?,
                xor: a.get("xor")?,
            }),
            (other, _) => return Err(format!("unknown corrupt plan `{other}`")),
        };
        let op = |t: &Fields| -> Result<CrashOp, String> {
            let (line, val) = (t.get("line"), t.get("val"));
            Ok(match t.raw("op")? {
                "write" => CrashOp::Write {
                    line: line?,
                    val: val?,
                },
                "guarded" => CrashOp::Guarded {
                    line: line?,
                    val: val?,
                },
                "read" => CrashOp::Read { line: line? },
                "checkpoint" => CrashOp::Checkpoint,
                other => return Err(format!("unknown op kind `{other}`")),
            })
        };
        let schedule = CrashSchedule {
            crash_on_op: f.get("crash_on_op")?,
            torn_keep: f.get("torn_keep")?,
        };
        let ops = rec.list.iter().map(op).collect::<Result<_, _>>()?;
        let (seed, design, data_lines) = (f.get("seed")?, f.get("design")?, f.get("data_lines")?);
        let case = CrashCase {
            seed,
            design,
            data_lines,
            schedule,
            corrupt,
            ops,
        };
        case.validate()?;
        Ok(case)
    }

    fn repro_name(case: &CrashCase) -> String {
        format!("crash_case_{:#018x}.txt", case.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_cases;

    fn scratch(tag: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-scratch")
            .join(format!("crash-campaign-{tag}-{}", std::process::id()))
    }

    #[test]
    fn generate_is_deterministic_and_valid() {
        for seed in 0..64u64 {
            let a = CrashCase::generate(seed);
            assert_eq!(a, CrashCase::generate(seed));
            a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        assert_ne!(CrashCase::generate(1), CrashCase::generate(2));
    }

    #[test]
    fn shrink_candidates_stay_valid() {
        let case = CrashCase::generate(11);
        for cand in case.shrink_candidates() {
            cand.validate().expect("shrink candidate invalid");
        }
    }

    #[test]
    fn shrinks_to_tiny_case_under_always_failing_oracle() {
        let case = CrashCase::generate(5);
        let m = proptest::shrink::minimize(case, 20_000, |_| true);
        assert_eq!(m.value.ops.len(), 1);
        assert_eq!(m.value.corrupt, None);
        assert_eq!(m.value.schedule.crash_on_op, 0);
    }

    #[test]
    fn smoke_cases_uphold_the_invariant() {
        let dir = scratch("smoke");
        let (mut crashed, mut corrupted) = (0, 0);
        for i in 0..CrashCampaign::CASES[1] as u64 {
            let case = CrashCase::generate(CrashCampaign::case_seed(CrashCampaign::SEED, i));
            let run = run_case(&case, &dir);
            assert!(
                run.failure.is_none(),
                "case {i} ({case:?}) failed: {:?}",
                run.failure
            );
            crashed += u32::from(run.crashed);
            corrupted += u32::from(run.corrupted);
        }
        let _ = std::fs::remove_dir_all(&dir);
        // The schedules must actually fire, or the invariant holds vacuously.
        assert!(
            crashed > 0 && corrupted > 0,
            "{crashed} crashed, {corrupted} corrupted"
        );
    }

    #[test]
    fn torn_write_case_loses_only_unacked_work() {
        // A hand-built case whose 3rd append tears mid-record.
        let case = CrashCase {
            seed: 3,
            design: 2,
            data_lines: 256,
            schedule: CrashSchedule {
                crash_on_op: 3,
                torn_keep: 9,
            },
            corrupt: None,
            ops: (0..6)
                .map(|i| CrashOp::Write {
                    line: i,
                    val: 100 + i,
                })
                .collect(),
        };
        let run = apply(&case, InMemoryBackend::new());
        assert!(run.crashed);
        assert_eq!(run.acked.len(), 2, "third write must not be acked");
        assert!(run.failure.is_none(), "{:?}", run.failure);
    }

    #[test]
    fn corrupted_journal_case_is_detected_not_silent() {
        let case = CrashCase {
            seed: 4,
            design: 1,
            data_lines: 256,
            schedule: CrashSchedule::never(),
            corrupt: Some(CorruptPlan {
                checkpoint: false,
                offset: 12,
                xor: 0x40,
            }),
            ops: (0..4).map(|i| CrashOp::Write { line: i, val: i }).collect(),
        };
        let run = apply(&case, InMemoryBackend::new());
        assert!(run.corrupted, "offset 12 must land inside the journal");
        assert!(run.failure.is_none(), "{:?}", run.failure);
    }

    #[test]
    fn reproducer_roundtrips_every_generated_shape() {
        for seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
            let case = CrashCase::generate(seed);
            let text = CrashCampaign::encode(&case);
            let back = CrashCampaign::decode(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(case, back, "roundtrip drift for seed {seed}");
        }
    }

    #[test]
    fn reproducer_text_is_byte_stable() {
        // Re-encoding a parsed reproducer gives back the same bytes, over
        // every generated shape (hammers, corruption plans, all op kinds).
        for i in 0..200 {
            let case = CrashCase::generate(CrashCampaign::case_seed(CrashCampaign::SEED, i));
            let text = CrashCampaign::encode(&case);
            let back = CrashCampaign::decode(&text).expect("parse");
            assert_eq!(CrashCampaign::encode(&back), text, "case {i}");
        }
        // And the layout itself is pinned.
        let case = CrashCase {
            seed: 9,
            design: 1,
            data_lines: 256,
            schedule: CrashSchedule {
                crash_on_op: 4,
                torn_keep: 7,
            },
            corrupt: Some(CorruptPlan {
                checkpoint: true,
                offset: 12,
                xor: 64,
            }),
            ops: vec![
                CrashOp::Write { line: 1, val: 2 },
                CrashOp::Guarded { line: 1, val: 3 },
                CrashOp::Read { line: 1 },
                CrashOp::Checkpoint,
            ],
        };
        assert_eq!(
            CrashCampaign::encode(&case),
            "// emcc crash-campaign reproducer — replay via `crash_campaign --replay <file>`\n\
             CrashCase(\n    seed: 9,\n    design: 1,\n    data_lines: 256,\n    \
             crash_on_op: 4,\n    torn_keep: 7,\n    \
             corrupt: Corrupt(checkpoint: true, offset: 12, xor: 64),\n    ops: [\n        \
             (op: write, line: 1, val: 2),\n        (op: guarded, line: 1, val: 3),\n        \
             (op: read, line: 1),\n        (op: checkpoint),\n    ],\n)\n"
        );
    }

    #[test]
    fn reproducer_parser_reports_bad_input() {
        assert!(CrashCampaign::decode("CrashCase(\n  garbage\n)")
            .unwrap_err()
            .contains("line 2"));
        let mut case = CrashCase::generate(3);
        case.ops = vec![CrashOp::Write { line: 9999, val: 1 }];
        assert!(CrashCampaign::decode(&CrashCampaign::encode(&case))
            .unwrap_err()
            .contains("data space"));
    }

    #[test]
    fn campaign_verdicts_are_worker_count_invariant() {
        let s1 = scratch("j1");
        let s2 = scratch("j4");
        let a = run_cases(
            &CrashCampaign {
                scratch: s1.clone(),
            },
            CrashCampaign::SEED,
            16,
            1,
        );
        let b = run_cases(
            &CrashCampaign {
                scratch: s2.clone(),
            },
            CrashCampaign::SEED,
            16,
            4,
        );
        assert_eq!(a.text, b.text);
        assert_eq!(a.text.lines().count(), 16);
        assert_eq!(a.failed, 0, "{:?}", a.first_failure.map(|f| f.2));
        let _ = std::fs::remove_dir_all(&s1);
        let _ = std::fs::remove_dir_all(&s2);
    }
}
