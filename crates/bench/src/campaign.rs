//! One runner for the seeded campaigns: `fuzz_sim`, `fault_campaign` and
//! `crash_campaign`.
//!
//! Case `i` of a campaign is a pure function of
//! [`Campaign::case_seed`]`(seed, i)`. [`main`] runs the cases on the
//! worker pool (`EMCC_JOBS`), each under `catch_unwind`, and writes one
//! verdict line per case in index order, so the verdict file is
//! byte-identical for any worker count. The first failing or panicking
//! case is shrunk (a panicking candidate still fails) and persisted in
//! the codec of [`crate::record`]. `--replay FILE` re-runs a reproducer;
//! `--emit FILE --case-seed S` writes the one of any verdict line's seed.
//!
//! Exit codes: 0 = every case passed, 1 = a failed verdict, 2 = usage,
//! configuration or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use proptest::shrink::{minimize, Shrink};

use crate::cli::{exit_error, write_or_exit, Argv};
use crate::json::Json;
use crate::pool::{catch, jobs_from_env, run_indexed};

/// A seeded campaign: how to make, run, judge, print and serialize one
/// case; [`main`] does the rest. The constants are the binary's name
/// and CLI defaults.
pub trait Campaign: Sync {
    /// A generated case.
    type Case: Shrink + Clone + Send;
    /// What running a case produced.
    type Outcome: Send;

    /// Binary name, prefixing messages and the usage line.
    const NAME: &'static str;
    /// Cases by default and under `--smoke`.
    const CASES: [usize; 2];
    /// Campaign seed without `--seed`.
    const SEED: u64;
    /// Verdict file without `--out`.
    const OUT: &'static str;
    /// The flag naming the reproducer directory.
    const REPRO_FLAG: &'static str;
    /// Shrink candidates tested before accepting the current minimum.
    const SHRINK_BUDGET: usize;
    /// Throughput telemetry written next to the verdict file, if any.
    const TELEMETRY: Option<&'static str> = None;

    /// Reproducer directory without [`Campaign::REPRO_FLAG`].
    fn repro_dir() -> PathBuf;
    /// Seed of case `index` of the campaign seeded `seed`.
    fn case_seed(seed: u64, index: u64) -> u64;
    /// The case of `case_seed`. Pure: same seed, same case.
    fn generate(case_seed: u64) -> Self::Case;
    /// Runs one case.
    fn run(&self, case: &Self::Case) -> Self::Outcome;
    /// Why `outcome` breaks the contract; empty when it holds.
    fn failures(outcome: &Self::Outcome) -> Vec<String>;
    /// Verdict line (no newline) of case `index`, or of its panic.
    fn verdict(index: usize, case: &Self::Case, outcome: Result<&Self::Outcome, &str>) -> String;
    /// Reproducer text of `case`.
    fn encode(case: &Self::Case) -> String;
    /// Parses reproducer text, saying what is malformed or invalid.
    fn decode(text: &str) -> Result<Self::Case, String>;
    /// File name of `case`'s reproducer.
    fn repro_name(case: &Self::Case) -> String;
}

/// The flags every campaign binary accepts, named as the fields are
/// (`repro_dir` is [`Campaign::REPRO_FLAG`]).
#[derive(Debug, Clone)]
pub struct CampaignArgs {
    pub cases: usize,
    pub seed: u64,
    pub out: PathBuf,
    pub repro_dir: PathBuf,
    pub replay: Option<PathBuf>,
    pub emit: Option<PathBuf>,
    pub case_seed: Option<u64>,
}

impl CampaignArgs {
    /// Parses the process arguments for `C`. `extra` claims the binary's
    /// own flags (returning `false` for any it does not know), and
    /// `extra_usage` documents them.
    pub fn from_env<C: Campaign>(
        extra_usage: &str,
        mut extra: impl FnMut(&str, &mut Argv) -> bool,
    ) -> Self {
        let (name, repro) = (C::NAME, C::REPRO_FLAG);
        let mut argv = Argv::from_env(format!(
            "usage: {name} [--cases N] [--seed S] [--smoke] [--out FILE] [{repro} DIR] \
             [--replay FILE] [--emit FILE --case-seed S]{extra_usage}"
        ));
        let mut args = CampaignArgs {
            cases: C::CASES[0],
            seed: C::SEED,
            out: PathBuf::from(C::OUT),
            repro_dir: C::repro_dir(),
            replay: None,
            emit: None,
            case_seed: None,
        };
        while let Some(flag) = argv.next_flag() {
            match flag.as_str() {
                "--cases" => args.cases = argv.count(&flag),
                "--seed" => args.seed = argv.seed(&flag),
                "--smoke" => args.cases = C::CASES[1],
                "--out" => args.out = argv.path(&flag),
                "--replay" => args.replay = Some(argv.path(&flag)),
                "--emit" => args.emit = Some(argv.path(&flag)),
                "--case-seed" => args.case_seed = Some(argv.seed(&flag)),
                f if f == repro => args.repro_dir = argv.path(&flag),
                f if !extra(f, &mut argv) => argv.unknown(f),
                _ => {}
            }
        }
        args
    }
}

/// Runs what `args` ask for — `--emit`, `--replay` or a campaign — and
/// returns the process exit code.
pub fn main<C: Campaign>(campaign: &C, args: &CampaignArgs) -> ExitCode {
    let name = C::NAME;
    if let Some(path) = &args.emit {
        let Some(seed) = args.case_seed else {
            exit_error("--emit needs --case-seed (the seed column of a verdict line)");
        };
        write_or_exit(path, C::encode(&C::generate(seed)));
        eprintln!("emitted case {seed:#x} to {}", path.display());
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.replay {
        return ExitCode::from(replay(campaign, path));
    }
    let (cases, seed, jobs) = (args.cases, args.seed, jobs_from_env());
    eprintln!("{name}: {cases} cases, seed {seed}, {jobs} workers");
    let t0 = Instant::now();
    let run = run_cases(campaign, seed, cases, jobs);
    let elapsed = t0.elapsed();
    eprintln!("{name}: campaign took {elapsed:.1?}");
    if let Some(file) = C::TELEMETRY {
        // Best effort: an unwritable path never fails a green campaign.
        let secs = elapsed.as_secs_f64();
        let json = Json::obj([
            ("cases", Json::num(cases)),
            ("seed", Json::num(seed)),
            ("jobs", Json::num(jobs)),
            (
                "sims_per_sec",
                Json::fixed(if secs > 0.0 { cases as f64 / secs } else { 0.0 }, 3),
            ),
            ("campaign_ns", Json::num(elapsed.as_nanos())),
        ]);
        let path = args.out.parent().unwrap_or(Path::new(".")).join(file);
        if let Err(e) = std::fs::write(&path, json.render()) {
            eprintln!("{name}: telemetry {}: {e}", path.display());
        }
    }
    write_or_exit(&args.out, &run.text);
    let (passed, out) = (cases - run.failed, args.out.display());
    eprintln!("{name}: {passed}/{cases} cases passed, verdicts in {out}");
    let Some((index, case, failures)) = run.first_failure else {
        return ExitCode::SUCCESS;
    };
    eprintln!(
        "{name}: shrinking case {index} ({} candidates at most)...",
        C::SHRINK_BUDGET
    );
    let path = shrink_and_persist(campaign, case, &failures, &args.repro_dir)
        .unwrap_or_else(|e| exit_error(&e));
    let path = path.display();
    eprintln!("{name}: reproducer persisted to {path}; replay with `{name} --replay {path}`");
    ExitCode::from(1)
}

/// A finished campaign: the verdict file's text, how many cases failed
/// or panicked, and the first of them (index, case, why).
pub(crate) struct CampaignRun<C: Campaign> {
    pub(crate) text: String,
    pub(crate) failed: usize,
    pub(crate) first_failure: Option<(usize, C::Case, Vec<String>)>,
}

/// Runs cases `0..cases` of the campaign seeded `seed` on `jobs` workers.
pub(crate) fn run_cases<C: Campaign>(
    campaign: &C,
    seed: u64,
    cases: usize,
    jobs: usize,
) -> CampaignRun<C> {
    let results = run_indexed(cases, jobs, |i| {
        let case = C::generate(C::case_seed(seed, i as u64));
        let (outcome, failures) = judge(campaign, &case);
        (case, outcome, failures)
    });
    let mut run = CampaignRun {
        text: String::new(),
        failed: 0,
        first_failure: None,
    };
    for (i, (case, outcome, failures)) in results.into_iter().enumerate() {
        run.text += &C::verdict(i, &case, outcome.as_ref().map_err(String::as_str));
        run.text.push('\n');
        for f in &failures {
            eprintln!("case {i}: {f}");
        }
        if !failures.is_empty() {
            run.failed += 1;
            run.first_failure.get_or_insert((i, case, failures));
        }
    }
    run
}

/// Runs `case` with a panic contained, plus why it broke the contract —
/// a panic included; empty when it held.
fn judge<C: Campaign>(campaign: &C, case: &C::Case) -> (Result<C::Outcome, String>, Vec<String>) {
    let outcome = catch(|| campaign.run(case));
    let failures = match &outcome {
        Ok(o) => C::failures(o),
        Err(msg) => vec![format!("panicked: {msg}")],
    };
    (outcome, failures)
}

/// Shrinks a failing `case` while it still fails, then persists the
/// minimum under `dir` annotated with the original `failures`; the error
/// names an unwritable path.
pub(crate) fn shrink_and_persist<C: Campaign>(
    campaign: &C,
    case: C::Case,
    failures: &[String],
    dir: &Path,
) -> Result<PathBuf, String> {
    let t0 = Instant::now();
    let m = minimize(case, C::SHRINK_BUDGET, |c| !judge(campaign, c).1.is_empty());
    let (name, steps, tested) = (C::NAME, m.steps, m.tested);
    eprintln!(
        "{name}: shrunk in {steps} steps ({tested} candidates, {:.1?})",
        t0.elapsed()
    );
    let mut text = C::encode(&m.value);
    for f in failures {
        text += &format!("// failed oracle: {f}\n");
    }
    let path = dir.join(C::repro_name(&m.value));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Re-runs the reproducer at `path`: 0 when the contract holds, 1 when it
/// breaks, 2 when the file is unreadable or malformed.
pub(crate) fn replay<C: Campaign>(campaign: &C, path: &Path) -> u8 {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
    let case = match text.and_then(|t| C::decode(&t)) {
        Ok(case) => case,
        Err(e) => {
            eprintln!("error: {shown}: {e}");
            return 2;
        }
    };
    let (outcome, failures) = judge(campaign, &case);
    let outcome = outcome.as_ref().map_err(String::as_str);
    eprintln!("replay {shown}: {}", C::verdict(0, &case, outcome));
    for f in &failures {
        eprintln!("replay {shown}: {f}");
    }
    u8::from(!failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{self, Record};
    use proptest::shrink::shrink_vec;

    /// A toy case: three consecutive integers from the case seed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Toy {
        seed: u64,
        items: Vec<u64>,
    }

    impl Shrink for Toy {
        fn shrink_candidates(&self) -> Vec<Self> {
            shrink_vec(&self.items, 1, |_| Vec::new())
                .into_iter()
                .map(|items| Toy { items, ..*self })
                .collect()
        }
    }

    /// Contract: no item is a multiple of 7; an item 13 panics.
    struct ToyCampaign;

    impl Campaign for ToyCampaign {
        type Case = Toy;
        type Outcome = Option<String>;

        const NAME: &'static str = "toy";
        const CASES: [usize; 2] = [8, 4];
        const SEED: u64 = 1;
        const OUT: &'static str = "verdicts.txt";
        const REPRO_FLAG: &'static str = "--repro-dir";
        const SHRINK_BUDGET: usize = 500;

        fn repro_dir() -> PathBuf {
            PathBuf::from("repro")
        }

        fn case_seed(seed: u64, index: u64) -> u64 {
            seed + index
        }

        fn generate(seed: u64) -> Toy {
            Toy {
                seed,
                items: vec![seed, seed + 1, seed + 2],
            }
        }

        fn run(&self, case: &Toy) -> Option<String> {
            assert!(!case.items.contains(&13), "unlucky 13");
            let bad = case.items.iter().find(|&&v| v % 7 == 0)?;
            Some(format!("{bad} is a multiple of 7"))
        }

        fn failures(outcome: &Option<String>) -> Vec<String> {
            outcome.iter().cloned().collect()
        }

        fn verdict(i: usize, case: &Toy, outcome: Result<&Option<String>, &str>) -> String {
            let v = match outcome {
                Ok(None) => "ok".to_string(),
                Ok(Some(why)) => format!("FAIL {why}"),
                Err(msg) => format!("PANIC {msg}"),
            };
            format!("case {i} {:?} {v}", case.items)
        }

        fn encode(case: &Toy) -> String {
            let items = case.items.iter().map(|v| format!("(v: {v})")).collect();
            record::write(
                &["toy"],
                "Toy",
                &[("seed", case.seed.to_string())],
                ("items", items),
            )
        }

        fn decode(text: &str) -> Result<Toy, String> {
            let rec = Record::parse(text, "Toy")?;
            let items = rec.list.iter().map(|t| t.get("v"));
            Ok(Toy {
                seed: rec.fields.get("seed")?,
                items: items.collect::<Result<_, _>>()?,
            })
        }

        fn repro_name(case: &Toy) -> String {
            format!("toy-{}.txt", case.seed)
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-scratch")
            .join(format!("campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn verdict_file_is_identical_for_1_and_4_workers() {
        let a = run_cases(&ToyCampaign, 1, 40, 1);
        let b = run_cases(&ToyCampaign, 1, 40, 4);
        assert_eq!(a.text, b.text);
        assert_eq!(a.text.lines().count(), 40);
        assert_eq!(a.text.lines().next(), Some("case 0 [1, 2, 3] ok"));
        assert!(a.text.contains("case 10 [11, 12, 13] PANIC unlucky 13\n"));
        assert!(a
            .text
            .contains("case 4 [5, 6, 7] FAIL 7 is a multiple of 7\n"));
        assert_eq!(a.failed, b.failed);
    }

    #[test]
    fn first_failure_shrinks_and_persists() {
        let run = run_cases(&ToyCampaign, 1, 10, 2);
        let (index, case, failures) = run.first_failure.expect("case 4 fails");
        assert_eq!((index, case.seed), (4, 5));
        let dir = scratch("shrink");
        let path = shrink_and_persist(&ToyCampaign, case, &failures, &dir).unwrap();
        assert_eq!(path, dir.join("toy-5.txt"));
        let minimal = Toy {
            seed: 5,
            items: vec![7],
        };
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            ToyCampaign::encode(&minimal) + "// failed oracle: 7 is a multiple of 7\n"
        );
        assert_eq!(replay(&ToyCampaign, &path), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_case_is_shrunk_and_persisted_too() {
        let run = run_cases(&ToyCampaign, 8, 6, 2);
        let (index, case, failures) = run.first_failure.expect("case 3 panics");
        assert_eq!(
            (index, &failures[..]),
            (3, &["panicked: unlucky 13".to_string()][..])
        );
        let dir = scratch("panic");
        let path = shrink_and_persist(&ToyCampaign, case, &failures, &dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(ToyCampaign::decode(&text).unwrap().items, vec![13]);
        assert!(text.ends_with("// failed oracle: panicked: unlucky 13\n"));
        assert_eq!(replay(&ToyCampaign, &path), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_exits_0_1_or_2() {
        let dir = scratch("replay");
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: String| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path
        };
        let pass = write("pass.txt", ToyCampaign::encode(&ToyCampaign::generate(1)));
        let fail = write("fail.txt", ToyCampaign::encode(&ToyCampaign::generate(5)));
        let garbage = write("garbage.txt", "Toy(\n  not a field\n)\n".to_string());
        assert_eq!(replay(&ToyCampaign, &pass), 0);
        assert_eq!(replay(&ToyCampaign, &fail), 1);
        assert_eq!(replay(&ToyCampaign, &garbage), 2);
        assert_eq!(replay(&ToyCampaign, &dir.join("missing.txt")), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
