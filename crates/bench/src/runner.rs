//! Shared simulation-running helpers.

use std::sync::{Mutex, OnceLock};

use emcc::prelude::*;
use emcc::system::{DispatchLedger, SystemConfig as Cfg};

use crate::cli::exit_error;
use crate::pool::{jobs_from_env, run_indexed_catching, EnvError, RunCache, RunRequest};

/// Per-run parameters derived from the chosen scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpParams {
    /// Workload synthesis scale.
    pub scale: WorkloadScale,
    /// Warmup memory ops per core (caches/counters/predictors warm).
    pub warmup_ops: u64,
    /// Measured memory ops per core.
    pub measure_ops: u64,
    /// Workload seed.
    pub seed: u64,
}

impl ExpParams {
    /// Parameters for a scale.
    pub fn for_scale(scale: WorkloadScale) -> Self {
        let (warmup_ops, measure_ops) = match scale {
            WorkloadScale::Test => (2_000, 6_000),
            WorkloadScale::Small => (30_000, 70_000),
            WorkloadScale::Paper => (100_000, 250_000),
        };
        ExpParams {
            scale,
            warmup_ops,
            measure_ops,
            seed: 0x5EED,
        }
    }

    /// Runs one benchmark under a configuration (uncached; prefer
    /// [`Harness::run`] inside experiments so identical runs are shared).
    ///
    /// # Panics
    ///
    /// Panics when `EMCC_FORCE_PANIC` names this benchmark (or is `*`) —
    /// a fault-injection hook for exercising the crash-isolated pool and
    /// the harness's failed-run telemetry from CI.
    pub fn run(&self, bench: Benchmark, cfg: Cfg) -> SimReport {
        if let Ok(v) = std::env::var("EMCC_FORCE_PANIC") {
            if v == "*" || v == bench.name() {
                panic!("EMCC_FORCE_PANIC: simulated crash in {bench}");
            }
        }
        let sources = bench.build_scaled(self.seed, cfg.cores, self.scale);
        SecureSystem::new(cfg).run_with_warmup(sources, self.warmup_ops, self.measure_ops)
    }

    /// Runs one benchmark under a scheme with the Table I configuration.
    pub fn run_scheme(&self, bench: Benchmark, scheme: SecurityScheme) -> SimReport {
        self.run(bench, Cfg::table_i(scheme))
    }
}

/// The experiment-execution harness: one [`ExpParams`], a memoizing
/// [`RunCache`] and a thread budget.
///
/// A [`recording`](Harness::recording) harness turns a figure's render
/// code into its run-matrix; the harness [`execute`](Harness::execute)s
/// that batch on the work-stealing pool and then serves the same render
/// code from the cache. Every simulation is a pure function of
/// `(benchmark, config, params)`, so runs shared between figures execute
/// once. Rendering order — and therefore stdout — is identical no matter
/// how many workers execute the batch.
pub struct Harness {
    params: ExpParams,
    jobs: usize,
    cache: RunCache,
    failures: Mutex<Vec<FailedRun>>,
    notes: Mutex<RunNotes>,
    /// Recording mode: the requests [`run`](Harness::run) has noted.
    recorded: Option<Mutex<Vec<RunRequest>>>,
}

/// What the harness notes about each unique simulation it runs.
#[derive(Default)]
struct RunNotes {
    exhausted: Vec<ExhaustedRun>,
    truncated: Vec<TruncatedRun>,
    dispatches: DispatchLedger,
}

/// A simulation that panicked inside [`Harness::execute`]: the pool
/// contained the unwind, the other jobs completed, and this record is the
/// telemetry trail (surfaced in `BENCH_run_all.json` as `failed_runs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedRun {
    /// Benchmark name of the crashed run.
    pub bench: String,
    /// Security scheme of the crashed run.
    pub scheme: String,
    /// The panic message.
    pub error: String,
}

/// A simulation that *completed* but exhausted its integrity-retry budget
/// (`integrity_unrecovered > 0`): detections whose bounded re-fetch never
/// produced a clean line, so delivery was poisoned.
///
/// Distinct from [`FailedRun`] — the run's report is valid and cached —
/// and surfaced in `BENCH_run_all.json` as `recovery_exhausted_runs`
/// rather than being folded into `failed_runs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustedRun {
    /// Benchmark name of the run.
    pub bench: String,
    /// Security scheme of the run.
    pub scheme: String,
    /// Detections left unrecovered after the retry budget.
    pub unrecovered: u64,
}

/// A simulation that stopped at `SystemConfig::max_sim_time` before
/// every core finished (`SimReport::truncated`): its report covers a
/// cut-off run. Surfaced in `BENCH_run_all.json` as `truncated_runs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncatedRun {
    /// Benchmark name of the run.
    pub bench: String,
    /// Security scheme of the run.
    pub scheme: String,
    /// Measured memory operations completed before the cut.
    pub mem_ops: u64,
}

impl Harness {
    /// A harness with `EMCC_JOBS` workers (default: available
    /// parallelism).
    pub fn new(params: ExpParams) -> Self {
        Harness::with_jobs(params, jobs_from_env())
    }

    /// A harness with an explicit worker count.
    pub fn with_jobs(params: ExpParams, jobs: usize) -> Self {
        Harness {
            params,
            jobs: jobs.max(1),
            cache: RunCache::new(),
            failures: Mutex::new(Vec::new()),
            notes: Mutex::new(RunNotes::default()),
            recorded: None,
        }
    }

    /// A harness in recording mode: [`run`](Harness::run) notes each
    /// request and returns an empty report instead of simulating.
    pub fn recording(params: ExpParams) -> Self {
        Harness {
            recorded: Some(Mutex::new(Vec::new())),
            ..Harness::with_jobs(params, 1)
        }
    }

    /// The requests a recording harness noted, in call order (empty for
    /// a harness that simulates).
    pub fn recorded(self) -> Vec<RunRequest> {
        self.recorded
            .map(|r| r.into_inner().expect("recorded list poisoned"))
            .unwrap_or_default()
    }

    /// A harness configured from `EMCC_SCALE` and `EMCC_JOBS`.
    pub fn from_env() -> Self {
        Harness::new(ExpParams::for_scale(scale_from_env()))
    }

    /// The run parameters.
    pub fn params(&self) -> &ExpParams {
        &self.params
    }

    /// Worker-thread budget.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// `(hits, misses)` of the run-cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Runs that panicked inside [`execute`](Harness::execute) batches so
    /// far, in request order.
    pub fn failures(&self) -> Vec<FailedRun> {
        self.failures.lock().expect("failure list poisoned").clone()
    }

    /// Completed runs whose integrity-retry budget was exhausted
    /// (`integrity_unrecovered > 0`), in simulation order. Each unique
    /// `(benchmark, config)` is recorded once — cache hits never
    /// double-count.
    pub fn recovery_exhausted(&self) -> Vec<ExhaustedRun> {
        self.notes().exhausted.clone()
    }

    /// Completed runs cut off at `SystemConfig::max_sim_time`, in
    /// simulation order, each unique `(benchmark, config)` once.
    pub fn truncated(&self) -> Vec<TruncatedRun> {
        self.notes().truncated.clone()
    }

    /// Host work summed over every unique simulation so far (cache hits
    /// add nothing).
    pub fn dispatches(&self) -> DispatchLedger {
        self.notes().dispatches
    }

    fn notes(&self) -> std::sync::MutexGuard<'_, RunNotes> {
        self.notes.lock().expect("run notes poisoned")
    }

    fn note(&self, req: &RunRequest, report: &SimReport) {
        let mut notes = self.notes();
        notes.dispatches.add(&report.dispatches);
        if report.integrity_unrecovered > 0 {
            notes.exhausted.push(ExhaustedRun {
                bench: req.bench.name(),
                scheme: req.cfg.scheme.to_string(),
                unrecovered: report.integrity_unrecovered,
            });
        }
        if report.truncated {
            notes.truncated.push(TruncatedRun {
                bench: req.bench.name(),
                scheme: req.cfg.scheme.to_string(),
                mem_ops: report.mem_ops,
            });
        }
    }

    /// Executes a batch of requests on the pool, memoizing every result.
    ///
    /// Duplicate requests — within the batch or against earlier batches —
    /// count as cache hits and are simulated only once.
    pub fn execute(&self, requests: &[RunRequest]) {
        let mut fresh: Vec<&RunRequest> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut hits = 0u64;
        for req in requests {
            if self.cache.probe(req, &self.params).is_some() || !seen.insert(req) {
                hits += 1;
            } else {
                fresh.push(req);
            }
        }
        self.cache.note_hits(hits);
        self.cache.note_misses(fresh.len() as u64);

        let params = self.params;
        // Crash isolation: a panicking simulation must not take down the
        // batch. Failed runs become telemetry records instead of cache
        // entries; the survivors land in the cache as usual.
        let reports = run_indexed_catching(fresh.len(), self.jobs, |i| {
            params.run(fresh[i].bench, fresh[i].cfg.clone())
        });
        for (req, report) in fresh.into_iter().zip(reports) {
            match report {
                Ok(report) => {
                    self.note(req, &report);
                    self.cache.insert(req.clone(), params, report);
                }
                Err(error) => {
                    self.failures
                        .lock()
                        .expect("failure list poisoned")
                        .push(FailedRun {
                            bench: req.bench.name(),
                            scheme: req.cfg.scheme.to_string(),
                            error,
                        });
                }
            }
        }
    }

    /// The report for `bench` under `cfg`, from cache or computed now
    /// (in recording mode: an empty report, with the request noted).
    pub fn run(&self, bench: Benchmark, cfg: Cfg) -> &'static SimReport {
        let req = RunRequest::new(bench, cfg);
        if let Some(recorded) = &self.recorded {
            recorded.lock().expect("recorded list poisoned").push(req);
            static EMPTY: OnceLock<SimReport> = OnceLock::new();
            return EMPTY.get_or_init(SimReport::default);
        }
        if let Some(r) = self.cache.lookup(&req, &self.params) {
            return r;
        }
        let report = self.params.run(req.bench, req.cfg.clone());
        self.note(&req, &report);
        self.cache.insert(req, self.params, report)
    }

    /// The report for `bench` under the Table I configuration of `scheme`.
    pub fn run_scheme(&self, bench: Benchmark, scheme: SecurityScheme) -> &'static SimReport {
        self.run(bench, Cfg::table_i(scheme))
    }
}

/// Reads `EMCC_SCALE` from the environment (default `small`). Exits with
/// status 2 on an unrecognized value.
pub fn scale_from_env() -> WorkloadScale {
    scale_from_lookup(|k| std::env::var(k).ok()).unwrap_or_else(|e| exit_error(&e.to_string()))
}

/// [`scale_from_env`] with an injected environment lookup — tests pass a
/// closure instead of mutating the process environment, which is racy
/// under the parallel test harness.
///
/// # Errors
///
/// Returns [`EnvError`] on an unrecognized value.
pub fn scale_from_lookup(
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<WorkloadScale, EnvError> {
    match lookup("EMCC_SCALE").as_deref() {
        Some("test") => Ok(WorkloadScale::Test),
        Some("paper") => Ok(WorkloadScale::Paper),
        Some("small") | None => Ok(WorkloadScale::Small),
        Some(other) => Err(EnvError {
            var: "EMCC_SCALE",
            value: other.to_string(),
            expected: "one of test|small|paper",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_scale_sensibly() {
        let t = ExpParams::for_scale(WorkloadScale::Test);
        let p = ExpParams::for_scale(WorkloadScale::Paper);
        assert!(p.measure_ops > t.measure_ops);
    }

    #[test]
    fn scale_lookup_default_is_small() {
        // Injected lookup: no process-environment mutation (racy under
        // the parallel test harness).
        assert_eq!(scale_from_lookup(|_| None), Ok(WorkloadScale::Small));
        assert_eq!(
            scale_from_lookup(|_| Some("test".into())),
            Ok(WorkloadScale::Test)
        );
        assert_eq!(
            scale_from_lookup(|_| Some("paper".into())),
            Ok(WorkloadScale::Paper)
        );
    }

    #[test]
    fn scale_lookup_rejects_garbage_as_typed_error() {
        // Whitespace and empty values are rejected too — an exported
        // `EMCC_SCALE="test "` must fail loudly, not fall back to the
        // small-scale default and quietly run the wrong experiment.
        for bad in ["huge", "", " test", "test ", "Test"] {
            let err = scale_from_lookup(|_| Some(bad.into())).unwrap_err();
            assert_eq!(err.var, "EMCC_SCALE");
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains("EMCC_SCALE") && msg.contains("test|small|paper"));
        }
    }

    #[test]
    fn harness_memoizes_identical_runs() {
        let h = Harness::with_jobs(ExpParams::for_scale(WorkloadScale::Test), 2);
        let a = h.run_scheme(Benchmark::Mcf, SecurityScheme::NonSecure);
        let b = h.run_scheme(Benchmark::Mcf, SecurityScheme::NonSecure);
        assert!(std::ptr::eq(a, b), "second run must be served from cache");
        let (hits, misses) = h.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn harness_execute_dedups_batch() {
        let h = Harness::with_jobs(ExpParams::for_scale(WorkloadScale::Test), 2);
        let req = crate::pool::RunRequest::scheme(Benchmark::Mcf, SecurityScheme::NonSecure);
        h.execute(&[req.clone(), req.clone(), req]);
        let (hits, misses) = h.cache_stats();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn recovery_exhausted_runs_are_recorded_distinctly() {
        use emcc::dram::{FaultClass, FaultConfig};
        let h = Harness::with_jobs(ExpParams::for_scale(WorkloadScale::Test), 2);
        // A clean run records nothing.
        h.run_scheme(Benchmark::Mcf, SecurityScheme::CtrInLlc);
        assert!(h.recovery_exhausted().is_empty());
        // A stuck-at line can never be re-fetched clean, so the bounded
        // retry budget must exhaust — and land in the distinct telemetry
        // list, not in the panic-trail `failures()`.
        let fault = FaultConfig::uniform(0xFA17, FaultClass::StuckLine, 50_000);
        let cfg = Cfg::table_i(SecurityScheme::CtrInLlc).with_fault(fault);
        let report = h.run(Benchmark::Canneal, cfg.clone());
        assert!(
            report.integrity_unrecovered > 0,
            "stuck lines must exhaust the retry budget"
        );
        let ex = h.recovery_exhausted();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].bench, Benchmark::Canneal.name());
        assert_eq!(ex[0].unrecovered, report.integrity_unrecovered);
        assert!(h.failures().is_empty(), "the run completed — not a failure");
        // A cache hit of the same run must not double-count.
        h.run(Benchmark::Canneal, cfg);
        assert_eq!(h.recovery_exhausted().len(), 1);
    }

    #[test]
    fn truncated_runs_are_recorded_once() {
        let h = Harness::with_jobs(ExpParams::for_scale(WorkloadScale::Test), 2);
        h.run_scheme(Benchmark::Mcf, SecurityScheme::NonSecure);
        assert!(h.truncated().is_empty(), "a finished run is not truncated");
        let mut cfg = Cfg::table_i(SecurityScheme::Emcc);
        cfg.max_sim_time = Time::from_ns(500);
        let report = h.run(Benchmark::Mcf, cfg.clone());
        assert!(report.truncated);
        let cut = h.truncated();
        assert_eq!(cut.len(), 1);
        assert_eq!(cut[0].bench, Benchmark::Mcf.name());
        assert_eq!(cut[0].mem_ops, report.mem_ops);
        // A cache hit of the same run must not record it again.
        h.run(Benchmark::Mcf, cfg);
        assert_eq!(h.truncated().len(), 1);
    }

    #[test]
    fn parallel_and_serial_reports_are_identical() {
        let p = ExpParams::for_scale(WorkloadScale::Test);
        let serial = Harness::with_jobs(p, 1);
        let parallel = Harness::with_jobs(p, 4);
        let reqs: Vec<_> = [
            SecurityScheme::NonSecure,
            SecurityScheme::CtrInLlc,
            SecurityScheme::Emcc,
        ]
        .into_iter()
        .map(|s| crate::pool::RunRequest::scheme(Benchmark::Canneal, s))
        .collect();
        parallel.execute(&reqs);
        for req in &reqs {
            let a = serial.run(req.bench, req.cfg.clone());
            let b = parallel.run(req.bench, req.cfg.clone());
            assert_eq!(
                a.elapsed, b.elapsed,
                "determinism broken for {:?}",
                req.bench
            );
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.ctr_source, b.ctr_source);
        }
    }
}
