//! Parallel experiment execution: a work-stealing job pool and a
//! memoizing run-cache.
//!
//! Simulations stay strictly single-threaded and deterministic (DESIGN.md
//! §4); parallelism exists only *across* independent `(benchmark, config)`
//! runs. Because every run is a pure function of its key, reports can be
//! cached and shared freely between figures — `run_all` resolves ~480
//! requested runs to ~260 unique simulations at the default scale.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use emcc::prelude::*;
use emcc::system::SystemConfig;

use crate::cli::exit_error;
use crate::runner::ExpParams;

/// One requested simulation: the unit the pool schedules and the cache
/// memoizes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunRequest {
    /// Workload to run.
    pub bench: Benchmark,
    /// System configuration to run it under.
    pub cfg: SystemConfig,
}

impl RunRequest {
    /// A request for `bench` under `cfg`.
    pub fn new(bench: Benchmark, cfg: SystemConfig) -> Self {
        RunRequest { bench, cfg }
    }

    /// A request for `bench` under the Table I configuration of `scheme`.
    pub fn scheme(bench: Benchmark, scheme: SecurityScheme) -> Self {
        RunRequest::new(bench, SystemConfig::table_i(scheme))
    }
}

type RunKey = (RunRequest, ExpParams);

/// Memoized simulation reports keyed by `(benchmark, config, params)`.
///
/// Hits/misses are counted per lookup, so duplicated requests across
/// figures show up as cache hits in `BENCH_run_all.json`.
#[derive(Debug, Default)]
pub struct RunCache {
    map: Mutex<HashMap<RunKey, &'static SimReport>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RunCache {
    /// An empty cache.
    pub fn new() -> Self {
        RunCache::default()
    }

    /// Returns the cached report for `key` without touching the counters.
    pub fn probe(&self, req: &RunRequest, params: &ExpParams) -> Option<&'static SimReport> {
        self.map
            .lock()
            .expect("run cache poisoned")
            .get(&(req.clone(), *params))
            .copied()
    }

    /// Returns the cached report for `key`, counting a hit or miss.
    pub fn lookup(&self, req: &RunRequest, params: &ExpParams) -> Option<&'static SimReport> {
        match self.probe(req, params) {
            Some(r) => {
                self.note_hits(1);
                Some(r)
            }
            None => {
                self.note_misses(1);
                None
            }
        }
    }

    /// Adds `n` to the hit counter (batch scheduling dedups requests
    /// up front and accounts for the avoided runs here).
    pub fn note_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` to the miss counter.
    pub fn note_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Inserts a computed report.
    ///
    /// Reports are leaked to `'static`: a figure run computes each unique
    /// report exactly once and keeps it for the life of the process, so
    /// shared references stay free of lifetime plumbing.
    pub fn insert(
        &self,
        req: RunRequest,
        params: ExpParams,
        report: SimReport,
    ) -> &'static SimReport {
        let leaked: &'static SimReport = Box::leak(Box::new(report));
        self.map
            .lock()
            .expect("run cache poisoned")
            .insert((req, params), leaked);
        leaked
    }

    /// `(hits, misses)` counted so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// A malformed environment-variable override (user input, not a bug —
/// reported as a typed error instead of a panic so binaries can print an
/// actionable message and exit cleanly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The offending variable name.
    pub var: &'static str,
    /// The value found.
    pub value: String,
    /// What a valid value looks like.
    pub expected: &'static str,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}={:?} is invalid: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// Number of worker threads: `EMCC_JOBS` override, else available
/// parallelism. Exits with status 2 on a malformed override.
pub fn jobs_from_env() -> usize {
    jobs_from_lookup(|k| std::env::var(k).ok()).unwrap_or_else(|e| exit_error(&e.to_string()))
}

/// [`jobs_from_env`] with an injected environment lookup (testable
/// without mutating the process environment).
///
/// # Errors
///
/// Returns [`EnvError`] on an unparsable or zero `EMCC_JOBS`.
pub fn jobs_from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<usize, EnvError> {
    match lookup("EMCC_JOBS") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(EnvError {
                var: "EMCC_JOBS",
                value: v,
                expected: "a positive integer worker count",
            }),
        },
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
    }
}

/// Runs `jobs` closures of `f` (indexed `0..jobs`) on `workers` threads
/// with work stealing, returning results in index order.
///
/// Jobs are dealt round-robin into per-worker deques; a worker drains its
/// own deque from the front and, when empty, steals from the back of the
/// busiest sibling. With `workers == 1` this degenerates to an in-order
/// serial loop on the calling thread (no spawn), which keeps single-job
/// debugging and `EMCC_JOBS=1` baselines trivial.
pub fn run_indexed<T, F>(jobs: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let workers = workers.min(jobs);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..jobs).step_by(workers).collect()))
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            s.spawn(move || loop {
                let job = next_job(queues, w);
                match job {
                    Some(j) => {
                        let result = f(j);
                        let prev = slots[j]
                            .lock()
                            .expect("result slot poisoned")
                            .replace(result);
                        debug_assert!(prev.is_none(), "job {j} scheduled twice");
                    }
                    None => break,
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every job claimed exactly once")
        })
        .collect()
}

/// Crash-isolated [`run_indexed`]: each job runs under `catch_unwind`, so
/// one panicking simulation becomes an `Err(message)` in its result slot
/// while every other job still runs to completion.
///
/// The standard panic hook still prints the panic to stderr (useful for
/// diagnosis); only the unwind is contained.
pub fn run_indexed_catching<T, F>(jobs: usize, workers: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed(jobs, workers, |i| catch(|| f(i)))
}

/// Runs `f`, containing a panic as its message.
pub(crate) fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Pops the next job for worker `w`: own queue first, then steal from the
/// longest sibling queue.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(j) = queues[w].lock().expect("job queue poisoned").pop_front() {
        return Some(j);
    }
    // Steal from the victim with the most remaining work so the tail of
    // the schedule stays balanced.
    let victim = (0..queues.len())
        .filter(|&v| v != w)
        .max_by_key(|&v| queues[v].lock().expect("job queue poisoned").len())?;
    queues[victim]
        .lock()
        .expect("job queue poisoned")
        .pop_back()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_order() {
        for workers in [1, 2, 4, 7] {
            let out = run_indexed(23, workers, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn run_indexed_actually_uses_worker_threads() {
        let main_id = std::thread::current().id();
        let ids = run_indexed(16, 4, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            std::thread::current().id()
        });
        assert!(ids.iter().any(|&id| id != main_id), "no worker ran a job");
    }

    #[test]
    fn jobs_lookup_parses_and_defaults() {
        assert_eq!(jobs_from_lookup(|_| Some("3".into())), Ok(3));
        assert!(jobs_from_lookup(|_| None).expect("default") >= 1);
    }

    #[test]
    fn jobs_lookup_rejects_zero_and_garbage_as_typed_errors() {
        // " 4 " and "\t2" pin the whitespace case: usize::from_str does
        // not trim, and silently trimming here would let "4 " mean
        // something different from what a shell actually exported.
        for bad in ["0", "-1", "many", "", " 4 ", "\t2", "4\n"] {
            let err = jobs_from_lookup(|_| Some(bad.into())).unwrap_err();
            assert_eq!(err.var, "EMCC_JOBS");
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains("EMCC_JOBS"), "unhelpful message: {msg}");
            assert!(msg.contains("positive integer"), "message: {msg}");
        }
    }

    #[test]
    fn catching_pool_isolates_a_panicking_job() {
        // Quiet hook: the panic is expected; don't spam test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = run_indexed_catching(8, 4, |i| {
            if i == 3 {
                panic!("job {i} exploded");
            }
            i * 2
        });
        std::panic::set_hook(prev);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                assert_eq!(r.as_ref().unwrap_err(), "job 3 exploded");
            } else {
                assert_eq!(*r, Ok(i * 2), "job {i} must complete despite job 3");
            }
        }
    }

    #[test]
    fn catching_pool_is_transparent_without_panics() {
        let out = run_indexed_catching(5, 2, |i| i + 1);
        let plain = run_indexed(5, 2, |i| i + 1);
        assert_eq!(out.into_iter().collect::<Result<Vec<_>, _>>(), Ok(plain));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = RunCache::new();
        let req = RunRequest::scheme(Benchmark::Mcf, SecurityScheme::Emcc);
        let p = ExpParams::for_scale(WorkloadScale::Test);
        assert!(cache.lookup(&req, &p).is_none());
        cache.insert(req.clone(), p, SimReport::default());
        assert!(cache.lookup(&req, &p).is_some());
        // A different config is a different key.
        let other = RunRequest::scheme(Benchmark::Mcf, SecurityScheme::NonSecure);
        assert!(cache.lookup(&other, &p).is_none());
        assert_eq!(cache.stats(), (1, 2));
    }
}
