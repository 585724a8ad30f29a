//! Renders every figure in one pass — the data source for
//! EXPERIMENTS.md — or only the figures `--fig` names.
//!
//! ```sh
//! EMCC_SCALE=small EMCC_JOBS=4 cargo run --release -p emcc-bench --bin run_all
//! EMCC_SCALE=test cargo run --release -p emcc-bench --bin run_all -- --fig ID
//! ```
//!
//! `--fig ID` (repeatable) renders only the named entries of
//! `experiments::REGISTRY`, in registry order; entries outside the
//! default pass render only when named. An unknown id exits 2 and lists
//! the valid ones.
//!
//! `--csv DIR` also writes every rendered table to `DIR/ID.csv`
//! (`DIR/ID-N.csv` when an entry has several tables).
//!
//! `--smoke` forces `Test` scale regardless of `EMCC_SCALE` — the fast,
//! deterministic pass CI diffs against the committed snapshot
//! (`crates/bench/tests/snapshots/run_all_smoke.txt`).
//!
//! `--trace FILE` additionally exports a Chrome-trace JSON of one
//! representative EMCC run's critical-path attribution (open in
//! `chrome://tracing` or Perfetto). The traced run is inline, so the
//! file is byte-identical for any `EMCC_JOBS`.
//!
//! Three phases:
//!
//! 1. **Plan** — the selected entries' render functions run on a
//!    recording harness, which lists every run they ask for.
//! 2. **Simulate** — the batch executes on the crash-isolated
//!    work-stealing pool (`EMCC_JOBS` workers). Runs shared between
//!    figures (the Table I schemes dominate) simulate once; a crashed run
//!    aborts before rendering, with the `failed_runs` trail written.
//! 3. **Render** — entries print serially in registry order from the
//!    run-cache, so stdout is byte-identical no matter the worker count.
//!
//! Wall-clock per entry and the cache hit/miss counters are written to
//! `BENCH_run_all.json`; an entry with telemetry of its own (the
//! placement race's `BENCH_race.json`) writes it as it renders.

use std::path::{Path, PathBuf};
use std::time::Instant;

use emcc::prelude::WorkloadScale;
use emcc::system::DispatchLedger;
use emcc_bench::cli::{exit_error, write_or_exit, Argv};
use emcc_bench::experiments::{self, Entry, REGISTRY};
use emcc_bench::json::Json;
use emcc_bench::{ExhaustedRun, ExpParams, FailedRun, Harness, TruncatedRun};

fn main() {
    let mut smoke = false;
    let mut trace: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut figs: Vec<String> = Vec::new();
    let mut argv =
        Argv::from_env("usage: run_all [--smoke] [--trace FILE] [--fig ID]... [--csv DIR]");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--trace" => trace = Some(argv.path(&flag)),
            "--fig" => figs.push(argv.value(&flag)),
            "--csv" => csv = Some(argv.path(&flag)),
            _ => argv.unknown(&flag),
        }
    }
    if let Some(bad) = figs.iter().find(|f| REGISTRY.iter().all(|e| e.id != *f)) {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        argv.fail(&format!(
            "unknown figure `{bad}`; valid ids: {}",
            ids.join(" ")
        ));
    }
    let entries: Vec<&Entry> = if figs.is_empty() {
        experiments::default_pass().collect()
    } else {
        REGISTRY
            .iter()
            .filter(|e| figs.iter().any(|f| f == e.id))
            .collect()
    };
    if let Some(dir) = &csv {
        if let Err(e) = std::fs::create_dir_all(dir) {
            exit_error(&format!("cannot create {}: {e}", dir.display()));
        }
    }
    if let Some(path) = &trace {
        export_trace(path);
        eprintln!("wrote critical-path trace to {}", path.display());
    }
    let h = if smoke {
        Harness::new(ExpParams::for_scale(WorkloadScale::Test))
    } else {
        Harness::from_env()
    };
    let scale = h.params().scale;
    let t0 = Instant::now();
    println!(
        "EMCC reproduction: regenerating all figures at {scale:?} scale \
         ({} warmup + {} measured mem-ops/core)\n",
        h.params().warmup_ops,
        h.params().measure_ops
    );
    eprintln!(
        "[{:>7.1}s] scheduling {} figure(s) on {} worker(s)...",
        t0.elapsed().as_secs_f64(),
        entries.len(),
        h.jobs()
    );

    // Plan and simulate. The default pass's batch also backs
    // `perf_gate`, so the sims/sec recorded below is directly comparable
    // to the gated baseline.
    let requests = experiments::plan(*h.params(), entries.iter().copied());
    let requested = requests.len();
    h.execute(&requests);
    let (sched_hits, sched_misses) = h.cache_stats();
    let sim_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "[{sim_secs:>7.1}s] simulated {sched_misses} unique runs \
         ({requested} requested, {sched_hits} shared)"
    );

    // Crash isolation: a panicking simulation was contained by the pool
    // and recorded as telemetry. Rendering would read poisoned holes out
    // of the cache, so write the telemetry trail and bail nonzero.
    let failures = h.failures();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!(
                "[{:>7.1}s] FAILED run: {} / {}: {}",
                t0.elapsed().as_secs_f64(),
                f.bench,
                f.scheme,
                f.error
            );
        }
        let total_secs = t0.elapsed().as_secs_f64();
        let json = bench_json(
            scale,
            h.jobs(),
            requested,
            sim_secs,
            total_secs,
            sched_hits,
            sched_misses,
            &[],
            &failures,
            &h.recovery_exhausted(),
            &h.truncated(),
            &h.dispatches(),
        );
        write_telemetry("BENCH_run_all.json", &json, total_secs);
        eprintln!(
            "[{total_secs:>7.1}s] aborting render: {} of {requested} runs failed",
            failures.len()
        );
        std::process::exit(1);
    }

    // Render serially in registry order, a blank line between entries;
    // every run() below is a cache hit.
    let mut timings: Vec<(&str, f64)> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        eprintln!(
            "[{:>7.1}s] rendering {}...",
            t0.elapsed().as_secs_f64(),
            entry.id
        );
        let start = Instant::now();
        let out = (entry.render)(&h);
        if i > 0 {
            println!();
        }
        print!("{}", out.text);
        if let Some(dir) = &csv {
            for (k, table) in out.tables.iter().enumerate() {
                let name = match out.tables.len() {
                    1 => format!("{}.csv", entry.id),
                    _ => format!("{}-{}.csv", entry.id, k + 1),
                };
                write_or_exit(&dir.join(name), table.to_csv());
            }
        }
        if let Some((path, json)) = &out.telemetry {
            write_telemetry(path, json, t0.elapsed().as_secs_f64());
        }
        timings.push((entry.id, start.elapsed().as_secs_f64()));
    }

    let total_secs = t0.elapsed().as_secs_f64();
    let (hits, misses) = h.cache_stats();
    let exhausted = h.recovery_exhausted();
    for e in &exhausted {
        // A run that completed but poisoned deliveries is worth a warning
        // even though the figures still render — the counter below keeps
        // it visible in the telemetry file.
        eprintln!(
            "[{total_secs:>7.1}s] WARNING: {} / {} exhausted its integrity-retry \
             budget ({} unrecovered deliveries)",
            e.bench, e.scheme, e.unrecovered
        );
    }
    let truncated = h.truncated();
    for t in &truncated {
        eprintln!(
            "[{total_secs:>7.1}s] WARNING: {} / {} stopped at the simulated-time \
             limit after {} measured memory operations",
            t.bench, t.scheme, t.mem_ops
        );
    }
    let json = bench_json(
        scale,
        h.jobs(),
        requested,
        sim_secs,
        total_secs,
        hits,
        misses,
        &timings,
        &[],
        &exhausted,
        &truncated,
        &h.dispatches(),
    );
    write_telemetry("BENCH_run_all.json", &json, total_secs);
    eprintln!("[{total_secs:>7.1}s] done ({misses} simulations, {hits} cache hits)");
}

/// Writes a Chrome-trace JSON (`chrome://tracing` / Perfetto) of one
/// representative EMCC run: canneal at Test scale on the Table I
/// configuration. The traced run executes inline — never on the worker
/// pool — so the file is byte-identical for any `EMCC_JOBS`.
fn export_trace(path: &Path) {
    use emcc::prelude::*;
    let cfg = SystemConfig::table_i(SecurityScheme::Emcc);
    let sources = Benchmark::Canneal.build_scaled(7, cfg.cores, WorkloadScale::Test);
    let (_, rec) = SecureSystem::new(cfg).run_traced(sources, 0, 2_000, 8_192);
    write_or_exit(path, rec.chrome_json());
}

/// Best-effort telemetry drop: a failed write is reported, never fatal.
fn write_telemetry(path: &str, json: &Json, secs: f64) {
    match std::fs::write(path, json.render()) {
        Ok(()) => eprintln!("[{secs:>7.1}s] wrote {path}"),
        Err(e) => eprintln!("[{secs:>7.1}s] {path}: {e}"),
    }
}

/// Timing + cache telemetry + the host work of the unique runs (event
/// dispatches per kind, which depend on nothing but the runs) + the
/// failed-run trail (empty on a clean pass) + runs that completed with
/// an exhausted integrity-retry budget (kept distinct from
/// `failed_runs`: their reports are valid and rendered) + runs cut off
/// at the simulated-time limit.
#[allow(clippy::too_many_arguments)]
fn bench_json(
    scale: WorkloadScale,
    jobs: usize,
    requested: usize,
    sim_secs: f64,
    total_secs: f64,
    hits: u64,
    misses: u64,
    timings: &[(&str, f64)],
    failures: &[FailedRun],
    exhausted: &[ExhaustedRun],
    truncated: &[TruncatedRun],
    dispatches: &DispatchLedger,
) -> Json {
    // The perf trajectory: unique simulations per second of simulate
    // phase — the number `perf_gate` compares against its committed
    // baseline. Phase durations repeat in integer nanoseconds so
    // trajectory tooling never reparses rounded seconds.
    let sims_per_sec = if sim_secs > 0.0 {
        misses as f64 / sim_secs
    } else {
        0.0
    };
    let ns = |secs: f64| Json::num((secs * 1e9) as u64);
    let run = |b: &str, s: &str, last| {
        Json::obj([("bench", Json::str(b)), ("scheme", Json::str(s)), last])
    };
    let failed = failures
        .iter()
        .map(|f| run(&f.bench, &f.scheme, ("error", Json::str(&f.error))));
    let unrecovered = |e: &ExhaustedRun| ("unrecovered", Json::num(e.unrecovered));
    let exhausted_runs = exhausted
        .iter()
        .map(|e| run(&e.bench, &e.scheme, unrecovered(e)));
    let truncated_runs = truncated
        .iter()
        .map(|t| run(&t.bench, &t.scheme, ("mem_ops", Json::num(t.mem_ops))));
    let sections = timings
        .iter()
        .map(|&(name, secs)| (name, Json::fixed(secs, 3)));
    let counts = std::iter::once(("total", dispatches.total()))
        .chain(dispatches.entries())
        .map(|(kind, n)| (kind, Json::num(n)));
    Json::obj([
        ("scale", Json::str(format!("{scale:?}"))),
        ("jobs", Json::num(jobs)),
        ("requested_runs", Json::num(requested)),
        ("unique_runs", Json::num(misses)),
        ("cache_hits", Json::num(hits)),
        ("cache_misses", Json::num(misses)),
        ("simulate_seconds", Json::fixed(sim_secs, 3)),
        ("total_seconds", Json::fixed(total_secs, 3)),
        ("sims_per_sec", Json::fixed(sims_per_sec, 3)),
        ("simulate_ns", ns(sim_secs)),
        ("render_ns", ns((total_secs - sim_secs).max(0.0))),
        ("total_ns", ns(total_secs)),
        ("dispatches", Json::obj(counts)),
        ("failed_runs", Json::Arr(failed.collect())),
        ("recovery_exhausted_count", Json::num(exhausted.len())),
        (
            "recovery_exhausted_runs",
            Json::Arr(exhausted_runs.collect()),
        ),
        ("truncated_runs", Json::Arr(truncated_runs.collect())),
        ("render_seconds", Json::obj(sections)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_text_is_pinned() {
        // A failed run and a recovery-exhausted run: the crash-isolation
        // trail, whose layout trajectory tooling and CI greps rely on.
        let failures = [FailedRun {
            bench: "canneal".into(),
            scheme: "EMCC".into(),
            error: "EMCC_FORCE_PANIC: simulated \"crash\"\nline2".into(),
        }];
        let exhausted = [ExhaustedRun {
            bench: "mcf".into(),
            scheme: "CtrInLlc".into(),
            unrecovered: 3,
        }];
        let truncated = [TruncatedRun {
            bench: "DFS".into(),
            scheme: "EMCC".into(),
            mem_ops: 1234,
        }];
        let mut dispatches = DispatchLedger::default();
        dispatches.by_kind[0] = 7;
        dispatches.by_kind[16] = 3;
        dispatches.idle_core_advances = 5;
        dispatches.idle_dram_pumps = 2;
        let json = bench_json(
            WorkloadScale::Test,
            2,
            480,
            1.2345,
            2.5,
            203,
            277,
            &[],
            &failures,
            &exhausted,
            &truncated,
            &dispatches,
        );
        assert_eq!(
            json.render(),
            r#"{
  "scale": "Test",
  "jobs": 2,
  "requested_runs": 480,
  "unique_runs": 277,
  "cache_hits": 203,
  "cache_misses": 277,
  "simulate_seconds": 1.234,
  "total_seconds": 2.500,
  "sims_per_sec": 224.382,
  "simulate_ns": 1234500000,
  "render_ns": 1265500000,
  "total_ns": 2500000000,
  "dispatches": {
    "total": 10,
    "CoreAdvance": 7,
    "LoadComplete": 0,
    "L2Access": 0,
    "L2CtrLookup": 0,
    "SliceDataReq": 0,
    "SliceVictim": 0,
    "SliceCtrReq": 0,
    "McDataReq": 0,
    "McCtrReq": 0,
    "McWriteback": 0,
    "McWriteIssue": 0,
    "McCtrReady": 0,
    "L2Fill": 0,
    "L2CtrFill": 0,
    "L2AesStart": 0,
    "L2TxnFinish": 0,
    "DramPump": 3,
    "DramDone": 0,
    "DataRefetch": 0,
    "CtrRefetch": 0,
    "idle_core_advances": 5,
    "idle_dram_pumps": 2
  },
  "failed_runs": [
    {"bench": "canneal", "scheme": "EMCC", "error": "EMCC_FORCE_PANIC: simulated \"crash\"\nline2"}
  ],
  "recovery_exhausted_count": 1,
  "recovery_exhausted_runs": [
    {"bench": "mcf", "scheme": "CtrInLlc", "unrecovered": 3}
  ],
  "truncated_runs": [
    {"bench": "DFS", "scheme": "EMCC", "mem_ops": 1234}
  ],
  "render_seconds": {
  }
}
"#
        );
        let clean = bench_json(
            WorkloadScale::Test,
            1,
            480,
            8.0,
            9.75,
            203,
            277,
            &[("Fig 3", 0.0125), ("ablations", 1.5)],
            &[],
            &[],
            &[],
            &DispatchLedger::default(),
        );
        let text = clean.render();
        assert!(text.contains(
            "  \"failed_runs\": [],\n  \"recovery_exhausted_count\": 0,\n  \
             \"recovery_exhausted_runs\": [],\n  \"truncated_runs\": [],\n  \
             \"render_seconds\": {\n    \
             \"Fig 3\": 0.013,\n    \"ablations\": 1.500\n  }\n}\n"
        ));
    }
}
