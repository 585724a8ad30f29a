//! Regenerates every figure in one pass — the data source for
//! EXPERIMENTS.md.
//!
//! ```sh
//! EMCC_SCALE=small EMCC_JOBS=4 cargo run --release -p emcc-bench --bin run_all
//! ```
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
//! Two phases:
//!
//! 1. **Schedule** — every figure declares its run-matrix as
//!    [`RunRequest`](emcc_bench::RunRequest)s; the union is executed on
//!    the work-stealing pool (`EMCC_JOBS` workers). Requests shared
//!    between figures (the Table I schemes dominate) simulate once.
//! 2. **Render** — figures print serially in the original order from the
//!    run-cache, so stdout is byte-identical no matter the worker count.
//!
//! Wall-clock per section and the cache hit/miss counters are written to
//! `BENCH_run_all.json`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use emcc::prelude::WorkloadScale;
use emcc_bench::cli::{write_or_exit, Argv};
use emcc_bench::experiments::FigureData;
use emcc_bench::json::Json;
use emcc_bench::{experiments, ExhaustedRun, ExpParams, FailedRun, Harness};

fn main() {
    let mut smoke = false;
    let mut trace: Option<PathBuf> = None;
    let mut argv = Argv::from_env("usage: run_all [--smoke] [--trace FILE]");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--trace" => trace = Some(argv.path(&flag)),
            _ => argv.unknown(&flag),
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
        "[{:>7.1}s] scheduling all figures on {} worker(s)...",
        t0.elapsed().as_secs_f64(),
        h.jobs()
    );

    // Phase 1: collect every figure's run-matrix and execute the union.
    // The same batch backs `perf_gate`, so the sims/sec recorded below is
    // directly comparable to the gated baseline.
    let requests = experiments::all_requests();
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
        );
        write_telemetry("BENCH_run_all.json", &json, total_secs);
        eprintln!(
            "[{total_secs:>7.1}s] aborting render: {} of {requested} runs failed",
            failures.len()
        );
        std::process::exit(1);
    }

    // Phase 2: render serially in the fixed figure order; every run()
    // below is a cache hit.
    let mut timings: Vec<(&str, f64)> = Vec::new();
    let mut section_start = Instant::now();
    let mut section = |name: &'static str, timings: &mut Vec<(&str, f64)>| {
        if let Some(last) = timings.last_mut() {
            // Close the previous section (its name was pushed eagerly).
            last.1 = section_start.elapsed().as_secs_f64();
        }
        eprintln!("[{:>7.1}s] rendering {name}...", t0.elapsed().as_secs_f64());
        timings.push((name, 0.0));
        section_start = Instant::now();
    };

    section("timelines (Figs 5/8/10/13/14)", &mut timings);
    print!("{}", experiments::timelines::render_all());
    println!();

    section("Fig 3", &mut timings);
    print!("{}", experiments::fig03::run().render());
    println!();

    section("Fig 2", &mut timings);
    print!("{}", experiments::fig02::run(&h).render());
    println!();

    section("Figs 6/7", &mut timings);
    print!("{}", experiments::fig06_07::run_fig06(&h).render());
    println!();
    print!("{}", experiments::fig06_07::run_fig07(&h).render());
    println!();

    section("Figs 11/12/23", &mut timings);
    let ec = experiments::emcc_ctr::run(&h);
    print!("{}", ec.fig11.render());
    println!();
    print!("{}", ec.fig12.render());
    println!();
    print!("{}", ec.fig23.render());
    println!();

    section("Fig 15", &mut timings);
    print!("{}", experiments::fig15::run(&h).render());
    println!();

    section("Figs 16/17", &mut timings);
    let rows = experiments::perf::run_suite(&h);
    print!("{}", experiments::perf::fig16(&rows).render());
    println!(
        "headline: EMCC speeds up Morphable by {:.1}% on average (paper: 7%)\n",
        experiments::perf::mean_emcc_speedup(&rows) * 100.0
    );
    print!("{}", experiments::perf::fig17(&rows).render());
    println!();

    section("Fig 18", &mut timings);
    print!("{}", experiments::fig18::run(&h).render());
    println!();

    section("Fig 19", &mut timings);
    print!("{}", experiments::fig19::run(&h).render());
    println!();

    section("Fig 20", &mut timings);
    print!("{}", experiments::fig20::run(&h).render());
    println!();

    section("Figs 21/22", &mut timings);
    let ch = experiments::fig21_22::run(&h);
    print!("{}", ch.fig21.render());
    println!();
    print!("{}", ch.fig22.render());
    println!();

    section("Fig 24", &mut timings);
    print!("{}", experiments::fig24::run(&h).render());
    println!();

    section("ablations", &mut timings);
    print!("{}", experiments::ablations::l2_budget(&h).render());
    println!();
    print!("{}", experiments::ablations::aes_wait(&h).render());
    println!();
    print!("{}", experiments::ablations::xpt(&h).render());
    println!();

    section("placement race", &mut timings);
    let race = experiments::race::figure(&h);
    print!("{}", race.render());
    let race_secs = t0.elapsed().as_secs_f64();
    write_telemetry("BENCH_race.json", &race_json(&race), race_secs);

    if let Some(last) = timings.last_mut() {
        last.1 = section_start.elapsed().as_secs_f64();
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

/// Timing + cache telemetry + the failed-run trail (empty on a clean
/// pass) + runs that completed with an exhausted integrity-retry budget
/// (kept distinct from `failed_runs`: their reports are valid and
/// rendered).
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
    let sections = timings
        .iter()
        .map(|&(name, secs)| (name, Json::fixed(secs, 3)));
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
        ("failed_runs", Json::Arr(failed.collect())),
        ("recovery_exhausted_count", Json::num(exhausted.len())),
        (
            "recovery_exhausted_runs",
            Json::Arr(exhausted_runs.collect()),
        ),
        ("render_seconds", Json::obj(sections)),
    ])
}

/// The race figure as machine-readable telemetry (`BENCH_race.json`):
/// one row per benchmark (plus the mean), one normalized value per
/// scheme, in `all()` order. CI uploads this as an artifact so the
/// placement race is plottable without reparsing stdout.
fn race_json(fig: &FigureData) -> Json {
    let row = |(name, values): (&String, &Vec<f64>)| {
        let normalized = values.iter().map(|&v| Json::fixed(v, 6)).collect();
        Json::obj([
            ("benchmark", Json::str(name)),
            ("normalized", Json::Arr(normalized)),
        ])
    };
    let schemes = fig.cols.iter().map(Json::str).collect();
    let rows = fig.rows.iter().zip(&fig.values).map(row).collect();
    Json::obj([
        ("title", Json::str(&fig.title)),
        ("schemes", Json::Arr(schemes)),
        ("rows", Json::Arr(rows)),
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
  "failed_runs": [
    {"bench": "canneal", "scheme": "EMCC", "error": "EMCC_FORCE_PANIC: simulated \"crash\"\nline2"}
  ],
  "recovery_exhausted_count": 1,
  "recovery_exhausted_runs": [
    {"bench": "mcf", "scheme": "CtrInLlc", "unrecovered": 3}
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
        );
        let text = clean.render();
        assert!(text.contains(
            "  \"failed_runs\": [],\n  \"recovery_exhausted_count\": 0,\n  \
             \"recovery_exhausted_runs\": [],\n  \"render_seconds\": {\n    \
             \"Fig 3\": 0.013,\n    \"ablations\": 1.500\n  }\n}\n"
        ));
    }

    #[test]
    fn race_json_text_is_pinned() {
        let fig = FigureData {
            title: "Placement race".into(),
            cols: vec!["NonSecure".into(), "EMCC".into()],
            rows: vec!["canneal".into(), "mean".into()],
            values: vec![vec![1.0, 1.25], vec![1.0, 1.0 / 3.0]],
            percent: false,
            note: String::new(),
        };
        assert_eq!(
            race_json(&fig).render(),
            r#"{
  "title": "Placement race",
  "schemes": ["NonSecure", "EMCC"],
  "rows": [
    {"benchmark": "canneal", "normalized": [1.000000, 1.250000]},
    {"benchmark": "mean", "normalized": [1.000000, 0.333333]}
  ]
}
"#
        );
    }
}
