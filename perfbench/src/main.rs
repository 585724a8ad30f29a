//! Seeded benchmark of the EMCC reproduction, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! A workload builds its inputs from `--seed` and the program state they
//! need (set-up, repeated [`SETUP_REPEATS`] times and reported as the
//! median), runs one untimed round of units of work, then runs rounds —
//! a closed loop with one client — until `--seconds` of host time have
//! passed. A round runs the same units in the same order every time.
//! Every unit's output is checked; a unit whose output is wrong counts as
//! failed.
//!
//! Host speed on a shared machine drifts by tens of percent, for seconds
//! to minutes at a time, and contention only ever adds time. So a unit's
//! latency is the fastest of its repetitions, and the end-to-end metrics
//! summarise those per-unit bests over one round: `latency_ms` and
//! `p90_ms` are their median and 90th percentile, `throughput` is units
//! per second of their sum. They estimate the program's uncontended cost:
//! a change that slows every repetition of a unit shows in them, jitter
//! does not. A slow phase that lasts a whole run still shows.
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `sim_emcc` — one unit is one Test-scale EMCC simulation of a
//!   benchmark of the paper's irregular suite ([`sim`]);
//! * `fuzz` — one unit is one fuzz case through the oracle battery
//!   ([`fuzz`]);
//! * `service` — one unit is one secure-memory service operation
//!   ([`service`]).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones above and `setup_s`. With
//! `--trace 1` the benchmark records a host-time span around every call it
//! makes into a layer of the program, plus the exact work counters the
//! program reports, and prints the per-layer metrics of [`per_layer`];
//! layers a workload does not call read 0. Exit 2 is a usage error, exit 1
//! a set-up failure.

mod fuzz;
mod service;
mod sim;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; the median is reported, so one slow set-up (a cold
/// allocator, a noisy neighbour) does not move `setup_s`.
const SETUP_REPEATS: usize = 9;

/// Failure messages echoed to standard error before the rest are only
/// counted.
const MAX_ECHOED_FAILURES: u64 = 5;

/// Host-time spans and exact counts recorded around calls into each layer
/// of the program. Disabled, it records nothing and costs one branch.
#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    spans: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
}

impl Layers {
    fn new(on: bool) -> Self {
        Layers {
            on,
            ..Layers::default()
        }
    }

    /// Whether spans and counts are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording its host time under `layer` when tracing.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        self.spans.entry(layer).or_default().push(secs);
        r
    }

    /// Adds `n` to the counter `what` when tracing.
    pub fn count(&mut self, what: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(what).or_default() += n;
        }
    }

    fn median(&self, layer: &str) -> f64 {
        self.spans.get(layer).map_or(0.0, |v| quantile(v, 0.5))
    }

    fn total(&self, layer: &str) -> f64 {
        self.spans.get(layer).map_or(0.0, |v| v.iter().sum())
    }

    fn counted(&self, what: &str) -> u64 {
        self.counts.get(what).copied().unwrap_or(0)
    }

    /// `num / den`, or 0 when nothing was counted under `den`.
    fn per(num: f64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num / den as f64
        }
    }
}

/// One workload: inputs built from a seed, then checked units of work.
pub trait Workload: Sized {
    /// Builds the inputs from `seed` and the program state that persists
    /// across units.
    ///
    /// # Errors
    ///
    /// Describes why the inputs could not be built.
    fn setup(seed: u64, layers: &mut Layers) -> Result<Self, String>;

    /// Units in one round. One untimed round warms the program's caches
    /// before measuring, and measuring stops only at the end of a round,
    /// so each run weighs the inputs of a round alike.
    fn round_len(&self) -> usize;

    /// Runs one unit of work and checks its output.
    ///
    /// # Errors
    ///
    /// Describes the wrong output.
    fn unit(&mut self, layers: &mut Layers) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(why: &str) -> ExitCode {
    eprintln!("error: {why}");
    eprintln!(
        "usage: emcc-perfbench --workload sim_emcc|fuzz|service \
         --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value:?} is invalid");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured.
struct Outcome {
    setup_secs: Vec<f64>,
    /// Per position in a round, the fastest host latency of that unit
    /// over the measured rounds.
    best: Vec<f64>,
    attempted: u64,
    failed: u64,
    layers: Layers,
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let mut layers = Layers::new(args.trace);
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let t0 = Instant::now();
        let w = W::setup(args.seed, &mut layers)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("SETUP_REPEATS is positive");

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut step = |w: &mut W, layers: &mut Layers| {
        attempted += 1;
        if let Err(e) = w.unit(layers) {
            failed += 1;
            if failed <= MAX_ECHOED_FAILURES {
                eprintln!("unit {attempted} failed: {e}");
            }
        }
    };

    let round = w.round_len().max(1);
    for _ in 0..round {
        step(&mut w, &mut layers);
    }
    let mut best = vec![f64::INFINITY; round];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        for b in &mut best {
            let t0 = Instant::now();
            step(&mut w, &mut layers);
            *b = b.min(t0.elapsed().as_secs_f64());
        }
    }
    Ok(Outcome {
        setup_secs,
        best,
        attempted,
        failed,
        layers,
    })
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for no values.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    vec![
        ("latency_ms", quantile(&o.best, 0.5) * 1e3, "ms"),
        ("p90_ms", quantile(&o.best, 0.9) * 1e3, "ms"),
        (
            "throughput",
            o.best.len() as f64 / o.best.iter().sum::<f64>(),
            "1/s",
        ),
        ("setup_s", quantile(&o.setup_secs, 0.5), "s"),
    ]
}

/// Every per-layer metric, whichever workload ran. Host times are medians
/// of the spans the benchmark recorded around one call into the layer;
/// counts are per simulation or per fuzz case, except
/// `fuzz_ordering_misses`, which counts the run's distinct cases.
fn per_layer(l: &Layers) -> Vec<Metric> {
    let ms = |layer| l.median(layer) * 1e3;
    let us = |layer| l.median(layer) * 1e6;
    let sims = l.counted("sims");
    let per_sim = |what| Layers::per(l.counted(what) as f64, sims);
    let cases = l.counted("fuzz_cases");
    vec![
        // Workload generation (sim set-up).
        ("sim_gen_ms", ms("sim_gen"), "ms"),
        // Timing simulator: construction, event loop, report rendering.
        ("sim_new_ms", ms("sim_new"), "ms"),
        ("sim_run_ms", ms("sim_run"), "ms"),
        ("sim_report_ms", ms("sim_report"), "ms"),
        (
            "sim_ns_per_op",
            Layers::per(l.total("sim_run") * 1e9, l.counted("sim_ops")),
            "ns",
        ),
        // Exact work counters of the modelled hierarchy, per simulation.
        ("sim_mem_ops", per_sim("sim_mem_ops"), "count"),
        ("sim_time_us", per_sim("sim_time_ps") / 1e6, "us"),
        ("l2_hits", per_sim("l2_hits"), "count"),
        ("llc_misses", per_sim("llc_misses"), "count"),
        ("dram_data_reads", per_sim("dram_data_reads"), "count"),
        ("ctr_l2_hits", per_sim("ctr_l2_hits"), "count"),
        ("ctr_dram_fetches", per_sim("ctr_dram_fetches"), "count"),
        ("decrypted_at_l2", per_sim("decrypted_at_l2"), "count"),
        // Fuzz battery: case generation and the whole battery per case.
        ("fuzz_gen_us", us("fuzz_gen"), "us"),
        ("fuzz_battery_ms", ms("fuzz_battery"), "ms"),
        (
            "fuzz_ns_per_access",
            Layers::per(l.total("fuzz_battery") * 1e9, l.counted("fuzz_accesses")),
            "ns",
        ),
        (
            "fuzz_combos",
            Layers::per(l.counted("fuzz_combos") as f64, cases),
            "count",
        ),
        (
            "fuzz_ordering_misses",
            l.counted("fuzz_ordering_misses") as f64,
            "count",
        ),
        // Secure-memory service, and the functional memory beneath it
        // (crypto + integrity tree without lock or journal).
        ("svc_write_us", us("svc_write"), "us"),
        ("svc_guarded_us", us("svc_guarded"), "us"),
        ("svc_read_us", us("svc_read"), "us"),
        ("svc_checkpoint_ms", ms("svc_checkpoint"), "ms"),
        ("mem_write_us", us("mem_write"), "us"),
        ("mem_read_us", us("mem_read"), "us"),
    ]
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that reads back as
        // the same f64: every measured digit, no padding.
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let outcome = match args.workload.as_str() {
        "sim_emcc" => run::<sim::SimEmcc>(&args),
        "fuzz" => run::<fuzz::Fuzz>(&args),
        "service" => run::<service::Service>(&args),
        other => return usage(&format!("unknown workload {other:?}")),
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    let metrics = if args.trace {
        per_layer(&o.layers)
    } else {
        end_to_end(&o)
    };
    let correct = o.failed == 0;
    println!("{}", result_json(correct, o.attempted, o.failed, &metrics));
    ExitCode::SUCCESS
}

/// splitmix64: decorrelated per-input seeds from the run seed. The
/// benchmark's own, so no change to the program's RNG changes its inputs.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
