//! Multi-threaded throughput benchmark for the secure-memory service.
//!
//! ```text
//! service_bench [--smoke] [--threads LIST] [--ops N] [--out FILE]
//! ```
//!
//! Each configured thread count runs a fresh [`SecureMemoryService`] over
//! an [`InMemoryBackend`], with every line written once in 64-line batches
//! before the clock starts, so every read verifies a stored line. Then
//! every thread replays a deterministic script of batched writes, guarded
//! writes and batched reads against its own stripe of the line space
//! (`line % threads == t`), so adjacent lines — and therefore shared
//! counter blocks — are contended across threads while per-line values
//! stay trivially checkable. Per thread count, `BENCH_service.json`
//! (`--out` overrides) gets wall-clock ops/sec, the p50 and p99 of
//! per-operation latency as a client sees it (backpressure retries
//! included, binned in an `emcc_sim::Histogram`), overall and for each
//! operation kind under `by_kind`, and the journal bytes the script
//! appended per acknowledged write.
//!
//! `--smoke` shrinks the op count and thread list for CI. Exit 2 is
//! reserved for usage errors and an unwritable `--out`; a read-back
//! mismatch panics (exit 101).

use std::path::PathBuf;
use std::time::Instant;

use emcc::counters::CounterDesign;
use emcc::crypto::DataBlock;
use emcc::secmem::service::InMemoryBackend;
use emcc::secmem::{MemoryAdt, SecureMemoryService, SecurityScheme, ServiceConfig, ServiceError};
use emcc::sim::rng::{mix64, GAMMA};
use emcc::sim::{Histogram, LineAddr};
use emcc_bench::cli::{write_or_exit, Argv};
use emcc_bench::json::Json;

/// Benchmark seed: scripts are reproducible bit-for-bit.
const SEED: u64 = 0x5E4B;

/// Line space per service instance.
const LINES: u64 = 1 << 14;

/// Lines per write batch while filling the space before the clock starts.
const FILL_BATCH: u64 = 64;

struct Args {
    threads: Vec<usize>,
    ops: u64,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: vec![1, 2, 4, 8],
        ops: 20_000,
        out: PathBuf::from("BENCH_service.json"),
    };
    let mut argv =
        Argv::from_env("usage: service_bench [--smoke] [--threads LIST] [--ops N] [--out FILE]");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--smoke" => {
                args.threads = vec![1, 4];
                args.ops = 2_000;
            }
            "--threads" => {
                let list = argv.value(&flag);
                args.threads = list
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or(0))
                    .collect();
                if args.threads.contains(&0) {
                    argv.fail(&format!("--threads needs positive counts, got `{list}`"));
                }
            }
            "--ops" => args.ops = argv.count(&flag),
            "--out" => args.out = argv.path(&flag),
            _ => argv.unknown(&flag),
        }
    }
    args
}

fn block(v: u64) -> DataBlock {
    DataBlock::from_words([v; 8])
}

/// The value every line holds before the script starts.
fn fill_value(line: LineAddr) -> DataBlock {
    block(mix64(SEED ^ line.get()))
}

/// Thread `t` of `n` owns the interleaved stripe `{ l | l % n == t }`, so
/// counter blocks are shared across threads while ownership stays
/// disjoint (guards are authoritative without cross-thread coordination).
fn owned_line(thread: u64, n: u64, r: u64) -> LineAddr {
    LineAddr::new((r % (LINES / n)) * n + thread)
}

/// Retries `f` past backpressure; returns the result plus how many
/// `Overloaded` rejections were absorbed.
fn with_retry<T>(mut f: impl FnMut() -> Result<T, ServiceError>) -> (T, u64) {
    let mut rejected = 0;
    loop {
        match f() {
            Ok(v) => return (v, rejected),
            Err(ServiceError::Overloaded { .. }) => {
                rejected += 1;
                std::thread::yield_now();
            }
            Err(e) => panic!("service error: {e}"),
        }
    }
}

/// The script's operation kinds, as `BENCH_service.json` names them.
const KINDS: [&str; 3] = ["write", "guarded_write", "batch_read"];

/// The p50 and p99 of a set of latencies, in µs.
struct Percentiles {
    p50_us: Option<f64>,
    p99_us: Option<f64>,
}

impl Percentiles {
    fn of<'a>(latencies_us: impl Iterator<Item = &'a f64>) -> Self {
        // 0.1 µs bins up to 1 ms; a percentile past that reads as null.
        let mut latency = Histogram::new(0.0, 0.1, 10_000);
        for &us in latencies_us {
            latency.add(us);
        }
        Percentiles {
            p50_us: latency.percentile(50.0),
            p99_us: latency.percentile(99.0),
        }
    }

    fn json(&self) -> [(&'static str, Json); 2] {
        let us = |p: Option<f64>| p.map_or(Json::num("null"), |v| Json::fixed(v, 2));
        [("p50_us", us(self.p50_us)), ("p99_us", us(self.p99_us))]
    }
}

/// One measured cell: `threads` workers, `ops` operations each.
struct Cell {
    threads: usize,
    total_ops: u64,
    seconds: f64,
    ops_per_sec: f64,
    latency: Percentiles,
    /// Latency of each of [`KINDS`], in its order.
    by_kind: [Percentiles; 3],
    journal_bytes_per_write: f64,
    overloaded_absorbed: u64,
    service_retries: u64,
}

/// One thread's tally: `Overloaded` rejections absorbed and each
/// operation's latency in µs, by kind (in [`KINDS`] order).
struct ThreadRun {
    absorbed: u64,
    latencies_us: [Vec<f64>; 3],
}

/// Runs one thread's deterministic script: 60% single-line batch writes,
/// 20% guarded writes (guard = the thread's own last value), 20% batched
/// reads checked against the thread's model, which starts from its
/// stripe's fill values.
fn run_thread(
    svc: &SecureMemoryService<InMemoryBackend>,
    thread: u64,
    n: u64,
    ops: u64,
) -> ThreadRun {
    let mut last: std::collections::HashMap<LineAddr, DataBlock> = (0..LINES / n)
        .map(|k| owned_line(thread, n, k))
        .map(|l| (l, fill_value(l)))
        .collect();
    let mut absorbed = 0;
    let mut latencies_us: [Vec<f64>; 3] = Default::default();
    for i in 0..ops {
        let r = mix64((SEED ^ thread.wrapping_mul(0x9049).wrapping_add(i)).wrapping_add(GAMMA));
        let line = owned_line(thread, n, r >> 16);
        let val = block(r);
        let kind = match r % 10 {
            0..=5 => 0,
            6 | 7 => 1,
            _ => 2,
        };
        let start = Instant::now();
        match kind {
            0 => {
                let (_, rej) = with_retry(|| svc.batch_write(&[(line, val)]));
                absorbed += rej;
                last.insert(line, val);
            }
            1 => {
                let guard = last.get(&line).copied();
                let (seen, rej) = with_retry(|| svc.guarded_write((line, guard), &[(line, val)]));
                absorbed += rej;
                assert_eq!(seen, guard, "line {line:?}: foreign write on owned stripe");
                last.insert(line, val);
            }
            _ => {
                let addrs: Vec<LineAddr> = (0..4)
                    .map(|k| owned_line(thread, n, (r >> 16) + k))
                    .collect();
                let (got, rej) = with_retry(|| svc.batch_read(&addrs));
                absorbed += rej;
                for (addr, g) in addrs.iter().zip(&got) {
                    assert_eq!(
                        g.as_ref(),
                        last.get(addr),
                        "line {addr:?}: read-back mismatch"
                    );
                }
            }
        }
        latencies_us[kind].push(start.elapsed().as_secs_f64() * 1e6);
    }
    ThreadRun {
        absorbed,
        latencies_us,
    }
}

fn run_cell(threads: usize, ops: u64) -> Cell {
    let cfg = ServiceConfig {
        max_in_flight: threads * 2,
        ..ServiceConfig::default()
    };
    let svc = SecureMemoryService::with_design(
        InMemoryBackend::new(),
        SEED,
        LINES,
        CounterDesign::Morphable,
        cfg,
    );
    for start in (0..LINES).step_by(FILL_BATCH as usize) {
        let batch: Vec<(LineAddr, DataBlock)> = (start..start + FILL_BATCH)
            .map(LineAddr::new)
            .map(|l| (l, fill_value(l)))
            .collect();
        svc.batch_write(&batch).expect("fill the line space");
    }
    let filled = svc.stats();
    let t0 = Instant::now();
    let runs: Vec<ThreadRun> = std::thread::scope(|s| {
        let svc = &svc;
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || run_thread(svc, t as u64, threads as u64, ops)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let seconds = t0.elapsed().as_secs_f64();
    let of_kind = |k: usize| runs.iter().flat_map(move |r| &r.latencies_us[k]);
    let total_ops = ops * threads as u64;
    let stats = svc.stats();
    Cell {
        threads,
        total_ops,
        seconds,
        ops_per_sec: total_ops as f64 / seconds.max(1e-9),
        latency: Percentiles::of((0..KINDS.len()).flat_map(of_kind)),
        by_kind: std::array::from_fn(|k| Percentiles::of(of_kind(k))),
        journal_bytes_per_write: (stats.journal_bytes - filled.journal_bytes) as f64
            / (stats.writes - filled.writes).max(1) as f64,
        overloaded_absorbed: runs.iter().map(|r| r.absorbed).sum(),
        service_retries: stats.retries,
    }
}

fn bench_json(ops: u64, cells: &[Cell]) -> Json {
    let results = cells.iter().map(|c| {
        let by_kind = KINDS
            .iter()
            .zip(&c.by_kind)
            .map(|(k, p)| (*k, Json::obj(p.json())));
        let [p50, p99] = c.latency.json();
        Json::obj([
            ("threads", Json::num(c.threads)),
            ("total_ops", Json::num(c.total_ops)),
            ("seconds", Json::fixed(c.seconds, 3)),
            ("ops_per_sec", Json::fixed(c.ops_per_sec, 0)),
            p50,
            p99,
            ("by_kind", Json::obj(by_kind)),
            (
                "journal_bytes_per_write",
                Json::fixed(c.journal_bytes_per_write, 1),
            ),
            ("overloaded_absorbed", Json::num(c.overloaded_absorbed)),
            ("service_retries", Json::num(c.service_retries)),
        ])
    });
    Json::obj([
        ("backend", Json::str("in-memory")),
        ("scheme", Json::str(SecurityScheme::Emcc.to_string())),
        ("data_lines", Json::num(LINES)),
        ("ops_per_thread", Json::num(ops)),
        ("results", Json::Arr(results.collect())),
    ])
}

fn main() {
    let args = parse_args();
    let mut cells = Vec::new();
    for &threads in &args.threads {
        let cell = run_cell(threads, args.ops);
        let us = |p: Option<f64>| p.map_or("-".to_string(), |v| format!("{v:.2}"));
        println!(
            "{:>2} thread(s): {:>10.0} ops/s, p50 {} µs, p99 {} µs, {:.1} journal B/write \
             ({} ops in {:.3}s, {} rejections absorbed)",
            cell.threads,
            cell.ops_per_sec,
            us(cell.latency.p50_us),
            us(cell.latency.p99_us),
            cell.journal_bytes_per_write,
            cell.total_ops,
            cell.seconds,
            cell.overloaded_absorbed
        );
        let kinds: Vec<String> = KINDS
            .iter()
            .zip(&cell.by_kind)
            .map(|(k, p)| format!("{k} {}/{}", us(p.p50_us), us(p.p99_us)))
            .collect();
        println!("    p50/p99 µs by kind: {}", kinds.join(", "));
        cells.push(cell);
    }
    write_or_exit(&args.out, bench_json(args.ops, &cells).render());
    println!("wrote {}", args.out.display());
}
