//! Multi-threaded throughput benchmark for the secure-memory service.
//!
//! ```text
//! service_bench [--smoke] [--threads LIST] [--ops N] [--out FILE]
//! ```
//!
//! Each configured thread count runs a fresh [`SecureMemoryService`] over
//! an [`InMemoryBackend`]: every thread replays a deterministic script of
//! batched writes, guarded writes and batched reads against its own
//! stripe of the line space (`line % threads == t`), so adjacent lines —
//! and therefore shared counter blocks — are contended across threads
//! while per-line values stay trivially checkable. Wall-clock ops/sec
//! per thread count lands in `BENCH_service.json` (`--out` overrides).
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
use emcc::sim::LineAddr;
use emcc_bench::cli::{write_or_exit, Argv};
use emcc_bench::json::Json;

/// Benchmark seed: scripts are reproducible bit-for-bit.
const SEED: u64 = 0x5E4B;

/// Line space per service instance.
const LINES: u64 = 1 << 14;

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

/// One measured cell: `threads` workers, `ops` operations each.
struct Cell {
    threads: usize,
    total_ops: u64,
    seconds: f64,
    ops_per_sec: f64,
    overloaded_absorbed: u64,
    service_retries: u64,
}

/// Runs one thread's deterministic script: 60% single-line batch writes,
/// 20% guarded writes (guard = the thread's own last value), 20% batched
/// reads checked against the thread's model.
fn run_thread(svc: &SecureMemoryService<InMemoryBackend>, thread: u64, n: u64, ops: u64) -> u64 {
    let mut last: std::collections::HashMap<LineAddr, DataBlock> = Default::default();
    let mut absorbed = 0;
    for i in 0..ops {
        let r = mix64((SEED ^ thread.wrapping_mul(0x9049).wrapping_add(i)).wrapping_add(GAMMA));
        let line = owned_line(thread, n, r >> 16);
        let val = block(r);
        match r % 10 {
            0..=5 => {
                let (_, rej) = with_retry(|| svc.batch_write(&[(line, val)]));
                absorbed += rej;
                last.insert(line, val);
            }
            6 | 7 => {
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
    }
    absorbed
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
    let t0 = Instant::now();
    let absorbed: u64 = std::thread::scope(|s| {
        let svc = &svc;
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || run_thread(svc, t as u64, threads as u64, ops)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    let seconds = t0.elapsed().as_secs_f64();
    let total_ops = ops * threads as u64;
    let stats = svc.stats();
    Cell {
        threads,
        total_ops,
        seconds,
        ops_per_sec: total_ops as f64 / seconds.max(1e-9),
        overloaded_absorbed: absorbed,
        service_retries: stats.retries,
    }
}

fn bench_json(ops: u64, cells: &[Cell]) -> Json {
    let results = cells.iter().map(|c| {
        Json::obj([
            ("threads", Json::num(c.threads)),
            ("total_ops", Json::num(c.total_ops)),
            ("seconds", Json::fixed(c.seconds, 3)),
            ("ops_per_sec", Json::fixed(c.ops_per_sec, 0)),
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
        println!(
            "{:>2} thread(s): {:>10.0} ops/s ({} ops in {:.3}s, {} rejections absorbed)",
            cell.threads, cell.ops_per_sec, cell.total_ops, cell.seconds, cell.overloaded_absorbed
        );
        cells.push(cell);
    }
    write_or_exit(&args.out, bench_json(args.ops, &cells).render());
    println!("wrote {}", args.out.display());
}
