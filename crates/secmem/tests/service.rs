//! Integration tests for [`SecureMemoryService`]: concurrent use from
//! real threads, differentially checked against a single-threaded
//! [`FunctionalSecureMemory`] oracle, plus the backpressure and
//! degraded read-only paths exercised through the public API.

use std::collections::HashMap;
use std::sync::Arc;

use emcc_counters::CounterDesign;
use emcc_crypto::DataBlock;
use emcc_secmem::service::{InMemoryBackend, ServiceError};
use emcc_secmem::{recover, FunctionalSecureMemory, MemoryAdt, SecureMemoryService, ServiceConfig};
use emcc_sim::rng::{mix64, GAMMA};
use emcc_sim::LineAddr;

const SEED: u64 = 7;
const LINES: u64 = 1 << 12;
const THREADS: u64 = 8;
const OPS_PER_THREAD: u64 = 200;

fn block(v: u64) -> DataBlock {
    DataBlock::from_words([v; 8])
}

fn mix(z: u64) -> u64 {
    mix64(z.wrapping_add(GAMMA))
}

/// One thread's scripted operation.
#[derive(Clone)]
enum Op {
    Write(Vec<(LineAddr, DataBlock)>),
    /// Guarded on the first line's current value (from the thread's own
    /// model — threads own disjoint lines, so the guard is authoritative).
    GuardedWrite(LineAddr, DataBlock),
    Read(Vec<LineAddr>),
}

/// Thread `t` owns the lines `{ l | l % THREADS == t }`: adjacent lines
/// in the same counter block belong to *different* threads, so shared
/// counter-block mutation (and split-counter rebases) is exercised under
/// contention, while per-line values stay linearizable trivially.
fn owned_line(thread: u64, r: u64) -> LineAddr {
    LineAddr::new((r % (LINES / THREADS)) * THREADS + thread)
}

/// Deterministic per-thread script; regenerated identically by the
/// oracle, so nothing is shared between threads but the service.
fn script(thread: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..OPS_PER_THREAD {
        let r = mix(thread.wrapping_mul(0x51ab).wrapping_add(i));
        match r % 3 {
            0 => {
                let n = 1 + (r >> 8) % 3;
                let writes = (0..n)
                    .map(|k| (owned_line(thread, r >> (16 + k)), block(mix(r ^ k))))
                    .collect();
                ops.push(Op::Write(writes));
            }
            1 => ops.push(Op::GuardedWrite(owned_line(thread, r >> 8), block(mix(!r)))),
            _ => {
                let n = 1 + (r >> 8) % 4;
                ops.push(Op::Read(
                    (0..n).map(|k| owned_line(thread, r >> (16 + k))).collect(),
                ));
            }
        }
    }
    ops
}

/// Retries an op through transient backpressure; any other error panics.
fn with_retry<T>(mut f: impl FnMut() -> Result<T, ServiceError>) -> T {
    loop {
        match f() {
            Ok(v) => return v,
            Err(ServiceError::Overloaded { .. }) => std::thread::yield_now(),
            Err(e) => panic!("unexpected service error: {e}"),
        }
    }
}

/// Runs one thread's script, checking reads against its private model as
/// it goes (per-line linearizability for disjoint ownership).
fn run_script(svc: &SecureMemoryService<InMemoryBackend>, thread: u64) {
    let mut model: HashMap<LineAddr, DataBlock> = HashMap::new();
    for op in script(thread) {
        match op {
            Op::Write(writes) => {
                let ack = with_retry(|| svc.batch_write(&writes));
                assert_eq!(ack.committed, writes.len());
                for (l, v) in writes {
                    model.insert(l, v);
                }
            }
            Op::GuardedWrite(line, value) => {
                let expect = model.get(&line).copied();
                let seen = with_retry(|| svc.guarded_write((line, expect), &[(line, value)]));
                assert_eq!(seen, expect, "guard on an owned line must see own value");
                model.insert(line, value);
            }
            Op::Read(lines) => {
                let got = with_retry(|| svc.batch_read(&lines));
                for (l, v) in lines.iter().zip(got) {
                    assert_eq!(v, model.get(l).copied(), "stale read of owned line {l:?}");
                }
            }
        }
    }
}

/// Replays every thread's script single-threaded into the oracle. Any
/// interleaving of disjoint-line scripts linearizes to the same per-line
/// final values, so replay order between threads does not matter.
fn oracle() -> (FunctionalSecureMemory, HashMap<LineAddr, DataBlock>) {
    let mut mem = FunctionalSecureMemory::with_design(SEED, LINES, CounterDesign::Morphable);
    let mut finals = HashMap::new();
    for t in 0..THREADS {
        for op in script(t) {
            match op {
                Op::Write(writes) => {
                    for (l, v) in writes {
                        mem.write(l, v).unwrap();
                        finals.insert(l, v);
                    }
                }
                Op::GuardedWrite(l, v) => {
                    mem.write(l, v).unwrap();
                    finals.insert(l, v);
                }
                Op::Read(_) => {}
            }
        }
    }
    (mem, finals)
}

/// The acceptance-criteria differential test: many threads against the
/// service vs a single-threaded functional oracle on the linearized log.
#[test]
fn concurrent_threads_match_single_threaded_oracle() {
    let svc = Arc::new(SecureMemoryService::new(
        InMemoryBackend::new(),
        SEED,
        LINES,
        ServiceConfig {
            max_in_flight: 4, // small window: overload path races for real
            ..ServiceConfig::default()
        },
    ));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || run_script(&svc, t))
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    let (oracle_mem, finals) = oracle();
    assert!(!finals.is_empty());

    // Every line the oracle saw written must read back identically.
    let lines: Vec<LineAddr> = finals.keys().copied().collect();
    let got = svc.batch_read(&lines).unwrap();
    for (l, v) in lines.iter().zip(got) {
        assert_eq!(v.as_ref(), finals.get(l), "divergence at line {l:?}");
        assert_eq!(
            oracle_mem.read_checked(*l).ok().as_ref(),
            finals.get(l),
            "oracle self-check at line {l:?}"
        );
    }
    assert!(!svc.is_degraded());
    let stats = svc.stats();
    assert_eq!(stats.rollbacks, 0);
    assert!(stats.writes > 0 && stats.reads > 0 && stats.guarded_writes > 0);

    // The journal written under concurrency must recover to the same
    // state: end-to-end crash-consistency of the concurrent run.
    let backend = Arc::try_unwrap(svc)
        .expect("all workers joined")
        .into_backend();
    let (recovered, report) = recover(
        backend,
        SEED,
        LINES,
        CounterDesign::Morphable,
        ServiceConfig::default(),
    )
    .expect("journal written under concurrency must recover");
    assert!(report.quarantined.is_empty());
    let got = recovered.batch_read(&lines).unwrap();
    for (l, v) in lines.iter().zip(got) {
        assert_eq!(
            v.as_ref(),
            finals.get(l),
            "post-recovery divergence at {l:?}"
        );
    }
}

/// Backpressure through the public API: held permits shrink the window
/// until real operations are rejected with a typed error, and capacity
/// returns as soon as permits drop.
#[test]
fn backpressure_rejects_then_recovers_capacity() {
    let svc = Arc::new(SecureMemoryService::new(
        InMemoryBackend::new(),
        SEED,
        LINES,
        ServiceConfig {
            max_in_flight: 2,
            ..ServiceConfig::default()
        },
    ));
    let p1 = svc.permit().unwrap();
    let p2 = svc.permit().unwrap();

    // A concurrent caller observes Overloaded, not a hang.
    let svc2 = Arc::clone(&svc);
    let rejected = std::thread::spawn(move || {
        matches!(
            svc2.batch_write(&[(LineAddr::new(1), block(1))]),
            Err(ServiceError::Overloaded {
                in_flight: 2,
                limit: 2
            })
        )
    })
    .join()
    .unwrap();
    assert!(rejected, "full window must reject with Overloaded");
    assert!(svc.stats().overloaded >= 1);

    // Nothing was acknowledged, so nothing may be durable.
    drop(p1);
    drop(p2);
    assert_eq!(svc.batch_read(&[LineAddr::new(1)]).unwrap(), vec![None]);

    // Window freed: the same op now succeeds.
    svc.batch_write(&[(LineAddr::new(1), block(1))]).unwrap();
    assert_eq!(
        svc.batch_read(&[LineAddr::new(1)]).unwrap(),
        vec![Some(block(1))]
    );
}

/// Degraded read-only mode through the public API: a verify-failure
/// streak flips the service to read-only for writers on every entry
/// point while intact lines stay readable — and because the tampering
/// hit volatile state only, recovery from the journal yields a healthy
/// service with the acknowledged data intact.
#[test]
fn degraded_mode_is_read_only_and_recoverable() {
    let svc = SecureMemoryService::new(
        InMemoryBackend::new(),
        SEED,
        LINES,
        ServiceConfig {
            degrade_after: 2,
            ..ServiceConfig::default()
        },
    );
    let good = LineAddr::new(10);
    let bad = LineAddr::new(11);
    svc.batch_write(&[(good, block(1)), (bad, block(2))])
        .unwrap();

    // DRAM corruption after the journal append: reads must detect it.
    svc.with_memory_mut(|m| m.tamper_flip_bit(bad, 3));
    for _ in 0..2 {
        assert!(matches!(
            svc.batch_read(&[bad]),
            Err(ServiceError::Corruption(_))
        ));
    }
    assert!(svc.is_degraded());
    assert!(matches!(
        svc.batch_write(&[(good, block(9))]),
        Err(ServiceError::ReadOnly)
    ));
    assert!(matches!(
        svc.guarded_write((good, Some(block(1))), &[(good, block(9))]),
        Err(ServiceError::ReadOnly)
    ));
    // Intact data remains readable in degraded mode.
    assert_eq!(svc.batch_read(&[good]).unwrap(), vec![Some(block(1))]);

    // The journal predates the corruption: recovery restores both lines
    // and starts healthy.
    let (recovered, report) = recover(
        svc.into_backend(),
        SEED,
        LINES,
        CounterDesign::Morphable,
        ServiceConfig::default(),
    )
    .unwrap();
    assert!(!report.degraded && report.quarantined.is_empty());
    assert_eq!(
        recovered.batch_read(&[good, bad]).unwrap(),
        vec![Some(block(1)), Some(block(2))]
    );
}
