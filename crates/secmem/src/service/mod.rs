//! Crash-consistent concurrent secure-memory service.
//!
//! [`SecureMemoryService`] productizes [`FunctionalSecureMemory`] (the
//! ROADMAP item "Serve it: an encrypted-memory layer as a real concurrent
//! library/server"): a `Send + Sync` service exposing the batched
//! [`MemoryAdt`] surface (`batch_read` / `batch_write` / `guarded_write`)
//! over a pluggable [`StorageBackend`], with
//!
//! * **write-ahead journaling** — every write's persistent effect, read
//!   off its [`crate::WriteLog`] (the counter-block slots it changed + the
//!   re-encrypted line images), is appended to the journal *before* the
//!   write is acknowledged, so a crash at any moment loses only
//!   unacknowledged work ([`journal`]); a write whose append fails is
//!   taken back with [`FunctionalSecureMemory::undo`];
//! * **atomic checkpointing** — [`SecureMemoryService::checkpoint`]
//!   captures full state, installs it atomically and truncates the
//!   journal; stale-checkpoint and stale-journal crash windows are closed
//!   by sequence-number idempotence ([`recovery`]);
//! * **request-level robustness**, one mechanism per failure: a
//!   transient append fault is retried up to
//!   [`ServiceConfig::max_retries`] times; a full in-flight window rejects
//!   with a typed [`ServiceError::Overloaded`]; a verify-failure streak,
//!   or recovery finding lines that fail verification, puts the service
//!   in a degraded read-only mode — the service-level mirror of the
//!   paper's §IV-D MC-fallback escalation. Every read of a stored line
//!   re-verifies it (tree walk and MAC), so corruption is reported by the
//!   read that meets it, and a write over a corrupt tree path or
//!   neighbour is refused before anything changes.
//!
//! Retries are immediate: the service neither sleeps nor accounts a
//! backoff, so every retry path stays deterministic and testable.

pub mod adt;
pub mod backend;
pub mod journal;
pub mod recovery;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use emcc_counters::CounterDesign;
use emcc_crypto::DataBlock;
use emcc_sim::LineAddr;

pub use adt::{MemoryAdt, ServiceError, WriteAck};
pub use backend::{
    corrupt_byte, BackendError, CrashInjector, CrashSchedule, FileBackend, FlakyBackend,
    InMemoryBackend, Region, StorageBackend,
};
pub use journal::{JournalError, JournalRecord, JournalScan};
pub use recovery::{recover, RecoveryError, RecoveryReport};

use crate::functional::FunctionalSecureMemory;

/// Service-level robustness knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Bounded in-flight window; further requests get
    /// [`ServiceError::Overloaded`].
    pub max_in_flight: usize,
    /// Retries of a journal append that failed with a transient fault;
    /// once they are spent the write fails with [`ServiceError::Backend`].
    pub max_retries: u32,
    /// Consecutive verification failures before the service degrades to
    /// read-only mode.
    pub degrade_after: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 64,
            max_retries: 3,
            degrade_after: 4,
        }
    }
}

/// Monotonic operation counters, readable without the service lock.
#[derive(Debug, Default)]
struct Stats {
    reads: AtomicU64,
    writes: AtomicU64,
    guarded_writes: AtomicU64,
    retries: AtomicU64,
    rollbacks: AtomicU64,
    overloaded: AtomicU64,
    verify_failures: AtomicU64,
    checkpoints: AtomicU64,
    journal_bytes: AtomicU64,
}

/// Snapshot of [`SecureMemoryService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Lines served by `batch_read`.
    pub reads: u64,
    /// Writes acknowledged by `batch_write` / `guarded_write`.
    pub writes: u64,
    /// Guarded writes attempted.
    pub guarded_writes: u64,
    /// Transient-fault retries performed.
    pub retries: u64,
    /// Writes rolled back after a failed journal append.
    pub rollbacks: u64,
    /// Requests rejected by backpressure.
    pub overloaded: u64,
    /// Verification failures observed on reads.
    pub verify_failures: u64,
    /// Checkpoints installed.
    pub checkpoints: u64,
    /// Journal bytes appended by acknowledged writes.
    pub journal_bytes: u64,
}

/// State behind the service mutex.
struct Core<B> {
    mem: FunctionalSecureMemory,
    backend: B,
    /// Next journal sequence number to assign (1-based).
    next_seq: u64,
    /// Checksum chain state of the journal's last record.
    check_chain: u64,
    /// Consecutive read-verification failures.
    fail_streak: u32,
}

/// Thread-safe crash-consistent secure-memory service.
///
/// # Examples
///
/// ```
/// use emcc_secmem::service::{InMemoryBackend, MemoryAdt, SecureMemoryService, ServiceConfig};
/// use emcc_crypto::DataBlock;
/// use emcc_sim::LineAddr;
///
/// let svc = SecureMemoryService::new(
///     InMemoryBackend::new(), 7, 1 << 12, ServiceConfig::default());
/// let line = LineAddr::new(3);
/// let v = DataBlock::from_words([42; 8]);
/// let ack = svc.batch_write(&[(line, v)]).unwrap();
/// assert_eq!(ack.last_seq, 1);
/// assert_eq!(svc.batch_read(&[line]).unwrap(), vec![Some(v)]);
/// ```
pub struct SecureMemoryService<B: StorageBackend> {
    core: Mutex<Core<B>>,
    cfg: ServiceConfig,
    in_flight: AtomicUsize,
    degraded: AtomicBool,
    stats: Stats,
}

impl<B: StorageBackend> std::fmt::Debug for SecureMemoryService<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureMemoryService")
            .field("cfg", &self.cfg)
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .field("degraded", &self.degraded.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// RAII reservation of one slot in the service's in-flight window.
pub struct OpPermit<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for OpPermit<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<B: StorageBackend> SecureMemoryService<B> {
    /// Starts a service over a *fresh* backend (empty journal, no
    /// checkpoint) with Morphable counters. Use [`recover`] to restart
    /// from persisted state.
    pub fn new(backend: B, seed: u64, data_lines: u64, cfg: ServiceConfig) -> Self {
        Self::with_design(backend, seed, data_lines, CounterDesign::Morphable, cfg)
    }

    /// [`Self::new`] with an explicit counter design.
    pub fn with_design(
        backend: B,
        seed: u64,
        data_lines: u64,
        design: CounterDesign,
        cfg: ServiceConfig,
    ) -> Self {
        Self::assemble(
            FunctionalSecureMemory::with_design(seed, data_lines, design),
            backend,
            1,
            journal::CHAIN_SEED,
            false,
            cfg,
        )
    }

    /// Internal constructor shared with recovery, which starts a service
    /// `degraded` when it found lines that fail verification.
    pub(super) fn assemble(
        mem: FunctionalSecureMemory,
        backend: B,
        next_seq: u64,
        check_chain: u64,
        degraded: bool,
        cfg: ServiceConfig,
    ) -> Self {
        SecureMemoryService {
            core: Mutex::new(Core {
                mem,
                backend,
                next_seq,
                check_chain,
                fail_streak: 0,
            }),
            cfg,
            in_flight: AtomicUsize::new(0),
            degraded: AtomicBool::new(degraded),
            stats: Stats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Whether the service is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Operation counters so far.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.stats.reads.load(Ordering::Relaxed),
            writes: self.stats.writes.load(Ordering::Relaxed),
            guarded_writes: self.stats.guarded_writes.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            rollbacks: self.stats.rollbacks.load(Ordering::Relaxed),
            overloaded: self.stats.overloaded.load(Ordering::Relaxed),
            verify_failures: self.stats.verify_failures.load(Ordering::Relaxed),
            checkpoints: self.stats.checkpoints.load(Ordering::Relaxed),
            journal_bytes: self.stats.journal_bytes.load(Ordering::Relaxed),
        }
    }

    /// Reserves one slot of the bounded in-flight window. Every ADT call
    /// takes a slot for its duration; holding permits externally shrinks
    /// the capacity left for requests (useful for admission control and
    /// for deterministically exercising the overload path).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the window is full.
    pub fn permit(&self) -> Result<OpPermit<'_>, ServiceError> {
        let prev = self.in_flight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.cfg.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Overloaded {
                in_flight: prev,
                limit: self.cfg.max_in_flight,
            });
        }
        Ok(OpPermit {
            counter: &self.in_flight,
        })
    }

    /// Runs a closure against the functional memory under the service
    /// lock — read-only inspection (differential tests, audits).
    pub fn with_memory<R>(&self, f: impl FnOnce(&FunctionalSecureMemory) -> R) -> R {
        f(&self.lock().mem)
    }

    /// Attack/fault hook: mutate the functional memory directly (tamper
    /// helpers), bypassing the journal — models DRAM corruption, which is
    /// exactly what the integrity machinery must detect.
    pub fn with_memory_mut<R>(&self, f: impl FnOnce(&mut FunctionalSecureMemory) -> R) -> R {
        f(&mut self.lock().mem)
    }

    /// Captures a checkpoint of full persistent state, installs it
    /// atomically, and truncates the journal.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Backend`]; the old checkpoint + journal remain
    /// authoritative on failure.
    pub fn checkpoint(&self) -> Result<(), ServiceError> {
        let _permit = self.permit()?;
        let mut core = self.lock();
        let bytes = journal::encode_checkpoint(&core.mem, core.next_seq - 1);
        core.backend
            .install_checkpoint(&bytes)
            .map_err(|error| ServiceError::Backend {
                error,
                committed: 0,
            })?;
        core.backend
            .truncate_journal()
            .map_err(|error| ServiceError::Backend {
                error,
                committed: 0,
            })?;
        core.check_chain = journal::CHAIN_SEED;
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Consumes the service and returns its backend (for post-crash
    /// inspection or recovery in tests).
    pub fn into_backend(self) -> B {
        self.core
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .backend
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Core<B>> {
        // A panic while holding the lock (e.g. a tamper helper asserting)
        // poisons it; the service state itself is still consistent because
        // every journaled mutation completes or is rolled back.
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `bytes`, retrying a transient fault up to
    /// [`ServiceConfig::max_retries`] times.
    fn append_with_retry(&self, core: &mut Core<B>, bytes: &[u8]) -> Result<(), ServiceError> {
        let mut retries = 0;
        loop {
            match core.backend.append_journal(bytes) {
                Ok(()) => return Ok(()),
                Err(BackendError::Transient(_)) if retries < self.cfg.max_retries => {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    retries += 1;
                }
                Err(error) => {
                    return Err(ServiceError::Backend {
                        error,
                        committed: 0,
                    })
                }
            }
        }
    }

    /// Journals and acknowledges one write. On append failure the write is
    /// undone, so the functional state returns to its pre-write image.
    fn write_one(
        &self,
        core: &mut Core<B>,
        line: LineAddr,
        value: DataBlock,
    ) -> Result<u64, ServiceError> {
        // A refused write (over a corrupt tree path or, rebasing, a corrupt
        // neighbour) has changed nothing yet, so there is nothing to undo.
        let log = core
            .mem
            .write_logged(line, value)
            .map_err(ServiceError::Corruption)?;
        let seq = core.next_seq;
        let rec = JournalRecord::of_write(seq, &log);
        let (frame, new_check) = journal::encode_record(&rec, core.check_chain);

        match self.append_with_retry(core, &frame) {
            Ok(()) => {
                core.check_chain = new_check;
                core.next_seq += 1;
                self.stats.writes.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .journal_bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                Ok(seq)
            }
            Err(e) => {
                // The write never became durable: undo it so memory and
                // journal agree.
                core.mem.undo(log);
                self.stats.rollbacks.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn reject_if_degraded(&self) -> Result<(), ServiceError> {
        if self.degraded.load(Ordering::SeqCst) {
            return Err(ServiceError::ReadOnly);
        }
        Ok(())
    }

    /// Applies the batch under the lock; used by both write entry points.
    fn write_batch_locked(
        &self,
        core: &mut Core<B>,
        writes: &[(LineAddr, DataBlock)],
    ) -> Result<WriteAck, ServiceError> {
        let mut last_seq = core.next_seq.saturating_sub(1);
        for (i, (line, value)) in writes.iter().enumerate() {
            match self.write_one(core, *line, *value) {
                Ok(seq) => last_seq = seq,
                Err(e) => {
                    // Report how much of the batch is durable.
                    return Err(match e {
                        ServiceError::Backend { error, .. } => ServiceError::Backend {
                            error,
                            committed: i,
                        },
                        other => other,
                    });
                }
            }
        }
        Ok(WriteAck {
            last_seq,
            committed: writes.len(),
        })
    }

    /// Reads one line under the lock, maintaining the verify-failure
    /// streak and degradation state.
    fn read_one(
        &self,
        core: &mut Core<B>,
        line: LineAddr,
    ) -> Result<Option<DataBlock>, ServiceError> {
        match core.mem.read_stored(line) {
            Ok(v) => {
                // Only a verified stored line breaks a failure streak.
                if v.is_some() {
                    core.fail_streak = 0;
                }
                self.stats.reads.fetch_add(1, Ordering::Relaxed);
                Ok(v)
            }
            Err(e) => {
                core.fail_streak += 1;
                self.stats.verify_failures.fetch_add(1, Ordering::Relaxed);
                if core.fail_streak >= self.cfg.degrade_after {
                    self.degraded.store(true, Ordering::SeqCst);
                }
                Err(ServiceError::Corruption(e))
            }
        }
    }
}

impl<B: StorageBackend> MemoryAdt for SecureMemoryService<B> {
    fn batch_read(&self, addrs: &[LineAddr]) -> Result<Vec<Option<DataBlock>>, ServiceError> {
        let _permit = self.permit()?;
        let mut core = self.lock();
        addrs
            .iter()
            .map(|&line| self.read_one(&mut core, line))
            .collect()
    }

    fn batch_write(&self, writes: &[(LineAddr, DataBlock)]) -> Result<WriteAck, ServiceError> {
        let _permit = self.permit()?;
        self.reject_if_degraded()?;
        let mut core = self.lock();
        self.write_batch_locked(&mut core, writes)
    }

    fn guarded_write(
        &self,
        guard: (LineAddr, Option<DataBlock>),
        writes: &[(LineAddr, DataBlock)],
    ) -> Result<Option<DataBlock>, ServiceError> {
        let _permit = self.permit()?;
        self.reject_if_degraded()?;
        self.stats.guarded_writes.fetch_add(1, Ordering::Relaxed);
        let mut core = self.lock();
        let current = self.read_one(&mut core, guard.0)?;
        if current == guard.1 {
            self.write_batch_locked(&mut core, writes)?;
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::{ReadError, StoredLine};
    use emcc_counters::CounterBlock;
    use proptest::prelude::*;

    fn block(v: u64) -> DataBlock {
        DataBlock::from_words([v; 8])
    }

    fn svc() -> SecureMemoryService<InMemoryBackend> {
        SecureMemoryService::new(InMemoryBackend::new(), 7, 1 << 12, ServiceConfig::default())
    }

    #[test]
    fn write_then_read_roundtrip() {
        let s = svc();
        let ack = s
            .batch_write(&[(LineAddr::new(1), block(10)), (LineAddr::new(2), block(20))])
            .unwrap();
        assert_eq!(ack.last_seq, 2);
        assert_eq!(ack.committed, 2);
        assert_eq!(
            s.batch_read(&[LineAddr::new(2), LineAddr::new(1), LineAddr::new(3)])
                .unwrap(),
            vec![Some(block(20)), Some(block(10)), None]
        );
    }

    #[test]
    fn guarded_write_applies_only_on_match() {
        let s = svc();
        let l = LineAddr::new(5);
        // Guard: expect never-written. Applies.
        let seen = s.guarded_write((l, None), &[(l, block(1))]).unwrap();
        assert_eq!(seen, None);
        assert_eq!(s.batch_read(&[l]).unwrap(), vec![Some(block(1))]);
        // Guard mismatch: no write.
        let seen = s
            .guarded_write((l, Some(block(9))), &[(l, block(2))])
            .unwrap();
        assert_eq!(seen, Some(block(1)));
        assert_eq!(s.batch_read(&[l]).unwrap(), vec![Some(block(1))]);
        // Guard match: write applies.
        let seen = s
            .guarded_write((l, Some(block(1))), &[(l, block(2))])
            .unwrap();
        assert_eq!(seen, Some(block(1)));
        assert_eq!(s.batch_read(&[l]).unwrap(), vec![Some(block(2))]);
    }

    #[test]
    fn permit_window_rejects_excess() {
        let cfg = ServiceConfig {
            max_in_flight: 2,
            ..ServiceConfig::default()
        };
        let s = SecureMemoryService::new(InMemoryBackend::new(), 7, 1 << 12, cfg);
        let p1 = s.permit().unwrap();
        let _p2 = s.permit().unwrap();
        // Window full: both a raw permit and a real op are rejected.
        assert!(matches!(
            s.permit(),
            Err(ServiceError::Overloaded {
                in_flight: 2,
                limit: 2
            })
        ));
        assert!(matches!(
            s.batch_read(&[LineAddr::new(0)]),
            Err(ServiceError::Overloaded { .. })
        ));
        assert_eq!(s.stats().overloaded, 2);
        drop(p1);
        assert!(s.batch_read(&[LineAddr::new(0)]).is_ok());
    }

    #[test]
    fn transient_faults_retry_then_succeed() {
        let cfg = ServiceConfig::default();
        let s = SecureMemoryService::new(
            FlakyBackend::new(InMemoryBackend::new(), 2),
            7,
            1 << 12,
            cfg,
        );
        let l = LineAddr::new(3);
        s.batch_write(&[(l, block(4))]).unwrap();
        assert_eq!(s.stats().retries, 2);
        assert_eq!(s.stats().rollbacks, 0);
        assert_eq!(s.batch_read(&[l]).unwrap(), vec![Some(block(4))]);
    }

    #[test]
    fn exhausted_retries_roll_back() {
        let cfg = ServiceConfig {
            max_retries: 2,
            ..ServiceConfig::default()
        };
        let s = SecureMemoryService::new(
            FlakyBackend::new(InMemoryBackend::new(), u64::MAX),
            7,
            1 << 12,
            cfg,
        );
        let l = LineAddr::new(3);
        let err = s.batch_write(&[(l, block(4))]).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Backend {
                error: BackendError::Transient(_),
                committed: 0
            }
        ));
        assert_eq!(s.stats().rollbacks, 1);
        // The failed write left no trace: line still unwritten, and its
        // counter block absent again.
        assert_eq!(s.batch_read(&[l]).unwrap(), vec![None]);
        assert!(s.with_memory(|m| m.counter_block_state(0).is_none()));
    }

    #[test]
    fn rollback_across_a_rebase_restores_the_pre_write_state() {
        let s = SecureMemoryService::with_design(
            FlakyBackend::new(InMemoryBackend::new(), u64::MAX),
            7,
            1 << 12,
            CounterDesign::Sc64,
            ServiceConfig::default(),
        );
        let hot = LineAddr::new(5);
        // Neighbours in the hot line's block, and 127 writes of the hot
        // line, straight into memory: the service's next write of it
        // rebases (SC-64 rebases on the 128th write to one line).
        s.with_memory_mut(|m| {
            for l in [0, 1, 9, 63] {
                m.write(LineAddr::new(l), block(l)).unwrap();
            }
            for i in 0..127u64 {
                m.write(hot, block(i)).unwrap();
            }
        });
        let state = |s: &SecureMemoryService<FlakyBackend<InMemoryBackend>>| {
            s.with_memory(|m| {
                let lines: Vec<_> = (0..64)
                    .map(LineAddr::new)
                    .map(|l| (m.raw(l), m.read_checked(l)))
                    .collect();
                (
                    m.counter_block_state(0).cloned(),
                    lines,
                    m.reencrypted_lines(),
                )
            })
        };
        let before = state(&s);
        assert!(s.batch_write(&[(hot, block(127))]).is_err());
        assert_eq!(s.stats().rollbacks, 1);
        let after = state(&s);
        assert_eq!((&after.0, &after.1), (&before.0, &before.1));
        assert_eq!(after.2, before.2 + 4, "the undone write did rebase");
    }

    #[test]
    fn verify_failure_streak_degrades_to_read_only() {
        let cfg = ServiceConfig {
            degrade_after: 3,
            ..ServiceConfig::default()
        };
        let s = SecureMemoryService::new(InMemoryBackend::new(), 7, 1 << 12, cfg);
        let good = LineAddr::new(1);
        let bad = LineAddr::new(2);
        s.batch_write(&[(good, block(1)), (bad, block(2))]).unwrap();
        s.with_memory_mut(|m| m.tamper_flip_bit(bad, 17));
        for i in 0..3 {
            assert!(!s.is_degraded(), "not yet degraded before failure {i}");
            assert!(matches!(
                s.batch_read(&[bad]),
                Err(ServiceError::Corruption(_))
            ));
        }
        assert!(s.is_degraded());
        // Writes now rejected; reads of intact lines still served.
        assert!(matches!(
            s.batch_write(&[(good, block(3))]),
            Err(ServiceError::ReadOnly)
        ));
        assert_eq!(s.batch_read(&[good]).unwrap(), vec![Some(block(1))]);
        assert_eq!(s.stats().verify_failures, 3);
    }

    #[test]
    fn successful_read_resets_streak() {
        let cfg = ServiceConfig {
            degrade_after: 2,
            ..ServiceConfig::default()
        };
        let s = SecureMemoryService::new(InMemoryBackend::new(), 7, 1 << 12, cfg);
        let good = LineAddr::new(1);
        let bad = LineAddr::new(2);
        s.batch_write(&[(good, block(1)), (bad, block(2))]).unwrap();
        s.with_memory_mut(|m| m.tamper_flip_bit(bad, 17));
        assert!(s.batch_read(&[bad]).is_err());
        assert!(s.batch_read(&[good]).is_ok()); // streak broken
        assert!(s.batch_read(&[bad]).is_err());
        assert!(!s.is_degraded(), "interleaved successes keep service up");
    }

    #[test]
    fn a_write_over_a_tampered_tree_path_is_refused_before_its_append() {
        let s = SecureMemoryService::new(
            FlakyBackend::new(InMemoryBackend::new(), u64::MAX),
            7,
            1 << 12,
            ServiceConfig::default(),
        );
        let line = LineAddr::new(9);
        s.with_memory_mut(|m| {
            m.write(line, block(1)).unwrap();
            m.tamper_tree_flip_bit(0, 0, 3);
        });
        let tampered = ServiceError::Corruption(ReadError::TreeMismatch { level: 0, index: 0 });
        assert_eq!(s.batch_read(&[line]), Err(tampered.clone()));
        assert_eq!(s.batch_write(&[(line, block(2))]), Err(tampered.clone()));
        // No append was attempted: nothing was retried or rolled back.
        assert_eq!((s.stats().retries, s.stats().rollbacks), (0, 0));
        assert_eq!(s.batch_read(&[line]), Err(tampered), "still detected");
    }

    #[test]
    fn a_never_written_line_under_a_tampered_tree_path_reads_as_corrupt() {
        let s = svc();
        s.with_memory_mut(|m| m.tamper_tree_flip_bit(0, 0, 3));
        assert_eq!(
            s.batch_read(&[LineAddr::new(5)]),
            Err(ServiceError::Corruption(ReadError::TreeMismatch {
                level: 0,
                index: 0
            }))
        );
        assert_eq!(s.stats().verify_failures, 1);
    }

    /// Every level-0 counter block of the space, then every line's stored
    /// image and checked read: what a failed or refused write must leave
    /// as it was.
    type Image = (
        Vec<Option<CounterBlock>>,
        Vec<(Option<StoredLine>, Result<DataBlock, ReadError>)>,
    );

    fn image(m: &FunctionalSecureMemory) -> Image {
        let g = m.tree().geometry();
        let blocks = (0..g.blocks_at_level(0))
            .map(|b| m.counter_block_state(b).cloned())
            .collect();
        let lines = (0..g.data_lines())
            .map(LineAddr::new)
            .map(|l| (m.raw(l), m.read_checked(l)))
            .collect();
        (blocks, lines)
    }

    proptest! {
        #[test]
        fn a_failed_or_refused_write_leaves_memory_as_it_was(
            design in 0usize..3,
            seed in any::<u64>(),
        ) {
            const LINES: u64 = 1 << 8;
            let design =
                [CounterDesign::Monolithic, CounterDesign::Sc64, CounterDesign::Morphable][design];
            let mut rng = emcc_sim::Rng64::new(seed);
            // Every append fails, and no failure streak degrades the
            // service, so each service write is tried and must fail.
            let cfg = ServiceConfig {
                degrade_after: u32::MAX,
                ..ServiceConfig::default()
            };
            let s = SecureMemoryService::with_design(
                FlakyBackend::new(InMemoryBackend::new(), u64::MAX),
                seed,
                LINES,
                design,
                cfg,
            );
            let hot = LineAddr::new(rng.below(LINES));
            for step in 0..60 {
                let line = if rng.chance(0.5) { hot } else { LineAddr::new(rng.below(LINES)) };
                let value = block(rng.next_u64());
                let (bit, node) = (rng.below(568) as usize, rng.index(8));
                match rng.below(8) {
                    // A write straight into memory, as if acknowledged earlier.
                    0 => s.with_memory_mut(|m| {
                        let _ = m.write(line, value);
                    }),
                    // Age the hot line until its next write rebases its block
                    // (SC-64, Morphable): the service's next write of it would.
                    1 => s.with_memory_mut(|m| {
                        for _ in 0..200 {
                            if m.tree().would_overflow_data(hot) || m.write(hot, value).is_err() {
                                break;
                            }
                        }
                    }),
                    // Tamper with a stored line, or now and then with a node
                    // on the line's tree path.
                    2 => s.with_memory_mut(|m| {
                        if m.raw(line).is_some() {
                            m.tamper_flip_bit(line, bit % 512);
                        }
                    }),
                    3 if rng.chance(0.25) => s.with_memory_mut(|m| {
                        let path = m.tree().geometry().verification_path(line);
                        let (level, index) =
                            m.tree().geometry().node_of_addr(path[node % path.len()]);
                        m.tamper_tree_flip_bit(level, index, bit);
                    }),
                    // A service write, plain or guarded.
                    kind => {
                        let before = s.with_memory(image);
                        let result = if kind % 2 == 0 {
                            s.batch_write(&[(line, value)]).map(|_| ())
                        } else {
                            // Guard on what the line holds, so the write is
                            // tried unless the guard's read fails.
                            let guard = s.with_memory(|m| {
                                m.raw(line).and_then(|_| m.read_checked(line).ok())
                            });
                            s.guarded_write((line, guard), &[(line, value)]).map(|_| ())
                        };
                        prop_assert!(result.is_err(), "step {}: a service write succeeded", step);
                        let after = s.with_memory(image);
                        prop_assert!(after.0 == before.0, "step {}: a counter block moved", step);
                        let moved = (0..LINES as usize).find(|&l| after.1[l] != before.1[l]);
                        prop_assert!(moved.is_none(), "step {}: line {:?} moved", step, moved);
                    }
                }
            }
            let journal = s.into_backend().into_inner().journal_bytes().unwrap();
            prop_assert!(journal.is_empty());
        }
    }

    #[test]
    fn rebase_over_tampered_line_reports_corruption_untouched() {
        let s = SecureMemoryService::with_design(
            InMemoryBackend::new(),
            7,
            1 << 12,
            CounterDesign::Sc64,
            ServiceConfig::default(),
        );
        let tampered = LineAddr::new(1);
        let hot = LineAddr::new(5);
        s.batch_write(&[(tampered, block(1))]).unwrap();
        s.with_memory_mut(|m| m.tamper_flip_bit(tampered, 3));
        // SC-64 rebases on the 128th write to one line.
        for i in 0..127u64 {
            s.batch_write(&[(hot, block(i))]).unwrap();
        }
        let image = |s: &SecureMemoryService<InMemoryBackend>| {
            s.with_memory(|m| {
                (
                    m.raw(hot),
                    m.raw(tampered),
                    m.counter_block_state(0).cloned(),
                )
            })
        };
        let before = image(&s);
        assert_eq!(
            s.batch_write(&[(hot, block(127))]),
            Err(ServiceError::Corruption(
                crate::functional::ReadError::MacMismatch { line: tampered }
            ))
        );
        assert_eq!(image(&s), before, "memory untouched");
        assert_eq!(s.stats().writes, 128);
        assert_eq!(s.stats().rollbacks, 0);
        assert_eq!(s.batch_read(&[hot]).unwrap(), vec![Some(block(126))]);
        let backend = s.into_backend();
        let scan = journal::scan_journal(&backend.journal_bytes().unwrap()).unwrap();
        assert_eq!(scan.records.len(), 128, "journal untouched");
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SecureMemoryService<InMemoryBackend>>();
        assert_send_sync::<SecureMemoryService<FileBackend>>();
    }

    #[test]
    fn journal_records_every_acked_write() {
        let s = svc();
        for i in 0..10u64 {
            s.batch_write(&[(LineAddr::new(i), block(i))]).unwrap();
        }
        let backend = s.into_backend();
        let scan = journal::scan_journal(&backend.journal_bytes().unwrap()).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.records[9].seq, 10);
    }

    #[test]
    fn checkpoint_truncates_journal() {
        let s = svc();
        for i in 0..5u64 {
            s.batch_write(&[(LineAddr::new(i), block(i))]).unwrap();
        }
        s.checkpoint().unwrap();
        assert_eq!(s.stats().checkpoints, 1);
        s.batch_write(&[(LineAddr::new(40), block(40))]).unwrap();
        let backend = s.into_backend();
        assert!(backend.checkpoint_bytes().unwrap().is_some());
        let scan = journal::scan_journal(&backend.journal_bytes().unwrap()).unwrap();
        assert_eq!(scan.records.len(), 1, "journal restarted after checkpoint");
        assert_eq!(scan.records[0].seq, 6);
    }
}
