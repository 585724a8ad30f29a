//! The batched `MemoryADT`-style service interface.
//!
//! Mirrors the memory abstraction used by searchable-encryption layers
//! (Findex's `MemoryADT`): batched reads, batched writes, and a guarded
//! (compare-and-set) write whose guard is one address's expected current
//! value. The secure-memory service implements it over
//! [`crate::FunctionalSecureMemory`] so callers get real
//! encrypt/MAC/integrity-tree semantics behind a four-method surface.

use emcc_crypto::DataBlock;
use emcc_sim::LineAddr;

use super::backend::BackendError;
use crate::functional::ReadError;

/// Acknowledgement for a batch of writes: the journal made them durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// Journal sequence number of the batch's last record. Recovery
    /// guarantees every sequence number up to and including this one.
    pub last_seq: u64,
    /// Number of writes the batch applied.
    pub committed: usize,
}

/// Why a service request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Backpressure: the bounded in-flight window is full. Retry later;
    /// nothing was applied.
    Overloaded {
        /// Requests in flight when this one was rejected.
        in_flight: usize,
        /// The configured window.
        limit: usize,
    },
    /// The service is in degraded read-only mode, entered after a
    /// verify-failure streak (§IV-D escalation, service level) or because
    /// recovery found lines that fail verification. Reads still work.
    ReadOnly,
    /// Integrity verification failed — tampering/corruption *detected*.
    Corruption(ReadError),
    /// The persistence backend failed non-transiently (or retries were
    /// exhausted). A prefix of the batch may have committed; the error
    /// reports how many.
    Backend {
        /// The underlying backend error.
        error: BackendError,
        /// Writes of this batch already durable before the failure.
        committed: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { in_flight, limit } => {
                write!(f, "overloaded: {in_flight} in flight (limit {limit})")
            }
            ServiceError::ReadOnly => write!(f, "degraded read-only mode"),
            ServiceError::Corruption(e) => write!(f, "{e}"),
            ServiceError::Backend { error, committed } => {
                write!(f, "backend failure after {committed} commits: {error}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Batched secure-memory operations.
pub trait MemoryAdt {
    /// Reads many lines; `None` for never-written lines.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] — notably `Corruption` when verification fails.
    fn batch_read(&self, addrs: &[LineAddr]) -> Result<Vec<Option<DataBlock>>, ServiceError>;

    /// Applies writes in order; the returned ack covers the whole batch.
    ///
    /// # Errors
    ///
    /// [`ServiceError`]. On a `Backend` failure a *prefix* of the batch is
    /// durable; the error carries the committed count. `Corruption`
    /// refuses a write whose line's integrity-tree path fails verification
    /// (naming the corrupt node), or whose counter-block rebase would
    /// re-encrypt a line that fails verification (naming that line): the
    /// writes before it stay durable, and it changes neither memory nor
    /// journal.
    fn batch_write(&self, writes: &[(LineAddr, DataBlock)]) -> Result<WriteAck, ServiceError>;

    /// Compare-and-set: applies `writes` only if the line at `guard.0`
    /// currently holds `guard.1` (`None` = never written). Returns the
    /// value observed at the guard address *before* any write — equal to
    /// the guard iff the writes were applied.
    ///
    /// # Errors
    ///
    /// [`ServiceError`], as for [`Self::batch_write`].
    fn guarded_write(
        &self,
        guard: (LineAddr, Option<DataBlock>),
        writes: &[(LineAddr, DataBlock)],
    ) -> Result<Option<DataBlock>, ServiceError>;
}
