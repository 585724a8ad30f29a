//! Secure-memory machinery: the memory controller's building blocks plus a
//! functional end-to-end model.
//!
//! The timing simulator (`emcc-system`) composes these pieces:
//!
//! * [`SecurityScheme`] — which design point a simulation runs
//!   (non-secure / counters only in MC / counters also in LLC / EMCC /
//!   the direct-cipher placements BipBip, near-mem, in-SRAM), each
//!   resolving to a [`CryptoPlacement`] capability descriptor the
//!   pipeline dispatches on,
//! * [`AesPool`] — a bandwidth-limited pool of AES units (the §V
//!   arithmetic: 2.6 G AES/s peak for Morphable at DDR4-3200; EMCC moves
//!   half of it to the L2s),
//! * [`OverflowEngine`] — split-counter overflow re-encryption with the
//!   paper's limits (≤ 2 outstanding overflows, ≤ 8 in-queue requests),
//! * [`FunctionalSecureMemory`] — a *functional* (non-timing) secure
//!   memory: real encryption, MACs and an integrity tree over a sparse
//!   store, used to validate the security data path end-to-end,
//! * [`SecureMemoryService`] — a thread-safe, crash-consistent service
//!   over the functional model: write-ahead journaling, atomic
//!   checkpoints, verified recovery, and one request-level mechanism per
//!   failure (append retries, backpressure, degraded read-only mode).
//!
//! What the timing simulator does after a failed verification (a bounded
//! re-fetch, and an EMCC L2's fall-back to MC-side verification) is a
//! fixed policy of `emcc-system`, not configured here.
//!
//! # Examples
//!
//! ```
//! use emcc_secmem::FunctionalSecureMemory;
//! use emcc_crypto::DataBlock;
//! use emcc_sim::LineAddr;
//!
//! let mut mem = FunctionalSecureMemory::new(42, 1 << 20);
//! let line = LineAddr::new(7);
//! mem.write(line, DataBlock::from_words([1, 2, 3, 4, 5, 6, 7, 8])).unwrap();
//! assert_eq!(mem.read(line).unwrap().words()[0], 1);
//! ```

pub mod engine;
pub mod functional;
pub mod overflow;
pub mod placement;
pub mod scheme;
pub mod service;

pub use engine::AesPool;
pub use functional::{FunctionalSecureMemory, ReadError, StoredLine, WriteLog};
pub use overflow::{OverflowEngine, OverflowTask};
pub use placement::{CounterFlow, CryptoPlacement, DataPath};
pub use scheme::SecurityScheme;
pub use service::{
    recover, MemoryAdt, RecoveryError, RecoveryReport, SecureMemoryService, ServiceConfig,
    ServiceError,
};
