//! Deterministic simulation fuzzer (DESIGN.md §8).
//!
//! Every case is a pure function of one `u64` seed: a random system
//! configuration drawn from valid ranges plus a phase-structured access
//! trace ([`emcc::workloads::phases`]). The oracle battery runs the case
//! through every scheme × counter-design combination and checks
//!
//! * functional read-value equivalence of `FunctionalSecureMemory`
//!   against a naive store (including the EMCC split-MAC path and
//!   tamper-detection spot checks),
//! * `SimReport` conservation laws (hits + misses never exceed lookups,
//!   DRAM traffic at least covers misses, detection exactness under
//!   faults),
//! * cross-scheme metamorphic relations (non-secure runs are never
//!   slower than secure ones; zero-fault runs report zero violations),
//! * bit-for-bit determinism (re-running a combo reproduces its
//!   canonical report).
//!
//! A failing case is shrunk with `proptest::shrink` to a minimal trace +
//! config and persisted to `fuzz/corpus/*.ron`, which `cargo test`
//! replays as a regression suite (`tests/corpus_replay.rs`). The
//! `fuzz_sim` binary drives parallel campaigns through the bench pool;
//! its verdict file is byte-identical for any `EMCC_JOBS`. The
//! `fault_campaign` binary sweeps DRAM fault classes × rates × placements
//! through the same runner, judging each cell by
//! [`oracle::report_laws`].

pub mod case;
pub mod corpus;
pub mod oracle;

pub use case::{FuzzCase, FuzzOp};
pub use oracle::{check_case, OracleReport};
