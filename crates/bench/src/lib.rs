//! Experiment harness: regenerates every table and figure of the paper's
//! characterization (§III) and evaluation (§VI).
//!
//! Each per-benchmark figure is a row function in `experiments::tables`
//! with the same rows/series the paper reports, and
//! `experiments::REGISTRY` names each figure once. `--bin run_all`
//! regenerates everything (the data behind EXPERIMENTS.md); `run_all --fig
//! fig16` renders one figure.
//!
//! # Scale
//!
//! Set `EMCC_SCALE=test|small|paper` (default `small`) to trade fidelity
//! for runtime. `paper` uses the largest synthetic footprints and op
//! counts and takes tens of minutes for the full suite.

pub mod campaign;
pub mod cli;
pub mod crash_campaign;
pub mod experiments;
pub mod json;
pub mod pool;
pub mod record;
pub mod runner;

pub use cli::bless_requested;
pub use pool::{jobs_from_env, run_indexed_catching, EnvError, RunCache, RunRequest};
pub use runner::{ExhaustedRun, ExpParams, FailedRun, Harness, TruncatedRun};
