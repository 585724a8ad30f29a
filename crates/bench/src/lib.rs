//! Experiment harness: regenerates every table and figure of the paper's
//! characterization (§III) and evaluation (§VI).
//!
//! Each `experiments::figNN` module runs the simulations behind one figure
//! and renders the same rows/series the paper reports. Binaries
//! (`cargo run --release -p emcc-bench --bin fig16`) print one figure;
//! `--bin run_all` regenerates everything (the data behind
//! EXPERIMENTS.md).
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
pub mod fault_campaign;
pub mod json;
pub mod pool;
pub mod record;
pub mod runner;

pub use cli::bless_requested;
pub use pool::{jobs_from_env, run_indexed_catching, EnvError, RunCache, RunRequest};
pub use runner::{scale_from_env, ExhaustedRun, ExpParams, FailedRun, Harness};
