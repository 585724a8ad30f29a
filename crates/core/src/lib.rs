//! The EMCC full-system simulator: the paper's contribution, on top of
//! every substrate in the workspace.
//!
//! [`SecureSystem`] assembles trace-driven out-of-order-approximate cores,
//! private L1/L2 caches, a sliced non-inclusive LLC over a mesh NoC, a
//! secure memory controller (counter cache, integrity-tree walk, AES
//! pool, split-counter overflow engine) and a DDR4 timing model — and
//! implements the four design points of
//! [`SecurityScheme`](emcc_secmem::SecurityScheme):
//!
//! * `NonSecure` — no memory cryptography (the performance ceiling),
//! * `McOnly` — counters cached only in the MC (§III's comparison point),
//! * `CtrInLlc` — the Morphable-style baseline: LLC is a second-level
//!   counter cache, accessed serially after a data LLC miss,
//! * `Emcc` — the paper's scheme: counters cached *and used* in L2, with
//!   parallel counter/data requests to LLC, eager counter-mode AES at L2
//!   overlapped with the DRAM→MC→LLC→L2 data return, adaptive offload
//!   back to the MC, and MC→L2 counter invalidations.
//!
//! # Examples
//!
//! ```no_run
//! use emcc_system::{SecureSystem, SystemConfig};
//! use emcc_secmem::SecurityScheme;
//! use emcc_workloads::{Benchmark, presets::WorkloadScale};
//! use emcc_workloads::kernels::GraphKernel;
//!
//! let config = SystemConfig::table_i(SecurityScheme::Emcc);
//! let sources = Benchmark::Graph(GraphKernel::Bfs).build_scaled(1, 4, WorkloadScale::Test);
//! let report = SecureSystem::new(config).run(sources, 20_000);
//! println!("IPC = {:.2}", report.ipc());
//! ```

pub mod config;
pub mod core_model;
pub mod mc;
pub mod report;
pub mod system;
pub mod timeline;
pub mod xpt;

pub use config::{EmccConfig, SystemConfig};
pub use report::{DispatchLedger, SimReport};
pub use system::SecureSystem;
pub use timeline::TimelineScenario;
pub use xpt::XptPredictor;
