//! Timing-simulator workload: the paper's irregular suite at Test scale
//! under EMCC.
//!
//! Set-up records one trace per core for [`TRACES_PER_BENCHMARK`]
//! seed-derived workload seeds of each of the eleven irregular
//! benchmarks. One unit simulates the next of these jobs in turn — a fresh
//! `SecureSystem`, the warm-up and measure windows `run_all` uses at Test
//! scale, and the canonical report — so every run covers the whole suite
//! in equal shares and only the traces' contents depend on the seed.
//! Several traces per benchmark keep the median job from resting on one
//! trace's luck.

use emcc::prelude::*;
use emcc::workloads::{Trace, TraceSource};

use crate::{mix, Layers, Workload};

/// Warm-up and measured memory operations per core (`run_all`'s Test
/// scale).
const WARMUP_OPS: u64 = 2_000;
const MEASURE_OPS: u64 = 6_000;

/// Workload seeds, and so jobs, per benchmark.
const TRACES_PER_BENCHMARK: u64 = 3;

const SCHEME: SecurityScheme = SecurityScheme::Emcc;

struct Job {
    traces: Vec<Trace>,
    /// Canonical report of the job's first run; every later run must
    /// reproduce it byte for byte.
    reference: Option<String>,
}

pub struct SimEmcc {
    jobs: Vec<Job>,
    next: usize,
}

/// Records the first `ops` operations of a source as a replayable trace.
fn record(mut src: Box<dyn TraceSource>, ops: u64) -> Trace {
    let recorded = (0..ops).map(|_| src.next_op()).collect();
    Trace::new(src.name(), recorded)
}

impl Workload for SimEmcc {
    fn setup(seed: u64, layers: &mut Layers) -> Result<Self, String> {
        let cores = SystemConfig::table_i(SCHEME).cores;
        let mut jobs = Vec::new();
        for k in 0..TRACES_PER_BENCHMARK {
            for (bench, i) in Benchmark::irregular_suite().into_iter().zip(0u64..) {
                let traces = layers.time("sim_gen", || {
                    bench
                        .build_scaled(mix(seed, k << 8 | i), cores, WorkloadScale::Test)
                        .into_iter()
                        .map(|src| record(src, WARMUP_OPS + MEASURE_OPS))
                        .collect()
                });
                jobs.push(Job {
                    traces,
                    reference: None,
                });
            }
        }
        Ok(SimEmcc { jobs, next: 0 })
    }

    fn round_len(&self) -> usize {
        self.jobs.len()
    }

    fn unit(&mut self, layers: &mut Layers) -> Result<(), String> {
        let n = self.jobs.len();
        let job = &mut self.jobs[self.next % n];
        self.next += 1;
        let sources: Vec<Box<dyn TraceSource>> = job
            .traces
            .iter()
            .map(|t| Box::new(t.clone().cursor(0)) as Box<dyn TraceSource>)
            .collect();
        let cores = sources.len() as u64;
        let system = layers.time("sim_new", || {
            SecureSystem::new(SystemConfig::table_i(SCHEME))
        });
        let report = layers.time("sim_run", || {
            system.run_with_warmup(sources, WARMUP_OPS, MEASURE_OPS)
        });
        let canonical = layers.time("sim_report", || report.canonical_json());

        let name = &report.benchmark;
        let law = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{name}: {what}"))
            }
        };
        law(
            report.mem_ops == cores * MEASURE_OPS,
            "measured memory operations != cores x measure window",
        )?;
        law(
            report.l2_hits + report.l2_data_misses <= report.l2_accesses,
            "L2 hits + misses exceed accesses",
        )?;
        law(
            report.crit_violations == 0 && report.crit_path.total_sum_ps() == report.crit_total_ps,
            "critical-path attribution does not tile access latency",
        )?;
        law(
            report.integrity_violations == 0 && report.silent_corruptions == 0,
            "fault-free run reported integrity events",
        )?;
        match &job.reference {
            None => job.reference = Some(canonical),
            Some(r) => law(
                *r == canonical,
                "canonical report differs from the first run",
            )?,
        }

        layers.count("sims", 1);
        layers.count("sim_ops", cores * (WARMUP_OPS + MEASURE_OPS));
        layers.count("sim_mem_ops", report.mem_ops);
        layers.count("sim_time_ps", report.elapsed.as_ps());
        layers.count("l2_hits", report.l2_hits);
        layers.count("llc_misses", report.llc_data_misses);
        layers.count("dram_data_reads", report.dram_data_reads);
        layers.count("ctr_l2_hits", report.ctr_source[0]);
        layers.count("ctr_dram_fetches", report.ctr_source[3]);
        layers.count("decrypted_at_l2", report.decrypted_at_l2);
        Ok(())
    }
}
