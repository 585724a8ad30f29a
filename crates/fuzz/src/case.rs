//! Fuzz cases: a seeded random system configuration + access trace.

use emcc::counters::CounterDesign;
use emcc::dram::{DramConfig, Fault, FaultClass, FaultConfig};
use emcc::noc::Mesh;
use emcc::secmem::SecurityScheme;
use emcc::sim::{LineAddr, Rng64};
use emcc::system::SystemConfig;
use emcc::workloads::phases::mixed_ops;
use emcc::workloads::{MemOp, Trace, TraceSource};
use proptest::shrink::{shrink_int, shrink_vec, Shrink};

/// One access of a fuzz trace (a plain-data mirror of [`MemOp`] so cases
/// serialize and shrink without touching simulator types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzOp {
    /// Line index, always `< FuzzCase::data_lines`.
    pub line: u64,
    /// Store (true) or load.
    pub write: bool,
    /// Instruction gap before the access.
    pub gap: u32,
    /// Address depends on the previous load.
    pub dep: bool,
}

impl FuzzOp {
    fn to_mem_op(self) -> MemOp {
        MemOp {
            line: LineAddr::new(self.line),
            is_write: self.write,
            gap: self.gap,
            depends_on_prev: self.dep,
        }
    }
}

/// A complete, self-describing fuzz case.
///
/// Every field is drawn from [`FuzzCase::generate`]'s valid ranges; the
/// corpus parser re-validates with [`FuzzCase::validate`] so hand-edited
/// files cannot assert inside the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// The generating seed (also the simulator/functional-memory seed).
    pub seed: u64,
    /// Simulated cores (1–2; each replays the trace from its own offset).
    pub cores: usize,
    /// Operations each core executes.
    pub ops_per_core: u64,
    /// Protected data space in lines.
    pub data_lines: u64,
    /// L1D geometry: sets (power of two) × ways × 64 B.
    pub l1_sets: u64,
    /// L1D associativity.
    pub l1_ways: u32,
    /// L2 sets (power of two).
    pub l2_sets: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// LLC slice count (≤ mesh core tiles).
    pub llc_slices: usize,
    /// Per-slice LLC sets (power of two).
    pub llc_sets: u64,
    /// LLC associativity.
    pub llc_ways: u32,
    /// MC metadata-cache sets (power of two).
    pub mc_sets: u64,
    /// MC metadata-cache associativity.
    pub mc_ways: u32,
    /// DRAM channels.
    pub channels: usize,
    /// LLC-miss prediction on/off.
    pub xpt: bool,
    /// Inclusive-LLC extension on/off.
    pub inclusive: bool,
    /// L2 stride-prefetcher degree (0 disables).
    pub prefetch: u32,
    /// EMCC AES fraction moved to L2, in percent (20/50/80).
    pub aes_to_l2_pct: u32,
    /// EMCC L2 counter budget in lines.
    pub budget_lines: u64,
    /// The DRAM fault, seeded with [`Self::seed`]; `None` injects
    /// nothing.
    pub fault: Option<Fault>,
    /// The access trace (replayed cyclically).
    pub trace: Vec<FuzzOp>,
}

const LINE_BYTES: u64 = 64;

impl FuzzCase {
    /// Generates the case for `seed`, drawing every knob from its valid
    /// range. Pure: the same seed always yields the same case.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ 0xF022_CA5E);
        let data_lines = 1u64 << (12 + rng.index(3) as u64 * 2); // 4K/16K/64K lines
        let footprint = 32 + rng.below(1993); // 32..=2024 lines, < data_lines
        let trace_len = 16 + rng.index(241); // 16..=256 ops
        let trace: Vec<FuzzOp> = mixed_ops(rng.next_u64(), footprint, trace_len)
            .into_iter()
            .map(|op| FuzzOp {
                line: op.line.get(),
                write: op.is_write,
                gap: op.gap,
                dep: op.depends_on_prev,
            })
            .collect();
        let cores = 1 + rng.index(2);
        let ops_per_core = (trace_len as u64) * (1 + rng.below(3));
        let fault = match rng.index(10) {
            0..=5 => None,
            6..=8 => Some(Fault::Planted {
                line: LineAddr::new(trace[rng.index(trace.len())].line),
                class: FaultClass::all()[rng.index(5)],
                on_read: rng.below(3),
            }),
            _ => Some(Fault::Uniform {
                class: FaultClass::all()[rng.index(5)],
                rate_ppm: [1_000u32, 10_000][rng.index(2)],
            }),
        };
        FuzzCase {
            seed,
            cores,
            ops_per_core,
            data_lines,
            l1_sets: 1 << (2 + rng.index(3)), // 4/8/16
            l1_ways: [1, 2, 4][rng.index(3)],
            l2_sets: 1 << (3 + rng.index(3)), // 8/16/32
            l2_ways: [2, 4, 8][rng.index(3)],
            llc_slices: [1, 2, 4][rng.index(3)],
            llc_sets: 1 << (4 + rng.index(2)), // 16/32
            llc_ways: [2, 4][rng.index(2)],
            mc_sets: 1 << (3 + rng.index(2)), // 8/16
            mc_ways: [2, 4][rng.index(2)],
            channels: 1 + rng.index(2),
            xpt: rng.chance(0.5),
            inclusive: rng.chance(0.25),
            prefetch: rng.index(3) as u32,
            aes_to_l2_pct: [20, 50, 80][rng.index(3)],
            budget_lines: [16, 64, 512][rng.index(3)],
            fault,
            trace,
        }
    }

    /// Checks every constraint the simulator asserts on, so corpus files
    /// and shrink candidates fail loudly here instead of panicking deep
    /// inside a cache constructor.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let check = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("invalid case: {what}"))
            }
        };
        check(self.cores >= 1 && self.cores <= 4, "cores must be 1..=4")?;
        check(self.ops_per_core >= 1, "ops_per_core must be >= 1")?;
        check(
            self.data_lines.is_power_of_two(),
            "data_lines must be a power of two",
        )?;
        check(!self.trace.is_empty(), "trace must be non-empty")?;
        check(
            self.trace.iter().all(|op| op.line < self.data_lines),
            "trace line out of data space",
        )?;
        for (sets, ways, what) in [
            (self.l1_sets, self.l1_ways, "l1"),
            (self.l2_sets, self.l2_ways, "l2"),
            (self.llc_sets, self.llc_ways, "llc"),
            (self.mc_sets, self.mc_ways, "mc"),
        ] {
            check(
                sets.is_power_of_two() && ways >= 1,
                &format!("{what} geometry must be pow2 sets x >=1 ways"),
            )?;
        }
        check(
            matches!(self.llc_slices, 1 | 2 | 4),
            "llc_slices must be 1, 2 or 4",
        )?;
        check(
            self.channels >= 1 && self.channels <= 4,
            "channels must be 1..=4",
        )?;
        check(
            self.aes_to_l2_pct >= 1 && self.aes_to_l2_pct <= 99,
            "aes_to_l2_pct must be 1..=99",
        )?;
        check(self.budget_lines >= 1, "budget_lines must be >= 1")?;
        match self.fault {
            Some(Fault::Planted { line, .. }) => check(
                line.get() < self.data_lines,
                "planted fault line out of range",
            )?,
            Some(Fault::Uniform { rate_ppm, .. }) => {
                check(rate_ppm <= 1_000_000, "uniform fault rate above 100%")?
            }
            None => {}
        }
        Ok(())
    }

    /// Expands to a full simulator configuration for one scheme × design
    /// combination. Shadow differential checking is enabled on secure
    /// fault-free combos (it asserts nothing useful elsewhere).
    pub fn system_config(&self, scheme: SecurityScheme, design: CounterDesign) -> SystemConfig {
        let mut cfg = SystemConfig::table_i(scheme);
        cfg.cores = self.cores;
        cfg.l1_size = self.l1_sets * u64::from(self.l1_ways) * LINE_BYTES;
        cfg.l1_ways = self.l1_ways;
        cfg.l2_size = self.l2_sets * u64::from(self.l2_ways) * LINE_BYTES;
        cfg.l2_ways = self.l2_ways;
        cfg.llc_slices = self.llc_slices;
        cfg.llc_slice_size = self.llc_sets * u64::from(self.llc_ways) * LINE_BYTES;
        cfg.llc_ways = self.llc_ways;
        cfg.mc_cache_size = self.mc_sets * u64::from(self.mc_ways) * LINE_BYTES;
        cfg.mc_cache_ways = self.mc_ways;
        cfg.counter_design = design;
        cfg.dram = DramConfig::table_i(self.channels);
        cfg.mesh = Mesh::grid(3, 2); // 4 core tiles: enough for 4 slices
        cfg.xpt_enabled = self.xpt;
        cfg.inclusive_llc = self.inclusive;
        cfg.l2_prefetch_degree = self.prefetch;
        cfg.emcc.l2_counter_budget_lines = self.budget_lines;
        cfg.emcc.aes_to_l2_pct = self.aes_to_l2_pct;
        cfg.data_lines = self.data_lines;
        cfg.fault = self.fault.map(|fault| FaultConfig {
            seed: self.seed,
            fault,
        });
        cfg
    }

    /// Builds one trace source per core; cores start at staggered offsets
    /// of the shared cyclic trace.
    pub fn sources(&self) -> Vec<Box<dyn TraceSource>> {
        let ops: Vec<MemOp> = self.trace.iter().map(|op| op.to_mem_op()).collect();
        (0..self.cores)
            .map(|c| {
                let t = Trace::new(format!("fuzz-{:#x}", self.seed), ops.clone());
                Box::new(t.cursor(c * ops.len() / self.cores)) as Box<dyn TraceSource>
            })
            .collect()
    }

    /// Total accesses the case executes (the "≤ 32 accesses" budget a
    /// shrunk reproducer is judged by).
    pub fn total_accesses(&self) -> u64 {
        self.ops_per_core * self.cores as u64
    }
}

impl Shrink for FuzzCase {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let with = |f: &dyn Fn(&mut FuzzCase)| {
            let mut c = self.clone();
            f(&mut c);
            c
        };
        // Cheap knobs first (few candidates, big access-count wins):
        // fewer executed ops, one core, no fault, features off — then the
        // trace's own structure. A few cheap candidates per round keeps
        // the shrink budget from drowning in trace permutations.
        for ops in shrink_int(self.ops_per_core, 1) {
            out.push(with(&|c| c.ops_per_core = ops));
        }
        if self.cores > 1 {
            out.push(with(&|c| c.cores = 1));
        }
        if self.fault.is_some() {
            out.push(with(&|c| c.fault = None));
        }
        if self.xpt {
            out.push(with(&|c| c.xpt = false));
        }
        if self.inclusive {
            out.push(with(&|c| c.inclusive = false));
        }
        if self.prefetch > 0 {
            out.push(with(&|c| c.prefetch = 0));
        }
        if self.channels > 1 {
            out.push(with(&|c| c.channels = 1));
        }
        for shorter in shrink_vec(&self.trace, 1, |op| {
            let mut elems = Vec::new();
            for line in shrink_int(op.line, 0) {
                elems.push(FuzzOp { line, ..*op });
            }
            if op.gap > 0 {
                elems.push(FuzzOp { gap: 0, ..*op });
            }
            if op.dep {
                elems.push(FuzzOp { dep: false, ..*op });
            }
            elems
        }) {
            out.push(with(&|c| c.trace = shorter.clone()));
        }
        // A planted fault that survives must stay on a traced line;
        // dropping trace ops may have orphaned it — keep candidates valid.
        out.retain(|c| c.validate().is_ok());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::shrink::minimize;

    #[test]
    fn generate_is_deterministic_and_valid() {
        for seed in 0..50u64 {
            let a = FuzzCase::generate(seed);
            let b = FuzzCase::generate(seed);
            assert_eq!(a, b);
            a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        assert_ne!(FuzzCase::generate(1), FuzzCase::generate(2));
    }

    #[test]
    fn configs_expand_for_every_combo() {
        let case = FuzzCase::generate(3);
        for scheme in [
            SecurityScheme::NonSecure,
            SecurityScheme::CtrInLlc,
            SecurityScheme::Emcc,
        ] {
            for design in [
                CounterDesign::Monolithic,
                CounterDesign::Sc64,
                CounterDesign::Morphable,
            ] {
                let cfg = case.system_config(scheme, design);
                assert_eq!(cfg.cores, case.cores);
                assert_eq!(cfg.scheme, scheme);
                // Geometry must satisfy the cache constructors.
                let _ = emcc::cache::CacheConfig::new(cfg.l1_size, cfg.l1_ways);
                let _ = emcc::cache::CacheConfig::new(cfg.l2_size, cfg.l2_ways);
                let _ = emcc::cache::CacheConfig::new(cfg.llc_slice_size, cfg.llc_ways);
                let _ = emcc::cache::CacheConfig::new(cfg.mc_cache_size, cfg.mc_cache_ways);
            }
        }
    }

    #[test]
    fn shrink_candidates_stay_valid() {
        let case = FuzzCase::generate(9);
        for cand in case.shrink_candidates() {
            cand.validate().expect("shrink candidate invalid");
        }
    }

    #[test]
    fn shrinks_to_tiny_case_under_always_failing_oracle() {
        let case = FuzzCase::generate(7);
        let m = minimize(case, 20_000, |_| true);
        assert_eq!(m.value.trace.len(), 1);
        assert_eq!(m.value.cores, 1);
        assert_eq!(m.value.ops_per_core, 1);
        assert_eq!(m.value.fault, None);
        assert!(m.value.total_accesses() <= 32);
    }

    #[test]
    fn sources_match_core_count() {
        let case = FuzzCase::generate(4);
        assert_eq!(case.sources().len(), case.cores);
    }
}
