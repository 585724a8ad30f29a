//! System configuration (the paper's Table I).

use emcc_counters::CounterDesign;
use emcc_crypto::CryptoLatencies;
use emcc_dram::{DramConfig, FaultConfig};
use emcc_noc::Mesh;
use emcc_secmem::SecurityScheme;
use emcc_sim::Time;

// Table I values that no configuration varies. The NoC latency constants
// are `NocLatency::calibrated()` (Fig 3), the DRAM timing constants are in
// `emcc_dram::config`, and the integrity-retry policy's are in `crate::mc`.

/// Core clock in GHz (Table I: 3.2 GHz).
pub const CORE_GHZ: f64 = 3.2;
/// Reorder-buffer entries (Table I: 192).
pub const ROB_ENTRIES: u64 = 192;
/// Retire/issue width (Table I: 4-wide).
pub const WIDTH: u64 = 4;
/// Maximum outstanding L1 misses per core (MLP cap).
pub const MAX_OUTSTANDING_LOADS: usize = 16;
/// L1D latency (Table I: 2 ns).
pub const L1_LATENCY: Time = Time::from_ns(2);
/// L2 additive latency (Table I: 4 ns), shared with Fig 3's calibration.
pub const L2_LATENCY: Time = emcc_noc::latency::L2_LOOKUP;
/// LLC slice SRAM latency (tag + data array), shared with Fig 3's
/// calibration.
pub const LLC_SRAM_LATENCY: Time = emcc_noc::latency::SLICE_SRAM;
/// MC metadata cache latency (Table I: 3 ns).
pub const MC_CACHE_LATENCY: Time = Time::from_ns(3);
/// Decoding a split-counter block (extracting the minor counter and adding
/// major + minor): 3 ns for Morphable Counters (Table I).
pub const COUNTER_DECODE: Time = Time::from_ns(3);
/// The XOR of pad with ciphertext and the final MAC comparison: small and
/// fixed.
pub const XOR_AND_COMPARE: Time = Time::from_ns(1);
/// EMCC: delay of the serial counter lookup in L2 after a data miss (the
/// 'J' term of Fig 10a: spare-cycle lookup).
pub const CTR_LOOKUP_DELAY: Time = Time::from_ns(2);
/// EMCC: queue-delay threshold above which an L2 offloads decryption back
/// to the MC (§IV-D adaptive offload): compared against the latency an
/// L2-side decryption could save (≈ the MC→L2 response time).
pub const OFFLOAD_THRESHOLD: Time = Time::from_ns(17);
/// EMCC dynamic disable (§IV-F): minimum DRAM-served fills per 1000 L2
/// accesses for EMCC to stay on in the next window.
pub const INTENSITY_THRESHOLD_PER_MILLE: u64 = 10;
/// EMCC dynamic disable (§IV-F): sampling window in L2 accesses.
pub const INTENSITY_WINDOW: u64 = 4096;

/// EMCC-specific knobs (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EmccConfig {
    /// Counter-line budget in the L2 (§V: "EMCC only caches 32KB worth of
    /// counters in L2"); 32 KB = 512 lines.
    pub l2_counter_budget_lines: u64,
    /// Percent of chip AES bandwidth moved from the MC to the L2s
    /// (Fig 19 sweeps 20/40/50/80%; default 50%).
    pub aes_to_l2_pct: u32,
    /// How long L2 waits after a data miss before starting AES, so AES
    /// bandwidth is not wasted on LLC hits (§IV-D: "only starts
    /// calculating AES ... after waiting LLC hit latency").
    pub aes_start_wait: Time,
    /// §IV-F extension: periodically sample each L2's memory intensity
    /// (DRAM-served fills per L2 access) and turn EMCC off for that L2
    /// while the application is not memory-intensive, so counter caching
    /// wastes neither L2 space nor energy. Off by default (the paper's
    /// primary evaluation does not use it).
    pub dynamic_disable: bool,
}

impl Default for EmccConfig {
    fn default() -> Self {
        EmccConfig {
            l2_counter_budget_lines: 512,
            aes_to_l2_pct: 50,
            aes_start_wait: Time::from_ns(23),
            dynamic_disable: false,
        }
    }
}

/// Full system configuration.
///
/// Defaults reproduce Table I; experiment sweeps override single fields.
///
/// # Examples
///
/// ```
/// use emcc_system::SystemConfig;
/// use emcc_secmem::SecurityScheme;
///
/// let c = SystemConfig::table_i(SecurityScheme::Emcc);
/// assert_eq!(c.cores, 4);
/// assert_eq!(c.l2_size, 1024 * 1024);
/// assert_eq!(c.llc_total_size(), 8 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// Number of cores (Table I: 4).
    pub cores: usize,
    /// L1D size in bytes (Table I: 64 KB).
    pub l1_size: u64,
    /// L1D associativity (Table I: 8).
    pub l1_ways: u32,
    /// L2 size in bytes (Table I: 1 MB).
    pub l2_size: u64,
    /// L2 associativity (Table I: 8).
    pub l2_ways: u32,
    /// Number of LLC slices (mapped onto mesh core-tile positions).
    pub llc_slices: usize,
    /// Per-slice LLC size in bytes (16 slices × 512 KB = Table I's 8 MB).
    pub llc_slice_size: u64,
    /// LLC associativity (Table I: 16).
    pub llc_ways: u32,
    /// MC metadata (counter) cache size in bytes (Table I: 128 KB).
    pub mc_cache_size: u64,
    /// MC metadata cache associativity (Table I: 32).
    pub mc_cache_ways: u32,
    /// Cryptography latencies (AES 14 ns; the direct ciphers').
    pub crypto: CryptoLatencies,
    /// The secure-memory design point under test.
    pub scheme: SecurityScheme,
    /// Counter organization (Morphable for the primary baseline).
    pub counter_design: CounterDesign,
    /// DRAM configuration (Table I: DDR4-3200, 1 channel, 8 ranks).
    pub dram: DramConfig,
    /// Mesh topology (Fig 4).
    pub mesh: Mesh,
    /// LLC-miss prediction (Intel XPT-like, §IV-D / Fig 14).
    pub xpt_enabled: bool,
    /// §IV-F extension: inclusive LLC. DRAM fills are also inserted into
    /// the LLC (marked *encrypted & unverified* when the fill is EMCC
    /// ciphertext); L2 write-backs — clean or dirty — reset the bit with
    /// decrypted contents; LLC evictions back-invalidate L1/L2 copies.
    /// Default false (the paper's primary evaluation is non-inclusive).
    pub inclusive_llc: bool,
    /// L2 stride prefetcher degree (Table I: 2); 0 disables.
    pub l2_prefetch_degree: u32,
    /// EMCC knobs.
    pub emcc: EmccConfig,
    /// Protected data space in lines (128 GB).
    pub data_lines: u64,
    /// Hard wall-clock limit in simulated time (safety net).
    pub max_sim_time: Time,
    /// Optional DRAM fault injection (fault campaigns); `None` disables
    /// injection entirely and is behaviorally identical to the seed model.
    pub fault: Option<FaultConfig>,
}

impl SystemConfig {
    /// The paper's Table I configuration for a given scheme.
    pub fn table_i(scheme: SecurityScheme) -> Self {
        SystemConfig {
            cores: 4,
            l1_size: 64 * 1024,
            l1_ways: 8,
            l2_size: 1024 * 1024,
            l2_ways: 8,
            llc_slices: 16,
            llc_slice_size: 512 * 1024,
            llc_ways: 16,
            mc_cache_size: 128 * 1024,
            mc_cache_ways: 32,
            crypto: CryptoLatencies::paper_default(),
            scheme,
            counter_design: CounterDesign::Morphable,
            dram: DramConfig::table_i(1),
            mesh: Mesh::xeon_w3175x(),
            xpt_enabled: true,
            inclusive_llc: false,
            l2_prefetch_degree: 2,
            emcc: EmccConfig::default(),
            data_lines: 1 << 31,
            max_sim_time: Time::from_ms(400),
            fault: None,
        }
    }

    /// Total LLC capacity.
    pub fn llc_total_size(&self) -> u64 {
        self.llc_slice_size * self.llc_slices as u64
    }

    /// The mesh position (core-tile index) hosting LLC slice `s`: slices
    /// are spread evenly over the mesh's core tiles.
    pub fn slice_position(&self, s: usize) -> usize {
        s * self.mesh.num_cores() / self.llc_slices
    }

    /// The mesh position (core-tile index) hosting core `c`.
    pub fn core_position(&self, c: usize) -> usize {
        // Spread the (typically 4) simulated cores across the mesh so L2→
        // slice distances are representative, like pinning threads apart.
        c * self.mesh.num_cores() / self.cores
    }

    /// Builder-style AES-latency override (Fig 18).
    pub fn with_aes_latency(mut self, aes: Time) -> Self {
        self.crypto = self.crypto.with_aes(aes);
        self
    }

    /// Builder-style counter-cache-size override (Fig 20).
    pub fn with_mc_cache_size(mut self, bytes: u64) -> Self {
        self.mc_cache_size = bytes;
        self
    }

    /// Builder-style channel-count override (Fig 21/22).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.dram = DramConfig::table_i(channels);
        self
    }

    /// Builder-style fault-injection override (fault campaigns).
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Builder-style LLC-capacity override (Fig 7's 12 MB/core): sets the
    /// per-slice size so the total is `bytes`, adapting associativity so
    /// the set count stays a power of two (e.g. 3 MB slices become
    /// 24-way × 2048 sets).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` does not split into at least one line per slice.
    pub fn with_llc_total(mut self, bytes: u64) -> Self {
        self.llc_slice_size = bytes / self.llc_slices as u64;
        let lines = self.llc_slice_size / 64;
        assert!(lines > 0, "LLC slice too small");
        let target_sets = (lines / u64::from(self.llc_ways)).max(1);
        let sets = 1u64 << (63 - target_sets.leading_zeros() as u64);
        self.llc_ways = (lines / sets) as u32;
        let _ = emcc_cache::CacheConfig::new(self.llc_slice_size, self.llc_ways);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_defaults() {
        let c = SystemConfig::table_i(SecurityScheme::CtrInLlc);
        assert_eq!(c.cores, 4);
        assert_eq!(CORE_GHZ, 3.2);
        assert_eq!(ROB_ENTRIES, 192);
        assert_eq!(WIDTH, 4);
        assert_eq!(MAX_OUTSTANDING_LOADS, 16);
        assert_eq!(L1_LATENCY, Time::from_ns(2));
        assert_eq!(L2_LATENCY, Time::from_ns(4));
        assert_eq!(LLC_SRAM_LATENCY, Time::from_ns(4));
        assert_eq!(MC_CACHE_LATENCY, Time::from_ns(3));
        assert_eq!(COUNTER_DECODE, Time::from_ns(3));
        assert_eq!(CTR_LOOKUP_DELAY, Time::from_ns(2));
        assert_eq!(OFFLOAD_THRESHOLD, Time::from_ns(17));
        assert_eq!(INTENSITY_THRESHOLD_PER_MILLE, 10);
        assert_eq!(c.llc_total_size(), 8 * 1024 * 1024);
        assert_eq!(c.mc_cache_size, 128 * 1024);
        assert_eq!(c.crypto.aes, Time::from_ns(14));
        assert_eq!(c.dram.channels, 1);
        assert!(c.xpt_enabled);
    }

    #[test]
    fn positions_spread_over_mesh() {
        let c = SystemConfig::table_i(SecurityScheme::Emcc);
        let p: Vec<usize> = (0..c.cores).map(|i| c.core_position(i)).collect();
        assert_eq!(p, vec![0, 7, 14, 21]);
        assert_eq!(c.slice_position(15), 26);
        // All slice positions distinct.
        let sp: std::collections::HashSet<usize> =
            (0..c.llc_slices).map(|s| c.slice_position(s)).collect();
        assert_eq!(sp.len(), c.llc_slices);
    }

    #[test]
    fn builders() {
        let c = SystemConfig::table_i(SecurityScheme::Emcc)
            .with_aes_latency(Time::from_ns(25))
            .with_mc_cache_size(512 * 1024)
            .with_channels(8)
            .with_llc_total(48 * 1024 * 1024);
        assert_eq!(c.crypto.aes, Time::from_ns(25));
        assert_eq!(c.mc_cache_size, 512 * 1024);
        assert_eq!(c.dram.channels, 8);
        assert_eq!(c.llc_total_size(), 48 * 1024 * 1024);
    }

    #[test]
    fn config_is_a_usable_map_key() {
        use std::collections::HashMap;
        let a = SystemConfig::table_i(SecurityScheme::Emcc);
        let b = SystemConfig::table_i(SecurityScheme::Emcc);
        let mut c = SystemConfig::table_i(SecurityScheme::Emcc);
        c.emcc.aes_to_l2_pct = 80;
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut m = HashMap::new();
        m.insert(a, 1);
        assert_eq!(m.get(&b), Some(&1));
        assert_eq!(m.get(&c), None);
    }

    #[test]
    fn emcc_defaults_match_section_v() {
        let e = EmccConfig::default();
        assert_eq!(e.l2_counter_budget_lines * 64, 32 * 1024);
        assert_eq!(e.aes_to_l2_pct, 50);
    }
}
