//! DRAM configuration (Table I).

use emcc_sim::Time;

// Table I's DDR4-3200 values, which no configuration varies.

/// Ranks per channel (Table I: 8).
pub const RANKS: usize = 8;
/// Banks per rank.
pub const BANKS_PER_RANK: usize = 16;
/// DDR4-3200 clock period, tCK: integrity-retry backoff is counted in it.
pub const DRAM_TCK: Time = Time::from_ps(625);
/// CAS latency, tCL (Table I: 13.75 ns).
pub const T_CL: Time = Time::from_ps(13_750);
/// RAS-to-CAS (activate) latency, tRCD (Table I: 13.75 ns).
pub const T_RCD: Time = Time::from_ps(13_750);
/// Precharge latency, tRP (Table I: 13.75 ns).
pub const T_RP: Time = Time::from_ps(13_750);
/// Refresh cycle time, tRFC (Table I: 350 ns).
pub const T_RFC: Time = Time::from_ns(350);
/// Refresh interval per rank, tREFI.
pub const T_REFI: Time = Time::from_ns(7_800);
/// One 64 B burst on the data bus: 3.2 GT/s × 8 B moves a line in 2.5 ns.
pub const BURST: Time = Time::from_ps(2_500);
/// Open rows auto-precharge after this idle time (Table I: 500 ns
/// timeout policy).
pub const ROW_TIMEOUT: Time = Time::from_ns(500);
/// FR-FCFS cap: how many younger row-hit requests may bypass the oldest
/// request per bank before age wins.
pub const FRFCFS_CAP: u32 = 4;
/// Write drain starts when the write queue reaches this fill.
pub const WRITE_HIGH_WATERMARK: usize = 192;
/// Write drain stops when the write queue falls back to this fill.
pub const WRITE_LOW_WATERMARK: usize = 64;

/// The DRAM parameters a run may vary; the timing is the constants above.
///
/// # Examples
///
/// ```
/// use emcc_dram::config::{DramConfig, T_CL};
///
/// let c = DramConfig::table_i(1);
/// assert_eq!(c.channels, 1);
/// assert_eq!(c.queue_capacity, 256);
/// assert_eq!(T_CL.as_ns_f64(), 13.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Number of channels (the paper evaluates 1 and 8).
    pub channels: usize,
    /// Read-queue and write-queue capacity, each (Table I: 256 entries).
    pub queue_capacity: usize,
}

impl DramConfig {
    /// The paper's Table I configuration with the given channel count.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is not a power of two (required by the
    /// bit-sliced channel interleaving).
    pub fn table_i(channels: usize) -> Self {
        assert!(
            channels.is_power_of_two(),
            "channels must be a power of two"
        );
        DramConfig {
            channels,
            queue_capacity: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies() {
        // §I: "DRAM latency (e.g., 16ns and 30ns under row buffer hit and
        // miss, respectively)".
        assert_eq!(T_CL + BURST, Time::from_ns_f64(16.25));
        assert_eq!(T_RCD + T_CL + BURST, Time::from_ns_f64(30.0));
        assert_eq!(T_RP + T_RCD + T_CL + BURST, Time::from_ns_f64(43.75));
        assert_eq!(RANKS * BANKS_PER_RANK, 128);
    }

    #[test]
    #[should_panic]
    fn non_pow2_channels_rejected() {
        let _ = DramConfig::table_i(3);
    }
}
