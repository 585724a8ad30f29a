//! DRAM configuration (Table I).

use emcc_sim::Time;

/// Static DRAM parameters.
///
/// # Examples
///
/// ```
/// use emcc_dram::DramConfig;
///
/// let c = DramConfig::table_i(1);
/// assert_eq!(c.channels, 1);
/// assert_eq!(c.ranks, 8);
/// assert_eq!(c.t_cl.as_ns_f64(), 13.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Number of channels (the paper evaluates 1 and 8).
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// CAS latency.
    pub t_cl: Time,
    /// RAS-to-CAS (activate) latency.
    pub t_rcd: Time,
    /// Precharge latency.
    pub t_rp: Time,
    /// Refresh cycle time.
    pub t_rfc: Time,
    /// Refresh interval per rank.
    pub t_refi: Time,
    /// One 64 B burst on the data bus (BL8 at the configured data rate).
    pub burst: Time,
    /// Open rows auto-precharge after this idle time (Table I: 500 ns
    /// timeout policy).
    pub row_timeout: Time,
    /// Read-queue and write-queue capacity, each (Table I: 256 entries).
    pub queue_capacity: usize,
    /// FR-FCFS cap: how many younger row-hit requests may bypass the
    /// oldest request per bank before age wins.
    pub frfcfs_cap: u32,
    /// Write drain starts when the write queue reaches this fill.
    pub write_high_watermark: usize,
    /// Write drain stops when the write queue falls back to this fill.
    pub write_low_watermark: usize,
}

impl DramConfig {
    /// The paper's Table I configuration with the given channel count.
    ///
    /// DDR4-3200: 3.2 GT/s × 8 B bus ⇒ a 64 B line takes 2.5 ns on the
    /// bus. tCL = tRCD = tRP = 13.75 ns, tRFC = 350 ns.
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
            ranks: 8,
            banks_per_rank: 16,
            t_cl: Time::from_ns_f64(13.75),
            t_rcd: Time::from_ns_f64(13.75),
            t_rp: Time::from_ns_f64(13.75),
            t_rfc: Time::from_ns(350),
            t_refi: Time::from_ns(7_800),
            burst: Time::from_ns_f64(2.5),
            row_timeout: Time::from_ns(500),
            queue_capacity: 256,
            frfcfs_cap: 4,
            write_high_watermark: 192,
            write_low_watermark: 64,
        }
    }

    /// Total banks per channel.
    pub fn banks(&self) -> usize {
        self.ranks * self.banks_per_rank
    }

    /// Latency of a row-buffer hit (CAS + burst).
    pub fn row_hit_latency(&self) -> Time {
        self.t_cl + self.burst
    }

    /// Latency of an access to a closed row (activate + CAS + burst).
    pub fn row_closed_latency(&self) -> Time {
        self.t_rcd + self.t_cl + self.burst
    }

    /// Latency of a row conflict (precharge + activate + CAS + burst).
    pub fn row_conflict_latency(&self) -> Time {
        self.t_rp + self.t_rcd + self.t_cl + self.burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies() {
        let c = DramConfig::table_i(1);
        // §I: "DRAM latency (e.g., 16ns and 30ns under row buffer hit and
        // miss, respectively)".
        assert_eq!(c.row_hit_latency(), Time::from_ns_f64(16.25));
        assert_eq!(c.row_closed_latency(), Time::from_ns_f64(30.0));
        assert_eq!(c.row_conflict_latency(), Time::from_ns_f64(43.75));
    }

    #[test]
    fn bank_geometry() {
        let c = DramConfig::table_i(1);
        assert_eq!(c.banks(), 128);
    }

    #[test]
    #[should_panic]
    fn non_pow2_channels_rejected() {
        let _ = DramConfig::table_i(3);
    }
}
