//! DDR4 DRAM timing model (the role Ramulator plays in the paper).
//!
//! Models the Table I memory system: DDR4-3200 with tCL = tRCD = tRP =
//! 13.75 ns, tRFC = 350 ns, a 500 ns row-buffer timeout policy, 256-entry
//! read/write queues, FR-FCFS-capped bank scheduling with write draining,
//! 8 ranks × 16 banks per channel, and either 1 or 8 channels with the
//! paper's bits-8..10 channel interleaving (§VI-D). The timing values are
//! constants in [`config`]; a [`DramConfig`] holds only the channel count
//! and the queue capacity.
//!
//! The model is request-level: each 64 B access occupies its bank for the
//! appropriate activate/column timing and the shared data bus for one
//! burst; queuing delay (enqueue → first command) is tracked per request
//! class, which is exactly what Figure 22 reports.
//!
//! A full queue delays a request and never refuses it:
//! [`Dram::enqueue`] cannot fail. A request that finds its channel's read
//! or write queue full waits in arrival order, enters the queue when an
//! entry issues, and its queuing delay counts from its arrival.
//!
//! # Examples
//!
//! ```
//! use emcc_dram::{Dram, DramConfig, DramRequest, RequestClass};
//! use emcc_sim::{LineAddr, Time};
//!
//! let mut dram = Dram::new(DramConfig::table_i(1));
//! let t0 = Time::ZERO;
//! dram.enqueue(DramRequest::read(1, LineAddr::new(0), RequestClass::Data), t0);
//! let mut issued = Vec::new();
//! dram.pump(t0, &mut issued);
//! assert_eq!(issued.len(), 1);
//! // A cold access pays activate + CAS + burst.
//! assert!(issued[0].done > Time::from_ns(27));
//! ```

pub mod channel;
pub mod config;
pub mod fault;
pub mod mapping;
pub mod request;
pub mod stats;

pub use channel::{Completion, PumpResult};
pub use config::DramConfig;
pub use fault::{Fault, FaultClass, FaultConfig, FaultEvent, FaultModel};
pub use mapping::AddressMapping;
pub use request::{DramRequest, RequestClass, RequestId};
pub use stats::DramStats;

use emcc_sim::Time;

use channel::DramChannel;

/// The full DRAM subsystem: one or more channels behind an address map.
#[derive(Debug)]
pub struct Dram {
    mapping: AddressMapping,
    channels: Vec<DramChannel>,
}

impl Dram {
    /// Creates a DRAM with the given configuration.
    pub fn new(config: DramConfig) -> Self {
        let mapping = AddressMapping::new(config.channels);
        let channels = (0..config.channels)
            .map(|_| DramChannel::new(config))
            .collect();
        Dram { mapping, channels }
    }

    /// The address mapping (exposed so the MC can route invalidations).
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Enqueues a request on the owning channel.
    ///
    /// Never refuses. A full read or write queue delays the request: it
    /// waits in arrival order and enters the queue when an entry issues,
    /// and the wait counts toward its queuing delay and its completion's
    /// `enqueued` time.
    pub fn enqueue(&mut self, req: DramRequest, now: Time) {
        let ch = self.mapping.channel_of(req.line);
        self.channels[ch].enqueue(req, now);
    }

    /// Runs all channel schedulers at `now`, appends the requests they
    /// issue (at most one per channel) to `completions` in channel order,
    /// and returns the earliest next wake-up across channels.
    ///
    /// The caller owns the buffer, so a caller that reuses it pumps
    /// without allocating.
    pub fn pump(&mut self, now: Time, completions: &mut Vec<Completion>) -> Option<Time> {
        let mut next_wake = None;
        for ch in &mut self.channels {
            let r = ch.pump(now);
            completions.extend(r.completion);
            next_wake = match (next_wake, r.next_wake) {
                (None, w) => w,
                (w, None) => w,
                (Some(a), Some(b)) => Some(a.min(b)),
            };
        }
        next_wake
    }

    /// Aggregated statistics across channels.
    pub fn stats(&self) -> DramStats {
        let mut s = DramStats::default();
        for ch in &self.channels {
            s.merge(ch.stats());
        }
        s
    }

    /// Clears accumulated statistics (bank/queue *state* is preserved) —
    /// used at the end of a warmup phase.
    pub fn reset_stats(&mut self) {
        for ch in &mut self.channels {
            ch.reset_stats();
        }
    }

    /// Total requests not yet issued (both directions, all channels,
    /// waiting ones included).
    pub fn queued(&self) -> usize {
        self.channels.iter().map(|c| c.queued()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcc_sim::LineAddr;

    fn read(id: u64, line: u64) -> DramRequest {
        DramRequest::read(id, LineAddr::new(line), RequestClass::Data)
    }

    #[test]
    fn cold_read_latency_is_activate_plus_cas() {
        let mut d = Dram::new(DramConfig::table_i(1));
        d.enqueue(read(1, 0), Time::ZERO);
        let mut r = Vec::new();
        d.pump(Time::ZERO, &mut r);
        let done = r[0].done;
        // tRCD + tCL + burst = 13.75 + 13.75 + 2.5 = 30 ns (the paper's
        // "row buffer miss ≈ 30ns").
        assert_eq!(done, Time::from_ns_f64(30.0));
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = Dram::new(DramConfig::table_i(1));
        d.enqueue(read(1, 0), Time::ZERO);
        let mut r1 = Vec::new();
        d.pump(Time::ZERO, &mut r1);
        let t1 = r1[0].done;
        // Second access to the same row, right after.
        d.enqueue(read(2, 1), t1);
        let mut r2 = Vec::new();
        d.pump(t1, &mut r2);
        let hit_latency = r2[0].done - t1;
        // tCL + burst = 16.25 ns (paper: "row buffer hit ≈ 16ns").
        assert_eq!(hit_latency, Time::from_ns_f64(16.25));
    }

    #[test]
    fn eight_channels_split_traffic() {
        let mut d = Dram::new(DramConfig::table_i(8));
        // Lines 0..8 with channel = line bits 2..4: lines 0..3 → ch 0,
        // 4..7 → ch 1.
        for i in 0..8 {
            d.enqueue(read(i, i), Time::ZERO);
        }
        let mut r = Vec::new();
        d.pump(Time::ZERO, &mut r);
        // At least two channels issued immediately.
        assert!(r.len() >= 2);
    }

    #[test]
    fn full_queue_delays_and_never_refuses() {
        let mut cfg = DramConfig::table_i(1);
        cfg.queue_capacity = 2;
        let mut d = Dram::new(cfg);
        // Eight reads to distinct rows arrive 1 ns apart; six find the
        // two-entry queue full and wait.
        for i in 0..8 {
            d.enqueue(read(i, i * 1_000_000), Time::from_ns(i));
        }
        assert_eq!(d.queued(), 8);
        let mut seen = Vec::new();
        let mut issued = Vec::new();
        let mut t = Time::from_ns(7);
        loop {
            let next_wake = d.pump(t, &mut issued);
            for c in issued.drain(..) {
                // Each completion reports its own admission time.
                assert_eq!(c.enqueued, Time::from_ns(c.id), "read {}", c.id);
                assert!(c.issued >= c.enqueued);
                seen.push(c.id);
            }
            match next_wake {
                Some(w) => t = w,
                None => break,
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>(), "each read exactly once");
        assert_eq!(d.queued(), 0);
        let stats = d.stats();
        let b = stats.bucket(RequestClass::Data, false);
        assert_eq!(b.count, 8);
        // The last arrival waited for six issues at one per 2.5 ns burst.
        assert!(b.queuing_ns.max().unwrap() >= 15.0);
    }
}
