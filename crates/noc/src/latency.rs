//! NoC latency model calibrated against the paper's measurements.
//!
//! One-way message latency is `base + per_hop × hops`, plus a payload
//! serialization term when the message carries a 64 B line (the paper's
//! 'M' effect in Figure 13: transmitting actual counters takes longer than
//! a request). The constants are calibrated so that
//!
//! * mean one-way L2→slice latency ≈ 7.5 ns (paper's Appendix),
//! * mean LLC hit latency (4 ns L2 lookup + request + 4 ns slice SRAM +
//!   response) ≈ 23 ns with a 16–29 ns spread (Figure 3),
//! * slice↔MC round trip ≈ 17 ns and L2↔MC round trip ≈ 34 ns (Table I).

use emcc_sim::{Histogram, Time};

use crate::mesh::{Mesh, Node};

/// L2 lookup (Table I: 4 ns additive), paid before a miss enters the NoC
/// (6 ns hit − 2 ns data read).
pub const L2_LOOKUP: Time = Time::from_ns(4);
/// LLC slice SRAM access, tag + data array (paper's appendix: ≤ 4 ns via
/// Cacti).
pub const SLICE_SRAM: Time = Time::from_ns(4);

/// Latency parameters for mesh traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NocLatency {
    /// Fixed cost of injection + ejection + destination queue.
    pub base: Time,
    /// Cost per router-to-router hop.
    pub per_hop: Time,
    /// Extra serialization for messages carrying a 64 B payload.
    pub payload: Time,
}

impl NocLatency {
    /// Constants calibrated to the paper's measurements (see module docs).
    pub fn calibrated() -> Self {
        NocLatency {
            base: Time::from_ps(3_100),
            per_hop: Time::from_ps(1_250),
            payload: Time::from_ps(500),
        }
    }

    /// One-way latency for a message crossing `hops` hops.
    pub fn one_way(&self, hops: u32, has_payload: bool) -> Time {
        let mut t = self.base + self.per_hop * u64::from(hops);
        if has_payload {
            t += self.payload;
        }
        t
    }

    /// One-way latency between two mesh nodes.
    pub fn between(&self, mesh: &Mesh, a: Node, b: Node, has_payload: bool) -> Time {
        self.one_way(mesh.hops(a, b), has_payload)
    }

    /// Mean one-way latency over all ordered core pairs (no payload).
    pub fn mean_core_to_core(&self, mesh: &Mesh) -> Time {
        Time::from_ns_f64(
            self.base.as_ns_f64() + self.per_hop.as_ns_f64() * mesh.mean_core_to_core_hops(),
        )
    }

    /// Figure 3's LLC hit latency for every ordered (core, slice) pair of
    /// `mesh`, each core tile hosting one slice: the L2 tag lookup, the
    /// request, the slice SRAM and the response carrying the line.
    pub fn llc_hit_latencies<'a>(&'a self, mesh: &'a Mesh) -> impl Iterator<Item = Time> + 'a {
        let n = mesh.num_cores();
        (0..n).flat_map(move |core| {
            (0..n).map(move |slice| {
                let hops = mesh.hops_core_to_core(core, slice);
                L2_LOOKUP + self.one_way(hops, false) + SLICE_SRAM + self.one_way(hops, true)
            })
        })
    }
}

/// Figure 3: the calibrated LLC hit latencies on the Xeon W-3175X mesh,
/// in 1 ns bins from 14 ns.
pub fn llc_hit_histogram() -> Histogram {
    let mut h = Histogram::new(14.0, 1.0, 26);
    for t in NocLatency::calibrated().llc_hit_latencies(&Mesh::xeon_w3175x()) {
        h.add_time(t);
    }
    h
}

impl Default for NocLatency {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_one_way_near_7_5ns() {
        let mesh = Mesh::xeon_w3175x();
        let lat = NocLatency::calibrated();
        let mean = lat.mean_core_to_core(&mesh).as_ns_f64();
        assert!((7.0..8.0).contains(&mean), "mean one-way {mean} ns");
    }

    #[test]
    fn mean_llc_hit_latency_near_23ns() {
        let mesh = Mesh::xeon_w3175x();
        let lat = NocLatency::calibrated();
        let n = mesh.num_cores();
        let total: f64 = lat.llc_hit_latencies(&mesh).map(Time::as_ns_f64).sum();
        let mean = total / (n * n) as f64;
        assert!((21.5..24.5).contains(&mean), "mean LLC hit {mean} ns");
    }

    #[test]
    fn llc_hit_spread_covers_paper_range() {
        let mesh = Mesh::xeon_w3175x();
        let lat = NocLatency::calibrated();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for t in lat.llc_hit_latencies(&mesh).map(Time::as_ns_f64) {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        // Paper Fig 3 support is 16..29 ns; allow modest excess at the
        // corner-to-corner tail.
        assert!((14.0..=18.0).contains(&lo), "min LLC hit {lo} ns");
        assert!((27.0..=38.0).contains(&hi), "max LLC hit {hi} ns");
    }

    #[test]
    fn slice_to_mc_round_trip_near_17ns() {
        // Table I: "NoC Lat Between LLC and MC 17ns". Requests carry no
        // payload; responses carry a line.
        let mesh = Mesh::xeon_w3175x();
        let lat = NocLatency::calibrated();
        let mut total = 0.0;
        for s in 0..mesh.num_cores() {
            let h = mesh.hops(Node::Core(s), Node::Mc(0));
            total += lat.one_way(h, false).as_ns_f64() + lat.one_way(h, true).as_ns_f64();
        }
        let mean = total / mesh.num_cores() as f64;
        assert!(
            (14.0..20.0).contains(&mean),
            "slice<->MC round trip {mean} ns"
        );
    }

    #[test]
    fn payload_adds_latency() {
        let lat = NocLatency::calibrated();
        assert!(lat.one_way(3, true) > lat.one_way(3, false));
    }

    #[test]
    fn zero_hops_still_costs_base() {
        let lat = NocLatency::calibrated();
        assert_eq!(lat.one_way(0, false), lat.base);
    }
}
