//! Timing invariants of the DRAM model under randomized load.

use emcc_dram::{Dram, DramConfig, DramRequest, RequestClass};
use emcc_sim::{LineAddr, Rng64, Time};

/// Drives a channel with `n` random requests, returning completions in
/// issue order.
fn drive(channels: usize, n: u64, seed: u64) -> Vec<(u64, Time, bool)> {
    let mut dram = Dram::new(DramConfig::table_i(channels));
    let mut rng = Rng64::new(seed);
    let mut out = Vec::new();
    let mut done = Vec::new();
    let mut now = Time::ZERO;
    let mut issued = 0u64;
    while out.len() < n as usize {
        // Feed a new request every ~5 ns until all are queued.
        if issued < n {
            let line = LineAddr::new(rng.below(1 << 26));
            let is_write = rng.chance(0.3);
            let req = if is_write {
                DramRequest::write(issued, line, RequestClass::Data)
            } else {
                DramRequest::read(issued, line, RequestClass::Data)
            };
            dram.enqueue(req, now);
            issued += 1;
        }
        let next_wake = dram.pump(now, &mut done);
        for c in done.drain(..) {
            out.push((c.id, c.done, c.is_write));
        }
        now = match next_wake {
            Some(w) if w > now => w,
            _ => now + Time::from_ns(5),
        };
    }
    out
}

#[test]
fn single_channel_bus_is_serialized() {
    // One channel has one data bus: completions must be spaced by at
    // least one burst (2.5 ns).
    let mut dones: Vec<Time> = drive(1, 400, 7).into_iter().map(|(_, d, _)| d).collect();
    dones.sort();
    for w in dones.windows(2) {
        let gap = w[1] - w[0];
        assert!(
            gap >= Time::from_ns_f64(2.5),
            "bus double-booked: gap {gap}"
        );
    }
}

#[test]
fn all_requests_complete_exactly_once() {
    let comps = drive(1, 500, 13);
    let mut ids: Vec<u64> = comps.iter().map(|c| c.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 500, "every request completes exactly once");
}

#[test]
fn completions_never_precede_minimum_latency() {
    // No access can beat a row-buffer hit (tCL + burst = 16.25 ns).
    for (_, done, _) in drive(1, 300, 21) {
        assert!(
            done >= Time::from_ns_f64(16.25),
            "impossible latency {done}"
        );
    }
}

#[test]
fn eight_channels_interleave_independent_buses() {
    // Eight buses allow completions closer together than one burst.
    let mut dones: Vec<Time> = drive(8, 400, 7).into_iter().map(|(_, d, _)| d).collect();
    dones.sort();
    let tight = dones
        .windows(2)
        .filter(|w| w[1] - w[0] < Time::from_ns_f64(2.5))
        .count();
    assert!(tight > 0, "8 channels should overlap bursts across buses");
}

#[test]
fn deterministic_under_same_seed() {
    let a = drive(1, 200, 99);
    let b = drive(1, 200, 99);
    assert_eq!(a, b);
}
