//! Deterministic DRAM fault injection.
//!
//! The paper's safety argument (§IV-D) is that any corruption of memory —
//! data, its co-located MAC, counter blocks, or integrity-tree nodes — is
//! *detected* by MAC verification, raising an ECC-style interrupt whether
//! verification runs at the MC or, under EMCC, in the L2. This module
//! supplies the adversary/fault side of that argument for the timing
//! simulator: a seeded, fully deterministic [`FaultModel`] that decides,
//! per DRAM read completion, whether the returned line is corrupted.
//!
//! Fault decisions are pure functions of `(seed, line, nth-read-of-line,
//! class)` — no sequential RNG state — so the injected fault set does not
//! depend on request interleaving and campaigns are reproducible across
//! machines and worker counts.
//!
//! Semantics by [`FaultClass`]:
//!
//! * [`BitFlip`](FaultClass::BitFlip) — a stored cell flipped; the line
//!   stays corrupted until the next write overwrites it.
//! * [`MacCorrupt`](FaultClass::MacCorrupt) — same persistence, but the
//!   flip lands in the line's co-located 56-bit MAC rather than its data.
//! * [`StuckLine`](FaultClass::StuckLine) — a hard stuck-at fault; writes
//!   do *not* repair it, every subsequent read of the line is corrupt.
//! * [`Replay`](FaultClass::Replay) — the line reverts to a stale
//!   (ciphertext, MAC) snapshot; persists until overwritten.
//! * [`TransientRead`](FaultClass::TransientRead) — a one-off read error
//!   (bus/sense glitch); the stored line is intact and a re-read succeeds.
//!
//! # Examples
//!
//! ```
//! use emcc_dram::{FaultClass, FaultConfig, FaultModel, RequestClass};
//! use emcc_sim::LineAddr;
//!
//! // Corrupt the 3rd read (index 2) of line 9 with a bit flip.
//! let cfg = FaultConfig::planted_at(7, LineAddr::new(9), FaultClass::BitFlip, 2);
//! let mut model = FaultModel::new(cfg);
//! let read = |m: &mut FaultModel| m.on_read(LineAddr::new(9), RequestClass::Data);
//! assert!(read(&mut model).is_none());
//! assert!(read(&mut model).is_none());
//! assert!(read(&mut model).is_some()); // injected here ...
//! assert!(read(&mut model).is_some()); // ... and persistent after.
//! model.on_write(LineAddr::new(9));
//! assert!(read(&mut model).is_none()); // overwrite repairs a bit flip.
//! ```

use std::collections::{HashMap, HashSet};

use emcc_sim::{LineAddr, Rng64};

use crate::request::RequestClass;

/// The fault classes the model can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultClass {
    /// A flipped bit in the stored data (repaired by the next write).
    BitFlip,
    /// A flipped bit in the line's co-located MAC (repaired by the next
    /// write).
    MacCorrupt,
    /// A hard stuck-at fault: never repaired, every read is corrupt.
    StuckLine,
    /// The line reverts to a stale snapshot (replay attack / lost write).
    Replay,
    /// A transient read error; the stored line is intact.
    TransientRead,
}

impl FaultClass {
    /// All classes, in report order.
    pub const fn all() -> [FaultClass; 5] {
        [
            FaultClass::BitFlip,
            FaultClass::MacCorrupt,
            FaultClass::StuckLine,
            FaultClass::Replay,
            FaultClass::TransientRead,
        ]
    }

    /// Index into per-class stat arrays.
    pub const fn index(self) -> usize {
        match self {
            FaultClass::BitFlip => 0,
            FaultClass::MacCorrupt => 1,
            FaultClass::StuckLine => 2,
            FaultClass::Replay => 3,
            FaultClass::TransientRead => 4,
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultClass::BitFlip => "bit-flip",
            FaultClass::MacCorrupt => "mac-corrupt",
            FaultClass::StuckLine => "stuck-line",
            FaultClass::Replay => "replay",
            FaultClass::TransientRead => "transient-read",
        };
        f.write_str(s)
    }
}

/// The one fault a run injects: its class, and where or how often it
/// strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Strikes the `on_read`-th read (0 = first) of `line`.
    Planted {
        /// The target line.
        line: LineAddr,
        /// What to inject.
        class: FaultClass,
        /// Which read of the line triggers the injection.
        on_read: u64,
    },
    /// Strikes each read of a data line, counter block or tree node with
    /// probability `rate_ppm` / 1,000,000.
    Uniform {
        /// What to inject.
        class: FaultClass,
        /// The per-read rate in parts per million.
        rate_ppm: u32,
    },
}

/// Fault-campaign configuration: one seeded [`Fault`]. Write and overflow
/// traffic is never sampled (corruption there is observed via later reads
/// of the same lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Seed for the per-read fault rolls.
    pub seed: u64,
    /// The injected fault.
    pub fault: Fault,
}

impl FaultConfig {
    /// A configuration injecting `class` on each eligible read with
    /// probability `rate_ppm` / 1,000,000.
    pub fn uniform(seed: u64, class: FaultClass, rate_ppm: u32) -> Self {
        FaultConfig {
            seed,
            fault: Fault::Uniform { class, rate_ppm },
        }
    }

    /// A configuration injecting `class` on the `on_read`-th read of
    /// `line`.
    pub fn planted_at(seed: u64, line: LineAddr, class: FaultClass, on_read: u64) -> Self {
        FaultConfig {
            seed,
            fault: Fault::Planted {
                line,
                class,
                on_read,
            },
        }
    }
}

/// One corrupted read observed by the memory pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The fault behind the corruption.
    pub class: FaultClass,
    /// True the first time this fault manifests; false on re-reads of an
    /// already-corrupted line (retries, stuck lines).
    pub fresh: bool,
}

/// The deterministic fault injector.
///
/// Owned by the memory pipeline; consulted once per DRAM read completion
/// ([`on_read`](Self::on_read)) and once per write completion
/// ([`on_write`](Self::on_write), which repairs everything but stuck
/// lines).
#[derive(Debug, Clone)]
pub struct FaultModel {
    cfg: FaultConfig,
    /// Reads observed per line under a [`Fault::Uniform`] (they index its
    /// rolls); empty under a planted fault.
    reads: HashMap<LineAddr, u64>,
    /// Reads of a [`Fault::Planted`]'s target line.
    target_reads: u64,
    /// Lines currently holding corrupted contents (repaired by writes).
    corrupted: HashMap<LineAddr, FaultClass>,
    /// Hard-stuck lines (never repaired).
    stuck: HashSet<LineAddr>,
}

impl FaultModel {
    /// Creates a model from a configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultModel {
            cfg,
            reads: HashMap::new(),
            target_reads: 0,
            corrupted: HashMap::new(),
            stuck: HashSet::new(),
        }
    }

    /// Decides whether a read completion of `line` returns corrupted
    /// contents. Call exactly once per DRAM read completion.
    pub fn on_read(&mut self, line: LineAddr, class: RequestClass) -> Option<FaultEvent> {
        let n = match self.cfg.fault {
            // A planted fault strikes, and so corrupts, its target alone.
            Fault::Planted { line: target, .. } if target != line => return None,
            Fault::Planted { .. } => &mut self.target_reads,
            Fault::Uniform { .. } => self.reads.entry(line).or_insert(0),
        };
        let nth = *n;
        *n += 1;

        // Existing corruption dominates: the stored line is already bad.
        if self.stuck.contains(&line) {
            return Some(FaultEvent {
                class: FaultClass::StuckLine,
                fresh: false,
            });
        }
        if let Some(&c) = self.corrupted.get(&line) {
            return Some(FaultEvent {
                class: c,
                fresh: false,
            });
        }

        if matches!(
            class,
            RequestClass::OverflowL0 | RequestClass::OverflowHigher
        ) {
            return None;
        }

        let class = match self.cfg.fault {
            Fault::Planted { class, on_read, .. } => (on_read == nth).then_some(class),
            Fault::Uniform { class, rate_ppm } => self.roll(line, nth, rate_ppm).then_some(class),
        }?;
        self.inject(line, class);
        Some(FaultEvent { class, fresh: true })
    }

    /// Notes a write completion: overwrites repair soft corruption but not
    /// stuck-at faults.
    pub fn on_write(&mut self, line: LineAddr) {
        self.corrupted.remove(&line);
    }

    fn inject(&mut self, line: LineAddr, class: FaultClass) {
        match class {
            FaultClass::StuckLine => {
                self.stuck.insert(line);
            }
            FaultClass::TransientRead => {}
            FaultClass::BitFlip | FaultClass::MacCorrupt | FaultClass::Replay => {
                self.corrupted.insert(line, class);
            }
        }
    }

    /// Stateless per-(line, nth-read) fault roll: one uniform draw, none
    /// at rate 0.
    fn roll(&self, line: LineAddr, nth: u64, rate_ppm: u32) -> bool {
        let key = self.cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ line.get().wrapping_mul(0xD129_0163_2BF6_D8B7)
            ^ nth.wrapping_mul(0xA24B_AED4_963E_E407);
        rate_ppm > 0 && Rng64::new(key).chance(f64::from(rate_ppm) / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_read(m: &mut FaultModel, line: u64) -> Option<FaultEvent> {
        m.on_read(LineAddr::new(line), RequestClass::Data)
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let mut m = FaultModel::new(FaultConfig::uniform(1, FaultClass::BitFlip, 0));
        for i in 0..1000 {
            assert!(data_read(&mut m, i).is_none());
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut m = FaultModel::new(FaultConfig::uniform(2, FaultClass::TransientRead, 100_000));
        let mut hits = 0;
        for i in 0..10_000 {
            if data_read(&mut m, i).is_some() {
                hits += 1;
            }
        }
        assert!((700..1300).contains(&hits), "got {hits} faults at 10%");
    }

    #[test]
    fn decisions_are_order_independent() {
        let cfg = FaultConfig::uniform(3, FaultClass::BitFlip, 50_000);
        let mut fwd = FaultModel::new(cfg);
        let mut rev = FaultModel::new(cfg);
        let forward: Vec<bool> = (0..500).map(|i| data_read(&mut fwd, i).is_some()).collect();
        let mut backward: Vec<(u64, bool)> = (0..500)
            .rev()
            .map(|i| (i, data_read(&mut rev, i).is_some()))
            .collect();
        backward.sort_by_key(|&(i, _)| i);
        let backward: Vec<bool> = backward.into_iter().map(|(_, f)| f).collect();
        assert_eq!(forward, backward, "fault rolls must not depend on order");
    }

    #[test]
    fn persistent_faults_survive_until_write() {
        for class in [
            FaultClass::BitFlip,
            FaultClass::MacCorrupt,
            FaultClass::Replay,
        ] {
            let mut m = FaultModel::new(FaultConfig::planted_at(1, LineAddr::new(4), class, 0));
            assert_eq!(data_read(&mut m, 4).map(|e| e.fresh), Some(true));
            assert_eq!(data_read(&mut m, 4).map(|e| e.fresh), Some(false));
            m.on_write(LineAddr::new(4));
            assert!(
                data_read(&mut m, 4).is_none(),
                "{class} must repair on write"
            );
        }
    }

    #[test]
    fn stuck_lines_survive_writes() {
        let mut m = FaultModel::new(FaultConfig::planted_at(
            1,
            LineAddr::new(8),
            FaultClass::StuckLine,
            0,
        ));
        assert!(data_read(&mut m, 8).is_some());
        m.on_write(LineAddr::new(8));
        let e = data_read(&mut m, 8).expect("stuck line stays corrupt");
        assert_eq!(e.class, FaultClass::StuckLine);
        assert!(!e.fresh);
    }

    #[test]
    fn transient_faults_clear_on_reread() {
        let mut m = FaultModel::new(FaultConfig::planted_at(
            1,
            LineAddr::new(2),
            FaultClass::TransientRead,
            1,
        ));
        assert!(data_read(&mut m, 2).is_none());
        assert!(data_read(&mut m, 2).is_some()); // the scheduled glitch
        assert!(data_read(&mut m, 2).is_none()); // retry succeeds
    }

    #[test]
    fn planted_faults_count_only_their_target() {
        let mut m = FaultModel::new(FaultConfig::planted_at(
            1,
            LineAddr::new(3),
            FaultClass::BitFlip,
            1,
        ));
        for line in [5, 3, 5, 6] {
            assert!(data_read(&mut m, line).is_none());
        }
        assert!(m.reads.is_empty(), "a planted fault keeps no per-line map");
        assert!(data_read(&mut m, 3).is_some()); // the target's 2nd read
        assert!(data_read(&mut m, 5).is_none());
    }

    #[test]
    fn overflow_traffic_is_never_sampled() {
        let mut m = FaultModel::new(FaultConfig::uniform(5, FaultClass::BitFlip, 1_000_000));
        for class in [RequestClass::OverflowL0, RequestClass::OverflowHigher] {
            assert!(m.on_read(LineAddr::new(2), class).is_none());
        }
        for (line, class) in [
            (3, RequestClass::Data),
            (4, RequestClass::Counter),
            (5, RequestClass::TreeNode),
        ] {
            assert!(m.on_read(LineAddr::new(line), class).is_some());
        }
    }
}
