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

/// A fault pinned to an address: fires on the `on_read`-th read (0-based)
/// of `line`, regardless of rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlantedFault {
    /// The target line.
    pub line: LineAddr,
    /// What to inject.
    pub class: FaultClass,
    /// Which read of the line triggers the injection (0 = first read).
    pub on_read: u64,
}

/// Fault-campaign configuration: per-class random rates plus explicitly
/// planted faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-read fault rolls.
    pub seed: u64,
    /// Per-[`FaultClass`] probability (by [`FaultClass::index`]) that a
    /// DRAM read completion of an eligible line injects that fault.
    pub rates: [f64; 5],
    /// Eligible traffic: `[data, counter, tree-node]`. Write and overflow
    /// traffic is never sampled (corruption there is observed via later
    /// reads of the same lines).
    pub targets: [bool; 3],
    /// Address-directed faults, applied on top of the random rates.
    pub planted: Vec<PlantedFault>,
}

// Fault configurations are part of `SystemConfig`, which serves as a
// run-cache memoization key. The rates are always finite literals from a
// sweep (never NaN), so bitwise equality/hashing is exact and `Eq` is
// sound — the same reasoning as `EmccConfig`.
impl Eq for FaultConfig {}

impl std::hash::Hash for FaultConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let FaultConfig {
            seed,
            rates,
            targets,
            planted,
        } = self;
        seed.hash(state);
        for r in rates {
            r.to_bits().hash(state);
        }
        targets.hash(state);
        planted.hash(state);
    }
}

impl FaultConfig {
    /// A configuration injecting only `class`, uniformly at `rate` per
    /// eligible read, on all line kinds.
    pub fn uniform(seed: u64, class: FaultClass, rate: f64) -> Self {
        let mut rates = [0.0; 5];
        rates[class.index()] = rate;
        FaultConfig {
            seed,
            rates,
            targets: [true; 3],
            planted: Vec::new(),
        }
    }

    /// A configuration with a single planted fault and no random rates.
    pub fn planted_at(seed: u64, line: LineAddr, class: FaultClass, on_read: u64) -> Self {
        FaultConfig {
            seed,
            rates: [0.0; 5],
            targets: [true; 3],
            planted: vec![PlantedFault {
                line,
                class,
                on_read,
            }],
        }
    }

    /// Builder-style restriction to specific line kinds
    /// (`[data, counter, tree-node]`).
    pub fn with_targets(mut self, targets: [bool; 3]) -> Self {
        self.targets = targets;
        self
    }

    fn class_eligible(&self, class: RequestClass) -> bool {
        match class {
            RequestClass::Data => self.targets[0],
            RequestClass::Counter => self.targets[1],
            RequestClass::TreeNode => self.targets[2],
            RequestClass::OverflowL0 | RequestClass::OverflowHigher => false,
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
    /// Reads observed per line (indexes planted faults and rate rolls).
    reads: HashMap<LineAddr, u64>,
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
            corrupted: HashMap::new(),
            stuck: HashSet::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Decides whether a read completion of `line` returns corrupted
    /// contents. Call exactly once per DRAM read completion.
    pub fn on_read(&mut self, line: LineAddr, class: RequestClass) -> Option<FaultEvent> {
        let n = self.reads.entry(line).or_insert(0);
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

        if !self.cfg.class_eligible(class) {
            return None;
        }

        // Planted faults fire exactly on their scheduled read.
        let planted = self
            .cfg
            .planted
            .iter()
            .find(|p| p.line == line && p.on_read == nth)
            .map(|p| p.class);
        let injected = planted.or_else(|| self.roll(line, nth));
        let class = injected?;
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

    /// Stateless per-(line, nth-read) fault roll: one uniform draw per
    /// class, in class order, first hit wins.
    fn roll(&self, line: LineAddr, nth: u64) -> Option<FaultClass> {
        let key = self.cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ line.get().wrapping_mul(0xD129_0163_2BF6_D8B7)
            ^ nth.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut rng = Rng64::new(key);
        for class in FaultClass::all() {
            let rate = self.cfg.rates[class.index()];
            if rate > 0.0 && rng.chance(rate) {
                return Some(class);
            }
        }
        None
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
        let mut m = FaultModel::new(FaultConfig::uniform(1, FaultClass::BitFlip, 0.0));
        for i in 0..1000 {
            assert!(data_read(&mut m, i).is_none());
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut m = FaultModel::new(FaultConfig::uniform(2, FaultClass::TransientRead, 0.1));
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
        let cfg = FaultConfig::uniform(3, FaultClass::BitFlip, 0.05);
        let mut fwd = FaultModel::new(cfg.clone());
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
    fn target_mask_filters_classes() {
        let cfg =
            FaultConfig::uniform(5, FaultClass::BitFlip, 1.0).with_targets([false, true, false]);
        let mut m = FaultModel::new(cfg);
        assert!(m.on_read(LineAddr::new(1), RequestClass::Data).is_none());
        assert!(m
            .on_read(LineAddr::new(1), RequestClass::TreeNode)
            .is_none());
        assert!(m.on_read(LineAddr::new(1), RequestClass::Counter).is_some());
        // Overflow traffic is never sampled.
        assert!(m
            .on_read(LineAddr::new(2), RequestClass::OverflowL0)
            .is_none());
    }
}
