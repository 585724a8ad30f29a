//! Per-counter-block state: increments, morphing, overflow/rebase.
//!
//! Counter *values* presented to the crypto layer are `major × 128 + minor`
//! for split designs, so values stay strictly monotonic across rebases
//! (minors never exceed 127). Monolithic counters are plain 56-bit values.

use crate::design::CounterDesign;
use crate::format::{MorphFormat, MORPHABLE_MINORS};

/// Outcome of incrementing one counter in a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementResult {
    /// The counter's value after the increment (and any rebase).
    pub new_counter: u64,
    /// Set when the increment forced a rebase; the whole covered region
    /// must be re-encrypted.
    pub overflow: Option<OverflowInfo>,
    /// Set when the block changed storage format without rebasing
    /// (Morphable only).
    pub morphed: Option<MorphFormat>,
}

/// Details of a split-counter overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowInfo {
    /// How many 64 B blocks must be re-encrypted (the design's coverage).
    pub blocks_to_reencrypt: u64,
}

/// In-memory state of one counter block.
///
/// # Examples
///
/// ```
/// use emcc_counters::{CounterBlock, CounterDesign};
///
/// let mut b = CounterBlock::new(CounterDesign::Sc64);
/// assert_eq!(b.counter(3), 0);
/// let r = b.increment(3);
/// assert_eq!(r.new_counter, 1);
/// assert!(r.overflow.is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterBlock {
    design: CounterDesign,
    major: u64,
    minors: Vec<u16>,
    /// Monolithic designs store full values here instead of minors.
    full: Vec<u64>,
    format: MorphFormat,
}

/// Minor counters occupy 7 bits of value space at most (Zcc7 / SC-64), so
/// `major` advances in units of 128 to keep values unique across rebases.
const MINOR_SPAN: u64 = 128;

/// `(index, value)` of every element of `now` that differs from `was`.
/// Eight elements compare as one array (a vector compare), and only a
/// differing group is walked, so one difference in 128 slots costs
/// sixteen compares rather than 128 branches.
fn changed<T: Copy + PartialEq + Into<u64>>(now: &[T], was: &[T]) -> Vec<(u32, u64)> {
    assert_eq!(now.len(), was.len(), "blocks of different designs");
    let mut out = Vec::new();
    let mut walk = |from: usize, to: usize| {
        for i in from..to {
            if now[i] != was[i] {
                out.push((i as u32, now[i].into()));
            }
        }
    };
    let (now8, _) = now.as_chunks::<8>();
    let (was8, _) = was.as_chunks::<8>();
    for (group, (n, w)) in now8.iter().zip(was8).enumerate() {
        if n != w {
            walk(8 * group, 8 * group + 8);
        }
    }
    walk(8 * now8.len(), now.len());
    out
}

impl CounterBlock {
    /// Creates an all-zero counter block.
    pub fn new(design: CounterDesign) -> Self {
        let n = design.coverage() as usize;
        match design {
            CounterDesign::Monolithic => CounterBlock {
                design,
                major: 0,
                minors: Vec::new(),
                full: vec![0; n],
                format: MorphFormat::Uniform3,
            },
            CounterDesign::Sc64 | CounterDesign::Morphable => CounterBlock {
                design,
                major: 0,
                minors: vec![0; n],
                full: Vec::new(),
                format: MorphFormat::Uniform3,
            },
        }
    }

    /// The design this block belongs to.
    pub fn design(&self) -> CounterDesign {
        self.design
    }

    /// Current storage format (meaningful for Morphable; `Uniform3`
    /// otherwise).
    pub fn format(&self) -> MorphFormat {
        self.format
    }

    /// Current major counter (0 for monolithic).
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The crypto-visible counter value for `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the design's coverage.
    pub fn counter(&self, slot: usize) -> u64 {
        match self.design {
            CounterDesign::Monolithic => self.full[slot],
            _ => self.major * MINOR_SPAN + u64::from(self.minors[slot]),
        }
    }

    /// Increments the counter for `slot`, handling morph and overflow.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the design's coverage.
    pub fn increment(&mut self, slot: usize) -> IncrementResult {
        match self.design {
            CounterDesign::Monolithic => {
                self.full[slot] += 1;
                IncrementResult {
                    new_counter: self.full[slot],
                    overflow: None,
                    morphed: None,
                }
            }
            CounterDesign::Sc64 => {
                if self.minors[slot] == 127 {
                    self.rebase();
                    self.minors[slot] = 1;
                    IncrementResult {
                        new_counter: self.counter(slot),
                        overflow: Some(OverflowInfo {
                            blocks_to_reencrypt: self.design.coverage(),
                        }),
                        morphed: None,
                    }
                } else {
                    self.minors[slot] += 1;
                    IncrementResult {
                        new_counter: self.counter(slot),
                        overflow: None,
                        morphed: None,
                    }
                }
            }
            CounterDesign::Morphable => {
                debug_assert_eq!(self.minors.len(), MORPHABLE_MINORS);
                self.minors[slot] += 1;
                match MorphFormat::fitting(&self.minors) {
                    Some(f) if f == self.format => IncrementResult {
                        new_counter: self.counter(slot),
                        overflow: None,
                        morphed: None,
                    },
                    Some(f) => {
                        self.format = f;
                        IncrementResult {
                            new_counter: self.counter(slot),
                            overflow: None,
                            morphed: Some(f),
                        }
                    }
                    None => {
                        self.rebase();
                        self.minors[slot] = 1;
                        self.format = MorphFormat::Uniform3;
                        IncrementResult {
                            new_counter: self.counter(slot),
                            overflow: Some(OverflowInfo {
                                blocks_to_reencrypt: self.design.coverage(),
                            }),
                            morphed: Some(MorphFormat::Uniform3),
                        }
                    }
                }
            }
        }
    }

    /// Whether [`Self::increment`] of `slot` would rebase the block,
    /// decided from the current state without cloning or mutating it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the design's coverage.
    pub fn would_overflow(&self, slot: usize) -> bool {
        match self.design {
            CounterDesign::Monolithic => {
                assert!(slot < self.full.len(), "slot {slot} outside the block");
                false
            }
            CounterDesign::Sc64 => self.minors[slot] == 127,
            CounterDesign::Morphable => {
                // The minors as they would be after the increment. Narrow
                // accumulators keep both scans in vector registers.
                let old = self.minors[slot];
                let nonzero = self.minors.iter().map(|&m| u16::from(m > 0)).sum::<u16>()
                    + u16::from(old == 0);
                let max = self.minors.iter().fold(old + 1, |a, &m| a.max(m));
                MorphFormat::fitting_counts(usize::from(nonzero), max).is_none()
            }
        }
    }

    /// Rebase: bump the major counter and clear minors. All covered blocks
    /// must be re-encrypted with their new (strictly larger) counters.
    fn rebase(&mut self) {
        self.major += 1;
        self.minors.iter_mut().for_each(|m| *m = 0);
    }

    /// Minor counter values (empty for monolithic). Exposed for encoding
    /// and for tests.
    pub fn minors(&self) -> &[u16] {
        &self.minors
    }

    /// Per-slot raw storage, one value per covered block: minors for split
    /// designs, full counter values for monolithic. Together with
    /// [`Self::major`] and [`Self::format`] this is the block's complete
    /// persistent state; [`Self::restore`] is the inverse.
    pub fn raw_slots(&self) -> Vec<u64> {
        match self.design {
            CounterDesign::Monolithic => self.full.clone(),
            _ => self.minors.iter().map(|&m| u64::from(m)).collect(),
        }
    }

    /// `(slot, raw value)` of every slot whose raw value differs from
    /// `before`'s, in slot order, an absent `before` counting as all zeros:
    /// what the increments between two states of one block changed. A
    /// plain increment changes one slot; a rebase, every slot it rewrote.
    ///
    /// # Panics
    ///
    /// Panics if `before` belongs to another design.
    pub fn changed_slots(&self, before: Option<&CounterBlock>) -> Vec<(u32, u64)> {
        let zero;
        let before = match before {
            Some(b) => b,
            None => {
                zero = CounterBlock::new(self.design);
                &zero
            }
        };
        match self.design {
            CounterDesign::Monolithic => changed(&self.full, &before.full),
            _ => changed(&self.minors, &before.minors),
        }
    }

    /// Rebuilds a block from persisted state, validating every field so a
    /// corrupt journal or checkpoint is *detected* rather than silently
    /// installing impossible counter state.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: wrong slot count,
    /// unknown format tag, a minor exceeding the design's minor span, or a
    /// Morphable payload that does not fit its declared format.
    pub fn restore(
        design: CounterDesign,
        major: u64,
        format_tag: u8,
        slots: &[u64],
    ) -> Result<Self, String> {
        let n = design.coverage() as usize;
        if slots.len() != n {
            return Err(format!(
                "counter block for {design:?} needs {n} slots, got {}",
                slots.len()
            ));
        }
        let format = MorphFormat::from_tag(format_tag)
            .ok_or_else(|| format!("unknown morph format tag {format_tag}"))?;
        match design {
            CounterDesign::Monolithic => {
                if major != 0 {
                    return Err(format!("monolithic block has nonzero major {major}"));
                }
                Ok(CounterBlock {
                    design,
                    major: 0,
                    minors: Vec::new(),
                    full: slots.to_vec(),
                    format: MorphFormat::Uniform3,
                })
            }
            CounterDesign::Sc64 | CounterDesign::Morphable => {
                let mut minors = Vec::with_capacity(n);
                for (i, &s) in slots.iter().enumerate() {
                    if s >= MINOR_SPAN {
                        return Err(format!("slot {i} minor {s} exceeds span {MINOR_SPAN}"));
                    }
                    minors.push(s as u16);
                }
                if design == CounterDesign::Morphable {
                    let fits = minors.iter().filter(|&&m| m > 0).count()
                        <= format.nonzero_capacity()
                        && minors.iter().all(|&m| m <= format.max_minor());
                    if !fits {
                        return Err(format!("minors do not fit declared format {format:?}"));
                    }
                }
                Ok(CounterBlock {
                    design,
                    major,
                    minors,
                    full: Vec::new(),
                    format: if design == CounterDesign::Morphable {
                        format
                    } else {
                        MorphFormat::Uniform3
                    },
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monolithic_never_overflows() {
        let mut b = CounterBlock::new(CounterDesign::Monolithic);
        for i in 1..=1000u64 {
            let r = b.increment(5);
            assert_eq!(r.new_counter, i);
            assert!(r.overflow.is_none());
        }
    }

    #[test]
    fn sc64_overflow_at_128th_write() {
        let mut b = CounterBlock::new(CounterDesign::Sc64);
        for _ in 0..127 {
            assert!(b.increment(0).overflow.is_none());
        }
        let r = b.increment(0);
        let ov = r.overflow.expect("128th write must rebase");
        assert_eq!(ov.blocks_to_reencrypt, 64);
        // Monotonic across the rebase: 1*128 + 1 > 0*128 + 127.
        assert_eq!(r.new_counter, 129);
    }

    #[test]
    fn sc64_rebase_clears_other_minors() {
        let mut b = CounterBlock::new(CounterDesign::Sc64);
        b.increment(3);
        for _ in 0..128 {
            b.increment(0);
        }
        // Slot 3 was re-encrypted with counter = major*128 + 0.
        assert_eq!(b.counter(3), 128);
    }

    #[test]
    fn counters_monotonic_under_random_workload() {
        let mut rng = emcc_sim::Rng64::new(42);
        let mut b = CounterBlock::new(CounterDesign::Morphable);
        let mut last = vec![0u64; 128];
        for _ in 0..20_000 {
            let s = rng.index(128);
            let r = b.increment(s);
            assert!(
                r.new_counter > last[s],
                "counter for slot {s} went backwards"
            );
            // Rebase re-encrypts every slot with its *new* counter value,
            // so other slots' counters may change; refresh all on overflow.
            if r.overflow.is_some() {
                for (i, l) in last.iter_mut().enumerate() {
                    *l = b.counter(i);
                }
                last[s] = r.new_counter - 1; // keep the > check meaningful
            }
            last[s] = r.new_counter;
        }
    }

    #[test]
    fn morphable_uniform_until_eighth_write() {
        // A single hot line: values ≤ 7 stay Uniform3, the 8th write morphs
        // to a ZCC format rather than overflowing.
        let mut b = CounterBlock::new(CounterDesign::Morphable);
        for _ in 0..7 {
            let r = b.increment(0);
            assert!(r.morphed.is_none());
            assert_eq!(b.format(), MorphFormat::Uniform3);
        }
        let r = b.increment(0);
        assert_eq!(r.morphed, Some(MorphFormat::Zcc5));
        assert!(r.overflow.is_none());
    }

    #[test]
    fn morphable_hot_line_overflows_at_128() {
        let mut b = CounterBlock::new(CounterDesign::Morphable);
        let mut overflows = 0;
        for _ in 0..128 {
            if b.increment(0).overflow.is_some() {
                overflows += 1;
            }
        }
        assert_eq!(
            overflows, 1,
            "single hot line rebases exactly once at 128 writes"
        );
    }

    #[test]
    fn morphable_uniform_writes_overflow_via_capacity() {
        // Writing every line uniformly: at value 8 for all 128 lines no
        // ZCC format has capacity (128 non-zeros), so the block rebases.
        let mut b = CounterBlock::new(CounterDesign::Morphable);
        let mut overflow_seen = false;
        'outer: for _round in 0..8 {
            for s in 0..128 {
                if b.increment(s).overflow.is_some() {
                    overflow_seen = true;
                    break 'outer;
                }
            }
        }
        assert!(overflow_seen, "uniform writes must eventually rebase");
        // Morphable survives ~7 uniform writes per line (895 writes);
        // SC-64 would survive 127. The coverage tradeoff is the point.
    }

    #[test]
    fn morphable_beats_sc64_on_skewed_writes() {
        // Morphable's ZCC formats let a few hot lines run to 127 while the
        // rest stay zero — same as SC-64's 7-bit minors but with 2x the
        // coverage. Verify a 2-hot-line pattern needs no rebase until 128.
        let mut b = CounterBlock::new(CounterDesign::Morphable);
        for _ in 0..127 {
            assert!(b.increment(10).overflow.is_none());
            assert!(b.increment(90).overflow.is_none());
        }
    }

    #[test]
    fn restore_roundtrips_every_design() {
        for design in CounterDesign::all() {
            let mut b = CounterBlock::new(design);
            for i in 0..200usize {
                b.increment(i % design.coverage() as usize);
            }
            let back = CounterBlock::restore(design, b.major(), b.format().tag(), &b.raw_slots())
                .expect("roundtrip restore succeeds");
            assert_eq!(back, b, "restore must be the inverse of raw_slots");
        }
    }

    #[test]
    fn changed_slots_lists_exactly_the_differing_slots() {
        let mut block = CounterBlock::new(CounterDesign::Sc64);
        block.increment(5);
        assert_eq!(block.changed_slots(None), vec![(5, 1)]);
        let before = block.clone();
        block.increment(9);
        assert_eq!(block.changed_slots(Some(&before)), vec![(9, 1)]);
        assert_eq!(block.changed_slots(Some(&block)), vec![]);
        // A rebase clears every other minor: each cleared slot is listed.
        for _ in 1..127 {
            block.increment(5);
        }
        let before = block.clone();
        assert!(block.increment(5).overflow.is_some());
        assert_eq!(block.changed_slots(Some(&before)), vec![(5, 1), (9, 0)]);
        // Against a slot-by-slot comparison of the raw images.
        let mut rng = emcc_sim::Rng64::new(3);
        for design in CounterDesign::all() {
            let n = design.coverage();
            let mut b = CounterBlock::new(design);
            for _ in 0..2_000 {
                let before = b.clone();
                // Mostly four hot slots, so split designs rebase often.
                for _ in 0..1 + rng.below(3) {
                    let span = if rng.chance(0.9) { 4 } else { n };
                    b.increment(rng.below(span) as usize);
                }
                let (was, now) = (before.raw_slots(), b.raw_slots());
                let expect: Vec<(u32, u64)> = (0..)
                    .zip(was.iter().zip(&now))
                    .filter(|(_, (w, v))| w != v)
                    .map(|(s, (_, &v))| (s, v))
                    .collect();
                assert_eq!(b.changed_slots(Some(&before)), expect, "{design:?}");
            }
        }
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        // Wrong slot count.
        assert!(CounterBlock::restore(CounterDesign::Sc64, 0, 0, &[0; 3]).is_err());
        // Minor out of span.
        let mut slots = vec![0u64; 64];
        slots[5] = 128;
        assert!(CounterBlock::restore(CounterDesign::Sc64, 0, 0, &slots).is_err());
        // Monolithic with a major counter.
        assert!(CounterBlock::restore(CounterDesign::Monolithic, 1, 0, &[0; 8]).is_err());
        // Morphable payload too wide for its declared format (Uniform3 caps
        // minors at 7).
        let mut slots = vec![0u64; 128];
        slots[0] = 9;
        assert!(CounterBlock::restore(CounterDesign::Morphable, 0, 0, &slots).is_err());
        // Unknown tag.
        assert!(CounterBlock::restore(CounterDesign::Morphable, 0, 9, &vec![0u64; 128]).is_err());
    }

    #[test]
    fn increment_result_reports_format_after_overflow() {
        let mut b = CounterBlock::new(CounterDesign::Morphable);
        for _ in 0..127 {
            b.increment(0);
        }
        let r = b.increment(0);
        assert!(r.overflow.is_some());
        assert_eq!(r.morphed, Some(MorphFormat::Uniform3));
        assert_eq!(b.format(), MorphFormat::Uniform3);
        assert_eq!(r.new_counter, 129);
    }
}
