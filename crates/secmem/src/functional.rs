//! Functional (non-timing) secure memory.
//!
//! A complete architectural model of the secure-memory data path: every
//! write encrypts with the line's fresh counter and stores a real 56-bit
//! MAC; every read recomputes and checks the MAC before decrypting. The
//! integrity tree supplies the counters, including split-counter rebases
//! (which transparently re-encrypt the covered region, exactly the work
//! the timing model charges as overflow traffic).
//!
//! This model exists to *prove the protocol*: the timing simulator reuses
//! the same counter state machine but does not move data bytes around.

use std::collections::HashMap;

use emcc_counters::{CounterBlock, CounterDesign, IncrementResult, IntegrityTree};
use emcc_crypto::{BlockCipherKeys, DataBlock, Mac56};
use emcc_sim::{FastHashMap, LineAddr};

/// One write's whole persistent change, as
/// [`FunctionalSecureMemory::write_logged`] made it: the level-0 counter
/// block the write bumped, before and after, and every line it
/// re-encrypted, before and after, in ascending line order. That is the
/// written line alone, unless the write rebased the block: then it is every
/// stored line the block covers. A write-ahead journal records the after
/// half; [`FunctionalSecureMemory::undo`] puts the before half back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteLog {
    /// Index of the (single) level-0 counter block the write mutated.
    pub counter_block: u64,
    /// That block before the write; `None` when it was absent (all zeros).
    pub before: Option<CounterBlock>,
    /// That block after the write. Against [`Self::before`] it yields the
    /// slots the write changed ([`CounterBlock::changed_slots`]): one for a
    /// plain write, every slot a rebase rewrote otherwise.
    pub after: CounterBlock,
    /// `(line, before, after)` of every line the write re-encrypted,
    /// ascending; `before` is `None` for a line never written.
    pub touched: Vec<(LineAddr, Option<StoredLine>, StoredLine)>,
}

/// Why a read failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The stored MAC does not match the recomputed MAC: tampering or
    /// replay detected. Hardware would raise the ECC-style interrupt the
    /// paper describes (§IV-D).
    MacMismatch {
        /// The offending line.
        line: LineAddr,
    },
    /// An integrity-tree node on the line's verification path failed its
    /// MAC check: counter-block or tree-node tampering detected during the
    /// tree walk.
    TreeMismatch {
        /// Tree level of the corrupt node (0 = counter blocks).
        level: u32,
        /// Node index within its level.
        index: u64,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::MacMismatch { line } => {
                write!(f, "integrity violation detected at line {line}")
            }
            ReadError::TreeMismatch { level, index } => {
                write!(f, "integrity-tree violation at level {level} node {index}")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// A stored ciphertext line with its MAC (co-located, as in §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredLine {
    /// The encrypted block as it would sit in DRAM.
    pub cipher: DataBlock,
    /// The 56-bit MAC co-located with the data.
    pub mac: Mac56,
}

/// Functional secure memory over a sparse line store.
///
/// Unwritten lines read as all-zero plaintext (fresh memory), matching how
/// real systems initialize counters to zero at boot.
///
/// # Examples
///
/// ```
/// use emcc_secmem::FunctionalSecureMemory;
/// use emcc_crypto::DataBlock;
/// use emcc_sim::LineAddr;
///
/// let mut mem = FunctionalSecureMemory::new(7, 1 << 16);
/// let line = LineAddr::new(3);
/// let block = DataBlock::from_words([42; 8]);
/// mem.write(line, block).unwrap();
/// assert_eq!(mem.read(line).unwrap(), block);
///
/// // Physical tampering is detected.
/// mem.tamper_flip_bit(line, 17);
/// assert!(mem.read(line).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct FunctionalSecureMemory {
    keys: BlockCipherKeys,
    tree: IntegrityTree,
    store: HashMap<LineAddr, StoredLine>,
    reencrypted_lines: u64,
    /// Tamper state of integrity-tree nodes, keyed by `(level, index)`:
    /// an XOR mask over the node's 512-bit image, modelling corrupted node
    /// contents in DRAM, and an override of its stored MAC (`None`: the
    /// MAC in "DRAM" is the correct MAC of the intact image). Nodes without
    /// an entry are intact.
    node_tamper: HashMap<(u32, u64), ([u64; 8], Option<Mac56>)>,
    /// The intact image of every materialized level-0 counter block, by
    /// block index, kept current on every counter change: exactly one
    /// entry per block the tree holds at level 0.
    images: FastHashMap<u64, [u64; 8]>,
    /// The image of an absent full-arity node: every counter zero.
    zero_image: [u64; 8],
}

impl FunctionalSecureMemory {
    /// Creates a memory with Morphable counters over `data_lines` lines.
    pub fn new(seed: u64, data_lines: u64) -> Self {
        Self::with_design(seed, data_lines, CounterDesign::Morphable)
    }

    /// Creates a memory with an explicit counter design.
    pub fn with_design(seed: u64, data_lines: u64, design: CounterDesign) -> Self {
        FunctionalSecureMemory {
            keys: BlockCipherKeys::from_seed(seed),
            tree: IntegrityTree::new(design, data_lines),
            store: HashMap::new(),
            reencrypted_lines: 0,
            node_tamper: HashMap::new(),
            images: FastHashMap::default(),
            zero_image: node_image(None, design.coverage()),
        }
    }

    /// The integrity tree (counter state), for inspection.
    pub fn tree(&self) -> &IntegrityTree {
        &self.tree
    }

    /// Lines re-encrypted by rebases so far — the functional analogue of
    /// overflow DRAM traffic.
    pub fn reencrypted_lines(&self) -> u64 {
        self.reencrypted_lines
    }

    /// Writes a plaintext block: bumps the counter, encrypts, MACs.
    ///
    /// Split-counter rebases transparently re-encrypt every stored line the
    /// counter block covers.
    ///
    /// # Errors
    ///
    /// Refuses the write before any state changes, so that it launders no
    /// tampering:
    ///
    /// * [`ReadError::TreeMismatch`] when the line's integrity-tree path
    ///   fails [`Self::verify_path`]: the write would re-MAC the corrupt
    ///   node from counters read through it;
    /// * [`ReadError::MacMismatch`] naming a covered line that fails
    ///   verification when this write would rebase: re-encrypting it would
    ///   launder the tampering.
    pub fn write(&mut self, line: LineAddr, plain: DataBlock) -> Result<(), ReadError> {
        self.apply_write(line, plain).map(|_| ())
    }

    /// [`Self::write`]'s work; returns the pre-write image of every other
    /// line the write re-encrypted (a rebase's stored neighbours),
    /// ascending.
    fn apply_write(
        &mut self,
        line: LineAddr,
        plain: DataBlock,
    ) -> Result<Vec<(LineAddr, StoredLine)>, ReadError> {
        self.check_path(line)?;
        // If this increment will rebase, decrypt the covered region with
        // the *old* counters first.
        let saved: Vec<(LineAddr, StoredLine, DataBlock)> = if self.tree.would_overflow_data(line) {
            self.covered_lines(line)
                .filter(|l| *l != line)
                .filter_map(|l| self.store.get(&l).map(|s| (l, *s)))
                .map(|(l, s)| self.read(l).map(|plain| (l, s, plain)))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };

        let r = self.tree.increment_data(line);
        self.track_increment(line, &r);
        for &(l, _, plain) in &saved {
            let counter = self.tree.data_counter(l);
            self.store_encrypted(l, plain, counter);
            self.reencrypted_lines += 1;
        }
        self.store_encrypted(line, plain, r.new_counter);
        Ok(saved.into_iter().map(|(l, s, _)| (l, s)).collect())
    }

    /// Keeps the image of `line`'s counter block current after `r`, the
    /// increment of the line's counter. A plain increment moved that one
    /// counter from n − 1 to n, so one image word changes. A rebase
    /// rewrote every counter of the block, so its image is rebuilt.
    fn track_increment(&mut self, line: LineAddr, r: &IncrementResult) {
        let g = self.tree.geometry();
        let cb = g.counter_block_of(line);
        // A block's first write starts from the absent block's image.
        let image = self.images.entry(cb).or_insert(self.zero_image);
        if r.overflow.is_some() {
            *image = node_image(self.tree.node_block(0, cb), g.design().coverage());
        } else {
            let slot = g.slot_of(line) as u64;
            image[(slot % 8) as usize] ^= mix(r.new_counter - 1, slot) ^ mix(r.new_counter, slot);
        }
    }

    /// Reads and verifies a block.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError::MacMismatch`] when the stored MAC fails to
    /// verify — tampering or replay.
    pub fn read(&self, line: LineAddr) -> Result<DataBlock, ReadError> {
        match self.store.get(&line) {
            None => Ok(DataBlock::default()),
            Some(stored) => self.open(line, stored),
        }
    }

    /// Verifies `stored`, the image of `line`, against its MAC and
    /// decrypts it.
    fn open(&self, line: LineAddr, stored: &StoredLine) -> Result<DataBlock, ReadError> {
        let counter = self.tree.data_counter(line);
        let addr = line.base().get();
        if !self
            .keys
            .verify_block(addr, counter, &stored.cipher, stored.mac)
        {
            return Err(ReadError::MacMismatch { line });
        }
        Ok(self.keys.decrypt_block(addr, counter, &stored.cipher))
    }

    /// Reads via the EMCC split path: the "MC" ships
    /// `(ciphertext, MAC ⊕ dot-product)` and the "L2" verifies against its
    /// locally computed AES half and decrypts with its locally computed
    /// pad. Must behave identically to [`Self::read`].
    ///
    /// # Errors
    ///
    /// Returns [`ReadError::MacMismatch`] exactly when [`Self::read`] does.
    pub fn read_split(&self, line: LineAddr) -> Result<DataBlock, ReadError> {
        let Some(stored) = self.store.get(&line) else {
            return Ok(DataBlock::default());
        };
        let counter = self.tree.data_counter(line);
        let addr = line.base().get();
        // MC side: data-dependent half only.
        let shipped = stored.mac.as_u64() ^ self.keys.mac_dot_half(&stored.cipher).as_u64();
        // L2 side: counter-dependent half, computed before data arrives.
        let aes_half = self.keys.mac_aes_half(addr, counter).as_u64();
        if shipped != aes_half {
            return Err(ReadError::MacMismatch { line });
        }
        Ok(self.keys.decrypt_block(addr, counter, &stored.cipher))
    }

    /// Raw stored state (ciphertext + MAC) — what a bus probe would see.
    pub fn raw(&self, line: LineAddr) -> Option<StoredLine> {
        self.store.get(&line).copied()
    }

    /// Like [`Self::write`], but also returns the write's whole persistent
    /// change ([`WriteLog`]), so a write-ahead journal can record it and
    /// [`Self::undo`] can take it back.
    ///
    /// # Errors
    ///
    /// As [`Self::write`], over a corrupt tree path or, rebasing, a corrupt
    /// neighbour: nothing is written or logged.
    pub fn write_logged(
        &mut self,
        line: LineAddr,
        plain: DataBlock,
    ) -> Result<WriteLog, ReadError> {
        let counter_block = self.tree.geometry().counter_block_of(line);
        let before = self.tree.node_block(0, counter_block).cloned();
        let written = (line, self.raw(line));
        let neighbours = self.apply_write(line, plain)?;
        let after = self
            .tree
            .node_block(0, counter_block)
            .expect("write materializes its counter block")
            .clone();
        let mut touched: Vec<(LineAddr, Option<StoredLine>, StoredLine)> = neighbours
            .into_iter()
            .map(|(l, s)| (l, Some(s)))
            .chain([written])
            .map(|(l, before)| (l, before, self.store[&l]))
            .collect();
        touched.sort_unstable_by_key(|&(l, ..)| l);
        Ok(WriteLog {
            counter_block,
            before,
            after,
            touched,
        })
    }

    /// Takes back the write `log` describes: its counter block and every
    /// line it re-encrypted return to their pre-write state, an absent
    /// block or a never-written line to absent again. Statistics
    /// ([`Self::reencrypted_lines`], the tree's overflow counts) keep
    /// counting the write.
    pub fn undo(&mut self, log: WriteLog) {
        self.restore_counter_block(log.counter_block, log.before);
        for (line, before, _) in log.touched {
            self.restore_line(line, before);
        }
    }

    /// Installs a raw ciphertext+MAC image, or clears the line with `None`
    /// — crash recovery replaying a journal, and write rollback.
    pub fn restore_line(&mut self, line: LineAddr, stored: Option<StoredLine>) {
        match stored {
            Some(s) => {
                self.store.insert(line, s);
            }
            None => {
                self.store.remove(&line);
            }
        }
    }

    /// The materialized counter block covering `line`, if any.
    pub fn counter_block_state(&self, index: u64) -> Option<&CounterBlock> {
        self.tree.node_block(0, index)
    }

    /// Installs (or clears) a level-0 counter block during recovery or
    /// write rollback. See [`IntegrityTree::restore_level0_block`].
    pub fn restore_counter_block(&mut self, index: u64, block: Option<CounterBlock>) {
        let coverage = self.tree.geometry().design().coverage();
        let image = block.as_ref().map(|b| node_image(Some(b), coverage));
        self.tree.restore_level0_block(index, block);
        match image {
            Some(image) => self.images.insert(index, image),
            None => self.images.remove(&index),
        };
    }

    /// Attack: flip one bit of the stored ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if the line was never written or `bit >= 512`.
    pub fn tamper_flip_bit(&mut self, line: LineAddr, bit: usize) {
        let s = self
            .store
            .get_mut(&line)
            .expect("line must exist to tamper");
        s.cipher = s.cipher.with_bit_flipped(bit);
    }

    /// Attack: replace the stored line with a previously captured copy
    /// (replay attack).
    pub fn tamper_replay(&mut self, line: LineAddr, old: StoredLine) {
        self.store.insert(line, old);
    }

    /// Attack: overwrite the stored MAC.
    ///
    /// # Panics
    ///
    /// Panics if the line was never written.
    pub fn tamper_mac(&mut self, line: LineAddr, mac: Mac56) {
        self.store.get_mut(&line).expect("line must exist").mac = mac;
    }

    /// Attack: flip one bit of the stored 56-bit MAC.
    ///
    /// # Panics
    ///
    /// Panics if the line was never written or `bit >= 56`.
    pub fn tamper_mac_flip_bit(&mut self, line: LineAddr, bit: usize) {
        assert!(bit < 56, "MAC has 56 bits");
        let s = self.store.get_mut(&line).expect("line must exist");
        s.mac = Mac56::from_u64(s.mac.as_u64() ^ (1 << bit));
    }

    /// Attack: corrupt an integrity-tree node as stored in DRAM. Bits
    /// `0..512` flip the node's 512-bit counter image; bits `512..568`
    /// flip the node's co-located 56-bit MAC.
    ///
    /// Detected by [`Self::verify_path`] for any data line whose path
    /// includes the node. A write of such a line is refused with the same
    /// error, so no write clears it.
    ///
    /// # Panics
    ///
    /// Panics if `level`/`index` are out of range or `bit >= 568`.
    pub fn tamper_tree_flip_bit(&mut self, level: u32, index: u64, bit: usize) {
        // Range-check through the geometry.
        let addr = self.tree.geometry().node_addr(level, index);
        let key = (level, index);
        let (mut mask, mut mac) = self.node_tamper.get(&key).copied().unwrap_or_default();
        if bit < 512 {
            mask[bit / 64] ^= 1 << (bit % 64);
        } else {
            assert!(bit < 568, "node line is 512 image bits + 56 MAC bits");
            let current = mac.unwrap_or_else(|| {
                let image =
                    self.intact_node_image(level, index, self.tree.node_block(level, index));
                self.keys.mac_block(
                    addr.base().get(),
                    self.tree.node_counter(level, index),
                    &DataBlock::from_words(image),
                )
            });
            mac = Some(Mac56::from_u64(current.as_u64() ^ (1 << (bit - 512))));
        }
        self.node_tamper.insert(key, (mask, mac));
    }

    /// Walks the integrity tree from the line's counter block to the root,
    /// verifying each node's stored MAC against its observed contents —
    /// the functional analogue of the MC's tree walk.
    ///
    /// A level-0 node's intact image is the one kept current on write, so
    /// its counter block is not read. Above level 0, each node's counter
    /// block is looked up once: as the parent of the node below it yields
    /// that node's counter, and it yields the node's own image, which is
    /// the precomputed all-zero image for an absent full-arity node. One
    /// lookup per node finds its tamper state: the observed image is the
    /// intact one XOR the node's tamper mask. Both MACs are computed for
    /// every node: the recomputed MAC over the observed image, and the
    /// stored MAC over the intact image unless an override replaced it.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError::TreeMismatch`] naming the first corrupt node,
    /// from the leaves upward.
    pub fn verify_path(&self, line: LineAddr) -> Result<(), ReadError> {
        let g = self.tree.geometry();
        let arity = g.design().coverage();
        let mut index = g.counter_block_of(line);
        // The node's own block, needed for its image above level 0 only.
        let mut block = None;
        for level in 0..g.num_levels() {
            // The parent's block holds this node's counter; above the top
            // level it is the on-chip root.
            let parent = self.tree.node_block(level + 1, index / arity);
            let counter = parent.map_or(0, |b| b.counter((index % arity) as usize));
            let addr = g.node_addr(level, index).base().get();
            let intact = self.intact_node_image(level, index, block);
            let tamper = self.node_tamper.get(&(level, index));
            let mut observed = intact;
            if let Some((mask, _)) = tamper {
                for (w, m) in observed.iter_mut().zip(mask) {
                    *w ^= m;
                }
            }
            let recomputed = self
                .keys
                .mac_block(addr, counter, &DataBlock::from_words(observed));
            let stored_mac = match tamper.and_then(|&(_, mac)| mac) {
                Some(mac) => mac,
                None => self
                    .keys
                    .mac_block(addr, counter, &DataBlock::from_words(intact)),
            };
            if recomputed != stored_mac {
                return Err(ReadError::TreeMismatch { level, index });
            }
            index /= arity;
            block = parent;
        }
        Ok(())
    }

    /// [`Self::verify_path`] where it can fail: without tamper state every
    /// path verifies, so only a tampered memory pays for the walk.
    ///
    /// # Errors
    ///
    /// As [`Self::verify_path`].
    pub fn check_path(&self, line: LineAddr) -> Result<(), ReadError> {
        if self.node_tamper.is_empty() {
            return Ok(());
        }
        self.verify_path(line)
    }

    /// Tree-walk verification followed by the data read — the full check a
    /// cold miss performs.
    ///
    /// # Errors
    ///
    /// Returns the tree failure if any path node is corrupt, else any data
    /// MAC failure from [`Self::read`].
    pub fn read_checked(&self, line: LineAddr) -> Result<DataBlock, ReadError> {
        self.verify_path(line)?;
        self.read(line)
    }

    /// [`Self::read_checked`] of a line that has been written; `None` for
    /// a never-written line, which holds no MAC, once [`Self::check_path`]
    /// passes over it. One store lookup.
    ///
    /// # Errors
    ///
    /// As [`Self::read_checked`] for a written line, as
    /// [`Self::check_path`] for a never-written one.
    pub fn read_stored(&self, line: LineAddr) -> Result<Option<DataBlock>, ReadError> {
        let Some(stored) = self.store.get(&line) else {
            return self.check_path(line).map(|()| None);
        };
        self.verify_path(line)?;
        self.open(line, stored).map(Some)
    }

    /// Every line that has been written, with its stored image, in
    /// ascending line order — what a checkpoint captures and the domain a
    /// differential checker must compare.
    pub fn stored_lines(&self) -> Vec<(LineAddr, &StoredLine)> {
        let mut lines: Vec<(LineAddr, &StoredLine)> =
            self.store.iter().map(|(&l, s)| (l, s)).collect();
        lines.sort_unstable_by_key(|&(l, _)| l);
        lines
    }

    /// The intact 512-bit image of node `(level, index)`: a deterministic
    /// packing of the counters it stores (data counters at level 0, child
    /// node counters above). Any single counter change flips image bits.
    /// A level-0 image is the one kept current on write. Above level 0 it
    /// is built from `block`, the node's counter block, except for an
    /// absent full-arity node, whose image is the precomputed zero image.
    fn intact_node_image(&self, level: u32, index: u64, block: Option<&CounterBlock>) -> [u64; 8] {
        if level == 0 {
            return self.images.get(&index).copied().unwrap_or(self.zero_image);
        }
        let g = self.tree.geometry();
        let arity = g.design().coverage();
        // Slots past the last node of the level below protect nothing and
        // stay out of the image.
        let slots = (g.blocks_at_level(level - 1) - index * arity).min(arity);
        match block {
            None if slots == arity => self.zero_image,
            _ => node_image(block, slots),
        }
    }

    fn covered_lines(&self, line: LineAddr) -> impl Iterator<Item = LineAddr> {
        let coverage = self.tree.geometry().design().coverage();
        let cb = self.tree.geometry().counter_block_of(line);
        (cb * coverage..(cb + 1) * coverage).map(LineAddr::new)
    }

    fn store_encrypted(&mut self, line: LineAddr, plain: DataBlock, counter: u64) {
        let addr = line.base().get();
        let cipher = self.keys.encrypt_block(addr, counter, &plain);
        let mac = self.keys.mac_block(addr, counter, &cipher);
        self.store.insert(line, StoredLine { cipher, mac });
    }
}

/// Counter `c` of slot `slot`, mixed into the image word it lands in.
fn mix(c: u64, slot: u64) -> u64 {
    let mut z = c ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The image of the first `slots` counters of `block`, an absent block
/// counting as all zeros: slot `s`'s mixed counter XOR-ed into word
/// `s % 8`.
fn node_image(block: Option<&CounterBlock>, slots: u64) -> [u64; 8] {
    let mut img = [0u64; 8];
    for slot in 0..slots {
        let c = block.map_or(0, |b| b.counter(slot as usize));
        img[(slot % 8) as usize] ^= mix(c, slot);
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{recover, InMemoryBackend, MemoryAdt, SecureMemoryService, ServiceConfig};
    use proptest::prelude::*;

    fn block(v: u64) -> DataBlock {
        DataBlock::from_words([v; 8])
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = FunctionalSecureMemory::new(1, 1 << 16);
        m.write(LineAddr::new(5), block(9)).unwrap();
        assert_eq!(m.read(LineAddr::new(5)).unwrap(), block(9));
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let m = FunctionalSecureMemory::new(1, 1 << 16);
        assert_eq!(m.read(LineAddr::new(99)).unwrap(), DataBlock::default());
    }

    #[test]
    fn overwrite_uses_fresh_counter() {
        let mut m = FunctionalSecureMemory::new(1, 1 << 16);
        let l = LineAddr::new(2);
        m.write(l, block(1)).unwrap();
        let c1 = m.raw(l).unwrap();
        m.write(l, block(1)).unwrap(); // same plaintext again
        let c2 = m.raw(l).unwrap();
        // Counter-mode with a fresh counter: identical plaintext encrypts
        // to a different ciphertext (no pad reuse — the §II vulnerability).
        assert_ne!(c1.cipher, c2.cipher);
        assert_eq!(m.read(l).unwrap(), block(1));
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let mut m = FunctionalSecureMemory::new(1, 1 << 16);
        let l = LineAddr::new(3);
        m.write(l, block(0xDEAD_BEEF)).unwrap();
        let raw = m.raw(l).unwrap();
        assert!(raw.cipher.words().iter().all(|&w| w != 0xDEAD_BEEF));
    }

    #[test]
    fn bit_flip_detected() {
        let mut m = FunctionalSecureMemory::new(1, 1 << 16);
        let l = LineAddr::new(4);
        m.write(l, block(7)).unwrap();
        m.tamper_flip_bit(l, 100);
        assert_eq!(m.read(l), Err(ReadError::MacMismatch { line: l }));
    }

    #[test]
    fn mac_forgery_detected() {
        let mut m = FunctionalSecureMemory::new(1, 1 << 16);
        let l = LineAddr::new(4);
        m.write(l, block(7)).unwrap();
        m.tamper_mac(l, Mac56::from_u64(0x1234));
        assert!(m.read(l).is_err());
    }

    #[test]
    fn replay_attack_detected() {
        let mut m = FunctionalSecureMemory::new(1, 1 << 16);
        let l = LineAddr::new(8);
        m.write(l, block(1)).unwrap();
        let old = m.raw(l).unwrap(); // attacker snapshots bus traffic
        m.write(l, block(2)).unwrap(); // victim updates the value
        m.tamper_replay(l, old); // attacker restores the old ciphertext+MAC
        assert!(
            m.read(l).is_err(),
            "replayed old ciphertext must fail: counter has advanced"
        );
        assert!(m.read_split(l).is_err(), "the split path agrees");
    }

    #[test]
    fn split_read_matches_monolithic_read() {
        let mut m = FunctionalSecureMemory::new(3, 1 << 16);
        for i in 0..50u64 {
            m.write(LineAddr::new(i), block(i * 31 + 1)).unwrap();
        }
        for i in 0..50u64 {
            let l = LineAddr::new(i);
            assert_eq!(m.read(l).unwrap(), m.read_split(l).unwrap());
        }
    }

    #[test]
    fn split_read_detects_tamper() {
        let mut m = FunctionalSecureMemory::new(3, 1 << 16);
        let l = LineAddr::new(11);
        m.write(l, block(5)).unwrap();
        m.tamper_flip_bit(l, 0);
        assert!(m.read_split(l).is_err());
    }

    #[test]
    fn rebase_preserves_all_covered_values() {
        // Force a rebase with SC-64 (overflows after 128 writes to one
        // line) and check neighbors survive re-encryption.
        let mut m = FunctionalSecureMemory::with_design(9, 1 << 16, CounterDesign::Sc64);
        m.write(LineAddr::new(0), block(100)).unwrap();
        m.write(LineAddr::new(1), block(101)).unwrap();
        m.write(LineAddr::new(63), block(163)).unwrap();
        for _ in 0..130 {
            m.write(LineAddr::new(5), block(5)).unwrap();
        }
        assert!(m.tree().overflows_by_level()[0] >= 1, "rebase must occur");
        assert!(m.reencrypted_lines() > 0);
        assert_eq!(m.read(LineAddr::new(0)).unwrap(), block(100));
        assert_eq!(m.read(LineAddr::new(1)).unwrap(), block(101));
        assert_eq!(m.read(LineAddr::new(63)).unwrap(), block(163));
        assert_eq!(m.read(LineAddr::new(5)).unwrap(), block(5));
    }

    #[test]
    fn rebase_over_tampered_neighbour_is_refused_before_any_change() {
        let mut m = FunctionalSecureMemory::with_design(9, 1 << 16, CounterDesign::Sc64);
        let tampered = LineAddr::new(1);
        let hot = LineAddr::new(5);
        m.write(tampered, block(101)).unwrap();
        m.tamper_flip_bit(tampered, 3);
        let snapshot = |m: &FunctionalSecureMemory| {
            (
                m.raw(hot),
                m.raw(tampered),
                m.counter_block_state(0).cloned(),
                m.reencrypted_lines(),
            )
        };
        // SC-64 rebases on the 128th write to one line.
        for i in 0..127u64 {
            m.write(hot, block(i)).unwrap();
        }
        let before = snapshot(&m);
        assert_eq!(
            m.write(hot, block(127)),
            Err(ReadError::MacMismatch { line: tampered })
        );
        assert_eq!(snapshot(&m), before, "a refused write changes nothing");
        assert_eq!(m.read(hot).unwrap(), block(126));
        assert!(m.read(tampered).is_err(), "the tampering stays detected");
    }

    #[test]
    fn rebase_with_morphable_counters() {
        let mut m = FunctionalSecureMemory::new(9, 1 << 16);
        for i in 0..128u64 {
            m.write(LineAddr::new(i), block(i)).unwrap();
        }
        // Uniform writes overflow Morphable around value 8 per line.
        for _round in 0..10 {
            for i in 0..128u64 {
                m.write(LineAddr::new(i), block(i + 1000)).unwrap();
            }
        }
        assert!(m.tree().overflows_by_level()[0] >= 1);
        for i in 0..128u64 {
            assert_eq!(m.read(LineAddr::new(i)).unwrap(), block(i + 1000));
        }
    }

    #[test]
    fn mac_bit_flip_detected() {
        let mut m = FunctionalSecureMemory::new(2, 1 << 16);
        let l = LineAddr::new(6);
        m.write(l, block(3)).unwrap();
        m.tamper_mac_flip_bit(l, 55);
        assert!(m.read(l).is_err());
        assert!(m.read_split(l).is_err());
    }

    #[test]
    fn clean_path_verifies_at_every_level() {
        let mut m = FunctionalSecureMemory::new(4, 1 << 16);
        for i in 0..40u64 {
            m.write(LineAddr::new(i * 7), block(i)).unwrap();
        }
        for i in 0..40u64 {
            let l = LineAddr::new(i * 7);
            assert_eq!(m.verify_path(l), Ok(()));
            assert_eq!(m.read_checked(l).unwrap(), block(i));
        }
    }

    #[test]
    fn tree_node_tamper_detected_at_each_level() {
        // 1 << 16 lines under Morphable: L0 = 512 blocks, L1 = 4, + root.
        let mut m = FunctionalSecureMemory::new(4, 1 << 16);
        let l = LineAddr::new(200);
        m.write(l, block(1)).unwrap();
        let levels = m.tree().geometry().num_levels();
        assert!(levels >= 2, "need a multi-level tree for this test");
        for level in 0..levels {
            let mut probe = m.clone();
            let idx = if level == 0 {
                probe.tree().geometry().counter_block_of(l)
            } else {
                // Walk the path up to this level's node index.
                let mut i = probe.tree().geometry().counter_block_of(l);
                for _ in 0..level {
                    i /= probe.tree().geometry().design().coverage();
                }
                i
            };
            probe.tamper_tree_flip_bit(level, idx, 17);
            assert_eq!(
                probe.verify_path(l),
                Err(ReadError::TreeMismatch { level, index: idx }),
                "image corruption at level {level} must be detected"
            );
            // MAC-side corruption of the same node.
            let mut probe = m.clone();
            probe.tamper_tree_flip_bit(level, idx, 512);
            assert!(probe.verify_path(l).is_err());
        }
    }

    #[test]
    fn tree_tamper_off_path_not_reported() {
        let mut m = FunctionalSecureMemory::new(4, 1 << 16);
        let l = LineAddr::new(0);
        m.write(l, block(1)).unwrap();
        // Corrupt a counter block far from line 0's path.
        m.tamper_tree_flip_bit(0, 300, 5);
        assert_eq!(m.verify_path(l), Ok(()));
    }

    #[test]
    fn write_over_tree_tamper_on_its_path_is_refused() {
        let mut m = FunctionalSecureMemory::new(4, 1 << 16);
        let l = LineAddr::new(9);
        m.write(l, block(1)).unwrap();
        let cb = m.tree().geometry().counter_block_of(l);
        m.tamper_tree_flip_bit(0, cb, 3);
        let tampered = ReadError::TreeMismatch {
            level: 0,
            index: cb,
        };
        assert_eq!(m.verify_path(l), Err(tampered));
        let state = |m: &FunctionalSecureMemory| (m.raw(l), m.counter_block_state(cb).cloned());
        let before = state(&m);
        assert_eq!(m.write(l, block(2)), Err(tampered));
        assert_eq!(state(&m), before, "a refused write changes nothing");
        assert_eq!(m.verify_path(l), Err(tampered), "the tamper stays detected");
        assert_eq!(m.read_checked(l), Err(tampered));
    }

    #[test]
    fn stored_lines_sorted_and_complete() {
        let mut m = FunctionalSecureMemory::new(4, 1 << 16);
        for l in [9u64, 2, 40, 7] {
            m.write(LineAddr::new(l), block(l)).unwrap();
        }
        let lines = m.stored_lines();
        assert_eq!(
            lines.iter().map(|&(l, _)| l.get()).collect::<Vec<_>>(),
            [2, 7, 9, 40]
        );
        for &(l, stored) in &lines {
            assert_eq!(Some(*stored), m.raw(l));
        }
    }

    #[test]
    fn write_logged_plain_write_touches_one_line() {
        let mut m = FunctionalSecureMemory::new(5, 1 << 16);
        let l = LineAddr::new(17);
        let log = m.write_logged(l, block(4)).unwrap();
        assert_eq!(log.counter_block, m.tree().geometry().counter_block_of(l));
        assert_eq!(log.touched.len(), 1);
        assert_eq!(log.touched[0], (l, None, m.raw(l).unwrap()));
        assert_eq!(log.after.counter(m.tree().geometry().slot_of(l)), 1);
    }

    #[test]
    fn write_logged_rebase_captures_covered_region() {
        let mut m = FunctionalSecureMemory::with_design(9, 1 << 16, CounterDesign::Sc64);
        m.write(LineAddr::new(0), block(100)).unwrap();
        m.write(LineAddr::new(7), block(107)).unwrap();
        let mut last = None;
        for _ in 0..130 {
            last = Some(m.write_logged(LineAddr::new(5), block(5)).unwrap());
        }
        // At least one of those 130 writes rebased; the rebase log must
        // carry all three stored lines of the covered region.
        assert!(m.tree().overflows_by_level()[0] >= 1);
        let _ = last;
        // Replaying the full sequence of logs into a fresh memory must
        // reproduce the exact persistent state.
        let mut src = FunctionalSecureMemory::with_design(9, 1 << 16, CounterDesign::Sc64);
        let mut dst = FunctionalSecureMemory::with_design(9, 1 << 16, CounterDesign::Sc64);
        let writes: Vec<(u64, u64)> = (0..140).map(|i| (i % 9, i)).collect();
        for (l, v) in writes {
            let log = src.write_logged(LineAddr::new(l), block(v)).unwrap();
            dst.restore_counter_block(log.counter_block, Some(log.after.clone()));
            for (line, _, stored) in &log.touched {
                dst.restore_line(*line, Some(*stored));
            }
        }
        for (l, _) in src.stored_lines() {
            assert_eq!(dst.read(l).unwrap(), src.read(l).unwrap());
        }
    }

    #[test]
    fn restore_line_none_clears() {
        let mut m = FunctionalSecureMemory::new(5, 1 << 16);
        let l = LineAddr::new(3);
        m.write(l, block(1)).unwrap();
        m.restore_line(l, None);
        assert_eq!(m.read(l).unwrap(), DataBlock::default());
        assert!(m.raw(l).is_none());
    }

    /// Every materialized level-0 block's kept image must equal the image
    /// rebuilt from its counters, and no absent block may keep one.
    fn check_images(m: &FunctionalSecureMemory) -> Result<(), String> {
        let coverage = m.tree().geometry().design().coverage();
        let blocks = m.tree().level0_blocks();
        for (index, b) in &blocks {
            if m.images.get(index) != Some(&node_image(Some(b), coverage)) {
                return Err(format!("block {index}: the kept image is stale"));
            }
        }
        if m.images.len() != blocks.len() {
            return Err(format!(
                "{} images kept for {} blocks",
                m.images.len(),
                blocks.len()
            ));
        }
        Ok(())
    }

    /// A block's counters and the stored images of every line it covers:
    /// what a write rollback puts back.
    type BlockState = (
        u64,
        Option<CounterBlock>,
        Vec<(LineAddr, Option<StoredLine>)>,
    );

    fn block_state(m: &FunctionalSecureMemory, cb: u64) -> BlockState {
        let coverage = m.tree().geometry().design().coverage();
        let lines = (cb * coverage..(cb + 1) * coverage)
            .map(|l| (LineAddr::new(l), m.raw(LineAddr::new(l))))
            .collect();
        (cb, m.counter_block_state(cb).cloned(), lines)
    }

    fn roll_back(m: &mut FunctionalSecureMemory, (cb, block, lines): BlockState) {
        m.restore_counter_block(cb, block);
        for (l, stored) in lines {
            m.restore_line(l, stored);
        }
    }

    const DESIGNS: [CounterDesign; 3] = [
        CounterDesign::Monolithic,
        CounterDesign::Sc64,
        CounterDesign::Morphable,
    ];

    proptest! {
        #[test]
        fn kept_images_match_images_rebuilt_from_counters(
            design in 0usize..3,
            seed in any::<u64>(),
        ) {
            const LINES: u64 = 1 << 9;
            // Writes mixed with rollbacks, then writes to one hot line alone.
            const MIXED: usize = 900;
            const HAMMER: usize = 260;
            let design = DESIGNS[design];
            let coverage = design.coverage();
            let mut rng = emcc_sim::Rng64::new(seed);
            // Four of five mixed writes hit two lines of one block. The
            // hammer rebases that block under SC-64 and Morphable whatever
            // the rollbacks undid, and re-formats it under Morphable.
            let hot = rng.below(LINES / coverage) * coverage;
            let writes: Vec<(LineAddr, DataBlock)> = (0..MIXED + HAMMER)
                .map(|i| {
                    let line = if i >= MIXED {
                        hot
                    } else if rng.below(5) > 0 {
                        hot + rng.below(2)
                    } else {
                        rng.below(LINES)
                    };
                    (LineAddr::new(line), block(rng.next_u64()))
                })
                .collect();

            let mut m = FunctionalSecureMemory::with_design(seed, LINES, design);
            let mut saved: Vec<BlockState> = Vec::new();
            for (step, &(line, value)) in writes.iter().enumerate() {
                let cb = m.tree().geometry().counter_block_of(line);
                let roll = if step < MIXED { rng.below(60) } else { u64::MAX };
                match roll {
                    // Back to an earlier state of the block, as a write
                    // rollback restores it.
                    0 if !saved.is_empty() => {
                        let state = saved.swap_remove(rng.below(saved.len() as u64) as usize);
                        roll_back(&mut m, state);
                    }
                    // Back to before some block's first write.
                    1 => {
                        let cb = rng.below(LINES / coverage);
                        let cleared = (cb * coverage..(cb + 1) * coverage)
                            .map(|l| (LineAddr::new(l), None))
                            .collect();
                        roll_back(&mut m, (cb, None, cleared));
                    }
                    2 | 3 => saved.push(block_state(&m, cb)),
                    _ => prop_assert!(m.write(line, value).is_ok(), "step {} refused", step),
                }
                check_images(&m).map_err(|e| format!("step {step}: {e}"))?;
            }
            let (rebases, morphs) = (m.tree().overflows_by_level()[0], m.tree().morphs());
            prop_assert_eq!(rebases > 0, design != CounterDesign::Monolithic);
            prop_assert_eq!(morphs > 0, design == CounterDesign::Morphable);

            // The same writes through the service, then recovery from its
            // checkpoint and journal, which installs every block by restore.
            let cfg = ServiceConfig::default();
            let svc =
                SecureMemoryService::with_design(InMemoryBackend::new(), seed, LINES, design, cfg);
            for (i, &write) in writes.iter().enumerate() {
                if i == MIXED / 2 {
                    svc.checkpoint().map_err(|e| e.to_string())?;
                }
                svc.batch_write(&[write]).map_err(|e| e.to_string())?;
            }
            let (r, report) = recover(svc.into_backend(), seed, LINES, design, cfg)
                .map_err(|e| e.to_string())?;
            prop_assert!(report.quarantined.is_empty());
            r.with_memory(check_images)?;
            // Later increments start from the restored images.
            for &write in &writes[MIXED..] {
                r.batch_write(&[write]).map_err(|e| e.to_string())?;
            }
            r.with_memory(check_images)?;
        }
    }

    #[test]
    fn stress_random_writes_and_reads() {
        let mut rng = emcc_sim::Rng64::new(77);
        let mut m = FunctionalSecureMemory::new(77, 1 << 12);
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        for _ in 0..5_000 {
            let l = rng.below(512);
            let v = rng.next_u64();
            m.write(LineAddr::new(l), block(v)).unwrap();
            shadow.insert(l, v);
        }
        for (l, v) in shadow {
            assert_eq!(m.read(LineAddr::new(l)).unwrap(), block(v));
        }
    }
}
