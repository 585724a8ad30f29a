//! Write-ahead journal and checkpoint codecs.
//!
//! The service persists *ciphertext* state only — line images and counter
//! blocks — never plaintext or keys: the key seed is supplied by the
//! operator at recovery time, so a stolen journal is no more useful than a
//! stolen DIMM. One journal record captures what one logical write
//! changed, read off its [`WriteLog`]: the post-write major counter and
//! format tag of the single level-0 counter block it bumped, each slot of
//! that block whose raw value changed, and every re-encrypted line image.
//! A plain write bumps one minor, so its record lists one slot; a rebase or
//! a Morphable re-format lists every slot it rewrote, so one record kind
//! covers all three. A checkpoint is a list of the same record bodies, one
//! per counter block: frames and checkpoints share one body codec.
//!
//! # Frame format
//!
//! ```text
//! [ len: u32 | !len: u32 | body: len bytes | check: u64 ]
//! ```
//!
//! `check` is the checksum of the body seeded with the *previous*
//! record's check (chaining), so records cannot be reordered or spliced
//! between journals. The redundant `!len` guard distinguishes the two
//! failure modes recovery must tell apart:
//!
//! * **Torn tail** — a crash mid-append leaves a strict byte *prefix* of
//!   the final record. The frame header is incomplete, or complete but the
//!   body/check runs past end-of-file. The record was never acknowledged,
//!   so the tail is silently discarded.
//! * **Corruption** — a complete frame whose `len`/`!len` disagree or whose
//!   checksum fails. That is not an append crash (appends only truncate);
//!   it is reported as a hard [`JournalError::Corrupt`], never repaired
//!   silently.
//!
//! # Record body
//!
//! Integers are little-endian:
//!
//! ```text
//! seq: u64 | counter_block: u64 | major: u64 | format_tag: u8
//! n_slots: u32 | n_slots × (slot: u32, raw: u64)
//! n_lines: u32 | n_lines × (line: u64, cipher: 8 × u64, mac: u64)
//! ```
//!
//! A slot entry is the post-write raw value of a slot that differs from the
//! pre-write block, an absent block counting as all zeros
//! ([`JournalRecord::of_write`]). Replay patches the block it holds, or an
//! all-zero one, and validates the result through `CounterBlock::restore`
//! ([`JournalRecord::replay_block`]). A write that does not rebase appends
//! a 141-byte frame under every design. A MAC word wider than 56 bits is
//! rejected, not masked.
//!
//! # Checkpoint format
//!
//! ```text
//! "EMCCKPT3" | design: u8 | data_lines: u64 | last_seq: u64
//! n_records: u32 | n_records × record body | check: u64
//! ```
//!
//! One record per level-0 counter block that holds state, ascending: its
//! major, its format tag, its nonzero slots (those that differ from an
//! absent block) and every stored line it covers, with the checkpoint's
//! `last_seq` as its `seq`. A stored line whose block holds no counters
//! (only a replay onto a never-written line makes one) gets a record with
//! no slots, so re-verification after recovery still flags it. `check`
//! covers every byte before it, seeded with [`CHAIN_SEED`].
//!
//! # Checksum
//!
//! Frames and checkpoints share one checksum: the multiply-rotate step
//! of [`emcc_sim::hash::FastHasher`] over the seed, then the bytes a
//! little-endian word at a time, then their count. Each step is a bijection
//! of the state for a fixed word and of the word for a fixed state, so any
//! one changed word — every single-bit flip — changes the check. A
//! word-wide FNV-1a would let two flips of a word's top bit cancel (an odd
//! multiplier maps a top-bit difference to itself); the rotate moves that
//! difference to bit 4 before the next multiply spreads it, and the tests
//! find every same-bit double flip of a delta frame detected. The pattern
//! "bit 63 of one word, bit 4 of the next" still cancels, so this is a check
//! against torn and flipped media, not an authenticator: the line MACs and
//! the integrity tree are that.
//!
//! # Versions
//!
//! Checkpoints open with the magic `EMCCKPT3`. Files of an earlier format
//! are not migrated: their checkpoints fail as bad magic, and frames of
//! the first format fail their checksum, both reported as corruption.

use std::borrow::Borrow;
use std::hash::Hasher;

use emcc_counters::{CounterBlock, CounterDesign};
use emcc_crypto::{DataBlock, Mac56};
use emcc_sim::hash::FastHasher;
use emcc_sim::LineAddr;

use crate::functional::{FunctionalSecureMemory, StoredLine, WriteLog};

/// Chain seed of an empty journal, and the seed of a checkpoint's
/// whole-file check.
pub const CHAIN_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Sanity cap on one record's body; larger `len` fields are corruption.
/// (A Morphable rebase record: 128 slots + 128 line images ≈ 12 KB.)
const MAX_RECORD_BYTES: usize = 1 << 20;

/// Checkpoint file magic + version.
const CHECKPOINT_MAGIC: &[u8; 8] = b"EMCCKPT3";

/// The frame and checkpoint check: `seed`, then `bytes` a little-endian
/// word at a time (a short last word zero-padded, its length in the top
/// byte), then the byte count, through [`FastHasher`]'s multiply-rotate
/// step. The count mixes the last word's difference once more, so a flip
/// of its top bit cannot be cancelled by the same flip in the stored
/// check.
fn checksum(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = FastHasher::default();
    h.write_u64(seed);
    h.write(bytes);
    h.write_u64(bytes.len() as u64);
    h.finish()
}

/// One record: the persistent effect of one acknowledged write, or in a
/// checkpoint the whole state of one level-0 counter block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Strictly increasing sequence number (1-based); in a checkpoint, the
    /// checkpoint's last sequence number.
    pub seq: u64,
    /// Index of the level-0 counter block the record sets.
    pub counter_block: u64,
    /// Post-write major counter of that block.
    pub major: u64,
    /// Post-write storage format tag ([`emcc_counters::MorphFormat::tag`]).
    pub format_tag: u8,
    /// `(slot, post-write raw value)` of every slot the write changed
    /// ([`CounterBlock::changed_slots`] against the pre-write block); in a
    /// checkpoint, of every nonzero slot.
    pub slots: Vec<(u32, u64)>,
    /// Post-write image of every line the write re-encrypted, ascending;
    /// in a checkpoint, of every stored line the block covers.
    pub lines: Vec<(LineAddr, StoredLine)>,
}

impl JournalRecord {
    /// The record of write `seq`, which `log` describes.
    pub fn of_write(seq: u64, log: &WriteLog) -> Self {
        JournalRecord {
            seq,
            counter_block: log.counter_block,
            major: log.after.major(),
            format_tag: log.after.format().tag(),
            slots: log.after.changed_slots(log.before.as_ref()),
            lines: log.touched.iter().map(|&(l, _, s)| (l, s)).collect(),
        }
    }

    /// The counter block this record leaves: `held`, the block replay
    /// holds at `counter_block` (`None`: all zeros), with the record's
    /// slots patched in, its major and format tag, validated whole.
    ///
    /// # Errors
    ///
    /// A slot at or past the design's coverage, or a block
    /// [`CounterBlock::restore`] rejects.
    pub fn replay_block(
        &self,
        design: CounterDesign,
        held: Option<&CounterBlock>,
    ) -> Result<CounterBlock, String> {
        let coverage = design.coverage() as usize;
        let mut slots = held.map_or_else(|| vec![0; coverage], CounterBlock::raw_slots);
        for &(slot, raw) in &self.slots {
            let s = slots
                .get_mut(slot as usize)
                .ok_or_else(|| format!("record slot {slot} outside the {coverage}-slot block"))?;
            *s = raw;
        }
        CounterBlock::restore(design, self.major, self.format_tag, &slots)
    }
}

/// Why a journal failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// A complete frame failed validation at the given byte offset.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: usize,
        /// Human-readable cause.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Result of scanning a journal byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// Every complete, checksum-valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn tail discarded (an unacknowledged partial append).
    pub discarded_tail_bytes: usize,
    /// Chain state after the last valid record — the seed for the next
    /// append.
    pub final_check: u64,
}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// One record body, laid out as the module docs give it.
    fn body<S: Borrow<StoredLine>>(
        &mut self,
        seq: u64,
        counter_block: u64,
        (major, format_tag): (u64, u8),
        slots: &[(u32, u64)],
        lines: &[(LineAddr, S)],
    ) {
        self.u64(seq);
        self.u64(counter_block);
        self.u64(major);
        self.u8(format_tag);
        self.u32(slots.len() as u32);
        for &(slot, raw) in slots {
            self.u32(slot);
            self.u64(raw);
        }
        self.u32(lines.len() as u32);
        for (line, stored) in lines {
            let stored = stored.borrow();
            self.u64(line.get());
            for &c in stored.cipher.words() {
                self.u64(c);
            }
            self.u64(stored.mac.as_u64());
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.bytes.len() {
            return Err(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn line(&mut self) -> Result<(LineAddr, StoredLine), String> {
        let line = LineAddr::new(self.u64()?);
        let mut cipher = [0u64; 8];
        for c in &mut cipher {
            *c = self.u64()?;
        }
        let mac = self.u64()?;
        if mac >> 56 != 0 {
            return Err(format!(
                "line {}: MAC word {mac:#x} is wider than 56 bits",
                line.get()
            ));
        }
        let stored = StoredLine {
            cipher: DataBlock::from_words(cipher),
            mac: Mac56::from_u64(mac),
        };
        Ok((line, stored))
    }
    /// One record body, as [`Writer::body`] wrote it.
    fn body(&mut self) -> Result<JournalRecord, String> {
        let seq = self.u64()?;
        let counter_block = self.u64()?;
        let major = self.u64()?;
        let format_tag = self.u8()?;
        let n_slots = self.u32()? as usize;
        if n_slots > 128 {
            return Err(format!("slot count {n_slots} exceeds any design coverage"));
        }
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            slots.push((self.u32()?, self.u64()?));
        }
        let n_lines = self.u32()? as usize;
        if n_lines > 128 {
            return Err(format!("line count {n_lines} exceeds any rebase region"));
        }
        let mut lines = Vec::with_capacity(n_lines);
        for _ in 0..n_lines {
            lines.push(self.line()?);
        }
        Ok(JournalRecord {
            seq,
            counter_block,
            major,
            format_tag,
            slots,
            lines,
        })
    }
    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_body(body: &[u8]) -> Result<JournalRecord, String> {
    let mut r = Reader::new(body);
    let rec = r.body()?;
    if !r.done() {
        return Err("trailing bytes after record body".into());
    }
    Ok(rec)
}

/// Encodes one record as a framed journal append, chaining from
/// `prev_check`. Returns the frame bytes and the new chain state.
pub fn encode_record(rec: &JournalRecord, prev_check: u64) -> (Vec<u8>, u64) {
    let mut w = Writer(Vec::with_capacity(
        49 + rec.slots.len() * 12 + rec.lines.len() * 80,
    ));
    w.u64(0); // `len | !len`, known once the body is written
    w.body(
        rec.seq,
        rec.counter_block,
        (rec.major, rec.format_tag),
        &rec.slots,
        &rec.lines,
    );
    let len = (w.0.len() - 8) as u32;
    w.0[..4].copy_from_slice(&len.to_le_bytes());
    w.0[4..8].copy_from_slice(&(!len).to_le_bytes());
    let check = checksum(prev_check, &w.0[8..]);
    w.u64(check);
    (w.0, check)
}

/// Scans a journal byte stream into records, discarding a torn tail and
/// rejecting corruption.
///
/// # Errors
///
/// Returns [`JournalError::Corrupt`] for any complete frame whose length
/// guard, checksum chain, or body fails validation.
pub fn scan_journal(bytes: &[u8]) -> Result<JournalScan, JournalError> {
    let mut records = Vec::new();
    let mut check = CHAIN_SEED;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            // Incomplete frame header: torn append.
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let nlen = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len != !nlen {
            return Err(JournalError::Corrupt {
                offset: pos,
                reason: format!("length guard mismatch: len={len:#x} !len={nlen:#x}"),
            });
        }
        let len = len as usize;
        if len > MAX_RECORD_BYTES {
            return Err(JournalError::Corrupt {
                offset: pos,
                reason: format!("record length {len} exceeds sanity cap"),
            });
        }
        if rest.len() < 8 + len + 8 {
            // Complete header, incomplete body/checksum: torn append.
            break;
        }
        let body = &rest[8..8 + len];
        let stored = u64::from_le_bytes(rest[8 + len..8 + len + 8].try_into().unwrap());
        let expect = checksum(check, body);
        if stored != expect {
            return Err(JournalError::Corrupt {
                offset: pos,
                reason: "checksum chain mismatch".into(),
            });
        }
        let rec = decode_body(body).map_err(|reason| JournalError::Corrupt {
            offset: pos,
            reason,
        })?;
        check = expect;
        records.push(rec);
        pos += 8 + len + 8;
    }
    Ok(JournalScan {
        records,
        discarded_tail_bytes: bytes.len() - pos,
        final_check: check,
    })
}

/// A decoded checkpoint: full persistent state at `last_seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Counter design the state was captured under.
    pub design: CounterDesign,
    /// Protected data-line count.
    pub data_lines: u64,
    /// Sequence number of the last write the checkpoint includes.
    pub last_seq: u64,
    /// One record per level-0 counter block that holds counters, stored
    /// lines or both, ascending by block.
    pub records: Vec<JournalRecord>,
}

/// Why a checkpoint failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    /// Human-readable cause.
    pub reason: String,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint corrupt: {}", self.reason)
    }
}

impl std::error::Error for CheckpointError {}

fn design_tag(d: CounterDesign) -> u8 {
    match d {
        CounterDesign::Monolithic => 0,
        CounterDesign::Sc64 => 1,
        CounterDesign::Morphable => 2,
    }
}

fn design_from_tag(tag: u8) -> Option<CounterDesign> {
    match tag {
        0 => Some(CounterDesign::Monolithic),
        1 => Some(CounterDesign::Sc64),
        2 => Some(CounterDesign::Morphable),
        _ => None,
    }
}

/// Encodes the checkpoint of `mem` after write `last_seq`: the header, one
/// record per level-0 counter block that holds state, written in one
/// ordered pass over the memory's sorted blocks and stored lines, and a
/// trailing whole-file checksum.
pub fn encode_checkpoint(mem: &FunctionalSecureMemory, last_seq: u64) -> Vec<u8> {
    let g = mem.tree().geometry();
    let coverage = g.design().coverage();
    let mut blocks = mem.tree().level0_blocks().into_iter().peekable();
    let stored = mem.stored_lines();
    let mut lines = &stored[..];
    let absent = CounterBlock::new(g.design());
    // Sized once for every line and every slot of every block: growing by
    // doubling would copy the image again and fault in fresh pages.
    let mut w = Writer(Vec::with_capacity(
        37 + stored.len() * 80 + blocks.len() * (33 + 12 * coverage as usize),
    ));
    w.0.extend_from_slice(CHECKPOINT_MAGIC);
    w.u8(design_tag(g.design()));
    w.u64(g.data_lines());
    w.u64(last_seq);
    let count_at = w.0.len();
    w.u32(0); // the record count, known once the records are written
    let mut records = 0u32;
    while let Some(index) = (blocks.peek().map(|b| b.0))
        .into_iter()
        .chain(lines.first().map(|&(l, _)| g.counter_block_of(l)))
        .min()
    {
        let block = blocks.next_if(|b| b.0 == index).map(|b| b.1);
        let block = block.as_ref().unwrap_or(&absent);
        let (covered, rest) =
            lines.split_at(lines.partition_point(|&(l, _)| l.get() < (index + 1) * coverage));
        w.body(
            last_seq,
            index,
            (block.major(), block.format().tag()),
            &block.changed_slots(None),
            covered,
        );
        lines = rest;
        records += 1;
    }
    w.0[count_at..count_at + 4].copy_from_slice(&records.to_le_bytes());
    let check = checksum(CHAIN_SEED, &w.0);
    w.u64(check);
    w.0
}

/// Decodes and validates a checkpoint image.
///
/// # Errors
///
/// Returns [`CheckpointError`] on bad magic (an image of another format
/// version included), a failed checksum, or any structural inconsistency.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let fail = |reason: String| CheckpointError { reason };
    if bytes.len() < CHECKPOINT_MAGIC.len() + 8 {
        return Err(fail("shorter than header + checksum".into()));
    }
    if &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
        return Err(fail(format!(
            "bad magic {:?}, expected {:?}",
            String::from_utf8_lossy(&bytes[..CHECKPOINT_MAGIC.len()]),
            String::from_utf8_lossy(CHECKPOINT_MAGIC)
        )));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if checksum(CHAIN_SEED, payload) != stored {
        return Err(fail("whole-file checksum mismatch".into()));
    }
    let mut r = Reader::new(&payload[CHECKPOINT_MAGIC.len()..]);
    let design =
        design_from_tag(r.u8().map_err(fail)?).ok_or_else(|| fail("unknown design tag".into()))?;
    let data_lines = r.u64().map_err(fail)?;
    let last_seq = r.u64().map_err(fail)?;
    let n_records = r.u32().map_err(fail)? as usize;
    let mut records = Vec::with_capacity(n_records.min(1 << 16));
    for _ in 0..n_records {
        records.push(r.body().map_err(fail)?);
    }
    if !r.done() {
        return Err(fail("trailing bytes after the records".into()));
    }
    Ok(Checkpoint {
        design,
        data_lines,
        last_seq,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain write's record: one changed slot, one line image.
    fn record(seq: u64) -> JournalRecord {
        JournalRecord {
            seq,
            counter_block: 3,
            major: 1,
            format_tag: 0,
            slots: vec![(9, seq)],
            lines: vec![(
                LineAddr::new(9),
                StoredLine {
                    cipher: DataBlock::from_words([seq; 8]),
                    mac: Mac56::from_u64(0xABCD),
                },
            )],
        }
    }

    fn journal_of(n: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut check = CHAIN_SEED;
        for seq in 1..=n {
            let (frame, c) = encode_record(&record(seq), check);
            bytes.extend_from_slice(&frame);
            check = c;
        }
        bytes
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn record_roundtrip_chain() {
        let bytes = journal_of(5);
        let scan = scan_journal(&bytes).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.discarded_tail_bytes, 0);
        assert_eq!(scan.records[2], record(3));
    }

    #[test]
    fn empty_journal_scans_clean() {
        let scan = scan_journal(&[]).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.final_check, CHAIN_SEED);
    }

    #[test]
    fn torn_tail_discarded_at_every_prefix_length() {
        let full = journal_of(3);
        let two = journal_of(2);
        // Any strict prefix that cuts into record 3 must yield exactly the
        // first two records with the remainder discarded as torn tail.
        for cut in two.len() + 1..full.len() {
            let scan = scan_journal(&full[..cut]).expect("torn tail is not corruption");
            assert_eq!(scan.records.len(), 2, "cut at {cut}");
            assert_eq!(scan.discarded_tail_bytes, cut - two.len());
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = journal_of(2);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match scan_journal(&bad) {
                Err(JournalError::Corrupt { .. }) => {}
                Ok(scan) => panic!(
                    "flip at byte {i} went unnoticed: {} records, {} tail",
                    scan.records.len(),
                    scan.discarded_tail_bytes
                ),
            }
        }
    }

    #[test]
    fn every_same_bit_double_flip_in_a_delta_frame_is_detected() {
        // Flip the same bit of two different little-endian words of the
        // frame: the pattern a word-wide FNV-1a misses whenever that bit is
        // the top one.
        let (frame, _) = encode_record(&record(7), CHAIN_SEED);
        assert_eq!(frame.len(), 141);
        let mut flips = 0;
        for i in 0..frame.len() {
            for j in (i + 8..frame.len()).step_by(8) {
                for bit in 0..8 {
                    let mut bad = frame.clone();
                    bad[i] ^= 1 << bit;
                    bad[j] ^= 1 << bit;
                    assert!(
                        scan_journal(&bad).is_err(),
                        "bit {bit} of bytes {i} and {j} flipped unnoticed"
                    );
                    flips += 1;
                }
            }
        }
        assert_eq!(flips, 9_384);
    }

    #[test]
    fn a_mac_word_wider_than_56_bits_is_rejected() {
        // Set a bit above the MAC's 56 and re-seal the frame's check.
        let (mut frame, _) = encode_record(&record(1), CHAIN_SEED);
        let end = frame.len() - 8;
        frame[end - 1] = 0x01;
        let check = checksum(CHAIN_SEED, &frame[8..end]);
        frame[end..].copy_from_slice(&check.to_le_bytes());
        match scan_journal(&frame) {
            Err(JournalError::Corrupt { reason, .. }) => {
                assert!(reason.contains("wider than 56 bits"), "{reason}")
            }
            Ok(scan) => panic!("decoded as {:?}", scan.records),
        }
    }

    #[test]
    fn records_cannot_be_reordered() {
        let (f1, c1) = encode_record(&record(1), CHAIN_SEED);
        let (f2, _) = encode_record(&record(2), c1);
        let mut swapped = f2.clone();
        swapped.extend_from_slice(&f1);
        assert!(matches!(
            scan_journal(&swapped),
            Err(JournalError::Corrupt { .. })
        ));
    }

    /// A memory of `data_lines` lines under `design` holding exactly
    /// `blocks` and `lines`.
    fn memory(
        design: CounterDesign,
        data_lines: u64,
        blocks: &[(u64, CounterBlock)],
        lines: &[(LineAddr, StoredLine)],
    ) -> FunctionalSecureMemory {
        let mut mem = FunctionalSecureMemory::with_design(1, data_lines, design);
        for (index, block) in blocks {
            mem.restore_counter_block(*index, Some(block.clone()));
        }
        for &(line, stored) in lines {
            mem.restore_line(line, Some(stored));
        }
        mem
    }

    #[test]
    fn checkpoint_roundtrip() {
        let design = CounterDesign::Morphable;
        let line = (
            LineAddr::new(7),
            StoredLine {
                cipher: DataBlock::from_words([1, 2, 3, 4, 5, 6, 7, 8]),
                mac: Mac56::from_u64(99),
            },
        );
        let blocks = [
            (0, CounterBlock::restore(design, 2, 0, &[3; 128]).unwrap()),
            (5, CounterBlock::new(design)),
        ];
        let mem = memory(design, 1 << 12, &blocks, &[line]);
        let ckpt = Checkpoint {
            design,
            data_lines: 1 << 12,
            last_seq: 42,
            records: vec![
                JournalRecord {
                    seq: 42,
                    counter_block: 0,
                    major: 2,
                    format_tag: 0,
                    slots: (0..128).map(|slot| (slot, 3)).collect(),
                    lines: vec![line],
                },
                JournalRecord {
                    seq: 42,
                    counter_block: 5,
                    major: 0,
                    format_tag: 0,
                    slots: Vec::new(),
                    lines: Vec::new(),
                },
            ],
        };
        let bytes = encode_checkpoint(&mem, 42);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), ckpt);
    }

    #[test]
    fn checkpoint_byte_flips_detected() {
        let design = CounterDesign::Sc64;
        let block = CounterBlock::restore(design, 0, 0, &[1; 64]).unwrap();
        let bytes = encode_checkpoint(&memory(design, 64, &[(0, block)], &[]), 1);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x08;
            assert!(decode_checkpoint(&bad).is_err(), "flip at byte {i}");
        }
        // Truncation too.
        assert!(decode_checkpoint(&bytes[..bytes.len() - 3]).is_err());
    }

    /// The persisted bytes are a format: a change to the codec or to the
    /// hasher it borrows must fail here rather than strand existing files.
    #[test]
    fn frame_and_checkpoint_bytes_are_pinned() {
        let (frame, check) = encode_record(&record(7), CHAIN_SEED);
        assert_eq!(
            hex(&frame),
            concat!(
                "7d00000082ffffff",                 // len 125, !len
                "0700000000000000",                 // seq
                "0300000000000000",                 // counter block
                "0100000000000000",                 // major
                "00",                               // format tag
                "01000000090000000700000000000000", // one slot: 9 = 7
                "010000000900000000000000",         // one line: 9
                "0700000000000000070000000000000007000000000000000700000000000000",
                "0700000000000000070000000000000007000000000000000700000000000000",
                "cdab000000000000", // MAC
                "430bc1838dc959d6", // check
            )
        );
        assert_eq!(check, 0xd659_c98d_83c1_0b43);
        let design = CounterDesign::Monolithic;
        let block = CounterBlock::restore(design, 0, 0, &[2, 0, 0, 0, 0, 0, 0, 1]).unwrap();
        let mem = memory(design, 64, &[(0, block)], &[]);
        assert_eq!(
            hex(&encode_checkpoint(&mem, 2)),
            concat!(
                "454d43434b505433", // EMCCKPT3
                "00",               // Monolithic
                "4000000000000000", // data lines
                "0200000000000000", // last seq
                "01000000",         // one record
                "0200000000000000", // its seq: the last seq
                "0000000000000000", // counter block 0
                "0000000000000000", // major
                "00",               // format tag
                "02000000",         // two nonzero slots
                "000000000200000000000000",
                "070000000100000000000000",
                "00000000",         // no lines
                "736942a767d9ad16", // check
            )
        );
    }

    #[test]
    fn second_format_checkpoint_is_rejected() {
        // The checkpoint the second format's byte pin held: block 0 of a
        // 64-line Monolithic memory, whole, after write 2.
        let old = concat!(
            "454d43434b505432",
            "00",
            "4000000000000000",
            "0200000000000000",
            "01000000",
            "00000000000000000000000000000000",
            "0008000000",
            "0200000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000100000000000000",
            "00000000",
            "ab50dc02c5155bce",
        );
        let old: Vec<u8> = (0..old.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&old[i..i + 2], 16).unwrap())
            .collect();
        let err = decode_checkpoint(&old).unwrap_err();
        assert!(err.reason.contains("bad magic"), "{err}");
    }

    #[test]
    fn first_format_checkpoint_is_rejected() {
        // An empty Monolithic checkpoint as the first format wrote it.
        let mut old = b"EMCCKPT1".to_vec();
        old.push(0); // design tag
        old.extend_from_slice(&64u64.to_le_bytes()); // data_lines
        old.extend_from_slice(&[0; 16]); // last_seq, no blocks, no lines
        old.extend_from_slice(&0x359c_b117_00a5_24ffu64.to_le_bytes()); // byte-serial FNV-1a
        let err = decode_checkpoint(&old).unwrap_err();
        assert!(err.reason.contains("bad magic"), "{err}");
        // Relabelled, it still fails: its check is not this format's.
        old[7] = b'3';
        assert!(decode_checkpoint(&old).is_err());
    }
}
