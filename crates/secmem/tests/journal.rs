//! The journal's slot-delta records seen through the public service API:
//! a frame's size does not depend on the counter design's coverage, a
//! rebase's record lists every slot it changed, and recovery — from the
//! journal alone or from a checkpoint plus the journal — lands on exactly
//! the live service's persistent state.

use emcc_counters::CounterDesign;
use emcc_crypto::DataBlock;
use emcc_secmem::service::journal::{self, JournalRecord};
use emcc_secmem::service::{InMemoryBackend, StorageBackend};
use emcc_secmem::{
    recover, MemoryAdt, RecoveryError, RecoveryReport, SecureMemoryService, ServiceConfig,
    StoredLine,
};
use emcc_sim::{LineAddr, Rng64};
use proptest::prelude::*;

const SEED: u64 = 7;
const LINES: u64 = 256;
const DESIGNS: [CounterDesign; 3] = [
    CounterDesign::Monolithic,
    CounterDesign::Sc64,
    CounterDesign::Morphable,
];

fn block(v: u64) -> DataBlock {
    DataBlock::from_words([v; 8])
}

fn service(design: CounterDesign) -> SecureMemoryService<InMemoryBackend> {
    SecureMemoryService::with_design(
        InMemoryBackend::new(),
        SEED,
        LINES,
        design,
        ServiceConfig::default(),
    )
}

type Recovered = (SecureMemoryService<InMemoryBackend>, RecoveryReport);

fn recover_inmem(
    backend: InMemoryBackend,
    design: CounterDesign,
) -> Result<Recovered, RecoveryError> {
    recover(backend, SEED, LINES, design, ServiceConfig::default())
}

/// Each level-0 block as `(index, major, format tag, raw slots)`.
type Blocks = Vec<(u64, u64, u8, Vec<u64>)>;

/// Everything recovery must reproduce: every level-0 block and every
/// written line's stored image.
fn persistent(svc: &SecureMemoryService<InMemoryBackend>) -> (Blocks, Vec<(LineAddr, StoredLine)>) {
    svc.with_memory(|m| {
        let blocks = m
            .tree()
            .level0_blocks()
            .into_iter()
            .map(|(i, b)| (i, b.major(), b.format().tag(), b.raw_slots()))
            .collect();
        let lines = m.stored_lines().into_iter().map(|(l, s)| (l, *s)).collect();
        (blocks, lines)
    })
}

fn records(backend: &InMemoryBackend) -> Vec<JournalRecord> {
    journal::scan_journal(&backend.journal_bytes().unwrap())
        .expect("journal scans")
        .records
}

#[test]
fn plain_write_frames_do_not_scale_with_coverage() {
    for design in DESIGNS {
        let s = service(design);
        let line = LineAddr::new(3);
        let mut frames = Vec::new();
        for v in 0..3 {
            let before = s.stats().journal_bytes;
            s.batch_write(&[(line, block(v))]).unwrap();
            frames.push(s.stats().journal_bytes - before);
        }
        assert_eq!(frames, [141; 3], "{design:?}");
        let backend = s.into_backend();
        assert_eq!(backend.journal_bytes().unwrap().len(), 3 * 141);
        assert!(records(&backend).iter().all(|r| r.slots.len() == 1));
    }
}

#[test]
fn a_rebase_record_lists_every_changed_slot() {
    for design in [CounterDesign::Sc64, CounterDesign::Morphable] {
        let s = service(design);
        // Neighbours in the hot line's block: the rebase clears their minors.
        for l in 0..3 {
            s.batch_write(&[(LineAddr::new(l), block(l))]).unwrap();
        }
        let hot = LineAddr::new(5);
        let state = |s: &SecureMemoryService<InMemoryBackend>| {
            s.with_memory(|m| {
                let b = m.counter_block_state(0).expect("block 0 written");
                (
                    b.raw_slots(),
                    b.format().tag(),
                    m.tree().overflows_by_level()[0],
                )
            })
        };
        let (mut rebase, mut reformat) = (None, None);
        for v in 0..200 {
            let (before, tag, rebases) = state(&s);
            let seq = s.batch_write(&[(hot, block(v))]).unwrap().last_seq;
            let (after, new_tag, now) = state(&s);
            let changed: Vec<(u32, u64)> = (0..)
                .zip(before.iter().zip(&after))
                .filter(|(_, (b, a))| b != a)
                .map(|(slot, (_, &a))| (slot, a))
                .collect();
            if now > rebases {
                rebase = Some((seq, changed));
                break;
            }
            if new_tag != tag && reformat.is_none() {
                reformat = Some((seq, new_tag, changed));
            }
        }
        let (seq, changed) = rebase.expect("200 writes to one line rebase");
        assert_eq!(
            changed.len(),
            4,
            "{design:?}: the hot slot and three cleared"
        );
        let recs = records(&s.into_backend());
        let rec = &recs[seq as usize - 1];
        assert_eq!(rec.seq, seq);
        assert_eq!(rec.slots, changed, "{design:?}");
        assert_eq!(rec.lines.len(), 4, "every stored line re-encrypted");
        if design == CounterDesign::Morphable {
            let (seq, tag, changed) = reformat.expect("a hot Morphable line re-formats");
            let rec = &recs[seq as usize - 1];
            assert_eq!((rec.format_tag, &rec.slots), (tag, &changed));
            assert_eq!(changed.len(), 1, "a re-format rewrites no other slot");
        }
    }
}

/// A script of single-line writes: four of every five hammer four lines
/// of one counter block, the rest land anywhere. At least 140 writes hit
/// one hot line, so SC-64 and Morphable rebase, and Morphable re-formats
/// on the way.
fn script(seed: u64, n: usize) -> Vec<(LineAddr, DataBlock)> {
    let mut rng = Rng64::new(seed);
    let hot = rng.below(LINES / 128) * 128;
    (0..n)
        .map(|i| {
            let line = if i % 5 == 4 {
                rng.below(LINES)
            } else {
                hot + rng.below(4)
            };
            (LineAddr::new(line), block(rng.next_u64()))
        })
        .collect()
}

proptest! {
    #[test]
    fn replay_reproduces_the_live_state(
        design in 0usize..3,
        seed in any::<u64>(),
        n in 700usize..800,
        cut in 1usize..100,
    ) {
        let design = DESIGNS[design];
        let script = script(seed, n);
        let checkpoint_at = n * cut / 100;
        for checkpoint in [None, Some(checkpoint_at)] {
            let s = service(design);
            for (i, &write) in script.iter().enumerate() {
                if checkpoint == Some(i) {
                    s.checkpoint().unwrap();
                }
                s.batch_write(&[write]).unwrap();
            }
            let (rebases, morphs) =
                s.with_memory(|m| (m.tree().overflows_by_level()[0], m.tree().morphs()));
            prop_assert_eq!(rebases > 0, design != CounterDesign::Monolithic);
            prop_assert_eq!(morphs > 0, design == CounterDesign::Morphable);
            let live = persistent(&s);
            let (r, report) = recover_inmem(s.into_backend(), design).unwrap();
            prop_assert_eq!(report.had_checkpoint, checkpoint.is_some());
            prop_assert_eq!(report.replayed_records, n - checkpoint.unwrap_or(0));
            prop_assert!(report.quarantined.is_empty());
            prop_assert_eq!(persistent(&r), live);
        }
    }
}

#[test]
fn a_slot_past_the_coverage_is_rejected() {
    for design in DESIGNS {
        let coverage = design.coverage() as u32;
        for slot in [coverage, u32::MAX] {
            let rec = JournalRecord {
                seq: 1,
                counter_block: 0,
                major: 0,
                format_tag: 0,
                slots: vec![(slot, 1)],
                lines: Vec::new(),
            };
            let mut backend = InMemoryBackend::new();
            let (frame, _) = journal::encode_record(&rec, journal::CHAIN_SEED);
            backend.append_journal(&frame).unwrap();
            match recover_inmem(backend, design) {
                Err(RecoveryError::Inconsistent { reason }) => {
                    assert!(reason.contains("outside"), "{reason}")
                }
                other => panic!("{design:?} slot {slot}: {:?}", other.map(|(_, r)| r)),
            }
        }
    }
}
