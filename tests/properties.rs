//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use emcc::counters::format::{decode_morphable, encode_morphable};
use emcc::counters::{CounterBlock, CounterDesign, MorphFormat, TreeGeometry};
use emcc::crypto::mac::gf64_mul;
use emcc::crypto::{BlockCipherKeys, DataBlock};
use emcc::secmem::FunctionalSecureMemory;
use emcc::sim::{LineAddr, Time};

proptest! {
    /// Counter-mode encryption round-trips for arbitrary data, address
    /// and counter.
    #[test]
    fn encrypt_decrypt_roundtrip(
        words in prop::array::uniform8(any::<u64>()),
        addr in 0u64..(1 << 40),
        counter in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let keys = BlockCipherKeys::from_seed(seed);
        let plain = DataBlock::from_words(words);
        let cipher = keys.encrypt_block(addr, counter, &plain);
        prop_assert_eq!(keys.decrypt_block(addr, counter, &cipher), plain);
    }

    /// Any single-bit corruption of the ciphertext is detected by the MAC.
    #[test]
    fn any_bit_flip_detected(
        words in prop::array::uniform8(any::<u64>()),
        bit in 0usize..512,
        counter in any::<u64>(),
    ) {
        let keys = BlockCipherKeys::from_seed(7);
        let plain = DataBlock::from_words(words);
        let cipher = keys.encrypt_block(0x1000, counter, &plain);
        let mac = keys.mac_block(0x1000, counter, &cipher);
        let tampered = cipher.with_bit_flipped(bit);
        prop_assert!(!keys.verify_block(0x1000, counter, &tampered, mac));
    }

    /// Decryption with the wrong counter never returns the plaintext
    /// (freshness) and fails verification (anti-replay).
    #[test]
    fn wrong_counter_rejected(
        words in prop::array::uniform8(any::<u64>()),
        counter in 0u64..u64::MAX - 1,
    ) {
        let keys = BlockCipherKeys::from_seed(11);
        let plain = DataBlock::from_words(words);
        let cipher = keys.encrypt_block(0x40, counter, &plain);
        let mac = keys.mac_block(0x40, counter, &cipher);
        prop_assert_ne!(keys.decrypt_block(0x40, counter + 1, &cipher), plain);
        prop_assert!(!keys.verify_block(0x40, counter + 1, &cipher, mac));
    }

    /// GF(2^64) multiplication is commutative and distributes over XOR.
    #[test]
    fn gf64_field_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assert_eq!(gf64_mul(a, b), gf64_mul(b, a));
        prop_assert_eq!(gf64_mul(a, b ^ c), gf64_mul(a, b) ^ gf64_mul(a, c));
        prop_assert_eq!(gf64_mul(gf64_mul(a, b), c), gf64_mul(a, gf64_mul(b, c)));
    }

    /// Morphable encode/decode round-trips for any representable minors.
    #[test]
    fn morphable_roundtrip(
        values in prop::collection::vec(0u16..=127, 1..=30),
        positions in prop::collection::vec(0usize..128, 1..=30),
        major in any::<u64>(),
        mac in 0u64..(1 << 56),
    ) {
        let mut minors = [0u16; 128];
        for (v, p) in values.iter().zip(&positions) {
            minors[*p] = *v;
        }
        if let Some(fmt) = MorphFormat::fitting(&minors) {
            let bytes = encode_morphable(fmt, major, &minors, mac);
            let (f2, m2, minors2, mac2) = decode_morphable(&bytes).expect("valid tag");
            prop_assert_eq!(f2, fmt);
            prop_assert_eq!(m2, major);
            prop_assert_eq!(mac2, mac);
            prop_assert_eq!(minors2, minors);
        }
    }

    /// Counter values are strictly monotonic per slot under any write
    /// sequence, for every design (the security invariant: pads never
    /// repeat).
    #[test]
    fn counters_strictly_monotonic(
        slots in prop::collection::vec(0usize..64, 1..400),
        design_idx in 0usize..3,
    ) {
        let design = CounterDesign::all()[design_idx];
        let mut block = CounterBlock::new(design);
        let n = design.coverage() as usize;
        let mut last: Vec<u64> = (0..n).map(|s| block.counter(s)).collect();
        for s in slots {
            let s = s % n;
            let r = block.increment(s);
            prop_assert!(r.new_counter > last[s], "slot {} not monotonic", s);
            // Rebase changes every slot's counter; all must still move
            // forward (re-encryption with strictly fresh counters).
            for (i, l) in last.iter_mut().enumerate() {
                let now = block.counter(i);
                prop_assert!(now >= *l || i == s, "slot {} went backwards", i);
                *l = now;
            }
        }
    }

    /// Tree geometry: every data line maps to a valid counter block, and
    /// the verification path is consistent parent chaining.
    #[test]
    fn tree_geometry_consistency(line in 0u64..(1 << 31), design_idx in 0usize..3) {
        let design = CounterDesign::all()[design_idx];
        let g = TreeGeometry::new(design, 1 << 31);
        let la = LineAddr::new(line);
        let cb = g.counter_block_of(la);
        prop_assert!(cb < g.blocks_at_level(0));
        prop_assert!((g.slot_of(la) as u64) < design.coverage());
        let path = g.verification_path(la);
        prop_assert_eq!(path.len() as u32, g.num_levels());
        // Each element's (level, index) chains by arity division.
        let mut expect = (0u32, cb);
        for node in path {
            prop_assert_eq!(g.node_of_addr(node), expect);
            expect = match g.parent_of(expect.0, expect.1) {
                Some(p) => p,
                None => break,
            };
        }
    }

    /// The functional secure memory returns exactly what was written,
    /// under arbitrary interleavings of writes and reads.
    #[test]
    fn functional_memory_linearizes(
        ops in prop::collection::vec((0u64..256, any::<u64>()), 1..120),
    ) {
        let mut mem = FunctionalSecureMemory::with_design(5, 1 << 14, CounterDesign::Sc64);
        let mut shadow = std::collections::HashMap::new();
        for (line, value) in ops {
            mem.write(LineAddr::new(line), DataBlock::from_words([value; 8])).unwrap();
            shadow.insert(line, value);
            // Random earlier line must still verify and match.
            if let Some((&l, &v)) = shadow.iter().next() {
                let got = mem.read(LineAddr::new(l)).expect("verified read");
                prop_assert_eq!(got, DataBlock::from_words([v; 8]));
            }
        }
    }

    /// Any single-bit flip of a stored line's ciphertext is detected, and
    /// the split read (OTP first, as EMCC overlaps it with the data fetch)
    /// agrees with the monolithic verdict.
    #[test]
    fn stored_cipher_bit_flip_detected(
        line in 0u64..512,
        bit in 0usize..512,
        value in any::<u64>(),
    ) {
        let mut m = FunctionalSecureMemory::new(3, 1 << 10);
        let la = LineAddr::new(line);
        m.write(la, DataBlock::from_words([value; 8])).unwrap();
        m.tamper_flip_bit(la, bit);
        prop_assert!(m.read(la).is_err());
        prop_assert!(m.read_split(la).is_err());
    }

    /// Any single-bit flip of a stored line's 56-bit MAC is detected.
    #[test]
    fn stored_mac_bit_flip_detected(
        line in 0u64..512,
        bit in 0usize..56,
        value in any::<u64>(),
    ) {
        let mut m = FunctionalSecureMemory::new(5, 1 << 10);
        let la = LineAddr::new(line);
        m.write(la, DataBlock::from_words([value; 8])).unwrap();
        m.tamper_mac_flip_bit(la, bit);
        prop_assert!(m.read(la).is_err());
        prop_assert!(m.read_split(la).is_err());
    }

    /// Any single-bit flip of any node on a line's verification path — at
    /// any tree level, in the node image or its co-located MAC — fails the
    /// tree walk, for every counter design.
    #[test]
    fn tree_bit_flip_detected_at_every_level(
        line in 0u64..(1 << 14),
        path_step in 0usize..8,
        bit in 0usize..568,
        design_idx in 0usize..3,
    ) {
        let design = CounterDesign::all()[design_idx];
        let mut m = FunctionalSecureMemory::with_design(9, 1 << 14, design);
        let la = LineAddr::new(line);
        m.write(la, DataBlock::from_words([0xF00D; 8])).unwrap();
        let g = m.tree().geometry();
        let path = g.verification_path(la);
        let (level, index) = g.node_of_addr(path[path_step % path.len()]);
        prop_assert!(m.verify_path(la).is_ok(), "clean path must verify");
        m.tamper_tree_flip_bit(level, index, bit);
        prop_assert!(m.verify_path(la).is_err(), "level {} missed", level);
        prop_assert!(m.read_checked(la).is_err());
    }

    /// A replayed stale snapshot is detected no matter how many writes
    /// advanced the counter since the capture (anti-rollback).
    #[test]
    fn replay_detected_after_rewrites(
        line in 0u64..256,
        rewrites in 1usize..8,
        value in any::<u64>(),
    ) {
        let mut m = FunctionalSecureMemory::new(13, 1 << 10);
        let la = LineAddr::new(line);
        m.write(la, DataBlock::from_words([value; 8])).unwrap();
        let stale = m.raw(la).expect("line just written");
        for i in 0..rewrites {
            m.write(la, DataBlock::from_words([value ^ (i as u64 + 1); 8])).unwrap();
        }
        m.tamper_replay(la, stale);
        prop_assert!(m.read(la).is_err());
        prop_assert!(m.read_split(la).is_err());
    }

    /// Time arithmetic: saturating subtraction never underflows and
    /// max/min are consistent.
    #[test]
    fn time_arithmetic(a in 0u64..(1 << 50), b in 0u64..(1 << 50)) {
        let (ta, tb) = (Time::from_ps(a), Time::from_ps(b));
        prop_assert!(ta.saturating_sub(tb) <= ta);
        prop_assert_eq!(ta.saturating_sub(tb) + ta.min(tb), ta);
        prop_assert_eq!(ta.checked_sub(tb).is_some(), a >= b);
        prop_assert_eq!(ta.max(tb).as_ps(), a.max(b));
        prop_assert_eq!((ta + tb).as_ps(), a + b);
    }
}
