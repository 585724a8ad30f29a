//! Property tests for the interleaved batch AES paths.
//!
//! `encrypt_batch` dispatches at run time: AES-NI on x86-64 CPUs that
//! have it, the T-table pass (`encrypt_batch_portable`) elsewhere. On a
//! host with AES-NI the dispatched call *is* the hardware path, so the
//! tests call the portable path directly: both must agree with the
//! byte-wise FIPS-197 reference rounds (`encrypt_reference`) for every
//! pipeline width 1..=8, any key and any blocks — the oracle that
//! licenses routing all hot-path OTP/MAC cipher work through
//! `encrypt_batch`.

use emcc_crypto::Aes128;
use proptest::prelude::*;

fn block_of(hi: u64, lo: u64) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&hi.to_be_bytes());
    b[8..].copy_from_slice(&lo.to_be_bytes());
    b
}

/// xorshift64*: eight decorrelated blocks from one seed (the proptest
/// shim's tuple strategies cap out before 16 u64s).
fn blocks_from_seed(seed: u64) -> [[u8; 16]; 8] {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    std::array::from_fn(|_| block_of(next(), next()))
}

proptest! {
    /// Dispatched ≡ T-table ≡ reference for every width: each lane of an
    /// N-wide batch must be exactly the byte-wise single-block encryption
    /// of its input, on both paths.
    #[test]
    fn batch_matches_reference_at_every_width(
        key_hi in any::<u64>(),
        key_lo in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let aes = Aes128::new(block_of(key_hi, key_lo));
        let blocks = blocks_from_seed(seed);
        macro_rules! check_width {
            ($($n:literal),+) => {$({
                let input: &[[u8; 16]; $n] = blocks[..$n].try_into().unwrap();
                let dispatched = aes.encrypt_batch(input);
                let portable = aes.encrypt_batch_portable(input);
                for ((block, ct), pt) in input.iter().zip(&dispatched).zip(&portable) {
                    let want = aes.encrypt_reference(*block);
                    prop_assert_eq!(*ct, want);
                    prop_assert_eq!(*pt, want);
                }
            })+};
        }
        check_width!(1, 2, 3, 4, 5, 6, 7, 8);
    }

    /// Lane independence: a batch must produce the same ciphertexts as
    /// eight separate single-block calls (no cross-lane contamination).
    #[test]
    fn batch_lanes_are_independent(
        key_hi in any::<u64>(),
        key_lo in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let aes = Aes128::new(block_of(key_hi, key_lo));
        let blocks = blocks_from_seed(seed);
        let batched = aes.encrypt_batch(&blocks);
        for (block, ct) in blocks.iter().zip(&batched) {
            prop_assert_eq!(*ct, aes.encrypt(*block));
        }
    }

    /// The u64-pair batch wrapper packs exactly like `encrypt_u64_pair`.
    #[test]
    fn u64_pair_batch_matches_scalar(
        key_hi in any::<u64>(),
        key_lo in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let aes = Aes128::new(block_of(key_hi, key_lo));
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let pairs: [(u64, u64); 4] = std::array::from_fn(|_| (next(), next()));
        let batched = aes.encrypt_u64_pairs(&pairs);
        for ((hi, lo), ct) in pairs.iter().zip(&batched) {
            prop_assert_eq!(*ct, aes.encrypt_u64_pair(*hi, *lo));
        }
    }
}
