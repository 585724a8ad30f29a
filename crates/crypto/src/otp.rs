//! Counter-mode encryption of 64 B memory blocks via one-time pads.
//!
//! Per the paper's Figure 1a, each 16 B word of a 64 B block is encrypted by
//! XOR-ing it with a one-time pad `OTP = AES(µ | address | word-index |
//! counter)`. Since only the address and counter feed AES, the four OTPs can
//! be computed *before* the data arrives from DRAM — the property both the
//! baseline MC counter cache and EMCC's L2-side computation exploit.

use crate::aes::Aes128;
use crate::mac::{Mac56, MacKeys};

/// A 64 B memory block, stored as eight 64-bit words.
///
/// # Examples
///
/// ```
/// use emcc_crypto::DataBlock;
///
/// let b = DataBlock::from_bytes([0xAB; 64]);
/// assert_eq!(b.words()[0], 0xABAB_ABAB_ABAB_ABAB);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DataBlock {
    words: [u64; 8],
}

impl DataBlock {
    /// Creates a block from eight 64-bit words.
    pub fn from_words(words: [u64; 8]) -> Self {
        DataBlock { words }
    }

    /// Creates a block from 64 raw bytes (big-endian word packing).
    pub fn from_bytes(bytes: [u8; 64]) -> Self {
        let mut words = [0u64; 8];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_be_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        DataBlock { words }
    }

    /// The block contents as words.
    pub fn words(&self) -> &[u64; 8] {
        &self.words
    }

    /// XOR of two blocks (pad application).
    pub fn xor(&self, other: &DataBlock) -> DataBlock {
        let mut words = [0u64; 8];
        for ((w, a), b) in words.iter_mut().zip(&self.words).zip(&other.words) {
            *w = a ^ b;
        }
        DataBlock { words }
    }

    /// Flips a single bit — used by tamper-detection tests.
    pub fn with_bit_flipped(mut self, bit: usize) -> DataBlock {
        assert!(bit < 512, "bit index out of range");
        self.words[bit / 64] ^= 1 << (bit % 64);
        self
    }
}

/// Domain-separation tag µ for encryption AES invocations (Fig 1a).
const MU_ENC: u64 = 0x5A;

/// The full secret material of the secure-memory engine: the OTP cipher
/// plus the MAC keys.
///
/// One instance lives in the (simulated) memory controller; under EMCC the
/// L2s hold a copy of the same keys (hardware would route them at boot over
/// fuse/private wires).
///
/// # Examples
///
/// ```
/// use emcc_crypto::{BlockCipherKeys, DataBlock};
///
/// let keys = BlockCipherKeys::from_seed(1);
/// let plain = DataBlock::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
/// let cipher = keys.encrypt_block(0x40, 1, &plain);
/// assert_ne!(cipher, plain);
/// assert_eq!(keys.decrypt_block(0x40, 1, &cipher), plain);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCipherKeys {
    otp_cipher: Aes128,
    mac_keys: MacKeys,
}

impl BlockCipherKeys {
    /// Derives all key material deterministically from a seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&seed.rotate_left(31).to_be_bytes());
        key[8..].copy_from_slice(&seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes());
        BlockCipherKeys {
            otp_cipher: Aes128::new(key),
            mac_keys: MacKeys::from_seed(seed ^ 0xC0DE_CAFE),
        }
    }

    /// Computes the four 16 B one-time pads for `(addr, counter)` as one
    /// 64 B pad block.
    ///
    /// This is the counter-only work that can run ahead of the data; it
    /// costs one (pipelined) AES latency in the timing model.
    pub fn pad(&self, addr: u64, counter: u64) -> DataBlock {
        // The four OTP inputs differ only in the 2-bit word index, and
        // they are all known as soon as (addr, counter) is — so they go
        // through the cipher as one interleaved 4-wide batch, matching
        // the pipelined AES unit the timing model charges one latency for.
        let base = (MU_ENC << 56) | ((addr & 0xFFFF_FFFF_FFFF) << 8);
        let otps = self.otp_cipher.encrypt_u64_pairs(&[
            (base, counter),
            (base | 1, counter),
            (base | 2, counter),
            (base | 3, counter),
        ]);
        let mut words = [0u64; 8];
        for (pair, otp) in words.chunks_exact_mut(2).zip(&otps) {
            pair[0] = u64::from_be_bytes(otp[..8].try_into().expect("8 bytes"));
            pair[1] = u64::from_be_bytes(otp[8..].try_into().expect("8 bytes"));
        }
        DataBlock::from_words(words)
    }

    /// Encrypts a plaintext block for write-back to DRAM.
    pub fn encrypt_block(&self, addr: u64, counter: u64, plain: &DataBlock) -> DataBlock {
        plain.xor(&self.pad(addr, counter))
    }

    /// Decrypts a ciphertext block fetched from DRAM.
    pub fn decrypt_block(&self, addr: u64, counter: u64, cipher: &DataBlock) -> DataBlock {
        cipher.xor(&self.pad(addr, counter))
    }

    /// MAC over the **ciphertext** (the paper's §IV-D adjustment so the MC
    /// can compute the dot product without decrypting).
    pub fn mac_block(&self, addr: u64, counter: u64, cipher: &DataBlock) -> Mac56 {
        self.mac_keys.mac(addr, counter, cipher.words())
    }

    /// Verifies a fetched ciphertext block against its stored MAC.
    pub fn verify_block(&self, addr: u64, counter: u64, cipher: &DataBlock, mac: Mac56) -> bool {
        self.mac_block(addr, counter, cipher) == mac
    }

    /// The counter-dependent AES half of the MAC (computable at L2 before
    /// data arrives).
    pub fn mac_aes_half(&self, addr: u64, counter: u64) -> Mac56 {
        self.mac_keys.aes_half(addr, counter)
    }

    /// The data-dependent dot-product half of the MAC (computed at the MC
    /// over ciphertext; shipped as `MAC ⊕ dot-product` under EMCC).
    pub fn mac_dot_half(&self, cipher: &DataBlock) -> Mac56 {
        self.mac_keys.dot_product(cipher.words())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_packs_big_endian_words() {
        let mut bytes = [0u8; 64];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        let words = *DataBlock::from_bytes(bytes).words();
        assert_eq!(words[0], 0x0001_0203_0405_0607);
        assert_eq!(words[7], 0x3839_3A3B_3C3D_3E3F);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let keys = BlockCipherKeys::from_seed(7);
        let plain = DataBlock::from_words([11, 22, 33, 44, 55, 66, 77, 88]);
        for counter in [0u64, 1, 1 << 40, u64::MAX] {
            let cipher = keys.encrypt_block(0xABC0, counter, &plain);
            assert_eq!(keys.decrypt_block(0xABC0, counter, &cipher), plain);
        }
    }

    #[test]
    fn pads_differ_across_counters() {
        // The core security property counter-mode relies on: reusing a
        // counter would reuse a pad (§II "Ensuring Confidentiality").
        let keys = BlockCipherKeys::from_seed(7);
        let a = keys.pad(0x40, 1);
        let b = keys.pad(0x40, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn pads_differ_across_addresses() {
        let keys = BlockCipherKeys::from_seed(7);
        assert_ne!(keys.pad(0x40, 1), keys.pad(0x80, 1));
    }

    #[test]
    fn pads_differ_across_words_within_block() {
        let keys = BlockCipherKeys::from_seed(7);
        let pad = keys.pad(0x40, 1);
        let w = pad.words();
        // All four 16B OTPs distinct (pairwise over their first words).
        assert_ne!(w[0], w[2]);
        assert_ne!(w[2], w[4]);
        assert_ne!(w[4], w[6]);
    }

    #[test]
    fn mac_detects_single_bit_tamper() {
        let keys = BlockCipherKeys::from_seed(13);
        let plain = DataBlock::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
        let cipher = keys.encrypt_block(0x100, 5, &plain);
        let mac = keys.mac_block(0x100, 5, &cipher);
        for bit in [0usize, 63, 64, 255, 511] {
            let tampered = cipher.with_bit_flipped(bit);
            assert!(
                !keys.verify_block(0x100, 5, &tampered, mac),
                "bit {bit} flip went undetected"
            );
        }
        assert!(keys.verify_block(0x100, 5, &cipher, mac));
    }

    #[test]
    fn mac_detects_replay_of_old_counter() {
        // Replay attack: attacker restores an old ciphertext+MAC pair, but
        // the on-chip counter has advanced.
        let keys = BlockCipherKeys::from_seed(13);
        let old_plain = DataBlock::from_words([1; 8]);
        let old_cipher = keys.encrypt_block(0x200, 5, &old_plain);
        let old_mac = keys.mac_block(0x200, 5, &old_cipher);
        // Verification with the *current* counter (6) must fail.
        assert!(!keys.verify_block(0x200, 6, &old_cipher, old_mac));
    }

    #[test]
    fn emcc_split_verification_matches_monolithic() {
        // L2 verifies by comparing its local AES half with the MC-shipped
        // MAC ⊕ dot-product; this must agree with full verification.
        let keys = BlockCipherKeys::from_seed(21);
        let plain = DataBlock::from_words([9; 8]);
        let cipher = keys.encrypt_block(0x340, 11, &plain);
        let stored_mac = keys.mac_block(0x340, 11, &cipher);
        // MC side: ships cipher and mac ⊕ dot(cipher).
        let shipped = stored_mac.as_u64() ^ keys.mac_dot_half(&cipher).as_u64();
        // L2 side: compares against locally computed AES half.
        assert_eq!(shipped, keys.mac_aes_half(0x340, 11).as_u64());
    }

    #[test]
    fn bit_flip_helper_flips_exactly_one_bit() {
        let b = DataBlock::default().with_bit_flipped(70);
        assert_eq!(b.words()[1], 1 << 6);
        assert!(b.words().iter().enumerate().all(|(i, &w)| i == 1 || w == 0));
    }
}
