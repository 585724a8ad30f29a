//! 56-bit message authentication codes over GF(2⁶⁴).
//!
//! Per the paper's Figure 1b, a block's MAC is computed as
//!
//! ```text
//! MAC = truncate56( AES(µ', address, counter)  XOR  Σᵢ wordᵢ ⊗ keyᵢ )
//! ```
//!
//! where `⊗` is carry-less multiplication in GF(2⁶⁴), the eight 64-bit
//! `wordᵢ` are the block contents and the `keyᵢ` are secret per-word keys.
//! The dot product is fast in hardware (all GF multiplications in
//! parallel); AES dominates the latency — which is exactly why caching
//! counters (the AES input) ahead of data arrival speeds verification up.
//!
//! The host computes it the same way when it can: on x86-64 CPUs with
//! PCLMULQDQ, [`gf64_mul`] and [`MacKeys::dot_product`] take carry-less
//! products in hardware, and the dot product XORs its eight 128-bit
//! products before one reduction (reduction is linear). Elsewhere they
//! run the bit-serial [`gf64_mul_portable`], which is also the reference
//! tests compare the hardware path against.
//!
//! EMCC's twist (§IV-D): the MC computes the dot product over the
//! **ciphertext** and embeds `MAC ⊕ dot-product` in the data response so
//! that L2 can verify by comparing against its locally computed AES result.

use crate::aes::Aes128;

/// Reduction polynomial for GF(2⁶⁴): x⁶⁴ + x⁴ + x³ + x + 1.
#[cfg(test)]
const GF64_POLY: u64 = 0x1B;

/// Carry-less multiplication in GF(2⁶⁴).
///
/// Uses the CPU's carry-less multiplier when it has one (PCLMULQDQ), else
/// [`gf64_mul_portable`]; both give the same product.
///
/// # Examples
///
/// ```
/// use emcc_crypto::mac::gf64_mul;
///
/// let x = 0x1234_5678_9abc_def0;
/// assert_eq!(gf64_mul(x, 1), x);          // 1 is the identity
/// assert_eq!(gf64_mul(x, 0), 0);          // 0 annihilates
/// ```
pub fn gf64_mul(a: u64, b: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let Some((hi, lo)) = crate::hw::clmul_sum(&[a], &[b]) {
        return reduce128(hi, lo);
    }
    gf64_mul_portable(a, b)
}

/// Bit-serial carry-less multiplication in GF(2⁶⁴): the only path on
/// hosts without a carry-less multiplier, and the reference for
/// [`gf64_mul`].
pub fn gf64_mul_portable(a: u64, b: u64) -> u64 {
    // Schoolbook carry-less multiply into 128 bits, then reduce.
    let mut hi = 0u64;
    let mut lo = 0u64;
    for i in 0..64 {
        if (b >> i) & 1 == 1 {
            lo ^= a << i;
            if i > 0 {
                hi ^= a >> (64 - i);
            }
        }
    }
    reduce128(hi, lo)
}

fn reduce128(mut hi: u64, mut lo: u64) -> u64 {
    // Fold the high half down twice: x^64 ≡ x^4 + x^3 + x + 1 (mod p).
    for _ in 0..2 {
        if hi == 0 {
            break;
        }
        let h = hi;
        hi = 0;
        // h * (x^4 + x^3 + x + 1) spills at most 4 bits back into hi.
        lo ^= h ^ (h << 1) ^ (h << 3) ^ (h << 4);
        hi ^= (h >> 63) ^ (h >> 61) ^ (h >> 60);
    }
    debug_assert_eq!(hi, 0);
    lo // reduction complete
}

/// A 56-bit MAC value.
///
/// Stored in the low 56 bits of a `u64`; the top byte is always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Mac56(u64);

impl Mac56 {
    /// Masks a 64-bit value down to the 56-bit MAC domain.
    pub fn from_u64(v: u64) -> Self {
        Mac56(v & 0x00FF_FFFF_FFFF_FFFF)
    }

    /// The raw 56-bit value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Mac56 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:014x}", self.0)
    }
}

/// The secret material for MAC computation: one AES key plus eight GF keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacKeys {
    aes: Aes128,
    word_keys: [u64; 8],
}

/// Domain-separation tag µ' for MAC AES invocations (Fig 1b).
const MU_MAC: u64 = 0xA5;

impl MacKeys {
    /// Derives MAC keys deterministically from a seed.
    ///
    /// Real hardware fuses these at manufacturing; the simulator derives
    /// them from the experiment seed so runs are reproducible.
    pub fn from_seed(seed: u64) -> Self {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&seed.to_be_bytes());
        key[8..].copy_from_slice(&(!seed).rotate_left(17).to_be_bytes());
        let aes = Aes128::new(key);
        // All eight derivations are independent — one full-width batch.
        let pairs: [(u64, u64); 8] = std::array::from_fn(|i| (0xFEED_0000 + i as u64, seed));
        let outs = aes.encrypt_u64_pairs(&pairs);
        let mut word_keys = [0u64; 8];
        for (wk, out) in word_keys.iter_mut().zip(&outs) {
            *wk = u64::from_be_bytes(out[..8].try_into().expect("8 bytes")) | 1;
        }
        MacKeys { aes, word_keys }
    }

    /// The AES-only half of the MAC: `truncate56(AES(µ', addr, counter))`.
    ///
    /// This is the part that depends only on the counter and can be
    /// precomputed before data arrives — the quantity EMCC computes at L2.
    pub fn aes_half(&self, addr: u64, counter: u64) -> Mac56 {
        let hi = (MU_MAC << 56) | (addr & 0x00FF_FFFF_FFFF_FFFF);
        let out = self.aes.encrypt_u64_pair(hi, counter);
        Mac56::from_u64(u64::from_be_bytes(out[..8].try_into().expect("8 bytes")))
    }

    /// The data-only half: `truncate56(Σ wordᵢ ⊗ keyᵢ)` over the block.
    ///
    /// Under EMCC this is computed at the MC over the *ciphertext* and
    /// shipped to L2 XOR-ed with the stored MAC (§IV-D). With PCLMULQDQ
    /// the eight products are XOR-ed unreduced and reduced once.
    pub fn dot_product(&self, words: &[u64; 8]) -> Mac56 {
        #[cfg(target_arch = "x86_64")]
        if let Some((hi, lo)) = crate::hw::clmul_sum(words, &self.word_keys) {
            return Mac56::from_u64(reduce128(hi, lo));
        }
        self.dot_product_portable(words)
    }

    /// [`Self::dot_product`] with bit-serial multiplies: the only path on
    /// hosts without a carry-less multiplier, and its reference.
    pub fn dot_product_portable(&self, words: &[u64; 8]) -> Mac56 {
        let mut acc = 0u64;
        for (w, k) in words.iter().zip(self.word_keys.iter()) {
            acc ^= gf64_mul_portable(*w, *k);
        }
        Mac56::from_u64(acc)
    }

    /// Full MAC for a block: AES half XOR dot-product half.
    pub fn mac(&self, addr: u64, counter: u64, words: &[u64; 8]) -> Mac56 {
        Mac56::from_u64(self.aes_half(addr, counter).as_u64() ^ self.dot_product(words).as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_identity_and_zero() {
        for v in [1u64, 0xdead_beef, u64::MAX] {
            assert_eq!(gf64_mul(v, 1), v);
            assert_eq!(gf64_mul(1, v), v);
            assert_eq!(gf64_mul(v, 0), 0);
        }
    }

    #[test]
    fn gf_commutative() {
        let pairs = [(3u64, 7u64), (0xffff, 0x1234_5678), (u64::MAX, u64::MAX)];
        for (a, b) in pairs {
            assert_eq!(gf64_mul(a, b), gf64_mul(b, a));
        }
    }

    #[test]
    fn gf_distributes_over_xor() {
        let (a, b, c) = (
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
            0x5a5a_5a5a_a5a5_a5a5,
        );
        assert_eq!(gf64_mul(a, b ^ c), gf64_mul(a, b) ^ gf64_mul(a, c));
    }

    #[test]
    fn gf_associative() {
        let (a, b, c) = (
            0x1111_2222_3333_4444u64,
            0x9999_8888u64,
            0xabcd_ef01_2345u64,
        );
        assert_eq!(gf64_mul(gf64_mul(a, b), c), gf64_mul(a, gf64_mul(b, c)));
    }

    #[test]
    fn gf_x64_reduction() {
        // x^63 * x = x^64 ≡ x^4 + x^3 + x + 1 = 0x1B.
        assert_eq!(gf64_mul(1 << 63, 2), GF64_POLY);
    }

    #[test]
    fn mac56_masks_top_byte() {
        let m = Mac56::from_u64(u64::MAX);
        assert_eq!(m.as_u64() >> 56, 0);
        assert_eq!(m.to_string().len(), 14);
    }

    #[test]
    fn mac_is_deterministic() {
        let keys = MacKeys::from_seed(99);
        let words = [1u64, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(keys.mac(0x40, 7, &words), keys.mac(0x40, 7, &words));
    }

    #[test]
    fn mac_depends_on_all_inputs() {
        let keys = MacKeys::from_seed(99);
        let words = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let base = keys.mac(0x40, 7, &words);
        assert_ne!(base, keys.mac(0x80, 7, &words), "address must matter");
        assert_ne!(base, keys.mac(0x40, 8, &words), "counter must matter");
        let mut tampered = words;
        tampered[3] ^= 1;
        assert_ne!(base, keys.mac(0x40, 7, &tampered), "data must matter");
    }

    #[test]
    fn mac_splits_into_halves() {
        // The XOR split is what lets the MC ship MAC⊕dot-product while L2
        // computes the AES half locally (EMCC §IV-D).
        let keys = MacKeys::from_seed(5);
        let words = [0xAAu64; 8];
        let full = keys.mac(0x1000, 3, &words);
        let rebuilt =
            Mac56::from_u64(keys.aes_half(0x1000, 3).as_u64() ^ keys.dot_product(&words).as_u64());
        assert_eq!(full, rebuilt);
    }

    #[test]
    fn different_seeds_different_macs() {
        let words = [7u64; 8];
        let a = MacKeys::from_seed(1).mac(0, 0, &words);
        let b = MacKeys::from_seed(2).mac(0, 0, &words);
        assert_ne!(a, b);
    }
}
