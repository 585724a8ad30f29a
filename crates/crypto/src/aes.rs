//! FIPS-197 AES-128 block cipher.
//!
//! Real AES runs only in the functional secure memory
//! (`emcc_secmem::FunctionalSecureMemory`) and what is built on it: the
//! secure-memory service, the fuzz battery's functional and
//! crash-recovery oracles and the simulator's optional shadow check. The
//! timing simulator never encrypts: it charges AES *latency* through the
//! memory controller's AES-unit pool, parameterised by
//! [`crate::latency::CryptoLatencies`].
//!
//! [`Aes128::encrypt_batch`] picks its path at run time. On x86-64 CPUs
//! with AES-NI it runs `aesenc`/`aesenclast` over a key schedule laid out
//! once, in [`Aes128::new`], as 11 round keys in byte order. Elsewhere it
//! runs [`Aes128::encrypt_batch_portable`], a u32 T-table implementation:
//! each round's SubBytes + ShiftRows + MixColumns collapses into four
//! table lookups and three XORs per column, with the table built at
//! compile time from the S-box. Both produce identical ciphertext, and the
//! byte-wise FIPS-197 rounds survive as [`Aes128::encrypt_reference`], the
//! oracle tests and benches compare both paths against.
//!
//! The cipher is used functionally (correctness of the secure-memory data
//! path), not for side-channel resistance: table lookups are fine here.

/// AES-128 with an expanded key schedule.
///
/// # Examples
///
/// ```
/// use emcc_crypto::Aes128;
///
/// let key = [0u8; 16];
/// let aes = Aes128::new(key);
/// let ct = aes.encrypt([0u8; 16]);
/// assert_ne!(ct, [0u8; 16]);
/// assert_eq!(ct, aes.encrypt_reference([0u8; 16]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes128 {
    /// Round keys as big-endian column words (4 per round), for the
    /// T-table path.
    round_keys: [u32; 44],
    /// The same 11 round keys in byte order, for AES-NI and the reference.
    round_key_bytes: [[u8; 16]; 11],
}

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// T-table for column byte 0: `[2·S[x], S[x], S[x], 3·S[x]]` packed
/// big-endian. Tables 1–3 are byte rotations of it (the MixColumns
/// matrix is circulant), taken at lookup time — one 1 KB table keeps
/// L1-cache pressure low, and `rotate_right` is free on every target.
static TE0: [u32; 256] = build_te0();

const fn build_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut x = 0usize;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[x] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | s3 as u32;
        x += 1;
    }
    t
}

#[inline(always)]
fn te(byte: u32, rot: u32) -> u32 {
    TE0[(byte & 0xff) as usize].rotate_right(8 * rot)
}

/// Widest batch [`Aes128::encrypt_batch`] accepts: one full 8-block
/// pipeline (the modeled AES units are 8-deep, and a 64 B line plus its
/// MAC half never needs more than 8 blocks in flight).
pub const MAX_BATCH: usize = 8;

impl Aes128 {
    /// Expands a 128-bit key into the 11 round keys.
    pub fn new(key: [u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [0u32; 44];
        for (rk, word) in round_keys.iter_mut().zip(&w) {
            *rk = u32::from_be_bytes(*word);
        }
        let mut round_key_bytes = [[0u8; 16]; 11];
        for (bytes, words) in round_key_bytes.iter_mut().zip(w.chunks_exact(4)) {
            for (dst, word) in bytes.chunks_exact_mut(4).zip(words) {
                dst.copy_from_slice(word);
            }
        }
        Aes128 {
            round_keys,
            round_key_bytes,
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        self.encrypt_batch(&[block])[0]
    }

    /// Encrypts `N` independent blocks in one interleaved pass.
    ///
    /// All blocks advance through the rounds in lock-step, so the rounds
    /// of different blocks overlap instead of serializing a full dependent
    /// round chain per block — the software analogue of the modeled 8-deep
    /// pipelined AES unit, and how a 64 B line's four OTP blocks are
    /// produced in one pass. Runs on AES-NI when the CPU has it, else
    /// [`Self::encrypt_batch_portable`]; the ciphertext is the same.
    ///
    /// `N` is the pipeline width, 1..=[`MAX_BATCH`]; width 1 is exactly
    /// [`Aes128::encrypt`].
    pub fn encrypt_batch<const N: usize>(&self, blocks: &[[u8; 16]; N]) -> [[u8; 16]; N] {
        const {
            assert!(N >= 1 && N <= MAX_BATCH, "batch width must be 1..=8");
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(out) = crate::hw::aes128_encrypt(&self.round_key_bytes, blocks) {
            return out;
        }
        self.encrypt_batch_portable(blocks)
    }

    /// The T-table path of [`Self::encrypt_batch`]: the only path on
    /// hosts without AES-NI, public so tests and benches can compare it
    /// with the dispatched one.
    ///
    /// Each round does the table lookups for every block before any block
    /// moves on. The lookups of different blocks are data-independent, so
    /// the core overlaps them (memory-level parallelism against L1).
    pub fn encrypt_batch_portable<const N: usize>(&self, blocks: &[[u8; 16]; N]) -> [[u8; 16]; N] {
        const {
            assert!(N >= 1 && N <= MAX_BATCH, "batch width must be 1..=8");
        }
        let rk = &self.round_keys;
        // Per-block state as four big-endian column words (FIPS-197
        // layout: byte c*4+r is row r of column c, so column c is bytes
        // 4c..4c+4).
        let mut s = [[0u32; 4]; N];
        for (state, block) in s.iter_mut().zip(blocks) {
            for (c, col) in state.iter_mut().enumerate() {
                *col = u32::from_be_bytes([
                    block[c * 4],
                    block[c * 4 + 1],
                    block[c * 4 + 2],
                    block[c * 4 + 3],
                ]) ^ rk[c];
            }
        }
        for round in 1..10 {
            let rkr = [
                rk[round * 4],
                rk[round * 4 + 1],
                rk[round * 4 + 2],
                rk[round * 4 + 3],
            ];
            for state in s.iter_mut() {
                // ShiftRows: output column c takes row r from column c+r.
                let t = [
                    te(state[0] >> 24, 0)
                        ^ te(state[1] >> 16, 1)
                        ^ te(state[2] >> 8, 2)
                        ^ te(state[3], 3),
                    te(state[1] >> 24, 0)
                        ^ te(state[2] >> 16, 1)
                        ^ te(state[3] >> 8, 2)
                        ^ te(state[0], 3),
                    te(state[2] >> 24, 0)
                        ^ te(state[3] >> 16, 1)
                        ^ te(state[0] >> 8, 2)
                        ^ te(state[1], 3),
                    te(state[3] >> 24, 0)
                        ^ te(state[0] >> 16, 1)
                        ^ te(state[1] >> 8, 2)
                        ^ te(state[2], 3),
                ];
                for (c, col) in state.iter_mut().enumerate() {
                    *col = t[c] ^ rkr[c];
                }
            }
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let mut out = [[0u8; 16]; N];
        for (block_out, state) in out.iter_mut().zip(&s) {
            for c in 0..4 {
                let word = ((SBOX[(state[c] >> 24) as usize] as u32) << 24)
                    | ((SBOX[((state[(c + 1) % 4] >> 16) & 0xff) as usize] as u32) << 16)
                    | ((SBOX[((state[(c + 2) % 4] >> 8) & 0xff) as usize] as u32) << 8)
                    | SBOX[(state[(c + 3) % 4] & 0xff) as usize] as u32;
                block_out[c * 4..c * 4 + 4].copy_from_slice(&(word ^ rk[40 + c]).to_be_bytes());
            }
        }
        out
    }

    /// Encrypts one block with the byte-wise FIPS-197 rounds.
    ///
    /// Kept as the validation oracle: property tests and the
    /// `components` bench assert that both [`Aes128::encrypt_batch`]
    /// paths produce the same ciphertext.
    pub fn encrypt_reference(&self, block: [u8; 16]) -> [u8; 16] {
        let rk = &self.round_key_bytes;
        let mut s = block;
        add_round_key(&mut s, &rk[0]);
        for round_key in &rk[1..10] {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, round_key);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &rk[10]);
        s
    }

    /// Encrypts a 128-bit value given as a pair of `u64` (big-endian halves).
    ///
    /// Convenience for building one-time pads from packed
    /// `(µ, address, word-index, counter)` tuples.
    pub fn encrypt_u64_pair(&self, hi: u64, lo: u64) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&hi.to_be_bytes());
        block[8..].copy_from_slice(&lo.to_be_bytes());
        self.encrypt(block)
    }

    /// [`Aes128::encrypt_u64_pair`] over a batch: packs each `(hi, lo)`
    /// pair big-endian and encrypts all of them in one interleaved pass.
    pub fn encrypt_u64_pairs<const N: usize>(&self, pairs: &[(u64, u64); N]) -> [[u8; 16]; N] {
        let mut blocks = [[0u8; 16]; N];
        for (block, (hi, lo)) in blocks.iter_mut().zip(pairs) {
            block[..8].copy_from_slice(&hi.to_be_bytes());
            block[8..].copy_from_slice(&lo.to_be_bytes());
        }
        self.encrypt_batch(&blocks)
    }
}

fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        s[i] ^= rk[i];
    }
}

fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// State is column-major: s[c*4 + r] is row r, column c (FIPS-197 layout).
fn shift_rows(s: &mut [u8; 16]) {
    let t = *s;
    for r in 1..4 {
        for c in 0..4 {
            s[c * 4 + r] = t[((c + r) % 4) * 4 + r];
        }
    }
}

fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[c * 4], s[c * 4 + 1], s[c * 4 + 2], s[c * 4 + 3]];
        let all = col[0] ^ col[1] ^ col[2] ^ col[3];
        for r in 0..4 {
            s[c * 4 + r] = col[r] ^ all ^ xtime(col[r] ^ col[(r + 1) % 4]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS-197 Appendix B example vector.
        let aes = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let ct = aes.encrypt(hex16("3243f6a8885a308d313198a2e0370734"));
        assert_eq!(ct, hex16("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c() {
        // FIPS-197 Appendix C.1 (AES-128) known-answer test.
        let aes = Aes128::new(hex16("000102030405060708090a0b0c0d0e0f"));
        let ct = aes.encrypt(hex16("00112233445566778899aabbccddeeff"));
        assert_eq!(ct, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn nist_sp800_38a_ecb_vectors() {
        // SP 800-38A F.1.1 ECB-AES128.Encrypt, all four blocks.
        let aes = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        for (pt, ct) in cases {
            assert_eq!(aes.encrypt(hex16(pt)), hex16(ct));
        }
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        let aes = Aes128::new([9u8; 16]);
        let a = aes.encrypt([0u8; 16]);
        let mut input = [0u8; 16];
        input[15] = 1;
        let b = aes.encrypt(input);
        assert_ne!(a, b);
    }

    #[test]
    fn key_sensitivity() {
        let a = Aes128::new([0u8; 16]).encrypt([1u8; 16]);
        let mut key = [0u8; 16];
        key[0] = 1;
        let b = Aes128::new(key).encrypt([1u8; 16]);
        assert_ne!(a, b);
    }

    #[test]
    fn ttable_matches_reference_implementation() {
        // Pseudo-random keys and blocks: the dispatched path, the T-table
        // path and the byte-wise FIPS-197 rounds must agree everywhere.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            key[..8].copy_from_slice(&next().to_le_bytes());
            key[8..].copy_from_slice(&next().to_le_bytes());
            block[..8].copy_from_slice(&next().to_le_bytes());
            block[8..].copy_from_slice(&next().to_le_bytes());
            let aes = Aes128::new(key);
            let want = aes.encrypt_reference(block);
            assert_eq!(aes.encrypt(block), want);
            assert_eq!(aes.encrypt_batch_portable(&[block])[0], want);
        }
    }

    #[test]
    fn te0_packs_mixcolumns_coefficients() {
        // Spot-check the table against the MixColumns column (2,1,1,3).
        let s = SBOX[0x53] as u32;
        let s2 = super::xtime(SBOX[0x53]) as u32;
        assert_eq!(TE0[0x53], (s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s));
    }

    #[test]
    fn u64_pair_packing_is_big_endian() {
        let aes = Aes128::new([3u8; 16]);
        let via_pair = aes.encrypt_u64_pair(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let via_bytes = aes.encrypt(hex16("000102030405060708090a0b0c0d0e0f"));
        assert_eq!(via_pair, via_bytes);
    }
}
