//! Hardware kernels for the two halves of the memory crypto: AES-NI rounds
//! for the cipher and PCLMULQDQ carry-less products for the MAC's
//! GF(2⁶⁴) dot product.
//!
//! Each kernel checks the CPU with `is_x86_feature_detected!` on every
//! call (one cached load and a bit test) and returns `None` when the
//! instructions are missing, so callers fall back to their portable paths
//! ([`crate::Aes128::encrypt_batch_portable`],
//! [`crate::mac::gf64_mul_portable`]). Nothing else selects a path. All of
//! the crate's `unsafe` code lives here, next to the check it relies on.

use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64,
    _mm_loadu_si128, _mm_set_epi64x, _mm_setzero_si128, _mm_storeu_si128, _mm_unpackhi_epi64,
    _mm_xor_si128,
};

/// AES-128 encryption of `N` independent blocks with AES-NI, or `None`
/// when the CPU lacks AES-NI.
///
/// `round_keys` is the FIPS-197 key schedule as 11 round keys in byte
/// order, the layout `aesenc` consumes directly.
#[inline]
pub(crate) fn aes128_encrypt<const N: usize>(
    round_keys: &[[u8; 16]; 11],
    blocks: &[[u8; 16]; N],
) -> Option<[[u8; 16]; N]> {
    if !std::arch::is_x86_feature_detected!("aes") {
        return None;
    }
    // SAFETY: the CPU supports AES-NI, checked just above; SSE2 is part
    // of the x86-64 baseline.
    Some(unsafe { aes128_encrypt_aesni(round_keys, blocks) })
}

/// The XOR of the `N` carry-less 128-bit products `a[i] ⊗ b[i]`, as
/// `(high, low)` halves, or `None` when the CPU lacks PCLMULQDQ.
///
/// The sum is unreduced: reduction modulo the field polynomial is linear,
/// so the caller reduces once for the whole sum.
#[inline]
pub(crate) fn clmul_sum<const N: usize>(a: &[u64; N], b: &[u64; N]) -> Option<(u64, u64)> {
    if !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    // SAFETY: the CPU supports PCLMULQDQ, checked just above; SSE2 is
    // part of the x86-64 baseline.
    Some(unsafe { clmul_sum_pclmul(a, b) })
}

#[target_feature(enable = "aes")]
fn aes128_encrypt_aesni<const N: usize>(
    round_keys: &[[u8; 16]; 11],
    blocks: &[[u8; 16]; N],
) -> [[u8; 16]; N] {
    let mut rk = [_mm_setzero_si128(); 11];
    for (k, bytes) in rk.iter_mut().zip(round_keys) {
        // SAFETY: `bytes` is 16 readable bytes; `loadu` has no alignment
        // requirement.
        *k = unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) };
    }
    // Lanes advance round by round together: the N `aesenc` chains are
    // independent, so the pipelined AES unit overlaps them.
    let mut s = [_mm_setzero_si128(); N];
    for (state, block) in s.iter_mut().zip(blocks) {
        // SAFETY: as above, 16 readable bytes.
        let b = unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) };
        *state = _mm_xor_si128(b, rk[0]);
    }
    for k in &rk[1..10] {
        for state in s.iter_mut() {
            *state = _mm_aesenc_si128(*state, *k);
        }
    }
    let mut out = [[0u8; 16]; N];
    for (block_out, state) in out.iter_mut().zip(&s) {
        let ct = _mm_aesenclast_si128(*state, rk[10]);
        // SAFETY: `block_out` is 16 writable bytes; `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(block_out.as_mut_ptr().cast::<__m128i>(), ct) };
    }
    out
}

#[target_feature(enable = "pclmulqdq")]
fn clmul_sum_pclmul<const N: usize>(a: &[u64; N], b: &[u64; N]) -> (u64, u64) {
    let mut acc = _mm_setzero_si128();
    for (x, y) in a.iter().zip(b) {
        // The operands' bit patterns go into the low lanes unchanged.
        let product = _mm_clmulepi64_si128(
            _mm_set_epi64x(0, *x as i64),
            _mm_set_epi64x(0, *y as i64),
            0x00,
        );
        acc = _mm_xor_si128(acc, product);
    }
    let lo = _mm_cvtsi128_si64(acc) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)) as u64;
    (hi, lo)
}
