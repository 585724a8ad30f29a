//! Property tests for the GF(2⁶⁴) MAC kernels.
//!
//! `gf64_mul` and `MacKeys::dot_product` dispatch at run time: PCLMULQDQ
//! carry-less products on x86-64 CPUs that have it, bit-serial multiplies
//! (`gf64_mul_portable`, `dot_product_portable`) elsewhere. On a host with
//! PCLMULQDQ the dispatched calls *are* the hardware path, so the tests
//! call the portable paths directly and require identical results.

use emcc_crypto::mac::{gf64_mul, gf64_mul_portable};
use emcc_crypto::MacKeys;
use proptest::prelude::*;

/// Operands where a wrong reduction or a lost carry-out bit shows first.
const EDGES: [u64; 6] = [0, 1, 2, u64::MAX, 1 << 63, 0x8000_0000_0000_001B];

#[test]
fn multiply_matches_bit_serial_on_edge_operands() {
    for a in EDGES {
        for b in EDGES {
            assert_eq!(gf64_mul(a, b), gf64_mul_portable(a, b), "{a:#x} ⊗ {b:#x}");
        }
    }
}

#[test]
fn dot_product_matches_bit_serial_on_edge_words() {
    let keys = MacKeys::from_seed(11);
    for a in EDGES {
        for b in EDGES {
            let words = [a, b, a, b, b, a, u64::MAX, 1 << 63];
            assert_eq!(keys.dot_product(&words), keys.dot_product_portable(&words));
        }
    }
}

proptest! {
    #[test]
    fn multiply_matches_bit_serial(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(gf64_mul(a, b), gf64_mul_portable(a, b));
    }

    #[test]
    fn dot_product_matches_bit_serial(
        seed in any::<u64>(),
        words in prop::array::uniform8(any::<u64>()),
    ) {
        let keys = MacKeys::from_seed(seed);
        prop_assert_eq!(keys.dot_product(&words), keys.dot_product_portable(&words));
    }
}
