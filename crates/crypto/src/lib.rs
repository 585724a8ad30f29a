//! Memory-cryptography primitives for the EMCC reproduction.
//!
//! Secure memory systems (Background, §II of the paper) encrypt each 64 B
//! block with **counter-mode AES** and protect it with a 56-bit **MAC**
//! computed as `truncate(AES(µ', addr, counter) XOR dot-product(words, keys))`
//! over a Galois field. This crate implements those primitives
//! *functionally* — real FIPS-197 AES-128, real carry-less GF(2⁶⁴)
//! arithmetic — so the security data path can be tested end-to-end
//! (decrypt∘encrypt = identity, tamper detection, OTP uniqueness), plus the
//! *latency parameters* the timing simulator charges for them.
//!
//! # Examples
//!
//! ```
//! use emcc_crypto::{BlockCipherKeys, DataBlock};
//!
//! let keys = BlockCipherKeys::from_seed(42);
//! let plain = DataBlock::from_bytes([7u8; 64]);
//! let addr = 0x1234_5680;
//! let counter = 9;
//!
//! let cipher = keys.encrypt_block(addr, counter, &plain);
//! let mac = keys.mac_block(addr, counter, &cipher);
//! assert_eq!(keys.decrypt_block(addr, counter, &cipher), plain);
//! assert!(keys.verify_block(addr, counter, &cipher, mac));
//! ```

pub mod aes;
#[cfg(target_arch = "x86_64")]
mod hw;
pub mod latency;
pub mod mac;
pub mod otp;

pub use aes::Aes128;
pub use latency::{CryptoLatencies, DirectCipher};
pub use mac::{Mac56, MacKeys};
pub use otp::{BlockCipherKeys, DataBlock};
