//! The crypto-placement descriptor: *what* a scheme does, not *which* it is.
//!
//! Every [`SecurityScheme`](crate::SecurityScheme) resolves to one
//! [`CryptoPlacement`] — a capability/latency/counter-flow specification.
//! The timing pipeline (`emcc-system`'s `system.rs`/`mc.rs`), the fault
//! campaign, and the fuzz oracle dispatch exclusively on these
//! capabilities; no pipeline code matches on scheme identity. That keeps
//! the scheme set open: adding a placement means writing one descriptor
//! row, not hunting boolean predicates across four crates.

use emcc_crypto::DirectCipher;

/// How counter (metadata) blocks flow through the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterFlow {
    /// No counter stream at all (non-secure, or a counter-free cipher).
    None,
    /// Counters cached only in the MC's private metadata cache; misses go
    /// straight to DRAM in parallel with data (§III "w/o counters in LLC").
    McPrivate,
    /// Counters additionally inserted into the shared LLC; the MC requests
    /// them from the LLC serially after a data LLC miss.
    SharedLlc,
    /// Counters cached and consumed in L2 on top of [`CounterFlow::SharedLlc`]
    /// behaviour at the MC, with parallel counter/data LLC requests (EMCC).
    L2Shared,
}

/// Where the data-path cryptography runs for a DRAM read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPath {
    /// Plaintext DRAM traffic; nothing on the data path.
    Plain,
    /// Counter-mode OTP: the pad is precomputed from the counter stream and
    /// XORed with the arriving ciphertext (all counter-based schemes).
    CounterOtp,
    /// A counter-free cipher applied directly to the data, at the given
    /// location; latency comes from
    /// [`CryptoLatencies::direct_read_latency`](emcc_crypto::CryptoLatencies::direct_read_latency).
    Direct(DirectCipher),
}

/// Capability descriptor for one security design point.
///
/// # Examples
///
/// ```
/// use emcc_secmem::{CounterFlow, SecurityScheme};
///
/// let p = SecurityScheme::Emcc.placement();
/// assert!(p.encrypts && p.detects_tamper && p.l2_decrypts());
/// assert_eq!(p.counter_flow, CounterFlow::L2Shared);
/// assert!(SecurityScheme::BipBip.placement().direct_cipher().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CryptoPlacement {
    /// Whether DRAM traffic is encrypted at all.
    pub encrypts: bool,
    /// Whether tampered lines are *detected* (MAC/tree verification or an
    /// in-device equivalent). An encryption-only cipher (BipBip) decrypts
    /// corrupted ciphertext into garbage plaintext silently.
    pub detects_tamper: bool,
    /// How counter metadata flows through the hierarchy.
    pub counter_flow: CounterFlow,
    /// Where the data-path cryptography runs.
    pub data_path: DataPath,
}

impl CryptoPlacement {
    /// Whether the placement maintains a counter stream (and therefore an
    /// integrity tree, counter DRAM traffic and a bump per write-back).
    pub const fn uses_counters(self) -> bool {
        !matches!(self.counter_flow, CounterFlow::None)
    }

    /// Whether counter blocks are inserted into the shared LLC.
    pub const fn counters_in_llc(self) -> bool {
        matches!(
            self.counter_flow,
            CounterFlow::SharedLlc | CounterFlow::L2Shared
        )
    }

    /// Whether L2 caches counters and decrypts/verifies locally (the EMCC
    /// pipeline: parallel ctr/data LLC requests, L2 AES units, offload).
    pub const fn l2_decrypts(self) -> bool {
        matches!(self.counter_flow, CounterFlow::L2Shared)
    }

    /// The counter-free direct cipher, if this placement uses one.
    pub const fn direct_cipher(self) -> Option<DirectCipher> {
        match self.data_path {
            DataPath::Direct(c) => Some(c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::SecurityScheme;

    use super::*;

    /// The full capability table, pinned. Old schemes must reproduce the
    /// pre-redesign predicate outcomes exactly (observational equivalence).
    #[test]
    fn capability_table() {
        use SecurityScheme::*;
        let rows: [(SecurityScheme, bool, bool, CounterFlow, DataPath); 7] = [
            (NonSecure, false, false, CounterFlow::None, DataPath::Plain),
            (
                McOnly,
                true,
                true,
                CounterFlow::McPrivate,
                DataPath::CounterOtp,
            ),
            (
                CtrInLlc,
                true,
                true,
                CounterFlow::SharedLlc,
                DataPath::CounterOtp,
            ),
            (
                Emcc,
                true,
                true,
                CounterFlow::L2Shared,
                DataPath::CounterOtp,
            ),
            (
                BipBip,
                true,
                false,
                CounterFlow::None,
                DataPath::Direct(DirectCipher::CacheController),
            ),
            (
                NearMem,
                true,
                true,
                CounterFlow::None,
                DataPath::Direct(DirectCipher::NearMemory),
            ),
            (
                InSram,
                true,
                true,
                CounterFlow::None,
                DataPath::Direct(DirectCipher::InSram),
            ),
        ];
        for (scheme, encrypts, detects, flow, path) in rows {
            let p = scheme.placement();
            assert_eq!(p.encrypts, encrypts, "{scheme}: encrypts");
            assert_eq!(p.detects_tamper, detects, "{scheme}: detects_tamper");
            assert_eq!(p.counter_flow, flow, "{scheme}: counter_flow");
            assert_eq!(p.data_path, path, "{scheme}: data_path");
        }
    }

    #[test]
    fn derived_capabilities_consistent() {
        for scheme in SecurityScheme::all() {
            let p = scheme.placement();
            // A counter stream implies the OTP data path and vice versa.
            assert_eq!(
                p.uses_counters(),
                matches!(p.data_path, DataPath::CounterOtp)
            );
            // Direct ciphers never carry counters.
            if p.direct_cipher().is_some() {
                assert!(!p.uses_counters(), "{scheme}");
                assert!(p.encrypts, "{scheme}");
            }
            // Tamper detection requires encryption machinery.
            if p.detects_tamper {
                assert!(p.encrypts, "{scheme}");
            }
            // LLC/L2 counter residency implies a counter stream.
            if p.counters_in_llc() || p.l2_decrypts() {
                assert!(p.uses_counters(), "{scheme}");
            }
        }
    }
}
