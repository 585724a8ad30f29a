//! Latency parameters of the cryptography hardware.
//!
//! The paper's Table I and §III fix the latencies the timing simulator
//! charges: 14 ns for AES-128 (faster than the measured 7 nm AES latency,
//! anticipating improvements — footnote 2) with sensitivity points at
//! 20/25 ns (Fig 18, approximating AES-192/AES-256 round counts), plus the
//! per-access latencies of the counter-free direct ciphers. The fixed
//! 3 ns counter decode and the XOR-and-compare step are constants of the
//! timing simulator's configuration.

use emcc_sim::Time;

/// Where a *direct* (counter-free) cipher sits in the memory hierarchy.
///
/// These model the related-work placements the paper's §VII compares
/// against: a tweakable low-latency cipher inside the cache-controller
/// pipeline (BipBipCache), cryptography pushed into the DRAM device
/// (near-memory), and full AES computed in-SRAM next to the arrays
/// (Sealer / CryptoSRAM). None of them use a counter stream, so their
/// cost is a pure per-access cipher latency selected by
/// [`CryptoLatencies::direct_read_latency`] /
/// [`CryptoLatencies::direct_write_latency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectCipher {
    /// Tweakable low-latency block cipher in the cache-controller
    /// pipeline (BipBip: ~1 ns decrypt at target frequencies).
    CacheController,
    /// Cipher inside the DRAM device: reads pay a small in-device
    /// latency, writes are posted (the device encrypts off the bus).
    NearMemory,
    /// Full AES computed in-SRAM near the arrays; both directions pay
    /// the full AES latency serially on the access path.
    InSram,
}

/// Latencies charged for cryptographic operations.
///
/// # Examples
///
/// ```
/// use emcc_crypto::CryptoLatencies;
/// use emcc_sim::Time;
///
/// let lat = CryptoLatencies::paper_default();
/// assert_eq!(lat.aes, Time::from_ns(14));
/// assert_eq!(lat.bipbip, Time::from_ns(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CryptoLatencies {
    /// One counter-mode AES computation (OTP generation or MAC AES half).
    /// The four OTPs of a block are computed by parallel units, so a block
    /// decryption charges one AES latency, not four.
    pub aes: Time,
    /// One BipBip tweakable-cipher pass in the cache-controller pipeline.
    pub bipbip: Time,
    /// In-DRAM-device decrypt latency for a near-memory cipher read.
    pub near_mem_read: Time,
}

impl CryptoLatencies {
    /// The paper's primary configuration (Table I).
    pub fn paper_default() -> Self {
        CryptoLatencies {
            aes: Time::from_ns(14),
            bipbip: Time::from_ns(1),
            near_mem_read: Time::from_ns(2),
        }
    }

    /// Same as the default but with a different AES latency (Fig 18 sweeps
    /// 14/20/25 ns).
    pub fn with_aes(mut self, aes: Time) -> Self {
        self.aes = aes;
        self
    }

    /// Per-read cipher latency of a counter-free direct placement, charged
    /// serially between data arrival and shipping it upstream.
    pub fn direct_read_latency(&self, cipher: DirectCipher) -> Time {
        match cipher {
            DirectCipher::CacheController => self.bipbip,
            DirectCipher::NearMemory => self.near_mem_read,
            DirectCipher::InSram => self.aes,
        }
    }

    /// Per-write cipher latency of a counter-free direct placement. A
    /// near-memory cipher encrypts inside the device after the (posted)
    /// write leaves the bus, so the controller is charged nothing.
    pub fn direct_write_latency(&self, cipher: DirectCipher) -> Time {
        match cipher {
            DirectCipher::CacheController => self.bipbip,
            DirectCipher::NearMemory => Time::ZERO,
            DirectCipher::InSram => self.aes,
        }
    }
}

impl Default for CryptoLatencies {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_i() {
        let lat = CryptoLatencies::default();
        assert_eq!(lat.aes, Time::from_ns(14));
    }

    #[test]
    fn aes_sweep_points() {
        for ns in [14u64, 20, 25] {
            let lat = CryptoLatencies::paper_default().with_aes(Time::from_ns(ns));
            assert_eq!(lat.aes, Time::from_ns(ns));
        }
    }

    #[test]
    fn direct_cipher_latencies() {
        let lat = CryptoLatencies::paper_default();
        // BipBip's whole pitch is a cipher far below AES latency.
        assert!(lat.direct_read_latency(DirectCipher::CacheController) < lat.aes / 4);
        // Near-memory reads are cheap, writes free (posted into the device).
        assert!(lat.direct_read_latency(DirectCipher::NearMemory) < lat.aes);
        assert_eq!(
            lat.direct_write_latency(DirectCipher::NearMemory),
            Time::ZERO
        );
        // In-SRAM AES pays the full AES latency both ways.
        assert_eq!(lat.direct_read_latency(DirectCipher::InSram), lat.aes);
        assert_eq!(lat.direct_write_latency(DirectCipher::InSram), lat.aes);
    }
}
