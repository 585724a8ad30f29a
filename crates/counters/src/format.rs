//! Morphable counter-block storage formats and bit-exact packing.
//!
//! A Morphable counter block is 64 B = 512 bits laid out as:
//!
//! ```text
//! [ 56 b MAC | 2 b format | 6 b spare | 64 b major | 384 b minor payload ]
//! ```
//!
//! The payload is either **uniform** (128 × 3 b) or **zero-counter
//! compressed (ZCC)**: a 128-bit non-zero bitmap followed by the non-zero
//! minors at a larger width. The ZCC capacities — 51 × 5 b, 42 × 6 b,
//! 36 × 7 b — are the non-power-of-2 populations the paper calls out when
//! charging 3 ns decode latency (§V "Baselines").

/// A Morphable payload format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MorphFormat {
    /// 128 uniform 3-bit minors (values 0..=7).
    Uniform3,
    /// ZCC: up to 51 non-zero 5-bit minors (values 0..=31).
    Zcc5,
    /// ZCC: up to 42 non-zero 6-bit minors (values 0..=63).
    Zcc6,
    /// ZCC: up to 36 non-zero 7-bit minors (values 0..=127).
    Zcc7,
}

impl MorphFormat {
    /// Largest representable minor value.
    pub const fn max_minor(self) -> u16 {
        match self {
            MorphFormat::Uniform3 => 7,
            MorphFormat::Zcc5 => 31,
            MorphFormat::Zcc6 => 63,
            MorphFormat::Zcc7 => 127,
        }
    }

    /// Maximum number of non-zero minors the format can hold.
    pub const fn nonzero_capacity(self) -> usize {
        match self {
            MorphFormat::Uniform3 => 128,
            MorphFormat::Zcc5 => 51,
            MorphFormat::Zcc6 => 42,
            MorphFormat::Zcc7 => 36,
        }
    }

    /// Bit width of one stored minor.
    pub const fn minor_bits(self) -> usize {
        match self {
            MorphFormat::Uniform3 => 3,
            MorphFormat::Zcc5 => 5,
            MorphFormat::Zcc6 => 6,
            MorphFormat::Zcc7 => 7,
        }
    }

    /// Formats in preference order (cheapest decode first).
    pub const fn all() -> [MorphFormat; 4] {
        [
            MorphFormat::Uniform3,
            MorphFormat::Zcc5,
            MorphFormat::Zcc6,
            MorphFormat::Zcc7,
        ]
    }

    /// Chooses the first format that can represent `minors`, or `None` if
    /// the block must be rebased (an overflow).
    pub fn fitting(minors: &[u16]) -> Option<MorphFormat> {
        let nz = minors.iter().filter(|&&m| m > 0).count();
        let mx = minors.iter().copied().max().unwrap_or(0);
        Self::fitting_counts(nz, mx)
    }

    /// [`Self::fitting`] from summary counts: the first format holding
    /// `nonzero` non-zero minors whose largest is `max`.
    pub(crate) fn fitting_counts(nonzero: usize, max: u16) -> Option<MorphFormat> {
        MorphFormat::all()
            .into_iter()
            .find(|f| max <= f.max_minor() && nonzero <= f.nonzero_capacity())
    }

    /// 2-bit on-disk tag.
    pub const fn tag(self) -> u8 {
        match self {
            MorphFormat::Uniform3 => 0,
            MorphFormat::Zcc5 => 1,
            MorphFormat::Zcc6 => 2,
            MorphFormat::Zcc7 => 3,
        }
    }

    /// Parses a 2-bit tag.
    pub const fn from_tag(tag: u8) -> Option<MorphFormat> {
        match tag {
            0 => Some(MorphFormat::Uniform3),
            1 => Some(MorphFormat::Zcc5),
            2 => Some(MorphFormat::Zcc6),
            3 => Some(MorphFormat::Zcc7),
            _ => None,
        }
    }
}

/// Number of minor counters in a Morphable block.
pub const MORPHABLE_MINORS: usize = 128;

/// Bit-writer over the 48-byte (384-bit) minor payload.
struct BitCursor<'a> {
    bytes: &'a mut [u8],
    bit: usize,
}

impl<'a> BitCursor<'a> {
    fn new(bytes: &'a mut [u8]) -> Self {
        BitCursor { bytes, bit: 0 }
    }

    fn write(&mut self, value: u16, width: usize) {
        for i in 0..width {
            let b = (value >> i) & 1;
            let pos = self.bit + i;
            if b == 1 {
                self.bytes[pos / 8] |= 1 << (pos % 8);
            }
        }
        self.bit += width;
    }
}

fn read_bits(bytes: &[u8], bit: usize, width: usize) -> u16 {
    let mut v = 0u16;
    for i in 0..width {
        let pos = bit + i;
        if bytes[pos / 8] >> (pos % 8) & 1 == 1 {
            v |= 1 << i;
        }
    }
    v
}

/// Packs a Morphable block (`major`, 128 `minors`, 56-bit `mac`) into its
/// 64-byte DRAM representation.
///
/// # Panics
///
/// Panics if `minors` does not fit `format` (the caller must have selected
/// a fitting format via [`MorphFormat::fitting`]) or has the wrong length.
///
/// # Examples
///
/// ```
/// use emcc_counters::format::{encode_morphable, decode_morphable, MorphFormat};
///
/// let mut minors = [0u16; 128];
/// minors[5] = 3;
/// let fmt = MorphFormat::fitting(&minors).unwrap();
/// let bytes = encode_morphable(fmt, 9, &minors, 0xABCD);
/// let (f2, major, m2, mac) = decode_morphable(&bytes).unwrap();
/// assert_eq!((f2, major, mac), (fmt, 9, 0xABCD));
/// assert_eq!(m2[5], 3);
/// ```
pub fn encode_morphable(format: MorphFormat, major: u64, minors: &[u16], mac: u64) -> [u8; 64] {
    assert_eq!(minors.len(), MORPHABLE_MINORS, "need 128 minors");
    let nz = minors.iter().filter(|&&m| m > 0).count();
    let mx = minors.iter().copied().max().unwrap_or(0);
    assert!(
        mx <= format.max_minor() && nz <= format.nonzero_capacity(),
        "minors do not fit {format:?}: max={mx} nonzero={nz}"
    );

    let mut out = [0u8; 64];
    // Header: 56-bit MAC then 2-bit format tag in byte 7's low bits.
    out[..7].copy_from_slice(&mac.to_be_bytes()[1..8]);
    out[7] = format.tag();
    out[8..16].copy_from_slice(&major.to_be_bytes());

    let payload = &mut out[16..64];
    match format {
        MorphFormat::Uniform3 => {
            let mut w = BitCursor::new(payload);
            for &m in minors {
                w.write(m, 3);
            }
        }
        _ => {
            // 128-bit bitmap of non-zero positions, then packed values.
            let mut w = BitCursor::new(payload);
            for &m in minors {
                w.write(u16::from(m > 0), 1);
            }
            for &m in minors {
                if m > 0 {
                    w.write(m, format.minor_bits());
                }
            }
        }
    }
    out
}

/// Unpacks a Morphable block from its 64-byte DRAM representation.
///
/// Returns `(format, major, minors, mac)`, or `None` if the format tag is
/// invalid (corrupted block).
pub fn decode_morphable(bytes: &[u8; 64]) -> Option<(MorphFormat, u64, [u16; 128], u64)> {
    let format = MorphFormat::from_tag(bytes[7] & 0b11)?;
    let mut mac_bytes = [0u8; 8];
    mac_bytes[1..8].copy_from_slice(&bytes[..7]);
    let mac = u64::from_be_bytes(mac_bytes);
    let major = u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes"));

    let payload = &bytes[16..64];
    let mut minors = [0u16; 128];
    match format {
        MorphFormat::Uniform3 => {
            for (i, m) in minors.iter_mut().enumerate() {
                *m = read_bits(payload, i * 3, 3);
            }
        }
        _ => {
            let mut value_bit = 128;
            for (i, m) in minors.iter_mut().enumerate() {
                if read_bits(payload, i, 1) == 1 {
                    *m = read_bits(payload, value_bit, format.minor_bits());
                    value_bit += format.minor_bits();
                }
            }
        }
    }
    Some((format, major, minors, mac))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_budgets_fit_in_384_bits() {
        // The format table must respect the 48-byte payload budget.
        assert!(128 * MorphFormat::Uniform3.minor_bits() <= 384);
        for f in [MorphFormat::Zcc5, MorphFormat::Zcc6, MorphFormat::Zcc7] {
            assert!(
                128 + f.nonzero_capacity() * f.minor_bits() <= 384,
                "{f:?} overflows payload"
            );
        }
    }

    #[test]
    fn fitting_prefers_uniform() {
        let minors = [1u16; 128];
        assert_eq!(MorphFormat::fitting(&minors), Some(MorphFormat::Uniform3));
    }

    #[test]
    fn fitting_escalates_with_max_value() {
        let mut minors = [0u16; 128];
        minors[0] = 8;
        assert_eq!(MorphFormat::fitting(&minors), Some(MorphFormat::Zcc5));
        minors[0] = 32;
        assert_eq!(MorphFormat::fitting(&minors), Some(MorphFormat::Zcc6));
        minors[0] = 64;
        assert_eq!(MorphFormat::fitting(&minors), Some(MorphFormat::Zcc7));
        minors[0] = 128;
        assert_eq!(MorphFormat::fitting(&minors), None);
    }

    #[test]
    fn fitting_respects_nonzero_capacity() {
        // 52 non-zero values of 9 exceed Zcc5's 51 slots — and Zcc6/Zcc7
        // have even fewer slots, so the block must rebase.
        let mut minors = [0u16; 128];
        for m in minors.iter_mut().take(52) {
            *m = 9;
        }
        assert_eq!(MorphFormat::fitting(&minors), None);
        // 40 non-zero values of 35 need 6-bit minors: Zcc6.
        let mut minors = [0u16; 128];
        for m in minors.iter_mut().take(40) {
            *m = 35;
        }
        assert_eq!(MorphFormat::fitting(&minors), Some(MorphFormat::Zcc6));
        // 43 don't fit Zcc6 when a value needs 7 bits.
        let mut minors = [0u16; 128];
        for m in minors.iter_mut().take(43) {
            *m = 100;
        }
        assert_eq!(MorphFormat::fitting(&minors), None);
        // ...but 36 do fit Zcc7.
        let mut minors = [0u16; 128];
        for m in minors.iter_mut().take(36) {
            *m = 100;
        }
        assert_eq!(MorphFormat::fitting(&minors), Some(MorphFormat::Zcc7));
    }

    #[test]
    fn roundtrip_uniform() {
        let mut minors = [0u16; 128];
        for (i, m) in minors.iter_mut().enumerate() {
            *m = (i % 8) as u16;
        }
        let bytes = encode_morphable(
            MorphFormat::Uniform3,
            77,
            &minors,
            0x00AA_BBCC_DDEE_FF01 & 0x00FF_FFFF_FFFF_FFFF,
        );
        let (f, major, m2, _mac) = decode_morphable(&bytes).unwrap();
        assert_eq!(f, MorphFormat::Uniform3);
        assert_eq!(major, 77);
        assert_eq!(m2, minors);
    }

    #[test]
    fn roundtrip_all_zcc_formats() {
        for fmt in [MorphFormat::Zcc5, MorphFormat::Zcc6, MorphFormat::Zcc7] {
            let mut minors = [0u16; 128];
            // Scatter capacity-many values of the max magnitude.
            for i in 0..fmt.nonzero_capacity() {
                minors[(i * 3) % 128] = fmt.max_minor();
            }
            let bytes = encode_morphable(fmt, u64::MAX, &minors, 0x1234);
            let (f, major, m2, mac) = decode_morphable(&bytes).unwrap();
            assert_eq!(f, fmt);
            assert_eq!(major, u64::MAX);
            assert_eq!(mac, 0x1234);
            assert_eq!(m2, minors, "{fmt:?} roundtrip failed");
        }
    }

    #[test]
    fn mac_truncated_to_56_bits() {
        let minors = [0u16; 128];
        let bytes = encode_morphable(MorphFormat::Uniform3, 0, &minors, 0x00DE_ADBE_EFCA_FE42);
        let (_, _, _, mac) = decode_morphable(&bytes).unwrap();
        assert_eq!(mac, 0x00DE_ADBE_EFCA_FE42);
    }

    #[test]
    #[should_panic]
    fn encode_rejects_unfit_minors() {
        let minors = [8u16; 128]; // needs Zcc5 width but 128 non-zeros
        let _ = encode_morphable(MorphFormat::Uniform3, 0, &minors, 0);
    }

    #[test]
    fn tags_roundtrip() {
        for f in MorphFormat::all() {
            assert_eq!(MorphFormat::from_tag(f.tag()), Some(f));
        }
        assert_eq!(MorphFormat::from_tag(9), None);
    }
}
