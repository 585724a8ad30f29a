//! Physical address → channel/rank/bank/row mapping.
//!
//! Channel interleaving follows the paper exactly: with 8 channels, "bits
//! 8 to 10 of the memory address" are the channel id (§VI-D) — i.e. bits
//! 2..4 of the line index. Bank selection is XOR-based like Skylake
//! (Table I cites DRAMA): the bank index is the XOR of address bits with
//! low row bits, which spreads strided streams across banks.

use emcc_sim::LineAddr;

use crate::config::{BANKS_PER_RANK, RANKS};

/// Decoded location of a line in the DRAM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramLocation {
    /// Channel id.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank within the rank.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
}

/// The address-mapping function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    channels: usize,
}

/// Column bits within a row: 8 KB rows = 128 lines.
const COL_BITS: u32 = 7;
const BANK_BITS: u32 = BANKS_PER_RANK.trailing_zeros();
const RANK_BITS: u32 = RANKS.trailing_zeros();

impl AddressMapping {
    /// Creates a mapping for the given channel count (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is not a power of two.
    pub fn new(channels: usize) -> Self {
        assert!(
            channels.is_power_of_two(),
            "channels must be a power of two"
        );
        AddressMapping { channels }
    }

    /// The channel for a line: byte-address bits 8..(8+log2(channels)).
    pub fn channel_of(&self, line: LineAddr) -> usize {
        if self.channels == 1 {
            return 0;
        }
        let shift = 2; // byte bit 8 == line bit 2
        ((line.get() >> shift) as usize) & (self.channels - 1)
    }

    /// Full location decode.
    pub fn locate(&self, line: LineAddr) -> DramLocation {
        let channel = self.channel_of(line);
        // Strip channel bits so each channel sees a dense address space.
        let l = if self.channels == 1 {
            line.get()
        } else {
            let low = line.get() & 0b11;
            let high = line.get() >> (2 + self.channels.trailing_zeros());
            (high << 2) | low
        };
        let col_shift = COL_BITS;
        let bank_raw = (l >> col_shift) & ((1 << BANK_BITS) - 1);
        let rank = ((l >> (col_shift + BANK_BITS)) & ((1 << RANK_BITS) - 1)) as usize;
        let row = l >> (col_shift + BANK_BITS + RANK_BITS);
        // XOR low row bits into the bank index (Skylake-like permutation).
        let bank = ((bank_raw ^ (row & ((1 << BANK_BITS) - 1))) & ((1 << BANK_BITS) - 1)) as usize;
        DramLocation {
            channel,
            rank,
            bank,
            row,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_channel_maps_everything_to_zero() {
        let m = AddressMapping::new(1);
        for i in [0u64, 5, 1 << 20, u32::MAX as u64] {
            assert_eq!(m.channel_of(LineAddr::new(i)), 0);
        }
    }

    #[test]
    fn eight_channel_bits_8_to_10() {
        let m = AddressMapping::new(8);
        // Byte address 0x100 (bit 8 set) = line 4 → channel 1.
        assert_eq!(m.channel_of(LineAddr::new(4)), 1);
        // Byte address 0x400 (bit 10 set) = line 16 → channel 4.
        assert_eq!(m.channel_of(LineAddr::new(16)), 4);
        // Lines 0..3 share channel 0 (bits 8..10 clear).
        for i in 0..4 {
            assert_eq!(m.channel_of(LineAddr::new(i)), 0);
        }
    }

    #[test]
    fn consecutive_lines_share_a_row() {
        let m = AddressMapping::new(1);
        let a = m.locate(LineAddr::new(0));
        let b = m.locate(LineAddr::new(1));
        assert_eq!((a.rank, a.bank, a.row), (b.rank, b.bank, b.row));
    }

    #[test]
    fn row_stride_changes_bank_via_xor() {
        // Accesses with an 8 KB-row stride land in *different* banks
        // thanks to the XOR permutation — the anti-conflict property.
        let m = AddressMapping::new(1);
        let lines_per_bank_stride = 128 * 16 * 8; // col * banks * ranks
        let a = m.locate(LineAddr::new(0));
        let b = m.locate(LineAddr::new(lines_per_bank_stride));
        assert_eq!(a.rank, b.rank);
        assert_ne!((a.bank, a.row), (b.bank, b.row));
        assert_ne!(a.bank, b.bank, "XOR permutation must shift the bank");
    }

    #[test]
    fn location_fields_in_range() {
        let m = AddressMapping::new(8);
        let mut rng = emcc_sim::Rng64::new(4);
        for _ in 0..10_000 {
            let loc = m.locate(LineAddr::new(rng.below(1 << 31)));
            assert!(loc.channel < 8);
            assert!(loc.rank < 8);
            assert!(loc.bank < 16);
        }
    }

    #[test]
    fn channel_stripping_keeps_rows_dense() {
        let m = AddressMapping::new(8);
        // Two lines differing only in channel bits decode to the same
        // in-channel location.
        let a = m.locate(LineAddr::new(0));
        let b = m.locate(LineAddr::new(4)); // channel 1, same dense addr
        assert_eq!((a.rank, a.bank, a.row), (b.rank, b.bank, b.row));
        assert_ne!(
            m.channel_of(LineAddr::new(0)),
            m.channel_of(LineAddr::new(4))
        );
    }
}
