//! Shared physical-address and memory-geometry types.
//!
//! Every component in the hierarchy — caches, counter machinery, NoC slice
//! mapping, DRAM address mapping — speaks 64 B cache lines over a physical
//! address space, so the newtypes live here in the base crate.

use std::fmt;

/// Size of a cache line / memory block in bytes (fixed at 64, as in the
/// paper and essentially all modern CPUs).
pub const LINE_BYTES: u64 = 64;

/// Log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// A byte-granularity physical address.
///
/// # Examples
///
/// ```
/// use emcc_sim::mem::{PhysAddr, LineAddr};
///
/// let a = PhysAddr::new(0x1234);
/// assert_eq!(a.line(), LineAddr::new(0x48));
/// assert_eq!(a.line().base(), PhysAddr::new(0x1200));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Wraps a raw byte address.
    #[inline]
    pub const fn new(addr: u64) -> Self {
        PhysAddr(addr)
    }

    /// The raw byte address.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The cache line containing this address.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA:{:#x}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A line-granularity physical address (byte address divided by 64).
///
/// This is the unit of transfer everywhere in the hierarchy: cache tags,
/// counter coverage, DRAM bursts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Wraps a raw line index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// The raw line index.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// First byte address of this line.
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << LINE_SHIFT)
    }

    /// Line at a fixed offset (in lines) from this one.
    #[inline]
    pub const fn offset(self, lines: u64) -> LineAddr {
        LineAddr(self.0 + lines)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LN:{:#x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<PhysAddr> for LineAddr {
    fn from(a: PhysAddr) -> LineAddr {
        a.line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_extraction() {
        let a = PhysAddr::new(0x1FFF);
        assert_eq!(a.line().get(), 0x7F);
        assert_eq!(a.line().base().get(), 0x1FC0);
    }

    #[test]
    fn line_offset_arithmetic() {
        let l = LineAddr::new(10);
        assert_eq!(l.offset(5).get(), 15);
        assert_eq!(LineAddr::from(PhysAddr::new(640)).get(), 10);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PhysAddr::new(0x40).to_string(), "0x40");
        assert_eq!(format!("{:?}", LineAddr::new(1)), "LN:0x1");
    }
}
