//! Picosecond-resolution simulation time.
//!
//! All timing models in the workspace express latencies in [`Time`]. Using
//! picoseconds keeps every latency in the paper exactly representable: at
//! the simulated 3.2 GHz core clock one cycle is 312.5 ps, and DDR4-3200
//! timing parameters such as tCL = 13.75 ns are integral numbers of
//! picoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant or duration in simulated time, stored as picoseconds.
///
/// `Time` is used both as an absolute simulation timestamp and as a
/// duration, mirroring gem5's `Tick`. Arithmetic is checked in debug builds
/// and saturating on subtraction underflow is *not* silently provided —
/// subtracting past zero is a logic bug and panics in debug builds.
///
/// # Examples
///
/// ```
/// use emcc_sim::Time;
///
/// let aes = Time::from_ns(14);
/// let decode = Time::from_ns(3);
/// assert_eq!((aes + decode).as_ns_f64(), 17.0);
/// assert!(aes > decode);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The zero instant (simulation start) / zero-length duration.
    pub const ZERO: Time = Time(0);
    /// The maximum representable time; useful as an "infinite" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates a time from a fractional number of nanoseconds.
    ///
    /// The value is rounded to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid time: {ns} ns");
        Time((ns * 1_000.0).round() as u64)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in nanoseconds, as a float (lossless for values < 2^53 ps).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    ///
    /// Useful for computing "remaining latency after overlap" where the
    /// overlap may fully cover the latency.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: Time) -> Option<Time> {
        self.0.checked_sub(rhs.0).map(Time)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: Time) -> Time {
        Time(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: Time) -> Time {
        Time(self.0.min(rhs.0))
    }

    /// True if this is the zero time.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A fixed clock frequency, used to convert between cycles and [`Time`].
///
/// # Examples
///
/// ```
/// use emcc_sim::time::Frequency;
///
/// let core = Frequency::from_ghz(3.2);
/// assert_eq!(core.cycles(2).as_ps(), 625);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Frequency {
    ps_per_cycle_x16: u64,
}

impl Frequency {
    /// Creates a frequency from GHz.
    ///
    /// The period is stored in 1/16-picosecond units so that common server
    /// frequencies (3.2 GHz → 312.5 ps) are exact.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not a positive finite number.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "invalid frequency: {ghz} GHz");
        Frequency {
            ps_per_cycle_x16: (16_000.0 / ghz).round() as u64,
        }
    }

    /// Duration of `n` cycles at this frequency.
    #[inline]
    pub fn cycles(self, n: u64) -> Time {
        Time::from_ps(n * self.ps_per_cycle_x16 / 16)
    }

    /// Period of one cycle.
    #[inline]
    pub fn period(self) -> Time {
        self.cycles(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_roundtrip() {
        assert_eq!(Time::from_ns(23).as_ps(), 23_000);
        assert_eq!(Time::from_ns(23).as_ns_f64(), 23.0);
    }

    #[test]
    fn fractional_ns() {
        assert_eq!(Time::from_ns_f64(13.75).as_ps(), 13_750);
        assert_eq!(Time::from_ns_f64(0.0), Time::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a + b, Time::from_ns(14));
        assert_eq!(a - b, Time::from_ns(6));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.checked_sub(b), Some(Time::from_ns(6)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a * 3, Time::from_ns(30));
        assert_eq!(a / 4, Time::from_ps(2_500));
    }

    #[test]
    fn min_max() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [Time::from_ns(1), Time::from_ns(2), Time::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Time::from_ns(6));
    }

    #[test]
    fn display_units() {
        assert_eq!(Time::from_ps(999).to_string(), "999ps");
        assert_eq!(Time::from_ns(23).to_string(), "23.000ns");
        assert_eq!(Time::from_us(5).to_string(), "5.000us");
        assert_eq!(Time::from_ms(20).to_string(), "20.000ms");
    }

    #[test]
    fn frequency_cycles() {
        let f = Frequency::from_ghz(3.2);
        assert_eq!(f.cycles(1).as_ps(), 312);
        assert_eq!(f.cycles(2).as_ps(), 625);
        assert_eq!(f.cycles(16).as_ps(), 5_000);
        // Each call truncates to whole picoseconds, so split calls drift.
        assert_eq!(f.cycles(1) * 2, Time::from_ps(624));
    }

    #[test]
    #[should_panic]
    fn invalid_frequency_panics() {
        let _ = Frequency::from_ghz(0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_ns_panics() {
        let _ = Time::from_ns_f64(-1.0);
    }
}
