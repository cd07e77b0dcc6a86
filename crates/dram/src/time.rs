//! Simulation time.
//!
//! All simulation time is integer **picoseconds**, split into two newtypes:
//! [`Time`] (an instant since simulation start) and [`Span`] (a duration).
//! Integer picoseconds keep the event-driven simulation exactly
//! deterministic: there is no floating-point rounding anywhere on the
//! simulated timeline, so two runs with the same seed produce bit-identical
//! traces.
//!
//! # Examples
//!
//! ```
//! use lh_dram::{Span, Time};
//!
//! let t = Time::ZERO + Span::from_ns(100);
//! assert_eq!(t - Time::ZERO, Span::from_ns(100));
//! assert_eq!(Span::from_us(2).as_ns(), 2_000.0);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant on the simulated timeline, in picoseconds since simulation
/// start.
///
/// `Time` is ordered and supports arithmetic with [`Span`]:
///
/// ```
/// use lh_dram::{Span, Time};
/// let a = Time::from_ns(10);
/// let b = a + Span::from_ns(5);
/// assert!(b > a);
/// assert_eq!(b.as_ps(), 15_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A duration on the simulated timeline, in picoseconds.
///
/// ```
/// use lh_dram::Span;
/// assert_eq!(Span::from_ns(3) * 4, Span::from_ns(12));
/// assert_eq!(Span::from_us(1) / Span::from_ns(250), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span(u64);

impl Time {
    /// The start of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for schedulers.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Creates an instant from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1_000)
    }

    /// Creates an instant from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000_000)
    }

    /// Creates an instant from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant expressed in (possibly fractional) nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in (possibly fractional) microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Span {
        Span(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub(crate) fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Span {
    /// The zero-length duration.
    pub const ZERO: Span = Span(0);
    /// The largest representable duration.
    pub const MAX: Span = Span(u64::MAX);

    /// Creates a duration from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Span {
        Span(ps)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Span {
        Span(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Span {
        Span(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Span {
        Span(ms * 1_000_000_000)
    }

    /// Creates a duration from a fractional nanosecond count, rounding to
    /// the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns_f64(ns: f64) -> Span {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "span must be a finite, non-negative ns count"
        );
        Span((ns * 1e3).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This duration expressed in (possibly fractional) nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration expressed in (possibly fractional) microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration expressed in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The longer of two durations.
    #[inline]
    pub fn max(self, other: Span) -> Span {
        Span(self.0.max(other.0))
    }

    /// The shorter of two durations.
    #[inline]
    pub fn min(self, other: Span) -> Span {
        Span(self.0.min(other.0))
    }

    /// `self - other`, saturating at zero.
    #[inline]
    pub fn saturating_sub(self, other: Span) -> Span {
        Span(self.0.saturating_sub(other.0))
    }

    /// Whether this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Span> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Span) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Span> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub<Span> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Span) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign<Span> for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Span) {
        self.0 -= rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Span;
    /// Duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Time::saturating_since`] when ordering is unknown.
    #[inline]
    fn sub(self, rhs: Time) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl Add for Span {
    type Output = Span;
    #[inline]
    fn add(self, rhs: Span) -> Span {
        Span(self.0 + rhs.0)
    }
}

impl AddAssign for Span {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub for Span {
    type Output = Span;
    #[inline]
    fn sub(self, rhs: Span) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl Mul<u64> for Span {
    type Output = Span;
    #[inline]
    fn mul(self, rhs: u64) -> Span {
        Span(self.0 * rhs)
    }
}

impl Mul<Span> for u64 {
    type Output = Span;
    #[inline]
    fn mul(self, rhs: Span) -> Span {
        Span(self * rhs.0)
    }
}

impl Div<u64> for Span {
    type Output = Span;
    #[inline]
    fn div(self, rhs: u64) -> Span {
        Span(self.0 / rhs)
    }
}

impl Div<Span> for Span {
    type Output = u64;
    /// How many whole `rhs` fit into `self`.
    #[inline]
    fn div(self, rhs: Span) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Span> for Span {
    type Output = Span;
    #[inline]
    fn rem(self, rhs: Span) -> Span {
        Span(self.0 % rhs.0)
    }
}

impl Sum for Span {
    fn sum<I: Iterator<Item = Span>>(iter: I) -> Span {
        Span(iter.map(|s| s.0).sum())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Span(self.0))
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3} s", ps as f64 / 1e12)
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3} ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3} us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3} ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps} ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Time::from_ns(5).as_ps(), 5_000);
        assert_eq!(Time::from_us(2).as_ps(), 2_000_000);
        assert_eq!(Span::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(Span::from_ns_f64(1.5).as_ps(), 1_500);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_ns(100);
        assert_eq!(t + Span::from_ns(50), Time::from_ns(150));
        assert_eq!(t - Span::from_ns(50), Time::from_ns(50));
        assert_eq!(Time::from_ns(150) - t, Span::from_ns(50));
        assert_eq!(Span::from_ns(10) * 3, Span::from_ns(30));
        assert_eq!(Span::from_ns(30) / 3, Span::from_ns(10));
        assert_eq!(Span::from_ns(30) / Span::from_ns(10), 3);
        assert_eq!(Span::from_ns(35) % Span::from_ns(10), Span::from_ns(5));
    }

    #[test]
    fn saturating_behaviour() {
        let early = Time::from_ns(10);
        let late = Time::from_ns(20);
        assert_eq!(early.saturating_since(late), Span::ZERO);
        assert_eq!(late.saturating_since(early), Span::from_ns(10));
        assert_eq!(
            Span::from_ns(5).saturating_sub(Span::from_ns(9)),
            Span::ZERO
        );
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Time::from_ns(1);
        let b = Time::from_ns(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(Span::from_ns(1) < Span::from_ns(2));
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Span::from_ps(999).to_string(), "999 ps");
        assert_eq!(Span::from_ns(1).to_string(), "1.000 ns");
        assert_eq!(Span::from_us(25).to_string(), "25.000 us");
        assert_eq!(Span::from_ms(32).to_string(), "32.000 ms");
    }

    #[test]
    fn sum_of_spans() {
        let spans = [Span::from_ns(1), Span::from_ns(2), Span::from_ns(3)];
        let total: Span = spans.iter().copied().sum();
        assert_eq!(total, Span::from_ns(6));
    }

    #[test]
    #[should_panic]
    fn negative_ns_f64_panics() {
        let _ = Span::from_ns_f64(-1.0);
    }
}
