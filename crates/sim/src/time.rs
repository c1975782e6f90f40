//! Virtual time: instants and durations in integer nanoseconds.
//!
//! Every latency in the simulated stack — a 50 µs flash page read, a 3 ms
//! erase, a 300 ns PCM store, a 1.2 µs interrupt — is an exact integer
//! number of nanoseconds. Integer arithmetic keeps experiments bit-for-bit
//! reproducible across runs and platforms.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

/// One microsecond (1 000 ns).
pub const MICROSECOND: SimDuration = SimDuration(1_000);

impl SimTime {
    /// The simulation origin, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct an instant a given number of nanoseconds after the origin.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct an instant a given number of microseconds after the origin.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct an instant a given number of milliseconds after the origin.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is after `self`; saturates to zero
    /// in release builds.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Length in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Scale by a non-negative float, truncating to whole nanoseconds.
    ///
    /// This is the one sanctioned way to apply a fractional factor to a
    /// duration (seek curves, utilisation shares): the rounding rule —
    /// `(ns as f64 * factor) as u64`, i.e. truncation toward zero — is
    /// defined *here*, once, so every call site rounds identically.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "mul_f64 factor must be non-negative");
        SimDuration((self.0 as f64 * factor) as u64)
    }

    /// Saturating subtraction: `self - other`, or zero if `other` is longer.
    #[inline]
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The longer of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The shorter of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

/// Render a nanosecond count with an adaptive unit (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns < 1_000 {
        write!(f, "{ns}ns")
    } else if ns < 1_000_000 {
        write!(f, "{:.2}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        write!(f, "{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        write!(f, "{:.3}s", ns as f64 / 1_000_000_000.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(3), SimTime::from_nanos(3_000));
        assert_eq!(SimTime::from_millis(2), SimTime::from_nanos(2_000_000));
        assert_eq!(
            SimDuration::from_secs(1),
            SimDuration::from_nanos(1_000_000_000)
        );
        assert_eq!(
            SimDuration::from_millis(1) * 1_000,
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(4);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn since_is_difference() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(350);
        assert_eq!(b.since(a), SimDuration::from_nanos(250));
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let d = SimDuration::from_nanos(5);
        let e = SimDuration::from_nanos(9);
        assert_eq!(d.max(e), e);
        assert_eq!(d.min(e), d);
    }

    #[test]
    fn duration_ratio() {
        assert!((SimDuration::from_millis(1) / MICROSECOND - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.50µs");
        assert_eq!(SimDuration::from_micros(2_500).to_string(), "2.50ms");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.500s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total, SimDuration::from_nanos(10));
    }

    #[test]
    fn saturating_sub() {
        let d = SimDuration::from_nanos(5);
        assert_eq!(
            d.saturating_sub(SimDuration::from_nanos(9)),
            SimDuration::ZERO
        );
        assert_eq!(d.saturating_sub(SimDuration::from_nanos(2)).as_nanos(), 3);
    }
}
