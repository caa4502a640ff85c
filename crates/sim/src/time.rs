//! Simulated time.
//!
//! [`SimTime`] is a nanosecond-resolution instant on the simulated clock. It
//! doubles as a duration type (the difference of two instants), which keeps
//! the event-queue arithmetic simple and allocation-free.

use crate::units;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant (or span) of simulated time with nanosecond resolution.
///
/// `SimTime` is an ordered, copyable newtype over `u64` nanoseconds.
/// Arithmetic saturates rather than wrapping so that pathological schedules
/// fail loudly (they park at `SimTime::MAX`) instead of corrupting ordering.
///
/// # Examples
///
/// ```
/// use mobius_sim::SimTime;
///
/// let t = SimTime::from_secs_f64(1.5);
/// assert_eq!(t.as_nanos(), 1_500_000_000);
/// assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The epoch of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as an "unreachable" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * units::NS_PER_US_U64)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * units::NS_PER_MS_U64)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * units::NS_PER_SEC_U64)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs clamp to zero; overly large
    /// inputs clamp to [`SimTime::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ns = units::secs_to_ns(s);
        if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ns.round() as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        units::ns_to_secs(self.0 as f64)
    }

    /// Saturating difference: `self - other`, or zero when `other` is later.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", units::secs_to_ms(s))
        } else {
            write!(f, "{:.3}us", units::secs_to_us(s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs() {
        let t = SimTime::from_secs_f64(0.123_456_789);
        assert_eq!(t.as_nanos(), 123_456_789);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn saturating_arithmetic() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b - a, SimTime::from_secs(1));
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(SimTime::MAX + a, SimTime::MAX);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimTime::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimTime::from_micros(2)), "2.000us");
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [SimTime::from_secs(1), SimTime::from_secs(2)]
            .into_iter()
            .sum();
        assert_eq!(total, SimTime::from_secs(3));
    }
}
