//! Simulation time.
//!
//! [`SimTime`] is an absolute point on the simulation clock measured in
//! seconds since the start of the run. It is a thin wrapper over `f64`
//! that guarantees (by construction and debug assertions) that the value
//! is finite, which lets it provide a total order.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Absolute simulation time in seconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

/// Number of seconds in one minute.
pub const MINUTE: f64 = 60.0;
/// Number of seconds in one hour.
pub const HOUR: f64 = 3_600.0;
/// Number of seconds in one day.
pub const DAY: f64 = 86_400.0;
/// Number of seconds in one week.
pub const WEEK: f64 = 7.0 * DAY;

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from raw seconds.
    ///
    /// # Panics
    /// Panics (in debug builds) if `secs` is not finite.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite(), "SimTime must be finite, got {secs}");
        SimTime(secs)
    }

    /// Creates a time from minutes.
    #[inline]
    pub fn from_mins(mins: f64) -> Self {
        Self::from_secs(mins * MINUTE)
    }

    /// Creates a time from hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * HOUR)
    }

    /// Raw seconds since the start of the run.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Hours since the start of the run.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / HOUR
    }

    /// Seconds elapsed since the start of the *current* day
    /// (the `t` of the paper's Eq. 2).
    #[inline]
    pub fn second_of_day(self) -> f64 {
        self.0.rem_euclid(DAY)
    }

    /// Zero-based index of the current day (day 0 is the first simulated day).
    #[inline]
    pub fn day_index(self) -> u64 {
        (self.0 / DAY).floor() as u64
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Values are finite by construction, so partial_cmp never fails.
        self.0.partial_cmp(&other.0).expect("SimTime is finite")
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0;
        let days = (total / DAY).floor();
        let rem = total - days * DAY;
        let h = (rem / HOUR).floor();
        let m = ((rem - h * HOUR) / MINUTE).floor();
        let s = rem - h * HOUR - m * MINUTE;
        if days >= 1.0 {
            write!(f, "{days:.0}d {h:02.0}:{m:02.0}:{s:06.3}")
        } else {
            write!(f, "{h:02.0}:{m:02.0}:{s:06.3}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimTime::from_mins(2.0).as_secs(), 120.0);
        assert_eq!(SimTime::from_hours(1.0).as_secs(), HOUR);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn day_decomposition() {
        let t = SimTime::from_secs(DAY * 2.0 + HOUR * 3.0 + 42.0);
        assert_eq!(t.day_index(), 2);
        assert!((t.second_of_day() - (HOUR * 3.0 + 42.0)).abs() < 1e-9);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), core::cmp::Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(10.0);
        assert_eq!((a + 5.0).as_secs(), 15.0);
        assert_eq!((a + 5.0) - a, 5.0);
        let mut b = a;
        b += 1.0;
        assert_eq!(b.as_secs(), 11.0);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_secs(DAY + HOUR * 2.0 + 61.5);
        let s = format!("{t}");
        assert!(s.starts_with("1d 02:01:01.500"), "got {s}");
        let u = format!("{}", SimTime::from_secs(59.25));
        assert_eq!(u, "00:00:59.250");
    }
}
