//! Simulated time.
//!
//! `SimTime` is defined here, at the bottom of the crate graph, so the
//! observability primitives can be keyed on it; `nasd-sim` re-exports it
//! and the rest of the workspace keeps using `nasd_sim::SimTime`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, in nanoseconds.
///
/// One type serves both roles, as with `std::time::Duration` arithmetic on
/// instants; simulations start at `SimTime::ZERO`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero / the empty duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    #[must_use]
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    #[must_use]
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From whole seconds.
    #[must_use]
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// From fractional seconds, rounding to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// As nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// As whole microseconds (truncating).
    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// As whole milliseconds (truncating).
    #[must_use]
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// As fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[must_use]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The earlier of two times.
    #[must_use]
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "simulated-clock arithmetic: checked_add makes overflow a deliberate abort; it means a sim bug, not hostile input"
    )]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("sim time overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "simulated-clock arithmetic: checked_sub makes underflow a deliberate abort; it means a sim bug, not hostile input"
    )]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("sim time underflow"))
    }
}

fn fmt_time(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns}ns")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_time(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_time(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_millis(), 500);
        assert!((SimTime::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(3);
        assert_eq!(a + b, SimTime::from_millis(8));
        assert_eq!(a - b, SimTime::from_millis(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_seconds_panics() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
