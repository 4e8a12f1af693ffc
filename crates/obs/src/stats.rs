//! The single-owner throughput meter.
//!
//! It predates the shared [`Registry`](crate::Registry) and remains the
//! right tool when one harness owns the meter (`&mut self`, no atomics);
//! `nasd-sim` re-exports it for compatibility. For cross-thread or
//! cross-subsystem accounting use [`Counter`](crate::Counter) /
//! [`Utilization`](crate::Utilization) instead.

use crate::time::SimTime;

/// Accumulates bytes moved over a window and reports MB/s.
///
/// Figure 7 and Figure 9 report aggregate application bandwidth; this
/// meter is what the harnesses read at the end of a run.
///
/// # Example
///
/// ```
/// use nasd_obs::{SimTime, Throughput};
/// let mut t = Throughput::new();
/// t.record(SimTime::from_secs(1), 6_200_000);
/// assert!((t.mbytes_per_sec(SimTime::from_secs(1)) - 6.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Throughput {
    bytes: u64,
    operations: u64,
    last_event: SimTime,
}

impl Throughput {
    /// Create an empty meter.
    #[must_use]
    pub fn new() -> Self {
        Throughput::default()
    }

    /// Record `bytes` delivered at time `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        self.bytes += bytes;
        self.operations += 1;
        self.last_event = self.last_event.max(at);
    }

    /// Total bytes recorded.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total operations recorded.
    #[must_use]
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Time of the last recorded completion.
    #[must_use]
    pub fn last_event(&self) -> SimTime {
        self.last_event
    }

    /// Mean bandwidth over `elapsed`, in decimal MB/s (the paper's unit).
    #[must_use]
    pub fn mbytes_per_sec(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / elapsed.as_secs_f64()
    }

    /// Mean operation rate over `elapsed`, in operations per second.
    #[must_use]
    pub fn ops_per_sec(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.operations as f64 / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_accumulates() {
        let mut t = Throughput::new();
        t.record(SimTime::from_secs(1), 1_000_000);
        t.record(SimTime::from_secs(2), 3_000_000);
        assert_eq!(t.bytes(), 4_000_000);
        assert_eq!(t.operations(), 2);
        assert_eq!(t.last_event(), SimTime::from_secs(2));
        assert!((t.mbytes_per_sec(SimTime::from_secs(2)) - 2.0).abs() < 1e-12);
        assert!((t.ops_per_sec(SimTime::from_secs(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_zero_window() {
        let t = Throughput::new();
        assert_eq!(t.mbytes_per_sec(SimTime::ZERO), 0.0);
        assert_eq!(t.ops_per_sec(SimTime::ZERO), 0.0);
    }
}
