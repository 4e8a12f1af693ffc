//! Real-thread pacing.
//!
//! The one sanctioned wall-clock sleep in the workspace. Fault-injected
//! delays and retry backoff pause the *calling* thread — they model wire
//! and scheduling latency, not simulated time — and every such pause must
//! go through [`pace`] so the D1 determinism rule (`clippy.toml`'s
//! `disallowed-methods`) can keep `std::thread::sleep` out of the rest, and so no caller ever
//! sleeps while holding a drive or store lock (callers pace before
//! acquiring, never inside a critical section).

use parking_lot::Mutex;
use std::time::Duration;

/// Pause the calling OS thread for `d`. No-op for a zero duration.
///
/// Must be called without any drive/store lock held: pacing is a
/// transport-layer concern and a held lock would turn an injected delay
/// into a cross-request stall.
pub fn pace(d: Duration) {
    if d.is_zero() {
        return;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "single sanctioned real-thread pacing site; models wire latency and retry backoff, never sim-visible time"
    )]
    std::thread::sleep(d);
}

/// A byte-rate token bucket built on [`pace`]: callers debit bytes and
/// the pacer stalls the calling thread just long enough to hold the
/// stream to the configured rate. This is how background storage-
/// management I/O (rebuild, scrubbing) is throttled so foreground
/// traffic degrades gracefully instead of collapsing.
///
/// Sub-millisecond debts accumulate instead of being dropped, so many
/// small debits pace as accurately as one large debit. The pacer is
/// shared-state-safe: the debt ledger sits behind a mutex, and the
/// sleep itself always happens with the ledger lock released.
#[derive(Debug)]
pub struct RatePacer {
    /// Bytes per second; `None` is unlimited.
    bytes_per_sec: Option<u64>,
    /// Accumulated unpaid debt, in nanoseconds.
    debt_ns: Mutex<u64>,
}

/// Debts below this threshold keep accumulating rather than sleeping:
/// sleeping for microseconds costs more scheduling noise than it pays
/// back in rate accuracy.
const MIN_SLEEP_NS: u64 = 1_000_000;

impl RatePacer {
    /// A pacer that never stalls (rebuild at full platter speed).
    #[must_use]
    pub fn unlimited() -> Self {
        RatePacer {
            bytes_per_sec: None,
            debt_ns: Mutex::new(0),
        }
    }

    /// A pacer holding callers to `bytes_per_sec`. A rate of zero means
    /// unlimited (the conventional "no throttle" config value).
    #[must_use]
    pub fn with_rate(bytes_per_sec: u64) -> Self {
        RatePacer {
            bytes_per_sec: (bytes_per_sec > 0).then_some(bytes_per_sec),
            debt_ns: Mutex::new(0),
        }
    }

    /// The configured rate, if any.
    #[must_use]
    pub fn rate(&self) -> Option<u64> {
        self.bytes_per_sec
    }

    /// Account for `bytes` of transfer, stalling the calling thread (via
    /// [`pace`], never under the ledger lock) as needed to hold the
    /// configured rate.
    pub fn debit(&self, bytes: u64) {
        let Some(rate) = self.bytes_per_sec else {
            return;
        };
        let owed = {
            let mut debt = self.debt_ns.lock();
            // bytes/rate seconds → nanoseconds, saturating on overflow.
            let add = (u128::from(bytes) * 1_000_000_000 / u128::from(rate.max(1)))
                .min(u128::from(u64::MAX)) as u64;
            *debt = debt.saturating_add(add);
            if *debt < MIN_SLEEP_NS {
                return;
            }
            std::mem::take(&mut *debt)
        };
        pace(Duration::from_nanos(owed));
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "times real-thread pacing against its budget"
)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn unlimited_never_stalls() {
        assert_eq!(RatePacer::unlimited().rate(), None);
        assert_eq!(RatePacer::with_rate(0).rate(), None, "rate 0 is unlimited");
        let p = RatePacer::with_rate(0);
        let t0 = Instant::now();
        p.debit(u64::MAX);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn rate_holds_stream_to_budget() {
        // 10 MiB at 100 MiB/s must take ~100 ms.
        let p = RatePacer::with_rate(100 << 20);
        let t0 = Instant::now();
        for _ in 0..10 {
            p.debit(1 << 20);
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(80),
            "paced too little: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(3),
            "paced too much: {elapsed:?}"
        );
    }

    #[test]
    fn sub_threshold_debts_accumulate() {
        // 256 KiB at 1 GiB/s is ~0.24 ms — below the minimum sleep in one
        // debit, but 80 of them owe ~19 ms in aggregate.
        let p = RatePacer::with_rate(1 << 30);
        let t0 = Instant::now();
        for _ in 0..80 {
            p.debit(256 << 10);
        }
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }
}
