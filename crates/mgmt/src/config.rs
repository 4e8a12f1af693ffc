//! Tunables for the storage-management engine.

use std::time::Duration;

/// The lease identity nasd-mgmt presents to the Cheops manager when it
/// quiesces an object for rebuild or scrubbing. High enough that no
/// test or application client id collides with it.
pub(crate) const MGMT_CLIENT_ID: u64 = u64::MAX - 0x4D47; // "MG"
/// Duration (drive-clock seconds) of that exclusive lease.
pub(crate) const LEASE_TTL: u64 = 3_600;
/// Re-asks for a busy lease, and the pause between them, before the
/// object is left for a later pass.
pub(crate) const LEASE_RETRIES: u32 = 10;
pub(crate) const LEASE_RETRY_PAUSE: Duration = Duration::from_millis(5);
/// Probe attempts per sweep; a drive is silent for a sweep only if every
/// attempt times out (keeps one dropped message on a lossy channel from
/// reading as a dead drive).
pub(crate) const PROBE_ATTEMPTS: u32 = 3;
/// Bytes verified per scrub I/O.
pub(crate) const SCRUB_CHUNK: u64 = 256 << 10;

/// Tunables for [`crate::NasdMgmt`]. All byte rates are bytes/second
/// with `0` meaning unthrottled.
#[derive(Clone, Debug)]
pub struct MgmtConfig {
    /// Per-attempt liveness-probe timeout.
    pub probe_timeout: Duration,
    /// Consecutive silent sweeps before a drive is declared failed.
    pub failure_threshold: u32,
    /// Bytes moved per rebuild I/O.
    pub rebuild_chunk: u64,
    /// Rebuild throttle (bytes/sec; 0 = unthrottled).
    pub rebuild_rate: u64,
    /// Scrub throttle (bytes/sec; 0 = unthrottled).
    pub scrub_rate: u64,
}

impl MgmtConfig {
    /// Defaults suitable for the in-process test fleets: tight probe
    /// timeouts, two-sweep failure detection, 256 KiB transfer chunks,
    /// unthrottled rebuild and scrub.
    #[must_use]
    pub fn standard() -> Self {
        MgmtConfig {
            probe_timeout: Duration::from_millis(50),
            failure_threshold: 2,
            rebuild_chunk: 256 << 10,
            rebuild_rate: 0,
            scrub_rate: 0,
        }
    }

    /// Set the rebuild throttle (bytes/sec; 0 = unthrottled).
    #[must_use]
    pub fn rebuild_rate(mut self, bytes_per_sec: u64) -> Self {
        self.rebuild_rate = bytes_per_sec;
        self
    }

    /// Set the rebuild transfer chunk.
    #[must_use]
    pub fn rebuild_chunk(mut self, bytes: u64) -> Self {
        self.rebuild_chunk = bytes.max(1);
        self
    }

    /// Set the scrub throttle (bytes/sec; 0 = unthrottled).
    #[must_use]
    pub fn scrub_rate(mut self, bytes_per_sec: u64) -> Self {
        self.scrub_rate = bytes_per_sec;
        self
    }

    /// Set the per-attempt probe timeout.
    #[must_use]
    pub fn probe_timeout(mut self, timeout: Duration) -> Self {
        self.probe_timeout = timeout;
        self
    }

    /// Set how many consecutive silent sweeps declare a failure.
    #[must_use]
    pub fn failure_threshold(mut self, sweeps: u32) -> Self {
        self.failure_threshold = sweeps.max(1);
        self
    }
}

impl Default for MgmtConfig {
    fn default() -> Self {
        MgmtConfig::standard()
    }
}
