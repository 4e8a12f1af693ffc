//! Constants of the storage-management engine.

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
/// Per-attempt liveness-probe timeout.
pub(crate) const PROBE_TIMEOUT: Duration = Duration::from_millis(30);
/// Consecutive silent sweeps before a drive is declared failed.
pub(crate) const FAILURE_THRESHOLD: u32 = 2;
/// Bytes moved per rebuild I/O.
pub(crate) const REBUILD_CHUNK: u64 = 256 << 10;
/// Bytes verified per scrub I/O.
pub(crate) const SCRUB_CHUNK: u64 = 256 << 10;
