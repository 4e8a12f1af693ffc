//! Fixture: L2 violations. Blocking calls — device I/O and the
//! sanctioned `pace` sleep — made while a mutex guard is live serialize
//! every contender on that lock for the whole call.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

impl Drive {
    /// Two violations: device I/O and a pace while `state` is held.
    pub fn flush(&self) {
        let guard = self.state.lock();
        self.media.write_block(guard.head);
        pace(guard.delay);
    }

    /// Dropping the guard first is the sanctioned shape; no finding.
    pub fn scoped(&self) {
        let guard = self.state.lock();
        let delay = guard.delay;
        drop(guard);
        pace(delay);
    }
}
