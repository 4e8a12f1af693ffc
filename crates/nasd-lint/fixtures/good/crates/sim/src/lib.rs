//! Fixture: a clean request-path crate root. It forbids unsafe code and
//! hands panic-freedom to clippy — nasd-lint must exit 0 on this tree.

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

use std::time::Duration;

/// Deterministic virtual clock.
pub struct Clock {
    now_ns: u64,
}

impl Clock {
    /// Advance by `d`, saturating.
    pub fn advance(&mut self, d: Duration) {
        self.now_ns = self.now_ns.saturating_add(d.as_nanos() as u64);
    }
}
