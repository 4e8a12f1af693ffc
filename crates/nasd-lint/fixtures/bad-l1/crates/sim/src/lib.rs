//! Fixture: L1 violation. Two functions acquire the same pair of locks in
//! opposite orders — nasd-lint must report the lock-order cycle and exit
//! nonzero.

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

use std::sync::Mutex;

/// Two independently locked counters.
pub struct Counters {
    /// First counter.
    pub alpha: Mutex<u64>,
    /// Second counter.
    pub beta: Mutex<u64>,
}

/// Acquires alpha, then beta.
pub fn sum(c: &Counters) -> u64 {
    let alpha = c.alpha.lock();
    let beta = c.beta.lock();
    *alpha.unwrap_or_else(|e| e.into_inner()) + *beta.unwrap_or_else(|e| e.into_inner())
}

/// Acquires beta, then alpha — deadlocks against `sum`.
pub fn transfer(c: &Counters, n: u64) {
    let beta = c.beta.lock();
    let alpha = c.alpha.lock();
    *beta.unwrap_or_else(|e| e.into_inner()) += n;
    *alpha.unwrap_or_else(|e| e.into_inner()) -= n;
}
