//! Fixture: C1 violation. A replay module without its
//! `#![deny(clippy::cast_possible_truncation)]` line: clippy would no
//! longer hold its narrowing casts.

/// Encode a record count.
pub fn count(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}
