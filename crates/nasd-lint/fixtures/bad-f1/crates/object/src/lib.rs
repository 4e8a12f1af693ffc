//! Fixture: F1 violation. A request-path crate root whose deny line has
//! lost `clippy::indexing_slicing` — nasd-lint must report F1, since
//! clippy would no longer hold bare indexing in this crate.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]
