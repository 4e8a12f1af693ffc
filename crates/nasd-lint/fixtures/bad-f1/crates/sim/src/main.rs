//! Fixture: F1 violation. A request-path crate's binary root without the
//! deny line — its code would be outside clippy's panic-freedom rule.

fn main() {}
