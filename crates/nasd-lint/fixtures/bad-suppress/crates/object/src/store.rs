//! Fixture: S0 violation. A suppression with no reason string — the
//! hot-path-copy finding itself is suppressed, but nasd-lint must report
//! S0 for the reasonless allow and exit nonzero.

/// Copies a block out but does not justify why.
pub fn read_flat(view: &[u8]) -> Vec<u8> {
    // nasd-lint: allow(hot-path-copy)
    view.to_vec()
}
