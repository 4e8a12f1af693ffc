//! Per-thread SHA-256 work accounting.
//!
//! Every compression of a 64-byte block ([`Sha256`](crate::Sha256)
//! and, through it, every HMAC) is counted here, so the perf harness can
//! report how much MAC work a request costs. An in-process drive serves
//! its call on the caller's thread, so the count includes the drive's
//! verification. Counters are thread-local: parallel test threads never
//! see each other's work.
//!
//! # Example
//!
//! ```
//! use nasd_crypto::{hmac_sha256, stats};
//!
//! let before = stats::compressions();
//! let _ = hmac_sha256(b"key", b"one block");
//! // Two pad blocks, the inner message block, the outer digest block.
//! assert_eq!(stats::compressions() - before, 4);
//! ```

use std::cell::Cell;

thread_local! {
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one block compression on this thread.
pub(crate) fn record_compression() {
    COMPRESSIONS.with(|c| c.set(c.get() + 1));
}

/// SHA-256 block compressions on this thread since the last [`reset`].
#[must_use]
pub fn compressions() -> u64 {
    COMPRESSIONS.with(Cell::get)
}

/// Zero this thread's count.
pub fn reset() {
    COMPRESSIONS.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HmacKey, Sha256};

    #[test]
    fn counts_every_block_and_resets() {
        reset();
        let _ = Sha256::digest(&[0u8; 55]);
        assert_eq!(compressions(), 1, "55 bytes pad into one block");
        let _ = Sha256::digest(&[0u8; 56]);
        assert_eq!(compressions(), 3, "56 bytes spill the length block");
        let key = HmacKey::new(b"k");
        assert_eq!(compressions(), 5, "a key schedule is the two pads");
        let _ = key.mac(b"m");
        assert_eq!(compressions(), 7, "a kept schedule MACs in two");
        reset();
        assert_eq!(compressions(), 0);
    }
}
