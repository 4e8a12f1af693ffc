//! Cryptographic primitives for the NASD reproduction.
//!
//! The NASD security architecture (\[Gobioff97\], §4.1 of the paper) rests on
//! *keyed message digests*: capabilities carry a private field that is a MAC
//! of their public field under a drive secret, and every request carries a
//! digest keyed by that private field. The paper used DES-based constructions
//! (the hardware of the era); this reproduction uses HMAC-SHA-256, the
//! modern equivalent of the \[Bellare96\] keyed-hash construction the paper
//! cites.
//!
//! Everything here is implemented from the public specifications (FIPS 180-4
//! for SHA-256, RFC 2104 for HMAC) with no external dependencies, and tested
//! against the published test vectors.
//!
//! # Example
//!
//! ```
//! use nasd_crypto::{hmac_sha256, Sha256};
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest.to_hex()[..8], *"ba7816bf");
//!
//! let mac = hmac_sha256(b"key", b"message");
//! assert_eq!(mac.as_bytes().len(), 32);
//! ```

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
#![warn(missing_docs)]

mod hmac;
mod keys;
mod sha256;
pub mod stats;

pub use hmac::{hmac_sha256, HmacKey, HmacSha256};
pub use keys::{DriveKeys, KeyHierarchy, KeyKind, SecretKey};
pub use sha256::{Digest, Sha256};

/// Constant-time equality comparison of two byte strings.
///
/// Returns `true` only when `a` and `b` have equal length and contents.
/// The comparison examines every byte regardless of where the first
/// difference occurs, so the running time leaks only the length — the
/// property a NASD drive needs when verifying request digests from
/// untrusted clients.
///
/// # Example
///
/// ```
/// assert!(nasd_crypto::ct_eq(b"abc", b"abc"));
/// assert!(!nasd_crypto::ct_eq(b"abc", b"abd"));
/// assert!(!nasd_crypto::ct_eq(b"abc", b"ab"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_equal() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"nasd", b"nasd"));
    }

    #[test]
    fn ct_eq_unequal_content() {
        assert!(!ct_eq(b"nasd", b"nasx"));
        assert!(!ct_eq(b"aasd", b"nasd"));
    }

    #[test]
    fn ct_eq_unequal_length() {
        assert!(!ct_eq(b"nasd", b"nas"));
        assert!(!ct_eq(b"", b"n"));
    }
}
