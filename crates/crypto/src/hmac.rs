//! HMAC-SHA-256 per RFC 2104 / FIPS 198-1.

use crate::sha256::{Digest, Sha256};
use std::fmt;

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// An HMAC-SHA-256 key schedule: the SHA-256 midstates after the ipad
/// and opad blocks of one key.
///
/// Deriving it costs the two pad compressions; every MAC started from it
/// ([`HmacSha256::keyed`]) skips them, so a MAC of a message that fits
/// one block is 2 compressions instead of 4. NASD keeps one per key it
/// uses repeatedly: each working and administrative key, each minted
/// capability's private field, and each capability a drive has verified.
///
/// `Debug` redacts the midstates: they are key material.
///
/// # Example
///
/// ```
/// use nasd_crypto::{hmac_sha256, HmacKey, HmacSha256};
///
/// let key = HmacKey::new(b"drive-secret");
/// let mut mac = HmacSha256::keyed(&key);
/// mac.update(b"request");
/// assert_eq!(mac.finalize(), hmac_sha256(b"drive-secret", b"request"));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Derive the key schedule for `key`.
    ///
    /// Keys longer than the 64-byte SHA-256 block are first hashed, per
    /// RFC 2104.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "RFC 2104 fixed-block math: every index is bounded by the BLOCK and digest-size constants"
    )]
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(Sha256::digest(key).as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK];
        let mut opad = [0u8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] = k[i] ^ IPAD;
            opad[i] = k[i] ^ OPAD;
        }
        HmacKey {
            inner: Sha256::block_midstate(&ipad),
            outer: Sha256::block_midstate(&opad),
        }
    }

    /// MAC `message` under this key.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> Digest {
        let mut mac = HmacSha256::keyed(self);
        mac.update(message);
        mac.finalize()
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HmacKey(<redacted>)")
    }
}

/// Incremental HMAC-SHA-256.
///
/// NASD uses this construction in two places: the file manager MACs a
/// capability's public field to form its private field, and clients MAC each
/// request (keyed by the private field) to prove possession.
///
/// # Example
///
/// ```
/// use nasd_crypto::{hmac_sha256, HmacSha256};
///
/// let mut mac = HmacSha256::new(b"drive-secret");
/// mac.update(b"capability ");
/// mac.update(b"public field");
/// assert_eq!(mac.finalize(), hmac_sha256(b"drive-secret", b"capability public field"));
/// ```
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    /// The opad midstate; the outer hash starts from it at finalize.
    outer: [u32; 8],
}

impl HmacSha256 {
    /// Create an HMAC context for `key`: derive its [`HmacKey`] and start
    /// from it.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        Self::keyed(&HmacKey::new(key))
    }

    /// Start a MAC from a derived key schedule — no compressions.
    #[must_use]
    pub fn keyed(key: &HmacKey) -> Self {
        HmacSha256 {
            inner: Sha256::resume(key.inner, BLOCK as u64),
            outer: key.outer,
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and produce the MAC.
    #[must_use]
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::resume(self.outer, BLOCK as u64);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256 of `message` under `key`.
///
/// # Example
///
/// ```
/// let mac = nasd_crypto::hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert!(mac.to_hex().starts_with("f7bc83f4"));
/// ```
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            mac.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            mac.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            mac.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (1..=25u8).collect();
        let data = [0xcdu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            mac.to_hex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    /// RFC 4231 case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            mac.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// RFC 4231 case 7: long key and long data.
    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = [0xaau8; 131];
        let data: &[u8] = b"This is a test using a larger than block-size key and a larger than \
block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let mac = hmac_sha256(&key, data);
        assert_eq!(
            mac.to_hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"0123456789abcdef";
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut mac = HmacSha256::new(key);
        for c in data.chunks(37) {
            mac.update(c);
        }
        assert_eq!(mac.finalize(), hmac_sha256(key, &data));
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn exactly_block_sized_key() {
        let key = [0x42u8; 64];
        // A 64-byte key is used as-is (not hashed): check against a key
        // padded with zeros, which must produce the same MAC.
        let mut padded = [0u8; 64];
        padded.copy_from_slice(&key);
        assert_eq!(hmac_sha256(&key, b"msg"), hmac_sha256(&padded, b"msg"));
        // And a 65-byte key is hashed first, producing a different MAC from
        // its 64-byte prefix.
        let long = [0x42u8; 65];
        assert_ne!(hmac_sha256(&long, b"msg"), hmac_sha256(&key, b"msg"));
    }
}
