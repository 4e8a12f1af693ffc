//! Property tests for the cryptographic primitives.

use nasd_crypto::{ct_eq, hmac_sha256, HmacKey, HmacSha256, SecretKey, Sha256};
use proptest::prelude::*;

proptest! {
    /// Incremental hashing over any chunking equals the one-shot digest.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        splits in proptest::collection::vec(0usize..4096, 0..8),
    ) {
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for c in cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Same split-independence for HMAC.
    #[test]
    fn hmac_incremental_equals_oneshot(
        key in proptest::collection::vec(any::<u8>(), 0..128),
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        cut in 0usize..2048,
    ) {
        let cut = cut % (data.len() + 1);
        let mut m = HmacSha256::new(&key);
        m.update(&data[..cut]);
        m.update(&data[cut..]);
        prop_assert_eq!(m.finalize(), hmac_sha256(&key, &data));
    }

    /// A MAC started from a kept key schedule equals the one-shot HMAC,
    /// for keys on both sides of the 64-byte block (longer ones are
    /// hashed first) and however the message is split; a schedule is
    /// reusable, and a key's own schedule is the one it MACs with.
    #[test]
    fn keyed_context_equals_oneshot(
        key in proptest::collection::vec(any::<u8>(), 0..201),
        data in proptest::collection::vec(any::<u8>(), 0..512),
        other in proptest::collection::vec(any::<u8>(), 0..128),
        cut in 0usize..512,
        secret: [u8; 32],
    ) {
        let schedule = HmacKey::new(&key);
        let cut = cut % (data.len() + 1);
        let mut m = HmacSha256::keyed(&schedule);
        m.update(&data[..cut]);
        m.update(&data[cut..]);
        prop_assert_eq!(m.finalize(), hmac_sha256(&key, &data));
        prop_assert_eq!(schedule.mac(&other), hmac_sha256(&key, &other));
        prop_assert_eq!(schedule.mac(&data), hmac_sha256(&key, &data));
        let secret_key = SecretKey::from_bytes(secret);
        prop_assert_eq!(secret_key.hmac_key(), &HmacKey::new(&secret));
        prop_assert_eq!(secret_key.mac(&data), hmac_sha256(&secret, &data));
    }

    /// A single flipped bit anywhere in the message changes the digest
    /// (collision resistance smoke test).
    #[test]
    fn sha256_bit_flip_changes_digest(
        mut data in proptest::collection::vec(any::<u8>(), 1..512),
        pos in 0usize..512,
        bit in 0u8..8,
    ) {
        let pos = pos % data.len();
        let original = Sha256::digest(&data);
        data[pos] ^= 1 << bit;
        prop_assert_ne!(Sha256::digest(&data), original);
    }

    /// Constant-time equality agrees with ordinary equality.
    #[test]
    fn ct_eq_agrees_with_eq(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        b in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
        prop_assert!(ct_eq(&a, &a));
    }

    /// Key derivation is injective across labels (no observed collisions)
    /// and deterministic.
    #[test]
    fn derivation_deterministic_and_label_sensitive(
        seed: [u8; 32],
        label_a in proptest::collection::vec(any::<u8>(), 1..32),
        label_b in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let k = SecretKey::from_bytes(seed);
        prop_assert_eq!(k.derive(&label_a), k.derive(&label_a));
        if label_a != label_b {
            prop_assert_ne!(k.derive(&label_a), k.derive(&label_b));
        }
    }
}
