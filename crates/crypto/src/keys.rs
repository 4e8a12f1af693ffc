//! The NASD four-level key hierarchy (\[Gobioff97\], §4.1).
//!
//! Keys are organized as:
//!
//! 1. **Master key** — held offline by the drive owner; used only to set
//!    the drive key (recovery path).
//! 2. **Drive key** — held by the drive administrator; manages partitions
//!    and sets partition keys.
//! 3. **Partition key** — held by the file manager owning a partition;
//!    used to set that partition's working keys.
//! 4. **Working keys** (two per partition, *gold* and *black*) — used in
//!    day-to-day capability construction. Two keys allow smooth rotation:
//!    new capabilities are minted under the newer key while outstanding
//!    capabilities under the other remain valid until it is replaced.
//!
//! Lower-numbered keys are used rarely; a compromise of a working key is
//! repaired by rotating it with the partition key, without touching other
//! partitions or the drive key. All child keys here are *derived* with
//! HMAC so tests are deterministic, but `SecretKey::random_from` supports
//! independently chosen keys as real deployments would use.

use crate::hmac::{hmac_sha256, HmacKey};
use std::fmt;

/// Which working key a capability was minted under.
///
/// The paper (via \[Gobioff97\]) gives each partition two working keys so the
/// file manager can rotate one while capabilities minted under the other
/// stay verifiable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyKind {
    /// The "gold" working key.
    Gold,
    /// The "black" working key.
    Black,
}

impl KeyKind {
    /// Stable one-byte encoding used in wire messages.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            KeyKind::Gold => 0,
            KeyKind::Black => 1,
        }
    }

    /// Decode from the wire byte.
    #[must_use]
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(KeyKind::Gold),
            1 => Some(KeyKind::Black),
            _ => None,
        }
    }
}

impl fmt::Display for KeyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyKind::Gold => f.write_str("gold"),
            KeyKind::Black => f.write_str("black"),
        }
    }
}

/// A 256-bit secret key, with its HMAC key schedule derived once.
///
/// `Debug` deliberately redacts the key material.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    bytes: [u8; 32],
    hmac: HmacKey,
}

impl SecretKey {
    /// Construct from raw bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        SecretKey {
            bytes,
            hmac: HmacKey::new(&bytes),
        }
    }

    /// Derive a child key as `HMAC(self, label)`.
    ///
    /// # Example
    ///
    /// ```
    /// use nasd_crypto::SecretKey;
    /// let master = SecretKey::from_bytes([7u8; 32]);
    /// let drive = master.derive(b"drive:42");
    /// assert_ne!(drive, master.derive(b"drive:43"));
    /// ```
    #[must_use]
    pub fn derive(&self, label: &[u8]) -> SecretKey {
        SecretKey::from_bytes(self.mac(label).into_bytes())
    }

    /// Derive a key from a seed and counter — a tiny deterministic PRF used
    /// where deployments would use an RNG.
    #[must_use]
    pub fn random_from(seed: &[u8], counter: u64) -> SecretKey {
        SecretKey::from_bytes(hmac_sha256(seed, &counter.to_be_bytes()).into_bytes())
    }

    /// View the raw key bytes. Needed by the MAC layer only.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// This key's HMAC key schedule: MACs started from it skip the two
    /// pad compressions.
    #[must_use]
    pub fn hmac_key(&self) -> &HmacKey {
        &self.hmac
    }

    /// MAC `message` under this key.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> crate::Digest {
        self.hmac.mac(message)
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

/// The working keys a drive holds for one partition.
#[derive(Clone, Debug)]
pub struct DriveKeys {
    /// Partition-level key (level 3).
    pub partition: SecretKey,
    /// Gold working key (level 4).
    pub gold: SecretKey,
    /// Black working key (level 4).
    pub black: SecretKey,
}

impl DriveKeys {
    /// Select a working key by kind.
    #[must_use]
    pub fn working(&self, kind: KeyKind) -> &SecretKey {
        match kind {
            KeyKind::Gold => &self.gold,
            KeyKind::Black => &self.black,
        }
    }

    /// Replace one working key (capability revocation en masse for that
    /// key's outstanding capabilities).
    pub fn set_working(&mut self, kind: KeyKind, key: SecretKey) {
        match kind {
            KeyKind::Gold => self.gold = key,
            KeyKind::Black => self.black = key,
        }
    }
}

/// A complete key hierarchy for one drive, as the *file manager / owner*
/// sees it. The drive itself stores only the per-partition [`DriveKeys`]
/// plus its drive key.
#[derive(Clone, Debug)]
pub struct KeyHierarchy {
    master: SecretKey,
    drive: SecretKey,
}

impl KeyHierarchy {
    /// Build the hierarchy for `drive_id` from a master key.
    #[must_use]
    pub fn new(master: SecretKey, drive_id: u64) -> Self {
        let drive = master.derive(format!("nasd:drive:{drive_id}").as_bytes());
        KeyHierarchy { master, drive }
    }

    /// The master key (level 1).
    #[must_use]
    pub fn master(&self) -> &SecretKey {
        &self.master
    }

    /// The drive key (level 2).
    #[must_use]
    pub fn drive(&self) -> &SecretKey {
        &self.drive
    }

    /// Derive the level-3/level-4 keys for a partition, at working-key
    /// generation `gen`. Bumping `gen` models working-key rotation.
    #[must_use]
    pub fn partition_keys(&self, partition_id: u16, gen: u64) -> DriveKeys {
        let partition = self.partition_key(partition_id);
        DriveKeys {
            gold: Self::work(&partition, KeyKind::Gold, gen),
            black: Self::work(&partition, KeyKind::Black, gen),
            partition,
        }
    }

    /// One working key of a partition at generation `gen` — the key
    /// [`Self::partition_keys`] would report for `kind`, without deriving
    /// the other one.
    #[must_use]
    pub fn working_key(&self, partition_id: u16, kind: KeyKind, gen: u64) -> SecretKey {
        Self::work(&self.partition_key(partition_id), kind, gen)
    }

    fn partition_key(&self, partition_id: u16) -> SecretKey {
        self.drive
            .derive(format!("nasd:part:{partition_id}").as_bytes())
    }

    fn work(partition: &SecretKey, kind: KeyKind, gen: u64) -> SecretKey {
        partition.derive(format!("nasd:work:{kind}:{gen}").as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> KeyHierarchy {
        KeyHierarchy::new(SecretKey::from_bytes([1u8; 32]), 7)
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = hierarchy().partition_keys(3, 0);
        let b = hierarchy().partition_keys(3, 0);
        assert_eq!(a.gold, b.gold);
        assert_eq!(a.black, b.black);
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn partitions_are_isolated() {
        let h = hierarchy();
        let p3 = h.partition_keys(3, 0);
        let p4 = h.partition_keys(4, 0);
        assert_ne!(p3.partition, p4.partition);
        assert_ne!(p3.gold, p4.gold);
        assert_ne!(p3.black, p4.black);
    }

    #[test]
    fn rotation_changes_working_keys_only() {
        let h = hierarchy();
        let g0 = h.partition_keys(3, 0);
        let g1 = h.partition_keys(3, 1);
        assert_eq!(g0.partition, g1.partition);
        assert_ne!(g0.gold, g1.gold);
        assert_ne!(g0.black, g1.black);
    }

    #[test]
    fn working_key_is_the_partition_keys_one() {
        let h = hierarchy();
        let keys = h.partition_keys(3, 2);
        assert_eq!(h.working_key(3, KeyKind::Gold, 2), keys.gold);
        assert_eq!(h.working_key(3, KeyKind::Black, 2), keys.black);
        // The derivation labels are part of the key schedule: pinned.
        let partition = h.drive().derive(b"nasd:part:3");
        assert_eq!(keys.partition, partition);
        assert_eq!(keys.gold, partition.derive(b"nasd:work:gold:2"));
        assert_eq!(keys.black, partition.derive(b"nasd:work:black:2"));
    }

    #[test]
    fn gold_and_black_differ() {
        let keys = hierarchy().partition_keys(0, 0);
        assert_ne!(keys.gold, keys.black);
        assert_eq!(keys.working(KeyKind::Gold), &keys.gold);
        assert_eq!(keys.working(KeyKind::Black), &keys.black);
    }

    #[test]
    fn drives_are_isolated() {
        let master = SecretKey::from_bytes([1u8; 32]);
        let d7 = KeyHierarchy::new(master.clone(), 7);
        let d8 = KeyHierarchy::new(master, 8);
        assert_ne!(d7.drive(), d8.drive());
        assert_eq!(d7.master(), d8.master());
    }

    #[test]
    fn set_working_replaces_key() {
        let mut keys = hierarchy().partition_keys(1, 0);
        let new = SecretKey::random_from(b"seed", 1);
        keys.set_working(KeyKind::Black, new.clone());
        assert_eq!(keys.working(KeyKind::Black), &new);
        assert_ne!(keys.working(KeyKind::Gold), &new);
    }

    #[test]
    fn key_kind_wire_roundtrip() {
        for kind in [KeyKind::Gold, KeyKind::Black] {
            assert_eq!(KeyKind::from_byte(kind.to_byte()), Some(kind));
        }
        assert_eq!(KeyKind::from_byte(9), None);
    }

    #[test]
    fn debug_redacts() {
        let k = SecretKey::from_bytes([9u8; 32]);
        assert!(!format!("{k:?}").contains('9'));
    }

    #[test]
    fn mac_is_hmac() {
        let k = SecretKey::from_bytes([2u8; 32]);
        assert_eq!(k.mac(b"m"), crate::hmac_sha256(k.as_bytes(), b"m"));
    }
}
