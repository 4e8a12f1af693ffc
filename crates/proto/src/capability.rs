//! Cryptographic capabilities (§4.1, Figure 5, \[Gobioff97\]).
//!
//! A capability has a **public** portion — "a description of what rights
//! are being granted for which object" — and a **private** portion, a keyed
//! digest of the public portion under one of the drive's working keys. The
//! file manager computes the private portion and hands both to the client
//! over a secure channel. The client proves possession by MACing each
//! request (and a nonce) with the private portion; the drive, knowing its
//! working keys, recomputes the private portion from the public fields it
//! received and verifies the request digest. Nothing is exchanged between
//! issuer (file manager) and validator (drive) beyond the capability
//! itself; the drive may remember capabilities it has already verified,
//! in a bounded cache that is soft (a miss only costs the recomputation)
//! and emptied by every key change.
//!
//! Every request MAC starts from an [`HmacKey`]: a minted [`Capability`]
//! carries the key schedule of its private field, so signing a request
//! costs no pad compressions.

use crate::ids::{ByteRange, DriveId, Nonce, ObjectId, PartitionId, Version};
use crate::rights::Rights;
use crate::wire::{DecodeError, WireDecode, WireEncode, WireReader, WireWriter};
use nasd_crypto::{Digest, HmacKey, KeyKind, SecretKey};
use std::fmt;

/// Minimum protection the issuer demands for requests under a capability.
///
/// Figure 5's security header "indicates key and security options to use
/// when handling request". Integrity of the arguments is always required;
/// data integrity and privacy cost per-byte cryptography (the paper's
/// prototype disabled them for lack of hardware support — our benches can
/// toggle them).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ProtectionLevel {
    /// MAC over request arguments only (the paper's measured mode).
    #[default]
    ArgsIntegrity,
    /// MAC over arguments and data payload.
    DataIntegrity,
    /// Arguments and data MACed and data encrypted.
    Privacy,
}

impl ProtectionLevel {
    fn to_byte(self) -> u8 {
        match self {
            ProtectionLevel::ArgsIntegrity => 0,
            ProtectionLevel::DataIntegrity => 1,
            ProtectionLevel::Privacy => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => ProtectionLevel::ArgsIntegrity,
            1 => ProtectionLevel::DataIntegrity,
            2 => ProtectionLevel::Privacy,
            _ => return None,
        })
    }
}

/// The public portion of a capability.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CapabilityPublic {
    /// Drive the capability is valid for.
    pub drive: DriveId,
    /// Partition holding the object.
    pub partition: PartitionId,
    /// Object the rights apply to.
    pub object: ObjectId,
    /// Approved logical version number; drive rejects if the object has
    /// been bumped past this (revocation).
    pub version: Version,
    /// Granted rights.
    pub rights: Rights,
    /// Accessible byte region of the object.
    pub region: ByteRange,
    /// Expiration time (drive clock, seconds). Requests after this fail.
    pub expires: u64,
    /// Which working key the private portion was minted under.
    pub key_kind: KeyKind,
    /// Minimum protection level for requests using this capability.
    pub min_protection: ProtectionLevel,
}

impl CapabilityPublic {
    /// The public portion every issuer in this stack grants: minted
    /// under the gold working key, demanding argument integrity only
    /// (the paper's measured mode).
    #[must_use]
    pub fn gold(
        drive: DriveId,
        partition: PartitionId,
        object: ObjectId,
        version: Version,
        rights: Rights,
        region: ByteRange,
        expires: u64,
    ) -> Self {
        CapabilityPublic {
            drive,
            partition,
            object,
            version,
            rights,
            region,
            expires,
            key_kind: KeyKind::Gold,
            min_protection: ProtectionLevel::ArgsIntegrity,
        }
    }

    /// Compute the private portion under `working_key`:
    /// `HMAC(working_key, encode(public))`.
    #[must_use]
    pub fn private_under(&self, working_key: &SecretKey) -> Digest {
        working_key.mac(&self.to_wire())
    }

    /// Mint a complete capability under `working_key` — the only way to
    /// make one. The capability keeps its private field's key schedule.
    #[must_use]
    pub fn mint(self, working_key: &SecretKey) -> Capability {
        let private = self.private_under(working_key);
        Capability {
            key: HmacKey::new(private.as_bytes()),
            public: self,
            private,
        }
    }
}

impl WireEncode for CapabilityPublic {
    fn encode(&self, w: &mut WireWriter) {
        self.drive.encode(w);
        self.partition.encode(w);
        self.object.encode(w);
        self.version.encode(w);
        self.rights.encode(w);
        self.region.encode(w);
        w.u64(self.expires);
        w.u8(self.key_kind.to_byte());
        w.u8(self.min_protection.to_byte());
    }
}

impl WireDecode for CapabilityPublic {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let drive = DriveId::decode(r)?;
        let partition = PartitionId::decode(r)?;
        let object = ObjectId::decode(r)?;
        let version = Version::decode(r)?;
        let rights = Rights::decode(r)?;
        let region = ByteRange::decode(r)?;
        let expires = r.u64()?;
        let kk = r.u8()?;
        let key_kind = KeyKind::from_byte(kk).ok_or(DecodeError::BadTag {
            context: "key kind",
            value: u64::from(kk),
        })?;
        let pl = r.u8()?;
        let min_protection = ProtectionLevel::from_byte(pl).ok_or(DecodeError::BadTag {
            context: "protection level",
            value: u64::from(pl),
        })?;
        Ok(CapabilityPublic {
            drive,
            partition,
            object,
            version,
            rights,
            region,
            expires,
            key_kind,
            min_protection,
        })
    }
}

/// A complete capability: public portion plus the private key material.
///
/// Held by clients; the private portion never crosses the wire in a request
/// (only digests keyed by it do).
#[derive(Clone, PartialEq, Eq)]
pub struct Capability {
    /// The public portion, sent with every request.
    pub public: CapabilityPublic,
    /// The private portion. Request digests are keyed by it through
    /// [`Capability::hmac_key`], its key schedule as of the mint.
    pub private: Digest,
    /// `private`'s key schedule, derived at mint.
    key: HmacKey,
}

impl Capability {
    /// The key schedule of the private field: what request digests under
    /// this capability are computed from.
    #[must_use]
    pub fn hmac_key(&self) -> &HmacKey {
        &self.key
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Redact the private portion.
        f.debug_struct("Capability")
            .field("public", &self.public)
            .field("private", &"<redacted>")
            .finish()
    }
}

/// MAC over a request's arguments, keyed by a capability's private field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestDigest(pub Digest);

impl RequestDigest {
    /// The request MAC of Figure 5: `HMAC(key, nonce || args [|| data])`.
    /// Data is covered when the protection level demands it. `key` is the
    /// schedule of a capability's private field, or of the drive /
    /// partition key for administrative requests.
    #[must_use]
    pub fn compute(
        key: &HmacKey,
        nonce: Nonce,
        args: &[u8],
        data: &[u8],
        protection: ProtectionLevel,
    ) -> Self {
        let mut mac = nasd_crypto::HmacSha256::keyed(key);
        // Identical bytes to `nonce.to_wire()` (two big-endian u64s),
        // absorbed from the stack so the hot path does not allocate.
        mac.update(&nonce.client.to_be_bytes());
        mac.update(&nonce.counter.to_be_bytes());
        mac.update(args);
        if protection >= ProtectionLevel::DataIntegrity {
            mac.update(data);
        }
        RequestDigest(mac.finalize())
    }

    /// Constant-time comparison with another digest.
    #[must_use]
    pub fn verify(&self, other: &RequestDigest) -> bool {
        nasd_crypto::ct_eq(self.0.as_ref(), other.0.as_ref())
    }
}

impl WireEncode for RequestDigest {
    fn encode(&self, w: &mut WireWriter) {
        w.raw(self.0.as_bytes());
    }
}

impl WireDecode for RequestDigest {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        // `raw(32)` guarantees the length; the fallback is a typed
        // error, not a panic, keeping the decode path panic-free.
        let arr = <[u8; 32]>::try_from(r.raw(32)?).map_err(|_| DecodeError::Truncated {
            needed: 32,
            remaining: r.remaining(),
        })?;
        Ok(RequestDigest(Digest::from(arr)))
    }
}

/// The security header of a request (Figure 5): which protections the
/// client applied and the anti-replay nonce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SecurityHeader {
    /// Protection level actually applied to this request.
    pub protection: ProtectionLevel,
    /// Anti-replay nonce.
    pub nonce: Nonce,
}

impl WireEncode for SecurityHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(self.protection.to_byte());
        self.nonce.encode(w);
    }
}

impl WireDecode for SecurityHeader {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let pl = r.u8()?;
        let protection = ProtectionLevel::from_byte(pl).ok_or(DecodeError::BadTag {
            context: "protection level",
            value: u64::from(pl),
        })?;
        let nonce = Nonce::decode(r)?;
        Ok(SecurityHeader { protection, nonce })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_public() -> CapabilityPublic {
        CapabilityPublic {
            drive: DriveId(1),
            partition: PartitionId(2),
            object: ObjectId(3),
            version: Version(4),
            rights: Rights::READ | Rights::GETATTR,
            region: ByteRange::new(0, 1 << 20),
            expires: 10_000,
            key_kind: KeyKind::Gold,
            min_protection: ProtectionLevel::ArgsIntegrity,
        }
    }

    #[test]
    fn public_wire_roundtrip() {
        let p = sample_public();
        assert_eq!(CapabilityPublic::from_wire(&p.to_wire()).unwrap(), p);
    }

    #[test]
    fn private_depends_on_every_field() {
        let key = SecretKey::from_bytes([5u8; 32]);
        let base = sample_public();
        let base_priv = base.private_under(&key);

        let mut alt = base.clone();
        alt.object = ObjectId(99);
        assert_ne!(alt.private_under(&key), base_priv);

        let mut alt = base.clone();
        alt.rights = Rights::ALL;
        assert_ne!(alt.private_under(&key), base_priv);

        let mut alt = base.clone();
        alt.version = Version(5);
        assert_ne!(alt.private_under(&key), base_priv);

        let mut alt = base.clone();
        alt.expires = 10_001;
        assert_ne!(alt.private_under(&key), base_priv);

        let mut alt = base;
        alt.region = ByteRange::new(0, 1 << 19);
        assert_ne!(alt.private_under(&key), base_priv);
    }

    #[test]
    fn private_depends_on_key() {
        let p = sample_public();
        let k1 = SecretKey::from_bytes([1u8; 32]);
        let k2 = SecretKey::from_bytes([2u8; 32]);
        assert_ne!(p.private_under(&k1), p.private_under(&k2));
    }

    /// A capability's request digest under its kept key schedule.
    fn sign(cap: &Capability, nonce: Nonce, args: &[u8]) -> RequestDigest {
        let protection = ProtectionLevel::ArgsIntegrity;
        RequestDigest::compute(cap.hmac_key(), nonce, args, &[], protection)
    }

    #[test]
    fn request_digest_changes_with_nonce_and_args() {
        let cap = sample_public().mint(&SecretKey::from_bytes([7u8; 32]));
        let d1 = sign(&cap, Nonce::new(1, 1), b"args");
        let d2 = sign(&cap, Nonce::new(1, 2), b"args");
        let d3 = sign(&cap, Nonce::new(1, 1), b"argz");
        assert!(!d1.verify(&d2));
        assert!(!d1.verify(&d3));
        assert!(d1.verify(&sign(&cap, Nonce::new(1, 1), b"args")));
    }

    #[test]
    fn minted_key_schedule_is_the_private_fields() {
        let cap = sample_public().mint(&SecretKey::from_bytes([7u8; 32]));
        assert_eq!(cap.hmac_key(), &HmacKey::new(cap.private.as_bytes()));
    }

    #[test]
    fn drive_can_recompute_private() {
        // The validator-side flow: drive receives the public portion,
        // recomputes the private field from its working key, and verifies
        // the request digest — no state from the file manager needed.
        let key = SecretKey::from_bytes([9u8; 32]);
        let cap = sample_public().mint(&key);
        let nonce = Nonce::new(3, 17);
        let digest = sign(&cap, nonce, b"read 0..4096");

        // Drive side:
        let recomputed = HmacKey::new(cap.public.private_under(&key).as_bytes());
        let protection = ProtectionLevel::ArgsIntegrity;
        let check = |args: &[u8]| RequestDigest::compute(&recomputed, nonce, args, &[], protection);
        assert!(digest.verify(&check(b"read 0..4096")));
        assert!(!digest.verify(&check(b"read 0..8192")));
    }

    #[test]
    fn security_header_roundtrip() {
        let h = SecurityHeader {
            protection: ProtectionLevel::DataIntegrity,
            nonce: Nonce::new(8, 21),
        };
        assert_eq!(SecurityHeader::from_wire(&h.to_wire()).unwrap(), h);
    }

    #[test]
    fn debug_redacts_private() {
        let cap = sample_public().mint(&SecretKey::from_bytes([7u8; 32]));
        assert!(format!("{cap:?}").contains("<redacted>"));
    }

    #[test]
    fn request_digest_roundtrip() {
        let cap = sample_public().mint(&SecretKey::from_bytes([7u8; 32]));
        let d = sign(&cap, Nonce::new(0, 0), b"x");
        assert_eq!(RequestDigest::from_wire(&d.to_wire()).unwrap(), d);
    }

    #[test]
    fn protection_levels_ordered() {
        assert!(ProtectionLevel::ArgsIntegrity < ProtectionLevel::DataIntegrity);
        assert!(ProtectionLevel::DataIntegrity < ProtectionLevel::Privacy);
    }
}
