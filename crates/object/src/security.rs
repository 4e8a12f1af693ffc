//! Drive-side security: request authorization and replay defense.
//!
//! The drive holds only its keys (§4.1): "because the drive knows its
//! keys, receives the public fields of a capability with each request, and
//! knows the current version number of the object, it can compute the
//! client's private field... If any field has been changed, including the
//! object version number, the access fails and the client is sent back to
//! the file manager." Nothing per capability is exchanged with the file
//! manager. The drive does remember capabilities it has verified: a
//! bounded, soft cache from a capability's public portion to its private
//! field's key schedule, which spares a warm request the recomputation
//! (one HMAC). Every structural check still runs on every request; an
//! entry goes in only after a request under it has verified; installing,
//! removing or rotating any key empties the cache, so a revocation by
//! version bump or key rotation takes effect exactly as without it.
//!
//! *What* a request needs is declared once, in `nasd-proto`
//! ([`RequestBody::authority`]: a capability with these rights over this
//! object or partition and this byte span, or the drive key, or the
//! partition key); [`DriveSecurity::authorize`] is the one place that
//! declaration is enforced. The keys themselves are drive state: the
//! drive re-derives them from its hierarchy at mount and overlays the
//! working keys `SetKey` has rotated, which the object store keeps
//! durable.
//!
//! [`RequestBody::authority`]: nasd_proto::RequestBody::authority

use nasd_crypto::{DriveKeys, HmacKey, KeyKind, SecretKey};
use nasd_proto::wire::WireEncode;
use nasd_proto::{
    Authority, CapabilityPublic, DriveId, NasdStatus, ObjectAttributes, PartitionId, Request,
    RequestDigest, Version,
};
use std::collections::HashMap;

/// Most verified capabilities a drive remembers: as many as one client
/// may hold (the file manager's `CAP_CACHE_CAPACITY`), so a control
/// path's working set — each object's manager capability plus its read
/// and write grants — stays resident. A capability verified while the
/// cache is full empties it first.
const VERIFIED_CAPACITY: usize = 4096;

/// Anti-replay window for one client, IPsec-style: a high-water counter
/// plus a 64-entry bitmap for bounded reordering.
#[derive(Debug, Clone, Default)]
pub struct ReplayWindow {
    highest: u64,
    /// Bit `i` set means counter `highest - i` has been seen (bit 0 =
    /// `highest` itself).
    mask: u64,
}

impl ReplayWindow {
    /// Window width in sequence numbers.
    pub const WIDTH: u64 = 64;

    /// Accept or reject `counter`, recording it if accepted.
    pub fn accept(&mut self, counter: u64) -> bool {
        if counter == 0 {
            // Counter 0 is reserved so a fresh window (highest = 0,
            // mask = 0) never confuses "nothing seen" with "0 seen".
            return false;
        }
        if counter > self.highest {
            let shift = counter - self.highest;
            self.mask = if shift >= 64 { 0 } else { self.mask << shift };
            self.mask |= 1;
            self.highest = counter;
            return true;
        }
        let age = self.highest - counter;
        if age >= Self::WIDTH {
            return false;
        }
        let bit = 1u64 << age;
        if self.mask & bit != 0 {
            return false;
        }
        self.mask |= bit;
        true
    }
}

/// The security state of one NASD drive.
#[derive(Debug)]
pub struct DriveSecurity {
    drive_id: DriveId,
    drive_key: SecretKey,
    partition_keys: HashMap<PartitionId, DriveKeys>,
    /// Capabilities whose requests verified, each with its private
    /// field's key schedule; see the module docs.
    verified: HashMap<CapabilityPublic, HmacKey>,
    replay: HashMap<u64, ReplayWindow>,
    enabled: bool,
}

impl DriveSecurity {
    /// Create security state for `drive_id` holding `drive_key` (the
    /// level-2 key authorizing partition administration). `enabled =
    /// false` reproduces the paper's measurement configuration ("we
    /// disabled these security protocols because our prototype does not
    /// currently support such hardware"); the functional stack runs with
    /// it on.
    #[must_use]
    pub fn new(drive_id: DriveId, drive_key: SecretKey, enabled: bool) -> Self {
        DriveSecurity {
            drive_id,
            drive_key,
            partition_keys: HashMap::new(),
            verified: HashMap::new(),
            replay: HashMap::new(),
            enabled,
        }
    }

    /// Install the key set for a partition (done over the administrative
    /// channel when the partition is created).
    pub fn install_partition_keys(&mut self, p: PartitionId, keys: DriveKeys) {
        self.partition_keys.insert(p, keys);
        self.verified.clear();
    }

    /// Remove a partition's keys.
    pub fn remove_partition_keys(&mut self, p: PartitionId) {
        self.partition_keys.remove(&p);
        self.verified.clear();
    }

    /// The working key for (partition, kind), if the partition is known.
    #[must_use]
    pub fn working_key(&self, p: PartitionId, kind: KeyKind) -> Option<&SecretKey> {
        self.partition_keys.get(&p).map(|k| k.working(kind))
    }

    /// Replace a working key (the `SetKey` operation): mass-revokes every
    /// capability minted under the old key.
    ///
    /// # Errors
    ///
    /// [`NasdStatus::NoSuchPartition`] when no keys are installed for `p`.
    pub fn set_working_key(
        &mut self,
        p: PartitionId,
        kind: KeyKind,
        key: SecretKey,
    ) -> Result<(), NasdStatus> {
        let keys = self
            .partition_keys
            .get_mut(&p)
            .ok_or(NasdStatus::NoSuchPartition)?;
        keys.set_working(kind, key);
        self.verified.clear();
        Ok(())
    }

    /// Authorize one request against its row of the authority table
    /// ([`RequestBody::authority`]) — the only entry point. `object` is
    /// the addressed object's attributes as they stand (its version and
    /// end of data are what the capability is checked against); `None`
    /// for partition-scoped and key-authorized requests and for objects
    /// the drive synthesizes, which are all version 0.
    ///
    /// The order is structural checks (cheap) → request digest → replay
    /// window, so only genuine requests consume nonces.
    ///
    /// # Errors
    ///
    /// The [`NasdStatus`] to return to the client. Security failures are
    /// deliberately coarse-grained (`AccessDenied`), except replay and
    /// region violations.
    ///
    /// [`RequestBody::authority`]: nasd_proto::RequestBody::authority
    pub fn authorize(
        &mut self,
        req: &Request,
        authority: Authority,
        object: Option<&ObjectAttributes>,
        now: u64,
    ) -> Result<(), NasdStatus> {
        if !self.enabled {
            return Ok(());
        }
        // A capability this request is the first to prove, and its key
        // schedule: remembered once the digest verifies.
        let mut fresh = None;
        let key: &HmacKey = match (authority, &req.capability) {
            (
                Authority::Capability {
                    rights,
                    scope,
                    span,
                },
                Some(cap),
            ) => {
                let version = object.map_or(Version(0), |attrs| attrs.version);
                if cap.drive != self.drive_id
                    || cap.partition != req.body.partition()
                    || cap.object != scope.capability_object()
                    || req.header.protection < cap.min_protection
                    || cap.expires < now
                    // Version bump = revocation (§4.1).
                    || cap.version != version
                    || !cap.rights.allows(rights)
                {
                    return Err(NasdStatus::AccessDenied);
                }
                let end_of_data = object.map_or(0, |attrs| attrs.size);
                if let Some((offset, len)) = span.resolve(end_of_data) {
                    if !cap.region.contains_range(offset, len) {
                        return Err(NasdStatus::RangeViolation);
                    }
                }
                if let Some(key) = self.verified.get(cap) {
                    key
                } else {
                    // Recompute the private field the client signed with.
                    let working = self
                        .working_key(cap.partition, cap.key_kind)
                        .ok_or(NasdStatus::NoSuchPartition)?;
                    let private = cap.private_under(working);
                    &fresh.insert((cap, HmacKey::new(private.as_bytes()))).1
                }
            }
            (Authority::Capability { .. }, None) => return Err(NasdStatus::AccessDenied),
            (Authority::DriveKey | Authority::PartitionKey, Some(_)) => {
                return Err(NasdStatus::BadRequest)
            }
            (Authority::DriveKey, None) => self.drive_key.hmac_key(),
            (Authority::PartitionKey, None) => self
                .partition_keys
                .get(&req.body.partition())
                .ok_or(NasdStatus::NoSuchPartition)?
                .partition
                .hmac_key(),
        };
        let expected = req.body.with_wire(|args| {
            RequestDigest::compute(
                key,
                req.header.nonce,
                args,
                &req.data,
                req.header.protection,
            )
        });
        if !expected.verify(&req.digest) {
            return Err(NasdStatus::AccessDenied);
        }
        if let Some((cap, key)) = fresh {
            if self.verified.len() >= VERIFIED_CAPACITY {
                self.verified.clear();
            }
            self.verified.insert(cap.clone(), key);
        }
        let window = self.replay.entry(req.header.nonce.client).or_default();
        if !window.accept(req.header.nonce.counter) {
            return Err(NasdStatus::Replay);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nasd_crypto::{Digest, KeyHierarchy};
    use nasd_proto::{
        ByteRange, Capability, Nonce, ObjectId, ProtectionLevel, RequestBody, Rights,
    };

    impl DriveSecurity {
        /// How many verified capabilities the drive remembers.
        pub(crate) fn verified_len(&self) -> usize {
            self.verified.len()
        }
    }

    const P: PartitionId = PartitionId(1);

    fn hierarchy() -> KeyHierarchy {
        KeyHierarchy::new(SecretKey::from_bytes([3u8; 32]), 1)
    }

    fn security() -> DriveSecurity {
        let h = hierarchy();
        let mut s = DriveSecurity::new(DriveId(1), h.drive().clone(), true);
        s.install_partition_keys(P, h.partition_keys(P.0, 0));
        s
    }

    fn read_cap(object: u64) -> Capability {
        let gold = hierarchy().partition_keys(P.0, 0).gold;
        CapabilityPublic::gold(
            DriveId(1),
            P,
            ObjectId(object),
            Version(0),
            Rights::READ,
            ByteRange::FULL,
            100,
        )
        .mint(&gold)
    }

    /// A read of `public`'s object signed under `key` with nonce `counter`.
    fn read(key: &HmacKey, public: &CapabilityPublic, counter: u64) -> Request {
        let body = RequestBody::Read {
            partition: P,
            object: public.object,
            offset: 0,
            len: 8,
        };
        let protection = ProtectionLevel::ArgsIntegrity;
        let nonce = Nonce::new(5, counter);
        Request::signed_by(
            key,
            Some(public.clone()),
            protection,
            nonce,
            body,
            Bytes::new(),
        )
    }

    /// A read signed by `cap`'s holder.
    fn genuine(cap: &Capability, counter: u64) -> Request {
        read(cap.hmac_key(), &cap.public, counter)
    }

    /// Authorize `req` against an object at `version`.
    fn check(s: &mut DriveSecurity, req: &Request, version: u64) -> Result<(), NasdStatus> {
        let attrs = ObjectAttributes {
            version: Version(version),
            ..ObjectAttributes::default()
        };
        s.authorize(req, req.body.authority(), Some(&attrs), 0)
    }

    #[test]
    fn forged_digest_under_a_cached_capability_is_refused() {
        let mut s = security();
        let cap = read_cap(7);
        assert_eq!(check(&mut s, &genuine(&cap, 1), 0), Ok(()));
        assert_eq!(s.verified_len(), 1);

        let mut forged = genuine(&cap, 2);
        forged.digest = RequestDigest(Digest::from([0u8; 32]));
        assert_eq!(check(&mut s, &forged, 0), Err(NasdStatus::AccessDenied));
        let guessed = read(&HmacKey::new(b"a guessed private field"), &cap.public, 2);
        assert_eq!(check(&mut s, &guessed, 0), Err(NasdStatus::AccessDenied));
        // Neither forgery consumed the nonce the genuine holder uses next.
        assert_eq!(check(&mut s, &genuine(&cap, 2), 0), Ok(()));
    }

    #[test]
    fn forged_request_under_an_uncached_capability_leaves_no_entry() {
        let mut s = security();
        let cap = read_cap(7);
        let guessed = read(&HmacKey::new(b"a guessed private field"), &cap.public, 1);
        assert_eq!(check(&mut s, &guessed, 0), Err(NasdStatus::AccessDenied));
        // A genuine private field under an edited public portion.
        let mut widened = cap.public.clone();
        widened.object = ObjectId(8);
        let edited = read(cap.hmac_key(), &widened, 2);
        assert_eq!(check(&mut s, &edited, 0), Err(NasdStatus::AccessDenied));
        assert_eq!(s.verified_len(), 0);
    }

    #[test]
    fn version_bump_revokes_a_cached_capability() {
        let mut s = security();
        let cap = read_cap(7);
        assert_eq!(check(&mut s, &genuine(&cap, 1), 0), Ok(()));
        assert_eq!(s.verified_len(), 1);
        let again = genuine(&cap, 2);
        assert_eq!(check(&mut s, &again, 1), Err(NasdStatus::AccessDenied));
    }

    #[test]
    fn every_key_change_empties_the_cache() {
        let mut s = security();
        let warm = |s: &mut DriveSecurity, counter| {
            let cap = read_cap(7);
            assert_eq!(check(s, &genuine(&cap, counter), 0), Ok(()));
            assert_eq!(s.verified_len(), 1);
        };
        warm(&mut s, 1);
        let rotated = SecretKey::random_from(b"rotation", 1);
        s.set_working_key(P, KeyKind::Black, rotated).unwrap();
        assert_eq!(s.verified_len(), 0);
        warm(&mut s, 2);
        s.install_partition_keys(PartitionId(2), hierarchy().partition_keys(2, 0));
        assert_eq!(s.verified_len(), 0);
        warm(&mut s, 3);
        s.remove_partition_keys(PartitionId(2));
        assert_eq!(s.verified_len(), 0);
    }

    #[test]
    fn cache_never_exceeds_its_capacity() {
        let mut s = security();
        for i in 0..VERIFIED_CAPACITY as u64 + 100 {
            let cap = read_cap(100 + i);
            assert_eq!(check(&mut s, &genuine(&cap, i + 1), 0), Ok(()));
            assert!(s.verified_len() <= VERIFIED_CAPACITY);
        }
        assert!(s.verified_len() >= 1);
    }

    /// The verified cache holds a control path's working set: cycled
    /// twice through `VERIFIED_CAPACITY - 1` capabilities, the second
    /// pass recomputes no private field — each request costs only its
    /// digest's 2 compressions. The set is never smaller than what a
    /// `meta_mix` drive cycles: 512 objects, each under the manager's
    /// own capability and a read and a write grant.
    #[test]
    fn the_verified_cache_holds_its_working_set() {
        const CONTROL_PATH_WORKING_SET: usize = 512 * 3;
        let n = (VERIFIED_CAPACITY - 1).max(CONTROL_PATH_WORKING_SET);
        let mut s = security();
        let caps: Vec<Capability> = (0..n as u64).map(read_cap).collect();
        let mut counter = 0;
        for pass in 0..2 {
            let requests: Vec<Request> = caps
                .iter()
                .map(|cap| {
                    counter += 1;
                    genuine(cap, counter)
                })
                .collect();
            let before = nasd_crypto::stats::compressions();
            for req in &requests {
                assert_eq!(check(&mut s, req, 0), Ok(()));
            }
            let spent = nasd_crypto::stats::compressions() - before;
            if pass == 1 {
                assert_eq!(
                    spent,
                    2 * requests.len() as u64,
                    "a private field was recomputed"
                );
            }
        }
        assert_eq!(s.verified_len(), caps.len());
    }

    #[test]
    fn replay_window_monotone_accepts() {
        let mut w = ReplayWindow::default();
        for c in 1..100u64 {
            assert!(w.accept(c), "fresh counter {c}");
        }
    }

    #[test]
    fn replay_window_rejects_duplicates() {
        let mut w = ReplayWindow::default();
        assert!(w.accept(5));
        assert!(!w.accept(5));
        assert!(w.accept(7));
        assert!(!w.accept(7));
        assert!(!w.accept(5));
    }

    #[test]
    fn replay_window_allows_bounded_reordering() {
        let mut w = ReplayWindow::default();
        assert!(w.accept(100));
        assert!(w.accept(70), "within the 64-wide window");
        assert!(!w.accept(70), "but only once");
        assert!(!w.accept(36), "too old (100 - 36 >= 64)");
        assert!(w.accept(37), "exactly at the window edge");
    }

    #[test]
    fn replay_window_rejects_zero() {
        let mut w = ReplayWindow::default();
        assert!(!w.accept(0));
    }

    #[test]
    fn replay_window_big_jump_clears_mask() {
        let mut w = ReplayWindow::default();
        assert!(w.accept(1));
        assert!(w.accept(1000));
        assert!(!w.accept(1));
        assert!(w.accept(999));
    }
}
