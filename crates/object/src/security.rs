//! Drive-side security: request authorization and replay defense.
//!
//! The drive holds only its keys (§4.1): "because the drive knows its
//! keys, receives the public fields of a capability with each request, and
//! knows the current version number of the object, it can compute the
//! client's private field... If any field has been changed, including the
//! object version number, the access fails and the client is sent back to
//! the file manager." No per-capability state is stored.
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

use nasd_crypto::{DriveKeys, KeyKind, SecretKey};
use nasd_proto::wire::WireEncode;
use nasd_proto::{
    Authority, DriveId, NasdStatus, ObjectAttributes, PartitionId, Request, RequestDigest, Version,
};
use std::collections::HashMap;

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
            replay: HashMap::new(),
            enabled,
        }
    }

    /// Install the key set for a partition (done over the administrative
    /// channel when the partition is created).
    pub fn install_partition_keys(&mut self, p: PartitionId, keys: DriveKeys) {
        self.partition_keys.insert(p, keys);
    }

    /// Remove a partition's keys.
    pub fn remove_partition_keys(&mut self, p: PartitionId) {
        self.partition_keys.remove(&p);
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
        let private;
        let key: &[u8] = match (authority, &req.capability) {
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
                // Recompute the private field the client signed with.
                let working = self
                    .working_key(cap.partition, cap.key_kind)
                    .ok_or(NasdStatus::NoSuchPartition)?;
                private = cap.private_under(working);
                private.as_bytes()
            }
            (Authority::Capability { .. }, None) => return Err(NasdStatus::AccessDenied),
            (Authority::DriveKey | Authority::PartitionKey, Some(_)) => {
                return Err(NasdStatus::BadRequest)
            }
            (Authority::DriveKey, None) => self.drive_key.as_bytes(),
            (Authority::PartitionKey, None) => self
                .partition_keys
                .get(&req.body.partition())
                .ok_or(NasdStatus::NoSuchPartition)?
                .partition
                .as_bytes(),
        };
        let expected = RequestDigest::compute(
            key,
            req.header.nonce,
            &req.body.to_wire(),
            &req.data,
            req.header.protection,
        );
        if !expected.verify(&req.digest) {
            return Err(NasdStatus::AccessDenied);
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
