//! Drive-side security: capability verification and replay defense.
//!
//! The drive holds only its keys (§4.1): "because the drive knows its
//! keys, receives the public fields of a capability with each request, and
//! knows the current version number of the object, it can compute the
//! client's private field... If any field has been changed, including the
//! object version number, the access fails and the client is sent back to
//! the file manager." No per-capability state is stored.

use nasd_crypto::{DriveKeys, KeyKind, SecretKey};
use nasd_proto::wire::WireEncode;
use nasd_proto::{DriveId, NasdStatus, PartitionId, Request, RequestDigest, Rights, Version};
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

    /// Whether verification is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
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

    /// The tail every verifier shares: recompute the digest under `key`,
    /// then consult the replay window — last, so only genuine requests
    /// consume nonces.
    fn digest_then_replay(
        replay: &mut HashMap<u64, ReplayWindow>,
        key: &[u8],
        req: &Request,
    ) -> Result<(), NasdStatus> {
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
        let window = replay.entry(req.header.nonce.client).or_default();
        if !window.accept(req.header.nonce.counter) {
            return Err(NasdStatus::Replay);
        }
        Ok(())
    }

    /// Verify a capability-authorized request.
    ///
    /// `required` is the rights the operation needs; `object_version` is
    /// the object's current logical version (pass `Version(0)` for
    /// operations on not-yet-existing objects such as `Create`);
    /// `region_check` is the byte range the operation touches, if any.
    ///
    /// # Errors
    ///
    /// The [`NasdStatus`] to return to the client. Security failures are
    /// deliberately coarse-grained (`AccessDenied`), except replay.
    pub fn verify(
        &mut self,
        req: &Request,
        required: Rights,
        object_version: Version,
        region_check: Option<(u64, u64)>,
        now: u64,
    ) -> Result<(), NasdStatus> {
        if !self.enabled {
            return Ok(());
        }
        let cap = req.capability.as_ref().ok_or(NasdStatus::AccessDenied)?;

        // Structural checks first (cheap).
        if cap.drive != self.drive_id {
            return Err(NasdStatus::AccessDenied);
        }
        if cap.partition != req.body.partition() {
            return Err(NasdStatus::AccessDenied);
        }
        if let Some(obj) = req.body.object() {
            if cap.object != obj {
                return Err(NasdStatus::AccessDenied);
            }
        }
        if req.header.protection < cap.min_protection {
            return Err(NasdStatus::AccessDenied);
        }
        if cap.expires < now {
            return Err(NasdStatus::AccessDenied);
        }
        if cap.version != object_version {
            // Version bump = revocation (§4.1).
            return Err(NasdStatus::AccessDenied);
        }
        if !cap.rights.allows(required) {
            return Err(NasdStatus::AccessDenied);
        }
        if let Some((offset, len)) = region_check {
            if !cap.region.contains_range(offset, len) {
                return Err(NasdStatus::RangeViolation);
            }
        }

        // Cryptographic check: recompute the private field and the digest.
        let key = self
            .working_key(cap.partition, cap.key_kind)
            .ok_or(NasdStatus::NoSuchPartition)?;
        let private = cap.private_under(key);
        Self::digest_then_replay(&mut self.replay, private.as_bytes(), req)
    }

    /// Verify a partition-administration request (`CreatePartition`,
    /// `ResizePartition`, `RemovePartition`), which is authorized by the
    /// drive key (level 2) rather than a capability.
    ///
    /// # Errors
    ///
    /// [`NasdStatus`] on verification failure.
    pub fn verify_admin(&mut self, req: &Request) -> Result<(), NasdStatus> {
        if !self.enabled {
            return Ok(());
        }
        if req.capability.is_some() {
            return Err(NasdStatus::BadRequest);
        }
        Self::digest_then_replay(&mut self.replay, self.drive_key.as_bytes(), req)
    }

    /// Verify a `SetKey` request, which is authorized by the partition key
    /// (level 3) rather than a capability.
    ///
    /// # Errors
    ///
    /// [`NasdStatus`] on verification failure.
    pub fn verify_setkey(&mut self, req: &Request) -> Result<(), NasdStatus> {
        if !self.enabled {
            return Ok(());
        }
        if req.capability.is_some() {
            return Err(NasdStatus::BadRequest);
        }
        let keys = self
            .partition_keys
            .get(&req.body.partition())
            .ok_or(NasdStatus::NoSuchPartition)?;
        Self::digest_then_replay(&mut self.replay, keys.partition.as_bytes(), req)
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
