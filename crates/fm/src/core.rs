//! The file-manager core: one namespace, one version table, one
//! capability mint.
//!
//! §5.1 ports NFS and AFS onto the same drive-facing mechanism — names
//! and policy attributes live in NASD objects, a capability is minted at
//! the object's current version — and §5.2's PFS "inherits a name
//! service, directory hierarchy, and access controls from the
//! filesystem". [`FmCore`] is that mechanism; [`NasdNfs`](crate::NasdNfs)
//! and [`NasdAfs`](crate::NasdAfs) are personalities over it that add
//! only policy. It is the only code in this crate that reads or writes a
//! directory object, stamps or reads policy attributes, touches the
//! version table, or mints a capability.
//!
//! Any number of shards and personalities may share one core. Every directory read-modify-write cycle runs under that
//! directory's stripe lock; paths that need two directories (rename,
//! directory remove) take both stripes in stripe order (`shard.rs`).

use crate::dirfmt::{decode_dir, encode_dir, DirRecord};
use crate::drives::{DriveEndpoint, DriveFleet};
use crate::handle::{FileHandle, FileType, FmAttrs, FmError};
use crate::shard::{DirLocks, VersionTable};
use bytes::Bytes;
use nasd_proto::{ByteRange, Capability, NasdStatus, RequestBody, Rights};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default capability lifetime issued by the file manager (seconds).
pub(crate) const DEFAULT_TTL: u64 = 3_600;

/// State and mechanism shared by every personality and shard of one
/// file manager.
pub(crate) struct FmCore {
    fleet: Arc<DriveFleet>,
    root: FileHandle,
    /// Revocation versions: a capability is always minted at the latest,
    /// no matter which shard or personality revoked.
    versions: VersionTable,
    dir_locks: DirLocks,
    /// Round-robin file placement across drives, fleet-wide.
    next_drive: AtomicUsize,
}

impl FmCore {
    /// Bootstrap over `fleet`: creates the root directory object on
    /// drive 0.
    pub(crate) fn new(fleet: Arc<DriveFleet>) -> Result<Self, FmError> {
        let p = fleet.partition();
        let ep = fleet.endpoint(0);
        let object = ep.create_object(p, 0, None, fleet.now() + DEFAULT_TTL)?;
        let core = FmCore {
            root: FileHandle {
                drive: ep.id(),
                partition: p,
                object,
            },
            fleet,
            versions: VersionTable::new(),
            dir_locks: DirLocks::new(),
            next_drive: AtomicUsize::new(0),
        };
        core.write_policy(core.root, &FmAttrs::fresh(FileType::Directory, 0o755, 0))?;
        Ok(core)
    }

    pub(crate) fn root(&self) -> FileHandle {
        self.root
    }

    /// The fleet's drive clock (capability expiry times are in it).
    pub(crate) fn now(&self) -> u64 {
        self.fleet.now()
    }

    /// Mint at `fh`'s tracked version — the one place a capability is made.
    fn mint(
        &self,
        fh: FileHandle,
        rights: Rights,
        region: ByteRange,
    ) -> Result<(&Arc<DriveEndpoint>, Capability), FmError> {
        let ep = self.fleet.resolve(fh)?;
        let cap = ep.mint(
            fh.partition,
            fh.object,
            self.versions.get(fh),
            rights,
            region,
            self.fleet.now() + DEFAULT_TTL,
        );
        Ok((ep, cap))
    }

    /// A capability for a client: `rights` over `region` of `fh`.
    pub(crate) fn grant(
        &self,
        fh: FileHandle,
        rights: Rights,
        region: ByteRange,
    ) -> Result<Capability, FmError> {
        Ok(self.mint(fh, rights, region)?.1)
    }

    /// The manager's own full-rights capability for `fh`, with the
    /// endpoint to use it on.
    fn own_cap(&self, fh: FileHandle) -> Result<(&Arc<DriveEndpoint>, Capability), FmError> {
        self.mint(fh, Rights::ALL, ByteRange::FULL)
    }

    fn write_policy(&self, fh: FileHandle, attrs: &FmAttrs) -> Result<(), FmError> {
        let (ep, cap) = self.own_cap(fh)?;
        let mut fs_specific = [0u8; nasd_proto::FS_SPECIFIC_ATTR_LEN];
        fs_specific
            .get_mut(..8)
            .ok_or(FmError::Drive(NasdStatus::DriveError))?
            // nasd-lint: allow(hot-path-copy, "fixed-size fs-specific attribute block, not payload")
            .copy_from_slice(&attrs.pack_policy());
        ep.set_fs_specific(&cap, fs_specific)
    }

    /// Attributes of `fh`, policy fields included.
    pub(crate) fn attrs(&self, fh: FileHandle) -> Result<FmAttrs, FmError> {
        let (ep, cap) = self.own_cap(fh)?;
        FmAttrs::from_object(&ep.get_attr(&cap)?)
    }

    fn read_dir(&self, dir: FileHandle) -> Result<Vec<DirRecord>, FmError> {
        let (ep, cap) = self.own_cap(dir)?;
        // Directory decoding needs contiguous bytes: flatten here, at
        // the consumer, not on the wire path.
        let data = ep.read(&cap, 0, u64::MAX)?.flatten();
        decode_dir(&data).map_err(|_| FmError::Drive(NasdStatus::DriveError))
    }

    fn write_dir(&self, dir: FileHandle, entries: &[DirRecord]) -> Result<(), FmError> {
        let (ep, cap) = self.own_cap(dir)?;
        let data = encode_dir(entries);
        let new_len = data.len() as u64;
        ep.write(&cap, 0, Bytes::from(data))?;
        // Shrink if entries were removed.
        ep.call(
            &cap,
            RequestBody::Resize {
                partition: dir.partition,
                object: dir.object,
                new_size: new_len,
            },
            Bytes::new(),
        )?;
        Ok(())
    }

    /// List `dir`. Reads take the stripe lock so another shard's
    /// read-modify-write cycle is never observed half-done.
    pub(crate) fn list(&self, dir: FileHandle) -> Result<Vec<DirRecord>, FmError> {
        let _g = self.dir_locks.lock(dir);
        self.read_dir(dir)
    }

    /// Resolve `name` in `dir`.
    pub(crate) fn lookup(&self, dir: FileHandle, name: &str) -> Result<FileHandle, FmError> {
        self.list(dir)?
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.handle)
            .ok_or_else(|| FmError::NotFound(name.to_string()))
    }

    /// Create the object for a new entry `name` of `dir`, stamp its
    /// policy attributes and append it to the directory — the one
    /// function that creates a namespace entry.
    pub(crate) fn add(
        &self,
        dir: FileHandle,
        name: String,
        file_type: FileType,
        mode: u16,
        uid: u32,
    ) -> Result<FileHandle, FmError> {
        // The whole read-check-create-write cycle runs under the
        // directory's stripe lock: another shard creating the same name
        // must lose, not corrupt the directory.
        let _g = self.dir_locks.lock(dir);
        let mut entries = self.read_dir(dir)?;
        if entries.iter().any(|e| e.name == name) {
            return Err(FmError::Exists(name));
        }
        let (ep, near) = match file_type {
            FileType::Regular => {
                let idx = self.next_drive.fetch_add(1, Ordering::Relaxed) % self.fleet.len();
                (self.fleet.endpoint(idx), None)
            }
            // Directories stay on the parent's drive for locality.
            FileType::Directory => (self.fleet.resolve(dir)?, Some(dir.object)),
        };
        let p = self.fleet.partition();
        let fh = FileHandle {
            drive: ep.id(),
            partition: p,
            object: ep.create_object(p, 0, near, self.fleet.now() + DEFAULT_TTL)?,
        };
        self.write_policy(fh, &FmAttrs::fresh(file_type, mode, uid))?;
        entries.push(DirRecord {
            name,
            handle: fh,
            is_dir: file_type == FileType::Directory,
        });
        self.write_dir(dir, &entries)?;
        Ok(fh)
    }

    /// Remove the file or empty directory `name` from `dir`, returning
    /// the record that was removed.
    pub(crate) fn remove(&self, dir: FileHandle, name: String) -> Result<DirRecord, FmError> {
        // Removing a directory needs the victim's stripe too: the
        // emptiness check is only meaningful while creates inside the
        // victim (which lock by the victim's handle, not `dir`) are
        // excluded. The victim is only known after reading `dir`, so:
        // probe under the single lock, then acquire the pair in stripe
        // order and revalidate.
        const ATTEMPTS: u32 = 4;
        for _ in 0..ATTEMPTS {
            let probe = self.list(dir)?;
            let Some(victim) = probe.into_iter().find(|e| e.name == name) else {
                return Err(FmError::NotFound(name));
            };
            let _g = if victim.is_dir {
                self.dir_locks.lock_pair(dir, victim.handle)
            } else {
                self.dir_locks.lock(dir)
            };
            let mut entries = self.read_dir(dir)?;
            let Some(idx) = entries
                .iter()
                .position(|e| e.name == name && e.handle == victim.handle)
            else {
                // Lost a race between probe and lock; retry.
                continue;
            };
            if victim.is_dir && !self.read_dir(victim.handle)?.is_empty() {
                return Err(FmError::NotEmpty(name));
            }
            let (ep, cap) = self.own_cap(victim.handle)?;
            ep.remove(&cap)?;
            self.versions.remove(victim.handle);
            entries.remove(idx);
            self.write_dir(dir, &entries)?;
            return Ok(victim);
        }
        Err(FmError::Unavailable { attempts: ATTEMPTS })
    }

    /// Move an entry between directories (or rename in place). The
    /// backing object does not move — only the namespace changes.
    pub(crate) fn rename(
        &self,
        from_dir: FileHandle,
        from: String,
        to_dir: FileHandle,
        to: String,
    ) -> Result<(), FmError> {
        // Both directories' stripes, acquired in stripe order
        // (deduplicated), for the duration of the two-directory
        // read-modify-write cycle.
        let _g = self.dir_locks.lock_pair(from_dir, to_dir);
        let mut src = self.read_dir(from_dir)?;
        let idx = src
            .iter()
            .position(|e| e.name == from)
            .ok_or(FmError::NotFound(from))?;
        let dst = if from_dir == to_dir {
            None
        } else {
            Some(self.read_dir(to_dir)?)
        };
        if dst.as_ref().unwrap_or(&src).iter().any(|e| e.name == to) {
            return Err(FmError::Exists(to));
        }
        let mut entry = src.remove(idx);
        entry.name = to;
        match dst {
            None => src.insert(idx, entry),
            Some(mut dst) => {
                dst.push(entry);
                // Destination first: a crash between the two directory
                // writes leaves the entry reachable (possibly twice),
                // never lost.
                self.write_dir(to_dir, &dst)?;
            }
        }
        self.write_dir(from_dir, &src)
    }

    /// Change `fh`'s mode bits and revoke its outstanding capabilities
    /// so clients re-fetch under the new policy.
    pub(crate) fn set_mode(&self, fh: FileHandle, mode: u16) -> Result<(), FmError> {
        // Serialize concurrent policy updates to one object across
        // shards (stripe table reused by file handle).
        let _g = self.dir_locks.lock(fh);
        let mut attrs = self.attrs(fh)?;
        attrs.mode = mode;
        self.write_policy(fh, &attrs)?;
        let (ep, cap) = self.own_cap(fh)?;
        let new_version = ep.bump_version(&cap)?;
        self.versions.insert(fh, new_version);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AfsClient, NasdAfs, NasdNfs, NfsRequest, NfsResponse};
    use nasd_net::Channel;
    use nasd_object::DriveConfig;
    use nasd_proto::{PartitionId, RetryClass};

    #[test]
    fn revocation_crosses_personalities() {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(2, DriveConfig::small(), PartitionId(1), 16 << 20).unwrap(),
        );
        let core = Arc::new(FmCore::new(Arc::clone(&fleet)).unwrap());
        let nfs = NasdNfs::over(Arc::clone(&core));
        let (rpc, _h) = NasdAfs::over(core, 1 << 20).spawn();
        let afs = AfsClient::attach(1, Channel::in_proc(rpc), Arc::clone(&fleet)).unwrap();

        let fh = afs.create(afs.root(), "shared").unwrap();
        afs.write_file(fh, b"one namespace").unwrap();
        let (old, _) = afs.fetch_read(fh).unwrap();
        let ep = fleet.resolve(fh).unwrap();
        assert_eq!(ep.read(&old, 0, 13).unwrap(), b"one namespace");

        // A policy change through the NFS personality revokes what the
        // AFS personality issued...
        let resp = nfs.handle(NfsRequest::SetMode { fh, mode: 0o600 });
        assert!(matches!(resp, NfsResponse::Ok), "{resp:?}");
        match ep.read(&old, 0, 13) {
            Err(FmError::Drive(status)) => assert_eq!(status.retry_class(), RetryClass::Refresh),
            other => panic!("revoked capability was honoured: {other:?}"),
        }
        // ...and the AFS personality grants at the version NFS moved to.
        let (fresh, _) = afs.fetch_read(fh).unwrap();
        assert!(fresh.public.version > old.public.version);
        assert_eq!(ep.read(&fresh, 0, 13).unwrap(), b"one namespace");
    }
}
