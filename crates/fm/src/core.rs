//! The file-manager core: one namespace over the fleet's one mint.
//!
//! §5.1 ports NFS and AFS onto the same drive-facing mechanism — names
//! and policy attributes live in NASD objects, a capability is minted at
//! the object's current version — and §5.2's PFS "inherits a name
//! service, directory hierarchy, and access controls from the
//! filesystem". [`FmCore`] is that mechanism; [`NasdNfs`](crate::NasdNfs)
//! and [`NasdAfs`](crate::NasdAfs) are personalities over it that add
//! only policy. It is the only code in this crate that reads or writes a
//! directory object or stamps or reads policy attributes. Objects,
//! capabilities and revocation go through the [`DriveFleet`]: its version
//! table is shared with every other manager over the same drives, so a
//! revocation by any of them holds for all.
//!
//! Any number of personalities may share one core, and each takes its
//! callers' requests concurrently. Every directory read-modify-write
//! cycle runs under that directory's stripe lock; paths that need two
//! directories (rename, directory remove) take both stripes in stripe
//! order (`stripes.rs`).
//!
//! Because the core is the only writer of directory objects, it keeps
//! the directories it read or wrote, decoded, in a write-through cache:
//! resolving a path costs no drive round trip, while every change still
//! goes to the drive first, so clients that parse directory objects
//! themselves (AFS) read the same listing.

use crate::dirfmt::{decode_dir, encode_dir, DirRecord};
use crate::drives::{DriveEndpoint, DriveFleet};
use crate::handle::{FileHandle, FileType, FmAttrs, FmError};
use crate::stripes::DirLocks;
use bytes::Bytes;
use nasd_obs::BoundedMap;
use nasd_proto::{ByteRange, Capability, NasdStatus, RequestBody, Rights};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A directory's decoded listing, shared between the cache and readers.
pub(crate) type Listing = Arc<[DirRecord]>;

/// State and mechanism shared by every personality of one file manager
/// and every call it serves.
pub(crate) struct FmCore {
    fleet: Arc<DriveFleet>,
    root: FileHandle,
    dir_locks: DirLocks,
    /// Write-through cache of directory listings, filled and updated
    /// only under the directory's stripe lock. Its own lock is never
    /// held across a drive call.
    dirs: Mutex<BoundedMap<FileHandle, Listing>>,
    /// Round-robin file placement across drives, fleet-wide.
    next_drive: AtomicUsize,
}

impl FmCore {
    /// Bootstrap over `fleet`: creates the root directory object on
    /// drive 0.
    pub(crate) fn new(fleet: Arc<DriveFleet>) -> Result<Self, FmError> {
        let core = FmCore {
            root: fleet.create(fleet.endpoint(0), None, 0)?,
            fleet,
            dir_locks: DirLocks::new(),
            dirs: Mutex::new(BoundedMap::default()),
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

    /// A capability for a client: `rights` over `region` of `fh`.
    pub(crate) fn grant(
        &self,
        fh: FileHandle,
        rights: Rights,
        region: ByteRange,
    ) -> Result<Capability, FmError> {
        Ok(self.fleet.mint(fh, rights, region)?.1)
    }

    /// The manager's own full-rights capability for `fh`, with the
    /// endpoint to use it on.
    fn own_cap(&self, fh: FileHandle) -> Result<(&DriveEndpoint, Capability), FmError> {
        self.fleet.mint(fh, Rights::ALL, ByteRange::FULL)
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

    /// `dir`'s listing: cached, or read from the drive and cached.
    /// Callers hold `dir`'s stripe lock.
    fn read_dir(&self, dir: FileHandle) -> Result<Listing, FmError> {
        let cached = self.dirs.lock().get(&dir).cloned();
        if let Some(listing) = cached {
            return Ok(listing);
        }
        let (ep, cap) = self.own_cap(dir)?;
        // Directory decoding needs contiguous bytes: flatten here, at
        // the consumer, not on the wire path.
        let data = ep.read(&cap, 0, u64::MAX)?.flatten();
        let listing: Listing = decode_dir(&data)
            .map_err(|_| FmError::Drive(NasdStatus::DriveError))?
            .into();
        self.cache(dir, Some(Arc::clone(&listing)));
        Ok(listing)
    }

    /// Store `entries` as `dir`'s listing. The cache takes it only once
    /// the drive took it; any failure evicts `dir`, so the next read asks
    /// the drive. Callers hold `dir`'s stripe lock.
    fn write_dir(&self, dir: FileHandle, entries: Vec<DirRecord>) -> Result<(), FmError> {
        let stored = self.store_dir(dir, &entries);
        self.cache(dir, stored.is_ok().then(|| entries.into()));
        stored
    }

    /// Write the encoded listing, then cut the object to its length (a
    /// shorter listing leaves a longer one's tail behind otherwise).
    fn store_dir(&self, dir: FileHandle, entries: &[DirRecord]) -> Result<(), FmError> {
        let (ep, cap) = self.own_cap(dir)?;
        let data = encode_dir(entries);
        let new_len = data.len() as u64;
        ep.write(&cap, 0, Bytes::from(data))?;
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

    /// Cache `listing` as `dir`'s, or evict `dir` on `None`.
    fn cache(&self, dir: FileHandle, listing: Option<Listing>) {
        let mut dirs = self.dirs.lock();
        match listing {
            Some(listing) => dirs.insert(dir, listing),
            None => {
                dirs.remove(&dir);
            }
        }
    }

    /// List `dir`. Reads take the stripe lock so another call's
    /// read-modify-write cycle is never observed half-done.
    pub(crate) fn list(&self, dir: FileHandle) -> Result<Listing, FmError> {
        let _g = self.dir_locks.lock(dir);
        self.read_dir(dir)
    }

    /// Resolve `path` — `/`-separated, relative to `dir` — one component
    /// at a time, each under its own directory's stripe lock. An empty
    /// path resolves to `dir` itself.
    pub(crate) fn lookup(&self, dir: FileHandle, path: &str) -> Result<FileHandle, FmError> {
        let mut comps = path.split('/').filter(|c| !c.is_empty()).peekable();
        let mut cur = dir;
        while let Some(comp) = comps.next() {
            let (handle, is_dir) = self
                .list(cur)?
                .iter()
                .find(|e| e.name == comp)
                .map(|e| (e.handle, e.is_dir))
                .ok_or_else(|| FmError::NotFound(comp.to_string()))?;
            if !is_dir && comps.peek().is_some() {
                return Err(FmError::NotADirectory(comp.to_string()));
            }
            cur = handle;
        }
        Ok(cur)
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
        // directory's stripe lock: another call creating the same name
        // must lose, not corrupt the directory.
        let _g = self.dir_locks.lock(dir);
        let listing = self.read_dir(dir)?;
        if listing.iter().any(|e| e.name == name) {
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
        let fh = self.fleet.create(ep, near, 0)?;
        self.write_policy(fh, &FmAttrs::fresh(file_type, mode, uid))?;
        let mut entries: Vec<DirRecord> = listing.iter().cloned().collect();
        entries.push(DirRecord {
            name,
            handle: fh,
            is_dir: file_type == FileType::Directory,
        });
        self.write_dir(dir, entries)?;
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
            let Some(victim) = probe.iter().find(|e| e.name == name).cloned() else {
                return Err(FmError::NotFound(name));
            };
            let _g = if victim.is_dir {
                self.dir_locks.lock_pair(dir, victim.handle)
            } else {
                self.dir_locks.lock(dir)
            };
            let listing = self.read_dir(dir)?;
            let Some(idx) = listing
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
            let removed = ep.remove(&cap);
            // Whatever the drive answered, a removed directory's listing
            // is no longer the core's to serve.
            self.cache(victim.handle, None);
            removed?;
            self.fleet.forget(victim.handle);
            let mut entries: Vec<DirRecord> = listing.iter().cloned().collect();
            entries.remove(idx);
            self.write_dir(dir, entries)?;
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
        let mut src: Vec<DirRecord> = self.read_dir(from_dir)?.iter().cloned().collect();
        let idx = src
            .iter()
            .position(|e| e.name == from)
            .ok_or(FmError::NotFound(from))?;
        let dst = if from_dir == to_dir {
            None
        } else {
            Some(self.read_dir(to_dir)?)
        };
        if dst.as_deref().unwrap_or(&src).iter().any(|e| e.name == to) {
            return Err(FmError::Exists(to));
        }
        let mut entry = src.remove(idx);
        entry.name = to;
        match dst {
            None => src.insert(idx, entry),
            Some(dst) => {
                let mut dst: Vec<DirRecord> = dst.iter().cloned().collect();
                dst.push(entry);
                // Destination first: a crash between the two directory
                // writes leaves the entry reachable (possibly twice),
                // never lost.
                self.write_dir(to_dir, dst)?;
            }
        }
        self.write_dir(from_dir, src)
    }

    /// Change `fh`'s mode bits and revoke its outstanding capabilities
    /// so clients re-fetch under the new policy.
    pub(crate) fn set_mode(&self, fh: FileHandle, mode: u16) -> Result<(), FmError> {
        // Serialize concurrent policy updates to one object (stripe
        // table reused by file handle).
        let _g = self.dir_locks.lock(fh);
        let mut attrs = self.attrs(fh)?;
        attrs.mode = mode;
        self.write_policy(fh, &attrs)?;
        self.fleet.revoke(fh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AfsClient, AfsRequest, AfsResponse, FmConnect, NasdAfs, NasdNfs};
    use crate::{NfsRequest, NfsResponse};
    use nasd_net::{CallOptions, Channel, Connector, FaultConfig, FaultPlan, RetryPolicy};
    use nasd_object::DriveConfig;
    use nasd_proto::{PartitionId, RetryClass};
    use std::time::Duration;

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

    #[test]
    fn revocation_crosses_managers_over_one_fleet() {
        // Two managers, each with its own core and namespace, over one
        // fleet: a version moved by one is the version the other mints at.
        let fleet = Arc::new(
            DriveFleet::spawn_memory(2, DriveConfig::small(), PartitionId(1), 16 << 20).unwrap(),
        );
        let nfs = NasdNfs::new(Arc::clone(&fleet)).unwrap();
        let (rpc, _h) = NasdAfs::new(Arc::clone(&fleet), 1 << 20).unwrap().spawn();
        let afs = AfsClient::attach(1, Channel::in_proc(rpc), Arc::clone(&fleet)).unwrap();

        let fh = afs.create(afs.root(), "shared").unwrap();
        afs.write_file(fh, b"one fleet").unwrap();
        let (old, _) = afs.fetch_read(fh).unwrap();
        let resp = nfs.handle(NfsRequest::SetMode { fh, mode: 0o600 });
        assert!(matches!(resp, NfsResponse::Ok), "{resp:?}");

        let ep = fleet.resolve(fh).unwrap();
        assert!(ep.read(&old, 0, 9).is_err(), "revoked capability honoured");
        let (fresh, _) = afs.fetch_read(fh).unwrap();
        assert!(fresh.public.version > old.public.version);
        assert_eq!(ep.read(&fresh, 0, 9).unwrap(), b"one fleet");
    }

    fn fleet_of(n: usize, config: DriveConfig) -> Arc<DriveFleet> {
        Arc::new(DriveFleet::spawn_memory(n, config, PartitionId(1), 16 << 20).unwrap())
    }

    fn add(core: &FmCore, dir: FileHandle, name: &str, file_type: FileType) -> FileHandle {
        core.add(dir, name.to_string(), file_type, 0o755, 0)
            .unwrap()
    }

    #[test]
    fn a_path_resolves_one_component_at_a_time() {
        let core = FmCore::new(fleet_of(2, DriveConfig::small())).unwrap();
        let root = core.root();
        let a = add(&core, root, "a", FileType::Directory);
        let b = add(&core, a, "b", FileType::Directory);
        let f = add(&core, b, "f", FileType::Regular);
        assert_eq!(core.lookup(root, "a/b/f").unwrap(), f);
        assert_eq!(core.lookup(root, "/a//b/f/").unwrap(), f);
        assert_eq!(core.lookup(a, "b").unwrap(), b);
        assert_eq!(core.lookup(root, "").unwrap(), root);
        assert!(matches!(core.lookup(root, "a/zz/f"), Err(FmError::NotFound(n)) if n == "zz"));
        assert!(matches!(core.lookup(root, "a/b/f/x"), Err(FmError::NotADirectory(n)) if n == "f"));
    }

    #[test]
    fn a_shrink_whose_resize_never_landed_still_resolves() {
        let core = FmCore::new(fleet_of(1, DriveConfig::small())).unwrap();
        let root = core.root();
        let a = add(&core, root, "a", FileType::Regular);
        add(&core, root, "a-much-longer-second-name", FileType::Regular);
        // The one-entry listing written without its Resize, as a
        // `write_dir` whose Resize failed leaves the object.
        let kept: Vec<DirRecord> = core.list(root).unwrap().iter().take(1).cloned().collect();
        let (ep, cap) = core.own_cap(root).unwrap();
        ep.write(&cap, 0, Bytes::from(encode_dir(&kept))).unwrap();
        core.cache(root, None);
        assert_eq!(core.lookup(root, "a").unwrap(), a);
        assert!(matches!(
            core.lookup(root, "a-much-longer-second-name"),
            Err(FmError::NotFound(_))
        ));
    }

    #[test]
    fn a_failed_directory_write_evicts_and_the_next_read_asks_the_drive() {
        let fleet = fleet_of(1, DriveConfig::small().durable());
        let core = FmCore::new(Arc::clone(&fleet)).unwrap();
        let root = core.root();
        let kept = add(&core, root, "kept", FileType::Regular);
        assert!(core.dirs.lock().get(&root).is_some());
        fleet.endpoint(0).set_retry(RetryPolicy {
            max_attempts: 1,
            timeout: Duration::from_millis(50),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        });
        fleet.crash(0);
        // Served from the cache while the drive is down...
        assert_eq!(core.lookup(root, "kept").unwrap(), kept);
        // ...until a write fails: then the drive is asked again.
        assert!(core.write_dir(root, Vec::new()).is_err());
        assert!(core.dirs.lock().get(&root).is_none());
        assert!(matches!(
            core.lookup(root, "kept"),
            Err(FmError::Unavailable { .. })
        ));
        fleet.restart(0).unwrap();
        assert_eq!(core.lookup(root, "kept").unwrap(), kept);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<'a>(rng: &mut u64, from: &'a [String]) -> Option<&'a String> {
        from.get((splitmix(rng) % from.len().max(1) as u64) as usize)
    }

    /// Every cached listing equals `decode_dir` of its drive object.
    fn assert_coherent(core: &FmCore, context: &str) {
        // The map has no iterator; a `retain` that keeps every entry
        // visits each one.
        let mut cached: Vec<(FileHandle, Listing)> = Vec::new();
        core.dirs.lock().retain(|dir, listing| {
            cached.push((*dir, Arc::clone(listing)));
            true
        });
        for (dir, listing) in cached {
            let (ep, cap) = core.own_cap(dir).unwrap();
            let stored = decode_dir(&ep.read(&cap, 0, u64::MAX).unwrap().flatten()).unwrap();
            assert_eq!(&listing[..], &stored[..], "{context}: cached {dir}");
        }
    }

    /// A seeded run of mkdir, create, remove and rename through an NFS
    /// client and an AFS personality over one core, the cache checked
    /// against the drives after every operation. Returns how many failed
    /// operations left fewer directories cached (a failed directory
    /// write evicts).
    fn coherence_run(seed: u64, lossy: bool) -> usize {
        let fleet = fleet_of(3, DriveConfig::small());
        let core = Arc::new(FmCore::new(Arc::clone(&fleet)).unwrap());
        let (nfs_rpc, _nfs) = NasdNfs::over(Arc::clone(&core)).spawn();
        let mut nfs = Connector::new().nfs(nfs_rpc, Arc::clone(&fleet)).unwrap();
        nfs.enable_cap_cache(None);
        let (afs, _afs) = NasdAfs::over(Arc::clone(&core), 1 << 30).spawn();
        let plan = FaultPlan::new(seed);
        plan.set_enabled(false);
        if lossy {
            fleet.set_faults(&plan, FaultConfig::lossy(1.0));
            for ep in fleet.endpoints() {
                ep.set_retry(RetryPolicy {
                    max_attempts: 2,
                    timeout: Duration::from_millis(50),
                    base_backoff: Duration::ZERO,
                    max_backoff: Duration::ZERO,
                });
            }
        }
        let afs_call = |req| afs.call_with(req, &CallOptions::blocking()).unwrap();
        let below = |path: &str, top: &str| {
            path.strip_prefix(top)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        };
        let (mut rng, mut evicting_failures) = (seed, 0);
        let mut dirs = vec![String::new()];
        let mut files: Vec<String> = Vec::new();
        for i in 0..240 {
            let op = splitmix(&mut rng) % 7;
            let parent = pick(&mut rng, &dirs).cloned().unwrap_or_default();
            let named: Vec<String> = dirs.iter().skip(1).chain(&files).cloned().collect();
            let victim = pick(&mut rng, &named).cloned().unwrap_or_default();
            if op >= 4 && (victim.is_empty() || below(&parent, &victim)) {
                continue;
            }
            let (up, name) = victim.rsplit_once('/').unwrap_or_default();
            let (new_dir, new_file) = (format!("d{i}"), format!("f{i}"));
            let moved_to = format!("{parent}/r{i}");
            let cached = core.dirs.lock().len();
            plan.set_enabled(lossy);
            let ok = match op {
                0 => nfs.mkdir(&format!("{parent}/{new_dir}"), 0o755, 0).is_ok(),
                1 => nfs
                    .create(&format!("{parent}/{new_file}"), 0o644, 0)
                    .is_ok(),
                2 => nfs.walk_dir(&parent).is_ok_and(|dir| {
                    let req = AfsRequest::Mkdir {
                        dir,
                        name: new_dir.clone(),
                    };
                    matches!(afs_call(req), AfsResponse::Handle(_))
                }),
                3 => nfs.walk_dir(&parent).is_ok_and(|dir| {
                    let (name, mode, uid) = (new_file.clone(), 0o644, 0);
                    let req = AfsRequest::Create {
                        dir,
                        name,
                        mode,
                        uid,
                    };
                    matches!(afs_call(req), AfsResponse::Handle(_))
                }),
                4 => nfs.remove(&victim).is_ok(),
                5 => nfs.walk_dir(up).is_ok_and(|dir| {
                    let req = AfsRequest::Remove {
                        dir,
                        name: name.to_string(),
                    };
                    matches!(afs_call(req), AfsResponse::Ok)
                }),
                _ => nfs.rename(&victim, &moved_to).is_ok(),
            };
            plan.set_enabled(false);
            match (op, ok) {
                (_, false) => {
                    evicting_failures += usize::from(core.dirs.lock().len() < cached);
                }
                (0 | 2, true) => dirs.push(format!("{parent}/{new_dir}")),
                (1 | 3, true) => files.push(format!("{parent}/{new_file}")),
                (4 | 5, true) => {
                    dirs.retain(|p| *p != victim);
                    files.retain(|p| *p != victim);
                }
                (_, true) => {
                    for p in dirs.iter_mut().chain(files.iter_mut()) {
                        if below(p, &victim) {
                            *p = format!("{moved_to}{}", &p[victim.len()..]);
                        }
                    }
                }
            }
            assert_coherent(&core, &format!("seed {seed:#x} op {i}"));
        }
        evicting_failures
    }

    #[test]
    fn cached_directories_match_their_drive_objects() {
        for seed in [1, 2, 3] {
            // A refused operation (exists, not found, not empty) writes
            // nothing, so evicts nothing.
            assert_eq!(coherence_run(seed, false), 0);
        }
    }

    #[test]
    fn cached_directories_match_their_drive_objects_under_lossy_drives() {
        let evicted: usize = [11, 12, 13]
            .into_iter()
            .map(|s| coherence_run(s, true))
            .sum();
        assert!(evicted > 0, "no failed operation evicted a directory");
    }
}
