//! Object access and disk space management (§4.1–4.2).
//!
//! Implements the NASD drive's storage core: soft partitions with quotas,
//! a flat namespace of variable-length objects, per-object attributes,
//! lazy extent allocation with clustering hints, copy-on-write object
//! versions, and short reads at end-of-object. All data moves through the
//! write-behind [`BlockCache`], whose [`CacheStats`](crate::CacheStats)
//! count the hits and misses the drive's cost accounting reads.

use crate::alloc::Allocator;
use crate::cache::BlockCache;
use crate::layout::Layout;
use crate::wal::{Wal, WalRecord};
use bytes::ByteRope;
use nasd_crypto::KeyKind;
use nasd_disk::{BlockDevice, DiskError};
use nasd_proto::{NasdStatus, ObjectAttributes, ObjectId, PartitionId, SetAttrMask, Version};
use std::collections::HashMap;
use std::fmt;

/// First object id handed to drive-assigned objects; smaller ids are
/// reserved for well-known control objects (§4.1).
pub const FIRST_DYNAMIC_OBJECT: u64 = 0x100;

/// Errors from the object store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Partition does not exist.
    NoSuchPartition(PartitionId),
    /// Partition id already in use.
    PartitionExists(PartitionId),
    /// Partition still holds objects.
    PartitionNotEmpty(PartitionId),
    /// Object does not exist.
    NoSuchObject(ObjectId),
    /// Allocation failed: partition quota or device capacity exhausted.
    NoSpace,
    /// Quota cannot shrink below current usage.
    QuotaBelowUsage {
        /// Requested quota in bytes.
        requested: u64,
        /// Current usage in bytes.
        used: u64,
    },
    /// The device holds no valid metadata checkpoint (see
    /// [`ObjectStore::open`]).
    NotFormatted,
    /// On-disk metadata carries the right magic but fails a checksum or
    /// structural self-check: the device was formatted, then damaged.
    /// Distinct from [`StoreError::NotFormatted`] so callers never
    /// silently reformat a drive that *had* data.
    Corrupt(&'static str),
    /// Underlying device error.
    Disk(DiskError),
    /// An internal invariant did not hold (metadata out of step with
    /// allocation state). Maps to [`NasdStatus::DriveError`] at the wire:
    /// the request path reports instead of panicking, so the durability
    /// promise survives even a store bug.
    ///
    /// [`NasdStatus::DriveError`]: nasd_proto::NasdStatus
    Internal(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchPartition(p) => write!(f, "no such partition {p}"),
            StoreError::PartitionExists(p) => write!(f, "partition {p} already exists"),
            StoreError::PartitionNotEmpty(p) => write!(f, "partition {p} is not empty"),
            StoreError::NoSuchObject(o) => write!(f, "no such object {o}"),
            StoreError::NoSpace => f.write_str("no space"),
            StoreError::QuotaBelowUsage { requested, used } => {
                write!(f, "quota {requested} below current usage {used}")
            }
            StoreError::NotFormatted => f.write_str("no valid metadata checkpoint"),
            StoreError::Corrupt(what) => write!(f, "on-disk metadata corrupt: {what}"),
            StoreError::Disk(e) => write!(f, "device error: {e}"),
            StoreError::Internal(what) => write!(f, "internal store invariant violated: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiskError> for StoreError {
    fn from(e: DiskError) -> Self {
        StoreError::Disk(e)
    }
}

/// What a client is told when the store refuses or fails an operation.
impl From<StoreError> for NasdStatus {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::NoSuchPartition(_) => NasdStatus::NoSuchPartition,
            StoreError::PartitionExists(_) => NasdStatus::ObjectExists,
            StoreError::PartitionNotEmpty(_) => NasdStatus::BadRequest,
            StoreError::NoSuchObject(_) => NasdStatus::NoSuchObject,
            StoreError::NoSpace | StoreError::QuotaBelowUsage { .. } => NasdStatus::NoSpace,
            StoreError::NotFormatted
            | StoreError::Corrupt(_)
            | StoreError::Disk(_)
            | StoreError::Internal(_) => NasdStatus::DriveError,
        }
    }
}

/// Usage summary of one partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionStats {
    /// Capacity quota in bytes.
    pub quota: u64,
    /// Bytes of quota consumed by allocated blocks.
    pub used: u64,
    /// Number of live objects.
    pub objects: usize,
}

pub(crate) struct ObjectMeta {
    pub(crate) attrs: ObjectAttributes,
    /// Device block of each logical block, in order. Length covers both
    /// written data and preallocated capacity.
    pub(crate) blocks: Vec<u64>,
}

pub(crate) struct Partition {
    pub(crate) quota: u64,
    pub(crate) used: u64,
    pub(crate) next_object: u64,
    pub(crate) objects: HashMap<ObjectId, ObjectMeta>,
    /// Working keys replaced by `SetKey`, at most one per kind. The
    /// store only keeps them durable (log record, index checkpoint);
    /// the drive overlays them on the keys it derives at mount.
    pub(crate) rotated_keys: Vec<(KeyKind, [u8; 32])>,
}

impl Partition {
    /// The name for a new object: the next unissued one, or the `logged`
    /// one on WAL replay. Either way it is never issued again.
    fn claim(&mut self, logged: Option<ObjectId>) -> ObjectId {
        let id = logged.unwrap_or(ObjectId(self.next_object));
        self.next_object = self.next_object.max(id.0.saturating_add(1));
        id
    }

    /// Quota consumed once `nblocks` more blocks of `bs` bytes are
    /// charged. Block counts derive from wire integers, so the byte
    /// count may overflow: that, like exceeding the quota, is
    /// [`StoreError::NoSpace`] before any state change.
    fn used_after(&self, nblocks: u64, bs: u64) -> Result<u64, StoreError> {
        nblocks
            .checked_mul(bs)
            .and_then(|charge| self.used.checked_add(charge))
            .filter(|&used| used <= self.quota)
            .ok_or(StoreError::NoSpace)
    }
}

/// The drive's object store.
///
/// Generic over the [`BlockDevice`] holding the bytes; all metadata
/// (object tables, allocator state, refcounts) lives in memory, as in the
/// paper's prototype drive software.
///
/// # Example
///
/// ```
/// use nasd_disk::MemDisk;
/// use nasd_object::ObjectStore;
/// use nasd_proto::PartitionId;
///
/// let mut store = ObjectStore::new(MemDisk::new(8192, 1024), 64);
/// let p = PartitionId(1);
/// store.create_partition(p, 1 << 20)?;
/// let obj = store.create_object(p, 0, None, 100)?;
/// store.write(p, obj, 0, b"data", 101)?;
/// assert_eq!(store.read(p, obj, 0, 4, 102)?, b"data");
/// assert_eq!(store.cache().stats().misses, 0, "served from the cache");
/// # Ok::<(), nasd_object::StoreError>(())
/// ```
pub struct ObjectStore<D> {
    pub(crate) cache: BlockCache<D>,
    pub(crate) allocator: Allocator,
    pub(crate) partitions: HashMap<PartitionId, Partition>,
    /// Reference counts for blocks shared by copy-on-write versions.
    /// Blocks absent from the map have refcount 1.
    pub(crate) refcounts: HashMap<u64, u32>,
    pub(crate) block_size: usize,
    /// On-disk region geometry (see [`crate::layout`]).
    pub(crate) layout: Layout,
    /// The write-ahead log; disabled unless the drive runs durable.
    pub(crate) wal: Wal,
    /// Epoch of the last checkpoint on disk (0 before the first one).
    pub(crate) checkpoint_seq: u64,
    /// Whether a superblock exists on disk yet. A fresh store is
    /// unformatted until its first checkpoint.
    pub(crate) formatted: bool,
}

impl<D: BlockDevice> ObjectStore<D> {
    /// Create (format) a store over `device` with a cache of
    /// `cache_blocks` blocks. The head of the device is reserved for the
    /// metadata checkpoint area (see [`Self::checkpoint`]); data blocks
    /// start after it.
    #[must_use]
    pub fn new(device: D, cache_blocks: usize) -> Self {
        let total_blocks = device.num_blocks();
        let block_size = device.block_size();
        let layout = Layout::compute(block_size, total_blocks);
        let mut allocator = Allocator::new(total_blocks);
        if layout.data_start > 0 {
            // On a device too small for its metadata, `data_start` clamps
            // to the whole device: everything is reserved and allocations
            // fail cleanly with `NoSpace` rather than overlapping.
            if let Some(reserved) = allocator.allocate(layout.data_start, Some(0)) {
                debug_assert_eq!(reserved.start, 0, "metadata area is the device head");
            }
        }
        ObjectStore {
            cache: BlockCache::new(device, cache_blocks),
            allocator,
            partitions: HashMap::new(),
            refcounts: HashMap::new(),
            block_size,
            wal: Wal::new(&layout),
            layout,
            checkpoint_seq: 0,
            formatted: false,
        }
    }

    /// Device block size in bytes.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Free blocks remaining on the device.
    #[must_use]
    pub fn free_blocks(&self) -> u64 {
        self.allocator.free_blocks()
    }

    /// The block cache (for statistics).
    #[must_use]
    pub fn cache(&self) -> &BlockCache<D> {
        &self.cache
    }

    /// On-disk region geometry.
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Turn write-ahead logging on or off. The drive enables it for
    /// durable configurations *after* open/replay — replayed operations
    /// must not re-log themselves.
    pub fn enable_wal(&mut self, enabled: bool) {
        self.wal.enabled = enabled;
    }

    /// Bytes of committed log since the last checkpoint (recovery
    /// benchmarks plot replay time against this).
    #[must_use]
    pub fn wal_durable_bytes(&self) -> u64 {
        self.wal.durable_bytes()
    }

    /// Group commit: push every record logged since the last commit to
    /// the media. The drive calls this before acknowledging a mutating
    /// request — once it returns, a crash at any later instant replays
    /// the operation.
    ///
    /// # Errors
    ///
    /// Device errors; [`StoreError::NoSpace`] when the first commit must
    /// format the device and the device cannot hold its metadata.
    pub fn wal_commit(&mut self) -> Result<(), StoreError> {
        if !self.wal.has_pending() {
            return Ok(());
        }
        // The log is only meaningful relative to a checkpoint epoch: the
        // very first commit checkpoints once to put a superblock on disk
        // (which also empties the pending buffer into that checkpoint).
        if !self.formatted {
            self.checkpoint()?;
            return Ok(());
        }
        self.wal.commit(self.cache.device_mut())?;
        Ok(())
    }

    /// Append a record for an operation that just succeeded. When the
    /// log area is full, fall back to a checkpoint — it captures the
    /// operation's effect directly and logically empties the log.
    fn wal_log(&mut self, rec: &WalRecord<'_>) -> Result<(), StoreError> {
        if !self.wal.enabled {
            return Ok(());
        }
        if !self.wal.append(rec)? {
            self.checkpoint()?;
        }
        Ok(())
    }

    // ----- partitions -------------------------------------------------

    /// Create a soft partition with a byte quota.
    ///
    /// # Errors
    ///
    /// [`StoreError::PartitionExists`] if the id is taken.
    pub fn create_partition(&mut self, p: PartitionId, quota: u64) -> Result<(), StoreError> {
        if self.partitions.contains_key(&p) {
            return Err(StoreError::PartitionExists(p));
        }
        self.partitions.insert(
            p,
            Partition {
                quota,
                used: 0,
                next_object: FIRST_DYNAMIC_OBJECT,
                objects: HashMap::new(),
                rotated_keys: Vec::new(),
            },
        );
        self.wal_log(&WalRecord::CreatePartition { p, quota })?;
        Ok(())
    }

    /// Change a partition's quota. "Resizeable partitions allow capacity
    /// quotas to be managed by a drive administrator" (§4.1).
    ///
    /// # Errors
    ///
    /// [`StoreError::QuotaBelowUsage`] if shrinking below current usage.
    pub fn resize_partition(&mut self, p: PartitionId, quota: u64) -> Result<(), StoreError> {
        let part = self.partition_mut(p)?;
        if quota < part.used {
            return Err(StoreError::QuotaBelowUsage {
                requested: quota,
                used: part.used,
            });
        }
        part.quota = quota;
        self.wal_log(&WalRecord::ResizePartition { p, quota })?;
        Ok(())
    }

    /// Remove an empty partition.
    ///
    /// # Errors
    ///
    /// [`StoreError::PartitionNotEmpty`] if objects remain.
    pub fn remove_partition(&mut self, p: PartitionId) -> Result<(), StoreError> {
        let part = self.partition_mut(p)?;
        if !part.objects.is_empty() {
            return Err(StoreError::PartitionNotEmpty(p));
        }
        self.partitions.remove(&p);
        self.wal_log(&WalRecord::RemovePartition { p })?;
        Ok(())
    }

    /// Stats for one partition.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchPartition`] if it does not exist.
    pub fn partition_stats(&self, p: PartitionId) -> Result<PartitionStats, StoreError> {
        let part = self.partition(p)?;
        Ok(PartitionStats {
            quota: part.quota,
            used: part.used,
            objects: part.objects.len(),
        })
    }

    /// Ids of all partitions.
    #[must_use]
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        let mut v: Vec<_> = self.partitions.keys().copied().collect();
        v.sort();
        v
    }

    /// Record a rotated working key for `p` (the `SetKey` operation),
    /// replacing any earlier rotation of the same kind.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchPartition`] if it does not exist.
    pub fn set_working_key(
        &mut self,
        p: PartitionId,
        kind: KeyKind,
        key: [u8; 32],
    ) -> Result<(), StoreError> {
        let rotated = &mut self.partition_mut(p)?.rotated_keys;
        rotated.retain(|(k, _)| *k != kind);
        rotated.push((kind, key));
        self.wal_log(&WalRecord::SetKey { p, kind, key })
    }

    /// The working keys of `p` that `SetKey` has replaced (empty for an
    /// unknown partition).
    #[must_use]
    pub fn rotated_keys(&self, p: PartitionId) -> &[(KeyKind, [u8; 32])] {
        self.partitions
            .get(&p)
            .map_or(&[], |part| part.rotated_keys.as_slice())
    }

    fn partition(&self, p: PartitionId) -> Result<&Partition, StoreError> {
        self.partitions
            .get(&p)
            .ok_or(StoreError::NoSuchPartition(p))
    }

    fn partition_mut(&mut self, p: PartitionId) -> Result<&mut Partition, StoreError> {
        self.partitions
            .get_mut(&p)
            .ok_or(StoreError::NoSuchPartition(p))
    }

    // ----- objects ----------------------------------------------------

    /// Create an object; the drive assigns the name. `preallocate` bytes
    /// of capacity are reserved immediately (attribute-managed capacity
    /// reservation, §4.1); `cluster_with` is a layout hint.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] if preallocation exceeds quota or device
    /// space.
    pub fn create_object(
        &mut self,
        p: PartitionId,
        preallocate: u64,
        cluster_with: Option<ObjectId>,
        now: u64,
    ) -> Result<ObjectId, StoreError> {
        self.create_as(None, p, preallocate, cluster_with, now)
    }

    /// The one create body. Live calls pass `logged: None` and the drive
    /// assigns the next name; WAL replay passes the logged name, skips
    /// an object that already exists, and never re-issues that name.
    fn create_as(
        &mut self,
        logged: Option<ObjectId>,
        p: PartitionId,
        preallocate: u64,
        cluster_with: Option<ObjectId>,
        now: u64,
    ) -> Result<ObjectId, StoreError> {
        let bs = self.block_size as u64;
        let nblocks = preallocate.div_ceil(bs);
        let part = self.partition_mut(p)?;
        if let Some(id) = logged.filter(|id| part.objects.contains_key(id)) {
            return Ok(part.claim(Some(id)));
        }
        let used = part.used_after(nblocks, bs)?;
        let hint = cluster_with
            .and_then(|c| part.objects.get(&c))
            .and_then(|m| m.blocks.first().copied());
        let blocks = self.allocate_blocks(nblocks, hint)?;

        let part = self.partition_mut(p)?;
        let id = part.claim(logged);
        let mut attrs = ObjectAttributes::new_at(now);
        attrs.preallocated = preallocate;
        attrs.cluster_with = cluster_with;
        part.used = used;
        part.objects.insert(id, ObjectMeta { attrs, blocks });
        self.wal_log(&WalRecord::Create {
            p,
            id,
            preallocate,
            cluster_with,
            now,
        })?;
        Ok(id)
    }

    fn allocate_blocks(&mut self, nblocks: u64, hint: Option<u64>) -> Result<Vec<u64>, StoreError> {
        if nblocks == 0 {
            return Ok(Vec::new());
        }
        let extents = self
            .allocator
            .allocate_fragmented(nblocks, hint)
            .ok_or(StoreError::NoSpace)?;
        let mut blocks = Vec::with_capacity(nblocks as usize);
        for e in extents {
            blocks.extend(e.start..e.end());
        }
        // Recycled blocks still hold whatever a freed object left behind;
        // zero them in cache so gaps and extensions read back as zeros and
        // log replay reproduces the exact bytes the live run exposed.
        let zeros = vec![0u8; self.block_size];
        for &b in &blocks {
            self.cache.write(b, &zeros)?;
        }
        Ok(blocks)
    }

    /// Zero object bytes `[from, to)` on media. Called when the logical
    /// size grows past bytes that may be stale in pre-existing blocks (a
    /// shrunk-then-regrown tail, or preallocated capacity): extension
    /// must read back as zeros, and recovery must reproduce the same
    /// bytes the live run exposed.
    fn zero_range(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        from: u64,
        to: u64,
    ) -> Result<(), StoreError> {
        if from >= to {
            return Ok(());
        }
        let bs = self.block_size;
        let first_l = (from / bs as u64) as usize;
        let last_l = ((to - 1) / bs as u64) as usize;
        // A snapshot may still reference these bytes through a shared
        // block; re-home before scribbling zeros.
        for l in first_l..=last_l {
            self.cow_block(p, o, l)?;
        }
        let zeros = vec![0u8; bs];
        self.write_through(p, o, from, to, |_, take| zeros.get(..take))
    }

    /// Write object bytes `[from, to)` through the cache, one device
    /// block at a time: whole blocks as full-block writes, partial ones
    /// as read-modify-write. `piece(at, len)` gives the `len` bytes that
    /// go `at` bytes into the range. The block map is borrowed from the
    /// partition table while the cache is driven, not copied.
    fn write_through<'a>(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        from: u64,
        to: u64,
        piece: impl Fn(usize, usize) -> Option<&'a [u8]>,
    ) -> Result<(), StoreError> {
        let bs = self.block_size;
        let blocks = &object_in(&mut self.partitions, p, o)?.blocks;
        let mut pos = from;
        while pos < to {
            let lblock = (pos / bs as u64) as usize;
            let within = (pos % bs as u64) as usize;
            let take = (bs - within).min((to - pos) as usize);
            let dev_block = *blocks
                .get(lblock)
                .ok_or(StoreError::Internal("object block map shorter than size"))?;
            let chunk = piece((pos - from) as usize, take)
                .ok_or(StoreError::Internal("write source shorter than extent"))?;
            if within == 0 && take == bs {
                self.cache.write(dev_block, chunk)?;
            } else {
                self.cache.write_partial(dev_block, within, chunk)?;
            }
            pos += take as u64;
        }
        Ok(())
    }

    /// Remove an object, releasing its space.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchObject`] / [`StoreError::NoSuchPartition`].
    pub fn remove_object(&mut self, p: PartitionId, o: ObjectId) -> Result<(), StoreError> {
        let bs = self.block_size as u64;
        let part = self.partition_mut(p)?;
        let meta = part.objects.remove(&o).ok_or(StoreError::NoSuchObject(o))?;
        part.used -= meta.blocks.len() as u64 * bs;
        let blocks = meta.blocks;
        for b in blocks {
            self.release_block(b);
        }
        self.wal_log(&WalRecord::Remove { p, o })?;
        Ok(())
    }

    fn release_block(&mut self, b: u64) {
        match self.refcounts.get_mut(&b) {
            Some(rc) if *rc > 1 => {
                *rc -= 1;
                if *rc == 1 {
                    self.refcounts.remove(&b);
                }
            }
            _ => {
                self.refcounts.remove(&b);
                self.cache.discard(b);
                self.allocator.free(crate::alloc::Extent::new(b, 1));
            }
        }
    }

    /// Object attributes, updating the access time.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchObject`] / [`StoreError::NoSuchPartition`].
    pub fn get_attr(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        now: u64,
    ) -> Result<ObjectAttributes, StoreError> {
        let meta = self.object_mut(p, o)?;
        meta.attrs.access_time = now;
        Ok(meta.attrs.clone())
    }

    /// Object attributes as they stand, without perturbing the access
    /// time: authorization reads the version and the end of data here
    /// before the request is allowed to touch anything.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchObject`] / [`StoreError::NoSuchPartition`].
    pub fn peek_attr(&self, p: PartitionId, o: ObjectId) -> Result<&ObjectAttributes, StoreError> {
        let part = self.partition(p)?;
        let meta = part.objects.get(&o).ok_or(StoreError::NoSuchObject(o))?;
        Ok(&meta.attrs)
    }

    /// Apply a `SetAttr` request: update the fields selected by `mask`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchObject`]; [`StoreError::NoSpace`] when growing
    /// the preallocation past quota.
    #[allow(clippy::too_many_arguments)]
    pub fn set_attr(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        mask: SetAttrMask,
        fs_specific: &[u8; nasd_proto::FS_SPECIFIC_ATTR_LEN],
        preallocated: u64,
        cluster_with: Option<ObjectId>,
        now: u64,
    ) -> Result<(), StoreError> {
        // Grow preallocation first (may fail on quota).
        if mask.preallocated {
            self.ensure_capacity(p, o, preallocated)?;
        }
        let meta = self.object_mut(p, o)?;
        if mask.fs_specific {
            // nasd-lint: allow(hot-path-copy, "fixed-size fs-specific attribute block, not payload")
            meta.attrs.fs_specific.copy_from_slice(fs_specific);
        }
        if mask.preallocated {
            meta.attrs.preallocated = preallocated;
        }
        if mask.cluster_with {
            meta.attrs.cluster_with = cluster_with;
        }
        if mask.bump_version {
            meta.attrs.version = meta.attrs.version.bumped();
        }
        meta.attrs.attr_modify_time = now;
        self.wal_log(&WalRecord::SetAttr {
            p,
            o,
            mask,
            fs_specific,
            preallocated,
            cluster_with,
            now,
        })
    }

    /// Read up to `len` bytes at `offset`. Reads past end-of-object are
    /// truncated (short read); a read entirely past the end returns empty.
    ///
    /// # Errors
    ///
    /// Object/partition lookup failures and device errors.
    pub fn read(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        offset: u64,
        len: u64,
        now: u64,
    ) -> Result<ByteRope, StoreError> {
        let bs = self.block_size;
        let meta = object_in(&mut self.partitions, p, o)?;
        meta.attrs.access_time = now;
        let (size, blocks) = (meta.attrs.size, &meta.blocks);
        if offset >= size || len == 0 {
            return Ok(ByteRope::new());
        }
        // Wire integers: the window is clamped to the object anyway, so
        // saturate rather than overflow on a hostile `len`.
        let end = offset.saturating_add(len).min(size);
        let mut out = ByteRope::with_capacity((end - offset).div_ceil(bs as u64) as usize + 1);
        let mut pos = offset;
        while pos < end {
            let lblock = (pos / bs as u64) as usize;
            let within = (pos % bs as u64) as usize;
            let take = (bs - within).min((end - pos) as usize);
            let dev_block = *blocks
                .get(lblock)
                .ok_or(StoreError::Internal("object block map shorter than size"))?;
            let data = self.cache.read_shared(dev_block)?;
            if data.len() < within + take {
                return Err(StoreError::Internal("cached block shorter than block size"));
            }
            // O(1) window of the cache block — the zero-copy read path.
            out.push(data.slice(within..within + take));
            pos += take as u64;
        }
        Ok(out)
    }

    /// Ensure the object has capacity (allocated blocks) for `bytes`.
    fn ensure_capacity(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        bytes: u64,
    ) -> Result<(), StoreError> {
        let bs = self.block_size as u64;
        let need_blocks = bytes.div_ceil(bs);
        let (have, hint, quota_room) = {
            let part = self.partition(p)?;
            let meta = part.objects.get(&o).ok_or(StoreError::NoSuchObject(o))?;
            (
                meta.blocks.len() as u64,
                meta.blocks.last().map(|b| b + 1),
                part.quota - part.used,
            )
        };
        if need_blocks <= have {
            return Ok(());
        }
        let grow = need_blocks - have;
        if grow.saturating_mul(bs) > quota_room {
            return Err(StoreError::NoSpace);
        }
        let new_blocks = self.allocate_blocks(grow, hint)?;
        let part = self.partition_mut(p)?;
        part.used += grow * bs;
        let meta = part.objects.get_mut(&o).ok_or(StoreError::Internal(
            "object vanished during ensure_capacity",
        ))?;
        meta.blocks.extend(new_blocks);
        Ok(())
    }

    /// Write `data` at `offset`, extending the object as needed. Writing
    /// past the current end creates an eager zero-filled gap (the blocks
    /// are allocated).
    ///
    /// # Errors
    ///
    /// Lookup failures, [`StoreError::NoSpace`], device errors.
    pub fn write(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        offset: u64,
        data: &[u8],
        now: u64,
    ) -> Result<u64, StoreError> {
        if data.is_empty() {
            return Ok(0);
        }
        let bs = self.block_size;
        // Wire integer: an end past u64::MAX can never be backed by
        // capacity. Rejected before any state changes.
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(StoreError::NoSpace)?;
        let (old_size, old_cap) = {
            let meta = self.object_mut(p, o)?;
            (meta.attrs.size, meta.blocks.len() as u64 * bs as u64)
        };
        self.ensure_capacity(p, o, end)?;
        // Pre-existing capacity inside the gap may hold stale bytes; the
        // gap must read back as zeros (newly allocated blocks already do).
        if offset > old_size {
            self.zero_range(p, o, old_size, offset.min(old_cap))?;
        }

        // Copy-on-write: any shared block in the written range must be
        // re-homed before modification.
        let first_l = (offset / bs as u64) as usize;
        let last_l = ((end - 1) / bs as u64) as usize;
        for l in first_l..=last_l {
            self.cow_block(p, o, l)?;
        }

        self.write_through(p, o, offset, end, |at, take| data.get(at..at + take))?;

        let meta = self.object_mut(p, o)?;
        meta.attrs.size = meta.attrs.size.max(end);
        meta.attrs.data_modify_time = now;
        self.wal_log(&WalRecord::Write {
            p,
            o,
            offset,
            data,
            now,
        })?;
        Ok(data.len() as u64)
    }

    /// Re-home logical block `l` of the object if its device block is
    /// shared with a snapshot.
    fn cow_block(&mut self, p: PartitionId, o: ObjectId, l: usize) -> Result<(), StoreError> {
        let dev_block = {
            let part = self.partition(p)?;
            let meta = part.objects.get(&o).ok_or(StoreError::NoSuchObject(o))?;
            *meta
                .blocks
                .get(l)
                .ok_or(StoreError::Internal("cow target past object block map"))?
        };
        let shared = self.refcounts.get(&dev_block).copied().unwrap_or(1) > 1;
        if !shared {
            return Ok(());
        }
        // Allocate a fresh block, copy old contents, swap the mapping.
        let new_blocks = self.allocate_blocks(1, Some(dev_block))?;
        let new_block = *new_blocks
            .first()
            .ok_or(StoreError::Internal("allocate_blocks(1) returned nothing"))?;
        // A shared view keeps the old block alive with no copy; the one
        // unavoidable copy-on-write ingest happens inside `cache.write`.
        let old = self.cache.read_shared(dev_block)?;
        self.cache.write(new_block, &old)?;
        // Drop one reference from the old block.
        match self.refcounts.get_mut(&dev_block) {
            Some(rc) => {
                *rc -= 1;
                if *rc == 1 {
                    self.refcounts.remove(&dev_block);
                }
            }
            None => return Err(StoreError::Internal("shared block missing its refcount")),
        }
        let meta = self.object_mut(p, o)?;
        *meta
            .blocks
            .get_mut(l)
            .ok_or(StoreError::Internal("cow target past object block map"))? = new_block;
        Ok(())
    }

    /// Truncate or extend object data to `new_size`. Shrinking frees
    /// whole blocks past the new end (respecting preallocation).
    ///
    /// # Errors
    ///
    /// Lookup failures, [`StoreError::NoSpace`] when extending.
    pub fn resize(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        new_size: u64,
        now: u64,
    ) -> Result<(), StoreError> {
        let bs = self.block_size as u64;
        let (old_size, old_cap) = {
            let meta = self.object_mut(p, o)?;
            (meta.attrs.size, meta.blocks.len() as u64 * bs)
        };
        if new_size > old_size {
            self.ensure_capacity(p, o, new_size)?;
            // Bytes the extension exposes inside pre-existing capacity
            // (a shrunk-then-regrown tail) must read back as zeros.
            self.zero_range(p, o, old_size, new_size.min(old_cap))?;
        }
        let prealloc = {
            let meta = self.object_mut(p, o)?;
            meta.attrs.size = new_size;
            meta.attrs.data_modify_time = now;
            meta.attrs.preallocated
        };
        if new_size < old_size {
            // Free whole blocks beyond max(new_size, preallocated).
            let keep_bytes = new_size.max(prealloc);
            let keep_blocks = keep_bytes.div_ceil(bs) as usize;
            let freed: Vec<u64> = {
                let meta = self.object_mut(p, o)?;
                if meta.blocks.len() > keep_blocks {
                    meta.blocks.split_off(keep_blocks)
                } else {
                    Vec::new()
                }
            };
            let nfreed = freed.len() as u64;
            for b in freed {
                self.release_block(b);
            }
            let part = self.partition_mut(p)?;
            part.used -= nfreed * bs;
        }
        self.wal_log(&WalRecord::Resize {
            p,
            o,
            new_size,
            now,
        })?;
        Ok(())
    }

    /// Construct a copy-on-write version of the object: a new object
    /// sharing all data blocks, which subsequent writes to either copy
    /// un-share block by block (§4.1: "construct a copy-on-write object
    /// version").
    ///
    /// # Errors
    ///
    /// Lookup failures and [`StoreError::NoSpace`] (quota is charged for
    /// the snapshot's logical capacity).
    pub fn snapshot(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        now: u64,
    ) -> Result<ObjectId, StoreError> {
        self.snapshot_as(None, p, o, now)
    }

    /// The one snapshot body; `logged` as in [`Self::create_as`].
    fn snapshot_as(
        &mut self,
        logged: Option<ObjectId>,
        p: PartitionId,
        o: ObjectId,
        now: u64,
    ) -> Result<ObjectId, StoreError> {
        let bs = self.block_size as u64;
        let part = self.partition_mut(p)?;
        if let Some(id) = logged.filter(|id| part.objects.contains_key(id)) {
            return Ok(part.claim(Some(id)));
        }
        let src = part.objects.get(&o).ok_or(StoreError::NoSuchObject(o))?;
        let (mut attrs, blocks) = (src.attrs.clone(), src.blocks.clone());
        part.used = part.used_after(blocks.len() as u64, bs)?;
        let id = part.claim(logged);
        attrs.create_time = now;
        attrs.attr_modify_time = now;
        attrs.version = Version(0);
        for &b in &blocks {
            *self.refcounts.entry(b).or_insert(1) += 1;
        }
        self.partition_mut(p)?
            .objects
            .insert(id, ObjectMeta { attrs, blocks });
        self.wal_log(&WalRecord::Snapshot { p, o, id, now })?;
        Ok(id)
    }

    /// All object ids in a partition, sorted ("a complete list of
    /// allocated object names", §4.1).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchPartition`].
    pub fn list_objects(&self, p: PartitionId) -> Result<Vec<ObjectId>, StoreError> {
        let part = self.partition(p)?;
        let mut ids: Vec<ObjectId> = part.objects.keys().copied().collect();
        ids.sort();
        Ok(ids)
    }

    /// Flush all write-behind data to the device.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.cache.flush()?;
        Ok(())
    }

    // ----- write-ahead log replay -------------------------------------

    /// Re-apply one logged operation during recovery. Replay is
    /// idempotent: operations whose effect is already present (object
    /// exists, partition gone, ...) are skipped, and absolute operations
    /// (write, setattr, resize) converge on re-application — so a log
    /// prefix replayed any number of times lands on the same state.
    ///
    /// # Errors
    ///
    /// Device and internal errors propagate; state-mismatch errors are
    /// the skips described above, not failures.
    pub(crate) fn apply_wal(&mut self, rec: WalRecord<'_>) -> Result<(), StoreError> {
        let benign = |r: Result<(), StoreError>| match r {
            Err(
                StoreError::NoSuchPartition(_)
                | StoreError::NoSuchObject(_)
                | StoreError::PartitionExists(_)
                | StoreError::PartitionNotEmpty(_)
                | StoreError::QuotaBelowUsage { .. },
            ) => Ok(()),
            other => other,
        };
        match rec {
            WalRecord::CreatePartition { p, quota } => benign(self.create_partition(p, quota)),
            WalRecord::ResizePartition { p, quota } => benign(self.resize_partition(p, quota)),
            WalRecord::RemovePartition { p } => benign(self.remove_partition(p)),
            WalRecord::SetKey { p, kind, key } => benign(self.set_working_key(p, kind, key)),
            WalRecord::Create {
                p,
                id,
                preallocate,
                cluster_with,
                now,
            } => benign(
                self.create_as(Some(id), p, preallocate, cluster_with, now)
                    .map(|_| ()),
            ),
            WalRecord::Remove { p, o } => benign(self.remove_object(p, o)),
            WalRecord::SetAttr {
                p,
                o,
                mask,
                fs_specific,
                preallocated,
                cluster_with,
                now,
            } => benign(self.set_attr(p, o, mask, fs_specific, preallocated, cluster_with, now)),
            WalRecord::Write {
                p,
                o,
                offset,
                data,
                now,
            } => benign(self.write(p, o, offset, data, now).map(|_| ())),
            WalRecord::Resize {
                p,
                o,
                new_size,
                now,
            } => benign(self.resize(p, o, new_size, now)),
            WalRecord::Snapshot { p, o, id, now } => {
                benign(self.snapshot_as(Some(id), p, o, now).map(|_| ()))
            }
        }
    }

    fn object_mut(&mut self, p: PartitionId, o: ObjectId) -> Result<&mut ObjectMeta, StoreError> {
        object_in(&mut self.partitions, p, o)
    }
}

/// Object `o`'s metadata, borrowed from the partition table alone so the
/// caller can drive the store's cache while it holds the block map.
fn object_in(
    partitions: &mut HashMap<PartitionId, Partition>,
    p: PartitionId,
    o: ObjectId,
) -> Result<&mut ObjectMeta, StoreError> {
    let part = partitions
        .get_mut(&p)
        .ok_or(StoreError::NoSuchPartition(p))?;
    part.objects.get_mut(&o).ok_or(StoreError::NoSuchObject(o))
}

impl<D: BlockDevice> fmt::Debug for ObjectStore<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectStore")
            .field("partitions", &self.partitions.len())
            .field("free_blocks", &self.allocator.free_blocks())
            .field("block_size", &self.block_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_disk::MemDisk;

    const BS: usize = 8192;
    const P: PartitionId = PartitionId(1);

    fn store() -> ObjectStore<MemDisk> {
        let mut s = ObjectStore::new(MemDisk::new(BS, 4096), 256);
        s.create_partition(P, 64 << 20).unwrap();
        s
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut s = store();
        let o = s.create_object(P, 0, None, 1).unwrap();
        assert!(o.0 >= FIRST_DYNAMIC_OBJECT);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        s.write(P, o, 0, &data, 2).unwrap();
        let back = s.read(P, o, 0, 50_000, 3).unwrap();
        assert_eq!(back, &data[..]);
        let attrs = s.get_attr(P, o, 4).unwrap();
        assert_eq!(attrs.size, 50_000);
        assert_eq!(attrs.data_modify_time, 2);
        assert_eq!(attrs.access_time, 4);
    }

    #[test]
    fn short_read_at_eof() {
        let mut s = store();
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, b"hello", 0).unwrap();
        assert_eq!(s.read(P, o, 3, 100, 0).unwrap(), b"lo");
        assert!(s.read(P, o, 5, 10, 0).unwrap().is_empty());
        assert!(s.read(P, o, 100, 10, 0).unwrap().is_empty());
        assert!(s.read(P, o, 0, 0, 0).unwrap().is_empty());
    }

    #[test]
    fn unaligned_overwrite() {
        let mut s = store();
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; 3 * BS], 0).unwrap();
        // Overwrite a range crossing two block boundaries, unaligned.
        s.write(P, o, 100, &vec![2u8; 2 * BS], 0).unwrap();
        let back = s.read(P, o, 0, 3 * BS as u64, 0).unwrap().to_vec();
        assert!(back[..100].iter().all(|&b| b == 1));
        assert!(back[100..100 + 2 * BS].iter().all(|&b| b == 2));
        assert!(back[100 + 2 * BS..].iter().all(|&b| b == 1));
        // Size unchanged (overwrite within object).
        assert_eq!(s.get_attr(P, o, 0).unwrap().size, 3 * BS as u64);
    }

    #[test]
    fn write_creates_zero_filled_gap() {
        let mut s = store();
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 2 * BS as u64 + 17, b"x", 0).unwrap();
        let back = s.read(P, o, 0, 2 * BS as u64 + 18, 0).unwrap().to_vec();
        assert!(back[..2 * BS + 17].iter().all(|&b| b == 0));
        assert_eq!(back[2 * BS + 17], b'x');
    }

    #[test]
    fn quota_enforced_on_write_and_create() {
        let mut s = ObjectStore::new(MemDisk::new(BS, 4096), 64);
        s.create_partition(P, 3 * BS as u64).unwrap();
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![0u8; 3 * BS], 0).unwrap();
        let err = s.write(P, o, 3 * BS as u64, b"y", 0).unwrap_err();
        assert_eq!(err, StoreError::NoSpace);
        // Creation with preallocation also respects the quota.
        assert_eq!(
            s.create_object(P, BS as u64, None, 0).unwrap_err(),
            StoreError::NoSpace
        );
        let stats = s.partition_stats(P).unwrap();
        assert_eq!(stats.used, 3 * BS as u64);
        assert_eq!(stats.objects, 1);
    }

    #[test]
    fn remove_returns_space() {
        let mut s = store();
        let free0 = s.free_blocks();
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![0u8; 10 * BS], 0).unwrap();
        assert_eq!(s.free_blocks(), free0 - 10);
        s.remove_object(P, o).unwrap();
        assert_eq!(s.free_blocks(), free0);
        assert_eq!(s.partition_stats(P).unwrap().used, 0);
        assert!(matches!(
            s.read(P, o, 0, 1, 0),
            Err(StoreError::NoSuchObject(_))
        ));
    }

    #[test]
    fn preallocation_reserves_blocks() {
        let mut s = store();
        let free0 = s.free_blocks();
        let o = s.create_object(P, 5 * BS as u64, None, 0).unwrap();
        assert_eq!(s.free_blocks(), free0 - 5);
        let attrs = s.get_attr(P, o, 0).unwrap();
        assert_eq!(attrs.preallocated, 5 * BS as u64);
        assert_eq!(attrs.size, 0);
        // Writing within preallocated space allocates nothing new.
        s.write(P, o, 0, &vec![1u8; 5 * BS], 0).unwrap();
        assert_eq!(s.free_blocks(), free0 - 5);
    }

    #[test]
    fn clustering_hint_places_neighbours_near() {
        let mut s = store();
        let a = s.create_object(P, 4 * BS as u64, None, 0).unwrap();
        // Create unrelated far object to move the allocator cursor.
        let _mid = s.create_object(P, 64 * BS as u64, None, 0).unwrap();
        let b = s.create_object(P, 4 * BS as u64, Some(a), 0).unwrap();
        let a_first = {
            let part = s.partition(P).unwrap();
            part.objects[&a].blocks[0]
        };
        let b_first = {
            let part = s.partition(P).unwrap();
            part.objects[&b].blocks[0]
        };
        assert!(
            b_first.abs_diff(a_first) < 80,
            "clustered objects too far: {a_first} vs {b_first}"
        );
    }

    #[test]
    fn snapshot_shares_then_cow_on_write() {
        let mut s = store();
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![7u8; 2 * BS], 0).unwrap();
        let free_after_write = s.free_blocks();
        let snap = s.snapshot(P, o, 1).unwrap();
        // Snapshot allocates no data blocks.
        assert_eq!(s.free_blocks(), free_after_write);
        // But charges quota.
        assert_eq!(s.partition_stats(P).unwrap().used, 4 * BS as u64);

        // Write to the original: one block un-shared.
        s.write(P, o, 10, &[9u8; 20], 2).unwrap();
        assert_eq!(s.free_blocks(), free_after_write - 1);

        // Snapshot still sees old data; original sees new.
        let old = s.read(P, snap, 0, 2 * BS as u64, 3).unwrap().to_vec();
        assert!(old.iter().all(|&b| b == 7));
        let new = s.read(P, o, 10, 20, 3).unwrap().to_vec();
        assert!(new.iter().all(|&b| b == 9));
    }

    #[test]
    fn snapshot_chain_and_removal() {
        let mut s = store();
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; BS], 0).unwrap();
        let s1 = s.snapshot(P, o, 1).unwrap();
        let s2 = s.snapshot(P, o, 2).unwrap();
        // Remove the original: snapshots keep the data alive.
        s.remove_object(P, o).unwrap();
        assert_eq!(s.read(P, s1, 0, 3, 3).unwrap(), [1u8, 1, 1]);
        s.remove_object(P, s1).unwrap();
        assert_eq!(s.read(P, s2, 0, 3, 3).unwrap(), [1u8, 1, 1]);
        let free_before = s.free_blocks();
        s.remove_object(P, s2).unwrap();
        assert_eq!(s.free_blocks(), free_before + 1, "last ref frees the block");
    }

    #[test]
    fn resize_truncate_and_extend() {
        let mut s = store();
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![5u8; 4 * BS], 0).unwrap();
        let free_full = s.free_blocks();
        s.resize(P, o, BS as u64 + 1, 1).unwrap();
        assert_eq!(s.get_attr(P, o, 1).unwrap().size, BS as u64 + 1);
        assert_eq!(s.free_blocks(), free_full + 2, "two whole blocks freed");
        // Data in the surviving range intact.
        assert_eq!(s.read(P, o, 0, 4, 1).unwrap(), &[5u8; 4]);
        // Extend again: zero-filled.
        s.resize(P, o, 3 * BS as u64, 2).unwrap();
        let back = s.read(P, o, 2 * BS as u64, 10, 2).unwrap().to_vec();
        assert!(back.iter().all(|&b| b == 0));
    }

    #[test]
    fn truncate_respects_preallocation() {
        let mut s = store();
        let o = s.create_object(P, 3 * BS as u64, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; 3 * BS], 0).unwrap();
        let free0 = s.free_blocks();
        s.resize(P, o, 0, 1).unwrap();
        // Preallocated capacity is retained.
        assert_eq!(s.free_blocks(), free0);
        assert_eq!(s.get_attr(P, o, 1).unwrap().size, 0);
    }

    #[test]
    fn setattr_updates_selected_fields() {
        let mut s = store();
        let o = s.create_object(P, 0, None, 0).unwrap();
        let mut fs = [0u8; nasd_proto::FS_SPECIFIC_ATTR_LEN];
        fs[0] = 0xaa;
        s.set_attr(P, o, SetAttrMask::fs_specific_only(), &fs, 0, None, 9)
            .unwrap();
        let attrs = s.get_attr(P, o, 9).unwrap();
        assert_eq!(attrs.fs_specific[0], 0xaa);
        assert_eq!(attrs.attr_modify_time, 9);
        assert_eq!(attrs.version, Version(0));

        // Version bump revokes capabilities.
        s.set_attr(P, o, SetAttrMask::bump_version_only(), &fs, 0, None, 10)
            .unwrap();
        assert_eq!(s.peek_attr(P, o).unwrap().version, Version(1));
    }

    #[test]
    fn list_objects_sorted() {
        let mut s = store();
        let a = s.create_object(P, 0, None, 0).unwrap();
        let b = s.create_object(P, 0, None, 0).unwrap();
        assert_eq!(s.list_objects(P).unwrap(), vec![a, b]);
        s.remove_object(P, a).unwrap();
        assert_eq!(s.list_objects(P).unwrap(), vec![b]);
    }

    #[test]
    fn partition_lifecycle() {
        let mut s = store();
        assert_eq!(
            s.create_partition(P, 1).unwrap_err(),
            StoreError::PartitionExists(P)
        );
        let p2 = PartitionId(2);
        s.create_partition(p2, BS as u64).unwrap();
        let o = s.create_object(p2, BS as u64, None, 0).unwrap();
        assert_eq!(
            s.remove_partition(p2).unwrap_err(),
            StoreError::PartitionNotEmpty(p2)
        );
        // Quota shrink below usage rejected.
        assert!(matches!(
            s.resize_partition(p2, 1),
            Err(StoreError::QuotaBelowUsage { .. })
        ));
        s.resize_partition(p2, 10 * BS as u64).unwrap();
        s.remove_object(p2, o).unwrap();
        s.remove_partition(p2).unwrap();
        assert!(matches!(
            s.partition_stats(p2),
            Err(StoreError::NoSuchPartition(_))
        ));
        assert_eq!(s.partition_ids(), vec![P]);
    }

    #[test]
    fn partitions_isolate_namespaces() {
        let mut s = store();
        let p2 = PartitionId(2);
        s.create_partition(p2, 1 << 20).unwrap();
        let o1 = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o1, 0, b"in p1", 0).unwrap();
        // Same numeric id does not exist in p2.
        assert!(matches!(
            s.read(p2, o1, 0, 5, 0),
            Err(StoreError::NoSuchObject(_))
        ));
    }

    #[test]
    fn flush_persists_through_cache_drop() {
        let mut s = store();
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, b"durable", 0).unwrap();
        let before = s.cache().stats().writebacks;
        s.flush().unwrap();
        assert!(s.cache().stats().writebacks > before);
    }

    #[test]
    fn cache_stats_report_cold_vs_warm() {
        let mut s = ObjectStore::new(MemDisk::new(BS, 4096), 4);
        s.create_partition(P, 64 << 20).unwrap();
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![3u8; 16 * BS], 0).unwrap();
        s.flush().unwrap();
        // Cache holds 4 blocks; reading from the start is cold.
        let before = s.cache().stats();
        let _ = s.read(P, o, 0, BS as u64, 0).unwrap();
        let cold = s.cache().stats();
        assert_eq!(cold.misses - before.misses, 1);
        // Re-reading the same block is warm.
        let _ = s.read(P, o, 0, BS as u64, 0).unwrap();
        let warm = s.cache().stats();
        assert_eq!(warm.misses, cold.misses);
        assert_eq!(warm.hits - cold.hits, 1);
    }

    #[test]
    fn error_display_and_source() {
        let e = StoreError::NoSuchObject(ObjectId(9));
        assert_eq!(e.to_string(), "no such object obj-9");
        let e = StoreError::Disk(DiskError::OutOfRange {
            block: 1,
            device_blocks: 1,
        });
        assert!(std::error::Error::source(&e).is_some());
    }
}
