//! Object access and disk space management (§4.1–4.2).
//!
//! Implements the NASD drive's storage core: soft partitions with quotas,
//! a flat namespace of variable-length objects, per-object attributes,
//! lazy extent allocation with clustering hints, copy-on-write object
//! versions, and short reads at end-of-object. All data moves through the
//! write-behind [`BlockCache`], whose [`CacheStats`](crate::CacheStats)
//! count the hits and misses the drive's cost accounting reads.
//!
//! A durable store (write-ahead log on) never writes a block in place:
//! every block a write touches is redirected to a freshly allocated one,
//! written to the media before the log record that names it, and the
//! displaced block is reused only after that record is durable. So each
//! acked byte reaches the media once, and the log holds block maps
//! rather than payloads.

use crate::alloc::{Allocator, Extent};
use crate::cache::BlockCache;
use crate::layout::{Layout, Superblock};
use crate::wal::{BlockRuns, Wal, WalRecord};
use bytes::ByteRope;
use nasd_crypto::KeyKind;
use nasd_disk::{BlockDevice, DiskError};
use nasd_proto::{NasdStatus, ObjectAttributes, ObjectId, PartitionId, SetAttrMask, Version};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;

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

impl ObjectMeta {
    /// After a shrink to `attrs.size`, drop and return the blocks past
    /// both the size and the preallocation, as the live request and its
    /// replay both do.
    fn trim(&mut self, bs: u64) -> Vec<u64> {
        let keep = self.attrs.size.max(self.attrs.preallocated).div_ceil(bs);
        let keep = usize::try_from(keep).unwrap_or(usize::MAX);
        if self.blocks.len() > keep {
            self.blocks.split_off(keep)
        } else {
            Vec::new()
        }
    }
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
    /// Whether the last checkpoint completed. Until one has, every
    /// commit checkpoints instead of appending to the log: a fresh store
    /// has no superblock yet, and the operation a failed checkpoint was
    /// for is in no record, so a later record must not commit (and free
    /// the blocks it displaced) around it.
    pub(crate) checkpointed: bool,
    /// A checkpoint's superblock whose write failed: the media may hold
    /// it, so the next checkpoint stores it again before it reuses the
    /// other index copy.
    pub(crate) unpublished: Option<Superblock>,
    /// Durable stores: blocks filled in the cache since the last commit
    /// (partial, zero-padded or copied), which must reach the media
    /// before the records naming them. Whole blocks are there already.
    pub(crate) unsynced: Vec<u64>,
    /// Durable stores: blocks whose last reference a record not yet
    /// durable dropped. The log or the last checkpoint may still name
    /// them, so they rejoin the allocator only once that record is
    /// committed or checkpointed ([`Self::settle`]).
    pub(crate) freed: Vec<u64>,
    /// Durable stores: blocks that stay mapped but that a record not yet
    /// durable hid from a reader — a shrink left them past the new
    /// size, or a dropped reference left them to fewer objects. The
    /// durable state may still read them, so [`Self::redirect`] does not
    /// write them in place until that record is durable.
    pub(crate) hidden: HashSet<u64>,
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
            checkpointed: false,
            unpublished: None,
            unsynced: Vec::new(),
            freed: Vec::new(),
            hidden: HashSet::new(),
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
    /// Data first: the blocks the pending records name that wait in the
    /// cache (`unsynced`) are written back, in elevator order,
    /// before the records are. Then the blocks those records dropped
    /// rejoin the allocator. A failed commit frees nothing; the next one
    /// retries the same records.
    ///
    /// # Errors
    ///
    /// Device errors; [`StoreError::NoSpace`] when the commit must
    /// checkpoint and the device cannot hold its metadata.
    pub fn wal_commit(&mut self) -> Result<(), StoreError> {
        if !self.wal.has_pending() {
            return Ok(());
        }
        // The log is only meaningful relative to a completed checkpoint:
        // until there is one (the very first puts a superblock on disk),
        // a commit checkpoints, which empties the pending buffer into it.
        if !self.checkpointed {
            return self.checkpoint();
        }
        self.unsynced.sort_unstable();
        for &b in &self.unsynced {
            self.cache.write_back(b)?;
        }
        self.unsynced.clear();
        self.wal.commit(self.cache.device_mut())?;
        self.settle();
        Ok(())
    }

    /// Every record logged so far is durable: the blocks those records
    /// dropped rejoin the allocator, and those they hid may be written
    /// in place again.
    pub(crate) fn settle(&mut self) {
        for b in self.freed.drain(..) {
            self.cache.discard(b);
            self.allocator.free(Extent::new(b, 1));
        }
        self.hidden.clear();
    }

    /// Append a record for an operation that just succeeded (see
    /// [`Self::checkpoint_unless`]).
    fn wal_log(&mut self, rec: &WalRecord<'_>) -> Result<(), StoreError> {
        let appended = self.wal.append(rec)?;
        self.checkpoint_unless(appended)
    }

    /// When the log area had no room for an operation's record, fall back
    /// to a checkpoint — it captures the operation's effect directly and
    /// logically empties the log.
    fn checkpoint_unless(&mut self, appended: bool) -> Result<(), StoreError> {
        if appended {
            Ok(())
        } else {
            self.checkpoint()
        }
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
        let bs = self.block_size as u64;
        let nblocks = preallocate.div_ceil(bs);
        let part = self.partition_mut(p)?;
        let used = part.used_after(nblocks, bs)?;
        let hint = cluster_with
            .and_then(|c| part.objects.get(&c))
            .and_then(|m| m.blocks.first().copied());
        let blocks = self.allocate_blocks(nblocks, hint)?;
        // A durable store leaves preallocated blocks as they are: no byte
        // of them is readable before a write or a resize rewrites it.
        if !self.wal.enabled {
            self.zero_blocks(blocks.iter().copied())?;
        }

        let part = self
            .partitions
            .get_mut(&p)
            .ok_or(StoreError::NoSuchPartition(p))?;
        let id = part.claim(None);
        let mut attrs = ObjectAttributes::new_at(now);
        attrs.preallocated = preallocate;
        attrs.cluster_with = cluster_with;
        part.used = used;
        let meta = part
            .objects
            .entry(id)
            .or_insert(ObjectMeta { attrs, blocks });
        let appended = self.wal.append(&WalRecord::Create {
            p,
            id,
            preallocate,
            cluster_with,
            now,
            blocks: BlockRuns::new(&meta.blocks),
        })?;
        self.checkpoint_unless(appended)?;
        Ok(id)
    }

    /// Allocate `nblocks` device blocks near `hint`. Recycled blocks
    /// still hold whatever a freed object left behind: the caller
    /// overwrites or [zeroes](Self::zero_blocks) each one before it
    /// joins an object's readable bytes.
    fn allocate_blocks(&mut self, nblocks: u64, hint: Option<u64>) -> Result<Vec<u64>, StoreError> {
        if nblocks == 0 {
            return Ok(Vec::new());
        }
        // One contiguous extent when there is one, as the fragmented
        // allocation would find first, without its list of extents.
        if let Some(e) = self.allocator.allocate(nblocks, hint) {
            return Ok((e.start..e.end()).collect());
        }
        let extents = self
            .allocator
            .allocate_fragmented(nblocks, hint)
            .ok_or(StoreError::NoSpace)?;
        let mut blocks = Vec::with_capacity(nblocks as usize);
        for e in extents {
            blocks.extend(e.start..e.end());
        }
        Ok(blocks)
    }

    /// Zero `blocks` in cache, so gaps and extensions over fresh blocks
    /// read back as zeros and log replay reproduces the exact bytes the
    /// live run exposed.
    fn zero_blocks(&mut self, blocks: impl IntoIterator<Item = u64>) -> Result<(), StoreError> {
        // Sized on the first block: a write covering every new block
        // allocates nothing here.
        let mut zeros = Vec::new();
        for b in blocks {
            zeros.resize(self.block_size, 0);
            self.cache.write(b, &zeros)?;
        }
        Ok(())
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

    /// Drop one reference to `b`; the last one frees it — at once, or on
    /// a durable store once the dropping record is durable.
    fn release_block(&mut self, b: u64) {
        match self.refcounts.get_mut(&b) {
            Some(rc) if *rc > 1 => {
                *rc -= 1;
                if *rc == 1 {
                    self.refcounts.remove(&b);
                }
                if self.wal.enabled {
                    self.hidden.insert(b);
                }
            }
            _ => {
                self.refcounts.remove(&b);
                if self.wal.enabled {
                    self.freed.push(b);
                } else {
                    self.cache.discard(b);
                    self.allocator.free(Extent::new(b, 1));
                }
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

    /// The device blocks holding the object's logical blocks, in order
    /// (preallocated capacity included), for diagnostics and tests.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchObject`] / [`StoreError::NoSuchPartition`].
    pub fn object_blocks(&self, p: PartitionId, o: ObjectId) -> Result<&[u64], StoreError> {
        let part = self.partition(p)?;
        let meta = part.objects.get(&o).ok_or(StoreError::NoSuchObject(o))?;
        Ok(&meta.blocks)
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
        let had = self.object_mut(p, o)?.blocks.len();
        // Grow preallocation first (may fail on quota).
        if mask.preallocated {
            self.ensure_capacity(p, o, preallocated, 0..0)?;
        }
        let meta = object_in(&mut self.partitions, p, o)?;
        set_attrs(
            &mut meta.attrs,
            mask,
            fs_specific,
            preallocated,
            cluster_with,
            now,
        );
        let appended = self.wal.append(&WalRecord::SetAttr {
            p,
            o,
            mask,
            fs_specific,
            preallocated,
            cluster_with,
            now,
            blocks: BlockRuns::new(meta.blocks.get(had..).unwrap_or_default()),
        })?;
        self.checkpoint_unless(appended)
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
    /// New blocks are zeroed, except those lying wholly inside
    /// `overwritten`: object bytes the caller writes next. A durable
    /// store zeroes none: it rewrites a block before exposing any byte.
    fn ensure_capacity(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        bytes: u64,
        overwritten: Range<u64>,
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
        let covered = |l: u64| overwritten.start <= l * bs && (l + 1) * bs <= overwritten.end;
        if !self.wal.enabled {
            self.zero_blocks(
                (have..)
                    .zip(&new_blocks)
                    .filter(|&(l, _)| !covered(l))
                    .map(|(_, &b)| b),
            )?;
        }
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
        if self.wal.enabled {
            // A gap past the end reads back as zeros.
            let (first, blocks) = self.redirect(p, o, offset.min(old_size), offset, data)?;
            let meta = self.object_mut(p, o)?;
            meta.attrs.size = meta.attrs.size.max(end);
            meta.attrs.data_modify_time = now;
            let size = meta.attrs.size;
            self.wal_log(&WalRecord::Write {
                p,
                o,
                size,
                first,
                blocks: BlockRuns::new(&blocks),
                now,
            })?;
            return Ok(data.len() as u64);
        }
        self.ensure_capacity(p, o, end, offset..end)?;
        // Pre-existing capacity inside the gap may hold stale bytes; the
        // gap must read back as zeros (newly allocated blocks outside the
        // write already do).
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
        Ok(data.len() as u64)
    }

    /// The durable write path: rewrite object bytes `[from, offset +
    /// data.len())` — zeros up to `offset`, then `data` — so that no
    /// byte the log or the last checkpoint may read is overwritten. A
    /// block holding bytes below the object's size, shared with a
    /// snapshot or [hidden](Self::hidden) goes to a freshly allocated
    /// block; its bytes outside the range are carried over
    /// (read-modify-write) and the displaced block is released. Any
    /// other mapped block — preallocated capacity, or a tail an earlier
    /// shrink left — no reader sees before the record lands, so it is
    /// written in place and named again.
    ///
    /// Returns the first rewritten logical block and the blocks that now
    /// hold the range, for the caller's log record.
    /// [`StoreError::NoSpace`] when the quota or the device cannot supply
    /// the fresh blocks; then nothing has changed.
    fn redirect(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        from: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<(u64, Vec<u64>), StoreError> {
        let bs = self.block_size as u64;
        let first = from / bs;
        let last = offset.saturating_add(data.len() as u64).div_ceil(bs);
        let (size, have, quota_room, needed) = {
            let part = self.partition(p)?;
            let meta = part.objects.get(&o).ok_or(StoreError::NoSuchObject(o))?;
            let moved = (first..last).filter(|&l| self.in_place(meta, l).is_none());
            (
                meta.attrs.size,
                meta.blocks.len() as u64,
                part.quota - part.used,
                moved.count() as u64,
            )
        };
        let grow = last.saturating_sub(have);
        if grow.saturating_mul(bs) > quota_room {
            return Err(StoreError::NoSpace);
        }
        // First fit from the device's start: the blocks the last commits
        // released are taken again first, so the set of blocks in use
        // stays compact instead of sweeping the whole device.
        let mut targets = self.allocate_blocks(needed, None)?;
        if needed < last - first {
            // The blocks written in place keep their places.
            let part = self.partition(p)?;
            let meta = part.objects.get(&o).ok_or(StoreError::NoSuchObject(o))?;
            let mut fresh = targets.into_iter();
            targets = (first..last)
                .filter_map(|l| self.in_place(meta, l).or_else(|| fresh.next()))
                .collect();
        }
        if let Err(e) = self.fill_fresh(p, o, first, &targets, from, offset, data, size) {
            let blocks = &object_in(&mut self.partitions, p, o)?.blocks;
            for (l, &b) in (first as usize..).zip(&targets) {
                if blocks.get(l) != Some(&b) {
                    self.cache.discard(b);
                    self.allocator.free(Extent::new(b, 1));
                }
            }
            return Err(e);
        }
        for (l, &b) in (first as usize..).zip(&targets) {
            let blocks = &mut object_in(&mut self.partitions, p, o)?.blocks;
            match blocks.get_mut(l) {
                Some(slot) if *slot == b => {}
                Some(slot) => {
                    let old = std::mem::replace(slot, b);
                    self.release_block(old);
                }
                None => blocks.push(b),
            }
        }
        self.partition_mut(p)?.used += grow * bs;
        // The blocks `data` does not wholly cover wait in the cache.
        let end = offset.saturating_add(data.len() as u64);
        let cached = (first..)
            .zip(&targets)
            .filter(|&(l, _)| l * bs < offset || end < (l + 1) * bs);
        self.unsynced.extend(cached.map(|(_, &b)| b));
        Ok((first, targets))
    }

    /// The device block of logical block `l` of `meta`, if a
    /// [redirect](Self::redirect) may rewrite it in place: it lies
    /// wholly at or past the object's size, and neither a snapshot nor
    /// a reader of the durable state sees it.
    fn in_place(&self, meta: &ObjectMeta, l: u64) -> Option<u64> {
        let b = *meta.blocks.get(usize::try_from(l).ok()?)?;
        let unseen = !self.refcounts.contains_key(&b) && !self.hidden.contains(&b);
        (l * self.block_size as u64 >= meta.attrs.size && unseen).then_some(b)
    }

    /// Fill the `fresh` blocks of a [redirect](Self::redirect), which
    /// hold logical blocks `first..` of an object of `size` bytes. A
    /// block written in place is its own fresh block.
    #[allow(clippy::too_many_arguments)]
    fn fill_fresh(
        &mut self,
        p: PartitionId,
        o: ObjectId,
        first: u64,
        fresh: &[u64],
        from: u64,
        offset: u64,
        data: &[u8],
        size: u64,
    ) -> Result<(), StoreError> {
        let bs = self.block_size as u64;
        let end = offset.saturating_add(data.len() as u64);
        let mut zeros = Vec::new();
        for (l, &to) in (first..).zip(fresh) {
            let (start, stop) = (l * bs, (l + 1) * bs);
            let (ds, de) = (offset.max(start), end.min(stop));
            let (at, chunk) = if ds < de {
                let chunk = data
                    .get((ds - offset) as usize..(de - offset) as usize)
                    .ok_or(StoreError::Internal("write source shorter than extent"))?;
                ((ds - start) as usize, chunk)
            } else {
                (0, <&[u8]>::default())
            };
            let blocks = &object_in(&mut self.partitions, p, o)?.blocks;
            let old = usize::try_from(l).ok().and_then(|l| blocks.get(l).copied());
            let shared = old.is_some_and(|b| self.refcounts.get(&b).copied().unwrap_or(1) > 1);
            // Old bytes below the size, outside the rewritten range.
            let carried = start < from.min(size) || end < stop.min(size);
            match old {
                Some(old) if old == to => {}
                // A snapshot keeps the old block: copy it, as `cow_block`
                // does.
                Some(old) if carried && shared => {
                    let bytes = self.cache.read_shared(old)?;
                    self.cache.write(to, &bytes)?;
                }
                Some(old) if carried => self.cache.rename(old, to)?,
                // Not carried: no byte of the old block is read again. Its
                // entry, if any, goes when the commit frees it (`settle`).
                _ => {}
            }
            let (zs, ze) = (from.max(start), offset.min(stop));
            if carried && zs < ze {
                zeros.resize(self.block_size, 0);
                let gap = zeros.get(..(ze - zs) as usize).unwrap_or_default();
                self.cache.write_partial(to, (zs - start) as usize, gap)?;
            } else if !carried && chunk.len() < self.block_size {
                // Zeros around the data, the gap's included.
                zeros.resize(self.block_size, 0);
                self.cache.write(to, &zeros)?;
            }
            if chunk.len() == self.block_size {
                // Around the cache: the request's bytes reach the device
                // now, before the record naming them is appended.
                self.cache.write_direct(to, chunk)?;
            } else if !chunk.is_empty() {
                self.cache.write_partial(to, at, chunk)?;
            }
        }
        Ok(())
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
        self.release_block(dev_block);
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
        let (mut first, mut named) = (0, Vec::new());
        if new_size > old_size && self.wal.enabled {
            (first, named) = self.redirect(p, o, old_size, new_size, &[])?;
        } else if new_size > old_size {
            self.ensure_capacity(p, o, new_size, 0..0)?;
            // Bytes the extension exposes inside pre-existing capacity
            // (a shrunk-then-regrown tail) must read back as zeros.
            self.zero_range(p, o, old_size, new_size.min(old_cap))?;
        }
        let meta = object_in(&mut self.partitions, p, o)?;
        meta.attrs.size = new_size;
        meta.attrs.data_modify_time = now;
        if new_size < old_size {
            let freed = meta.trim(bs);
            if self.wal.enabled {
                // Kept blocks that held bytes below the old size.
                let (from, to) = (new_size.div_ceil(bs), old_size.div_ceil(bs));
                let kept = meta.blocks.iter().skip(from as usize);
                self.hidden.extend(kept.take((to - from) as usize));
            }
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
            first,
            blocks: BlockRuns::new(&named),
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
        let bs = self.block_size as u64;
        let part = self.partition_mut(p)?;
        let src = part.objects.get(&o).ok_or(StoreError::NoSuchObject(o))?;
        let (mut attrs, blocks) = (src.attrs.clone(), src.blocks.clone());
        part.used = part.used_after(blocks.len() as u64, bs)?;
        let id = part.claim(None);
        snapshot_attrs(&mut attrs, now);
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

    /// Re-apply one logged operation during recovery, on top of the
    /// checkpoint of its epoch. Replay only sets metadata — names,
    /// attributes and block maps as the record gives them. It allocates
    /// nothing: the allocator, the snapshot reference counts and each
    /// partition's usage are rebuilt from the final block maps once the
    /// log is replayed. And it
    /// reads no data block: every block a record names reached the media
    /// before the record did. A record whose partition or object is gone
    /// is skipped.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for a record no live run could have
    /// written (more blocks than the device holds, a splice past the end
    /// of a block map).
    pub(crate) fn apply_wal<'r>(&mut self, rec: WalRecord<'r>) -> Result<(), StoreError> {
        let bs = self.block_size as u64;
        let device_blocks = self.layout.total_blocks;
        let listed = |blocks: BlockRuns<'r>| {
            if blocks.len() > device_blocks {
                return Err(StoreError::Corrupt(
                    "log record names more blocks than the device holds",
                ));
            }
            Ok(blocks.iter())
        };
        let benign = |r: Result<(), StoreError>| match r {
            Err(
                StoreError::NoSuchPartition(_)
                | StoreError::PartitionExists(_)
                | StoreError::PartitionNotEmpty(_),
            ) => Ok(()),
            other => other,
        };
        match rec {
            WalRecord::CreatePartition { p, quota } => {
                return benign(self.create_partition(p, quota));
            }
            // Only a quota the live drive accepted is logged. Usage is
            // not tracked until the log is replayed, so it is not
            // checked again.
            WalRecord::ResizePartition { p, quota } => {
                if let Some(part) = self.partitions.get_mut(&p) {
                    part.quota = quota;
                }
            }
            WalRecord::RemovePartition { p } => return benign(self.remove_partition(p)),
            WalRecord::SetKey { p, kind, key } => {
                return benign(self.set_working_key(p, kind, key));
            }
            WalRecord::Create {
                p,
                id,
                preallocate,
                cluster_with,
                now,
                blocks,
            } => {
                let blocks = listed(blocks)?.collect();
                let Some(part) = self.partitions.get_mut(&p) else {
                    return Ok(());
                };
                part.claim(Some(id));
                let mut attrs = ObjectAttributes::new_at(now);
                attrs.preallocated = preallocate;
                attrs.cluster_with = cluster_with;
                part.objects.insert(id, ObjectMeta { attrs, blocks });
            }
            WalRecord::Remove { p, o } => {
                if let Some(part) = self.partitions.get_mut(&p) {
                    part.objects.remove(&o);
                }
            }
            WalRecord::SetAttr {
                p,
                o,
                mask,
                fs_specific,
                preallocated,
                cluster_with,
                now,
                blocks,
            } => {
                let blocks = listed(blocks)?;
                let Some(part) = self.partitions.get_mut(&p) else {
                    return Ok(());
                };
                if let Some(meta) = part.objects.get_mut(&o) {
                    set_attrs(
                        &mut meta.attrs,
                        mask,
                        fs_specific,
                        preallocated,
                        cluster_with,
                        now,
                    );
                    meta.blocks.extend(blocks);
                }
            }
            WalRecord::Write {
                p,
                o,
                size,
                first,
                blocks,
                now,
            }
            | WalRecord::Resize {
                p,
                o,
                new_size: size,
                first,
                blocks,
                now,
            } => {
                let blocks = listed(blocks)?;
                let Some(part) = self.partitions.get_mut(&p) else {
                    return Ok(());
                };
                let Some(meta) = part.objects.get_mut(&o) else {
                    return Ok(());
                };
                let had = meta.blocks.len();
                let first = usize::try_from(first).ok().filter(|&l| l <= had).ok_or(
                    StoreError::Corrupt("log record splices past the end of a block map"),
                )?;
                for (l, b) in (first..).zip(blocks) {
                    match meta.blocks.get_mut(l) {
                        Some(slot) => *slot = b,
                        None => meta.blocks.push(b),
                    }
                }
                let shrunk = size < meta.attrs.size;
                meta.attrs.size = size;
                meta.attrs.data_modify_time = now;
                if shrunk {
                    meta.trim(bs);
                }
            }
            WalRecord::Snapshot { p, o, id, now } => {
                let Some(part) = self.partitions.get_mut(&p) else {
                    return Ok(());
                };
                let Some(src) = part.objects.get(&o) else {
                    return Ok(());
                };
                let (mut attrs, blocks) = (src.attrs.clone(), src.blocks.clone());
                snapshot_attrs(&mut attrs, now);
                part.claim(Some(id));
                part.objects.insert(id, ObjectMeta { attrs, blocks });
            }
        }
        Ok(())
    }

    fn object_mut(&mut self, p: PartitionId, o: ObjectId) -> Result<&mut ObjectMeta, StoreError> {
        object_in(&mut self.partitions, p, o)
    }
}

/// Apply a `SetAttr`'s selected fields, as the live request and its
/// replay both do.
fn set_attrs(
    attrs: &mut ObjectAttributes,
    mask: SetAttrMask,
    fs_specific: &[u8; nasd_proto::FS_SPECIFIC_ATTR_LEN],
    preallocated: u64,
    cluster_with: Option<ObjectId>,
    now: u64,
) {
    if mask.fs_specific {
        // nasd-lint: allow(hot-path-copy, "fixed-size fs-specific attribute block, not payload")
        attrs.fs_specific.copy_from_slice(fs_specific);
    }
    if mask.preallocated {
        attrs.preallocated = preallocated;
    }
    if mask.cluster_with {
        attrs.cluster_with = cluster_with;
    }
    if mask.bump_version {
        attrs.version = attrs.version.bumped();
    }
    attrs.attr_modify_time = now;
}

/// A snapshot's attributes: its source's, as a new version made `now`.
fn snapshot_attrs(attrs: &mut ObjectAttributes, now: u64) {
    attrs.create_time = now;
    attrs.attr_modify_time = now;
    attrs.version = Version(0);
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

    /// A [`MemDisk`] whose writes to blocks below `fail_below` fail, as
    /// does the next write to `fail_block`, and whose reads fail while
    /// `fail_reads` is set. `written` logs the blocks written.
    struct Failing {
        disk: MemDisk,
        fail_below: u64,
        fail_block: Option<u64>,
        fail_reads: bool,
        written: Vec<u64>,
    }

    impl BlockDevice for Failing {
        fn block_size(&self) -> usize {
            self.disk.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.disk.num_blocks()
        }
        fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
            if self.fail_reads {
                return Err(DiskError::PowerFailure);
            }
            self.disk.read_block(block, buf)
        }
        fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
            if block < self.fail_below || self.fail_block.take_if(|&mut b| b == block).is_some() {
                return Err(DiskError::PowerFailure);
            }
            self.written.push(block);
            self.disk.write_block(block, data)
        }
    }

    /// A formatted durable store over `blocks` blocks.
    fn durable(blocks: u64) -> ObjectStore<Failing> {
        let disk = Failing {
            disk: MemDisk::new(BS, blocks),
            fail_below: 0,
            fail_block: None,
            fail_reads: false,
            written: Vec::new(),
        };
        let mut s = ObjectStore::new(disk, 64);
        s.enable_wal(true);
        s.create_partition(P, 64 << 20).unwrap();
        s.wal_commit().unwrap();
        s
    }

    fn blocks_of<D: BlockDevice>(s: &ObjectStore<D>, o: ObjectId) -> Vec<u64> {
        s.partitions[&P].objects[&o].blocks.clone()
    }

    fn on_media(s: &ObjectStore<Failing>, block: u64) -> Vec<u8> {
        let mut buf = vec![0u8; BS];
        s.cache().device().disk.read_block(block, &mut buf).unwrap();
        buf
    }

    #[test]
    fn a_durable_write_lands_in_fresh_blocks_before_its_record() {
        let mut s = durable(4096);
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; 3 * BS], 1).unwrap();
        s.wal_commit().unwrap();
        let old = blocks_of(&s, o);
        // Unaligned: a partial head block, a whole one, a partial tail.
        s.write(P, o, 100, &vec![2u8; 2 * BS], 2).unwrap();
        let new = blocks_of(&s, o);
        assert!(new.iter().all(|b| !old.contains(b)), "{old:?} -> {new:?}");
        assert_eq!(on_media(&s, old[0]), vec![1u8; BS], "old block untouched");
        s.wal_commit().unwrap();
        let mut want = vec![1u8; 3 * BS];
        want[100..100 + 2 * BS].fill(2);
        for (i, &b) in new.iter().enumerate() {
            assert_eq!(on_media(&s, b), want[i * BS..(i + 1) * BS], "block {i}");
        }
        assert_eq!(s.read(P, o, 0, 3 * BS as u64, 3).unwrap(), &want[..]);
        assert_eq!(s.free_blocks(), 4096 - s.layout.data_start - 3);
    }

    #[test]
    fn a_displaced_block_is_reused_only_after_its_record_commits() {
        let mut s = durable(4096);
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; 2 * BS], 1).unwrap();
        s.wal_commit().unwrap();
        let free0 = s.free_blocks();
        let old = blocks_of(&s, o)[0];
        s.write(P, o, 0, &vec![2u8; BS], 2).unwrap();
        assert_ne!(blocks_of(&s, o)[0], old, "redirected");
        assert_eq!(
            s.free_blocks(),
            free0 - 1,
            "held until the record is durable"
        );
        // The data block lands; the log write fails.
        s.cache.device_mut().fail_below = s.layout.data_start;
        assert!(s.wal_commit().is_err());
        assert_eq!(s.free_blocks(), free0 - 1, "a failed commit frees nothing");
        assert_eq!(on_media(&s, old), vec![1u8; BS]);
        s.cache.device_mut().fail_below = 0;
        s.wal_commit().unwrap();
        assert_eq!(s.free_blocks(), free0, "the commit returned it");
        assert!(s.freed.is_empty());
    }

    #[test]
    fn a_durable_overwrite_without_fresh_blocks_is_refused_whole() {
        // A filler preallocates all but 40 data blocks; an object of 30
        // leaves 10 free, too few to redirect a 16-block overwrite.
        let mut s = durable(4096);
        let data_blocks = s.free_blocks();
        let o = s.create_object(P, 0, None, 0).unwrap();
        let filler = s
            .create_object(P, (data_blocks - 40) * BS as u64, None, 0)
            .unwrap();
        s.write(P, o, 0, &vec![1u8; 30 * BS], 1).unwrap();
        s.wal_commit().unwrap();
        let (blocks, free, used) = (
            blocks_of(&s, o),
            s.free_blocks(),
            s.partition_stats(P).unwrap().used,
        );
        let (logged, attrs) = (s.wal_durable_bytes(), s.peek_attr(P, o).unwrap().clone());
        assert_eq!(
            s.write(P, o, 5, &vec![2u8; 16 * BS - 10], 2),
            Err(StoreError::NoSpace)
        );
        assert_eq!(s.peek_attr(P, o).unwrap(), &attrs);
        assert_eq!(blocks_of(&s, o), blocks);
        assert_eq!(s.free_blocks(), free);
        assert_eq!(s.partition_stats(P).unwrap().used, used);
        assert!(!s.wal.has_pending() && s.unsynced.is_empty() && s.freed.is_empty());
        s.wal_commit().unwrap();
        assert_eq!(s.wal_durable_bytes(), logged, "nothing was logged");
        assert_eq!(
            s.read(P, o, 0, 30 * BS as u64, 3).unwrap(),
            &[1u8; 30 * BS][..]
        );
        // A smaller overwrite still fits.
        s.write(P, o, 5, &vec![2u8; 8 * BS], 4).unwrap();
        s.remove_object(P, filler).unwrap();
    }

    #[test]
    fn a_durable_overwrite_leaves_the_snapshot_its_block() {
        let mut s = durable(4096);
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![7u8; 2 * BS], 0).unwrap();
        let snap = s.snapshot(P, o, 1).unwrap();
        s.wal_commit().unwrap();
        let shared = blocks_of(&s, o);
        assert_eq!(blocks_of(&s, snap), shared);
        s.write(P, o, 10, &[9u8; 20], 2).unwrap();
        s.wal_commit().unwrap();
        assert_eq!(
            blocks_of(&s, snap),
            shared,
            "the snapshot keeps both blocks"
        );
        assert_ne!(blocks_of(&s, o)[0], shared[0]);
        assert!(!s.refcounts.contains_key(&shared[0]), "one reference left");
        assert_eq!(s.refcounts.get(&shared[1]), Some(&2));
        assert!(s
            .read(P, snap, 0, 2 * BS as u64, 3)
            .unwrap()
            .to_vec()
            .iter()
            .all(|&b| b == 7));
        let mut want = [7u8; 40];
        want[10..30].fill(9);
        assert_eq!(s.read(P, o, 0, 40, 3).unwrap(), &want[..]);
    }

    #[test]
    fn a_durable_write_fills_preallocated_blocks_in_place() {
        // 20 preallocated blocks, 5 free: growing into the reservation
        // takes no block from the device.
        let mut s = durable(4096);
        let o = s.create_object(P, 20 * BS as u64, None, 0).unwrap();
        let filler = s.free_blocks() - 5;
        s.create_object(P, filler * BS as u64, None, 0).unwrap();
        s.wal_commit().unwrap();
        let reserved = blocks_of(&s, o);
        let data: Vec<u8> = (0..12 * BS - 100).map(|i| (i % 251) as u8).collect();
        s.write(P, o, 100, &data, 1).unwrap();
        s.resize(P, o, 16 * BS as u64, 2).unwrap();
        s.wal_commit().unwrap();
        assert_eq!(blocks_of(&s, o), reserved);
        assert_eq!(s.free_blocks(), 5);
        let mut want = vec![0u8; 16 * BS];
        want[100..12 * BS].copy_from_slice(&data);
        let mut re = ObjectStore::open(s.cache().device().disk.clone(), 64).unwrap();
        assert_eq!(re.read(P, o, 0, 16 * BS as u64, 3).unwrap(), &want[..]);
    }

    #[test]
    fn a_failed_redirect_keeps_the_blocks_it_would_write_in_place() {
        let mut s = durable(4096);
        let o = s.create_object(P, 2 * BS as u64, None, 0).unwrap();
        s.write(P, o, 0, &[1u8; 100], 1).unwrap();
        s.wal_commit().unwrap();
        let disk = Failing {
            disk: s.cache().device().disk.clone(),
            fail_below: 0,
            fail_block: None,
            fail_reads: false,
            written: Vec::new(),
        };
        let mut s = ObjectStore::open(disk, 64).unwrap();
        s.enable_wal(true);
        let (blocks, free) = (blocks_of(&s, o), s.free_blocks());
        // Block 0 must be read to carry its first 50 bytes over; block 1
        // would be written in place.
        s.cache.device_mut().fail_reads = true;
        assert!(s.write(P, o, 50, &vec![2u8; BS], 2).is_err());
        s.cache.device_mut().fail_reads = false;
        assert_eq!(blocks_of(&s, o), blocks);
        assert_eq!(s.free_blocks(), free, "block 1 stays the object's");
    }

    #[test]
    fn a_block_an_uncommitted_shrink_hid_is_not_written_in_place() {
        let mut s = durable(4096);
        let o = s.create_object(P, 2 * BS as u64, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; 2 * BS], 1).unwrap();
        s.wal_commit().unwrap();
        let old = blocks_of(&s, o);
        // The shrink's commit fails: the durable object still reads both
        // blocks, though the live one keeps them past its size.
        s.resize(P, o, 0, 2).unwrap();
        s.cache.device_mut().fail_below = s.layout.data_start;
        assert!(s.wal_commit().is_err());
        s.write(P, o, BS as u64, &vec![2u8; BS], 3).unwrap();
        assert!(blocks_of(&s, o).iter().all(|b| !old.contains(b)));
        assert!(s.wal_commit().is_err());
        let mut re = ObjectStore::open(s.cache().device().disk.clone(), 64).unwrap();
        assert_eq!(
            re.read(P, o, 0, 2 * BS as u64, 4).unwrap(),
            &[1u8; 2 * BS][..]
        );
        s.cache.device_mut().fail_below = 0;
        s.wal_commit().unwrap();
        assert!(s.hidden.is_empty());
        // Once the shrink is durable, its tail is written in place.
        s.resize(P, o, 0, 5).unwrap();
        s.wal_commit().unwrap();
        let tail = blocks_of(&s, o);
        s.write(P, o, 0, &[3u8; 10], 6).unwrap();
        assert_eq!(blocks_of(&s, o), tail);
    }

    #[test]
    fn a_block_a_removed_snapshot_still_holds_durably_is_not_written_in_place() {
        let mut s = durable(4096);
        let o = s.create_object(P, 2 * BS as u64, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; 2 * BS], 1).unwrap();
        let snap = s.snapshot(P, o, 2).unwrap();
        s.resize(P, o, 0, 3).unwrap();
        s.wal_commit().unwrap();
        let old = blocks_of(&s, o);
        // The snapshot's removal drops the last other reference, but
        // until it is durable the snapshot still reads both blocks.
        s.remove_object(P, snap).unwrap();
        s.write(P, o, 0, &vec![2u8; 2 * BS], 4).unwrap();
        assert!(blocks_of(&s, o).iter().all(|b| !old.contains(b)));
        assert_eq!(on_media(&s, old[0]), vec![1u8; BS]);
        s.wal_commit().unwrap();
    }

    #[test]
    fn a_whole_block_durable_write_goes_around_the_cache_before_its_record() {
        let mut s = durable(4096);
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; 3 * BS], 1).unwrap();
        s.wal_commit().unwrap();
        let _ = s.read(P, o, 0, BS as u64, 2).unwrap();
        let resident: Vec<bool> = (0..4096).map(|b| s.cache().contains(b)).collect();
        s.cache.device_mut().written.clear();
        s.write(P, o, 0, &vec![2u8; 3 * BS], 3).unwrap();
        let new = blocks_of(&s, o);
        let now: Vec<bool> = (0..4096).map(|b| s.cache().contains(b)).collect();
        assert_eq!(now, resident, "cache residency moved");
        assert_eq!(
            s.cache().device().written,
            new,
            "written by the write itself"
        );
        for &b in &new {
            assert_eq!(on_media(&s, b), vec![2u8; BS]);
        }
        assert!(
            s.unsynced.is_empty(),
            "nothing left for the commit to write back"
        );
        s.cache.device_mut().written.clear();
        s.wal_commit().unwrap();
        let data_start = s.layout.data_start;
        assert!(s.cache().device().written.iter().all(|&b| b < data_start));
        assert_eq!(
            s.read(P, o, 0, 3 * BS as u64, 4).unwrap(),
            &[2u8; 3 * BS][..]
        );
    }

    #[test]
    fn a_cached_block_overwritten_in_place_reads_back_the_new_bytes() {
        let mut s = durable(4096);
        let o = s.create_object(P, 2 * BS as u64, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; 2 * BS], 1).unwrap();
        s.wal_commit().unwrap();
        let view = s.read(P, o, BS as u64, BS as u64, 2).unwrap();
        // Once the shrink is durable, preallocated block 1 lies past the
        // size and is rewritten in place while the cache holds it.
        s.resize(P, o, BS as u64, 3).unwrap();
        s.wal_commit().unwrap();
        let tail = blocks_of(&s, o)[1];
        assert!(s.cache().contains(tail));
        s.write(P, o, BS as u64, &vec![2u8; BS], 4).unwrap();
        assert_eq!(blocks_of(&s, o)[1], tail, "written in place");
        assert_eq!(
            s.read(P, o, BS as u64, BS as u64, 5).unwrap(),
            &[2u8; BS][..]
        );
        assert_eq!(view, &[1u8; BS][..], "a view taken before keeps its bytes");
    }

    #[test]
    fn a_whole_block_write_whose_device_write_fails_is_refused_whole() {
        let mut s = durable(4096);
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; 3 * BS], 1).unwrap();
        s.wal_commit().unwrap();
        let (blocks, free, used) = (
            blocks_of(&s, o),
            s.free_blocks(),
            s.partition_stats(P).unwrap().used,
        );
        let (logged, attrs) = (s.wal_durable_bytes(), s.peek_attr(P, o).unwrap().clone());
        // First fit: the overwrite takes the three blocks after the
        // object's; the second of them fails.
        assert_eq!(blocks, [0, 1, 2].map(|i| s.layout.data_start + i));
        s.cache.device_mut().fail_block = Some(s.layout.data_start + 4);
        assert!(s.write(P, o, 0, &vec![2u8; 4 * BS], 2).is_err());
        assert_eq!(s.cache().device().fail_block, None, "the write was tried");
        assert_eq!(s.peek_attr(P, o).unwrap(), &attrs);
        assert_eq!(blocks_of(&s, o), blocks);
        assert_eq!(s.free_blocks(), free);
        assert_eq!(s.partition_stats(P).unwrap().used, used);
        assert!(!s.wal.has_pending() && s.unsynced.is_empty() && s.freed.is_empty());
        s.wal_commit().unwrap();
        assert_eq!(s.wal_durable_bytes(), logged, "nothing was logged");
        let mut re = ObjectStore::open(s.cache().device().disk.clone(), 64).unwrap();
        assert_eq!(
            re.read(P, o, 0, 4 * BS as u64, 3).unwrap(),
            &[1u8; 3 * BS][..]
        );
    }

    #[test]
    fn a_checkpoint_whose_superblock_may_have_landed_is_finished_first() {
        let mut s = durable(4096);
        let o = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &[1u8; 100], 1).unwrap();
        s.wal_commit().unwrap();
        // The primary superblock lands, the secondary does not: the media
        // now names the new checkpoint, though the store's log has not
        // moved to its epoch.
        s.cache.device_mut().fail_block = Some(1);
        assert!(s.checkpoint().is_err());
        s.write(P, o, 100, &[2u8; 100], 2).unwrap();
        s.wal_commit().unwrap();
        let mut want = [1u8; 200];
        want[100..].fill(2);
        let mut re = ObjectStore::open(s.cache().device().disk.clone(), 64).unwrap();
        assert_eq!(re.read(P, o, 0, 200, 3).unwrap(), &want[..]);
    }

    #[test]
    fn no_record_commits_around_an_operation_whose_checkpoint_failed() {
        let mut s = durable(4096);
        let o = s.create_object(P, 0, None, 0).unwrap();
        let other = s.create_object(P, 0, None, 0).unwrap();
        s.write(P, o, 0, &vec![1u8; BS], 1).unwrap();
        s.wal_commit().unwrap();
        let old = blocks_of(&s, o)[0];
        // Fill the log with records for no object (replay skips them)
        // until a one-block write's record no longer fits and a record
        // naming no block still does. Each run adds the same bytes.
        let filler = |s: &mut ObjectStore<Failing>, runs: u64| {
            let blocks: Vec<u64> = (0..runs).map(|i| 2 * i).collect();
            let before = s.wal_durable_bytes();
            let rec = WalRecord::Write {
                p: P,
                o: ObjectId(u64::MAX),
                size: 0,
                first: 0,
                blocks: BlockRuns::new(&blocks),
                now: 0,
            };
            assert!(s.wal.append(&rec).unwrap());
            s.wal_commit().unwrap();
            s.wal_durable_bytes() - before
        };
        let bare = filler(&mut s, 0);
        let run = filler(&mut s, 1) - bare;
        let capacity = s.layout.log_blocks * BS as u64;
        loop {
            // Records of at most ~1,000 runs stay inside the device.
            let runs = (capacity - s.wal_durable_bytes() - 2 * bare) / run;
            filler(&mut s, if runs > 1_010 { 1_000 } else { runs });
            if runs <= 1_010 {
                break;
            }
        }
        let left = capacity - s.wal_durable_bytes();
        assert!((bare..bare + run).contains(&left), "{left} B left");
        // The write's record does not fit, and its checkpoint fails: the
        // write is in memory and in no record.
        s.cache.device_mut().fail_below = s.layout.data_start;
        assert!(s.write(P, o, 0, &vec![2u8; BS], 2).is_err());
        s.cache.device_mut().fail_below = 0;
        // A record that fits is committed. Then a write fills the block
        // the failed write displaced; if its record does not fit either,
        // its checkpoint fails too.
        s.resize(P, other, 0, 3).unwrap();
        s.wal_commit().unwrap();
        s.cache.device_mut().fail_below = s.layout.data_start;
        let _ = s.write(P, other, 0, &vec![3u8; BS], 4);
        assert_eq!(blocks_of(&s, other), [old], "first fit");
        let mut re = ObjectStore::open(s.cache().device().disk.clone(), 64).unwrap();
        let back = re.read(P, o, 0, BS as u64, 5).unwrap().to_vec();
        assert!(
            back == [1u8; BS] || back == [2u8; BS],
            "object reads {}s",
            back[0]
        );
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
