//! The drive's block cache.
//!
//! Sits between the object layer and the [`BlockDevice`]: an LRU cache of
//! device blocks with write-behind (dirty blocks are flushed on eviction
//! or explicit flush). Every device access performed on behalf of an
//! operation is recorded in an [`IoTrace`] so that (a) the cost meter can
//! distinguish the paper's *cold* and *warm* code paths and (b) the
//! simulation harnesses can replay the physical I/O against a mechanical
//! [`DiskModel`](nasd_disk::DiskModel) for timing.

use bytes::Bytes;
use nasd_disk::{BlockDevice, DiskError};
use std::collections::HashMap;
use std::sync::Arc;

/// One physical device access captured during an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoRecord {
    /// `count` blocks read from the device starting at `block`.
    Read {
        /// First device block.
        block: u64,
        /// Blocks read.
        count: u64,
    },
    /// `count` blocks written to the device starting at `block`.
    Write {
        /// First device block.
        block: u64,
        /// Blocks written.
        count: u64,
    },
}

/// The device I/O performed by one operation, plus hit/miss counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IoTrace {
    /// Physical accesses in issue order (adjacent blocks coalesced).
    pub records: Vec<IoRecord>,
    /// Block lookups satisfied by the cache.
    pub hits: u64,
    /// Block lookups that went to the device.
    pub misses: u64,
}

impl IoTrace {
    /// Whether the operation touched the device at all.
    #[must_use]
    pub fn is_warm(&self) -> bool {
        self.records.is_empty()
    }

    /// Total blocks read from the device.
    #[must_use]
    pub fn blocks_read(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                IoRecord::Read { count, .. } => *count,
                IoRecord::Write { .. } => 0,
            })
            .sum()
    }

    /// Total blocks written to the device.
    #[must_use]
    pub fn blocks_written(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                IoRecord::Write { count, .. } => *count,
                IoRecord::Read { .. } => 0,
            })
            .sum()
    }

    fn push_read(&mut self, block: u64) {
        self.misses += 1;
        if let Some(IoRecord::Read { block: b, count }) = self.records.last_mut() {
            if *b + *count == block {
                *count += 1;
                return;
            }
        }
        self.records.push(IoRecord::Read { block, count: 1 });
    }

    fn push_write(&mut self, block: u64) {
        if let Some(IoRecord::Write { block: b, count }) = self.records.last_mut() {
            if *b + *count == block {
                *count += 1;
                return;
            }
        }
        self.records.push(IoRecord::Write { block, count: 1 });
    }
}

/// Cumulative cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied without device I/O.
    pub hits: u64,
    /// Lookups requiring a device read.
    pub misses: u64,
    /// Dirty blocks written back to the device.
    pub writebacks: u64,
    /// Blocks evicted (clean or dirty).
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    /// Block contents, shareable with readers: [`BlockCache::read_shared`]
    /// hands out O(1) [`Bytes`] views of this allocation, and writes go
    /// copy-on-write when such a view is still alive.
    data: Arc<[u8]>,
    dirty: bool,
    /// Index of this block's pair in [`BlockCache::recency`].
    slot: usize,
}

impl Entry {
    /// Mutable access to the block, cloning it first if a reader still
    /// holds a shared view (copy-on-write).
    fn data_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.data).is_none() {
            bytes::stats::record_copy(self.data.len());
            self.data = Arc::from(&*self.data);
        }
        // nasd-lint: allow(panic, "the arc above was just re-created with refcount 1")
        Arc::get_mut(&mut self.data).expect("freshly cloned block is unshared")
    }
}

/// LRU block cache with write-behind over a [`BlockDevice`].
///
/// # Example
///
/// ```
/// use nasd_disk::MemDisk;
/// use nasd_object::{BlockCache, IoTrace};
///
/// let mut cache = BlockCache::new(MemDisk::new(512, 64), 8);
/// let mut trace = IoTrace::default();
/// cache.write(3, &vec![7u8; 512], &mut trace)?;      // absorbed, no I/O
/// assert!(trace.is_warm());
/// assert_eq!(cache.read(3, &mut trace)?[0], 7);       // hit
/// cache.flush(&mut trace)?;                           // write-behind drains
/// assert_eq!(trace.blocks_written(), 1);
/// # Ok::<(), nasd_disk::DiskError>(())
/// ```
pub struct BlockCache<D> {
    device: D,
    capacity_blocks: usize,
    entries: HashMap<u64, Entry>,
    /// `(last use, block)` for every resident block, densely packed so
    /// that finding the LRU victim scans one contiguous array, not the
    /// map: a 64 KiB write into a full thousand-block cache evicts eight
    /// times.
    recency: Vec<(u64, u64)>,
    /// LRU clock: larger = more recent; every use gets a fresh value.
    clock: u64,
    stats: CacheStats,
}

impl<D: BlockDevice> BlockCache<D> {
    /// Wrap `device` with a cache of `capacity_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero.
    #[must_use]
    pub fn new(device: D, capacity_blocks: usize) -> Self {
        assert!(capacity_blocks > 0, "cache needs at least one block");
        BlockCache {
            device,
            capacity_blocks,
            entries: HashMap::new(),
            recency: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The wrapped device.
    #[must_use]
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Mutable access to the wrapped device, bypassing the cache. Used
    /// by the WAL and checkpoint paths, whose writes must reach the
    /// media *now* and in order — write-behind would destroy exactly
    /// the ordering their crash-consistency argument depends on. Callers
    /// must not touch blocks the cache also holds.
    #[must_use]
    pub(crate) fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }

    /// Block size of the underlying device.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.device.block_size()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Blocks currently cached.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// Whether `block` is currently cached (does not touch LRU state).
    #[must_use]
    pub fn contains(&self, block: u64) -> bool {
        self.entries.contains_key(&block)
    }

    fn touch(&mut self, block: u64) {
        self.clock += 1;
        if let Some(e) = self.entries.get(&block) {
            if let Some(r) = self.recency.get_mut(e.slot) {
                r.0 = self.clock;
            }
        }
    }

    /// Make `block`, which is not resident, resident with `data` as the
    /// most recently used.
    fn insert(&mut self, block: u64, data: Arc<[u8]>, dirty: bool) {
        debug_assert!(!self.entries.contains_key(&block));
        self.clock += 1;
        let slot = self.recency.len();
        self.recency.push((self.clock, block));
        self.entries.insert(block, Entry { data, dirty, slot });
    }

    /// Drop `block`'s entry, keeping `recency` dense: the last pair moves
    /// into the freed slot.
    fn remove(&mut self, block: u64) -> Option<Entry> {
        let entry = self.entries.remove(&block)?;
        if entry.slot < self.recency.len() {
            self.recency.swap_remove(entry.slot);
        }
        if let Some(&(_, moved)) = self.recency.get(entry.slot) {
            if let Some(e) = self.entries.get_mut(&moved) {
                e.slot = entry.slot;
            }
        }
        Some(entry)
    }

    /// Make room for one more entry, evicting the LRU entry if full.
    fn evict_if_full(&mut self, trace: &mut IoTrace) -> Result<(), DiskError> {
        while self.entries.len() >= self.capacity_blocks {
            // An empty cache can only be "full" at capacity zero; there is
            // nothing to evict then. Clock values are unique, so the
            // victim does not depend on the array's order.
            let Some(&(_, victim)) = self.recency.iter().min_by_key(|(used, _)| *used) else {
                break;
            };
            let Some(entry) = self.remove(victim) else {
                break;
            };
            self.stats.evictions += 1;
            if entry.dirty {
                self.device.write_block(victim, &entry.data)?;
                trace.push_write(victim);
                self.stats.writebacks += 1;
            }
        }
        Ok(())
    }

    /// Read one block through the cache. Returns a reference to the
    /// cached data (valid until the next cache call).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read(&mut self, block: u64, trace: &mut IoTrace) -> Result<&[u8], DiskError> {
        self.fill(block, trace)?;
        match self.entries.get(&block) {
            Some(e) => Ok(&e.data),
            // Unreachable in practice: the block was resident or was just
            // inserted above; report rather than panic mid-request.
            None => Err(DiskError::OutOfRange {
                block,
                device_blocks: self.device.num_blocks(),
            }),
        }
    }

    /// Read one block through the cache as an O(1) shared view of the
    /// cached allocation — the zero-copy read path. The view stays valid
    /// (and immutable) even if the block is later written or evicted:
    /// writes to a shared block go copy-on-write.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_shared(&mut self, block: u64, trace: &mut IoTrace) -> Result<Bytes, DiskError> {
        self.fill(block, trace)?;
        match self.entries.get(&block) {
            Some(e) => Ok(Bytes::from_arc(Arc::clone(&e.data))),
            None => Err(DiskError::OutOfRange {
                block,
                device_blocks: self.device.num_blocks(),
            }),
        }
    }

    /// Ensure `block` is resident, reading it from the device on a miss.
    fn fill(&mut self, block: u64, trace: &mut IoTrace) -> Result<(), DiskError> {
        if self.entries.contains_key(&block) {
            self.stats.hits += 1;
            trace.hits += 1;
            self.touch(block);
        } else {
            self.evict_if_full(trace)?;
            let mut buf = vec![0u8; self.device.block_size()];
            self.device.read_block(block, &mut buf)?;
            // Vec -> Arc<[u8]> moves the bytes into the refcounted
            // allocation: a real (cold-path) copy, so the ledger sees it.
            bytes::stats::record_copy(buf.len());
            self.stats.misses += 1;
            trace.push_read(block);
            self.insert(block, Arc::from(buf), false);
        }
        Ok(())
    }

    /// Write one full block through the cache (write-behind: the device
    /// write is deferred to eviction or [`Self::flush`]).
    ///
    /// # Errors
    ///
    /// [`DiskError::BadBufferSize`] if `data` is not exactly one block;
    /// device errors from any eviction writeback.
    pub fn write(&mut self, block: u64, data: &[u8], trace: &mut IoTrace) -> Result<(), DiskError> {
        if data.len() != self.device.block_size() {
            return Err(DiskError::BadBufferSize {
                expected: self.device.block_size(),
                got: data.len(),
            });
        }
        if let Some(e) = self.entries.get_mut(&block) {
            // Full-block overwrite: one ingest copy either way. In place
            // when the block is unshared; otherwise a fresh allocation so
            // readers keep their (old) view untouched.
            bytes::stats::record_copy(data.len());
            match Arc::get_mut(&mut e.data) {
                // nasd-lint: allow(hot-path-copy, "write ingest: the one mandated copy into the cache block")
                Some(d) => d.copy_from_slice(data),
                None => e.data = Arc::from(data),
            }
            e.dirty = true;
            self.stats.hits += 1;
            trace.hits += 1;
            self.touch(block);
        } else {
            self.evict_if_full(trace)?;
            bytes::stats::record_copy(data.len());
            self.insert(block, Arc::from(data), true);
            // A full-block overwrite needs no device read; count it as a
            // (write) hit for Table 1's warm/cold distinction.
            self.stats.hits += 1;
            trace.hits += 1;
        }
        Ok(())
    }

    /// Read-modify-write a partial block.
    ///
    /// # Errors
    ///
    /// Propagates device errors; panics are avoided by validating the
    /// range against the block size.
    pub fn write_partial(
        &mut self,
        block: u64,
        offset: usize,
        data: &[u8],
        trace: &mut IoTrace,
    ) -> Result<(), DiskError> {
        let bs = self.device.block_size();
        if offset + data.len() > bs {
            return Err(DiskError::BadBufferSize {
                expected: bs,
                got: offset + data.len(),
            });
        }
        // Bring the block in (read-modify-write).
        self.read(block, trace)?;
        let e = self.entries.get_mut(&block).ok_or(DiskError::OutOfRange {
            block,
            device_blocks: self.device.num_blocks(),
        })?;
        bytes::stats::record_copy(data.len());
        e.data_mut()
            .get_mut(offset..offset + data.len())
            .ok_or(DiskError::BadBufferSize {
                expected: bs,
                got: offset + data.len(),
            })?
            // nasd-lint: allow(hot-path-copy, "partial-write ingest into the cached block")
            .copy_from_slice(data);
        e.dirty = true;
        Ok(())
    }

    /// Drop a block from the cache without writeback (used when the block
    /// is freed — its contents are dead).
    pub fn discard(&mut self, block: u64) {
        self.remove(block);
    }

    /// Write all dirty blocks to the device.
    ///
    /// # Errors
    ///
    /// Propagates device errors; blocks written before an error remain
    /// clean.
    pub fn flush(&mut self, trace: &mut IoTrace) -> Result<(), DiskError> {
        let mut dirty: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(&b, _)| b)
            .collect();
        dirty.sort_unstable(); // elevator order
        for block in dirty {
            // A block listed dirty a moment ago but now gone has nothing
            // left to write back.
            let Some(e) = self.entries.get_mut(&block) else {
                continue;
            };
            self.device.write_block(block, &e.data)?;
            e.dirty = false;
            trace.push_write(block);
            self.stats.writebacks += 1;
        }
        Ok(())
    }

    /// Flush and return the device (teardown path — C-DTOR-FAIL says do
    /// fallible work here, not in `Drop`).
    ///
    /// # Errors
    ///
    /// Propagates device errors from the final flush.
    pub fn into_device(mut self) -> Result<D, DiskError> {
        let mut trace = IoTrace::default();
        self.flush(&mut trace)?;
        Ok(self.device)
    }
}

impl<D: BlockDevice> std::fmt::Debug for BlockCache<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity_blocks", &self.capacity_blocks)
            .field("resident", &self.entries.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_disk::MemDisk;

    fn cache(cap: usize) -> BlockCache<MemDisk> {
        BlockCache::new(MemDisk::new(512, 1024), cap)
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = cache(4);
        let mut t = IoTrace::default();
        let _ = c.read(5, &mut t).unwrap();
        assert_eq!((t.hits, t.misses), (0, 1));
        assert_eq!(t.blocks_read(), 1);
        let _ = c.read(5, &mut t).unwrap();
        assert_eq!((t.hits, t.misses), (1, 1));
        assert_eq!(c.stats().hit_ratio(), 0.5);
    }

    #[test]
    fn full_block_write_is_absorbed() {
        let mut c = cache(4);
        let mut t = IoTrace::default();
        c.write(3, &[9u8; 512], &mut t).unwrap();
        assert!(t.is_warm(), "write-behind should not touch the device");
        // Data readable through cache.
        assert_eq!(c.read(3, &mut t).unwrap()[0], 9);
    }

    #[test]
    fn partial_write_reads_then_modifies() {
        let mut c = cache(4);
        // Seed the device with recognizable data.
        let mut t = IoTrace::default();
        c.write(0, &[1u8; 512], &mut t).unwrap();
        c.flush(&mut t).unwrap();
        c.discard(0);

        let mut t = IoTrace::default();
        c.write_partial(0, 10, &[2u8; 5], &mut t).unwrap();
        assert_eq!(t.misses, 1, "partial write must read-modify-write");
        let data = c.read(0, &mut t).unwrap();
        assert_eq!(data[9], 1);
        assert_eq!(&data[10..15], &[2u8; 5]);
        assert_eq!(data[15], 1);
    }

    #[test]
    fn partial_write_beyond_block_rejected() {
        let mut c = cache(4);
        let mut t = IoTrace::default();
        assert!(c.write_partial(0, 510, &[0u8; 5], &mut t).is_err());
    }

    #[test]
    fn eviction_writes_back_dirty_lru() {
        let mut c = cache(2);
        let mut t = IoTrace::default();
        c.write(1, &[1u8; 512], &mut t).unwrap();
        c.write(2, &[2u8; 512], &mut t).unwrap();
        assert!(t.is_warm());
        // Touch 1 so 2 becomes LRU.
        let _ = c.read(1, &mut t).unwrap();
        let mut t = IoTrace::default();
        c.write(3, &[3u8; 512], &mut t).unwrap();
        assert_eq!(t.blocks_written(), 1, "dirty LRU written back");
        assert_eq!(t.records[0], IoRecord::Write { block: 2, count: 1 });
        assert!(!c.contains(2));
        assert!(c.contains(1) && c.contains(3));
        assert_eq!(c.stats().evictions, 1);
        // Device now holds block 2's data.
        let mut buf = vec![0u8; 512];
        c.device().read_block(2, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn eviction_order_survives_discards() {
        // Discarding block 1 moves block 3's recency pair into its slot;
        // later evictions must still take the least recently used first.
        let mut c = cache(4);
        let mut t = IoTrace::default();
        for b in 0..4u64 {
            let _ = c.read(b, &mut t).unwrap();
        }
        c.discard(1);
        let _ = c.read(3, &mut t).unwrap();
        let _ = c.read(0, &mut t).unwrap();
        let _ = c.read(4, &mut t).unwrap(); // use order now 2, 3, 0, 4
        for (next, evicted) in [(5u64, 2u64), (6, 3), (7, 0)] {
            let _ = c.read(next, &mut t).unwrap();
            assert!(
                !c.contains(evicted),
                "reading {next} should evict {evicted}"
            );
        }
        assert!((4..8).all(|b| c.contains(b)));
    }

    #[test]
    fn flush_drains_in_elevator_order() {
        let mut c = cache(8);
        let mut t = IoTrace::default();
        for b in [5u64, 1, 3] {
            c.write(b, &[b as u8; 512], &mut t).unwrap();
        }
        let mut t = IoTrace::default();
        c.flush(&mut t).unwrap();
        let order: Vec<u64> = t
            .records
            .iter()
            .map(|r| match r {
                IoRecord::Write { block, .. } => *block,
                IoRecord::Read { .. } => panic!("flush must not read"),
            })
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
        // Second flush is a no-op.
        let mut t2 = IoTrace::default();
        c.flush(&mut t2).unwrap();
        assert!(t2.is_warm());
    }

    #[test]
    fn discard_drops_without_writeback() {
        let mut c = cache(4);
        let mut t = IoTrace::default();
        c.write(7, &[7u8; 512], &mut t).unwrap();
        c.discard(7);
        let mut t = IoTrace::default();
        c.flush(&mut t).unwrap();
        assert!(t.is_warm(), "discarded dirty block must not be written");
    }

    #[test]
    fn trace_coalesces_adjacent_blocks() {
        let mut c = cache(8);
        let mut t = IoTrace::default();
        for b in 0..4u64 {
            let _ = c.read(b, &mut t).unwrap();
        }
        assert_eq!(t.records, vec![IoRecord::Read { block: 0, count: 4 }]);
        assert_eq!(t.blocks_read(), 4);
    }

    #[test]
    fn into_device_flushes() {
        let mut c = cache(4);
        let mut t = IoTrace::default();
        c.write(0, &[5u8; 512], &mut t).unwrap();
        let dev = c.into_device().unwrap();
        let mut buf = vec![0u8; 512];
        dev.read_block(0, &mut buf).unwrap();
        assert_eq!(buf[0], 5);
    }

    #[test]
    fn capacity_respected() {
        let mut c = cache(3);
        let mut t = IoTrace::default();
        for b in 0..10u64 {
            let _ = c.read(b, &mut t).unwrap();
        }
        assert!(c.resident() <= 3);
    }

    #[test]
    fn hit_ratio_empty_is_zero() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn read_shared_hit_copies_nothing() {
        let mut c = cache(4);
        let mut t = IoTrace::default();
        c.write(3, &[9u8; 512], &mut t).unwrap();
        let warm = c.read_shared(3, &mut t).unwrap();
        let before = bytes::stats::bytes_copied();
        let again = c.read_shared(3, &mut t).unwrap();
        assert_eq!(
            bytes::stats::bytes_copied(),
            before,
            "warm shared read must not copy the block"
        );
        // Both views alias the same cached allocation.
        assert_eq!(warm.as_ref().as_ptr(), again.as_ref().as_ptr());
        assert_eq!(&warm[..], &[9u8; 512][..]);
    }

    #[test]
    fn write_after_shared_read_leaves_the_view_untouched() {
        let mut c = cache(4);
        let mut t = IoTrace::default();
        c.write(0, &[1u8; 512], &mut t).unwrap();
        let view = c.read_shared(0, &mut t).unwrap();
        c.write(0, &[2u8; 512], &mut t).unwrap();
        c.write_partial(0, 5, &[3u8; 2], &mut t).unwrap();
        assert_eq!(&view[..], &[1u8; 512][..], "old view is immutable");
        let now = c.read_shared(0, &mut t).unwrap();
        assert_eq!(now[0], 2);
        assert_eq!(&now[5..7], &[3u8; 2]);
    }

    #[test]
    fn eviction_with_live_view_writes_back_correct_data() {
        let mut c = cache(2);
        let mut t = IoTrace::default();
        c.write(1, &[1u8; 512], &mut t).unwrap();
        let view = c.read_shared(1, &mut t).unwrap();
        c.write(2, &[2u8; 512], &mut t).unwrap();
        // Evict block 1 (LRU) while the view is alive.
        c.write(3, &[3u8; 512], &mut t).unwrap();
        assert!(!c.contains(1));
        assert_eq!(&view[..], &[1u8; 512][..]);
        let mut buf = vec![0u8; 512];
        c.device().read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "writeback must carry the block contents");
    }
}
