//! The drive's block cache.
//!
//! Sits between the object layer and the [`BlockDevice`]: an LRU cache of
//! device blocks with write-behind (dirty blocks are flushed on eviction
//! or explicit flush). Its running [`CacheStats`] are the drive's one
//! count of cache traffic: the drive reads them before and after each
//! request, and the miss delta decides whether the request ran the
//! paper's *cold* or *warm* code path (Table 1).

use bytes::Bytes;
use nasd_disk::{BlockDevice, DiskError};
use std::collections::HashMap;
use std::sync::Arc;

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
/// use nasd_object::BlockCache;
///
/// let mut cache = BlockCache::new(MemDisk::new(512, 64), 8);
/// cache.write(3, &vec![7u8; 512])?;                   // absorbed, no I/O
/// assert_eq!(cache.read(3)?[0], 7);                   // hit
/// assert_eq!((cache.stats().hits, cache.stats().misses), (2, 0));
/// cache.flush()?;                                     // write-behind drains
/// assert_eq!(cache.stats().writebacks, 1);
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
    fn evict_if_full(&mut self) -> Result<(), DiskError> {
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
    pub fn read(&mut self, block: u64) -> Result<&[u8], DiskError> {
        self.fill(block)?;
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
    pub fn read_shared(&mut self, block: u64) -> Result<Bytes, DiskError> {
        self.fill(block)?;
        match self.entries.get(&block) {
            Some(e) => Ok(Bytes::from_arc(Arc::clone(&e.data))),
            None => Err(DiskError::OutOfRange {
                block,
                device_blocks: self.device.num_blocks(),
            }),
        }
    }

    /// Ensure `block` is resident, reading it from the device on a miss.
    fn fill(&mut self, block: u64) -> Result<(), DiskError> {
        if self.entries.contains_key(&block) {
            self.stats.hits += 1;
            self.touch(block);
        } else {
            self.evict_if_full()?;
            let mut buf = vec![0u8; self.device.block_size()];
            self.device.read_block(block, &mut buf)?;
            // Vec -> Arc<[u8]> moves the bytes into the refcounted
            // allocation: a real (cold-path) copy, so the ledger sees it.
            bytes::stats::record_copy(buf.len());
            self.stats.misses += 1;
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
    pub fn write(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
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
            self.touch(block);
        } else {
            self.evict_if_full()?;
            bytes::stats::record_copy(data.len());
            self.insert(block, Arc::from(data), true);
            // A full-block overwrite needs no device read; count it as a
            // (write) hit for Table 1's warm/cold distinction.
            self.stats.hits += 1;
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
    ) -> Result<(), DiskError> {
        let bs = self.device.block_size();
        if offset + data.len() > bs {
            return Err(DiskError::BadBufferSize {
                expected: bs,
                got: offset + data.len(),
            });
        }
        // Bring the block in (read-modify-write).
        self.read(block)?;
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
    pub fn flush(&mut self) -> Result<(), DiskError> {
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
            self.stats.writebacks += 1;
        }
        Ok(())
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

    /// A [`MemDisk`] that logs the block number of every device write,
    /// so tests can check what reached the media and in what order.
    struct Recording {
        disk: MemDisk,
        writes: Vec<u64>,
    }

    impl BlockDevice for Recording {
        fn block_size(&self) -> usize {
            self.disk.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.disk.num_blocks()
        }
        fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
            self.disk.read_block(block, buf)
        }
        fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
            self.writes.push(block);
            self.disk.write_block(block, data)
        }
    }

    fn recording(cap: usize) -> BlockCache<Recording> {
        let disk = Recording {
            disk: MemDisk::new(512, 1024),
            writes: Vec::new(),
        };
        BlockCache::new(disk, cap)
    }

    fn hits_misses<D: BlockDevice>(c: &BlockCache<D>) -> (u64, u64) {
        (c.stats().hits, c.stats().misses)
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = cache(4);
        let _ = c.read(5).unwrap();
        assert_eq!(hits_misses(&c), (0, 1));
        let _ = c.read(5).unwrap();
        assert_eq!(hits_misses(&c), (1, 1));
        assert_eq!(c.stats().hit_ratio(), 0.5);
    }

    #[test]
    fn full_block_write_is_absorbed() {
        let mut c = recording(4);
        c.write(3, &[9u8; 512]).unwrap();
        assert!(
            c.device().writes.is_empty(),
            "write-behind should not touch the device"
        );
        assert_eq!(hits_misses(&c), (1, 0), "a full-block write is a hit");
        // Data readable through cache.
        assert_eq!(c.read(3).unwrap()[0], 9);
    }

    #[test]
    fn partial_write_reads_then_modifies() {
        let mut c = cache(4);
        // Seed the device with recognizable data.
        c.write(0, &[1u8; 512]).unwrap();
        c.flush().unwrap();
        c.discard(0);

        let before = c.stats().misses;
        c.write_partial(0, 10, &[2u8; 5]).unwrap();
        assert_eq!(
            c.stats().misses - before,
            1,
            "partial write must read-modify-write"
        );
        let data = c.read(0).unwrap();
        assert_eq!(data[9], 1);
        assert_eq!(&data[10..15], &[2u8; 5]);
        assert_eq!(data[15], 1);
    }

    #[test]
    fn partial_write_beyond_block_rejected() {
        let mut c = cache(4);
        assert!(c.write_partial(0, 510, &[0u8; 5]).is_err());
    }

    #[test]
    fn eviction_writes_back_dirty_lru() {
        let mut c = recording(2);
        c.write(1, &[1u8; 512]).unwrap();
        c.write(2, &[2u8; 512]).unwrap();
        assert!(c.device().writes.is_empty());
        // Touch 1 so 2 becomes LRU.
        let _ = c.read(1).unwrap();
        c.write(3, &[3u8; 512]).unwrap();
        assert_eq!(c.device().writes, vec![2], "dirty LRU written back");
        assert!(!c.contains(2));
        assert!(c.contains(1) && c.contains(3));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 1);
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
        for b in 0..4u64 {
            let _ = c.read(b).unwrap();
        }
        c.discard(1);
        let _ = c.read(3).unwrap();
        let _ = c.read(0).unwrap();
        let _ = c.read(4).unwrap(); // use order now 2, 3, 0, 4
        for (next, evicted) in [(5u64, 2u64), (6, 3), (7, 0)] {
            let _ = c.read(next).unwrap();
            assert!(
                !c.contains(evicted),
                "reading {next} should evict {evicted}"
            );
        }
        assert!((4..8).all(|b| c.contains(b)));
    }

    #[test]
    fn flush_drains_in_elevator_order() {
        let mut c = recording(8);
        for b in [5u64, 1, 3] {
            c.write(b, &[b as u8; 512]).unwrap();
        }
        let misses = c.stats().misses;
        c.flush().unwrap();
        assert_eq!(c.device().writes, vec![1, 3, 5]);
        assert_eq!(c.stats().misses, misses, "flush must not read");
        // Second flush is a no-op.
        c.flush().unwrap();
        assert_eq!(c.device().writes.len(), 3);
    }

    #[test]
    fn discard_drops_without_writeback() {
        let mut c = recording(4);
        c.write(7, &[7u8; 512]).unwrap();
        c.discard(7);
        c.flush().unwrap();
        assert!(
            c.device().writes.is_empty(),
            "discarded dirty block must not be written"
        );
    }

    #[test]
    fn capacity_respected() {
        let mut c = cache(3);
        for b in 0..10u64 {
            let _ = c.read(b).unwrap();
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
        c.write(3, &[9u8; 512]).unwrap();
        let warm = c.read_shared(3).unwrap();
        let before = bytes::stats::bytes_copied();
        let again = c.read_shared(3).unwrap();
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
        c.write(0, &[1u8; 512]).unwrap();
        let view = c.read_shared(0).unwrap();
        c.write(0, &[2u8; 512]).unwrap();
        c.write_partial(0, 5, &[3u8; 2]).unwrap();
        assert_eq!(&view[..], &[1u8; 512][..], "old view is immutable");
        let now = c.read_shared(0).unwrap();
        assert_eq!(now[0], 2);
        assert_eq!(&now[5..7], &[3u8; 2]);
    }

    #[test]
    fn eviction_with_live_view_writes_back_correct_data() {
        let mut c = cache(2);
        c.write(1, &[1u8; 512]).unwrap();
        let view = c.read_shared(1).unwrap();
        c.write(2, &[2u8; 512]).unwrap();
        // Evict block 1 (LRU) while the view is alive.
        c.write(3, &[3u8; 512]).unwrap();
        assert!(!c.contains(1));
        assert_eq!(&view[..], &[1u8; 512][..]);
        let mut buf = vec![0u8; 512];
        c.device().read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "writeback must carry the block contents");
    }
}
