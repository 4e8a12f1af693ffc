//! The drive's block cache.
//!
//! Sits between the object layer and the [`BlockDevice`]: an LRU cache of
//! device blocks with write-behind (dirty blocks are flushed on eviction
//! or explicit flush). Its running [`CacheStats`] are the drive's one
//! count of cache traffic: the drive reads them before and after each
//! request, and the miss delta decides whether the request ran the
//! paper's *cold* or *warm* code path (Table 1).
//!
//! Every per-block step is O(1) and allocation-free once the cache is
//! full: recency is a doubly linked list threaded through a `Vec` by
//! index (a hit moves its node to the tail, the victim is the head), a
//! miss reads the device straight into the block's shared allocation,
//! and an evicted block nobody else still holds is kept as the buffer
//! for the next block brought in.

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
    /// This block's node in [`BlockCache::recency`].
    slot: u32,
}

impl Entry {
    /// Mutable access to the block, cloning it first if a reader still
    /// holds a shared view (copy-on-write).
    #[expect(
        clippy::expect_used,
        reason = "a shared block is re-created unshared first, so get_mut succeeds"
    )]
    fn data_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.data).is_none() {
            bytes::stats::record_copy(self.data.len());
            self.data = Arc::from(&*self.data);
        }
        Arc::get_mut(&mut self.data).expect("freshly cloned block is unshared")
    }
}

/// "No node": the end of a [`Recency`] link.
const NIL: u32 = u32::MAX;

/// One resident block's place in the [`Recency`] order.
struct Node {
    block: u64,
    prev: u32,
    next: u32,
}

/// The resident blocks in order of last use, least recent at the head:
/// a doubly linked list over a `Vec` of nodes addressed by index, with a
/// free list so a removed node's slot is reused. Every operation is O(1).
struct Recency {
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl Recency {
    fn new() -> Self {
        Recency {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// The least recently used block.
    fn lru(&self) -> Option<u64> {
        self.nodes.get(self.head as usize).map(|n| n.block)
    }

    /// Add `block` as the most recently used; returns its node's slot.
    fn push(&mut self, block: u64) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                if let Some(n) = self.nodes.get_mut(slot as usize) {
                    n.block = block;
                }
                slot
            }
            None => {
                // Slots never outnumber the cache's capacity, which
                // `BlockCache::new` bounds below `NIL`.
                self.nodes.push(Node {
                    block,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        // `link_tail` sets both links.
        self.link_tail(slot);
        slot
    }

    /// Mark `slot`'s block the most recently used.
    fn touch(&mut self, slot: u32) {
        if slot != self.tail {
            self.unlink(slot);
            self.link_tail(slot);
        }
    }

    /// Drop `slot`'s node; its slot is reused by a later push.
    fn remove(&mut self, slot: u32) {
        self.unlink(slot);
        self.free.push(slot);
    }

    fn link_tail(&mut self, slot: u32) {
        let prev = self.tail;
        if let Some(n) = self.nodes.get_mut(slot as usize) {
            n.prev = prev;
            n.next = NIL;
        }
        match self.nodes.get_mut(prev as usize) {
            Some(p) => p.next = slot,
            None => self.head = slot,
        }
        self.tail = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let Some(&Node { prev, next, .. }) = self.nodes.get(slot as usize) else {
            return;
        };
        match self.nodes.get_mut(prev as usize) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.nodes.get_mut(next as usize) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }
}

/// Replace the block `target` holds with `data`, the write ingest copy:
/// in place when no reader shares the allocation, otherwise into a fresh
/// one so the readers' view stays as it was.
fn overwrite(target: &mut Arc<[u8]>, data: &[u8]) {
    bytes::stats::record_copy(data.len());
    match Arc::get_mut(target) {
        // nasd-lint: allow(hot-path-copy, "write ingest: the one mandated copy into the cache block")
        Some(d) => d.copy_from_slice(data),
        None => *target = Arc::from(data),
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
    /// Every resident block in order of last use; the head is the
    /// eviction victim. A 64 KiB write into a full thousand-block cache
    /// evicts eight times, each O(1).
    recency: Recency,
    /// An evicted block's allocation that no reader still shares, kept
    /// so the next block brought in reuses it instead of allocating.
    spare: Option<Arc<[u8]>>,
    stats: CacheStats,
}

impl<D: BlockDevice> BlockCache<D> {
    /// Wrap `device` with a cache of `capacity_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero or does not fit the `u32`
    /// recency slots.
    #[must_use]
    pub fn new(device: D, capacity_blocks: usize) -> Self {
        assert!(capacity_blocks > 0, "cache needs at least one block");
        assert!(
            capacity_blocks < NIL as usize,
            "cache capacity must fit u32 recency slots"
        );
        BlockCache {
            device,
            capacity_blocks,
            entries: HashMap::new(),
            recency: Recency::new(),
            spare: None,
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

    /// Make `block`, which is not resident, resident with `data` as the
    /// most recently used.
    fn insert(&mut self, block: u64, data: Arc<[u8]>, dirty: bool) {
        debug_assert!(!self.entries.contains_key(&block));
        let slot = self.recency.push(block);
        self.entries.insert(block, Entry { data, dirty, slot });
    }

    /// Drop `block`'s entry and its recency node; returns whether it was
    /// resident. Its allocation becomes the spare unless a
    /// [`Self::read_shared`] view still holds it.
    fn remove(&mut self, block: u64) -> bool {
        let Some(mut entry) = self.entries.remove(&block) else {
            return false;
        };
        self.recency.remove(entry.slot);
        if Arc::get_mut(&mut entry.data).is_some() {
            self.spare = Some(entry.data);
        }
        true
    }

    /// An unshared block-sized buffer for a block being brought in: the
    /// spare if there is one, else a fresh (zeroed) allocation.
    fn buffer(&mut self) -> Arc<[u8]> {
        self.spare
            .take()
            .unwrap_or_else(|| std::iter::repeat_n(0u8, self.device.block_size()).collect())
    }

    /// Make room for one more entry, evicting the LRU entry if full. A
    /// dirty victim is written back *before* it leaves the cache: if the
    /// write fails it stays resident and dirty, so no acknowledged byte
    /// is lost, and the error comes back.
    fn evict_if_full(&mut self) -> Result<(), DiskError> {
        while self.entries.len() >= self.capacity_blocks {
            let Some(victim) = self.recency.lru() else {
                break;
            };
            if let Some(e) = self.entries.get(&victim).filter(|e| e.dirty) {
                self.device.write_block(victim, &e.data)?;
                self.stats.writebacks += 1;
            }
            if !self.remove(victim) {
                break;
            }
            self.stats.evictions += 1;
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
    /// writes to a shared block go copy-on-write, and an evicted block
    /// is reused only when no view of it is alive.
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
        if let Some(e) = self.entries.get(&block) {
            self.stats.hits += 1;
            self.recency.touch(e.slot);
        } else {
            self.evict_if_full()?;
            // The device reads straight into the allocation the entry
            // keeps (and `read_shared` later shares): no staging copy.
            let mut data = self.buffer();
            // `buffer` hands out only unshared allocations; report rather
            // than panic mid-request.
            let buf = Arc::get_mut(&mut data).ok_or(DiskError::OutOfRange {
                block,
                device_blocks: self.device.num_blocks(),
            })?;
            self.device.read_block(block, buf)?;
            self.stats.misses += 1;
            self.insert(block, data, false);
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
            overwrite(&mut e.data, data);
            e.dirty = true;
            self.recency.touch(e.slot);
        } else {
            self.evict_if_full()?;
            let mut fresh = self.buffer();
            overwrite(&mut fresh, data);
            self.insert(block, fresh, true);
        }
        // A full-block overwrite needs no device read; count it as a
        // (write) hit for Table 1's warm/cold distinction.
        self.stats.hits += 1;
        Ok(())
    }

    /// Write one full block around the cache: `data` goes to the device
    /// now, its one copy, and any resident entry for `block` is dropped
    /// (a [`Self::read_shared`] view keeps the bytes it saw). Counted as
    /// a (write) hit, as [`Self::write`] is.
    ///
    /// # Errors
    ///
    /// The device's ([`DiskError::BadBufferSize`] if `data` is not
    /// exactly one block); the cache is then unchanged.
    pub fn write_direct(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.device.write_block(block, data)?;
        self.remove(block);
        self.stats.hits += 1;
        Ok(())
    }

    /// Move `from`'s entry to block `to`, reading `from` in on a miss:
    /// the cached bytes stay where they are and now stand for `to`, whose
    /// own entry is dropped. A dirty `from` is first written back, so the
    /// media still holds what `from` last held.
    ///
    /// # Errors
    ///
    /// Device errors from the read or the writeback; nothing moves then.
    pub fn rename(&mut self, from: u64, to: u64) -> Result<(), DiskError> {
        self.fill(from)?;
        self.write_back(from)?;
        let Some(entry) = self.entries.remove(&from) else {
            return Ok(());
        };
        self.remove(to);
        if let Some(node) = self.recency.nodes.get_mut(entry.slot as usize) {
            node.block = to;
        }
        self.recency.touch(entry.slot);
        self.entries.insert(to, entry);
        Ok(())
    }

    /// Write `block` to the device now if it is resident and dirty, and
    /// mark it clean.
    ///
    /// # Errors
    ///
    /// Device errors; the block then stays dirty.
    pub fn write_back(&mut self, block: u64) -> Result<(), DiskError> {
        if let Some(e) = self.entries.get_mut(&block).filter(|e| e.dirty) {
            self.device.write_block(block, &e.data)?;
            e.dirty = false;
            self.stats.writebacks += 1;
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
            self.write_back(block)?;
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

    /// A [`MemDisk`] whose next write fails when `fail_next` is set.
    struct Flaky {
        disk: MemDisk,
        fail_next: bool,
    }

    impl BlockDevice for Flaky {
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
            if std::mem::take(&mut self.fail_next) {
                return Err(DiskError::PowerFailure);
            }
            self.disk.write_block(block, data)
        }
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
    fn a_direct_write_goes_around_the_cache() {
        let mut c = recording(4);
        c.write(3, &[1u8; 512]).unwrap();
        let view = c.read_shared(3).unwrap();
        c.write_direct(3, &[2u8; 512]).unwrap();
        assert_eq!(c.device().writes.len(), 1, "the device written now");
        assert!(!c.contains(3), "the stale entry dropped, dirty or not");
        assert_eq!(hits_misses(&c), (3, 0), "a direct write is a hit");
        assert_eq!(&view[..], &[1u8; 512][..], "a held view keeps its bytes");
        assert_eq!(c.read(3).unwrap()[0], 2, "read back from the device");
        c.write_direct(5, &[5u8; 512]).unwrap();
        assert!(!c.contains(5), "a direct write brings nothing in");
        c.flush().unwrap();
        assert_eq!(c.device().writes.len(), 2, "nothing left to write back");
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

    #[test]
    fn failed_writeback_keeps_the_acked_block() {
        let disk = Flaky {
            disk: MemDisk::new(512, 64),
            fail_next: false,
        };
        let mut c = BlockCache::new(disk, 2);
        c.write(1, &[1u8; 512]).unwrap();
        c.write(2, &[2u8; 512]).unwrap();
        c.device_mut().fail_next = true;
        // Block 1 is the dirty LRU victim; its writeback fails.
        assert_eq!(c.write(3, &[3u8; 512]), Err(DiskError::PowerFailure));
        assert!(c.contains(1), "the victim stays resident");
        assert_eq!((c.stats().evictions, c.stats().writebacks), (0, 0));
        let misses = c.stats().misses;
        assert_eq!(c.read(1).unwrap(), &[1u8; 512][..], "the acked bytes");
        assert_eq!(c.stats().misses, misses, "served from the cache");
        // Still dirty: the next flush writes it.
        c.flush().unwrap();
        let mut buf = vec![0u8; 512];
        c.device().disk.read_block(1, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; 512]);
    }

    #[test]
    fn eviction_reuses_an_unshared_block_allocation() {
        let mut c = cache(1);
        c.write(1, &[1u8; 512]).unwrap();
        let first = c.read_shared(1).unwrap().as_ref().as_ptr();
        c.write(2, &[2u8; 512]).unwrap(); // evicts 1, whose view is gone
        let second = c.read_shared(2).unwrap();
        assert_eq!(second.as_ref().as_ptr(), first, "the spare was reused");
        assert_eq!(&second[..], &[2u8; 512][..]);
    }

    #[test]
    fn a_held_view_survives_eviction_and_spare_reuse() {
        let mut c = cache(2);
        c.write(1, &[1u8; 512]).unwrap();
        let view = c.read_shared(1).unwrap();
        // Evicts 1 (shared: never the spare), then 2 and 3, whose
        // allocations 4 and 5 reuse.
        for b in 2..6u64 {
            c.write(b, &[b as u8; 512]).unwrap();
        }
        assert!(!c.contains(1));
        assert_eq!(&view[..], &[1u8; 512][..], "the view kept its bytes");
        for b in 4..6u64 {
            let now = c.read_shared(b).unwrap();
            assert_ne!(now.as_ref().as_ptr(), view.as_ref().as_ptr());
            assert_eq!(&now[..], &[b as u8; 512][..]);
        }
    }
}
