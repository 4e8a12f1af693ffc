//! Metadata persistence: checkpoint, remount, and log replay.
//!
//! The paper's prototype kept its object-system metadata in kernel
//! memory; a production drive must survive power cycles *at any
//! instant*. This module writes the drive's metadata — partitions and
//! object tables (attributes + extent maps) — as an inode-style index
//! checkpoint inside the on-disk layout of [`crate::layout`], and
//! rebuilds the store on open:
//!
//! 1. load the superblock (primary copy, falling back to the
//!    secondary);
//! 2. read the index checkpoint of the recorded epoch and verify its
//!    checksum;
//! 3. verify the persisted allocation bitmap bit-for-bit against the
//!    blocks the checkpoint's extent maps name — a cheap structural
//!    self-check against corruption;
//! 4. replay the write-ahead log (its [`WalRecord`](crate::WalRecord)s)
//!    to the last complete record, which sets block maps only;
//! 5. *recompute* the free-space allocator, the copy-on-write
//!    reference counts and each partition's usage from the final extent
//!    maps rather than trusting disk state.
//!
//! Nothing on the way reads a block outside the metadata area.
//!
//! Checkpoints are atomic by construction: the bitmap and index are
//! written to the *other* epoch-parity copy, and only the final
//! superblock write (to both copies) switches the drive over. A crash
//! anywhere in between leaves the previous checkpoint and its log
//! intact.
//!
//! Each object's extent map is stored inode-style: up to
//! [`NDIRECT`] extents inline in the index record, with any overflow
//! spilled to an indirect region referenced by byte offset — a freshly
//! written multi-gigabyte contiguous object costs one inline extent.

use crate::alloc::{Allocator, Extent};
use crate::cache::BlockCache;
use crate::layout::{bit_set, Superblock};
use crate::layout::{checksum64, read_bitmap, read_region, write_bitmap, write_region, Layout};
use crate::store::{ObjectMeta, ObjectStore, Partition, StoreError};
use crate::wal::{decode_working_key, Wal};
use nasd_disk::BlockDevice;
use nasd_proto::wire::{DecodeError, WireDecode, WireEncode, WireReader, WireWriter};
use nasd_proto::{ObjectAttributes, ObjectId, PartitionId};
use std::collections::{HashMap, HashSet};

/// Extents stored inline in an object's index record before spilling to
/// the indirect overflow region.
pub const NDIRECT: usize = 4;

/// Blocks reserved at the head of a device for metadata (superblocks,
/// bitmap copies, log, index copies) — the first data block. On a
/// device too small to hold its own metadata this is the whole device.
#[must_use]
pub fn meta_blocks(block_size: usize, total_blocks: u64) -> u64 {
    Layout::compute(block_size, total_blocks).data_start
}

/// Run-length compress a block list into (start, len) extents.
fn block_runs(blocks: &[u64]) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &b in blocks {
        match runs.last_mut() {
            Some((start, len)) if start.saturating_add(*len) == b => {
                *len = len.saturating_add(1);
            }
            _ => runs.push((b, 1)),
        }
    }
    runs
}

/// Encode an object's extent map: up to [`NDIRECT`] runs inline, the
/// rest spilled to the shared overflow writer (indirect extents).
fn encode_extents(main: &mut WireWriter, overflow: &mut WireWriter, blocks: &[u64]) {
    let runs = block_runs(blocks);
    let inline = runs.len().min(NDIRECT);
    // nasd-lint: allow(cast, "encode direction: `inline` is at most NDIRECT = 4")
    main.u8(inline as u8);
    for (start, len) in runs.iter().take(inline) {
        main.u64(*start).u64(*len);
    }
    if runs.len() > inline {
        main.u8(1)
            .u64(overflow.as_slice().len() as u64)
            // nasd-lint: allow(cast, "encode direction: in-memory run counts are far below u32::MAX")
            .u32((runs.len() - inline) as u32);
        for (start, len) in runs.iter().skip(inline) {
            overflow.u64(*start).u64(*len);
        }
    } else {
        main.u8(0);
    }
}

/// Decode one object's extent map, materializing the block list.
///
/// `max_blocks` bounds the *total* blocks an extent map may reference —
/// the device capacity on the open path. Without it a single hostile
/// run length (`len = u64::MAX`) would make the `extend` below try to
/// materialize the entire u64 range: an unbounded allocation driven by
/// 16 bytes of disk.
fn decode_extents(
    main: &mut WireReader<'_>,
    overflow: &[u8],
    max_blocks: u64,
) -> Result<Vec<u64>, DecodeError> {
    let mut blocks: Vec<u64> = Vec::new();
    let take = |blocks: &mut Vec<u64>, start: u64, len: u64| {
        if len > max_blocks || (blocks.len() as u64).saturating_add(len) > max_blocks {
            return Err(DecodeError::BadTag {
                context: "extent run length exceeds the device",
                value: len,
            });
        }
        blocks.extend(start..start.saturating_add(len));
        Ok(())
    };
    let inline = usize::from(main.u8()?);
    for _ in 0..inline {
        let start = main.u64()?;
        let len = main.u64()?;
        take(&mut blocks, start, len)?;
    }
    if main.u8()? != 0 {
        // Saturating on 32-bit targets: an unrepresentable offset is
        // past any real overflow region and fails the range check.
        let off = usize::try_from(main.u64()?).unwrap_or(usize::MAX);
        let extra = usize::try_from(main.u32()?).unwrap_or(usize::MAX);
        let tail = overflow.get(off..).ok_or(DecodeError::Truncated {
            needed: off,
            remaining: overflow.len(),
        })?;
        let mut r = WireReader::new(tail);
        for _ in 0..extra {
            let start = r.u64()?;
            let len = r.u64()?;
            take(&mut blocks, start, len)?;
        }
    }
    Ok(blocks)
}

/// Serialize the whole store into an index-checkpoint payload:
/// `[u64 overflow_len][overflow (indirect extents)][main records]`.
fn encode_store<D: BlockDevice>(store: &ObjectStore<D>) -> Vec<u8> {
    let mut main = WireWriter::new();
    let mut overflow = WireWriter::new();
    let mut parts: Vec<_> = store.partitions.iter().collect();
    parts.sort_by_key(|(pid, _)| **pid);
    // nasd-lint: allow(cast, "encode direction: in-memory partition count is far below u32::MAX")
    main.u32(parts.len() as u32);
    for (pid, part) in parts {
        pid.encode(&mut main);
        main.u64(part.quota).u64(part.used).u64(part.next_object);
        // nasd-lint: allow(cast, "encode direction: at most one rotated key per KeyKind")
        main.u8(part.rotated_keys.len() as u8);
        for (kind, key) in &part.rotated_keys {
            main.u8(kind.to_byte()).raw(key);
        }
        let mut objs: Vec<_> = part.objects.iter().collect();
        objs.sort_by_key(|(oid, _)| **oid);
        // nasd-lint: allow(cast, "encode direction: in-memory object count is far below u32::MAX")
        main.u32(objs.len() as u32);
        for (oid, meta) in objs {
            oid.encode(&mut main);
            meta.attrs.encode(&mut main);
            encode_extents(&mut main, &mut overflow, &meta.blocks);
        }
    }

    let mut payload = WireWriter::with_capacity(
        8usize
            .saturating_add(overflow.as_slice().len())
            .saturating_add(main.as_slice().len()),
    );
    payload
        .u64(overflow.as_slice().len() as u64)
        .raw(overflow.as_slice())
        .raw(main.as_slice());
    payload.into_vec()
}

/// Capacity hints for containers sized by wire-decoded counts: a
/// hostile count must cost a failed decode, not a giant pre-allocation.
const DECODE_CAPACITY_HINT: usize = 1_024;

fn decode_store(
    payload: &[u8],
    max_blocks: u64,
) -> Result<HashMap<PartitionId, Partition>, DecodeError> {
    let mut head = WireReader::new(payload);
    // Saturating on 32-bit targets: `raw` rejects any length beyond the
    // buffer, and a saturated length certainly is.
    let overflow_len = usize::try_from(head.u64()?).unwrap_or(usize::MAX);
    let overflow = head.raw(overflow_len)?;
    let mut r = WireReader::new(head.rest());
    let nparts = usize::try_from(r.u32()?).unwrap_or(usize::MAX);
    let mut partitions = HashMap::with_capacity(nparts.min(DECODE_CAPACITY_HINT));
    for _ in 0..nparts {
        let pid = PartitionId::decode(&mut r)?;
        let quota = r.u64()?;
        let used = r.u64()?;
        let next_object = r.u64()?;
        let rotated_keys = (0..r.u8()?)
            .map(|_| decode_working_key(&mut r))
            .collect::<Result<Vec<_>, _>>()?;
        let nobjects = usize::try_from(r.u32()?).unwrap_or(usize::MAX);
        let mut objects = HashMap::with_capacity(nobjects.min(DECODE_CAPACITY_HINT));
        for _ in 0..nobjects {
            let oid = ObjectId::decode(&mut r)?;
            let attrs = ObjectAttributes::decode(&mut r)?;
            let blocks = decode_extents(&mut r, overflow, max_blocks)?;
            objects.insert(oid, ObjectMeta { attrs, blocks });
        }
        partitions.insert(
            pid,
            Partition {
                quota,
                used,
                next_object,
                objects,
                rotated_keys,
            },
        );
    }
    r.finish()?;
    Ok(partitions)
}

/// The in-use bit per device block: the metadata area plus every block
/// referenced by any object's extent map. This is both what the
/// checkpoint persists and what `open` recomputes to verify it.
fn in_use_bits(layout: &Layout, partitions: &HashMap<PartitionId, Partition>) -> Vec<u8> {
    // nasd-lint: allow(cast, "geometry is validated against the device in Superblock::load, not taken from the wire")
    let mut bits = vec![0u8; (layout.total_blocks.div_ceil(8)) as usize];
    for b in 0..layout.data_start {
        bit_set(&mut bits, b);
    }
    for part in partitions.values() {
        for meta in part.objects.values() {
            for &b in &meta.blocks {
                bit_set(&mut bits, b);
            }
        }
    }
    bits
}

impl<D: BlockDevice> ObjectStore<D> {
    /// Flush all data and write a full metadata checkpoint, making the
    /// store recoverable with [`ObjectStore::open`] and logically
    /// truncating the write-ahead log (its epoch moves on).
    ///
    /// The write order is the crash-safety argument: data, then the
    /// bitmap and index into the *inactive* epoch-parity copies, then
    /// both superblocks — the atomic switch. A crash before the
    /// superblock write leaves the previous checkpoint fully intact. A
    /// superblock write that failed may have landed its primary copy, so
    /// the next checkpoint stores that superblock again, both copies,
    /// before it overwrites the index copy the one before it names.
    /// On a durable store the only dirty data is what the records not
    /// yet committed name; once the switch is made, the blocks those
    /// records dropped rejoin the allocator.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] if the device cannot hold its metadata
    /// or the index outgrew its area; device errors.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.checkpointed = false;
        if !self.layout.fits() {
            return Err(StoreError::NoSpace);
        }
        // Data first: the checkpoint must describe durable contents.
        self.cache.flush()?;

        let payload = encode_store(self);
        if payload.len() > self.layout.index_bytes() {
            return Err(StoreError::NoSpace);
        }
        let last = self
            .unpublished
            .map_or(self.checkpoint_seq, |sb| sb.checkpoint_seq);
        let epoch = last + 1;
        let bits = in_use_bits(&self.layout, &self.partitions);
        let layout = self.layout;
        let device = self.cache.device_mut();
        if let Some(sb) = self.unpublished {
            sb.store(device)?;
        }
        write_bitmap(device, &layout, epoch, &bits)?;
        write_region(
            device,
            layout.index_copy_start(epoch),
            layout.index_blocks,
            layout.block_size,
            &payload,
        )?;
        let sb = Superblock {
            layout,
            checkpoint_seq: epoch,
            checkpoint_len: payload.len() as u64,
            checkpoint_crc: checksum64(&payload),
        };
        sb.store(device)
            .inspect_err(|_| self.unpublished = Some(sb))?;
        self.unpublished = None;
        self.checkpoint_seq = epoch;
        self.checkpointed = true;
        self.wal.reset(epoch);
        self.unsynced.clear();
        self.settle();
        Ok(())
    }

    /// Remount a formatted device: superblock, index checkpoint,
    /// bitmap self-check, log replay to the last complete record, then
    /// the allocator and reference counts recomputed from the block maps.
    /// Reads only the metadata area.
    ///
    /// The write-ahead log is left *disabled*; a durable drive enables
    /// it after open so replayed operations never re-log themselves.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFormatted`] when no superblock copy carries the
    /// magic; [`StoreError::Corrupt`] when metadata is present but
    /// fails a checksum or the bitmap self-check, or is another layout
    /// version's; [`StoreError::Disk`] on device errors.
    pub fn open(device: D, cache_blocks: usize) -> Result<Self, StoreError> {
        let bs = device.block_size();
        let sb = Superblock::load(&device)?;
        let layout = sb.layout;
        // `checkpoint_len` is raw disk state the geometry check does not
        // cover: bound it by the index area before it sizes a read.
        let checkpoint_len = usize::try_from(sb.checkpoint_len)
            .ok()
            .filter(|&n| n <= layout.index_bytes())
            .ok_or(StoreError::Corrupt(
                "checkpoint length exceeds the index area",
            ))?;
        let payload = read_region(
            &device,
            layout.index_copy_start(sb.checkpoint_seq),
            bs,
            checkpoint_len,
        )?;
        if checksum64(&payload) != sb.checkpoint_crc {
            return Err(StoreError::Corrupt("index checkpoint checksum mismatch"));
        }
        let partitions = decode_store(&payload, layout.total_blocks)
            .map_err(|_| StoreError::Corrupt("index checkpoint garbled"))?;
        if in_use_bits(&layout, &partitions) != read_bitmap(&device, &layout, sb.checkpoint_seq)? {
            return Err(StoreError::Corrupt(
                "allocation bitmap disagrees with the object index",
            ));
        }

        let log = Wal::read_log(&device, &layout)?;
        let (wal, log_records) = Wal::recover(&log, &layout, sb.checkpoint_seq);
        let mut store = ObjectStore {
            cache: BlockCache::new(device, cache_blocks),
            allocator: Allocator::new(0),
            partitions,
            refcounts: HashMap::new(),
            block_size: bs,
            layout,
            wal,
            checkpoint_seq: sb.checkpoint_seq,
            checkpointed: true,
            unpublished: None,
            unsynced: Vec::new(),
            freed: Vec::new(),
            hidden: HashSet::new(),
        };
        for rec in log_records {
            store.apply_wal(rec)?;
        }
        store.rebuild_allocation()?;
        Ok(store)
    }

    /// Recompute the allocator, the copy-on-write reference counts and
    /// each partition's usage from first principles: reserve the
    /// metadata area, then carve out every block some object's extent
    /// map names, counting the objects that share one. A partition is
    /// charged for every block of every object it holds, a snapshot's
    /// shared ones included.
    fn rebuild_allocation(&mut self) -> Result<(), StoreError> {
        let layout = self.layout;
        let bs = layout.block_size as u64;
        for part in self.partitions.values_mut() {
            part.used = part
                .objects
                .values()
                .map(|m| (m.blocks.len() as u64).saturating_mul(bs))
                .fold(0, u64::saturating_add);
        }
        let mut allocator = Allocator::new(layout.total_blocks);
        if layout.data_start > 0 {
            allocator
                .allocate(layout.data_start, Some(0))
                .ok_or(StoreError::Internal("metadata reservation failed"))?;
        }
        let mut in_use: Vec<u64> = self
            .partitions
            .values()
            .flat_map(|p| p.objects.values())
            .flat_map(|m| m.blocks.iter().copied())
            .collect();
        in_use.sort_unstable();
        if in_use.last().is_some_and(|&b| b >= layout.total_blocks) {
            return Err(StoreError::Corrupt(
                "object index references out-of-range or doubly-used blocks",
            ));
        }
        let mut refcounts = HashMap::new();
        for shared in in_use.chunk_by(|a, b| a == b).filter(|c| c.len() > 1) {
            if let Some(&b) = shared.first() {
                refcounts.insert(b, u32::try_from(shared.len()).unwrap_or(u32::MAX));
            }
        }
        in_use.dedup();
        for run in in_use.chunk_by(|a, b| a.checked_add(1) == Some(*b)) {
            let start = run.first().copied().unwrap_or_default();
            allocator
                .allocate(run.len() as u64, Some(start))
                .filter(|e| *e == Extent::new(start, run.len() as u64))
                .ok_or(StoreError::Corrupt(
                    "object index references out-of-range or doubly-used blocks",
                ))?;
        }
        self.allocator = allocator;
        self.refcounts = refcounts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasd_disk::MemDisk;
    use nasd_proto::SetAttrMask;

    const BS: usize = 8_192;
    const P: PartitionId = PartitionId(1);

    #[test]
    fn checkpoint_and_remount_roundtrip() {
        let mut store = ObjectStore::new(MemDisk::new(BS, 4_096), 64);
        store.create_partition(P, 64 << 20).unwrap();
        let a = store.create_object(P, 0, None, 10).unwrap();
        let b = store.create_object(P, 4 * BS as u64, Some(a), 11).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        store.write(P, a, 0, &data, 12).unwrap();
        store.write(P, b, 7, b"clustered neighbour", 13).unwrap();
        let mut fs = [0u8; nasd_proto::FS_SPECIFIC_ATTR_LEN];
        fs[0] = 0xcd;
        store
            .set_attr(P, a, SetAttrMask::fs_specific_only(), &fs, 0, None, 14)
            .unwrap();
        let free_before = store.free_blocks();

        store.checkpoint().unwrap();
        let device = store.cache().device().clone();
        drop(store);

        let mut re = ObjectStore::open(device, 64).unwrap();
        assert_eq!(re.free_blocks(), free_before, "allocator reconstructed");
        assert_eq!(re.read(P, a, 0, 100_000, 20).unwrap(), &data[..]);
        assert_eq!(re.read(P, b, 7, 19, 20).unwrap(), b"clustered neighbour");
        let attrs = re.get_attr(P, a, 21).unwrap();
        assert_eq!(attrs.fs_specific[0], 0xcd);
        assert_eq!(attrs.create_time, 10);
        // New allocations continue from the persisted name counter.
        let c = re.create_object(P, 0, None, 22).unwrap();
        assert!(c > b);
    }

    #[test]
    fn snapshots_survive_remount() {
        let mut store = ObjectStore::new(MemDisk::new(BS, 4_096), 64);
        store.create_partition(P, 64 << 20).unwrap();
        let o = store.create_object(P, 0, None, 0).unwrap();
        store.write(P, o, 0, &vec![7u8; 3 * BS], 0).unwrap();
        let snap = store.snapshot(P, o, 1).unwrap();
        store.checkpoint().unwrap();
        let device = store.cache().device().clone();
        drop(store);

        let mut re = ObjectStore::open(device, 64).unwrap();
        // COW still works after remount: write to the original, snapshot
        // unchanged.
        re.write(P, o, 0, &[9u8; 10], 2).unwrap();
        let frozen = re.read(P, snap, 0, 10, 3).unwrap().to_vec();
        assert!(frozen.iter().all(|&x| x == 7));
        let fresh = re.read(P, o, 0, 10, 3).unwrap().to_vec();
        assert!(fresh.iter().all(|&x| x == 9));
    }

    /// A [`MemDisk`] noting the highest block it was asked to read.
    struct ReadWatch {
        disk: MemDisk,
        highest: std::cell::Cell<Option<u64>>,
    }

    impl BlockDevice for ReadWatch {
        fn block_size(&self) -> usize {
            self.disk.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.disk.num_blocks()
        }
        fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), nasd_disk::DiskError> {
            self.highest.set(self.highest.get().max(Some(block)));
            self.disk.read_block(block, buf)
        }
        fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), nasd_disk::DiskError> {
            self.disk.write_block(block, data)
        }
    }

    #[test]
    fn replay_reads_no_data_block_and_the_log_holds_no_payload() {
        let mut store = ObjectStore::new(MemDisk::new(BS, 4_096), 64);
        store.enable_wal(true);
        store.create_partition(P, 64 << 20).unwrap();
        store.wal_commit().unwrap();
        let epoch = store.checkpoint_seq;
        let a = store.create_object(P, 4 * BS as u64, None, 1).unwrap();
        let b = store.create_object(P, 0, Some(a), 2).unwrap();
        let mut want_a: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut written = 0;
        let mut put = |store: &mut ObjectStore<MemDisk>, o, at: usize, bytes: &[u8]| {
            store.write(P, o, at as u64, bytes, 3).unwrap();
            store.wal_commit().unwrap();
            written += bytes.len();
        };
        put(&mut store, a, 0, &want_a.clone());
        put(&mut store, a, 5_000, &[0xee; 20_000]);
        want_a[5_000..25_000].fill(0xee);
        put(&mut store, b, 30_000, b"past a gap");
        let snap = store.snapshot(P, a, 4).unwrap();
        let want_snap = want_a.clone();
        put(&mut store, a, 8_190, &[0x11; 9]);
        want_a[8_190..8_199].fill(0x11);
        store.resize(P, b, 12_345, 5).unwrap();
        store.resize(P, b, 40_000, 6).unwrap();
        let prealloc = SetAttrMask {
            fs_specific: false,
            preallocated: true,
            cluster_with: false,
            bump_version: false,
        };
        let fs = [0; nasd_proto::FS_SPECIFIC_ATTR_LEN];
        store
            .set_attr(P, b, prealloc, &fs, 9 * BS as u64, None, 7)
            .unwrap();
        store.wal_commit().unwrap();
        assert_eq!(store.checkpoint_seq, epoch, "everything rides the log");
        assert!(
            store.wal_durable_bytes() * 20 < written as u64,
            "{} log bytes for {written} written",
            store.wal_durable_bytes()
        );
        let (free, stats) = (store.free_blocks(), store.partition_stats(P).unwrap());
        let device = store.cache().device().clone();
        drop(store);

        let watch = ReadWatch {
            disk: device,
            highest: std::cell::Cell::new(None),
        };
        let mut re = ObjectStore::open(watch, 64).unwrap();
        let data_start = re.layout().data_start;
        let highest = re.cache().device().highest.get().unwrap();
        assert!(highest < data_start, "open read block {highest}");
        assert_eq!(re.free_blocks(), free, "allocator rebuilt");
        assert_eq!(re.partition_stats(P).unwrap(), stats, "usage rebuilt");
        assert_eq!(re.read(P, a, 0, 100_000, 8).unwrap(), &want_a[..]);
        // The shrink dropped the bytes past the gap; the regrowth reads
        // back as zeros.
        assert_eq!(re.read(P, b, 0, 50_000, 8).unwrap(), &[0u8; 40_000][..]);
        assert_eq!(re.read(P, snap, 0, 100_000, 8).unwrap(), &want_snap[..]);
        assert_eq!(re.peek_attr(P, b).unwrap().preallocated, 9 * BS as u64);
    }

    #[test]
    fn a_block_redirected_twice_in_one_commit_keeps_each_records_bytes() {
        // Two writes to one block in one commit group: the first record
        // names a block the second write displaces. Torn after the first
        // record, the log must replay to the first write's bytes.
        let mut store = ObjectStore::new(MemDisk::new(BS, 4_096), 64);
        store.enable_wal(true);
        store.create_partition(P, 64 << 20).unwrap();
        let o = store.create_object(P, 0, None, 1).unwrap();
        store.wal_commit().unwrap();
        store.write(P, o, 0, &[1u8; 100], 2).unwrap();
        store.write(P, o, 50, &[2u8; 100], 3).unwrap();
        store.wal_commit().unwrap();
        let (end, layout) = (store.wal_durable_bytes(), *store.layout());
        let mut device = store.cache().device().clone();
        drop(store);

        // Flip a byte of the second record's checksum trailer.
        let at = end - 3;
        let block = layout.log_start + at / BS as u64;
        let mut buf = vec![0u8; BS];
        device.read_block(block, &mut buf).unwrap();
        buf[(at % BS as u64) as usize] ^= 0x10;
        device.write_block(block, &buf).unwrap();

        let mut re = ObjectStore::open(device, 64).unwrap();
        assert_eq!(re.read(P, o, 0, 200, 4).unwrap(), &[1u8; 100][..]);
    }

    #[test]
    fn a_quota_cut_after_a_checkpoint_replays() {
        // The object's blocks count against the checkpoint's usage; the
        // cut is accepted only once the removal has returned them.
        let mut store = ObjectStore::new(MemDisk::new(BS, 4_096), 64);
        store.enable_wal(true);
        store.create_partition(P, 64 << 20).unwrap();
        let o = store.create_object(P, 0, None, 1).unwrap();
        store.write(P, o, 0, &vec![1u8; 4 * BS], 2).unwrap();
        store.checkpoint().unwrap();
        store.remove_object(P, o).unwrap();
        store.resize_partition(P, BS as u64).unwrap();
        store.wal_commit().unwrap();
        let device = store.cache().device().clone();
        drop(store);

        let re = ObjectStore::open(device, 64).unwrap();
        let stats = re.partition_stats(P).unwrap();
        assert_eq!((stats.quota, stats.used, stats.objects), (BS as u64, 0, 0));
    }

    #[test]
    fn open_unformatted_fails() {
        assert!(matches!(
            ObjectStore::open(MemDisk::new(BS, 128), 8),
            Err(StoreError::NotFormatted)
        ));
    }

    #[test]
    fn checkpoint_is_idempotent_and_updatable() {
        let mut store = ObjectStore::new(MemDisk::new(BS, 2_048), 64);
        store.create_partition(P, 16 << 20).unwrap();
        let o = store.create_object(P, 0, None, 0).unwrap();
        store.write(P, o, 0, b"v1", 0).unwrap();
        store.checkpoint().unwrap();
        store.write(P, o, 0, b"v2", 1).unwrap();
        store.checkpoint().unwrap();
        let device = store.cache().device().clone();
        drop(store);
        let mut re = ObjectStore::open(device, 8).unwrap();
        assert_eq!(re.read(P, o, 0, 2, 2).unwrap(), b"v2");
        assert_eq!(re.checkpoint_seq, 2, "one epoch per checkpoint");
    }

    #[test]
    fn fragmented_objects_use_indirect_extents() {
        let mut store = ObjectStore::new(MemDisk::new(BS, 4_096), 64);
        store.create_partition(P, 64 << 20).unwrap();
        // Interleave two objects' writes so each ends up with many
        // non-contiguous single-block extents — more than NDIRECT.
        let a = store.create_object(P, 0, None, 0).unwrap();
        let b = store.create_object(P, 0, None, 0).unwrap();
        for i in 0..(NDIRECT as u64 + 4) {
            store.write(P, a, i * BS as u64, &vec![1u8; BS], 0).unwrap();
            store.write(P, b, i * BS as u64, &vec![2u8; BS], 0).unwrap();
        }
        let a_blocks = {
            let part = store.partitions.get(&P).unwrap();
            part.objects[&a].blocks.clone()
        };
        assert!(
            block_runs(&a_blocks).len() > NDIRECT,
            "test must actually exercise the indirect path: {a_blocks:?}"
        );
        store.checkpoint().unwrap();
        let device = store.cache().device().clone();
        drop(store);

        let mut re = ObjectStore::open(device, 64).unwrap();
        let n = (NDIRECT as u64 + 4) * BS as u64;
        assert!(re
            .read(P, a, 0, n, 1)
            .unwrap()
            .to_vec()
            .iter()
            .all(|&x| x == 1));
        assert!(re
            .read(P, b, 0, n, 1)
            .unwrap()
            .to_vec()
            .iter()
            .all(|&x| x == 2));
        assert_eq!(
            re.partitions.get(&P).unwrap().objects[&a].blocks,
            a_blocks,
            "extent maps survive the indirect encoding"
        );
    }

    #[test]
    fn corrupt_index_checkpoint_is_rejected() {
        let mut store = ObjectStore::new(MemDisk::new(BS, 2_048), 64);
        store.create_partition(P, 16 << 20).unwrap();
        let o = store.create_object(P, 0, None, 0).unwrap();
        store.write(P, o, 0, b"payload", 0).unwrap();
        store.checkpoint().unwrap();
        let epoch = store.checkpoint_seq;
        let layout = *store.layout();
        let mut device = store.cache().device().clone();
        drop(store);

        let target = layout.index_copy_start(epoch);
        let mut buf = vec![0u8; BS];
        device.read_block(target, &mut buf).unwrap();
        buf[3] ^= 0x80;
        device.write_block(target, &buf).unwrap();
        assert!(matches!(
            ObjectStore::open(device, 8),
            Err(StoreError::Corrupt("index checkpoint checksum mismatch"))
        ));
    }

    #[test]
    fn extent_encoding_roundtrip() {
        for blocks in [
            vec![],
            vec![5],
            vec![5, 6, 7, 100, 101, 3, 900],
            (0..100u64).map(|i| i * 2 + 200).collect::<Vec<_>>(), // 100 runs
        ] {
            let mut main = WireWriter::new();
            let mut overflow = WireWriter::new();
            encode_extents(&mut main, &mut overflow, &blocks);
            let main = main.into_vec();
            let overflow = overflow.into_vec();
            let mut r = WireReader::new(&main);
            assert_eq!(decode_extents(&mut r, &overflow, 1 << 20).unwrap(), blocks);
            r.finish().unwrap();
        }
    }

    #[test]
    fn hostile_extent_length_is_rejected() {
        // 16 bytes of disk must not be able to demand 2^64 block
        // numbers: a run length beyond the device fails the decode
        // instead of materializing the run.
        for len in [u64::MAX, 4_097] {
            let mut main = WireWriter::new();
            main.u8(1); // one inline run
            main.u64(0).u64(len);
            main.u8(0); // no indirect extents
            let buf = main.into_vec();
            let mut r = WireReader::new(&buf);
            assert!(matches!(
                decode_extents(&mut r, &[], 4_096),
                Err(DecodeError::BadTag { .. })
            ));
        }
    }

    #[test]
    fn hostile_checkpoint_length_is_rejected() {
        // A superblock whose checkpoint_len points past the index area
        // must fail cleanly instead of sizing a read (and allocation)
        // from the hostile value.
        let mut store = ObjectStore::new(MemDisk::new(BS, 2_048), 64);
        store.create_partition(P, 16 << 20).unwrap();
        store.checkpoint().unwrap();
        let epoch = store.checkpoint_seq;
        let layout = *store.layout();
        let mut device = store.cache().device().clone();
        drop(store);

        // Rewrite both superblock copies with a huge checkpoint_len and
        // a recomputed checksum so only the length check can object.
        let sb = Superblock {
            layout,
            checkpoint_seq: epoch,
            checkpoint_len: u64::MAX / 2,
            checkpoint_crc: 0,
        };
        sb.store(&mut device).unwrap();
        assert!(matches!(
            ObjectStore::open(device, 8),
            Err(StoreError::Corrupt(
                "checkpoint length exceeds the index area"
            ))
        ));
    }

    #[test]
    fn metadata_area_sizing() {
        // A device too small for its metadata is wholly reserved: the
        // store formats with zero data capacity instead of overlapping
        // regions (the old `meta_blocks` returned 0 for tiny devices).
        for tiny in [0u64, 1, 2, 16] {
            assert_eq!(meta_blocks(512, tiny), tiny);
        }
        // Normal devices keep most of their capacity for data.
        for (bs, total) in [(512usize, 2_048u64), (8_192, 4_096), (8_192, 1 << 20)] {
            let meta = meta_blocks(bs, total);
            assert!(meta > 2, "superblocks, bitmap, log and index reserved");
            assert!(
                meta <= total / 10,
                "metadata under 10% of a real device: {meta}/{total}"
            );
        }
    }

    #[test]
    fn tiny_device_operations_fail_cleanly() {
        // 16 blocks cannot hold the metadata area: the store still
        // constructs, partition bookkeeping works, but nothing that
        // needs disk space or durability succeeds — and nothing panics.
        let mut store = ObjectStore::new(MemDisk::new(512, 16), 4);
        store.create_partition(P, 1 << 20).unwrap();
        assert_eq!(
            store.create_object(P, 512, None, 0).unwrap_err(),
            StoreError::NoSpace
        );
        assert_eq!(store.checkpoint().unwrap_err(), StoreError::NoSpace);
    }
}
