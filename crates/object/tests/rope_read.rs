//! Property tests for the scatter-gather read path: `ObjectStore::read`
//! now returns a [`bytes::ByteRope`] of cache-block views instead of a
//! flat copy, and this file proves the rope is byte-for-byte identical
//! to the flat reference model across random offset/len/block-size
//! combinations — including reads that span zero-filled gap blocks
//! created by writes past end-of-object.

use nasd_disk::MemDisk;
use nasd_object::ObjectStore;
use nasd_proto::{ObjectId, PartitionId};
use proptest::prelude::*;

const BLOCK_SIZES: [usize; 3] = [512, 2048, 8192];

fn seeded_store(
    bs: usize,
    cache_blocks: usize,
    writes: &[(u64, usize, u8)],
) -> (ObjectStore<MemDisk>, PartitionId, ObjectId, Vec<u8>) {
    let mut store = ObjectStore::new(MemDisk::new(bs, 4096), cache_blocks);
    let p = PartitionId(1);
    store.create_partition(p, 1 << 30).unwrap();
    let obj = store.create_object(p, 0, None, 0).unwrap();
    let mut model: Vec<u8> = Vec::new();
    for &(offset, len, byte) in writes {
        store.write(p, obj, offset, &vec![byte; len], 0).unwrap();
        let end = offset as usize + len;
        if model.len() < end {
            // Writes past end-of-object leave a zero-filled gap, same
            // as the store's eager gap blocks.
            model.resize(end, 0);
        }
        model[offset as usize..end].fill(byte);
    }
    (store, p, obj, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rope a read returns flattens to exactly what the old flat
    /// read produced: the model slice, truncated at end-of-object.
    /// Write offsets jump around so reads cross zero-filled gap blocks,
    /// and the 16-block cache forces eviction/refill along the way.
    #[test]
    fn rope_read_matches_flat_model(
        bs_sel in 0usize..BLOCK_SIZES.len(),
        writes in proptest::collection::vec(
            (0u64..120_000, 1usize..20_000, any::<u8>()),
            1..12
        ),
        reads in proptest::collection::vec(
            (0u64..140_000, 0u64..40_000),
            1..16
        ),
    ) {
        let bs = BLOCK_SIZES[bs_sel];
        let (mut store, p, obj, model) = seeded_store(bs, 16, &writes);
        for (offset, len) in reads {
            let got = store.read(p, obj, offset, len, 1).unwrap();
            let start = (offset as usize).min(model.len());
            let end = (offset as usize).saturating_add(len as usize).min(model.len());
            prop_assert_eq!(
                got.to_vec(),
                model[start..end].to_vec(),
                "offset {} len {} bs {}",
                offset, len, bs
            );
        }
    }

    /// Cache-warm reads are zero-copy: once every block of the range is
    /// resident, re-reading it moves no payload bytes — the rope is
    /// views of the cached blocks, not copies.
    #[test]
    fn warm_reads_copy_nothing(
        bs_sel in 0usize..BLOCK_SIZES.len(),
        fill in any::<u8>(),
        size in 1usize..30_000,
        offset in 0u64..30_000,
        len in 0u64..35_000,
    ) {
        let bs = BLOCK_SIZES[bs_sel];
        // Cache big enough to hold the whole object: no eviction, so
        // the second read finds every block resident.
        let (mut store, p, obj, model) = seeded_store(bs, 128, &[(0, size, fill)]);
        let cold = store.read(p, obj, offset, len, 1).unwrap();
        let before = bytes::stats::bytes_copied();
        let misses = store.cache().stats().misses;
        let warm = store.read(p, obj, offset, len, 2).unwrap();
        prop_assert_eq!(
            bytes::stats::bytes_copied(), before,
            "warm read of a resident range must not copy payload bytes"
        );
        prop_assert_eq!(store.cache().stats().misses, misses, "warm read misses nothing");
        prop_assert_eq!(cold.to_vec(), warm.to_vec());
        let start = (offset as usize).min(model.len());
        let end = (offset as usize).saturating_add(len as usize).min(model.len());
        prop_assert_eq!(warm.to_vec(), model[start..end].to_vec());
    }
}
